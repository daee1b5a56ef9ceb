//! Shared run reporting for the benchmark binaries.
//!
//! Every binary under `src/bin/` brackets its `main` with
//! [`init`]/[`finish`]:
//!
//! * [`init`] names the run and arms tracing. Tracing turns on when the
//!   `LORAFUSION_TRACE=<path>` environment variable is set *or* the
//!   binary is invoked with `--trace <path>` (or `--trace=<path>`) — the
//!   flag wins when both are present.
//! * [`scalar`] replaces ad-hoc `println!` stat dumps: it prints the
//!   stat *and* records it as a registry gauge, so every headline number
//!   a binary reports is also in the metrics snapshot and on the trace's
//!   counter tracks.
//! * [`finish`] takes a final counter sample, flushes the Perfetto
//!   `trace.json` (when tracing is on) and writes the full metrics
//!   snapshot next to it as `<trace stem>.metrics.json`
//!   ([`lorafusion_trace::validate::metrics_json`]).
//!
//! All of it is inert when tracing is disabled except `scalar`'s print
//! and gauge store (a couple of relaxed atomics).

use std::path::Path;

use lorafusion_trace::metrics::{self, gauge, intern};
use lorafusion_trace::validate::metrics_json;

/// Parses `--trace` out of argv, arms tracing, records the run name.
pub fn init(bin: &'static str) {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            if let Some(path) = args.next() {
                lorafusion_trace::enable_to_path(Path::new(&path));
            }
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            lorafusion_trace::enable_to_path(Path::new(path));
        }
    }
    // Resolve the env-var path (if any) now so the trace epoch starts at
    // program start, not at the first instrumented call.
    if lorafusion_trace::enabled() {
        println!(
            "(tracing to {})",
            lorafusion_trace::trace_path()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "memory".into())
        );
    }
    gauge(intern(&format!("run.{bin}"))).set(1.0);
}

/// Prints `name = value` and records it as a registry gauge.
pub fn scalar(name: &str, value: f64) {
    // Integers print as integers; everything else keeps four decimals.
    if value.fract() == 0.0 && value.abs() < 1e15 {
        println!("{name} = {value}");
    } else {
        println!("{name} = {value:.4}");
    }
    gauge(intern(name)).set(value);
}

/// Final counter sample, trace flush, metrics snapshot.
pub fn finish() {
    metrics::sample_counters();
    let Some(path) = lorafusion_trace::trace_path() else {
        return;
    };
    match lorafusion_trace::flush() {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace flush to {} failed: {e}", path.display()),
    }
    let snapshot_path = path.with_extension("metrics.json");
    match std::fs::write(&snapshot_path, metrics_json().pretty()) {
        Ok(()) => println!("metrics snapshot written to {}", snapshot_path.display()),
        Err(e) => eprintln!("metrics snapshot {} failed: {e}", snapshot_path.display()),
    }
}

/// RAII form: [`init`] now, [`finish`] when dropped. Binding this at the
/// top of `main` is the whole integration a binary needs — the trace is
/// flushed on every exit path, early `return`s and panics included.
pub struct RunGuard;

impl Drop for RunGuard {
    fn drop(&mut self) {
        finish();
    }
}

/// Arms tracing for this run and returns the flush-on-drop guard.
#[must_use = "the guard flushes the trace when dropped"]
pub fn init_guard(bin: &'static str) -> RunGuard {
    init(bin);
    RunGuard
}
