//! `lorafusion-trace`: spans, metrics, and Chrome/Perfetto export.
//!
//! The crate has four layers, all dependency-free:
//!
//! 1. **Spans** ([`span!`] / [`task_span!`]): RAII guards that record a
//!    named interval into a thread-local buffer. When tracing is
//!    disabled the guard is a no-op behind a single relaxed atomic
//!    load — no heap allocation, no thread-local buffer touch — so the
//!    hot kernel paths stay zero-alloc (asserted by
//!    `crates/kernels/tests/zero_alloc.rs`).
//! 2. **Metrics** ([`metrics`], [`label`], [`hist`]): a global registry
//!    of named counters, gauges, and log-linear histograms backed by
//!    leaked `&'static AtomicU64` cells. Always on (an atomic add is
//!    cheap), snapshotted on demand, and sampled into Perfetto counter
//!    tracks. Every histogram shares one bucket table, so quantiles are
//!    bitwise-identical at any thread count.
//! 3. **JSON** ([`json`]): the workspace's one JSON codec — the
//!    [`json::Json`] value type with its emitter, the [`json::ToJson`]
//!    trait and [`impl_to_json!`] for result structs, one string
//!    escaper, and a strict linear-time parser.
//! 4. **Exporters and checks** ([`chrome`], [`sim`], [`flight`],
//!    [`validate`], [`regress`]): render real CPU execution (one track
//!    per worker thread) and the simulated GPU timelines (one track per
//!    stream) into a single Chrome trace-event JSON file, write and
//!    validate the metrics snapshot, and diff bench results against
//!    their pinned baselines, so CI can gate on well-formed output.
//!
//! # Determinism contract
//!
//! Trace *output* carries wall-clock timestamps and is therefore
//! excluded from the repo's bitwise-determinism contract. Span
//! *structure* is split in two:
//!
//! - [`span::Cat::Work`] spans are semantic (a GEMM call, an executor
//!   step, a pipeline simulation). Their names, nesting, and counts
//!   must be identical at any thread count; `pool::run` propagates the
//!   submitter's span as the *logical* parent of every task so the
//!   tree reflects the call structure, not thread assignment.
//! - [`span::Cat::Task`] spans (pool tasks, macro-tiles) depend on the
//!   thread count by construction and are excluded from the contract;
//!   they exist so Perfetto shows real per-thread occupancy.
//!
//! # Enabling
//!
//! Set `LORAFUSION_TRACE=/path/to/trace.json` before the process
//! starts, or pass `--trace <path>` to any bench/fig binary. Tests use
//! [`enable_capture`] / [`disable`] to capture spans in-process
//! without touching the environment.

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod label;
pub mod metrics;
pub mod regress;
pub mod sim;
pub mod span;
pub mod validate;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();
static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether span capture is currently enabled.
///
/// First call runs one-time env initialisation (`LORAFUSION_TRACE`);
/// after that this is a single relaxed atomic load, cheap enough for
/// the innermost kernel loops.
#[inline]
pub fn enabled() -> bool {
    INIT.call_once(init_from_env);
    ENABLED.load(Ordering::Relaxed)
}

fn init_from_env() {
    EPOCH.get_or_init(Instant::now);
    if let Ok(path) = std::env::var("LORAFUSION_TRACE") {
        if !path.is_empty() {
            *PATH.lock().unwrap() = Some(PathBuf::from(path));
            ENABLED.store(true, Ordering::Relaxed);
        }
    }
    if let Ok(path) = std::env::var("LORAFUSION_FLIGHT_DUMP") {
        if !path.is_empty() {
            flight::dump_on_panic(Path::new(&path));
        }
    }
    if std::env::var("LORAFUSION_FLIGHT").is_ok_and(|v| v == "1") {
        flight::enable();
    }
}

/// Enable span capture without an output file (tests, programmatic use).
pub fn enable_capture() {
    INIT.call_once(init_from_env);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enable span capture and set the trace output path ( `--trace` flag).
pub fn enable_to_path(path: &Path) {
    INIT.call_once(init_from_env);
    *PATH.lock().unwrap() = Some(path.to_path_buf());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable span capture. Already-buffered events are kept until
/// [`span::drain_all_events`] or process exit.
pub fn disable() {
    INIT.call_once(init_from_env);
    ENABLED.store(false, Ordering::Relaxed);
}

/// The configured trace output path, if any.
pub fn trace_path() -> Option<PathBuf> {
    INIT.call_once(init_from_env);
    PATH.lock().unwrap().clone()
}

/// Nanoseconds since the process-wide trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Microseconds (Chrome trace-event unit) since the trace epoch.
#[inline]
pub fn now_us() -> f64 {
    now_ns() as f64 / 1e3
}

/// Flush buffered spans, sim events, and counter samples to the
/// configured trace path. No-op when no path is configured. Safe to
/// call repeatedly: the file is rewritten whole each time.
pub fn flush() -> std::io::Result<()> {
    if let Some(path) = trace_path() {
        chrome::write_trace(&path)?;
    }
    Ok(())
}

/// Serialises unit tests that flip the global enable flag or drain the
/// global span buffers; `cargo test` runs tests on threads in one
/// process.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_without_env() {
        let _serial = test_serial();
        // The test harness does not set LORAFUSION_TRACE; after
        // explicit disable() the flag must read false and span guards
        // must be inert.
        disable();
        assert!(!enabled());
        let guard = span::span_guard("noop", span::Cat::Work, &[]);
        assert!(!guard.is_live());
        drop(guard);
    }

    #[test]
    fn enable_capture_round_trip() {
        let _serial = test_serial();
        enable_capture();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(now_us() >= 0.0);
    }
}
