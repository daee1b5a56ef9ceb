//! Chrome trace-event exporter (the JSON format ui.perfetto.dev and
//! `chrome://tracing` load).
//!
//! One file combines three sources:
//!
//! - **pid 1, "lorafusion cpu"**: one track per real thread that
//!   recorded spans, rendered as `ph:"X"` complete events with
//!   `cat:"work"` / `cat:"task"` and the span's `key = value` args.
//! - **pid 2, "simulated gpu"**: one track per simulated stream from
//!   [`crate::sim`], kernels as `cat:"sim"` and bubbles as
//!   `cat:"idle"` events.
//! - **counter tracks**: `ph:"C"` events from the metrics registry's
//!   timestamped samples, plus one final sample taken at write time so
//!   every registered counter shows up even if the run never sampled.
//!
//! The writer is idempotent: it snapshots (never drains) the buffers
//! and rewrites the whole file, so [`crate::flush`] can run at every
//! phase boundary and the last write wins.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::escape;
use crate::metrics;
use crate::sim;
use crate::span::{self, Cat};

const CPU_PID: u64 = 1;
const SIM_PID: u64 = 2;

fn num(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Incremental trace-event JSON builder: events are written straight
/// into one string (a simulated run emits up to 250k of them), with
/// every string quoted by [`crate::json::escape`]. Crate-visible so the
/// flight recorder renders its post-mortem dumps through the same
/// escaping and schema as the live exporter.
pub(crate) struct Events {
    out: String,
    first: bool,
}

impl Events {
    pub(crate) fn new() -> Self {
        Events {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn start(&mut self) -> &mut String {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
        &mut self.out
    }

    pub(crate) fn metadata(&mut self, pid: u64, tid: u64, which: &str, name: &str) {
        let out = self.start();
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{which}\",\"args\":{{\"name\":"
        );
        escape(name, out);
        out.push_str("}}");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, f64)],
    ) {
        let out = self.start();
        out.push_str("{\"ph\":\"X\",\"name\":");
        escape(name, out);
        let _ = write!(
            out,
            ",\"cat\":\"{cat}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{}",
            num(ts_us),
            num(dur_us)
        );
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(key, out);
                let _ = write!(out, ":{}", num(*value));
            }
            out.push('}');
        }
        out.push('}');
    }

    pub(crate) fn counter(&mut self, pid: u64, name: &str, ts_us: f64, value: f64) {
        let out = self.start();
        out.push_str("{\"ph\":\"C\",\"name\":");
        escape(name, out);
        let _ = write!(
            out,
            ",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"value\":{}}}}}",
            num(ts_us),
            num(value)
        );
    }

    pub(crate) fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Render the current capture state to a trace-event JSON string.
pub fn render_trace() -> String {
    // A final sample guarantees every registered counter appears as a
    // track even if the run never called sample_counters() itself.
    metrics::sample_counters();

    let threads = span::all_thread_events();
    let sim_labels = sim::sim_track_labels();
    let sim_events = sim::sim_events();
    let samples = metrics::counter_samples();

    let mut events = Events::new();
    events.metadata(CPU_PID, 0, "process_name", "lorafusion cpu");
    for t in &threads {
        if !t.events.is_empty() {
            events.metadata(CPU_PID, t.tid, "thread_name", &t.name);
        }
    }
    if !sim_labels.is_empty() {
        events.metadata(SIM_PID, 0, "process_name", "simulated gpu");
        for (i, label) in sim_labels.iter().enumerate() {
            events.metadata(SIM_PID, i as u64 + 1, "thread_name", label);
        }
    }

    let mut arg_buf: Vec<(&str, f64)> = Vec::new();
    for t in &threads {
        for e in &t.events {
            arg_buf.clear();
            arg_buf.extend(e.arg_slice().iter().map(|&(k, v)| (k, v as f64)));
            events.complete(
                CPU_PID,
                t.tid,
                e.name,
                match e.cat {
                    Cat::Work => "work",
                    Cat::Task => "task",
                },
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                &arg_buf,
            );
        }
    }
    for e in &sim_events {
        events.complete(
            SIM_PID,
            e.track,
            &e.name,
            if e.idle { "idle" } else { "sim" },
            e.start_us,
            e.dur_us,
            &[],
        );
    }
    for s in &samples {
        events.counter(CPU_PID, s.name, s.ts_us, s.value);
    }
    events.finish()
}

/// Render and write the trace to `path` (parent directories created).
pub fn write_trace(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_trace_str;

    #[test]
    fn rendered_trace_validates() {
        let _serial = crate::test_serial();
        crate::enable_capture();
        span::drain_all_events();
        {
            let _outer = crate::span!("chrome.outer", m = 3usize);
            let _inner = crate::task_span!("chrome.inner");
        }
        // A hostile stream label must not break the JSON.
        let track = sim::sim_track("chrome \"test\"\\ stream\n");
        sim::sim_complete(track, "k_fused", 0.0, 42.0);
        sim::sim_idle(track, 42.0, 8.0);
        metrics::counter("test.chrome.counter").add(2);
        metrics::sample_counters();
        let json = render_trace();
        crate::disable();

        let stats = validate_trace_str(&json).expect("emitted trace must validate");
        assert!(stats.complete_events >= 4, "spans + sim events present");
        assert!(stats.idle_events >= 1, "idle event present");
        assert!(stats.counter_tracks >= 1, "counter track present");
        assert!(stats.pids.contains(&CPU_PID) && stats.pids.contains(&SIM_PID));
        span::drain_all_events();
    }
}
