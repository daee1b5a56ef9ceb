//! Self-time accounting for the traced run.
//!
//! The benchmark wraps each call into a layer in a `lorafusion_trace` span
//! named `perf.<layer>`, and each timed operation in a `perf.op` span whose
//! self time is the loop's glue. Library-internal spans are recorded too
//! while tracing is on (that is part of the tracing overhead) but are
//! dropped here.

use std::collections::BTreeMap;

use crate::stats::{add_self_times, SpanRec};

/// Prefix of the benchmark's own spans.
const PREFIX: &str = "perf.";

/// Summed self time per benchmark span, fed by draining the span buffers.
#[derive(Default)]
pub struct SelfTimes {
    ns: BTreeMap<&'static str, u64>,
    buf: Vec<SpanRec>,
}

impl SelfTimes {
    /// Drains every thread's span buffer and adds the self time of the
    /// benchmark's spans. Call only when no benchmark span is open.
    pub fn collect(&mut self) {
        self.buf.clear();
        for thread in lorafusion_trace::span::drain_all_events() {
            self.buf.extend(
                thread
                    .events
                    .iter()
                    .filter(|e| e.name.starts_with(PREFIX))
                    .map(|e| SpanRec {
                        id: e.id,
                        parent: e.parent,
                        name: e.name,
                        dur_ns: e.dur_ns,
                    }),
            );
        }
        add_self_times(&self.buf, &mut self.ns);
    }

    /// Self time of span `perf.<layer>` in seconds.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.ns
            .iter()
            .find(|(name, _)| name.strip_prefix(PREFIX) == Some(layer))
            .map_or(0.0, |(_, &ns)| ns as f64 / 1e9)
    }
}

/// Turns tracing on or off for the whole process.
pub fn set_tracing(on: bool) {
    if on {
        lorafusion_trace::enable_capture();
    } else {
        lorafusion_trace::disable();
    }
}
