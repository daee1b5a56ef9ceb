//! The metric tables and the result line.
//!
//! Every workload reports every metric of the active table, so the result
//! line always has the same keys; a per-layer metric of a layer the
//! workload does not run reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tokens_per_s", "tok/s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("bins_over_lb", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A `_s`
/// metric is the self time per pass of the spans around that layer's
/// calls; `.share` divides it by the traced loop time per pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("scheduler.schedule_s", "s"),
    ("scheduler.packings", "count"),
    ("scheduler.milp_selected", "count"),
    ("scheduler.timed_out_packings", "count"),
    ("scheduler.microbatches", "count"),
    ("scheduler.noops", "count"),
    ("scheduler.pad_efficiency", "ratio"),
    ("kernels.multi.forward_s", "s"),
    ("kernels.multi.forward.share", "ratio"),
    ("kernels.multi.backward_s", "s"),
    ("kernels.multi.backward.share", "ratio"),
    ("kernels.multi.gflops", "GFLOP/s"),
    ("kernels.multi.segments_per_mb", "count"),
    ("kernels.chains.rmsnorm_s", "s"),
    ("kernels.chains.rmsnorm.share", "ratio"),
    ("kernels.chains.swiglu_s", "s"),
    ("kernels.chains.swiglu.share", "ratio"),
    ("kernels.loss.head_s", "s"),
    ("kernels.loss.head.share", "ratio"),
    ("kernels.loss.chunks", "count"),
    ("kernels.loss.peak_logits_mb", "MB"),
    ("core.optimizer.step_s", "s"),
    ("core.optimizer.step.share", "ratio"),
    ("core.optimizer.steps", "count"),
    ("tensor.gemm.calls", "count"),
    ("tensor.gemm.panels_packed", "count"),
    ("tensor.arena.growths", "count"),
    ("tensor.pool.tasks", "count"),
    ("scheduler.online.apply_s", "s"),
    ("scheduler.online.apply.share", "ratio"),
    ("scheduler.online.apply_us.p50.arrive", "us"),
    ("scheduler.online.apply_us.p99.arrive", "us"),
    ("scheduler.online.apply_us.p50.finish", "us"),
    ("scheduler.online.apply_us.p99.finish", "us"),
    ("scheduler.online.apply_us.p50.cancel", "us"),
    ("scheduler.online.apply_us.p99.cancel", "us"),
    ("scheduler.repack.local_repair", "count"),
    ("scheduler.repack.warm_solves", "count"),
    ("scheduler.repack.cold_solves", "count"),
    ("solver.bb.nodes", "count"),
    ("train.final_loss", "nats"),
    ("bench.glue_s", "s"),
    ("bench.glue.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Registry counters the benchmark reads, each with the per-layer metric
/// that reports its growth over one pass.
const COUNTERS: [(&str, &str); 11] = [
    ("tensor.gemm.calls", "gemm.calls"),
    ("tensor.gemm.panels_packed", "gemm.panels_packed"),
    ("tensor.arena.growths", "arena.growths"),
    ("tensor.pool.tasks", "pool.tasks"),
    ("kernels.loss.chunks", "loss.chunks"),
    (
        "scheduler.repack.local_repair",
        "scheduler.repack.local_repair",
    ),
    (
        "scheduler.repack.warm_solves",
        "scheduler.repack.warm_solves",
    ),
    (
        "scheduler.repack.cold_solves",
        "scheduler.repack.cold_solves",
    ),
    ("solver.bb.nodes", "solver.bb.nodes"),
    // Grown by `schedule_jobs`, so read per set-up rather than per pass.
    ("scheduler.packings", "scheduler.packings"),
    ("scheduler.milp_selected", "scheduler.milp_selected"),
];

/// Counters that grow during a pass (all but the set-up ones).
const PASS_COUNTERS: usize = 9;

/// A snapshot of the registry counters the benchmark reads.
#[derive(Debug, Clone, Copy)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Self {
        Self(COUNTERS.map(|(_, name)| lorafusion_trace::metrics::counter(name).get()))
    }

    /// Growth of the counter behind metric `metric` since `earlier`.
    pub fn since(&self, earlier: &Counters, metric: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&(m, _)| m == metric)
            .expect("metric is listed in COUNTERS");
        (self.0[i] - earlier.0[i]) as f64
    }

    /// Inserts the growth of every per-pass counter since `earlier`.
    pub fn insert_pass_deltas(
        &self,
        earlier: &Counters,
        metrics: &mut BTreeMap<&'static str, f64>,
    ) {
        for (i, (metric, _)) in COUNTERS.iter().enumerate().take(PASS_COUNTERS) {
            metrics.insert(metric, (self.0[i] - earlier.0[i]) as f64);
        }
    }
}

/// What one run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Timed operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; names missing here read 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and digests, printed on the line before the result.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// A run that could not set up: nothing attempted, nothing measured.
    pub fn failed(reason: String) -> Self {
        Self {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            meta: vec![("error", reason)],
        }
    }
}

/// Process high-water resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance line: a flat JSON object of strings.
pub fn meta_line(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line for `table`; a non-finite value is printed as `null`.
pub fn result_line(outcome: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}
