//! Schema validation for the exported telemetry, read back through
//! [`crate::json::parse`].
//!
//! Two schemas are checked. A Chrome trace-event file must have the
//! invariants Perfetto relies on: every event has a `ph`; `"X"` events
//! carry `name`/`ts`/`dur`/`pid`/`tid` with non-negative durations;
//! `"C"` events carry a numeric `args` value; metadata events name a
//! process or thread. A metrics snapshot is the object that
//! [`metrics_json`] writes, and this module is the one place that both
//! writes and checks it. `scripts/ci.sh` gates on both via the
//! `trace_validate` binary.

use std::collections::BTreeSet;
use std::path::Path;

use crate::hist;
use crate::json::{self, Json};
use crate::metrics::{self, Kind};

/// Summary of a validated trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub events: usize,
    pub complete_events: usize,
    pub counter_events: usize,
    pub meta_events: usize,
    /// Complete events with `cat == "idle"` (simulated bubbles).
    pub idle_events: usize,
    /// Complete events with `cat == "sim"` (simulated kernels).
    pub sim_kernel_events: usize,
    /// Distinct counter-track names.
    pub counter_tracks: usize,
    /// The counter-track names themselves, so gates can require a
    /// *specific* counter (e.g. `scheduler.repack.cold_solves`) made it
    /// into the export, not just "some counters".
    pub counter_names: BTreeSet<String>,
    pub pids: BTreeSet<u64>,
    /// Distinct `(pid, tid)` tracks carrying complete events.
    pub tids: BTreeSet<(u64, u64)>,
}

fn require_num(event: &Json, key: &str, index: usize) -> Result<f64, String> {
    event
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event {index}: missing or non-numeric {key:?}"))
}

fn require_str<'a>(event: &'a Json, key: &str, index: usize) -> Result<&'a str, String> {
    event
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event {index}: missing or non-string {key:?}"))
}

/// Validate a trace-event JSON document against the Chrome schema
/// subset Perfetto needs. Accepts both the `{"traceEvents": [...]}`
/// wrapper and a bare top-level array.
pub fn validate_trace_str(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text)?;
    let events = match &doc {
        Json::Arr(_) => &doc,
        Json::Obj(_) => doc
            .get("traceEvents")
            .ok_or("top-level object lacks \"traceEvents\"")?,
        _ => return Err("top level must be an object or array".into()),
    };
    let events = events.as_arr().ok_or("\"traceEvents\" must be an array")?;

    let mut stats = TraceStats::default();
    for (index, event) in events.iter().enumerate() {
        if !matches!(event, Json::Obj(_)) {
            return Err(format!("event {index}: not an object"));
        }
        stats.events += 1;
        let ph = require_str(event, "ph", index)?;
        match ph {
            "X" => {
                require_str(event, "name", index)?;
                require_num(event, "ts", index)?;
                let dur = require_num(event, "dur", index)?;
                if dur < 0.0 {
                    return Err(format!("event {index}: negative dur {dur}"));
                }
                let pid = require_num(event, "pid", index)? as u64;
                let tid = require_num(event, "tid", index)? as u64;
                stats.pids.insert(pid);
                stats.tids.insert((pid, tid));
                stats.complete_events += 1;
                match event.get("cat").and_then(Json::as_str) {
                    Some("idle") => stats.idle_events += 1,
                    Some("sim") => stats.sim_kernel_events += 1,
                    _ => {}
                }
            }
            "C" => {
                let name = require_str(event, "name", index)?;
                crate::label::check_labeled_name(name)
                    .map_err(|e| format!("event {index}: counter name {name:?}: {e}"))?;
                require_num(event, "ts", index)?;
                let pid = require_num(event, "pid", index)? as u64;
                stats.pids.insert(pid);
                let args = event
                    .get("args")
                    .ok_or_else(|| format!("event {index}: counter lacks args"))?;
                let ok = matches!(args, Json::Obj(fields)
                    if !fields.is_empty() && fields.iter().all(|(_, v)| v.as_num().is_some()));
                if !ok {
                    return Err(format!("event {index}: counter args must be numeric"));
                }
                stats.counter_names.insert(name.to_owned());
                stats.counter_events += 1;
            }
            "M" => {
                let name = require_str(event, "name", index)?;
                if name == "process_name" || name == "thread_name" {
                    let args = event.get("args").and_then(|a| a.get("name"));
                    if args.and_then(Json::as_str).is_none() {
                        return Err(format!("event {index}: metadata {name:?} lacks args.name"));
                    }
                }
                stats.meta_events += 1;
            }
            _ => {
                // Other phases (B/E/i/s/f/...) are legal Chrome events
                // we simply don't emit; count them but don't reject.
            }
        }
    }
    stats.counter_tracks = stats.counter_names.len();
    Ok(stats)
}

/// Validate the trace file at `path`.
pub fn validate_trace_file(path: &Path) -> Result<TraceStats, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_trace_str(&text)
}

/// The full metrics registry as a JSON object (name → value, histograms
/// as `{total, p50, p95, p99, buckets: [[upper_bound, count], ...]}`).
/// The quantiles follow the deterministic [`crate::hist`] contract, so
/// they are bitwise-identical across thread counts and across merge
/// orders. [`validate_metrics_str`] checks exactly this shape.
pub fn metrics_json() -> Json {
    let fields = metrics::metrics_snapshot()
        .into_iter()
        .map(|m| {
            let value = match m.kind {
                Kind::Histogram => {
                    let quantile = |q| Json::num(hist::quantile_from_buckets(&m.buckets, q) as f64);
                    Json::Obj(vec![
                        ("total".into(), Json::num(m.value)),
                        ("p50".into(), quantile(0.50)),
                        ("p95".into(), quantile(0.95)),
                        ("p99".into(), quantile(0.99)),
                        (
                            "buckets".into(),
                            Json::Arr(
                                m.buckets
                                    .iter()
                                    .map(|&(bound, count)| {
                                        Json::Arr(vec![
                                            Json::num(bound as f64),
                                            Json::num(count as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }
                _ => Json::num(m.value),
            };
            (m.name.to_string(), value)
        })
        .collect();
    Json::Obj(fields)
}

/// Summary of a validated `*.metrics.json` snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsStats {
    /// Scalar (counter/gauge) metric names.
    pub scalar_names: BTreeSet<String>,
    /// Histogram metric names.
    pub histogram_names: BTreeSet<String>,
}

/// Validate a metrics snapshot (`<trace stem>.metrics.json`, rendered
/// from [`metrics_json`] by `lorafusion-bench`'s reporter): a single
/// object mapping metric names to either a number (counter/gauge) or a
/// histogram object `{total, p50, p95, p99, buckets: [[bound, count],
/// ...]}` with strictly ascending bounds and `total == sum(counts)`.
/// Every name must satisfy the labeled-metric grammar
/// ([`crate::label::check_labeled_name`]).
pub fn validate_metrics_str(text: &str) -> Result<MetricsStats, String> {
    let doc = json::parse(text)?;
    let Json::Obj(fields) = &doc else {
        return Err("metrics snapshot: top level must be an object".into());
    };
    let mut stats = MetricsStats::default();
    for (name, value) in fields {
        crate::label::check_labeled_name(name).map_err(|e| format!("metric name {name:?}: {e}"))?;
        match value {
            Json::Num(_) => {
                stats.scalar_names.insert(name.clone());
            }
            Json::Obj(_) => {
                let total = value
                    .get("total")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("histogram {name:?}: missing numeric \"total\""))?;
                for q in ["p50", "p95", "p99"] {
                    if value.get(q).is_some_and(|v| v.as_num().is_none()) {
                        return Err(format!("histogram {name:?}: non-numeric {q:?}"));
                    }
                }
                let buckets = value
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histogram {name:?}: missing \"buckets\" array"))?;
                let mut sum = 0.0;
                let mut prev_bound = -1.0;
                for (i, b) in buckets.iter().enumerate() {
                    let pair = b.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        format!("histogram {name:?}: bucket {i} is not a [bound, count] pair")
                    })?;
                    let bound = pair[0]
                        .as_num()
                        .ok_or_else(|| format!("histogram {name:?}: bucket {i} bound"))?;
                    let count = pair[1]
                        .as_num()
                        .ok_or_else(|| format!("histogram {name:?}: bucket {i} count"))?;
                    if bound <= prev_bound {
                        return Err(format!(
                            "histogram {name:?}: bucket bounds must be strictly ascending \
                             (bucket {i}: {bound} after {prev_bound})"
                        ));
                    }
                    if count < 0.0 {
                        return Err(format!("histogram {name:?}: negative count at bucket {i}"));
                    }
                    prev_bound = bound;
                    sum += count;
                }
                if sum != total {
                    return Err(format!(
                        "histogram {name:?}: total {total} != bucket sum {sum}"
                    ));
                }
                stats.histogram_names.insert(name.clone());
            }
            _ => {
                return Err(format!(
                    "metric {name:?}: value must be a number or a histogram object"
                ));
            }
        }
    }
    Ok(stats)
}

/// Validate the metrics snapshot at `path`.
pub fn validate_metrics_file(path: &Path) -> Result<MetricsStats, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_metrics_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_wellformed_trace() {
        let text = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"cpu"}},
            {"ph":"X","name":"gemm","cat":"work","pid":1,"tid":1,"ts":0,"dur":10,"args":{"m":4}},
            {"ph":"X","name":"idle","cat":"idle","pid":2,"tid":1,"ts":10,"dur":5},
            {"ph":"X","name":"k1","cat":"sim","pid":2,"tid":1,"ts":0,"dur":10},
            {"ph":"C","name":"gemm.calls","pid":1,"tid":0,"ts":10,"args":{"value":3}}
        ]}"#;
        let stats = validate_trace_str(text).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.idle_events, 1);
        assert_eq!(stats.sim_kernel_events, 1);
        assert_eq!(stats.counter_tracks, 1);
        assert!(stats.counter_names.contains("gemm.calls"));
        assert_eq!(stats.pids.len(), 2);
    }

    #[test]
    fn validates_metrics_snapshot() {
        let good = r#"{
            "gemm.calls": 12,
            "gemm.calls{class=small}": 9,
            "scheduler.event.padded_tokens{class=arrive}":
                {"total": 3, "p50": 128, "p95": 256, "p99": 256,
                 "buckets": [[128, 2], [256, 1]]}
        }"#;
        let stats = validate_metrics_str(good).unwrap();
        assert!(stats.scalar_names.contains("gemm.calls{class=small}"));
        assert!(stats
            .histogram_names
            .contains("scheduler.event.padded_tokens{class=arrive}"));

        let bad_total = r#"{"h": {"total": 5, "buckets": [[1, 1], [2, 1]]}}"#;
        assert!(validate_metrics_str(bad_total).is_err());
        let bad_bounds = r#"{"h": {"total": 2, "buckets": [[2, 1], [1, 1]]}}"#;
        assert!(validate_metrics_str(bad_bounds).is_err());
        let bad_name = r#"{"h{b=2,a=1}": 3}"#;
        assert!(validate_metrics_str(bad_name).is_err());
        assert!(validate_metrics_str("[1]").is_err());
    }

    #[test]
    fn metrics_json_renders_every_registered_metric() {
        metrics::counter("validate.test_counter").add(3);
        metrics::gauge("validate.test_gauge").set(2.5);
        metrics::histogram("validate.test_hist").record(100);
        let rendered = metrics_json().pretty();
        assert!(rendered.contains("\"validate.test_counter\": 3"));
        assert!(rendered.contains("\"validate.test_gauge\": 2.5"));
        let stats = validate_metrics_str(&rendered).unwrap();
        assert!(stats.scalar_names.contains("validate.test_counter"));
        assert!(stats.histogram_names.contains("validate.test_hist"));
    }

    #[test]
    fn counter_names_must_be_wellformed_labels() {
        let bad = r#"{"traceEvents":[
            {"ph":"C","name":"a{b=2,a=1}","pid":1,"tid":0,"ts":0,"args":{"value":1}}
        ]}"#;
        let err = validate_trace_str(bad).unwrap_err();
        assert!(err.contains("ascending"), "got: {err}");
        let good = r#"{"traceEvents":[
            {"ph":"C","name":"a{a=1,b=2}.p99","pid":1,"tid":0,"ts":0,"args":{"value":1}}
        ]}"#;
        assert!(validate_trace_str(good).is_ok());
    }

    #[test]
    fn rejects_malformed_events() {
        let missing_tid = r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":1,"pid":1}]}"#;
        assert!(validate_trace_str(missing_tid).is_err());
        let negative_dur =
            r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":-1,"pid":1,"tid":1}]}"#;
        assert!(validate_trace_str(negative_dur).is_err());
        let bad_counter = r#"{"traceEvents":[{"ph":"C","name":"c","ts":0,"pid":1,"args":{}}]}"#;
        assert!(validate_trace_str(bad_counter).is_err());
        assert!(validate_trace_str("not json").is_err());
    }
}
