//! Bench-regression gate: diff current `results/BENCH_*.json` rows
//! against checked-in baselines with per-metric tolerance bands.
//!
//! The bench binaries write row-oriented JSON (`[{field: value, …}]`).
//! This module joins baseline and current rows on their identity
//! fields, classifies every metric field, and produces a
//! machine-readable verdict:
//!
//! * **identity fields** (all string-valued fields plus the shape-like
//!   integers in [`KEY_FIELDS`]) form the row key — a row present in
//!   the baseline must exist in the current results;
//! * **provenance fields** ([`SKIP_FIELDS`]: host core counts, feature
//!   strings, SIMD path) are informational and never compared;
//! * **performance fields** (seconds, `*_ns`/`*_ms`, GFLOP/s, rates,
//!   speedups — see [`classify`]) get a *relative tolerance band*,
//!   direction-aware: only a worsening beyond the band fails, an
//!   improvement always passes;
//! * **everything else is deterministic** (bin counts, rung hit
//!   counts, bitwise flags, digests) and must match exactly — these
//!   fields are covered by the repo's bitwise-determinism contract, so
//!   any drift is a real regression, not noise.
//!
//! CI runs the `bench_regress` binary over the *committed* results and
//! baselines (no re-benchmarking), so the gate is deterministic there;
//! its teeth bite when a PR regenerates `results/` — the diff against
//! `results/baselines/` then shows exactly which metric moved and by
//! how much, in the emitted verdict JSON.

use crate::json::{self, Json};

/// Integer fields that are part of a row's identity (the sweep axes),
/// not measurements.
pub const KEY_FIELDS: [&str; 4] = ["threads", "queued_jobs", "num_events", "chunk_tokens"];

/// Host-provenance fields: recorded for interpretability, never
/// compared.
pub const SKIP_FIELDS: [&str; 3] = ["host_cores", "detected_features", "simd_path"];

/// How a metric field is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Bitwise-deterministic: exact equality.
    Exact,
    /// Timing-like: larger is a regression.
    HigherWorse,
    /// Throughput-like: smaller is a regression.
    LowerWorse,
    /// Provenance: not compared.
    Skip,
}

/// Classify a field name. Deterministic fields are the default — a
/// perf metric must *look* like one (`seconds`, `*_ns`, `*_ms`,
/// `gflops*`, `*_per_sec`, `speedup*`).
pub fn classify(field: &str) -> MetricClass {
    if SKIP_FIELDS.contains(&field) {
        return MetricClass::Skip;
    }
    if field.contains("seconds") || field.ends_with("_ns") || field.ends_with("_ms") {
        return MetricClass::HigherWorse;
    }
    if field.contains("gflops") || field.contains("per_sec") || field.contains("speedup") {
        return MetricClass::LowerWorse;
    }
    MetricClass::Exact
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Check {
    pub row_key: String,
    pub field: String,
    pub baseline: f64,
    pub current: f64,
    /// Signed relative change `(current - baseline) / |baseline|`
    /// (0 when the baseline is 0 and they match).
    pub rel_delta: f64,
    pub class: MetricClass,
    pub ok: bool,
}

/// The comparison of one results file.
#[derive(Debug, Clone)]
pub struct FileReport {
    pub name: String,
    pub rows: usize,
    /// Row keys present in the baseline but missing from the current
    /// results — always a failure.
    pub missing_rows: Vec<String>,
    pub checks: Vec<Check>,
}

impl FileReport {
    pub fn ok(&self) -> bool {
        self.missing_rows.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The failing checks, for reporting.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }
}

fn rows_of(doc: &Json, which: &str) -> Result<Vec<Vec<(String, Json)>>, String> {
    let arr = doc
        .as_arr()
        .ok_or_else(|| format!("{which}: top level must be an array of rows"))?;
    arr.iter()
        .map(|row| match row {
            Json::Obj(fields) => Ok(fields.clone()),
            _ => Err(format!("{which}: row is not an object")),
        })
        .collect()
}

/// A row's identity: every string field plus the [`KEY_FIELDS`]
/// integers, in field order, rendered `k=v` and joined.
fn row_key(fields: &[(String, Json)]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in fields {
        if SKIP_FIELDS.contains(&k.as_str()) {
            continue;
        }
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Num(n) if KEY_FIELDS.contains(&k.as_str()) => parts.push(format!("{k}={n}")),
            _ => {}
        }
    }
    parts.join(",")
}

fn numeric(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Compare one results file against its baseline. `rel_tol` is the
/// relative tolerance band for performance fields (e.g. 0.5 allows a
/// 50% slowdown before failing).
pub fn compare_results(
    name: &str,
    baseline_text: &str,
    current_text: &str,
    rel_tol: f64,
) -> Result<FileReport, String> {
    let baseline = rows_of(&json::parse(baseline_text)?, "baseline")?;
    let current = rows_of(&json::parse(current_text)?, "current")?;
    let mut report = FileReport {
        name: name.to_owned(),
        rows: baseline.len(),
        missing_rows: Vec::new(),
        checks: Vec::new(),
    };
    for base_row in &baseline {
        let key = row_key(base_row);
        let Some(cur_row) = current.iter().find(|r| row_key(r) == key) else {
            report.missing_rows.push(key);
            continue;
        };
        for (field, base_val) in base_row {
            let class = classify(field);
            if class == MetricClass::Skip || KEY_FIELDS.contains(&field.as_str()) {
                continue;
            }
            // String identity fields are part of the key; remaining
            // strings (e.g. digests) compare exactly as strings.
            if let Json::Str(base_s) = base_val {
                let cur_s = cur_row
                    .iter()
                    .find(|(k, _)| k == field)
                    .and_then(|(_, v)| v.as_str());
                if class == MetricClass::Exact && cur_s != Some(base_s.as_str()) {
                    report.checks.push(Check {
                        row_key: key.clone(),
                        field: field.clone(),
                        baseline: 0.0,
                        current: 0.0,
                        rel_delta: f64::INFINITY,
                        class,
                        ok: false,
                    });
                }
                continue;
            }
            let Some(base_n) = numeric(base_val) else {
                continue;
            };
            let Some(cur_n) = cur_row
                .iter()
                .find(|(k, _)| k == field)
                .and_then(|(_, v)| numeric(v))
            else {
                report.checks.push(Check {
                    row_key: key.clone(),
                    field: field.clone(),
                    baseline: base_n,
                    current: f64::NAN,
                    rel_delta: f64::INFINITY,
                    class,
                    ok: false,
                });
                continue;
            };
            let rel_delta = if base_n == 0.0 {
                if cur_n == 0.0 {
                    0.0
                } else {
                    f64::INFINITY * (cur_n - base_n).signum()
                }
            } else {
                (cur_n - base_n) / base_n.abs()
            };
            let ok = match class {
                MetricClass::Exact => cur_n == base_n,
                MetricClass::HigherWorse => rel_delta <= rel_tol,
                MetricClass::LowerWorse => rel_delta >= -rel_tol,
                MetricClass::Skip => true,
            };
            report.checks.push(Check {
                row_key: key.clone(),
                field: field.clone(),
                baseline: base_n,
                current: cur_n,
                rel_delta,
                class,
                ok,
            });
        }
    }
    Ok(report)
}

/// Render the machine-readable verdict JSON for a set of file reports:
/// `{"ok": bool, "tolerance": f, "files": [{name, ok, rows,
/// checks_total, missing_rows, failures: [...]}]}`. Failing checks are
/// listed in full; passing ones only counted, so the verdict stays
/// small enough to archive with every CI run.
pub fn render_verdict(reports: &[FileReport], rel_tol: f64) -> String {
    let text = |s: &str| Json::Str(s.to_owned());
    let files = reports
        .iter()
        .map(|r| {
            let failures = r
                .failures()
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("row".into(), text(&c.row_key)),
                        ("field".into(), text(&c.field)),
                        ("baseline".into(), Json::num(c.baseline)),
                        ("current".into(), Json::num(c.current)),
                        ("rel_delta".into(), Json::num(c.rel_delta)),
                        ("class".into(), text(&format!("{:?}", c.class))),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), text(&r.name)),
                ("ok".into(), Json::Bool(r.ok())),
                ("rows".into(), Json::num(r.rows as f64)),
                ("checks_total".into(), Json::num(r.checks.len() as f64)),
                (
                    "missing_rows".into(),
                    Json::Arr(r.missing_rows.iter().map(|m| text(m)).collect()),
                ),
                ("failures".into(), Json::Arr(failures)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(reports.iter().all(FileReport::ok))),
        ("tolerance".into(), Json::num(rel_tol)),
        ("files".into(), Json::Arr(files)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"[
        {"layout":"nn","shape":"256x256x256","threads":1,"host_cores":1,
         "simd_path":"avx2+fma","seconds":1.0,"gflops":40.0,"bins":7,
         "bitwise":true,"digest":"abc"}
    ]"#;

    #[test]
    fn identical_results_pass() {
        let r = compare_results("BENCH_x", BASE, BASE, 0.5).unwrap();
        assert!(r.ok(), "{:?}", r.failures());
        assert!(r.checks.len() >= 4, "seconds/gflops/bins/bitwise compared");
        let v = json::parse(&render_verdict(&[r], 0.5)).expect("verdict is valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("tolerance").and_then(Json::as_num), Some(0.5));
    }

    #[test]
    fn perf_bands_are_direction_aware() {
        // 40% slower + 40% lower throughput: inside a 50% band.
        let slower = BASE.replace("\"seconds\":1.0", "\"seconds\":1.4");
        let slower = slower.replace("\"gflops\":40.0", "\"gflops\":24.0");
        let r = compare_results("b", BASE, &slower, 0.5).unwrap();
        assert!(r.ok(), "{:?}", r.failures());
        // 60% slower: outside the band.
        let worse = BASE.replace("\"seconds\":1.0", "\"seconds\":1.6");
        let r = compare_results("b", BASE, &worse, 0.5).unwrap();
        assert!(!r.ok());
        assert_eq!(r.failures()[0].field, "seconds");
        // A large *improvement* always passes.
        let faster = BASE.replace("\"seconds\":1.0", "\"seconds\":0.1");
        assert!(compare_results("b", BASE, &faster, 0.5).unwrap().ok());
    }

    #[test]
    fn deterministic_fields_must_match_exactly() {
        let drift = BASE.replace("\"bins\":7", "\"bins\":8");
        let r = compare_results("b", BASE, &drift, 0.5).unwrap();
        assert!(!r.ok());
        assert_eq!(r.failures()[0].field, "bins");
        let flag = BASE.replace("\"bitwise\":true", "\"bitwise\":false");
        assert!(!compare_results("b", BASE, &flag, 0.5).unwrap().ok());
        let digest = BASE.replace("\"digest\":\"abc\"", "\"digest\":\"abd\"");
        assert!(!compare_results("b", BASE, &digest, 0.5).unwrap().ok());
    }

    #[test]
    fn provenance_is_skipped_and_missing_rows_fail() {
        let other_host = BASE
            .replace("\"host_cores\":1", "\"host_cores\":64")
            .replace("avx2+fma", "scalar");
        assert!(compare_results("b", BASE, &other_host, 0.5).unwrap().ok());
        let renamed = BASE.replace("256x256x256", "512x512x512");
        let r = compare_results("b", BASE, &renamed, 0.5).unwrap();
        assert!(!r.ok());
        assert_eq!(r.missing_rows.len(), 1);
        let v = json::parse(&render_verdict(&[r], 0.5)).expect("verdict is valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let file = &v.get("files").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(file.get("name").and_then(Json::as_str), Some("b"));
        let missing = file.get("missing_rows").and_then(Json::as_arr).unwrap();
        assert_eq!(missing.len(), 1);
        assert!(missing[0].as_str().unwrap().contains("256x256x256"));
    }

    #[test]
    fn classification_table() {
        assert_eq!(classify("seconds"), MetricClass::HigherWorse);
        assert_eq!(classify("p99_event_ns"), MetricClass::HigherWorse);
        assert_eq!(classify("cold_resolve_ms"), MetricClass::HigherWorse);
        assert_eq!(classify("gflops"), MetricClass::LowerWorse);
        assert_eq!(classify("packings_per_sec"), MetricClass::LowerWorse);
        assert_eq!(classify("speedup_vs_cold"), MetricClass::LowerWorse);
        assert_eq!(classify("online_bins"), MetricClass::Exact);
        assert_eq!(classify("cold_solves"), MetricClass::Exact);
        assert_eq!(classify("simd_path"), MetricClass::Skip);
    }
}
