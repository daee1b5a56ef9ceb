//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` (`fig03` … `fig22`, plus the `ablation_*` studies). Each
//! binary prints the reproduced series as an ASCII table and writes a
//! machine-readable copy under `results/`. `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for every row.

use std::fs;
use std::path::PathBuf;

use lorafusion_data::{Dataset, DatasetPreset};
use lorafusion_sched::AdapterJob;

pub mod host;
pub mod json;
pub mod report;

pub use json::{Json, ToJson};

/// The five workload columns of Figs. 14/15: four homogeneous settings and
/// the heterogeneous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four adapters, all on XSum.
    XSum,
    /// Four adapters, all on CNN/DailyMail.
    CnnDailyMail,
    /// Four adapters, all on WikiSum.
    WikiSum,
    /// Four adapters, each on the three-dataset mixture.
    Mixed,
    /// One adapter each on XSum, CNNDM, WikiSum and Mixed.
    Heterogeneous,
}

impl Workload {
    /// All workloads in figure order.
    pub const ALL: [Workload; 5] = [
        Workload::XSum,
        Workload::CnnDailyMail,
        Workload::WikiSum,
        Workload::Mixed,
        Workload::Heterogeneous,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XSum => "XSum",
            Workload::CnnDailyMail => "CNNDM",
            Workload::WikiSum => "WikiSum",
            Workload::Mixed => "Mixed",
            Workload::Heterogeneous => "Het",
        }
    }

    /// Builds the four adapter jobs of this workload.
    pub fn jobs(self, samples: usize, gbs: usize, seed: u64) -> Vec<AdapterJob> {
        let presets: [DatasetPreset; 4] = match self {
            Workload::XSum => [DatasetPreset::XSum; 4],
            Workload::CnnDailyMail => [DatasetPreset::CnnDailyMail; 4],
            Workload::WikiSum => [DatasetPreset::WikiSum; 4],
            Workload::Mixed => [DatasetPreset::Mixed; 4],
            Workload::Heterogeneous => [
                DatasetPreset::XSum,
                DatasetPreset::CnnDailyMail,
                DatasetPreset::WikiSum,
                DatasetPreset::Mixed,
            ],
        };
        presets
            .iter()
            .enumerate()
            .map(|(i, &preset)| AdapterJob {
                adapter: i,
                samples: Dataset::from_preset(preset, samples, seed + i as u64).samples,
                global_batch_size: gbs,
            })
            .collect()
    }
}

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes `value` as JSON under `results/<name>.json` (best effort).
///
/// Serialization goes through the dependency-free [`json`] emitter; the
/// default-on `json` feature can be disabled to skip writing result files
/// entirely (e.g. in read-only sandboxes).
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    if !cfg!(feature = "json") {
        return;
    }
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = fs::write(dir.join(format!("{name}.json")), value.to_json().pretty());
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Geometric mean of a slice (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_four_jobs() {
        for w in Workload::ALL {
            let jobs = w.jobs(16, 8, 1);
            assert_eq!(jobs.len(), 4);
            assert!(jobs.iter().all(|j| j.samples.len() == 16));
        }
    }

    #[test]
    fn heterogeneous_uses_distinct_datasets() {
        let jobs = Workload::Heterogeneous.jobs(512, 8, 1);
        // Mean lengths should differ noticeably between XSum and WikiSum
        // adapters.
        let mean = |j: &AdapterJob| {
            j.samples.iter().map(|s| s.len).sum::<usize>() as f64 / j.samples.len() as f64
        };
        assert!(mean(&jobs[2]) > 2.0 * mean(&jobs[0]));
    }

    #[test]
    fn geomean_of_twos_is_two() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
