//! Figure 13: sample-length distributions of the XSum, CNN/DailyMail and
//! WikiSum workloads.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_data::{stats, Dataset, DatasetPreset, LengthStats};

struct Row {
    dataset: String,
    mean: f64,
    std_dev: f64,
    p50: usize,
    p95: usize,
    max: usize,
    histogram: Vec<(usize, usize)>,
}
lorafusion_trace::impl_to_json!(Row {
    dataset,
    mean,
    std_dev,
    p50,
    p95,
    max,
    histogram
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig13");

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for preset in DatasetPreset::ALL {
        let data = Dataset::from_preset(preset, 8192, 13);
        let lengths = data.lengths();
        let s = LengthStats::compute(&lengths).expect("non-empty");
        let (bounds, counts) = stats::histogram(&lengths, 8);
        let row = Row {
            dataset: preset.name().to_string(),
            mean: s.mean,
            std_dev: s.std_dev,
            p50: s.p50,
            p95: s.p95,
            max: s.max,
            histogram: bounds.into_iter().zip(counts).collect(),
        };
        rows.push(vec![
            row.dataset.clone(),
            fmt(row.mean, 0),
            fmt(row.std_dev, 0),
            row.p50.to_string(),
            row.p95.to_string(),
            row.max.to_string(),
        ]);
        out.push(row);
    }
    print_table(
        "Fig. 13 — synthetic dataset length distributions (8192 samples each)",
        &["dataset", "mean", "std", "p50", "p95", "max"],
        &rows,
    );
    println!("\nShape to match: XSum short/tight, CNNDM medium, WikiSum long with a");
    println!("heavy tail (the source of packing OOMs), Mixed spanning all three.");

    // Simple ASCII histograms.
    for row in &out {
        println!("\n{} histogram (bucket upper bound: count)", row.dataset);
        let max_count = row
            .histogram
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(bound, count) in &row.histogram {
            let bar = "#".repeat(1 + count * 40 / max_count);
            println!("  <= {bound:>6}: {count:>5} {bar}");
        }
    }
    write_json("fig13", &out);
}
