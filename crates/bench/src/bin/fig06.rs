//! Figure 6: tokens per microbatch at a fixed microbatch size of 4, for
//! CNN/DailyMail and the mixed dataset.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_data::{stats, Dataset, DatasetPreset, LengthStats};

struct Row {
    dataset: String,
    mean: f64,
    p25: usize,
    p50: usize,
    p75: usize,
    p95: usize,
    max: usize,
    cv: f64,
}
lorafusion_trace::impl_to_json!(Row {
    dataset,
    mean,
    p25,
    p50,
    p75,
    p95,
    max,
    cv
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig06");

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for preset in [DatasetPreset::CnnDailyMail, DatasetPreset::Mixed] {
        let data = Dataset::from_preset(preset, 4096, 17);
        let per_mb = stats::tokens_per_group(&data.lengths(), 4);
        let s = LengthStats::compute(&per_mb).expect("non-empty");
        let row = Row {
            dataset: preset.name().to_string(),
            mean: s.mean,
            p25: s.p25,
            p50: s.p50,
            p75: s.p75,
            p95: s.p95,
            max: s.max,
            cv: s.cv(),
        };
        rows.push(vec![
            row.dataset.clone(),
            fmt(row.mean, 0),
            row.p25.to_string(),
            row.p50.to_string(),
            row.p75.to_string(),
            row.p95.to_string(),
            row.max.to_string(),
            fmt(row.cv, 2),
        ]);
        out.push(row);
    }
    print_table(
        "Fig. 6 — tokens per microbatch (microbatch size = 4)",
        &["dataset", "mean", "p25", "p50", "p75", "p95", "max", "CV"],
        &rows,
    );
    println!("\nPaper: substantial variation per microbatch on both datasets, far");
    println!("from the uniform counts the 'ideal' scenarios of Figs. 5/7 assume.");
    write_json("fig06", &out);
}
