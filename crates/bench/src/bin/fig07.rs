//! Figure 7: slowdown of practical (variable-length) LoRA fine-tuning vs.
//! the ideal fixed-length scenario, and the theoretical improvement
//! multi-LoRA batching unlocks (70B on 4 H100 GPUs).

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_data::{Dataset, DatasetPreset, LengthDistribution};
use lorafusion_dist::baselines::{evaluate_system, SystemKind};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_sched::AdapterJob;

struct Row {
    dataset: String,
    system: String,
    practical_tokens_per_s: f64,
    ideal_tokens_per_s: f64,
    slowdown_pct: f64,
    multi_lora_potential: f64,
}
lorafusion_trace::impl_to_json!(Row {
    dataset,
    system,
    practical_tokens_per_s,
    ideal_tokens_per_s,
    slowdown_pct,
    multi_lora_potential
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig07");

    let cluster = ClusterSpec::h100(4);
    let mut rows = Vec::new();
    let mut out = Vec::new();

    for preset in [DatasetPreset::CnnDailyMail, DatasetPreset::Mixed] {
        // Practical: one job with realistic lengths.
        let real = Dataset::from_preset(preset, 128, 3);
        let mean_len = real.total_tokens() / real.len();
        // Ideal: identical token volume in fixed-length samples.
        let fixed = Dataset::generate(
            "fixed",
            &LengthDistribution::Fixed { len: mean_len },
            128,
            3,
        );
        for kind in [SystemKind::MegatronFsdp, SystemKind::MegatronPp] {
            let job = |d: &Dataset| {
                vec![AdapterJob {
                    adapter: 0,
                    samples: d.samples.clone(),
                    global_batch_size: 32,
                }]
            };
            let practical = evaluate_system(
                kind,
                ModelPreset::Llama70b,
                &cluster,
                &job(&real),
                16,
                16384,
            );
            let ideal = evaluate_system(
                kind,
                ModelPreset::Llama70b,
                &cluster,
                &job(&fixed),
                16,
                16384,
            );
            // Theoretical multi-LoRA upside: four such jobs scheduled by
            // LoRAFusion's batcher on the same data volume.
            let jobs4: Vec<AdapterJob> = (0..4)
                .map(|i| AdapterJob {
                    adapter: i,
                    samples: Dataset::from_preset(preset, 128, 3 + i as u64).samples,
                    global_batch_size: 32,
                })
                .collect();
            let multi = evaluate_system(
                SystemKind::LoraFusion,
                ModelPreset::Llama70b,
                &cluster,
                &jobs4,
                16,
                16384,
            );

            let row = Row {
                dataset: preset.name().to_string(),
                system: kind.name().to_string(),
                practical_tokens_per_s: practical.tokens_per_second,
                ideal_tokens_per_s: ideal.tokens_per_second,
                slowdown_pct: 100.0
                    * (1.0 - practical.tokens_per_second / ideal.tokens_per_second.max(1e-9)),
                multi_lora_potential: multi.tokens_per_second
                    / practical.tokens_per_second.max(1e-9),
            };
            rows.push(vec![
                row.dataset.clone(),
                row.system.clone(),
                fmt(row.practical_tokens_per_s, 0),
                fmt(row.ideal_tokens_per_s, 0),
                fmt(row.slowdown_pct, 1),
                fmt(row.multi_lora_potential, 2),
            ]);
            out.push(row);
        }
    }
    print_table(
        "Fig. 7 — practical vs. ideal fixed-length training (70B, 4xH100)",
        &[
            "dataset",
            "system",
            "practical tok/s",
            "ideal tok/s",
            "slowdown %",
            "multi-LoRA x",
        ],
        &rows,
    );
    println!("\nPaper: up to ~30% slowdown from imbalance; multi-LoRA batching offers");
    println!("up to 2.28x theoretical improvement over the practical baseline.");
    write_json("fig07", &out);
}
