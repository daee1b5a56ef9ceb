//! Figure 20: pipeline bubble ratio under different methods and adapter
//! counts (70B, 4 stages).

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_data::{Dataset, DatasetPreset};
use lorafusion_dist::baselines::{evaluate_system, SystemKind};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_sched::AdapterJob;

struct Row {
    method: String,
    bubble_ratio_pct: f64,
}
lorafusion_trace::impl_to_json!(Row {
    method,
    bubble_ratio_pct
});

fn jobs(n_adapters: usize) -> Vec<AdapterJob> {
    // All adapters on CNN/DailyMail (bounded lengths keep every method in
    // memory so the bubble comparison is apples to apples).
    (0..n_adapters)
        .map(|i| AdapterJob {
            adapter: i,
            samples: Dataset::from_preset(DatasetPreset::CnnDailyMail, 192, 5000 + i as u64)
                .samples,
            global_batch_size: 48,
        })
        .collect()
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig20");

    let cluster = ClusterSpec::h100(4);
    let model = ModelPreset::Llama70b;
    let mut rows = Vec::new();
    let mut out = Vec::new();

    let mut push = |name: String, bubble: Option<f64>| {
        if let Some(b) = bubble {
            rows.push(vec![name.clone(), fmt(b * 100.0, 2)]);
            out.push(Row {
                method: name,
                bubble_ratio_pct: b * 100.0,
            });
        }
    };

    let megatron = evaluate_system(SystemKind::MegatronPp, model, &cluster, &jobs(1), 16, 16384);
    push(
        "Megatron-LM (1F1B, flush per batch)".into(),
        megatron.bubble_ratio,
    );

    let mlora = evaluate_system(SystemKind::MLora, model, &cluster, &jobs(4), 16, 16384);
    push("mLoRA (4 adapters)".into(), mlora.bubble_ratio);

    for n in 1..=4 {
        let r = evaluate_system(SystemKind::LoraFusion, model, &cluster, &jobs(n), 16, 16384);
        push(
            format!("LoRAFusion ({n} adapter{})", if n > 1 { "s" } else { "" }),
            r.bubble_ratio,
        );
    }

    print_table(
        "Fig. 20 — pipeline bubble ratio (70B, 4 stages)",
        &["method", "bubble %"],
        &rows,
    );
    println!("\nPaper: Megatron 48.79%, mLoRA 34.11%, LoRAFusion 44.17% (1 adapter),");
    println!("15.00% (2), 12.23% (3), 11.09% (4); the residual comes from the slower");
    println!("last stage (LM head + loss), which the scheduler cannot remove.");
    write_json("fig20", &out);
}
