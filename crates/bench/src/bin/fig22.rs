//! Figure 22: speedup breakdown of LoRAFusion on LLaMa-3.1-70B with 4
//! GPUs — each bar adds one component over the Megatron-LM 1F1B baseline.

use lorafusion_bench::{fmt, print_table, write_json, Workload};
use lorafusion_dist::baselines::{evaluate_custom, Batching, CustomConfig, PipelineMode};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::layer_cost::KernelStrategy;
use lorafusion_dist::model_config::ModelPreset;

struct Bar {
    config: String,
    tokens_per_second: f64,
    speedup: f64,
}
lorafusion_trace::impl_to_json!(Bar {
    config,
    tokens_per_second,
    speedup
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig22");

    let cluster = ClusterSpec::h100(4);
    let jobs = Workload::Mixed.jobs(128, 32, 7000);
    let fixed = Batching::FixedSamples { samples: 4 };
    let sched = Batching::Scheduled {
        capacity: 16384,
        use_milp: true,
        use_merge: true,
    };

    let bars: Vec<(&str, CustomConfig)> = vec![
        (
            "1F1B (Megatron-LM baseline)",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster: cluster.clone(),
                rank: 16,
                batching: fixed,
                kernel: KernelStrategy::TorchLora,
                pipeline: PipelineMode::Flushed,
                sequential_jobs: true,
            },
        ),
        (
            "+ FusedLoRA",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster: cluster.clone(),
                rank: 16,
                batching: fixed,
                kernel: KernelStrategy::FusedLora,
                pipeline: PipelineMode::Flushed,
                sequential_jobs: true,
            },
        ),
        (
            "Multi-LoRA zero-bubble PP",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster: cluster.clone(),
                rank: 16,
                batching: fixed,
                kernel: KernelStrategy::TorchLora,
                pipeline: PipelineMode::Continuous,
                sequential_jobs: false,
            },
        ),
        (
            "+ FusedMultiLoRA",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster: cluster.clone(),
                rank: 16,
                batching: fixed,
                kernel: KernelStrategy::FusedMultiLora { adapters: 1 },
                pipeline: PipelineMode::Continuous,
                sequential_jobs: false,
            },
        ),
        (
            "Zero-bubble + scheduler (no fusion)",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster: cluster.clone(),
                rank: 16,
                batching: sched,
                kernel: KernelStrategy::TorchLora,
                pipeline: PipelineMode::Continuous,
                sequential_jobs: false,
            },
        ),
        (
            "Full LoRAFusion (scheduler + fusion)",
            CustomConfig {
                model: ModelPreset::Llama70b,
                cluster,
                rank: 16,
                batching: sched,
                kernel: KernelStrategy::FusedMultiLora { adapters: 1 },
                pipeline: PipelineMode::Continuous,
                sequential_jobs: false,
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut baseline = 0.0f64;
    for (name, cfg) in &bars {
        let r = evaluate_custom(cfg, &jobs);
        if baseline == 0.0 {
            baseline = r.tokens_per_second;
        }
        let bar = Bar {
            config: name.to_string(),
            tokens_per_second: r.tokens_per_second,
            speedup: r.tokens_per_second / baseline.max(1e-9),
        };
        rows.push(vec![
            bar.config.clone(),
            fmt(bar.tokens_per_second, 0),
            fmt(bar.speedup, 2),
        ]);
        out.push(bar);
    }
    print_table(
        "Fig. 22 — speedup breakdown (70B, 4xH100, Mixed workload)",
        &["configuration", "tokens/sec", "speedup"],
        &rows,
    );
    println!("\nPaper: 1.00 -> 1.13 (FusedLoRA) -> 1.50 (zero-bubble) -> 1.72 (+FusedMulti)");
    println!("-> 1.57 (scheduler, no fusion) -> 2.05 (full system).");
    write_json("fig22", &out);
}
