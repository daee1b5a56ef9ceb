//! Figure 16: scalability across 4, 8 and 16 H100 GPUs under DP scaling
//! (more GPUs per job) and job scaling (more concurrent jobs).

use lorafusion_bench::{fmt, print_table, write_json, Workload};
use lorafusion_dist::baselines::{
    evaluate_dp_pipelined, evaluate_system, Batching, CustomConfig, PipelineMode, SystemKind,
};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::layer_cost::KernelStrategy;
use lorafusion_dist::model_config::ModelPreset;

struct Row {
    gpus: usize,
    mode: String,
    system: String,
    tokens_per_second: f64,
}
lorafusion_trace::impl_to_json!(Row {
    gpus,
    mode,
    system,
    tokens_per_second
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig16");

    let model = ModelPreset::Llama70b;
    let mut rows = Vec::new();
    let mut out = Vec::new();

    for &gpus in &[4usize, 8, 16] {
        let islands = gpus / 4;
        let dp = islands;
        let cluster = ClusterSpec::h100(gpus);

        // --- Job scaling: each 4-GPU island trains its own 4 jobs. ---
        let island_cluster = ClusterSpec::h100(4);
        let mut job_scaling = 0.0;
        for island in 0..islands {
            // Global batch size scales with GPU count via more jobs.
            let jobs = Workload::Mixed.jobs(128, 32, 3000 + island as u64 * 17);
            let r = evaluate_system(
                SystemKind::LoraFusion,
                model,
                &island_cluster,
                &jobs,
                16,
                16384,
            );
            job_scaling += r.tokens_per_second;
        }
        rows.push(vec![
            gpus.to_string(),
            "job scaling".into(),
            "LoRAFusion".into(),
            fmt(job_scaling, 0),
        ]);
        out.push(Row {
            gpus,
            mode: "job".into(),
            system: "LoRAFusion".into(),
            tokens_per_second: job_scaling,
        });

        // --- DP scaling: one 4-stage pipeline per replica. ---
        let jobs = Workload::Mixed.jobs(128 * dp, 32 * dp, 4000);
        let pipeline_cluster = ClusterSpec::h100(4);
        for (name, kernel, batching, pipeline, sequential) in [
            (
                "LoRAFusion",
                KernelStrategy::FusedMultiLora { adapters: 1 },
                Batching::Scheduled {
                    capacity: 16384,
                    use_milp: true,
                    use_merge: true,
                },
                PipelineMode::Continuous,
                false,
            ),
            (
                "mLoRA",
                KernelStrategy::TorchLora,
                Batching::FixedSamples { samples: 4 },
                PipelineMode::Continuous,
                false,
            ),
            (
                "Megatron-LM (PP)",
                KernelStrategy::TorchLora,
                Batching::FixedSamples { samples: 4 },
                PipelineMode::Flushed,
                true,
            ),
        ] {
            let cfg = CustomConfig {
                model,
                cluster: pipeline_cluster.clone(),
                rank: 16,
                batching,
                kernel,
                pipeline,
                sequential_jobs: sequential,
            };
            let r = evaluate_dp_pipelined(&cfg, &jobs, dp);
            rows.push(vec![
                gpus.to_string(),
                "DP scaling".into(),
                name.into(),
                if r.oom {
                    "OOM".into()
                } else {
                    fmt(r.tokens_per_second, 0)
                },
            ]);
            out.push(Row {
                gpus,
                mode: "dp".into(),
                system: name.into(),
                tokens_per_second: r.tokens_per_second,
            });
        }
        let _ = cluster;
    }
    print_table(
        "Fig. 16 — scalability on 4/8/16 H100 GPUs (70B, Mixed workload)",
        &["GPUs", "mode", "system", "tokens/sec"],
        &rows,
    );
    println!("\nPaper: job scaling beats DP scaling by 1.18x (8 GPUs) and 1.25x (16 GPUs);");
    println!("under DP scaling LoRAFusion keeps 1.78x over Megatron-LM and 1.50x over mLoRA.");
    write_json("fig16", &out);
}
