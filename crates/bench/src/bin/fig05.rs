//! Figure 5: ideal throughput of LLaMa-3.1-70B on 4 H100 GPUs vs. global
//! batch size, for FSDP and PP (uniform fixed-length samples, no load
//! imbalance).

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_data::{Dataset, LengthDistribution};
use lorafusion_dist::baselines::{
    evaluate_custom, evaluate_fsdp, Batching, CustomConfig, PipelineMode,
};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::layer_cost::KernelStrategy;
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_sched::AdapterJob;

struct Row {
    global_batch_size: usize,
    fsdp_tokens_per_s: f64,
    pp_tokens_per_s: f64,
    fsdp_norm: f64,
    pp_norm: f64,
}
lorafusion_trace::impl_to_json!(Row {
    global_batch_size,
    fsdp_tokens_per_s,
    pp_tokens_per_s,
    fsdp_norm,
    pp_norm
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig05");

    let cluster = ClusterSpec::h100(4);
    let dist = LengthDistribution::Fixed { len: 512 };

    // The "ideal" sweep keeps the number of microbatches per step fixed
    // (4: one per FSDP rank / one pipeline injection wave) and grows the
    // microbatch size with the global batch, so the gains isolate
    // communication amortization and pipeline fill, not rank starvation.
    let run = |fsdp: bool, gbs: usize| {
        let steps = 6usize; // Enough global batches to reach steady state.
        let jobs = vec![AdapterJob {
            adapter: 0,
            samples: Dataset::generate("fixed", &dist, gbs * steps, 1).samples,
            global_batch_size: gbs,
        }];
        let cfg = CustomConfig {
            model: ModelPreset::Llama70b,
            cluster: cluster.clone(),
            rank: 16,
            batching: Batching::FixedSamples {
                samples: (gbs / 4).max(1),
            },
            kernel: KernelStrategy::TorchLora,
            pipeline: PipelineMode::Flushed,
            sequential_jobs: true,
        };
        if fsdp {
            evaluate_fsdp(&cfg, &jobs).tokens_per_second
        } else {
            evaluate_custom(&cfg, &jobs).tokens_per_second
        }
    };

    let gbs_values = [4usize, 8, 16, 32];
    let base_fsdp = run(true, 4);
    let base_pp = run(false, 4);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &gbs in &gbs_values {
        let fsdp = run(true, gbs);
        let pp = run(false, gbs);
        let row = Row {
            global_batch_size: gbs,
            fsdp_tokens_per_s: fsdp,
            pp_tokens_per_s: pp,
            fsdp_norm: fsdp / base_fsdp,
            pp_norm: pp / base_pp,
        };
        rows.push(vec![
            gbs.to_string(),
            fmt(row.fsdp_tokens_per_s, 0),
            fmt(row.pp_tokens_per_s, 0),
            fmt(row.fsdp_norm, 2),
            fmt(row.pp_norm, 2),
        ]);
        out.push(row);
    }
    print_table(
        "Fig. 5 — ideal throughput vs. global batch size (70B, 4xH100, fixed 512-token samples)",
        &[
            "GBS",
            "FSDP tok/s",
            "PP tok/s",
            "FSDP x vs GBS4",
            "PP x vs GBS4",
        ],
        &rows,
    );
    println!("\nPaper: GBS 4 -> 32 improves FSDP by ~84% and PP by ~45%.");
    write_json("fig05", &out);
}
