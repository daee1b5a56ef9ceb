//! Capacity ablation: the parallelism profiler's sweep (Section 5.2) —
//! throughput of LoRAFusion as a function of the microbatch token
//! capacity, with the memory feasibility boundary.

use lorafusion_bench::{fmt, print_table, write_json, Workload};
use lorafusion_dist::baselines::{evaluate_custom, Batching, CustomConfig, PipelineMode};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::layer_cost::KernelStrategy;
use lorafusion_dist::memory::MemoryPlan;
use lorafusion_dist::model_config::ModelPreset;

struct Row {
    capacity: usize,
    tokens_per_second: f64,
    oom: bool,
}
lorafusion_trace::impl_to_json!(Row {
    capacity,
    tokens_per_second,
    oom
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("ablation_capacity");

    let cluster = ClusterSpec::h100(4);
    let jobs = Workload::Mixed.jobs(128, 32, 9000);
    let model = ModelPreset::Llama70b;

    let plan = MemoryPlan::for_gpu(&model.config(), 4, 16, 4, 1);
    let max_in_flight = plan.max_tokens_in_flight(&cluster.device.spec());
    let longest = jobs
        .iter()
        .flat_map(|j| j.samples.iter().map(|s| s.len))
        .max()
        .unwrap_or(0);
    println!(
        "Memory bound: {} tokens in flight max (4 stages); longest sample {} tokens",
        max_in_flight, longest
    );

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &capacity in &[4096usize, 6144, 8192, 12288, 16384, 24576, 32768] {
        let cfg = CustomConfig {
            model,
            cluster: cluster.clone(),
            rank: 16,
            batching: Batching::Scheduled {
                capacity,
                use_milp: false,
                use_merge: true,
            },
            kernel: KernelStrategy::FusedMultiLora { adapters: 1 },
            pipeline: PipelineMode::Continuous,
            sequential_jobs: false,
        };
        let r = evaluate_custom(&cfg, &jobs);
        let row = Row {
            capacity,
            tokens_per_second: r.tokens_per_second,
            oom: r.oom,
        };
        let status = if !r.oom {
            fmt(r.tokens_per_second, 0)
        } else if capacity < longest {
            "infeasible (sample > capacity)".into()
        } else {
            "OOM".into()
        };
        rows.push(vec![capacity.to_string(), status, r.oom.to_string()]);
        out.push(row);
    }
    print_table(
        "Ablation — token capacity sweep (70B, 4xH100, Mixed)",
        &["capacity", "tokens/sec", "OOM"],
        &rows,
    );
    println!("\nExpected shape: throughput rises with capacity (kernel efficiency,");
    println!("fewer microbatch overheads) until activations exceed GPU memory.");
    write_json("ablation_capacity", &out);
}
