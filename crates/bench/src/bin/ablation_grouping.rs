//! Grouping ablation: head-tail pairing group counts (Section 5.2) — how
//! the number of adapter groups trades bubble-lemma slack against load
//! balance.

use lorafusion_bench::{fmt, print_table, write_json, Workload};
use lorafusion_dist::baselines::{evaluate_custom, Batching, CustomConfig, PipelineMode};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::layer_cost::KernelStrategy;
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_sched::{fix_with_noops, schedule_jobs, SchedulerConfig};

struct Row {
    groups: usize,
    microbatches: usize,
    noops: usize,
    tokens_per_second: f64,
}
lorafusion_trace::impl_to_json!(Row {
    groups,
    microbatches,
    noops,
    tokens_per_second
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("ablation_grouping");

    let cluster = ClusterSpec::h100(4);
    let jobs = Workload::Heterogeneous.jobs(128, 32, 9500);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for groups in 1..=4usize {
        let sched_cfg = SchedulerConfig {
            capacity: 16384,
            pipeline_stages: 4,
            num_groups: Some(groups),
            ..SchedulerConfig::default()
        };
        let schedule = schedule_jobs(&jobs, &sched_cfg).expect("schedulable");
        let mut stream = schedule.microbatches.clone();
        let extra_noops = fix_with_noops(&mut stream, 4);
        let noops = stream.iter().filter(|m| m.noop).count();

        // End-to-end throughput with the custom grouping is approximated
        // by running the standard pipeline on the grouped schedule via the
        // scheduler's own num_groups override (threaded through the
        // evaluator by rebuilding with the same capacity).
        let cfg = CustomConfig {
            model: ModelPreset::Llama70b,
            cluster: cluster.clone(),
            rank: 16,
            batching: Batching::ScheduledGrouped {
                capacity: 16384,
                groups,
            },
            kernel: KernelStrategy::FusedMultiLora { adapters: 1 },
            pipeline: PipelineMode::Continuous,
            sequential_jobs: false,
        };
        let r = evaluate_custom(&cfg, &jobs);
        let row = Row {
            groups,
            microbatches: schedule.real_microbatches(),
            noops,
            tokens_per_second: r.tokens_per_second,
        };
        rows.push(vec![
            groups.to_string(),
            row.microbatches.to_string(),
            row.noops.to_string(),
            fmt(row.tokens_per_second, 0),
        ]);
        out.push(row);
        let _ = extra_noops;
    }
    print_table(
        "Ablation — adapter group count (70B, 4xH100, heterogeneous datasets)",
        &[
            "groups",
            "real microbatches",
            "no-op fillers",
            "tokens/sec (2-group default)",
        ],
        &rows,
    );
    println!("\nA single group needs no-op spacing between consecutive global");
    println!("batches of the same adapter (visible as fillers and lost throughput);");
    println!("two or more head-tail-paired groups provide the bubble-lemma slack");
    println!("for free (Section 5.2).");
    write_json("ablation_grouping", &out);
}
