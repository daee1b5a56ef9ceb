//! Figure 21: scheduler tuning time vs. number of samples (4-stage
//! pipeline, 4 adapters), against the simulated GPU computation time of
//! the resulting schedule.

use std::time::Instant;

use lorafusion_bench::{fmt, print_table, write_json, Workload};
use lorafusion_dist::baselines::{evaluate_system, SystemKind};
use lorafusion_dist::cluster::ClusterSpec;
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_sched::{schedule_jobs, SchedulerConfig};

struct Row {
    samples_total: usize,
    scheduling_seconds: f64,
    simulated_compute_seconds: f64,
    ms_per_sample: f64,
}
lorafusion_trace::impl_to_json!(Row {
    samples_total,
    scheduling_seconds,
    simulated_compute_seconds,
    ms_per_sample
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig21");

    let cluster = ClusterSpec::h100(4);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &per_adapter in &[160usize, 320, 640, 1280, 3200, 6400] {
        let jobs = Workload::Mixed.jobs(per_adapter, 32, 6000);
        let total: usize = jobs.iter().map(|j| j.samples.len()).sum();
        let cfg = SchedulerConfig {
            capacity: 16384,
            pipeline_stages: 4,
            milp_timeout: std::time::Duration::from_millis(50),
            ..SchedulerConfig::default()
        };
        let start = Instant::now();
        let schedule = schedule_jobs(&jobs, &cfg).expect("schedulable");
        let elapsed = start.elapsed().as_secs_f64();
        drop(schedule);

        let sim = evaluate_system(
            SystemKind::LoraFusion,
            ModelPreset::Llama70b,
            &cluster,
            &jobs,
            16,
            16384,
        );
        let row = Row {
            samples_total: total,
            scheduling_seconds: elapsed,
            simulated_compute_seconds: sim.makespan,
            ms_per_sample: elapsed * 1e3 / total as f64,
        };
        rows.push(vec![
            total.to_string(),
            fmt(row.scheduling_seconds, 3),
            fmt(row.simulated_compute_seconds, 1),
            fmt(row.ms_per_sample, 3),
        ]);
        out.push(row);
    }
    print_table(
        "Fig. 21 — scheduler tuning time vs. sample count (4 adapters, S=4)",
        &["samples", "scheduling s", "simulated GPU s", "ms/sample"],
        &rows,
    );
    println!("\nPaper: near-linear scaling (~4 ms/sample on 64 vCPUs), 15.74 s at 640");
    println!("samples to 102.12 s at 25600 with a 10 s MILP timeout; overhead hidden");
    println!("behind GPU execution of the previous global batch.");
    write_json("fig21", &out);
}
