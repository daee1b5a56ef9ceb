//! Online-scheduler perf trajectory: incremental re-packing swept from 1k
//! to 100k queued jobs.
//!
//! For each scale the bench replays a seeded arrival/finish/cancel
//! stream (`lorafusion-data`'s event generator, `target_live` = the
//! scale) through [`OnlineScheduler`], timing every `apply` call, and
//! emits `results/BENCH_scheduler.json` with per-event p50/p99/mean
//! latency, sustained packings/sec, the repair-ladder counter deltas
//! (`scheduler.repack.*`) and a quality
//! comparison against the cold best-fit-decreasing re-solve of the
//! final live set.
//!
//! In-binary gates (run at every scale, so `scripts/ci.sh`'s small
//! 512-event invocation checks the same contracts as the full sweep):
//!
//! * **determinism** — each stream is replayed twice and the packing
//!   digests must match bit for bit;
//! * **quality** — the final online bin count must stay within the
//!   documented ε of the cold re-solve (25% + 1 bin; see DESIGN.md
//!   "Online scheduling");
//! * **incremental speedup** — at scales ≥ 10k queued jobs, the mean
//!   per-event incremental cost must beat a cold re-solve of the live
//!   set by ≥ 10× (the ISSUE's headline claim; in practice it is
//!   orders of magnitude);
//! * **sub-linear growth** — across a ≥ 10× scale spread, median
//!   per-event latency must grow at most half as fast as the scale.
//!
//! Env knobs: `BENCH_SCHED_JOBS` replaces the default scale sweep with
//! one scale; `BENCH_SCHED_EVENTS` overrides the event count per scale
//! (default `4 * jobs`, min 512); `BENCH_SCHED_WRITE=0` skips the
//! results file (CI uses this to leave the committed trajectory
//! untouched).

use std::time::Instant;

use lorafusion_bench::{fmt, median, print_table, report, write_json};
use lorafusion_data::{generate_events, EventStreamConfig, JobEvent};
use lorafusion_sched::{cold_solve, Job, OnlineConfig, OnlineScheduler};
use lorafusion_trace::metrics;

struct Row {
    queued_jobs: usize,
    host_cores: usize,
    detected_features: String,
    simd_path: String,
    num_events: usize,
    final_live: usize,
    online_bins: usize,
    cold_bins: usize,
    lower_bound_bins: usize,
    quality_vs_cold: f64,
    p50_event_ns: f64,
    p99_event_ns: f64,
    mean_event_ns: f64,
    packings_per_sec: f64,
    cold_resolve_ms: f64,
    speedup_vs_cold: f64,
    local_repairs: u64,
    cold_solves: u64,
    digest: String,
}
lorafusion_trace::impl_to_json!(Row {
    queued_jobs,
    host_cores,
    detected_features,
    simd_path,
    num_events,
    final_live,
    online_bins,
    cold_bins,
    lower_bound_bins,
    quality_vs_cold,
    p50_event_ns,
    p99_event_ns,
    mean_event_ns,
    packings_per_sec,
    cold_resolve_ms,
    speedup_vs_cold,
    local_repairs,
    cold_solves,
    digest,
});

/// Ladder-rung counters sampled around a replay.
#[derive(Clone, Copy)]
struct CounterSnapshot {
    local_repairs: u64,
    cold_solves: u64,
}

fn snapshot_counters() -> CounterSnapshot {
    CounterSnapshot {
        local_repairs: metrics::counter("scheduler.repack.local_repair").get(),
        cold_solves: metrics::counter("scheduler.repack.cold_solves").get(),
    }
}

fn stream(queued_jobs: usize, num_events: usize, seed: u64) -> Vec<JobEvent> {
    generate_events(
        &EventStreamConfig {
            num_events,
            target_live: queued_jobs,
            ..EventStreamConfig::default()
        },
        seed,
    )
}

/// Replays `events`, timing each `apply`; returns the scheduler and the
/// per-event latencies in nanoseconds.
fn timed_replay(events: &[JobEvent], config: &OnlineConfig) -> (OnlineScheduler, Vec<u64>) {
    let mut s = OnlineScheduler::new(config.clone()).expect("valid config");
    let mut latencies = Vec::with_capacity(events.len());
    for e in events {
        let start = Instant::now();
        s.apply(e)
            .expect("generated streams only reference live jobs");
        latencies.push(start.elapsed().as_nanos() as u64);
    }
    (s, latencies)
}

fn main() {
    let _report = report::init_guard("bench_scheduler");

    // One scale (CI) or the full 1k -> 100k trajectory.
    let scales: Vec<usize> = match std::env::var("BENCH_SCHED_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => vec![n.max(1)],
        None => vec![1_000, 5_000, 10_000, 50_000, 100_000],
    };
    let events_override: Option<usize> = std::env::var("BENCH_SCHED_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok());

    let config = OnlineConfig::default();
    let host = lorafusion_bench::host::host_info();
    let (host_cores, detected_features, simd_path) =
        (host.host_cores, host.detected_features, host.simd_path);
    let mut rows: Vec<Row> = Vec::new();
    for &queued_jobs in &scales {
        // Ramping to the target queue takes a few multiples of the
        // target in events (arrival probability decays toward 1/2 as
        // the queue fills), so the default stream is 4x the scale.
        let num_events = events_override.unwrap_or((queued_jobs * 4).max(512));
        let events = stream(queued_jobs, num_events, 0x5EED + queued_jobs as u64);

        // Determinism gate: same stream, fresh scheduler, same digest.
        let before = snapshot_counters();
        let (sched, latencies) = timed_replay(&events, &config);
        let after = snapshot_counters();
        let digest = sched.digest();
        let (recheck, _) = timed_replay(&events, &config);
        assert_eq!(
            digest,
            recheck.digest(),
            "replay digest diverged at {queued_jobs} queued jobs"
        );
        sched.validate().expect("incumbent invariants hold");
        // Counters (and thus the Perfetto counter tracks when tracing
        // is armed) advance once per scale.
        metrics::sample_counters();

        // Quality gate vs the cold BFD re-solve of the final live set,
        // timed for the incremental-vs-cold comparison.
        let live: Vec<Job> = sched
            .microbatches()
            .iter()
            .flat_map(|m| m.entries.iter())
            .map(|e| Job {
                id: e.sample.id,
                adapter: e.adapter,
                len: e.sample.len,
            })
            .collect();
        let cold_times: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let cold = cold_solve(&live, config.capacity, config.padding_multiple);
                let seconds = start.elapsed().as_secs_f64();
                std::hint::black_box(cold.len());
                seconds
            })
            .collect();
        let cold_seconds = median(cold_times);
        let cold_bins = cold_solve(&live, config.capacity, config.padding_multiple).len();
        let bound = (cold_bins as f64 * 1.25).ceil() as usize + 1;
        assert!(
            sched.num_bins() <= bound,
            "{queued_jobs} queued jobs: online {} bins vs cold {cold_bins} (bound {bound})",
            sched.num_bins()
        );

        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let p50 = sorted[sorted.len() / 2] as f64;
        let p99 = sorted[(sorted.len() * 99) / 100] as f64;
        let total_ns: u64 = latencies.iter().sum();
        let mean = total_ns as f64 / latencies.len() as f64;
        let speedup = cold_seconds * 1e9 / mean;
        // Headline claim: incremental maintenance beats cold re-solving
        // by >= 10x once the queue is large. Only meaningful when the
        // stream actually built a large queue, so gate at >= 10k.
        if queued_jobs >= 10_000 {
            assert!(
                speedup >= 10.0,
                "{queued_jobs} queued jobs: incremental only {speedup:.1}x faster than cold"
            );
        }

        rows.push(Row {
            queued_jobs,
            host_cores,
            detected_features: detected_features.clone(),
            simd_path: simd_path.clone(),
            num_events,
            final_live: sched.num_jobs(),
            online_bins: sched.num_bins(),
            cold_bins,
            lower_bound_bins: sched.lower_bound_bins(),
            quality_vs_cold: sched.num_bins() as f64 / cold_bins.max(1) as f64,
            p50_event_ns: p50,
            p99_event_ns: p99,
            mean_event_ns: mean,
            packings_per_sec: 1e9 * latencies.len() as f64 / total_ns as f64,
            cold_resolve_ms: cold_seconds * 1e3,
            speedup_vs_cold: speedup,
            local_repairs: after.local_repairs - before.local_repairs,
            cold_solves: after.cold_solves - before.cold_solves,
            digest: format!("{digest:016x}"),
        });
    }

    // Sub-linear per-event cost: across a >= 10x scale spread, median
    // event latency must grow at most half as fast as the scale (the
    // ladder's per-event work is O(log bins) plus bounded scans).
    let (small, large) = (rows.first().unwrap(), rows.last().unwrap());
    if large.queued_jobs >= 10 * small.queued_jobs {
        let scale_ratio = large.queued_jobs as f64 / small.queued_jobs as f64;
        let latency_ratio = large.p50_event_ns / small.p50_event_ns.max(1.0);
        assert!(
            latency_ratio <= scale_ratio / 2.0,
            "per-event p50 grew {latency_ratio:.1}x over a {scale_ratio:.0}x scale spread"
        );
        report::scalar("bench_scheduler.p50_growth_ratio", latency_ratio);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.queued_jobs.to_string(),
                r.final_live.to_string(),
                format!("{}/{}", r.online_bins, r.cold_bins),
                fmt(r.quality_vs_cold, 3),
                fmt(r.p50_event_ns / 1e3, 2),
                fmt(r.p99_event_ns / 1e3, 2),
                fmt(r.packings_per_sec / 1e3, 1),
                fmt(r.speedup_vs_cold, 0),
                r.local_repairs.to_string(),
                r.cold_solves.to_string(),
            ]
        })
        .collect();
    print_table(
        "Online scheduler sweep (per-event latencies, incremental vs cold)",
        &[
            "jobs",
            "live",
            "bins on/cold",
            "quality",
            "p50 us",
            "p99 us",
            "kpack/s",
            "vs cold",
            "local",
            "cold",
        ],
        &table,
    );

    report::scalar(
        "bench_scheduler.peak_packings_per_sec",
        rows.iter().map(|r| r.packings_per_sec).fold(0.0, f64::max),
    );
    report::scalar(
        "bench_scheduler.max_speedup_vs_cold",
        rows.iter().map(|r| r.speedup_vs_cold).fold(0.0, f64::max),
    );

    let write = std::env::var("BENCH_SCHED_WRITE")
        .map(|v| v != "0" && v.to_lowercase() != "false")
        .unwrap_or(true);
    if write {
        write_json("BENCH_scheduler", &rows);
    } else {
        println!("(BENCH_SCHED_WRITE=0: skipping results/BENCH_scheduler.json)");
    }
}
