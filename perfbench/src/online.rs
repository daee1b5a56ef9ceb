//! The online-churn workload: one closed-loop client replays a seeded
//! arrive/finish/cancel stream back to back through
//! `OnlineScheduler::apply`, around a steady queue of thousands of live
//! jobs. On top of `generate_events` the benchmark adds bursts of arrivals
//! for one adapter and mass cancellation of one adapter's live jobs.
//!
//! A *pass* pre-fills a fresh scheduler (untimed) and replays the whole
//! stream; the run repeats passes until its time is up, so every pass must
//! end in the same packing.

use std::collections::BTreeMap;

use lorafusion_data::{generate_events, EventStreamConfig, JobEvent};
use lorafusion_sched::{OnlineConfig, OnlineScheduler};
use lorafusion_tensor::Pcg32;
use lorafusion_trace::{now_ns, span};

use crate::layers::{set_tracing, SelfTimes};
use crate::passes::{check_repeat, Passes};
use crate::report::{Counters, Outcome};
use crate::stats::{median, percentile, sorted, tail_per_mille, Digest, NsHistogram, Tally};
use crate::Run;

/// Live jobs the base stream hovers around.
const TARGET_LIVE: usize = 4000;
/// Base events applied before timing: the ramp to the steady queue.
const PREFILL: usize = 12_000;
/// Base events replayed per pass, before shaping.
const STREAM: usize = 30_000;
const ADAPTERS: usize = 16;
/// Base events per round. A round opens with a burst of `BURST_LEN`
/// arrivals for one adapter and, halfway through, cancels every live job
/// of another; the adapters rotate from round to round.
const ROUND: usize = 2500;
const BURST_LEN: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Event classes, in label order.
const CLASSES: [&str; 3] = ["arrive", "finish", "cancel"];

struct Stream {
    prefill: Vec<JobEvent>,
    events: Vec<JobEvent>,
    /// Tokens of the job each event concerns.
    lens: Vec<usize>,
}

fn class(e: &JobEvent) -> usize {
    match e {
        JobEvent::Arrive { .. } => 0,
        JobEvent::Finish { .. } => 1,
        JobEvent::Cancel { .. } => 2,
    }
}

/// The base stream plus bursts and mass cancellations after the pre-fill.
/// Departures of jobs a mass cancellation already removed are dropped, so
/// every event stays valid.
fn build_stream(seed: u64) -> Stream {
    let config = EventStreamConfig {
        num_events: PREFILL + STREAM,
        num_adapters: ADAPTERS,
        target_live: TARGET_LIVE,
        ..EventStreamConfig::default()
    };
    let base = generate_events(&config, seed);
    let mut rng = Pcg32::seeded(seed ^ 0xB0B5_7000);
    let mut live: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    let mut next_id = 1u64 << 40;
    let (mut events, mut lens) = (Vec::new(), Vec::new());
    let mut split = 0;
    for (i, e) in base.iter().enumerate() {
        if i == PREFILL {
            split = events.len();
        }
        if i >= PREFILL {
            let shaped = i - PREFILL;
            let round = (shaped / ROUND).wrapping_add(seed as usize);
            if shaped.is_multiple_of(ROUND) {
                let adapter = round % ADAPTERS;
                for _ in 0..BURST_LEN {
                    let len = config.lengths.sample(&mut rng).clamp(1, config.max_len);
                    live.insert(next_id, (adapter, len));
                    events.push(JobEvent::Arrive {
                        id: next_id,
                        adapter,
                        len,
                    });
                    lens.push(len);
                    next_id += 1;
                }
            }
            if shaped % ROUND == ROUND / 2 {
                let adapter = (round + ADAPTERS / 2) % ADAPTERS;
                let ids: Vec<u64> = live
                    .iter()
                    .filter(|(_, &(a, _))| a == adapter)
                    .map(|(&id, _)| id)
                    .collect();
                for id in ids {
                    let (_, len) = live.remove(&id).expect("listed as live");
                    events.push(JobEvent::Cancel { id });
                    lens.push(len);
                }
            }
        }
        match *e {
            JobEvent::Arrive { id, adapter, len } => {
                live.insert(id, (adapter, len));
                events.push(*e);
                lens.push(len);
            }
            JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                if let Some((_, len)) = live.remove(&id) {
                    events.push(*e);
                    lens.push(len);
                }
            }
        }
    }
    let timed = events.split_off(split);
    Stream {
        prefill: events,
        events: timed,
        lens: lens.split_off(split),
    }
}

/// A fresh scheduler holding the pre-fill queue.
fn prefilled(stream: &Stream) -> Result<OnlineScheduler, String> {
    let mut s = OnlineScheduler::new(OnlineConfig::default()).map_err(|e| e.to_string())?;
    for e in &stream.prefill {
        s.apply(e).map_err(|e| format!("pre-fill: {e}"))?;
    }
    Ok(s)
}

/// Per-pass results that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PassResult {
    digest: u64,
    bins_over_lb: f64,
    live_jobs: usize,
}

pub fn run(run: &Run) -> Outcome {
    let mut self_times = SelfTimes::default();
    set_tracing(run.trace);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = now_ns();
        let stream = {
            let _span = span!("perf.data.generate");
            build_stream(run.seed)
        };
        let sched = prefilled(&stream);
        setup_s.push((now_ns() - t) as f64 / 1e9);
        built = Some((stream, sched));
    }
    let (stream, sched) = built.expect("at least one set-up");
    if let Err(e) = sched {
        return Outcome::failed(e);
    }
    self_times.collect();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("setup_s", median(&mut setup_s));
    metrics.insert(
        "data.generate_s",
        self_times.seconds("data.generate") / SETUPS as f64,
    );
    set_tracing(false);

    let mut mismatches: Vec<String> = Vec::new();
    let mut tally = Tally::default();
    let mut all = NsHistogram::default();
    let mut by_class: [NsHistogram; 3] = Default::default();
    // Events and tokens per second of every untraced pass.
    let (mut event_rates, mut token_rates) = (Vec::new(), Vec::new());
    let tokens: usize = stream.lens.iter().sum();
    let mut first: Option<PassResult> = None;
    let mut first_counts: Option<(Counters, Counters)> = None;
    let mut passes = Passes::new(run);
    while let Some(traced) = passes.next() {
        let mut sched = match prefilled(&stream) {
            Ok(s) => s,
            Err(e) => return Outcome::failed(e),
        };
        set_tracing(traced);
        let before = Counters::now();
        let (mut pass_s, mut ratio_sum) = (0.0f64, 0.0f64);
        for (i, e) in stream.events.iter().enumerate() {
            let t = now_ns();
            let result = {
                let _op = span!("perf.op");
                let _span = span!("perf.scheduler.online.apply");
                sched.apply(e)
            };
            let ns = now_ns() - t;
            tally.record(&result);
            pass_s += ns as f64 / 1e9;
            if traced {
                by_class[class(e)].record(ns);
                if i % 4096 == 4095 {
                    self_times.collect();
                }
            } else {
                all.record(ns);
            }
            ratio_sum += sched.num_bins() as f64 / sched.lower_bound_bins().max(1) as f64;
        }
        if traced {
            self_times.collect();
        } else {
            event_rates.push(stream.events.len() as f64 / pass_s);
            token_rates.push(tokens as f64 / pass_s);
        }
        let after = Counters::now();
        set_tracing(false);
        if let Err(e) = sched.validate() {
            mismatches.push(format!("pass {}: {e}", passes.count()));
        }
        let result = PassResult {
            digest: sched.digest(),
            bins_over_lb: ratio_sum / stream.events.len() as f64,
            live_jobs: sched.num_jobs(),
        };
        check_repeat(&mut first, result, passes.count(), &mut mismatches);
        passes.record(traced, pass_s);
        first_counts.get_or_insert((before, after));
    }
    let first = first.expect("at least one pass");

    // Interference from other work on the host only ever slows a pass, and
    // microsecond events suffer it in phases that cover a large part of a
    // run; the 90th percentile of the pass rates measures the undisturbed
    // passes while still ignoring the fastest tenth.
    metrics.insert("tokens_per_s", percentile(&sorted(token_rates), 900));
    metrics.insert("ops_per_s", percentile(&sorted(event_rates), 900));
    metrics.insert("op_ms.p50", all.percentile(500) as f64 / 1e6);
    metrics.insert("op_ms.p90", all.percentile(900) as f64 / 1e6);
    metrics.insert("bins_over_lb", first.bins_over_lb);
    let (before, after) = first_counts.expect("a pass ran");
    let rungs: Vec<String> = [
        "scheduler.repack.local_repair",
        "scheduler.repack.warm_solves",
        "scheduler.repack.cold_solves",
        "solver.bb.nodes",
    ]
    .iter()
    .map(|c| format!("{c}={}", after.since(&before, c)))
    .collect();

    if run.trace {
        let per_pass = |layer: &str| self_times.seconds(layer) / passes.traced() as f64;
        let loop_pass_s = passes.traced_seconds() / passes.traced() as f64;
        for (metric, share, layer) in [
            (
                "scheduler.online.apply_s",
                "scheduler.online.apply.share",
                "scheduler.online.apply",
            ),
            ("bench.glue_s", "bench.glue.share", "op"),
        ] {
            metrics.insert(metric, per_pass(layer));
            metrics.insert(share, per_pass(layer) / loop_pass_s);
        }
        let names = [
            [
                "scheduler.online.apply_us.p50.arrive",
                "scheduler.online.apply_us.p99.arrive",
            ],
            [
                "scheduler.online.apply_us.p50.finish",
                "scheduler.online.apply_us.p99.finish",
            ],
            [
                "scheduler.online.apply_us.p50.cancel",
                "scheduler.online.apply_us.p99.cancel",
            ],
        ];
        for (hist, [p50, p99]) in by_class.iter_mut().zip(names) {
            metrics.insert(p50, hist.percentile(500) as f64 / 1e3);
            metrics.insert(p99, hist.percentile(990) as f64 / 1e3);
        }
        after.insert_pass_deltas(&before, &mut metrics);
        metrics.insert("trace.overhead", passes.overhead());
    }

    let class_counts: Vec<String> = CLASSES
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let n = stream.events.iter().filter(|e| class(e) == c).count();
            format!("{name}={n}")
        })
        .collect();
    let mut stream_digest = Digest::default();
    for e in &stream.events {
        stream_digest.mix(e.id() ^ ((class(e) as u64) << 62));
    }
    let tail = tail_per_mille(all.count() as usize)
        .map_or("none".into(), |pm| format!("p{}", pm as f64 / 10.0));
    Outcome {
        correct: mismatches.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        meta: vec![
            ("passes", passes.summary()),
            ("timed_samples", all.count().to_string()),
            ("tail_percentile", tail),
            ("error_rate", tally.error_rate().to_string()),
            ("events", class_counts.join(" ")),
            ("repair_rungs", rungs.join(" ")),
            ("stream_digest", format!("{:016x}", stream_digest.value())),
            ("packing_digest", format!("{:016x}", first.digest)),
            ("bins_over_lb", first.bins_over_lb.to_string()),
            ("live_jobs", first.live_jobs.to_string()),
            ("mismatches", mismatches.join("; ")),
        ],
    }
}
