//! Online scheduler contracts: packing quality stays within ε of a cold
//! re-solve after every event on randomized streams, the cold rung bounds
//! drift on adversarial streams, and a full event replay is
//! bitwise-identical at every `LORAFUSION_THREADS`.
//!
//! Quality ε on randomized streams: the online bin count must stay within
//! 25% of the cold best-fit-decreasing re-solve, plus one bin of slack for
//! mid-repair states. On adversarial streams of bursts and mass
//! cancellations only `1 + drift_threshold` (plus one bin) is enforced;
//! the 25% bound does not hold there at the default threshold. The
//! max-bin bubble cost is bounded by capacity on both sides, so bin count
//! is the comparable quality axis.

use std::collections::BTreeMap;

use lorafusion_data::{generate_events, EventStreamConfig, JobEvent};
use lorafusion_sched::{cold_solve, Job, OnlineConfig, OnlineScheduler};
use lorafusion_tensor::pool::{with_pool, Pool};
use lorafusion_tensor::Pcg32;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn stream(seed: u64, num_events: usize, num_adapters: usize) -> Vec<JobEvent> {
    generate_events(
        &EventStreamConfig {
            num_events,
            num_adapters,
            target_live: 100,
            max_len: 1500,
            ..EventStreamConfig::default()
        },
        seed,
    )
}

fn config() -> OnlineConfig {
    OnlineConfig {
        capacity: 2048,
        padding_multiple: 64,
        ..OnlineConfig::default()
    }
}

/// A base stream over few adapters with a 40-job single-adapter burst
/// every 200 base events and, halfway between bursts, the cancellation of
/// every live job of a random adapter. Bursts and mass cancellations
/// fragment the packing far faster than the base stream does, so drift
/// crosses the cold threshold and the cold rung fires.
fn adversarial_stream(seed: u64) -> Vec<JobEvent> {
    const ROUND: usize = 200;
    let config = EventStreamConfig {
        num_events: 3000,
        num_adapters: 4,
        target_live: 200,
        max_len: 1500,
        ..EventStreamConfig::default()
    };
    let mut rng = Pcg32::seeded(seed ^ 0xAD7E);
    let mut live: BTreeMap<u64, usize> = BTreeMap::new();
    let mut next_id = 1u64 << 32;
    let mut events = Vec::new();
    for (i, e) in generate_events(&config, seed).iter().enumerate() {
        if i % ROUND == 0 {
            let adapter = rng.next_u32() as usize % config.num_adapters;
            for _ in 0..40 {
                let len = config.lengths.sample(&mut rng).clamp(1, config.max_len);
                live.insert(next_id, adapter);
                events.push(JobEvent::Arrive {
                    id: next_id,
                    adapter,
                    len,
                });
                next_id += 1;
            }
        }
        if i % ROUND == ROUND / 2 {
            let adapter = rng.next_u32() as usize % config.num_adapters;
            let ids: Vec<u64> = live
                .iter()
                .filter(|&(_, &a)| a == adapter)
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                live.remove(&id);
                events.push(JobEvent::Cancel { id });
            }
        }
        match *e {
            JobEvent::Arrive { id, adapter, .. } => {
                live.insert(id, adapter);
                events.push(*e);
            }
            JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                if live.remove(&id).is_some() {
                    events.push(*e);
                }
            }
        }
    }
    events
}

/// Replays `events` and returns the final digest, validating invariants
/// along the way.
fn replay_digest(events: &[JobEvent]) -> u64 {
    let mut s = OnlineScheduler::new(config()).unwrap();
    for (i, e) in events.iter().enumerate() {
        s.apply(e).unwrap();
        if i % 97 == 0 {
            s.validate().unwrap();
        }
    }
    s.validate().unwrap();
    s.digest()
}

#[test]
fn quality_stays_within_epsilon_of_cold_resolve() {
    // Property over randomized streams: after EVERY event the incumbent
    // bin count is within ε = 25% (+1 bin slack) of the cold BFD
    // re-solve on the same live set.
    for seed in [3u64, 17, 41] {
        let events = stream(seed, 700, 6);
        let mut s = OnlineScheduler::new(config()).unwrap();
        let mut live: Vec<Job> = Vec::new();
        for e in &events {
            s.apply(e).unwrap();
            match *e {
                JobEvent::Arrive { id, adapter, len } => live.push(Job { id, adapter, len }),
                JobEvent::Finish { id } | JobEvent::Cancel { id } => live.retain(|j| j.id != id),
            }
            let cold = cold_solve(&live, 2048, 64);
            let bound = (cold.len() as f64 * 1.25).ceil() as usize + 1;
            assert!(
                s.num_bins() <= bound,
                "seed {seed}: online {} bins vs cold {} (bound {bound})",
                s.num_bins(),
                cold.len()
            );
            assert_eq!(s.num_jobs(), live.len(), "seed {seed}: job count drift");
        }
        // Packed content matches the live multiset exactly.
        let mut packed: Vec<u64> = s
            .microbatches()
            .iter()
            .flat_map(|m| m.entries.iter().map(|e| e.sample.id))
            .collect();
        packed.sort_unstable();
        let mut expect: Vec<u64> = live.iter().map(|j| j.id).collect();
        expect.sort_unstable();
        assert_eq!(packed, expect, "seed {seed}: sample multiset drift");
    }
}

#[test]
fn replay_is_bitwise_identical_across_thread_counts() {
    // The online path is serial by construction, but it calls into the
    // trace layer, which IS thread-aware; this sweep pins the whole stack. The digest covers bin membership and padded loads.
    let events = stream(29, 900, 8);
    let reference = with_pool(&Pool::new(1), || replay_digest(&events));
    for threads in THREAD_SWEEP {
        let got = with_pool(&Pool::new(threads), || replay_digest(&events));
        assert_eq!(got, reference, "replay digest differs at {threads} threads");
    }
}

#[test]
fn repeated_replay_is_stable() {
    // Same stream, same process, back to back: the digest must not
    // depend on global state left behind by the first run.
    let events = stream(5, 600, 4);
    assert_eq!(replay_digest(&events), replay_digest(&events));
}

/// Replays `events` under `config`, checking every event against the
/// cold re-solve of the live set; returns the summed online bins and the
/// worst `online - ceil((1 + drift_threshold) * cold)` excess.
fn replay_against_cold(events: &[JobEvent], config: &OnlineConfig) -> (usize, i64) {
    let mut s = OnlineScheduler::new(config.clone()).unwrap();
    let mut live: BTreeMap<u64, Job> = BTreeMap::new();
    let (mut bins, mut excess) = (0usize, i64::MIN);
    for (i, e) in events.iter().enumerate() {
        s.apply(e).unwrap();
        match *e {
            JobEvent::Arrive { id, adapter, len } => {
                live.insert(id, Job { id, adapter, len });
            }
            JobEvent::Finish { id } | JobEvent::Cancel { id } => {
                live.remove(&id);
            }
        }
        if i % 61 == 0 {
            s.validate().unwrap();
        }
        let jobs: Vec<Job> = live.values().copied().collect();
        let cold = cold_solve(&jobs, config.capacity, config.padding_multiple).len();
        let scaled = (cold as f64 * (1.0 + config.drift_threshold)).ceil() as i64;
        excess = excess.max(s.num_bins() as i64 - scaled);
        bins += s.num_bins();
    }
    s.validate().unwrap();
    assert_eq!(s.num_jobs(), live.len(), "job count drift");
    (bins, excess)
}

#[test]
fn adversarial_stream_stays_valid_and_bounded() {
    // Bursts and one-adapter mass cancellations push the local-repair
    // rung past the drift threshold. The cold rung must keep the packing
    // within `1 + drift_threshold` of the cold re-solve, plus one bin of
    // slack for the events between re-packs, where local repair alone
    // overshoots that bound; and it must use fewer bins over the stream.
    let local_only = OnlineConfig {
        cold_interval_min: usize::MAX,
        ..config()
    };
    for seed in [1u64, 2, 3] {
        let events = adversarial_stream(seed);
        let (bins, excess) = replay_against_cold(&events, &config());
        let (bins_local, excess_local) = replay_against_cold(&events, &local_only);
        assert!(excess <= 1, "seed {seed}: {excess} bins over the bound");
        assert!(
            excess_local > excess,
            "seed {seed}: local repair alone already stays in bounds"
        );
        assert!(
            bins < bins_local,
            "seed {seed}: the cold rung did not help ({bins} vs {bins_local} bin-events)"
        );
    }
}
