//! Labeled metrics and quantile extraction must be bitwise-identical
//! however the recording work is partitioned across threads.
//!
//! This is the metrics half of the crate's thread-count-invariance
//! contract (the span half is `Cat::Work` structure): labeled cells are
//! plain `AtomicU64`s, increments commute, and the log-linear quantile
//! histogram reads exact bucket counts, so recording one fixed workload
//! under 1, 2, 4, or 8 worker threads must produce identical totals,
//! identical bucket vectors, and identical p50/p95/p99.

use lorafusion_trace::hist;
use lorafusion_trace::label::Scope;

/// Deterministic value stream (xorshift) spanning several octaves.
fn workload(n: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 1_000_000
        })
        .collect()
}

/// One run's observation: total count, bucket vector, [p50, p95, p99].
type Observation = (u64, Vec<(u64, u64)>, [u64; 3]);

#[test]
fn labeled_metrics_are_thread_count_invariant() {
    let vals = workload(40_000);
    let mut reference: Option<Observation> = None;
    for tc in [1usize, 2, 4, 8] {
        // Distinct label per thread count: each pass writes fresh cells,
        // so the comparison is between whole runs, not shared state.
        let label = tc.to_string();
        let scope = Scope::new(&[("tc", &label)]);
        let counter = scope.counter("test.invariance.events");
        let hist = scope.histogram("test.invariance.values");
        std::thread::scope(|s| {
            for chunk in vals.chunks(vals.len().div_ceil(tc)) {
                s.spawn(move || {
                    for &v in chunk {
                        counter.incr();
                        hist.record(v);
                    }
                });
            }
        });
        let observed = (
            counter.get(),
            hist.buckets(),
            [
                hist.quantile(0.50),
                hist.quantile(0.95),
                hist.quantile(0.99),
            ],
        );
        assert_eq!(observed.0, vals.len() as u64);
        match &reference {
            None => reference = Some(observed),
            Some(expect) => assert_eq!(
                &observed, expect,
                "labeled metrics diverged at {tc} threads"
            ),
        }
    }
}

#[test]
fn sharded_histograms_merge_to_the_same_quantiles() {
    // Per-thread local shards merged in any order must equal the shared
    // histogram: the merge contract behind post-hoc aggregation.
    let vals = workload(10_000);
    let bounds = hist::bounds();
    let shard = |chunk: &[u64]| -> Vec<(u64, u64)> {
        let mut counts: Vec<(u64, u64)> = bounds.iter().map(|&b| (b, 0)).collect();
        counts.push((u64::MAX, 0));
        for &v in chunk {
            counts[hist::bucket_index(v)].1 += 1;
        }
        counts
    };
    let shards: Vec<Vec<(u64, u64)>> = vals.chunks(vals.len().div_ceil(4)).map(shard).collect();

    let forward = shards
        .iter()
        .skip(1)
        .fold(shards[0].clone(), |acc, s| hist::merge_counts(&acc, s));
    let backward = shards
        .iter()
        .rev()
        .skip(1)
        .fold(shards.last().unwrap().clone(), |acc, s| {
            hist::merge_counts(&acc, s)
        });
    assert_eq!(forward, backward, "merge must be order-invariant");

    let whole = shard(&vals);
    assert_eq!(forward, whole);
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(
            hist::quantile_from_buckets(&forward, q),
            hist::quantile_from_buckets(&whole, q)
        );
    }
}
