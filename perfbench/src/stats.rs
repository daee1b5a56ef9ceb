//! Metric math shared by every workload: the tail-percentile rule, an
//! exact nanosecond latency histogram, span self time, output digests and
//! the attempted/failed tally.

use std::collections::BTreeMap;

/// Percentiles (per mille) the tail rule chooses from, ascending.
const LADDER: [u32; 4] = [500, 900, 990, 999];

/// Nearest-rank index (0-based) of the `per_mille` percentile among `n`
/// sorted samples. `n` must be at least 1.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1) - 1
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that leaves
/// at least ten samples beyond it, in per mille; `None` when even the
/// median has fewer than ten samples above it.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| n >= 1 && n - 1 - rank(n, pm) >= 10)
}

/// Nearest-rank percentile of an ascending slice. Panics on an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    sorted[rank(sorted.len(), per_mille)]
}

/// `values` in ascending order.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (sorted in place); the lower middle for even counts.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 500)
}

/// Latencies below this many nanoseconds are counted in exact 1 ns
/// buckets; slower ones are kept verbatim.
const EXACT_NS: usize = 1 << 16;

/// Exact latency histogram for millions of short operations: constant
/// memory for anything under 65.5 µs, every slower sample stored as is,
/// so percentiles equal those of the raw sample list.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    counts: Vec<u32>,
    slow: Vec<u64>,
    total: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; EXACT_NS],
            slow: Vec::new(),
            total: 0,
        }
    }
}

impl NsHistogram {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in nanoseconds; 0 when empty.
    pub fn percentile(&mut self, per_mille: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = rank(self.total as usize, per_mille) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen > target {
                return ns as u64;
            }
        }
        self.slow.sort_unstable();
        self.slow[(target - seen) as usize]
    }
}

/// One closed span reduced to what self time needs.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub dur_ns: u64,
}

/// Adds each span's self time — its duration minus the durations of its
/// direct children among `spans` — to `out`, keyed by span name. Spans of
/// one thread nest without overlapping, so the children's durations are
/// exactly the part of the parent's interval they cover. A span whose
/// parent is not in `spans` counts as a root.
pub fn add_self_times(spans: &[SpanRec], out: &mut BTreeMap<&'static str, u64>) {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *covered.entry(s.parent).or_insert(0) += s.dur_ns;
    }
    for s in spans {
        let child = covered.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_insert(0) += s.dur_ns.saturating_sub(child);
    }
}

/// FNV-1a digest over 64-bit words, for bitwise output comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes the exact bits of every value.
    pub fn mix_f32s(&mut self, values: &[f32]) {
        self.mix(values.len() as u64);
        for v in values {
            self.mix(v.to_bits() as u64);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Counts attempted and failed operations; an operation fails when it
/// returns `Err`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation's result.
    pub fn record<T, E>(&mut self, result: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(result.is_err());
    }

    /// Failed over attempted operations; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_matches_sorted_samples() {
        let mut samples: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 3000 + 40).collect();
        samples.extend([70_000, 90_000, 1_000_000]);
        let mut h = NsHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for pm in [500, 900, 990, 999, 1000] {
            assert_eq!(h.percentile(pm) as f64, percentile(&sorted, pm), "p{pm}");
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(NsHistogram::default().percentile(500), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op(100) > [multi(60) > [inner(25)], loss(30)]; a stranger whose
        // parent is not a recorded span counts as a root.
        let spans = [
            SpanRec {
                id: 3,
                parent: 2,
                name: "inner",
                dur_ns: 25,
            },
            SpanRec {
                id: 2,
                parent: 1,
                name: "multi",
                dur_ns: 60,
            },
            SpanRec {
                id: 4,
                parent: 1,
                name: "loss",
                dur_ns: 30,
            },
            SpanRec {
                id: 1,
                parent: 0,
                name: "op",
                dur_ns: 100,
            },
            SpanRec {
                id: 9,
                parent: 77,
                name: "multi",
                dur_ns: 5,
            },
        ];
        let mut out = BTreeMap::new();
        add_self_times(&spans, &mut out);
        assert_eq!(out["op"], 10);
        assert_eq!(out["multi"], 35 + 5);
        assert_eq!(out["inner"], 25);
        assert_eq!(out["loss"], 30);
        // Self times partition the root's interval.
        assert_eq!(out.values().sum::<u64>(), 100 + 5);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.mix_f32s(&[1.0, -0.0, f32::MIN_POSITIVE]);
        let mut b = Digest::default();
        b.mix_f32s(&[1.0, -0.0, f32::MIN_POSITIVE]);
        assert_eq!(a, b);
        // Pinned FNV-1a value: a change here changes every recorded digest.
        assert_eq!(a.value(), 0xa5d7_9bf2_b218_3cf7);
        let mut c = Digest::default();
        c.mix_f32s(&[-0.0, 1.0, f32::MIN_POSITIVE]);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.mix_f32s(&[1.0, 0.0, f32::MIN_POSITIVE]);
        assert_ne!(a, d, "signed zeros differ bitwise");
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record::<_, ()>(&Ok(5));
        t.record::<u8, _>(&Err("boom"));
        t.record::<_, ()>(&Ok(1));
        t.record::<_, ()>(&Ok(2));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
    }
}
