//! Length statistics and histograms for the figure generators.

/// Summary statistics of a length sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Minimum.
    pub min: usize,
    /// 25th percentile.
    pub p25: usize,
    /// Median.
    pub p50: usize,
    /// 75th percentile.
    pub p75: usize,
    /// 95th percentile.
    pub p95: usize,
    /// Maximum.
    pub max: usize,
}

impl LengthStats {
    /// Computes statistics over `lengths`. Returns `None` for empty input.
    pub fn compute(lengths: &[usize]) -> Option<Self> {
        if lengths.is_empty() {
            return None;
        }
        let mut sorted = lengths.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let mean = sorted.iter().sum::<usize>() as f64 / count as f64;
        let var = sorted
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / count as f64;
        let pct = |p: f64| sorted[(((count - 1) as f64) * p).round() as usize];
        Some(Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p25: pct(0.25),
            p50: pct(0.50),
            p75: pct(0.75),
            p95: pct(0.95),
            max: sorted[count - 1],
        })
    }

    /// Coefficient of variation — the imbalance proxy used when grouping
    /// adapters.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.std_dev / self.mean
    }
}

/// Fixed-width histogram over `lengths` with `bins` buckets spanning
/// `[0, max]`. Returns `(bucket upper bounds, counts)`.
pub fn histogram(lengths: &[usize], bins: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(bins > 0, "bins must be positive");
    let max = lengths.iter().copied().max().unwrap_or(0).max(1);
    let width = max.div_ceil(bins);
    let mut counts = vec![0usize; bins];
    for &len in lengths {
        let idx = (len / width).min(bins - 1);
        counts[idx] += 1;
    }
    let bounds = (1..=bins).map(|i| i * width).collect();
    (bounds, counts)
}

/// Token counts per consecutive group of `group` samples — the quantity
/// plotted in Fig. 6 (tokens per microbatch at a fixed microbatch size).
pub fn tokens_per_group(lengths: &[usize], group: usize) -> Vec<usize> {
    assert!(group > 0, "group must be positive");
    lengths.chunks(group).map(|c| c.iter().sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::distributions::DatasetPreset;

    #[test]
    fn stats_of_known_sequence() {
        let s = LengthStats::compute(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 3);
        assert_eq!(s.max, 5);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(LengthStats::compute(&[]).is_none());
    }

    #[test]
    fn histogram_counts_everything() {
        let lengths = vec![1, 5, 9, 13, 17];
        let (bounds, counts) = histogram(&lengths, 4);
        assert_eq!(bounds.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 5);
    }

    #[test]
    fn tokens_per_group_matches_fig6_setup() {
        let v = tokens_per_group(&[1, 2, 3, 4, 5, 6, 7, 8, 9], 4);
        assert_eq!(v, vec![10, 26, 9]);
    }

    #[test]
    fn wikisum_microbatches_vary_widely() {
        // Fig. 6's point: token counts per fixed-size microbatch vary a lot
        // on realistic data.
        let d = Dataset::from_preset(DatasetPreset::Mixed, 4096, 21);
        let groups = tokens_per_group(&d.lengths(), 4);
        let s = LengthStats::compute(&groups).unwrap();
        assert!(s.cv() > 0.3, "cv {}", s.cv());
        assert!(s.max as f64 > 2.5 * s.min as f64);
    }
}
