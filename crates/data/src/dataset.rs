//! Synthetic datasets and global-batch splitting.

use lorafusion_tensor::Pcg32;

use crate::distributions::{DatasetPreset, LengthDistribution};

/// One training sample: the scheduler only needs its identity and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Stable sample identifier (index into the dataset).
    pub id: u64,
    /// Token length.
    pub len: usize,
}

/// A synthetic dataset: a named, seeded sequence of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Display name.
    pub name: String,
    /// Samples in training order.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Generates a dataset of `n` samples from `dist`.
    pub fn generate(
        name: impl Into<String>,
        dist: &LengthDistribution,
        n: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Pcg32::seeded(seed);
        let samples = (0..n as u64)
            .map(|id| Sample {
                id,
                len: dist.sample(&mut rng),
            })
            .collect();
        Self {
            name: name.into(),
            samples,
        }
    }

    /// Generates a dataset from one of the paper's presets.
    pub fn from_preset(preset: DatasetPreset, n: usize, seed: u64) -> Self {
        Self::generate(preset.name(), &preset.distribution(), n, seed)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total token count.
    pub fn total_tokens(&self) -> usize {
        self.samples.iter().map(|s| s.len).sum()
    }

    /// Splits the dataset into global batches of `global_batch_size`
    /// samples, preserving training order (the scheduler must not reorder
    /// across global-batch boundaries — Section 5.2 "Granularity").
    ///
    /// The final partial batch, if any, is kept.
    pub fn global_batches(&self, global_batch_size: usize) -> Vec<Vec<Sample>> {
        assert!(global_batch_size > 0, "global batch size must be positive");
        self.samples
            .chunks(global_batch_size)
            .map(<[Sample]>::to_vec)
            .collect()
    }

    /// All sample lengths, in order.
    pub fn lengths(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let d1 = Dataset::from_preset(DatasetPreset::XSum, 100, 7);
        let d2 = Dataset::from_preset(DatasetPreset::XSum, 100, 7);
        assert_eq!(d1, d2);
        let d3 = Dataset::from_preset(DatasetPreset::XSum, 100, 8);
        assert_ne!(d1, d3);
    }

    #[test]
    fn global_batches_preserve_order_and_count() {
        let d = Dataset::from_preset(DatasetPreset::CnnDailyMail, 10, 1);
        let batches = d.global_batches(4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let flattened: Vec<Sample> = batches.concat();
        assert_eq!(flattened, d.samples);
    }

    #[test]
    fn ids_are_sequential() {
        let d = Dataset::from_preset(DatasetPreset::WikiSum, 16, 2);
        for (i, s) in d.samples.iter().enumerate() {
            assert_eq!(s.id, i as u64);
        }
    }

    #[test]
    fn totals_are_consistent() {
        let d = Dataset::from_preset(DatasetPreset::Mixed, 64, 3);
        assert_eq!(d.total_tokens(), d.lengths().iter().sum::<usize>());
        assert_eq!(d.len(), 64);
        assert!(!d.is_empty());
    }
}
