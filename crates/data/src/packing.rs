//! The three batching schemes of Fig. 2.
//!
//! * **Padding** — fixed samples per microbatch, shorter samples padded to
//!   the longest; wasted tokens are explicit.
//! * **Dataset pre-packing** — samples concatenated into fixed-length rows
//!   ahead of time; efficient but samples per step become variable,
//!   affecting training-order determinism.
//! * **On-the-fly packing** — samples of each batch concatenated up to a
//!   token capacity at batch time; no waste, deterministic samples per
//!   batch. This is what LoRAFusion (and this reproduction) uses.

use crate::dataset::Sample;

/// One packed microbatch: samples plus padding accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBatch {
    /// Samples in the microbatch.
    pub samples: Vec<Sample>,
    /// Real tokens (sum of sample lengths).
    pub real_tokens: usize,
    /// Padding tokens added to reach the batch's physical size.
    pub padding_tokens: usize,
}

impl PackedBatch {
    /// Physical tokens processed (real plus padding).
    pub fn physical_tokens(&self) -> usize {
        self.real_tokens + self.padding_tokens
    }

    /// Fraction of processed tokens that are real work.
    pub fn efficiency(&self) -> f64 {
        if self.physical_tokens() == 0 {
            return 1.0;
        }
        self.real_tokens as f64 / self.physical_tokens() as f64
    }
}

/// Traditional padding: groups of `batch_size` consecutive samples, each
/// padded to the group's maximum length (Fig. 2a).
pub fn pack_padded(samples: &[Sample], batch_size: usize) -> Vec<PackedBatch> {
    assert!(batch_size > 0, "batch size must be positive");
    samples
        .chunks(batch_size)
        .map(|chunk| {
            let max = chunk.iter().map(|s| s.len).max().unwrap_or(0);
            let real: usize = chunk.iter().map(|s| s.len).sum();
            PackedBatch {
                samples: chunk.to_vec(),
                real_tokens: real,
                padding_tokens: max * chunk.len() - real,
            }
        })
        .collect()
}

/// Dataset pre-packing: greedily fills fixed `row_len` rows from the sample
/// stream, splitting the stream into rows ahead of training (Fig. 2b).
///
/// Samples longer than `row_len` are truncated to `row_len` (mirroring
/// context-window truncation). Rows may hold variable sample counts.
pub fn pack_prepacked(samples: &[Sample], row_len: usize) -> Vec<PackedBatch> {
    assert!(row_len > 0, "row length must be positive");
    let mut rows = Vec::new();
    let mut current: Vec<Sample> = Vec::new();
    let mut used = 0usize;
    for &s in samples {
        let len = s.len.min(row_len);
        let clamped = Sample { id: s.id, len };
        if used + len > row_len && !current.is_empty() {
            rows.push(PackedBatch {
                real_tokens: used,
                padding_tokens: row_len - used,
                samples: std::mem::take(&mut current),
            });
            used = 0;
        }
        used += len;
        current.push(clamped);
    }
    if !current.is_empty() {
        rows.push(PackedBatch {
            real_tokens: used,
            padding_tokens: row_len - used,
            samples: current,
        });
    }
    rows
}

/// On-the-fly packing: concatenates the batch's samples into microbatches
/// of at most `capacity` tokens, preserving order and sample identity
/// (Fig. 2c). Samples longer than `capacity` are truncated.
pub fn pack_on_the_fly(samples: &[Sample], capacity: usize) -> Vec<PackedBatch> {
    assert!(capacity > 0, "capacity must be positive");
    let mut batches = Vec::new();
    let mut current: Vec<Sample> = Vec::new();
    let mut used = 0usize;
    for &s in samples {
        let len = s.len.min(capacity);
        let clamped = Sample { id: s.id, len };
        if used + len > capacity && !current.is_empty() {
            batches.push(PackedBatch {
                real_tokens: used,
                padding_tokens: 0,
                samples: std::mem::take(&mut current),
            });
            used = 0;
        }
        used += len;
        current.push(clamped);
    }
    if !current.is_empty() {
        batches.push(PackedBatch {
            real_tokens: used,
            padding_tokens: 0,
            samples: current,
        });
    }
    batches
}

/// Aggregate packing efficiency over a set of batches.
pub fn overall_efficiency(batches: &[PackedBatch]) -> f64 {
    let real: usize = batches.iter().map(|b| b.real_tokens).sum();
    let physical: usize = batches.iter().map(PackedBatch::physical_tokens).sum();
    if physical == 0 {
        return 1.0;
    }
    real as f64 / physical as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::distributions::DatasetPreset;

    fn samples(lens: &[usize]) -> Vec<Sample> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| Sample { id: i as u64, len })
            .collect()
    }

    #[test]
    fn padding_accounts_waste() {
        let batches = pack_padded(&samples(&[10, 4, 6, 8]), 2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].real_tokens, 14);
        assert_eq!(batches[0].padding_tokens, 6); // Padded to 2 x 10.
        assert_eq!(batches[1].padding_tokens, 2); // Padded to 2 x 8.
    }

    #[test]
    fn on_the_fly_has_zero_padding() {
        let batches = pack_on_the_fly(&samples(&[10, 4, 6, 8, 3]), 16);
        assert!(batches.iter().all(|b| b.padding_tokens == 0));
        assert!(batches.iter().all(|b| b.real_tokens <= 16));
        let total: usize = batches.iter().map(|b| b.real_tokens).sum();
        assert_eq!(total, 31);
    }

    #[test]
    fn prepacked_rows_are_fixed_length() {
        let rows = pack_prepacked(&samples(&[10, 4, 6, 8, 3]), 16);
        for row in &rows {
            assert_eq!(row.physical_tokens(), 16);
        }
    }

    #[test]
    fn long_samples_are_truncated() {
        let batches = pack_on_the_fly(&samples(&[100]), 16);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].real_tokens, 16);
    }

    #[test]
    fn packing_preserves_every_sample_exactly_once() {
        let d = Dataset::from_preset(DatasetPreset::Mixed, 200, 11);
        for batches in [
            pack_padded(&d.samples, 4),
            pack_on_the_fly(&d.samples, 8192),
            pack_prepacked(&d.samples, 8192),
        ] {
            let mut ids: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.samples.iter().map(|s| s.id))
                .collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..200).collect();
            assert_eq!(ids, expect);
        }
    }

    #[test]
    fn on_the_fly_beats_padding_on_realistic_data() {
        // The motivation for Fig. 2: padding wastes a large token fraction
        // on variable-length data; on-the-fly packing wastes none.
        let d = Dataset::from_preset(DatasetPreset::WikiSum, 512, 12);
        let padded = overall_efficiency(&pack_padded(&d.samples, 4));
        let otf = overall_efficiency(&pack_on_the_fly(&d.samples, 16384));
        assert!(padded < 0.8, "padding efficiency {padded}");
        assert_eq!(otf, 1.0);
    }
}
