//! Sequence-length distributions matched to the paper's datasets (Fig. 13).

use lorafusion_tensor::Pcg32;

/// A sampler of token sequence lengths.
#[derive(Debug, Clone, PartialEq)]
pub enum LengthDistribution {
    /// Every sample has the same length (the "ideal" workloads of Figs. 5
    /// and 7).
    Fixed {
        /// The constant length.
        len: usize,
    },
    /// Uniform between two bounds (inclusive).
    Uniform {
        /// Minimum length.
        min: usize,
        /// Maximum length.
        max: usize,
    },
    /// Lognormal with clamping — the natural fit for document-length data.
    LogNormal {
        /// Mean of the underlying normal (log-tokens).
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
        /// Lower clamp in tokens.
        min: usize,
        /// Upper clamp in tokens (tokenizer / context-window truncation).
        max: usize,
    },
    /// Weighted mixture of other distributions (the paper's "Mixed"
    /// setting combines all three summarization datasets).
    Mixture {
        /// `(weight, component)` pairs; weights need not be normalized.
        components: Vec<(f64, LengthDistribution)>,
    },
}

impl LengthDistribution {
    /// Draws one length.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        match self {
            LengthDistribution::Fixed { len } => *len,
            LengthDistribution::Uniform { min, max } => {
                *min + rng.next_bounded((*max - *min + 1) as u32) as usize
            }
            LengthDistribution::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                let z = rng.next_gaussian();
                let len = (mu + sigma * z).exp().round() as usize;
                len.clamp(*min, *max)
            }
            LengthDistribution::Mixture { components } => {
                let total: f64 = components.iter().map(|(w, _)| w).sum();
                let mut pick = rng.next_f64() * total;
                for (w, dist) in components {
                    pick -= w;
                    if pick <= 0.0 {
                        return dist.sample(rng);
                    }
                }
                // Numerical fall-through: use the last component.
                components.last().map(|(_, d)| d.sample(rng)).unwrap_or(1)
            }
        }
    }

    /// Draws `n` lengths.
    pub fn sample_many(&self, n: usize, rng: &mut Pcg32) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Analytic mean where closed-form (estimated by sampling for
    /// mixtures/clamps — good enough for capacity proposals).
    pub fn approximate_mean(&self, rng: &mut Pcg32) -> f64 {
        let samples = self.sample_many(4096, rng);
        samples.iter().sum::<usize>() as f64 / samples.len() as f64
    }
}

/// The datasets used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// XSum: short single-sentence summaries of BBC articles.
    XSum,
    /// CNN/DailyMail: medium-length news articles.
    CnnDailyMail,
    /// WikiSum: long Wikipedia-derived documents with heavy tails.
    WikiSum,
    /// Mixed: a uniform mixture of the three (the paper's "Mix").
    Mixed,
}

impl DatasetPreset {
    /// All presets in the order the paper's figures use.
    pub const ALL: [DatasetPreset; 4] = [
        DatasetPreset::XSum,
        DatasetPreset::CnnDailyMail,
        DatasetPreset::WikiSum,
        DatasetPreset::Mixed,
    ];

    /// Short display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::XSum => "XSum",
            DatasetPreset::CnnDailyMail => "CNNDM",
            DatasetPreset::WikiSum => "WikiSum",
            DatasetPreset::Mixed => "Mixed",
        }
    }

    /// The calibrated length distribution (tokens per sample, prompt plus
    /// target, LLaMa-3 tokenizer scale).
    pub fn distribution(self) -> LengthDistribution {
        match self {
            // Tight distribution centered around ~500 tokens.
            DatasetPreset::XSum => LengthDistribution::LogNormal {
                mu: 6.15,
                sigma: 0.42,
                min: 64,
                max: 2048,
            },
            // Medium articles, ~900 tokens, moderate spread.
            DatasetPreset::CnnDailyMail => LengthDistribution::LogNormal {
                mu: 6.75,
                sigma: 0.55,
                min: 128,
                max: 4096,
            },
            // Long documents with a heavy tail — the dataset that OOMs the
            // baselines in Fig. 14.
            DatasetPreset::WikiSum => LengthDistribution::LogNormal {
                mu: 7.3,
                sigma: 0.85,
                min: 128,
                max: 12288,
            },
            DatasetPreset::Mixed => LengthDistribution::Mixture {
                components: vec![
                    (1.0, DatasetPreset::XSum.distribution()),
                    (1.0, DatasetPreset::CnnDailyMail.distribution()),
                    (1.0, DatasetPreset::WikiSum.distribution()),
                ],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(v: &[usize]) -> f64 {
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }

    #[test]
    fn fixed_is_constant() {
        let mut rng = Pcg32::seeded(1);
        let d = LengthDistribution::Fixed { len: 512 };
        assert!(d.sample_many(100, &mut rng).iter().all(|&l| l == 512));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg32::seeded(2);
        let d = LengthDistribution::Uniform { min: 10, max: 20 };
        for len in d.sample_many(1000, &mut rng) {
            assert!((10..=20).contains(&len));
        }
    }

    #[test]
    fn lognormal_respects_clamps() {
        let mut rng = Pcg32::seeded(3);
        let d = DatasetPreset::WikiSum.distribution();
        for len in d.sample_many(5000, &mut rng) {
            assert!((128..=12288).contains(&len));
        }
    }

    #[test]
    fn preset_means_are_ordered_like_fig13() {
        // XSum < CNNDM < WikiSum in mean length, and WikiSum has by far the
        // largest spread.
        let mut rng = Pcg32::seeded(4);
        let xsum = DatasetPreset::XSum
            .distribution()
            .sample_many(20_000, &mut rng);
        let cnndm = DatasetPreset::CnnDailyMail
            .distribution()
            .sample_many(20_000, &mut rng);
        let wiki = DatasetPreset::WikiSum
            .distribution()
            .sample_many(20_000, &mut rng);
        assert!(mean(&xsum) < mean(&cnndm));
        assert!(mean(&cnndm) < mean(&wiki));

        let std = |v: &[usize]| {
            let m = mean(v);
            (v.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(std(&wiki) > 2.0 * std(&xsum));
    }

    #[test]
    fn mixture_spans_components() {
        let mut rng = Pcg32::seeded(5);
        let mixed = DatasetPreset::Mixed
            .distribution()
            .sample_many(20_000, &mut rng);
        let m = mean(&mixed);
        // Mixture mean sits between XSum's and WikiSum's.
        assert!(m > 450.0 && m < 2600.0, "mixed mean {m}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = DatasetPreset::CnnDailyMail.distribution();
        let a = d.sample_many(64, &mut Pcg32::seeded(9));
        let b = d.sample_many(64, &mut Pcg32::seeded(9));
        assert_eq!(a, b);
    }
}
