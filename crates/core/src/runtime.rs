//! Multi-adapter runtime coordinator.
//!
//! The paper's runtime "ensures token-to-adapter consistency, manages
//! resource sharing, and tracks gradients across job boundaries"
//! (Section 4). This module implements that coordinator with *real*
//! arithmetic at laptop scale: a shared frozen base weight, several LoRA
//! adapters fine-tuned jointly on mixed-adapter microbatches, per-adapter
//! gradient accumulation respecting global-batch boundaries, and AdamW
//! updates on the adapter weights only.
//!
//! Each adapter learns a synthetic regression task (match a hidden target
//! weight); losses are exactly reproducible across executors, which is how
//! the integration tests demonstrate the optimizations are lossless end to
//! end.

use std::collections::BTreeMap;

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::multi::MultiLoraLayer;
use lorafusion_kernels::{
    multi, reference, AdapterWeights, LoraConfig, LoraGrads, Segment, TrafficModel,
};
use lorafusion_tensor::ops::{scale, sub};
use lorafusion_tensor::{Matrix, Pcg32};

use crate::optimizer::AdamW;

/// Which kernel executor runs the LoRA math.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Unfused Torch-LoRA reference (per adapter segment), the oracle
    /// `FusedMulti` is checked against.
    Reference,
    /// FusedMultiLoRA (one pass over the mixed-adapter microbatch).
    FusedMulti,
}

/// Trainer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Input feature dimension `k`.
    pub k: usize,
    /// Output dimension `n`.
    pub n: usize,
    /// Adapter configs, one per job.
    pub adapters: Vec<LoraConfig>,
    /// Learning rate for AdamW on `A`/`B`.
    pub learning_rate: f32,
    /// RNG seed for base weights, targets and inputs.
    pub seed: u64,
    /// Executor to use.
    pub executor: ExecutorKind,
}

impl TrainerConfig {
    /// A small default configuration with `jobs` rank-4 adapters.
    pub fn small(jobs: usize, executor: ExecutorKind) -> Self {
        Self {
            k: 24,
            n: 16,
            adapters: (0..jobs)
                .map(|i| LoraConfig {
                    rank: 4,
                    alpha: 1.0,
                    dropout: 0.0,
                    seed: 900 + i as u64,
                })
                .collect(),
            learning_rate: 2e-2,
            seed: 7,
            executor,
        }
    }
}

/// The multi-adapter trainer.
#[derive(Debug, Clone)]
pub struct MultiAdapterTrainer {
    /// Shared frozen base plus per-job adapters.
    pub layer: MultiLoraLayer,
    /// Per-adapter target weights (the synthetic task each job learns).
    pub targets: Vec<Matrix>,
    executor: ExecutorKind,
    traffic: TrafficModel,
    opt_a: Vec<AdamW>,
    opt_b: Vec<AdamW>,
    accum: BTreeMap<usize, LoraGrads>,
    accum_tokens: BTreeMap<usize, usize>,
    /// Per-adapter dropout-counter cursor (token-to-adapter consistency).
    dropout_cursor: Vec<usize>,
    rng: Pcg32,
    k: usize,
    n: usize,
}

impl MultiAdapterTrainer {
    /// Builds a trainer from a configuration.
    pub fn new(config: &TrainerConfig) -> Self {
        let mut rng = Pcg32::seeded(config.seed);
        let std = 1.0 / (config.k as f32).sqrt();
        let w = Matrix::random_gaussian(config.k, config.n, std, &mut rng);
        let adapters: Vec<AdapterWeights> = config
            .adapters
            .iter()
            .map(|&cfg| AdapterWeights::init(config.k, config.n, cfg, &mut rng))
            .collect();
        // Each adapter's task: mimic `W + Delta_a` for a random low-rank
        // perturbation `Delta_a` (learnable by a rank-r adapter).
        let targets: Vec<Matrix> = adapters
            .iter()
            .map(|a| {
                let u = Matrix::random_gaussian(config.k, a.config.rank, std, &mut rng);
                let v = Matrix::random_gaussian(a.config.rank, config.n, std, &mut rng);
                let delta = lorafusion_tensor::matmul_nn(&u, &v).expect("shapes agree");
                let mut t = w.clone();
                lorafusion_tensor::ops::axpy(1.0, &delta, &mut t).expect("shapes agree");
                t
            })
            .collect();
        let opt_a = adapters
            .iter()
            .map(|a| AdamW::new(config.k, a.config.rank, config.learning_rate))
            .collect();
        let opt_b = adapters
            .iter()
            .map(|a| AdamW::new(a.config.rank, config.n, config.learning_rate))
            .collect();
        let n_adapters = adapters.len();
        Self {
            layer: MultiLoraLayer { w, adapters },
            targets,
            executor: config.executor,
            traffic: TrafficModel::for_device(&DeviceKind::H100Sxm.spec()),
            opt_a,
            opt_b,
            accum: BTreeMap::new(),
            accum_tokens: BTreeMap::new(),
            dropout_cursor: vec![0; n_adapters],
            rng,
            k: config.k,
            n: config.n,
        }
    }

    /// Draws a deterministic input batch of `tokens` rows.
    pub fn sample_input(&mut self, tokens: usize) -> Matrix {
        Matrix::random_uniform(tokens, self.k, 1.0, &mut self.rng)
    }

    /// Runs forward + backward on a mixed-adapter microbatch and
    /// accumulates per-adapter gradients. Returns the mean squared error
    /// per adapter present in the microbatch.
    ///
    /// Segments are validated and assigned dropout offsets from each
    /// adapter's token cursor, guaranteeing token-to-adapter consistency
    /// regardless of how the scheduler sliced the jobs.
    pub fn step_microbatch(
        &mut self,
        x: &Matrix,
        segments: &[(usize, usize)], // (adapter, token count) runs.
    ) -> lorafusion_kernels::Result<BTreeMap<usize, f64>> {
        // Materialize segments with dropout offsets.
        let mut segs = Vec::with_capacity(segments.len());
        let mut cursor = 0usize;
        for &(adapter, len) in segments {
            segs.push(Segment {
                adapter,
                start: cursor,
                end: cursor + len,
                dropout_row_offset: self.dropout_cursor[adapter],
            });
            self.dropout_cursor[adapter] += len;
            cursor += len;
        }

        // Targets: per segment, y_true = x_seg @ target_w.
        let mut y_true = Matrix::zeros(x.rows(), self.n);
        for seg in &segs {
            let x_seg = x.slice_rows(seg.start, seg.end)?;
            let t = lorafusion_tensor::matmul_nn(&x_seg, &self.targets[seg.adapter])?;
            y_true.write_rows(seg.start, &t)?;
        }

        // Forward/backward through the selected executor.
        let (y, grads, dx_unused) = match self.executor {
            ExecutorKind::FusedMulti => {
                let fwd = multi::forward(&self.layer, x, &segs, &self.traffic)?;
                let dy = loss_grad(&fwd.y, &y_true)?;
                let bwd = multi::backward(&self.layer, &fwd.saved, &dy, &self.traffic)?;
                (fwd.y, bwd.grads, bwd.dx)
            }
            ExecutorKind::Reference => {
                // Per-segment single-adapter execution.
                let mut y = Matrix::zeros(x.rows(), self.n);
                let mut grads: BTreeMap<usize, LoraGrads> = BTreeMap::new();
                for seg in &segs {
                    let single = self.layer.as_single(seg.adapter)?;
                    let x_seg = x.slice_rows(seg.start, seg.end)?;
                    let y_seg_true = y_true.slice_rows(seg.start, seg.end)?;
                    let fwd =
                        reference::forward(&single, &x_seg, seg.dropout_row_offset, &self.traffic)?;
                    let dy = loss_grad(&fwd.y, &y_seg_true)?;
                    let bwd = reference::backward(&single, &fwd.saved, &dy, &self.traffic)?;
                    y.write_rows(seg.start, &fwd.y)?;
                    let entry = grads.entry(seg.adapter).or_insert_with(|| {
                        LoraGrads::zeros(
                            self.k,
                            self.n,
                            self.layer.adapters[seg.adapter].config.rank,
                        )
                    });
                    entry.accumulate(&bwd.grads)?;
                }
                (y, grads, Matrix::zeros(1, 1))
            }
        };
        let _ = dx_unused;

        // Accumulate gradients per adapter across microbatches.
        for (adapter, g) in grads {
            let entry = self.accum.entry(adapter).or_insert_with(|| {
                LoraGrads::zeros(self.k, self.n, self.layer.adapters[adapter].config.rank)
            });
            entry.accumulate(&g)?;
        }

        // Per-adapter MSE of this microbatch.
        let mut losses = BTreeMap::new();
        for seg in &segs {
            let err = sub(
                &y.slice_rows(seg.start, seg.end)?,
                &y_true.slice_rows(seg.start, seg.end)?,
            )?;
            let mse =
                lorafusion_tensor::ops::frobenius_norm(&err).powi(2) / (err.len().max(1) as f64);
            let tokens = self.accum_tokens.entry(seg.adapter).or_insert(0);
            *tokens += seg.end - seg.start;
            let agg = losses.entry(seg.adapter).or_insert(0.0);
            *agg += mse;
        }
        Ok(losses)
    }

    /// Applies the accumulated gradients of `adapter` (its optimizer step
    /// at a global-batch boundary) and clears its accumulator.
    pub fn apply_adapter_step(&mut self, adapter: usize) {
        if let Some(g) = self.accum.remove(&adapter) {
            let tokens = self.accum_tokens.remove(&adapter).unwrap_or(1).max(1) as f32;
            let da = scale(1.0 / tokens, &g.da);
            let db = scale(1.0 / tokens, &g.db);
            self.opt_a[adapter].step(&mut self.layer.adapters[adapter].a, &da);
            self.opt_b[adapter].step(&mut self.layer.adapters[adapter].b, &db);
        }
    }

    /// Current loss of `adapter` on a fresh probe batch (no dropout, no
    /// state mutation).
    pub fn probe_loss(&self, adapter: usize, tokens: usize, seed: u64) -> f64 {
        let mut rng = Pcg32::seeded(seed);
        let x = Matrix::random_uniform(tokens, self.k, 1.0, &mut rng);
        let single = self.layer.as_single(adapter).expect("adapter exists");
        let w_eff = single.effective_weight().expect("shapes agree");
        let y = lorafusion_tensor::matmul_nn(&x, &w_eff).expect("shapes agree");
        let y_true =
            lorafusion_tensor::matmul_nn(&x, &self.targets[adapter]).expect("shapes agree");
        let err = sub(&y, &y_true).expect("shapes agree");
        lorafusion_tensor::ops::frobenius_norm(&err).powi(2) / err.len() as f64
    }
}

fn loss_grad(y: &Matrix, y_true: &Matrix) -> lorafusion_kernels::Result<Matrix> {
    // d/dy of mean squared error over all elements: 2 (y - y_true) / N.
    let diff = sub(y, y_true)?;
    Ok(scale(2.0 / y.len().max(1) as f32, &diff))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_training(executor: ExecutorKind, steps: usize) -> (Vec<f64>, Vec<f64>) {
        let config = TrainerConfig {
            executor,
            ..TrainerConfig::small(2, executor)
        };
        let mut trainer = MultiAdapterTrainer::new(&config);
        let before: Vec<f64> = (0..2).map(|a| trainer.probe_loss(a, 64, 99)).collect();
        let mut mb_losses = Vec::new();
        for _ in 0..steps {
            let x = trainer.sample_input(24);
            let losses = trainer.step_microbatch(&x, &[(0, 12), (1, 12)]).unwrap();
            mb_losses.push(losses[&0]);
            trainer.apply_adapter_step(0);
            trainer.apply_adapter_step(1);
        }
        let after: Vec<f64> = (0..2).map(|a| trainer.probe_loss(a, 64, 99)).collect();
        let _ = mb_losses;
        (before, after)
    }

    #[test]
    fn training_reduces_loss_for_every_adapter() {
        let (before, after) = run_training(ExecutorKind::FusedMulti, 120);
        for a in 0..2 {
            assert!(
                after[a] < before[a] * 0.5,
                "adapter {a}: {} -> {}",
                before[a],
                after[a]
            );
        }
    }

    #[test]
    fn executors_reach_the_same_losses() {
        // The losslessness claim, end-to-end: the reference and
        // fused-multi executors produce the same training trajectory.
        let (_, ref_after) = run_training(ExecutorKind::Reference, 40);
        let (_, multi_after) = run_training(ExecutorKind::FusedMulti, 40);
        for a in 0..2 {
            assert!(
                (ref_after[a] - multi_after[a]).abs() < 1e-6 * (1.0 + ref_after[a]),
                "multi diverged: {} vs {}",
                ref_after[a],
                multi_after[a]
            );
        }
    }

    #[test]
    fn gradient_accumulation_respects_global_batches() {
        let config = TrainerConfig::small(1, ExecutorKind::FusedMulti);
        let mut trainer = MultiAdapterTrainer::new(&config);
        // `B` starts at zero (identity residual), so the first visible
        // update lands on `B`.
        let b_before = trainer.layer.adapters[0].b.clone();
        // Two microbatches without an optimizer step: weights unchanged.
        for _ in 0..2 {
            let x = trainer.sample_input(8);
            trainer.step_microbatch(&x, &[(0, 8)]).unwrap();
        }
        assert_eq!(trainer.layer.adapters[0].b, b_before);
        // The step applies the accumulated gradient.
        trainer.apply_adapter_step(0);
        assert_ne!(trainer.layer.adapters[0].b, b_before);
    }

    #[test]
    fn dropout_cursor_advances_per_adapter() {
        let mut config = TrainerConfig::small(2, ExecutorKind::FusedMulti);
        for a in &mut config.adapters {
            a.dropout = 0.2;
        }
        let mut trainer = MultiAdapterTrainer::new(&config);
        let x = trainer.sample_input(10);
        trainer.step_microbatch(&x, &[(0, 4), (1, 6)]).unwrap();
        assert_eq!(trainer.dropout_cursor, vec![4, 6]);
        let x2 = trainer.sample_input(5);
        trainer.step_microbatch(&x2, &[(1, 5)]).unwrap();
        assert_eq!(trainer.dropout_cursor, vec![4, 11]);
    }
}
