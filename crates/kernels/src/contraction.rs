//! FLOP-optimal contraction-order planning for the LoRA step.
//!
//! The LoRA forward `Y = X W + alpha * ((X̂ A) B)` and its backward admit
//! several mathematically equivalent contraction orders whose FLOP counts
//! differ dramatically with the shape `(m, k, n, r)` (Run LoRA Run,
//! PAPERS.md). The canonical fused lowering in [`crate::fused`] hard-codes
//! the rank-split order — materialize the rank-`r` intermediate
//! `S = X̂ A`, reuse it everywhere — which is optimal in the paper's
//! regime `r ≪ min(k, n)` but loses badly when the projection dimensions
//! are small relative to the rank (e.g. per-head attention slices): there,
//! pre-merging the adapter into `T = A B` (`k x n`) and contracting `X̂ T`
//! once costs a fraction of the rank-split FLOPs.
//!
//! This module enumerates the valid orderings, computes their *exact*
//! analytic GEMM FLOP counts per shape, picks the minimum
//! ([`plan`]), and executes the chosen ordering through the GEMM engine's
//! prologue/epilogue hooks ([`PlannedWorkspace`], the crate's one
//! single-adapter fused executor) — dropout stays fused into a pack,
//! scales stay folded into tile stores, and each ordering is bitwise-equal
//! to its own multi-pass spelling (asserted by the tests below, together
//! with closeness to [`crate::reference`] and, for the default plan, a
//! forward bitwise-equal to it).
//!
//! # The enumeration
//!
//! Per-GEMM cost is the standard `2xyz`. Elementwise work (dropout mask
//! application, epilogue adds) is identical across orderings and excluded.
//! Every plan pays the base GEMMs `X W` (`2mkn`) and `dY Wᵀ` (`2mkn`).
//!
//! **Forward** ([`FwdOrder`]):
//! * `LowRankFirst` — `S = X̂ A`, `Y += alpha * S B`: `2mkr + 2mrn`.
//! * `AbFirst` — `T = A B`, `Y += alpha * X̂ T`: `2krn + 2mkn`. `S` is
//!   never materialized; `X̂` is still emitted by the dropout prologue of
//!   the `X̂ T` GEMM, so the backward contract is unchanged.
//!
//! **Backward.** With `dS = alpha * dY Bᵀ` (`2mnr`), the Gram-style
//! intermediate `G = X̂ᵀ dY` (`k x n`, `2mkn`), and `T = A B` (`2krn`,
//! free if the forward already built it):
//! * [`DxOrder`]: `ViaDs` — `dX += mask ⊙ (dS Aᵀ)`: `2mkr` (+ `dS`);
//!   `ViaMerged` — `dX += mask ⊙ (alpha * dY Tᵀ)`: `2mkn` (+ `T`).
//! * [`DaOrder`]: `ViaDs` — `dA = X̂ᵀ dS`: `2mkr` (+ `dS`);
//!   `ViaGram` — `dA = alpha * G Bᵀ`: `2knr` (+ `G`).
//! * [`DbOrder`]: `ViaS` — `dB = alpha * Sᵀ dY`: `2mrn` (requires the
//!   forward to have materialized `S`, i.e. `LowRankFirst`);
//!   `ViaGram` — `dB = alpha * Aᵀ G`: `2krn` (+ `G`).
//!
//! Shared intermediates are paid once per step, which is why the plan is
//! chosen jointly rather than per-gradient: picking `ViaGram` for `dA`
//! makes `ViaGram` for `dB` nearly free, and `AbFirst` makes `ViaMerged`'s
//! `T` free. 12 of the 16 combinations are valid (`ViaS` needs
//! `LowRankFirst`); [`enumerate`] lists them in a fixed order with the
//! canonical plan first, and [`plan`] breaks FLOP ties toward the earliest
//! entry, so planning is fully deterministic.

use lorafusion_tensor::matmul::{gemm_fused, Epilogue, Layout, Prologue};
use lorafusion_tensor::{DropoutSpec, Matrix};

use crate::lora::{LoraLayer, Shape};
use crate::{KernelError, Result};

/// Contraction order of the forward adapter term `alpha * ((X̂ A) B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdOrder {
    /// `S = X̂ A` then `Y += alpha * S B` — the rank-split order of
    /// [`crate::fused`]. Cost `2mkr + 2mrn`; materializes `S` (`m x r`).
    LowRankFirst,
    /// `T = A B` then `Y += alpha * X̂ T`. Cost `2krn + 2mkn`;
    /// materializes `T` (`k x n`), never `S`. Wins when
    /// `r > kn / (k + n)` scales past the `T` build cost.
    AbFirst,
}

/// Contraction order of the input gradient's adapter term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DxOrder {
    /// `dX += mask ⊙ (dS Aᵀ)` with `dS = alpha * dY Bᵀ`. Cost `2mkr`
    /// plus the shared `dS`.
    ViaDs,
    /// `dX += mask ⊙ (alpha * dY Tᵀ)` with `T = A B` — the two rank-`r`
    /// hops merged into one `k x n` operand. Cost `2mkn` plus `T` (free
    /// if the forward was [`FwdOrder::AbFirst`]).
    ViaMerged,
}

/// Contraction order of the down-projection gradient `dA`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaOrder {
    /// `dA = X̂ᵀ dS`. Cost `2mkr` plus the shared `dS`.
    ViaDs,
    /// `dA = alpha * G Bᵀ` with `G = X̂ᵀ dY`. Cost `2knr` plus the
    /// shared `G` — the `m`-contraction happens once in `G` instead of
    /// once per gradient.
    ViaGram,
}

/// Contraction order of the up-projection gradient `dB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbOrder {
    /// `dB = alpha * Sᵀ dY`. Cost `2mrn`; requires the forward to have
    /// materialized `S` ([`FwdOrder::LowRankFirst`]).
    ViaS,
    /// `dB = alpha * Aᵀ G` with `G = X̂ᵀ dY`. Cost `2krn` plus the
    /// shared `G`.
    ViaGram,
}

/// One complete contraction ordering of the LoRA step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractionPlan {
    /// Forward ordering.
    pub fwd: FwdOrder,
    /// Input-gradient ordering.
    pub dx: DxOrder,
    /// `dA` ordering.
    pub da: DaOrder,
    /// `dB` ordering.
    pub db: DbOrder,
}

impl ContractionPlan {
    /// The canonical rank-split plan — exactly the K1..K5 lowering of
    /// [`crate::fused`], and the FLOP optimum whenever `r ≪ min(k, n)`.
    pub const DEFAULT: ContractionPlan = ContractionPlan {
        fwd: FwdOrder::LowRankFirst,
        dx: DxOrder::ViaDs,
        da: DaOrder::ViaDs,
        db: DbOrder::ViaS,
    };

    /// Whether the combination is executable: [`DbOrder::ViaS`] consumes
    /// the `S` that only [`FwdOrder::LowRankFirst`] materializes.
    pub fn is_valid(self) -> bool {
        self.db != DbOrder::ViaS || self.fwd == FwdOrder::LowRankFirst
    }

    /// Whether the step needs the shared `dS = alpha * dY Bᵀ`.
    fn needs_ds(self) -> bool {
        self.dx == DxOrder::ViaDs || self.da == DaOrder::ViaDs
    }

    /// Whether the step needs the shared Gram operand `G = X̂ᵀ dY`.
    fn needs_g(self) -> bool {
        self.da == DaOrder::ViaGram || self.db == DbOrder::ViaGram
    }

    /// Exact analytic GEMM FLOP count of one forward+backward step under
    /// this plan (`2xyz` per GEMM; shared intermediates counted once;
    /// elementwise work excluded as identical across plans). See the
    /// module docs for the per-term derivation.
    pub fn flops(self, shape: Shape) -> u64 {
        let (m, k, n, r) = (
            shape.m as u64,
            shape.k as u64,
            shape.n as u64,
            shape.r as u64,
        );
        let g = |x: u64, y: u64, z: u64| 2 * x * y * z;
        // Base GEMMs every plan pays: X W forward, dY Wᵀ backward.
        let mut total = g(m, k, n) + g(m, n, k);
        total += match self.fwd {
            FwdOrder::LowRankFirst => g(m, k, r) + g(m, r, n),
            FwdOrder::AbFirst => g(k, r, n) + g(m, k, n),
        };
        if self.needs_ds() {
            total += g(m, n, r);
        }
        if self.needs_g() {
            total += g(m, k, n);
        }
        if self.dx == DxOrder::ViaMerged && self.fwd != FwdOrder::AbFirst {
            // T is only rebuilt in the backward when the forward didn't.
            total += g(k, r, n);
        }
        total += match self.dx {
            DxOrder::ViaDs => g(m, k, r),
            DxOrder::ViaMerged => g(m, k, n),
        };
        total += match self.da {
            DaOrder::ViaDs => g(m, k, r),
            DaOrder::ViaGram => g(k, n, r),
        };
        total += match self.db {
            DbOrder::ViaS => g(m, r, n),
            DbOrder::ViaGram => g(k, r, n),
        };
        total
    }

    /// Compact tag (`"lowrank/ds/ds/s"`, `"ab/merged/gram/gram"`, ...)
    /// used by benches and result files.
    pub fn tag(self) -> String {
        format!(
            "{}/{}/{}/{}",
            match self.fwd {
                FwdOrder::LowRankFirst => "lowrank",
                FwdOrder::AbFirst => "ab",
            },
            match self.dx {
                DxOrder::ViaDs => "ds",
                DxOrder::ViaMerged => "merged",
            },
            match self.da {
                DaOrder::ViaDs => "ds",
                DaOrder::ViaGram => "gram",
            },
            match self.db {
                DbOrder::ViaS => "s",
                DbOrder::ViaGram => "gram",
            },
        )
    }
}

/// Every valid contraction plan, in a fixed deterministic order with
/// [`ContractionPlan::DEFAULT`] first. 12 entries (16 combinations minus
/// the 4 where `ViaS` lacks a materialized `S`).
pub fn enumerate() -> Vec<ContractionPlan> {
    let mut plans = Vec::with_capacity(12);
    for fwd in [FwdOrder::LowRankFirst, FwdOrder::AbFirst] {
        for dx in [DxOrder::ViaDs, DxOrder::ViaMerged] {
            for da in [DaOrder::ViaDs, DaOrder::ViaGram] {
                for db in [DbOrder::ViaS, DbOrder::ViaGram] {
                    let p = ContractionPlan { fwd, dx, da, db };
                    if p.is_valid() {
                        plans.push(p);
                    }
                }
            }
        }
    }
    plans
}

/// The FLOP-minimal plan for `shape`: argmin of
/// [`ContractionPlan::flops`] over [`enumerate`], ties broken toward the
/// earliest entry (so the canonical plan wins exact ties). A pure
/// function of the shape — planning cannot introduce nondeterminism.
pub fn plan(shape: Shape) -> ContractionPlan {
    enumerate()
        .into_iter()
        .min_by_key(|p| p.flops(shape))
        .expect("enumeration is non-empty")
}

/// The single-adapter fused LoRA executor: reusable buffers for running
/// any [`ContractionPlan`] through the GEMM engine's prologue/epilogue
/// hooks. [`ContractionPlan::DEFAULT`] is FusedLoRA's K1..K5 step
/// (Fig. 10, lowered in [`crate::fused`]).
///
/// Buffers are `resize`d in place and those a plan does not need stay
/// empty, so after one warm-up step at a shape further steps perform no
/// heap allocation (`crates/kernels/tests/zero_alloc.rs` checks every
/// plan).
#[derive(Debug, Clone)]
pub struct PlannedWorkspace {
    plan: ContractionPlan,
    /// Layer output `Y` (`m x n`).
    pub y: Matrix,
    /// Masked input `X̂` (`m x k`), emitted by the forward pack prologue
    /// under every plan.
    pub x_hat: Matrix,
    /// Low-rank intermediate `S` (`m x r`; `LowRankFirst` only).
    pub s: Matrix,
    /// Merged adapter `T = A B` (`k x n`; `AbFirst` / `ViaMerged` only).
    pub t: Matrix,
    /// Low-rank gradient `dS` (`m x r`; `ViaDs` orderings only).
    pub ds: Matrix,
    /// Gram operand `G = X̂ᵀ dY` (`k x n`; `ViaGram` orderings only).
    pub g: Matrix,
    /// Input gradient `dX` (`m x k`).
    pub dx: Matrix,
    /// Adapter gradient `dA` (`k x r`).
    pub da: Matrix,
    /// Adapter gradient `dB` (`r x n`).
    pub db: Matrix,
    spec: DropoutSpec,
}

impl PlannedWorkspace {
    /// Creates a workspace that executes `plan`; buffers grow on first
    /// use. A plan outside [`enumerate`] is rejected with
    /// [`KernelError::InvalidParameter`].
    pub fn new(plan: ContractionPlan) -> Result<Self> {
        if !plan.is_valid() {
            return Err(KernelError::InvalidParameter {
                name: "plan",
                reason: "DbOrder::ViaS needs the S that only FwdOrder::LowRankFirst materializes",
            });
        }
        Ok(Self::with_plan(plan))
    }

    /// Workspace executing the FLOP-minimal plan for `shape`.
    pub fn for_shape(shape: Shape) -> Self {
        // `plan` picks from `enumerate`, which holds valid plans only.
        Self::with_plan(plan(shape))
    }

    fn with_plan(plan: ContractionPlan) -> Self {
        Self {
            plan,
            y: Matrix::zeros(0, 0),
            x_hat: Matrix::zeros(0, 0),
            s: Matrix::zeros(0, 0),
            t: Matrix::zeros(0, 0),
            ds: Matrix::zeros(0, 0),
            g: Matrix::zeros(0, 0),
            dx: Matrix::zeros(0, 0),
            da: Matrix::zeros(0, 0),
            db: Matrix::zeros(0, 0),
            spec: DropoutSpec::new(0.0, 0),
        }
    }

    /// The plan this workspace executes.
    pub fn plan(&self) -> ContractionPlan {
        self.plan
    }

    /// Builds `T = A B` into the workspace buffer.
    fn build_t(&mut self, layer: &LoraLayer) -> Result<()> {
        self.t.resize(layer.k(), layer.n());
        gemm_fused(
            Layout::Nn,
            1.0,
            &layer.adapter.a,
            &layer.adapter.b,
            &mut self.t,
            Prologue::none(),
            Epilogue::Overwrite,
        )
    }

    /// Forward step under the plan's [`FwdOrder`]. `X̂` is always emitted
    /// from the pack that first streams `X`, so the backward contract is
    /// plan-independent.
    pub fn forward_into(
        &mut self,
        layer: &LoraLayer,
        x: &Matrix,
        dropout_row_offset: usize,
    ) -> Result<()> {
        let _span = lorafusion_trace::span!("contraction.forward", m = x.rows(), k = x.cols());
        let cfg = layer.adapter.config;
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(dropout_row_offset);
        self.spec = spec;
        let (m, k) = x.shape();
        self.x_hat.resize(m, k);
        self.y.resize(m, layer.n());
        let dropout = (!spec.is_identity()).then_some(spec);

        // Base GEMM first under both orders; the adapter term accumulates
        // into Y through an `AddScaled` tile store.
        gemm_fused(
            Layout::Nn,
            1.0,
            x,
            &layer.w,
            &mut self.y,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;
        match self.plan.fwd {
            FwdOrder::LowRankFirst => {
                self.s.resize(m, layer.rank());
                gemm_fused(
                    Layout::Nn,
                    1.0,
                    x,
                    &layer.adapter.a,
                    &mut self.s,
                    Prologue {
                        dropout,
                        softmax_grad: None,
                        emit: Some(self.x_hat.as_mut_slice()),
                    },
                    Epilogue::Overwrite,
                )?;
                gemm_fused(
                    Layout::Nn,
                    1.0,
                    &self.s,
                    &layer.adapter.b,
                    &mut self.y,
                    Prologue::none(),
                    Epilogue::AddScaled(cfg.alpha),
                )
            }
            FwdOrder::AbFirst => {
                self.build_t(layer)?;
                // One pass over X: dropout in the pack, X̂ emitted, and
                // the merged-adapter product accumulated into Y.
                gemm_fused(
                    Layout::Nn,
                    1.0,
                    x,
                    &self.t,
                    &mut self.y,
                    Prologue {
                        dropout,
                        softmax_grad: None,
                        emit: Some(self.x_hat.as_mut_slice()),
                    },
                    Epilogue::AddScaled(cfg.alpha),
                )
            }
        }
    }

    /// Backward step under the plan's gradient orderings. Requires a
    /// preceding [`PlannedWorkspace::forward_into`].
    pub fn backward_into(&mut self, layer: &LoraLayer, dy: &Matrix) -> Result<()> {
        let _span = lorafusion_trace::span!("contraction.backward", m = dy.rows(), n = dy.cols());
        let cfg = layer.adapter.config;
        let spec = self.spec;
        let (m, n) = dy.shape();
        self.dx.resize(m, layer.k());
        self.da.resize(layer.k(), layer.rank());
        self.db.resize(layer.rank(), n);

        // Shared intermediates, each built at most once per step.
        if self.plan.needs_ds() {
            self.ds.resize(m, layer.rank());
            gemm_fused(
                Layout::Nt,
                1.0,
                dy,
                &layer.adapter.b,
                &mut self.ds,
                Prologue::none(),
                Epilogue::Scaled(cfg.alpha),
            )?;
        }
        if self.plan.needs_g() {
            self.g.resize(layer.k(), n);
            gemm_fused(
                Layout::Tn,
                1.0,
                &self.x_hat,
                dy,
                &mut self.g,
                Prologue::none(),
                Epilogue::Overwrite,
            )?;
        }
        if self.plan.dx == DxOrder::ViaMerged && self.plan.fwd != FwdOrder::AbFirst {
            self.build_t(layer)?;
        }

        // dX: base gradient, then the adapter term routed through the
        // regenerated dropout mask in the tile store.
        gemm_fused(
            Layout::Nt,
            1.0,
            dy,
            &layer.w,
            &mut self.dx,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;
        let masked = if spec.is_identity() {
            Epilogue::Add
        } else {
            Epilogue::AddMasked(spec)
        };
        match self.plan.dx {
            DxOrder::ViaDs => gemm_fused(
                Layout::Nt,
                1.0,
                &self.ds,
                &layer.adapter.a,
                &mut self.dx,
                Prologue::none(),
                masked,
            )?,
            // alpha folds into the GEMM's own scale (packed into the dY
            // panels), so no extra elementwise pass appears.
            DxOrder::ViaMerged => gemm_fused(
                Layout::Nt,
                cfg.alpha,
                dy,
                &self.t,
                &mut self.dx,
                Prologue::none(),
                masked,
            )?,
        }

        match self.plan.da {
            DaOrder::ViaDs => gemm_fused(
                Layout::Tn,
                1.0,
                &self.x_hat,
                &self.ds,
                &mut self.da,
                Prologue::none(),
                Epilogue::Overwrite,
            )?,
            DaOrder::ViaGram => gemm_fused(
                Layout::Nt,
                cfg.alpha,
                &self.g,
                &layer.adapter.b,
                &mut self.da,
                Prologue::none(),
                Epilogue::Overwrite,
            )?,
        }

        match self.plan.db {
            DbOrder::ViaS => gemm_fused(
                Layout::Tn,
                1.0,
                &self.s,
                dy,
                &mut self.db,
                Prologue::none(),
                Epilogue::Scaled(cfg.alpha),
            ),
            DbOrder::ViaGram => gemm_fused(
                Layout::Tn,
                cfg.alpha,
                &layer.adapter.a,
                &self.g,
                &mut self.db,
                Prologue::none(),
                Epilogue::Overwrite,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_tensor::matmul::{gemm_fused as raw_gemm, matmul_nn, matmul_nt, matmul_tn};
    use lorafusion_tensor::ops::{add, all_close, hadamard, scale};
    use lorafusion_tensor::{dropout_mask, Pcg32};

    use crate::lora::LoraConfig;
    use crate::reference;
    use crate::traffic::TrafficModel;

    fn bitwise(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Product with the engine's own alpha folding, for the multi-pass
    /// spellings (a matmul helper would fix alpha at 1).
    fn product(
        layout: Layout,
        alpha: f32,
        a: &Matrix,
        b: &Matrix,
        rows: usize,
        cols: usize,
    ) -> Matrix {
        let mut c = Matrix::zeros(rows, cols);
        raw_gemm(
            layout,
            alpha,
            a,
            b,
            &mut c,
            Prologue::none(),
            Epilogue::Overwrite,
        )
        .unwrap();
        c
    }

    /// Independent FLOP model: list every GEMM a plan executes as a
    /// *named* `(x, y, z)` triple, dedup shared intermediates by name,
    /// and sum `2xyz`. Deliberately different structure from
    /// `ContractionPlan::flops` (dedup-by-name vs boolean accounting) so
    /// the two can cross-check each other.
    fn brute_flops(p: ContractionPlan, shape: Shape) -> u64 {
        let (m, k, n, r) = (
            shape.m as u64,
            shape.k as u64,
            shape.n as u64,
            shape.r as u64,
        );
        let mut gemms = std::collections::BTreeMap::new();
        gemms.insert("xw", (m, k, n));
        gemms.insert("dy_wt", (m, n, k));
        match p.fwd {
            FwdOrder::LowRankFirst => {
                gemms.insert("s", (m, k, r));
                gemms.insert("sb", (m, r, n));
            }
            FwdOrder::AbFirst => {
                gemms.insert("t", (k, r, n));
                gemms.insert("xt", (m, k, n));
            }
        }
        match p.dx {
            DxOrder::ViaDs => {
                gemms.insert("ds", (m, n, r));
                gemms.insert("ds_at", (m, r, k));
            }
            DxOrder::ViaMerged => {
                gemms.insert("t", (k, r, n));
                gemms.insert("dy_tt", (m, n, k));
            }
        }
        match p.da {
            DaOrder::ViaDs => {
                gemms.insert("ds", (m, n, r));
                gemms.insert("xhat_ds", (k, m, r));
            }
            DaOrder::ViaGram => {
                gemms.insert("g", (k, m, n));
                gemms.insert("g_bt", (k, n, r));
            }
        }
        match p.db {
            DbOrder::ViaS => {
                gemms.insert("st_dy", (r, m, n));
            }
            DbOrder::ViaGram => {
                gemms.insert("g", (k, m, n));
                gemms.insert("at_g", (r, k, n));
            }
        }
        gemms.values().map(|&(x, y, z)| 2 * x * y * z).sum()
    }

    #[test]
    fn enumeration_has_twelve_valid_plans_default_first() {
        let plans = enumerate();
        assert_eq!(plans.len(), 12);
        assert_eq!(plans[0], ContractionPlan::DEFAULT);
        assert!(plans.iter().all(|p| p.is_valid()));
        // ViaS never appears with AbFirst.
        assert!(plans
            .iter()
            .all(|p| p.db != DbOrder::ViaS || p.fwd == FwdOrder::LowRankFirst));
        // Tags are unique — they key result rows.
        let tags: std::collections::BTreeSet<_> = plans.iter().map(|p| p.tag()).collect();
        assert_eq!(tags.len(), 12);
    }

    #[test]
    fn flop_formulas_match_hand_computation() {
        // m=8, k=4, n=6, r=2; all terms hand-evaluated from the module
        // docs' formulas.
        let shape = Shape::new(8, 4, 6, 2);
        let base = 2 * 8 * 4 * 6 + 2 * 8 * 6 * 4; // XW + dY Wᵀ = 768
        let default = ContractionPlan::DEFAULT;
        // + S(128) + SB(192) + dS(192) + dSAᵀ(128) + X̂ᵀdS(128) + SᵀdY(192)
        assert_eq!(
            default.flops(shape),
            (base + 128 + 192 + 192 + 128 + 128 + 192) as u64
        );
        let merged = ContractionPlan {
            fwd: FwdOrder::AbFirst,
            dx: DxOrder::ViaMerged,
            da: DaOrder::ViaGram,
            db: DbOrder::ViaGram,
        };
        // + T(96) + X̂T(384) + G(384) + dYTᵀ(384) + GBᵀ(96) + AᵀG(96);
        // T shared between forward and ViaMerged.
        assert_eq!(
            merged.flops(shape),
            (base + 96 + 384 + 384 + 384 + 96 + 96) as u64
        );
        // ViaMerged without AbFirst pays T in the backward.
        let half_merged = ContractionPlan {
            dx: DxOrder::ViaMerged,
            ..ContractionPlan::DEFAULT
        };
        // + S(128) + SB(192) + T(96) + dYTᵀ(384) + dS(192) + X̂ᵀdS(128) + SᵀdY(192)
        assert_eq!(
            half_merged.flops(shape),
            (base + 128 + 192 + 96 + 384 + 192 + 128 + 192) as u64
        );
    }

    #[test]
    fn flops_agree_with_independent_model_and_plan_is_argmin() {
        let grid = [
            Shape::new(256, 512, 512, 16),
            Shape::new(4096, 4096, 4096, 16),
            Shape::new(4096, 32, 32, 64), // r > kn/(k+n): merged orders win
            Shape::new(64, 64, 64, 64),
            Shape::new(1024, 128, 64, 48),
            Shape::new(16, 4096, 4096, 8),
            Shape::new(8192, 256, 64, 96),
            Shape::new(100, 70, 30, 20),
        ];
        for shape in grid {
            let mut best: Option<(u64, ContractionPlan)> = None;
            for p in enumerate() {
                let f = p.flops(shape);
                assert_eq!(f, brute_flops(p, shape), "{:?} {:?}", p, shape);
                if best.is_none_or(|(bf, _)| f < bf) {
                    best = Some((f, p));
                }
            }
            let (best_flops, best_plan) = best.unwrap();
            let chosen = plan(shape);
            assert_eq!(chosen.flops(shape), best_flops, "{shape:?}");
            // With the shared-first tie-break both argmins must agree
            // exactly (enumerate() order is the tie-break for both).
            assert_eq!(chosen, best_plan, "{shape:?}");
        }
    }

    #[test]
    fn planner_picks_rank_split_in_the_paper_regime() {
        // r ≪ min(k, n): the canonical fused lowering is optimal.
        for shape in [
            Shape::new(4096, 4096, 4096, 16),
            Shape::new(8192, 4096, 1024, 64),
            Shape::new(256, 2048, 2048, 8),
        ] {
            assert_eq!(plan(shape), ContractionPlan::DEFAULT, "{shape:?}");
        }
    }

    #[test]
    fn planner_picks_merged_orders_when_rank_dominates() {
        // k = n = 32, r = 64, m large: T = AB is tiny and every rank hop
        // is wider than the merged k x n contraction.
        let shape = Shape::new(4096, 32, 32, 64);
        let p = plan(shape);
        assert_eq!(p.fwd, FwdOrder::AbFirst);
        assert_eq!(p.dx, DxOrder::ViaMerged);
        assert_eq!(p.da, DaOrder::ViaGram);
        assert_eq!(p.db, DbOrder::ViaGram);
        assert!(p.flops(shape) < ContractionPlan::DEFAULT.flops(shape));
    }

    /// The multi-pass spelling of a plan: the same contractions with the
    /// same alpha associations, but prologues/epilogues replaced by
    /// materialized masks and standalone scale/add/hadamard passes. The
    /// hook engine's per-element expressions are exact (see the tensor
    /// fuzz suite), so the planned executor must match this bitwise.
    fn multipass(
        p: ContractionPlan,
        layer: &LoraLayer,
        x: &Matrix,
        dy: &Matrix,
        spec: DropoutSpec,
    ) -> (Matrix, Matrix, Matrix, Matrix, Matrix) {
        let alpha = layer.adapter.config.alpha;
        let (m, k) = x.shape();
        let n = layer.n();
        let r = layer.rank();
        let mask = dropout_mask(m, k, &spec).unwrap();
        let x_hat = hadamard(x, &mask).unwrap();
        let xw = matmul_nn(x, &layer.w).unwrap();
        let s = matmul_nn(&x_hat, &layer.adapter.a).unwrap();
        let t = matmul_nn(&layer.adapter.a, &layer.adapter.b).unwrap();
        let y = match p.fwd {
            FwdOrder::LowRankFirst => add(
                &xw,
                &scale(alpha, &matmul_nn(&s, &layer.adapter.b).unwrap()),
            )
            .unwrap(),
            FwdOrder::AbFirst => add(&xw, &scale(alpha, &matmul_nn(&x_hat, &t).unwrap())).unwrap(),
        };
        let ds = scale(alpha, &matmul_nt(dy, &layer.adapter.b).unwrap());
        let g = matmul_tn(&x_hat, dy).unwrap();
        let dx_base = matmul_nt(dy, &layer.w).unwrap();
        let dx_adapter = match p.dx {
            DxOrder::ViaDs => matmul_nt(&ds, &layer.adapter.a).unwrap(),
            DxOrder::ViaMerged => product(Layout::Nt, alpha, dy, &t, m, k),
        };
        let dx = add(&dx_base, &hadamard(&dx_adapter, &mask).unwrap()).unwrap();
        let da = match p.da {
            DaOrder::ViaDs => matmul_tn(&x_hat, &ds).unwrap(),
            DaOrder::ViaGram => product(Layout::Nt, alpha, &g, &layer.adapter.b, k, r),
        };
        let db = match p.db {
            DbOrder::ViaS => scale(alpha, &matmul_tn(&s, dy).unwrap()),
            DbOrder::ViaGram => product(Layout::Tn, alpha, &layer.adapter.a, &g, r, n),
        };
        (s, y, dx, da, db)
    }

    /// Every plan must (a) be bitwise-equal to its own multi-pass
    /// spelling — the hook lowering is lossless per ordering — and
    /// (b) agree with the reference executor to rounding.
    #[test]
    fn every_plan_matches_multipass_bitwise_and_reference_close() {
        let mut rng = Pcg32::seeded(61);
        let cfg = LoraConfig {
            dropout: 0.25,
            ..LoraConfig::with_rank(6)
        };
        let layer = LoraLayer::init_nonzero(34, 22, cfg, &mut rng);
        let x = Matrix::random_uniform(19, 34, 1.0, &mut rng);
        let dy = Matrix::random_uniform(19, 22, 1.0, &mut rng);
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(2);
        let t = TrafficModel::for_device(&lorafusion_gpu::DeviceKind::H100Sxm.spec());
        let ref_fwd = reference::forward(&layer, &x, 2, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();

        for p in enumerate() {
            let mut ws = PlannedWorkspace::new(p).unwrap();
            // Two rounds: the second exercises buffer reuse.
            for _ in 0..2 {
                ws.forward_into(&layer, &x, 2).unwrap();
                ws.backward_into(&layer, &dy).unwrap();
            }
            let tag = p.tag();
            // X̂ is plan-independent (counter-based mask).
            assert!(bitwise(&ws.x_hat, &ref_fwd.saved.x_hat), "{tag} x_hat");

            let (s, y, dx, da, db) = multipass(p, &layer, &x, &dy, spec);
            if p.fwd == FwdOrder::LowRankFirst {
                assert!(bitwise(&ws.s, &s), "{tag} s vs multipass");
            }
            assert!(bitwise(&ws.y, &y), "{tag} y vs multipass");
            assert!(bitwise(&ws.dx, &dx), "{tag} dx vs multipass");
            assert!(bitwise(&ws.da, &da), "{tag} da vs multipass");
            assert!(bitwise(&ws.db, &db), "{tag} db vs multipass");

            assert!(all_close(&ws.y, &ref_fwd.y, 1e-4), "{tag} y vs ref");
            assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-4), "{tag} dx vs ref");
            assert!(
                all_close(&ws.da, &ref_bwd.grads.da, 1e-4),
                "{tag} da vs ref"
            );
            assert!(
                all_close(&ws.db, &ref_bwd.grads.db, 1e-4),
                "{tag} db vs ref"
            );
        }
    }

    /// The default plan's epilogues evaluate the reference's per-element
    /// expressions exactly, so its forward is bit-identical to the
    /// unfused reference, not just close. The backward `dS` association
    /// differs (`alpha` folds into the store rather than pre-scaling
    /// `dY`), so gradients agree to rounding.
    #[test]
    fn default_plan_matches_reference() {
        let mut rng = Pcg32::seeded(30);
        let layer = LoraLayer::init_nonzero(32, 28, LoraConfig::with_rank(4), &mut rng);
        let x = Matrix::random_uniform(20, 32, 1.0, &mut rng);
        let dy = Matrix::random_uniform(20, 28, 1.0, &mut rng);
        let t = TrafficModel::for_device(&lorafusion_gpu::DeviceKind::H100Sxm.spec());
        let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();

        let mut ws = PlannedWorkspace::new(ContractionPlan::DEFAULT).unwrap();
        ws.forward_into(&layer, &x, 0).unwrap();
        ws.backward_into(&layer, &dy).unwrap();

        assert!(bitwise(&ws.y, &ref_fwd.y), "y diverged from reference");
        assert!(bitwise(&ws.x_hat, &ref_fwd.saved.x_hat));
        assert!(bitwise(&ws.s, &ref_fwd.saved.s));
        assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-5));
        assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-5));
        assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-5));
    }

    #[test]
    fn invalid_plan_is_a_typed_error() {
        let invalid = ContractionPlan {
            fwd: FwdOrder::AbFirst,
            db: DbOrder::ViaS,
            ..ContractionPlan::DEFAULT
        };
        assert!(matches!(
            PlannedWorkspace::new(invalid),
            Err(KernelError::InvalidParameter { name: "plan", .. })
        ));
    }

    /// Zero dropout must short-circuit identically under every plan:
    /// X̂ a bitwise copy of X, mask routing degraded to plain adds. The
    /// default plan's `Epilogue::Add` path is held to the same bounds as
    /// its dropout path in `default_plan_matches_reference`.
    #[test]
    fn zero_dropout_round_trips_under_every_plan() {
        let mut rng = Pcg32::seeded(63);
        let cfg = LoraConfig {
            dropout: 0.0,
            ..LoraConfig::with_rank(4)
        };
        let layer = LoraLayer::init_nonzero(20, 18, cfg, &mut rng);
        let x = Matrix::random_uniform(11, 20, 1.0, &mut rng);
        let dy = Matrix::random_uniform(11, 18, 1.0, &mut rng);
        let t = TrafficModel::for_device(&lorafusion_gpu::DeviceKind::H100Sxm.spec());
        let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();
        for p in enumerate() {
            let mut ws = PlannedWorkspace::new(p).unwrap();
            ws.forward_into(&layer, &x, 0).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
            let tag = p.tag();
            assert!(bitwise(&ws.x_hat, &x), "{tag} x_hat must copy x");
            if p == ContractionPlan::DEFAULT {
                assert!(bitwise(&ws.y, &ref_fwd.y), "{tag} y must equal reference");
                assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-5), "{tag} dx");
                assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-5), "{tag} da");
                assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-5), "{tag} db");
            }
            assert!(all_close(&ws.y, &ref_fwd.y, 1e-4), "{tag} y");
            assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-4), "{tag} dx");
            assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-4), "{tag} da");
            assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-4), "{tag} db");
        }
    }
}
