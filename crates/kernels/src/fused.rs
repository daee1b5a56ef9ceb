//! FusedLoRA — the split-graph fusion design (Fig. 10): the crate's one
//! K1..K5 step and its kernel lowering.
//!
//! The graph is split exactly at the rank-`r` intermediate `S = X̂ A`,
//! which is cheap to materialize. Around that split point every
//! memory-bound operation is fused into the GEMM that already streams the
//! same full-size activation, using the prologue/epilogue hooks of the
//! one checked GEMM entry, [`lorafusion_tensor::matmul::gemm`] (and its
//! matrix form `gemm_fused` for the two base GEMMs):
//!
//! * **K1** (`fused_lora_fwd_dropout_down`) — dropout runs inside the
//!   down-projection's `A`-panel packing: `X` is read *once* and both `X̂`
//!   (streamed out of the pack via `Prologue::emit`, kept for the backward
//!   `dA`, Fig. 10's op 4) and the tiny `S` are produced by the same GEMM.
//!   There is no standalone dropout kernel and no mask tensor — the mask is
//!   counter-based and regenerated analytically wherever it is needed.
//! * **K2** (`fused_lora_fwd_base_epilogue`) — the compute-bound base GEMM
//!   `X W`, then the LoRA term `alpha * S B` accumulated by the
//!   `Epilogue::AddScaled` tile store while each output tile is still in
//!   registers. No separate scale kernel, no separate add kernel.
//! * **K3** (`fused_lora_bwd_ds_db`) — `dS = alpha * dY Bᵀ` and
//!   `dB = alpha * Sᵀ dY` with `alpha` folded into the
//!   `Epilogue::Scaled` store of each GEMM.
//! * **K4** (`fused_lora_bwd_da`) — `dA = X̂ᵀ dS`, reading the stored `X̂`
//!   (Fig. 10's op 4: only the small `dS` plus one pass over `X̂`).
//! * **K5** (`fused_lora_bwd_dx_epilogue`) — the compute-bound `dY Wᵀ`,
//!   then the mask-routed `dS Aᵀ` contribution accumulated by
//!   `Epilogue::AddMasked`, which regenerates the dropout mask from the
//!   counter-based spec inside the tile store. No dropout-backward kernel,
//!   no accumulation kernel, no materialized mask.
//!
//! [`Workspace`] runs the K1..K5 step for one adapter with reusable
//! buffers, and [`crate::multi`] runs the same two row-window functions
//! (`forward_window`, `backward_window`) once per adapter segment, so
//! the step has one spelling. [`forward_profiles`] and
//! [`backward_profiles`] hold its FLOP/byte lowering, which the roofline
//! cost model prices.

use lorafusion_gpu::{KernelClass, KernelProfile};
use lorafusion_tensor::matmul::{gemm, gemm_fused, Epilogue, Layout, Prologue};
use lorafusion_tensor::{pool, simd, DropoutSpec, Matrix, Pool};

use crate::lora::{AdapterWeights, LoraLayer, Shape};
use crate::traffic::TrafficModel;
use crate::Result;

/// The single-adapter FusedLoRA executor: reusable buffers for the K1..K5
/// step.
///
/// Buffers are `resize`d in place, so after one warm-up step at a shape
/// further steps perform no heap allocation
/// (`crates/kernels/tests/zero_alloc.rs` checks this).
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Layer output `Y` (`m x n`).
    pub y: Matrix,
    /// Masked input `X̂` (`m x k`), emitted by K1's pack prologue.
    pub x_hat: Matrix,
    /// Low-rank intermediate `S = X̂ A` (`m x r`).
    pub s: Matrix,
    /// Low-rank gradient `dS = alpha * dY Bᵀ` (`m x r`).
    pub ds: Matrix,
    /// Input gradient `dX` (`m x k`).
    pub dx: Matrix,
    /// Adapter gradient `dA` (`k x r`).
    pub da: Matrix,
    /// Adapter gradient `dB` (`r x n`).
    pub db: Matrix,
    dropout_row_offset: usize,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            y: Matrix::zeros(0, 0),
            x_hat: Matrix::zeros(0, 0),
            s: Matrix::zeros(0, 0),
            ds: Matrix::zeros(0, 0),
            dx: Matrix::zeros(0, 0),
            da: Matrix::zeros(0, 0),
            db: Matrix::zeros(0, 0),
            dropout_row_offset: 0,
        }
    }

    /// Forward step: the base GEMM `Y = X W`, then K1 and K2's adapter
    /// term. `dropout_row_offset` positions the adapter's dropout stream at
    /// `x`'s first row.
    pub fn forward_into(
        &mut self,
        layer: &LoraLayer,
        x: &Matrix,
        dropout_row_offset: usize,
    ) -> Result<()> {
        let _span = lorafusion_trace::span!("fused.forward", m = x.rows(), k = x.cols());
        self.dropout_row_offset = dropout_row_offset;
        let (m, k) = x.shape();
        self.y.resize(m, layer.n());
        self.x_hat.resize(m, k);
        self.s.resize(m, layer.rank());
        gemm_fused(
            Layout::Nn,
            1.0,
            x,
            &layer.w,
            &mut self.y,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;
        forward_window(
            pool::current(),
            &layer.adapter,
            dropout_row_offset,
            x.as_slice(),
            &mut self.x_hat,
            &mut self.s,
            self.y.as_mut_slice(),
        )
    }

    /// Backward step: the base GEMM `dX = dY Wᵀ`, then the adapter terms
    /// of K3..K5. Requires a preceding [`Workspace::forward_into`].
    pub fn backward_into(&mut self, layer: &LoraLayer, dy: &Matrix) -> Result<()> {
        let _span = lorafusion_trace::span!("fused.backward", m = dy.rows(), n = dy.cols());
        let (m, n) = dy.shape();
        self.ds.resize(m, layer.rank());
        self.dx.resize(m, layer.k());
        self.da.resize(layer.k(), layer.rank());
        self.db.resize(layer.rank(), n);
        gemm_fused(
            Layout::Nt,
            1.0,
            dy,
            &layer.w,
            &mut self.dx,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;
        backward_window(
            pool::current(),
            &layer.adapter,
            self.dropout_row_offset,
            dy.as_slice(),
            &self.x_hat,
            &self.s,
            &mut self.ds,
            self.dx.as_mut_slice(),
            &mut self.da,
            &mut self.db,
        )
    }
}

/// K1 plus K2's adapter term over one row window of the batch: `x` and
/// `y` are the window's rows of the input and of the output, which already
/// holds the base product `X W`. Dropout runs in the pack of `S = X̂ A`,
/// which emits `X̂` into `x_hat`; `alpha * S B` then lands in `y` through
/// the `AddScaled` tile store. `x_hat` (`rows x k`) and `s` (`rows x r`)
/// are sized by the caller; operand lengths are checked against them.
pub(crate) fn forward_window(
    pool: &Pool,
    adapter: &AdapterWeights,
    dropout_row_offset: usize,
    x: &[f32],
    x_hat: &mut Matrix,
    s: &mut Matrix,
    y: &mut [f32],
) -> Result<()> {
    let cfg = adapter.config;
    let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(dropout_row_offset);
    let (rows, k) = x_hat.shape();
    let (r, n) = (s.cols(), adapter.b.cols());
    let path = simd::active_path();
    gemm(
        pool,
        path,
        Layout::Nn,
        1.0,
        x,
        adapter.a.as_slice(),
        s.as_mut_slice(),
        (rows, k, r),
        Prologue {
            dropout: (!spec.is_identity()).then_some(spec),
            softmax_grad: None,
            emit: Some(x_hat.as_mut_slice()),
        },
        Epilogue::Overwrite,
        None,
    )?;
    gemm(
        pool,
        path,
        Layout::Nn,
        1.0,
        s.as_slice(),
        adapter.b.as_slice(),
        y,
        (rows, r, n),
        Prologue::none(),
        Epilogue::AddScaled(cfg.alpha),
        None,
    )
}

/// The adapter terms of K3..K5 over one row window of the batch: `dy` and
/// `dx` are the window's rows of the output gradient and of the input
/// gradient, which already holds the base product `dY Wᵀ`; `x_hat` and
/// `s` are the window's saved forward tensors. `alpha` folds into the
/// `Scaled` tile stores of `dS` and `dB`, and `dX` gains `dS Aᵀ` through
/// the dropout mask regenerated in the `AddMasked` tile store. `ds`
/// (`rows x r`), `da` (`k x r`) and `db` (`r x n`) are sized by the
/// caller; operand lengths are checked against them.
#[allow(clippy::too_many_arguments)] // one window's operands, saved tensors and outputs
pub(crate) fn backward_window(
    pool: &Pool,
    adapter: &AdapterWeights,
    dropout_row_offset: usize,
    dy: &[f32],
    x_hat: &Matrix,
    s: &Matrix,
    ds: &mut Matrix,
    dx: &mut [f32],
    da: &mut Matrix,
    db: &mut Matrix,
) -> Result<()> {
    let cfg = adapter.config;
    let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(dropout_row_offset);
    let (rows, r) = ds.shape();
    let (k, n) = (da.rows(), db.cols());
    let path = simd::active_path();
    // K3: dS = alpha * dY Bᵀ and dB = alpha * Sᵀ dY.
    gemm(
        pool,
        path,
        Layout::Nt,
        1.0,
        dy,
        adapter.b.as_slice(),
        ds.as_mut_slice(),
        (rows, n, r),
        Prologue::none(),
        Epilogue::Scaled(cfg.alpha),
        None,
    )?;
    gemm(
        pool,
        path,
        Layout::Tn,
        1.0,
        s.as_slice(),
        dy,
        db.as_mut_slice(),
        (r, rows, n),
        Prologue::none(),
        Epilogue::Scaled(cfg.alpha),
        None,
    )?;
    // K4: dA = X̂ᵀ dS.
    gemm(
        pool,
        path,
        Layout::Tn,
        1.0,
        x_hat.as_slice(),
        ds.as_slice(),
        da.as_mut_slice(),
        (k, rows, r),
        Prologue::none(),
        Epilogue::Overwrite,
        None,
    )?;
    // K5's adapter term: dX += (dS Aᵀ) ⊙ mask.
    gemm(
        pool,
        path,
        Layout::Nt,
        1.0,
        ds.as_slice(),
        adapter.a.as_slice(),
        dx,
        (rows, r, k),
        Prologue::none(),
        if spec.is_identity() {
            Epilogue::Add
        } else {
            Epilogue::AddMasked(spec)
        },
        None,
    )
}

/// Kernel lowering of the fused forward pass (profiles only).
pub fn forward_profiles(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    vec![
        KernelProfile {
            name: "fused_lora_fwd_dropout_down".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: r as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * rf + mf * kf,
            bytes_read: t.read_cold(m * k) + t.read_cold(k * r),
            bytes_written: t.write(m * r) + t.write(m * k) + t.write_mask(m * k),
        },
        KernelProfile {
            name: "fused_lora_fwd_base_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: n as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * rf * nf + mf * nf,
            // K1's working set evicted `X` from L2: the GEMM reads it cold.
            bytes_read: t.read_gemm_input(m * k, n)
                + t.read_gemm_input(k * n, n)
                + t.read_hot(m * r)
                + t.read_cold(r * n),
            bytes_written: t.write(m * n),
        },
    ]
}

/// Kernel lowering of the fused backward pass (profiles only).
pub fn backward_profiles(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    vec![
        KernelProfile {
            name: "fused_lora_bwd_ds_db".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: r as u64,
                adapters: 1,
            },
            flops: 4.0 * mf * nf * rf,
            bytes_read: t.read_cold(m * n) + t.read_cold(r * n) + t.read_cold(m * r),
            bytes_written: t.write(m * r) + t.write(r * n),
        },
        KernelProfile {
            name: "fused_lora_bwd_da".into(),
            class: KernelClass::Gemm {
                m: k as u64,
                k: m as u64,
                n: r as u64,
            },
            flops: 2.0 * mf * kf * rf,
            // Reads the stored masked input X̂ (Fig. 10's op 4).
            bytes_read: t.read_cold(m * k) + t.read_hot(m * r),
            bytes_written: t.write(k * r),
        },
        KernelProfile {
            name: "fused_lora_bwd_dx_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: k as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * kf * rf + mf * kf,
            bytes_read: t.read_gemm_input(m * n, k)
                + t.read_gemm_input(k * n, k)
                + t.read_cold(m * r)
                + t.read_cold(k * r)
                + t.mask(m * k),
            bytes_written: t.write(m * k),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_gpu::{CostModel, DeviceKind, KernelProfile};
    use lorafusion_tensor::matmul::{matmul_nn, matmul_nt, matmul_tn};
    use lorafusion_tensor::ops::{add, all_close, hadamard, scale};
    use lorafusion_tensor::{dropout_mask, Pcg32};

    use crate::lora::LoraConfig;
    use crate::reference;

    fn traffic() -> TrafficModel {
        TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
    }

    fn bitwise(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// One forward+backward step through a fresh workspace.
    fn step(layer: &LoraLayer, x: &Matrix, dy: &Matrix, dropout_row_offset: usize) -> Workspace {
        let mut ws = Workspace::new();
        ws.forward_into(layer, x, dropout_row_offset).unwrap();
        ws.backward_into(layer, dy).unwrap();
        ws
    }

    /// Outputs of the multi-pass spelling of the step.
    struct MultiPass {
        s: Matrix,
        y: Matrix,
        ds: Matrix,
        dx: Matrix,
        da: Matrix,
        db: Matrix,
    }

    /// The multi-pass spelling of the step: the same contractions with the
    /// same alpha associations, but prologues/epilogues replaced by a
    /// materialized mask and standalone scale/add/hadamard passes. The hook
    /// engine's per-element expressions are exact (see the tensor fuzz
    /// suite), so the fused step must match this bitwise.
    fn multipass(layer: &LoraLayer, x: &Matrix, dy: &Matrix, spec: DropoutSpec) -> MultiPass {
        let (a, b) = (&layer.adapter.a, &layer.adapter.b);
        let alpha = layer.adapter.config.alpha;
        let mask = dropout_mask(x.rows(), x.cols(), &spec).unwrap();
        let x_hat = hadamard(x, &mask).unwrap();
        let s = matmul_nn(&x_hat, a).unwrap();
        let sb = scale(alpha, &matmul_nn(&s, b).unwrap());
        let y = add(&matmul_nn(x, &layer.w).unwrap(), &sb).unwrap();
        let ds = scale(alpha, &matmul_nt(dy, b).unwrap());
        let ds_at = hadamard(&matmul_nt(&ds, a).unwrap(), &mask).unwrap();
        let dx = add(&matmul_nt(dy, &layer.w).unwrap(), &ds_at).unwrap();
        let da = matmul_tn(&x_hat, &ds).unwrap();
        let db = scale(alpha, &matmul_tn(&s, dy).unwrap());
        MultiPass {
            s,
            y,
            ds,
            dx,
            da,
            db,
        }
    }

    /// The step must (a) be bitwise-equal to its multi-pass spelling — the
    /// hook lowering is lossless — and (b) agree with the reference
    /// executor to rounding, with a row-offset dropout stream and a reused
    /// workspace.
    #[test]
    fn step_matches_multipass_bitwise_and_reference_close() {
        let mut rng = Pcg32::seeded(61);
        let cfg = LoraConfig {
            dropout: 0.25,
            ..LoraConfig::with_rank(6)
        };
        let layer = LoraLayer::init_nonzero(34, 22, cfg, &mut rng);
        let x = Matrix::random_uniform(19, 34, 1.0, &mut rng);
        let dy = Matrix::random_uniform(19, 22, 1.0, &mut rng);
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(2);
        let t = traffic();
        let ref_fwd = reference::forward(&layer, &x, 2, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();

        let mut ws = Workspace::new();
        // Two rounds: the second exercises buffer reuse.
        for _ in 0..2 {
            ws.forward_into(&layer, &x, 2).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
        }
        assert!(bitwise(&ws.x_hat, &ref_fwd.saved.x_hat), "x_hat");

        let mp = multipass(&layer, &x, &dy, spec);
        for (name, got, want) in [
            ("s", &ws.s, &mp.s),
            ("y", &ws.y, &mp.y),
            ("ds", &ws.ds, &mp.ds),
            ("dx", &ws.dx, &mp.dx),
            ("da", &ws.da, &mp.da),
            ("db", &ws.db, &mp.db),
        ] {
            assert!(bitwise(got, want), "{name} vs multipass");
        }

        assert!(all_close(&ws.y, &ref_fwd.y, 1e-4), "y vs ref");
        assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-4), "dx vs ref");
        assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-4), "da vs ref");
        assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-4), "db vs ref");
    }

    /// The step's epilogues evaluate the reference's per-element
    /// expressions exactly, so its forward is bit-identical to the unfused
    /// reference, not just close. The backward `dS` association differs
    /// (`alpha` folds into the store rather than pre-scaling `dY`), so
    /// gradients agree to rounding.
    #[test]
    fn step_matches_reference() {
        let mut rng = Pcg32::seeded(30);
        let layer = LoraLayer::init_nonzero(32, 28, LoraConfig::with_rank(4), &mut rng);
        let x = Matrix::random_uniform(20, 32, 1.0, &mut rng);
        let dy = Matrix::random_uniform(20, 28, 1.0, &mut rng);
        let t = traffic();
        let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();

        let ws = step(&layer, &x, &dy, 0);
        assert!(bitwise(&ws.y, &ref_fwd.y), "y diverged from reference");
        assert!(bitwise(&ws.x_hat, &ref_fwd.saved.x_hat));
        assert!(bitwise(&ws.s, &ref_fwd.saved.s));
        assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-5));
        assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-5));
        assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-5));
    }

    /// Zero dropout must short-circuit: `X̂` a bitwise copy of `X`, mask
    /// routing degraded to plain adds (`Epilogue::Add`), held to the same
    /// bounds as the dropout path in `step_matches_reference`.
    #[test]
    fn zero_dropout_round_trips() {
        let mut rng = Pcg32::seeded(63);
        let cfg = LoraConfig {
            dropout: 0.0,
            ..LoraConfig::with_rank(4)
        };
        let layer = LoraLayer::init_nonzero(20, 18, cfg, &mut rng);
        let x = Matrix::random_uniform(11, 20, 1.0, &mut rng);
        let dy = Matrix::random_uniform(11, 18, 1.0, &mut rng);
        let t = traffic();
        let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
        let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();

        let ws = step(&layer, &x, &dy, 0);
        assert!(bitwise(&ws.x_hat, &x), "x_hat must copy x");
        assert!(bitwise(&ws.y, &ref_fwd.y), "y must equal reference");
        assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-5), "dx");
        assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-5), "da");
        assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-5), "db");
    }

    #[test]
    fn fused_uses_fewer_kernels_and_less_traffic() {
        let t = traffic();
        let shape = Shape::new(8192, 4096, 4096, 16);
        let fused_fwd = forward_profiles(shape, &t);
        let ref_fwd = reference::forward_profiles(shape, &t);
        assert!(fused_fwd.len() < ref_fwd.len());
        let sum = |ks: &[KernelProfile]| ks.iter().map(KernelProfile::bytes_total).sum::<u64>();
        assert!(sum(&fused_fwd) < sum(&ref_fwd));
        let fused_bwd = backward_profiles(shape, &t);
        let ref_bwd = reference::backward_profiles(shape, &t);
        assert!(fused_bwd.len() < ref_bwd.len());
        assert!(sum(&fused_bwd) < sum(&ref_bwd));
    }

    #[test]
    fn fused_is_faster_under_cost_model() {
        // Fig. 17: 1.2-1.4x module speedup on H100 shapes.
        let t = traffic();
        let dev = DeviceKind::H100Sxm.spec();
        let model = CostModel::default();
        let shape = Shape::new(8192, 4096, 4096, 16);
        let fused: Vec<_> = forward_profiles(shape, &t)
            .into_iter()
            .chain(backward_profiles(shape, &t))
            .collect();
        let unfused: Vec<_> = reference::forward_profiles(shape, &t)
            .into_iter()
            .chain(reference::backward_profiles(shape, &t))
            .collect();
        let speedup = model.sequence_seconds(&dev, &unfused) / model.sequence_seconds(&dev, &fused);
        assert!(speedup > 1.1, "fused speedup {speedup}");
        assert!(speedup < 1.6, "fused speedup {speedup} implausibly large");
    }
}
