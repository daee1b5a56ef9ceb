//! Chunked fused linear+cross-entropy — the Liger-style LM-head loss that
//! never materializes the `[tokens x vocab]` logits tensor.
//!
//! The LM head is the single largest memory object in LLM fine-tuning:
//! at Llama-3.1-8B scale one 16k-token micro-batch produces a
//! `16384 x 128256` logits tensor (and its gradient) that exists only to
//! be collapsed into one scalar loss and a `tokens x hidden` input
//! gradient. This module runs the head GEMM chunk-by-chunk over token
//! blocks through the GEMM engine's existing prologue/epilogue hooks:
//!
//! 1. **K1 (per chunk)** — `logits = X_chunk @ W` with the *row-max sink*
//!    epilogue (the `row_max` output of `lorafusion_tensor::matmul::gemm`):
//!    each stored tile folds its per-row maximum while register-hot, so
//!    the LSE pass reads every logits row once instead of twice.
//! 2. **LSE pass (per chunk)** — per-row ascending sum-of-exponentials and
//!    `log_sum_exp`, parallel over rows (each row is one unbroken chain).
//!    The exps are the in-tree `lorafusion_tensor::simd::exp` (no libm),
//!    computed 64 at a time by the active SIMD spelling and folded one by
//!    one into the row's chain.
//! 3. **K2 (per chunk)** — `dX_chunk = softmax_grad(logits) @ Wᵀ` with the
//!    softmax-grad *pack prologue*: while the logits chunk is packed, each
//!    row segment goes through `tloss::softmax_grad_row` (vectorized exps,
//!    the target column fixed up once) into a stack buffer, so the
//!    `dlogits` matrix is never materialized either. The reference's
//!    materialized `dlogits` pass calls the same row helper.
//!
//! Peak live memory for the head drops from `2 * tokens x vocab`
//! (logits + dlogits) to `chunk x vocab` — the chunked buffer is reused
//! across chunks and `dlogits` only ever exists inside packed panels.
//!
//! **Bitwise contract.** The result is bit-identical to the unfused
//! reference ([`reference_linear_ce_into`]) for *every* chunk size and
//! thread count: token chunks own whole rows, the engine's per-element
//! GEMM reduction is independent of `m`, row reductions follow the fixed
//! chunk-merge contract of `lorafusion_tensor::loss`, and both paths call
//! the same row helpers, whose elementwise results do not depend on how a
//! row is segmented or on the SIMD spelling. `bench_loss` asserts this
//! in-binary across a chunk sweep and a thread sweep; `scripts/ci.sh`
//! gates it, and diffs its loss digests under `LORAFUSION_SIMD=0` and the
//! default.
//!
//! **No `dW`.** The LM head is frozen under LoRA fine-tuning (only
//! adapters train), matching `frozen::backward_profiles`, so neither path
//! produces a weight gradient. This is also what keeps the chunked
//! backward bitwise: a chunked `Epilogue::Add` accumulation of `dW`
//! across chunks would reorder its `k`-chain relative to one full GEMM.

use lorafusion_gpu::{KernelClass, KernelProfile};
use lorafusion_tensor::matmul::{gemm, Epilogue, Layout, Prologue, SoftmaxGradSpec};
use lorafusion_tensor::{loss as tloss, pool, simd, Matrix, TensorError};

use crate::traffic::TrafficModel;
use crate::Result;

/// Default functional chunk size (tokens per chunk). Large enough that the
/// chunk GEMM amortizes packing, small enough that a `chunk x vocab` f32
/// buffer stays cache-friendly at bench scales.
pub const DEFAULT_CHUNK_TOKENS: usize = 256;

/// Chunk size assumed by the *simulated* lowering ([`fused_profiles`]) and
/// by `dist`'s memory/cost accounting. Chosen from the roofline: on H100,
/// GEMM efficiency saturates in `m` well below 4096 rows
/// (`gemm_m_half = 384`), so 4096-token chunks keep the per-chunk GEMMs at
/// full tensor-core efficiency while shrinking the live logits buffer by
/// `tokens / 4096`.
pub const SIM_CHUNK_TOKENS: usize = 4096;

/// Reusable buffers and outputs of a linear+CE evaluation.
///
/// One workspace serves both the fused and the reference path; buffers are
/// grown on demand and reused across calls. After a call:
/// `lse[i]`/`losses[i]` hold the per-token log-sum-exp and cross-entropy
/// loss, `dx` the `tokens x hidden` input gradient, `mean_loss` the
/// ascending-token `f64` mean, and `peak_logits_elems` the largest number
/// of logits-sized f32 elements that were live at once (the fused path's
/// headline: `chunk x vocab` vs the reference's `2 * tokens x vocab`).
pub struct LinearCeWorkspace {
    logits: Matrix,
    dlogits: Matrix,
    /// Per-token log-sum-exp of the logits row.
    pub lse: Vec<f32>,
    /// Per-token cross-entropy loss.
    pub losses: Vec<f32>,
    /// Input gradient `dL/dX`, `tokens x hidden`.
    pub dx: Matrix,
    /// Mean loss over the batch (ascending-token `f64` fold).
    pub mean_loss: f64,
    /// Largest count of live logits-sized `f32` elements during the call.
    pub peak_logits_elems: usize,
}

impl LinearCeWorkspace {
    /// Fresh workspace with empty buffers.
    pub fn new() -> Self {
        Self {
            logits: Matrix::zeros(0, 0),
            dlogits: Matrix::zeros(0, 0),
            lse: Vec::new(),
            losses: Vec::new(),
            dx: Matrix::zeros(0, 0),
            mean_loss: 0.0,
            peak_logits_elems: 0,
        }
    }
}

impl Default for LinearCeWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

fn validate_inputs(x: &Matrix, w: &Matrix, targets: &[u32]) -> Result<()> {
    if x.cols() != w.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "linear_ce",
            lhs: x.shape(),
            rhs: w.shape(),
        });
    }
    if targets.len() != x.rows() {
        return Err(TensorError::LengthMismatch {
            expected: x.rows(),
            actual: targets.len(),
        });
    }
    let v = w.cols();
    if targets.iter().any(|&t| t as usize >= v) {
        return Err(TensorError::InvalidParameter {
            name: "targets",
            reason: "target class index out of vocabulary range",
        });
    }
    Ok(())
}

/// Per-row LSE pass shared by both paths: `lse[i]` holds the row max on
/// entry and the log-sum-exp on exit. Parallel over rows; each row's
/// sum-exp is one unbroken ascending chain, so the split cannot change a
/// bit (see `lorafusion_tensor::loss`).
fn lse_pass(logits: &[f32], vocab: usize, lse: &mut [f32]) {
    let rows = lse.len();
    let p = pool::current();
    let rows_per_task = rows.div_ceil(p.threads().max(1)).max(1);
    pool::parallel_chunks_mut(p, lse, rows_per_task, |t, chunk| {
        let row0 = t * rows_per_task;
        for (i, slot) in chunk.iter_mut().enumerate() {
            let row = &logits[(row0 + i) * vocab..(row0 + i + 1) * vocab];
            let max = *slot;
            *slot = tloss::log_sum_exp(max, tloss::row_sum_exp(row, max));
        }
    });
}

/// Serial per-token loss fill and ascending-token `f64` mean.
fn loss_fill(
    logits: &[f32],
    vocab: usize,
    targets: &[u32],
    lse: &[f32],
    losses: &mut [f32],
    row0: usize,
) {
    for (i, slot) in losses.iter_mut().enumerate() {
        let tgt = targets[row0 + i] as usize;
        *slot = tloss::ce_loss(logits[i * vocab + tgt], lse[row0 + i]);
    }
}

fn mean_loss(losses: &[f32]) -> f64 {
    let total: f64 = losses.iter().fold(0.0f64, |acc, &l| acc + l as f64);
    if losses.is_empty() {
        0.0
    } else {
        total / losses.len() as f64
    }
}

/// Trace metrics for the loss kernels, resolved once. The last element
/// labels fused calls by problem size (`loss.fused_calls{class=…}`,
/// `tokens * vocab` below 2^20 → `small`, at or above 2^26 → `large`).
struct LossMetrics {
    fused_calls: lorafusion_trace::metrics::Counter,
    reference_calls: lorafusion_trace::metrics::Counter,
    chunks: lorafusion_trace::metrics::Counter,
    chunk_tokens: lorafusion_trace::metrics::Histogram,
    fused_by_class: [lorafusion_trace::metrics::Counter; 3],
}

fn loss_metrics() -> &'static LossMetrics {
    use lorafusion_trace::label::Scope;
    use lorafusion_trace::metrics::{counter, histogram};
    static METRICS: std::sync::OnceLock<LossMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let class = |v| Scope::new(&[("class", v)]);
        LossMetrics {
            fused_calls: counter("loss.fused_calls"),
            reference_calls: counter("loss.reference_calls"),
            chunks: counter("loss.chunks"),
            chunk_tokens: histogram("loss.chunk.tokens"),
            fused_by_class: [
                class("small").counter("loss.fused_calls"),
                class("medium").counter("loss.fused_calls"),
                class("large").counter("loss.fused_calls"),
            ],
        }
    })
}

/// Size-class index for `loss.fused_calls{class=…}`.
fn loss_class(tokens: usize, vocab: usize) -> usize {
    let cells = tokens as u128 * vocab as u128;
    if cells < 1 << 20 {
        0
    } else if cells < 1 << 26 {
        1
    } else {
        2
    }
}

/// Chunked fused linear+cross-entropy: loss, per-token LSE, and `dX` of
/// `softmax(X @ W)` against `targets`, without materializing the
/// `tokens x vocab` logits (peak live: one `chunk_tokens x vocab` buffer).
///
/// Gradients use mean reduction (`scale = 1 / tokens`). Bitwise-identical
/// to [`reference_linear_ce_into`] for every `chunk_tokens >= 1` and
/// every thread count.
pub fn fused_linear_ce_into(
    ws: &mut LinearCeWorkspace,
    x: &Matrix,
    w: &Matrix,
    targets: &[u32],
    chunk_tokens: usize,
) -> Result<()> {
    validate_inputs(x, w, targets)?;
    if chunk_tokens == 0 {
        return Err(TensorError::InvalidParameter {
            name: "chunk_tokens",
            reason: "chunk size must be at least 1",
        });
    }
    let (m, h) = x.shape();
    let v = w.cols();
    let _span = lorafusion_trace::span!("loss.fused_linear_ce", tokens = m, chunk = chunk_tokens);
    let metrics = loss_metrics();
    metrics.fused_calls.incr();
    metrics.fused_by_class[loss_class(m, v)].incr();

    let chunk = chunk_tokens.min(m.max(1));
    ws.logits.resize(chunk, v);
    ws.lse.resize(m, 0.0);
    ws.losses.resize(m, 0.0);
    ws.dx.resize(m, h);
    ws.peak_logits_elems = if m == 0 { 0 } else { chunk * v };
    let scale = if m == 0 { 0.0 } else { 1.0 / m as f32 };

    let (p, path) = (pool::current(), simd::active_path());
    let mut c0 = 0;
    while c0 < m {
        let rows = chunk.min(m - c0);
        metrics.chunks.incr();
        metrics.chunk_tokens.record(rows as u64);
        let logits = &mut ws.logits.as_mut_slice()[..rows * v];

        // K1: chunk logits, with the row-max sink folded into the store
        // writing each row's max into its `lse` slot.
        gemm(
            p,
            path,
            Layout::Nn,
            1.0,
            &x.as_slice()[c0 * h..(c0 + rows) * h],
            w.as_slice(),
            logits,
            (rows, h, v),
            Prologue::none(),
            Epilogue::Overwrite,
            Some(&mut ws.lse[c0..c0 + rows]),
        )?;

        // Streaming LSE + per-token loss over the chunk.
        lse_pass(logits, v, &mut ws.lse[c0..c0 + rows]);
        loss_fill(
            logits,
            v,
            targets,
            &ws.lse,
            &mut ws.losses[c0..c0 + rows],
            c0,
        );

        // K2: dX chunk; dlogits exists only inside packed panels.
        gemm(
            p,
            path,
            Layout::Nt,
            1.0,
            logits,
            w.as_slice(),
            &mut ws.dx.as_mut_slice()[c0 * h..(c0 + rows) * h],
            (rows, v, h),
            Prologue::softmax_grad(SoftmaxGradSpec {
                lse: &ws.lse[c0..c0 + rows],
                targets: &targets[c0..c0 + rows],
                scale,
            }),
            Epilogue::Overwrite,
            None,
        )?;
        c0 += rows;
    }
    ws.mean_loss = mean_loss(&ws.losses);
    Ok(())
}

/// Unfused multi-pass reference: materializes the full `tokens x vocab`
/// logits, scans each row twice (max, then sum-exp), materializes the full
/// `dlogits`, and runs a plain GEMM for `dX` — the PyTorch-style lowering
/// the fused path replaces. Peak live: `2 * tokens x vocab`.
pub fn reference_linear_ce_into(
    ws: &mut LinearCeWorkspace,
    x: &Matrix,
    w: &Matrix,
    targets: &[u32],
) -> Result<()> {
    validate_inputs(x, w, targets)?;
    let (m, h) = x.shape();
    let v = w.cols();
    let _span = lorafusion_trace::span!("loss.reference_linear_ce", tokens = m);
    let reference_calls = loss_metrics().reference_calls;
    reference_calls.incr();

    ws.logits.resize(m, v);
    ws.dlogits.resize(m, v);
    ws.lse.resize(m, 0.0);
    ws.losses.resize(m, 0.0);
    ws.dx.resize(m, h);
    ws.peak_logits_elems = 2 * m * v;
    let scale = if m == 0 { 0.0 } else { 1.0 / m as f32 };

    let (p, path) = (pool::current(), simd::active_path());
    // Pass 1: full logits GEMM.
    gemm(
        p,
        path,
        Layout::Nn,
        1.0,
        x.as_slice(),
        w.as_slice(),
        ws.logits.as_mut_slice(),
        (m, h, v),
        Prologue::none(),
        Epilogue::Overwrite,
        None,
    )?;
    // Pass 2: per-row max via a linear scan (the fused path's folded
    // block partials equal this bit for bit — the chunk-merge contract).
    for (i, slot) in ws.lse.iter_mut().enumerate() {
        *slot = tloss::row_max(&ws.logits.as_slice()[i * v..(i + 1) * v]);
    }
    // Pass 3: second row scan for sum-exp -> LSE.
    lse_pass(ws.logits.as_slice(), v, &mut ws.lse);
    // Pass 4: per-token losses.
    loss_fill(ws.logits.as_slice(), v, targets, &ws.lse, &mut ws.losses, 0);
    // Pass 5: materialized dlogits through the same row helper the fused
    // pack-prologue calls (with its `alpha = 1`), one whole row at a time.
    {
        let (logits, lse) = (&ws.logits, &ws.lse);
        let rows_per_task = m.div_ceil(p.threads().max(1)).max(1);
        pool::parallel_chunks_mut(
            p,
            ws.dlogits.as_mut_slice(),
            rows_per_task * v,
            |t, chunk| {
                let row0 = t * rows_per_task;
                for (r, drow) in chunk.chunks_mut(v.max(1)).enumerate() {
                    let i = row0 + r;
                    tloss::softmax_grad_row(
                        path,
                        &logits.as_slice()[i * v..(i + 1) * v],
                        lse[i],
                        Some(targets[i] as usize),
                        scale,
                        1.0,
                        drow,
                    );
                }
            },
        );
    }
    // Pass 6: plain dX GEMM from the materialized gradient.
    gemm(
        p,
        path,
        Layout::Nt,
        1.0,
        ws.dlogits.as_slice(),
        w.as_slice(),
        ws.dx.as_mut_slice(),
        (m, v, h),
        Prologue::none(),
        Epilogue::Overwrite,
        None,
    )?;
    ws.mean_loss = mean_loss(&ws.losses);
    Ok(())
}

// ---------------------------------------------------------------------------
// Kernel lowerings (simulated traffic/cost accounting)
// ---------------------------------------------------------------------------

/// Unfused LM-head + cross-entropy lowering: `(forward, backward)` kernel
/// sequences with every byte routed through the [`TrafficModel`].
///
/// Forward: the head GEMM writes the full logits to DRAM, then the CE
/// reduction re-reads them (hot — the loss usually runs right after).
/// Backward: a full-size `softmax_grad` elementwise kernel materializes
/// `dlogits`, then the `dX` GEMM consumes it.
pub fn unfused_profiles(
    tokens: usize,
    hidden: usize,
    vocab: usize,
    t: &TrafficModel,
) -> (Vec<KernelProfile>, Vec<KernelProfile>) {
    let (m, h, v) = (tokens, hidden, vocab);
    let fwd = vec![
        KernelProfile {
            name: "lm_head_fwd".into(),
            class: KernelClass::Gemm {
                m: m as u64,
                k: h as u64,
                n: v as u64,
            },
            flops: 2.0 * m as f64 * h as f64 * v as f64,
            bytes_read: t.read_gemm_input(m * h, v) + t.read_gemm_input(h * v, v),
            bytes_written: t.write(m * v),
        },
        KernelProfile {
            name: "cross_entropy".into(),
            class: KernelClass::Reduction,
            // Per logit: subtract max, exp, accumulate (the streaming
            // max/sum-exp passes).
            flops: 3.0 * m as f64 * v as f64,
            bytes_read: t.read_hot(m * v) + t.bytes(m),
            bytes_written: t.bytes(2 * m),
        },
    ];
    let bwd = vec![
        KernelProfile {
            name: "softmax_grad".into(),
            class: KernelClass::Elementwise { tensors: 2 },
            flops: 2.0 * m as f64 * v as f64,
            bytes_read: t.read_cold(m * v) + t.bytes(2 * m),
            bytes_written: t.write(m * v),
        },
        KernelProfile {
            name: "lm_head_bwd".into(),
            class: KernelClass::Gemm {
                m: m as u64,
                k: v as u64,
                n: h as u64,
            },
            flops: 2.0 * m as f64 * h as f64 * v as f64,
            bytes_read: t.read_gemm_input_hot(m * v, h) + t.read_gemm_input(h * v, h),
            bytes_written: t.write(m * h),
        },
    ];
    (fwd, bwd)
}

/// Chunked fused linear+CE lowering: `(forward, backward)` sequences with
/// one fused GEMM per `chunk`-token block in each direction.
///
/// Forward chunks fold the LSE reduction into the GEMM epilogue (the
/// `chunk x vocab` tile dies in registers/L2 — only per-token scalars are
/// written besides the transient chunk buffer). Backward chunks fold the
/// softmax-grad into the GEMM prologue, so `dlogits` is never written at
/// all. The per-chunk weight re-read (`h x v` per chunk) is the price of
/// chunking; the `FusedGemm` class charges the epilogue's efficiency
/// penalty.
pub fn fused_profiles(
    tokens: usize,
    hidden: usize,
    vocab: usize,
    chunk_tokens: usize,
    t: &TrafficModel,
) -> (Vec<KernelProfile>, Vec<KernelProfile>) {
    let (h, v) = (hidden, vocab);
    let chunk = chunk_tokens.max(1).min(tokens.max(1));
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let mut c0 = 0;
    while c0 < tokens {
        let c = chunk.min(tokens - c0);
        fwd.push(KernelProfile {
            name: "fused_linear_ce_fwd".into(),
            class: KernelClass::FusedGemm {
                m: c as u64,
                k: h as u64,
                n: v as u64,
                adapters: 1,
            },
            // GEMM plus the in-register max/exp/accumulate reduction.
            flops: 2.0 * c as f64 * h as f64 * v as f64 + 3.0 * c as f64 * v as f64,
            bytes_read: t.read_gemm_input(c * h, v) + t.read_gemm_input(h * v, v),
            // The chunk buffer write plus per-token LSE/loss scalars.
            bytes_written: t.write(c * v) + t.bytes(2 * c),
        });
        bwd.push(KernelProfile {
            name: "fused_ce_grad_gemm".into(),
            class: KernelClass::FusedGemm {
                m: c as u64,
                k: v as u64,
                n: h as u64,
                adapters: 1,
            },
            flops: 2.0 * c as f64 * h as f64 * v as f64 + 2.0 * c as f64 * v as f64,
            bytes_read: t.read_gemm_input_hot(c * v, h)
                + t.read_gemm_input(h * v, h)
                + t.bytes(2 * c),
            bytes_written: t.write(c * h),
        });
        c0 += c;
    }
    (fwd, bwd)
}

/// Peak live logits bytes of the unfused lowering: logits plus `dlogits`
/// at the model dtype.
pub fn peak_logits_bytes_unfused(tokens: usize, vocab: usize, t: &TrafficModel) -> u64 {
    2 * t.bytes(tokens * vocab)
}

/// Peak live logits bytes of the fused lowering: one transient
/// `chunk x vocab` buffer.
pub fn peak_logits_bytes_fused(chunk_tokens: usize, vocab: usize, t: &TrafficModel) -> u64 {
    t.bytes(chunk_tokens * vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_tensor::{Pcg32, Pool};

    fn setup(m: usize, h: usize, v: usize, seed: u64) -> (Matrix, Matrix, Vec<u32>) {
        let mut rng = Pcg32::seeded(seed);
        let x = Matrix::random_gaussian(m, h, 1.0, &mut rng);
        let w = Matrix::random_gaussian(h, v, 0.5, &mut rng);
        let targets: Vec<u32> = (0..m).map(|_| rng.next_u32() % v as u32).collect();
        (x, w, targets)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The headline contract: fused == reference bit for bit, for every
    /// chunk size (divisor, non-divisor, 1, larger-than-m) and thread
    /// count.
    #[test]
    fn fused_matches_reference_for_every_chunk_and_thread_count() {
        let (m, h, v) = (37, 16, 93);
        let (x, w, targets) = setup(m, h, v, 7);

        let mut reference = LinearCeWorkspace::new();
        reference_linear_ce_into(&mut reference, &x, &w, &targets).unwrap();
        let want_lse = bits(&reference.lse);
        let want_losses = bits(&reference.losses);
        let want_dx = bits(reference.dx.as_slice());
        let want_mean = reference.mean_loss.to_bits();

        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            pool::with_pool(&pool, || {
                for chunk in [1usize, 5, 16, 37, 64] {
                    let mut ws = LinearCeWorkspace::new();
                    fused_linear_ce_into(&mut ws, &x, &w, &targets, chunk).unwrap();
                    assert_eq!(bits(&ws.lse), want_lse, "lse chunk {chunk} t {threads}");
                    assert_eq!(
                        bits(&ws.losses),
                        want_losses,
                        "losses chunk {chunk} t {threads}"
                    );
                    assert_eq!(
                        bits(ws.dx.as_slice()),
                        want_dx,
                        "dx chunk {chunk} t {threads}"
                    );
                    assert_eq!(ws.mean_loss.to_bits(), want_mean, "mean chunk {chunk}");
                }
            });
        }
    }

    /// The gradient must agree with a finite-difference probe of the loss.
    #[test]
    fn dx_matches_finite_differences() {
        let (m, h, v) = (4, 6, 11);
        let (x, w, targets) = setup(m, h, v, 21);
        let mut ws = LinearCeWorkspace::new();
        fused_linear_ce_into(&mut ws, &x, &w, &targets, 2).unwrap();
        let base_dx = ws.dx.clone();

        let eps = 1e-2f32;
        for &(i, j) in &[(0usize, 0usize), (1, 3), (3, 5)] {
            let mut xp = x.clone();
            xp.set(i, j, x.get(i, j).unwrap() + eps).unwrap();
            fused_linear_ce_into(&mut ws, &xp, &w, &targets, 2).unwrap();
            let lp = ws.mean_loss;
            let mut xm = x.clone();
            xm.set(i, j, x.get(i, j).unwrap() - eps).unwrap();
            fused_linear_ce_into(&mut ws, &xm, &w, &targets, 2).unwrap();
            let lm = ws.mean_loss;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = base_dx.get(i, j).unwrap();
            assert!(
                (numeric - analytic).abs() <= 2e-3 * (1.0 + analytic.abs()),
                "d/dx[{i},{j}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Loss sanity: uniform logits give `ln(vocab)`.
    #[test]
    fn uniform_logits_give_log_vocab() {
        let (m, h, v) = (3, 4, 17);
        let x = Matrix::zeros(m, h);
        let mut rng = Pcg32::seeded(3);
        let w = Matrix::random_gaussian(h, v, 1.0, &mut rng);
        let targets = vec![5u32; m];
        let mut ws = LinearCeWorkspace::new();
        fused_linear_ce_into(&mut ws, &x, &w, &targets, 2).unwrap();
        // X = 0 means logits = 0 regardless of W: softmax is uniform.
        assert!((ws.mean_loss - (v as f64).ln()).abs() < 1e-5);
    }

    /// Validation: mismatched shapes, bad targets, zero chunk.
    #[test]
    fn invalid_inputs_are_rejected() {
        let (x, w, targets) = setup(5, 8, 13, 9);
        let mut ws = LinearCeWorkspace::new();
        assert!(fused_linear_ce_into(&mut ws, &x, &w, &targets, 0).is_err());
        let bad_targets = vec![13u32; 5];
        assert!(fused_linear_ce_into(&mut ws, &x, &w, &bad_targets, 2).is_err());
        assert!(reference_linear_ce_into(&mut ws, &x, &w, &targets[..4]).is_err());
        let wrong_w = Matrix::zeros(7, 13);
        assert!(fused_linear_ce_into(&mut ws, &x, &wrong_w, &targets, 2).is_err());
    }

    /// The fused lowering must write far fewer DRAM bytes than the
    /// unfused one (no logits round-trip for the gradient) and report a
    /// `tokens / chunk` peak-live reduction.
    #[test]
    fn fused_profiles_save_traffic_and_memory() {
        let t = TrafficModel::for_device(&lorafusion_gpu::DeviceKind::H100Sxm.spec());
        let (tokens, hidden, vocab, chunk) = (16384, 4096, 128256, SIM_CHUNK_TOKENS);
        let (ufwd, ubwd) = unfused_profiles(tokens, hidden, vocab, &t);
        let (ffwd, fbwd) = fused_profiles(tokens, hidden, vocab, chunk, &t);
        let written = |ps: &[KernelProfile]| ps.iter().map(|p| p.bytes_written).sum::<u64>();
        // Backward: the unfused path writes the full dlogits; fused writes
        // only the dX chunks.
        assert!(written(&fbwd) * 10 < written(&ubwd));
        assert_eq!(ffwd.len(), tokens / chunk);
        assert_eq!(ufwd.len(), 2);
        assert_eq!(ubwd.len(), 2);

        let peak_u = peak_logits_bytes_unfused(tokens, vocab, &t);
        let peak_f = peak_logits_bytes_fused(chunk, vocab, &t);
        assert!(
            peak_u / peak_f >= (tokens / chunk) as u64,
            "peak ratio {} below {}",
            peak_u / peak_f,
            tokens / chunk
        );
    }

    /// FLOP conservation: both lowerings perform the same GEMM FLOPs (the
    /// fused path adds only the in-register reduction FLOPs).
    #[test]
    fn lowering_flops_are_conserved() {
        let t = TrafficModel::for_device(&lorafusion_gpu::DeviceKind::H100Sxm.spec());
        let (tokens, hidden, vocab) = (8192, 4096, 128256);
        let (ufwd, ubwd) = unfused_profiles(tokens, hidden, vocab, &t);
        let (ffwd, fbwd) = fused_profiles(tokens, hidden, vocab, SIM_CHUNK_TOKENS, &t);
        let flops = |ps: &[KernelProfile]| ps.iter().map(|p| p.flops).sum::<f64>();
        let gemm = 2.0 * tokens as f64 * hidden as f64 * vocab as f64;
        for total in [flops(&ufwd), flops(&ffwd)] {
            assert!(total >= gemm && total < gemm * 1.01, "fwd flops {total}");
        }
        for total in [flops(&ubwd), flops(&fbwd)] {
            assert!(total >= gemm && total < gemm * 1.01, "bwd flops {total}");
        }
    }

    /// `ops::all_close` keeps the two functional paths honest at a coarse
    /// tolerance too (a bitwise regression would trip the exact test; this
    /// one localizes gross numerical bugs faster).
    #[test]
    fn fused_and_reference_agree_numerically() {
        let (x, w, targets) = setup(19, 12, 41, 33);
        let mut fused = LinearCeWorkspace::new();
        let mut reference = LinearCeWorkspace::new();
        fused_linear_ce_into(&mut fused, &x, &w, &targets, DEFAULT_CHUNK_TOKENS).unwrap();
        reference_linear_ce_into(&mut reference, &x, &w, &targets).unwrap();
        assert!(lorafusion_tensor::ops::all_close(
            &fused.dx,
            &reference.dx,
            1e-6
        ));
        assert!((fused.mean_loss - reference.mean_loss).abs() < 1e-9);
        assert!(fused.peak_logits_elems < reference.peak_logits_elems);
    }
}
