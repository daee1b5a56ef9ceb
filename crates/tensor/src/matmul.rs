//! Matrix multiplication in the layouts LoRA needs, on the register-tiled
//! microkernel engine.
//!
//! The LoRA forward/backward graph uses three GEMM layouts:
//!
//! * `NN`: `C = A @ B` — forward projections (`X W`, `X̂ A`, `S B`);
//! * `NT`: `C = A @ Bᵀ` — input gradients (`dY Wᵀ`, `dS Aᵀ`, `dY Bᵀ`);
//! * `TN`: `C = Aᵀ @ B` — weight gradients (`X̂ᵀ dS`, `Sᵀ dY`).
//!
//! All three support fused prologues and epilogues: the `A` operand can be
//! transformed while it is packed (counter-based dropout, with optional
//! emission of the post-dropout operand for the backward pass), and each
//! completed register tile is stored through an [`Epilogue`] — overwrite,
//! accumulate, scale, or accumulate-through-a-dropout-mask. These are the
//! hooks the fused LoRA executors use to run a whole forward+backward step
//! with *no* standalone full-tensor elementwise passes, while remaining
//! bitwise-equal to the multi-pass compositions they replace.
//!
//! This module owns argument checking, the per-call trace span and
//! counters, and the public API, which is one checked entry plus thin
//! wrappers:
//!
//! * [`gemm`] — the slice-level entry with an explicit pool and
//!   microkernel spelling, every fusion hook, and an optional per-row
//!   maximum of the output (the loss head's row-max sink);
//! * [`gemm_fused`] — the same on [`Matrix`] operands with shape checks,
//!   the current pool and the active spelling;
//! * [`matmul_nn`], [`matmul_nt`], [`matmul_tn`] — a plain product as a new
//!   matrix.
//!
//! The compute path — pack-once operand panels, the `MR x NR`
//! register-tiled microkernel, and the 2D macro-tile grid that the worker
//! pool parallelizes over — lives in [`crate::microkernel`]. See that
//! module for the blocking scheme and the proof sketch of why results are
//! bitwise-identical at any thread count.

use crate::error::TensorError;
use crate::microkernel;
use crate::pool::{self, Pool};
use crate::simd::{self, SimdPath};
use crate::tensor::Matrix;
use crate::Result;

use lorafusion_trace::metrics::{counter, Counter, Histogram};
use lorafusion_trace::span::{span_guard, Cat, SpanGuard};

pub use crate::microkernel::{Epilogue, Layout, Prologue, SoftmaxGradSpec, KC, MC, MR, NC, NR};

/// FLOP classes labelling `gemm.calls{class=…}`: `small` below 2^24
/// FLOPs (rank-sized LoRA projections), `large` at or above 2^30 (the
/// base-weight GEMMs), `medium` between.
fn gemm_class(m: usize, k: usize, n: usize) -> &'static str {
    let flops = 2u128 * m as u128 * k as u128 * n as u128;
    if flops < 1 << 24 {
        "small"
    } else if flops < 1 << 30 {
        "medium"
    } else {
        "large"
    }
}

/// Opens the per-call GEMM span and bumps the registry metrics. One
/// `OnceLock` resolve plus a few relaxed atomic adds; the span guard is
/// inert when tracing is disabled.
fn gemm_trace(layout: Layout, m: usize, k: usize, n: usize) -> SpanGuard {
    static METRICS: std::sync::OnceLock<(Counter, Histogram, [Counter; 3])> =
        std::sync::OnceLock::new();
    let (calls, m_tokens, by_class) = METRICS.get_or_init(|| {
        let class = |v| lorafusion_trace::label::Scope::new(&[("class", v)]);
        (
            counter("gemm.calls"),
            lorafusion_trace::metrics::histogram("gemm.m.tokens"),
            [
                class("small").counter("gemm.calls"),
                class("medium").counter("gemm.calls"),
                class("large").counter("gemm.calls"),
            ],
        )
    });
    calls.incr();
    match gemm_class(m, k, n) {
        "small" => by_class[0].incr(),
        "medium" => by_class[1].incr(),
        _ => by_class[2].incr(),
    }
    m_tokens.record(m as u64);
    let name = match layout {
        Layout::Nn => "gemm.nn",
        Layout::Nt => "gemm.nt",
        Layout::Tn => "gemm.tn",
    };
    span_guard(
        name,
        Cat::Work,
        &[("m", m as u64), ("k", k as u64), ("n", n as u64)],
    )
}

/// Bumps the per-path dispatch counters so traces show which microkernel
/// spelling actually ran: `gemm.simd_dispatch.avx512` for the paired-strip
/// AVX-512 kernel, `gemm.simd_dispatch.avx2` for the AVX2 kernel,
/// `gemm.simd_dispatch.fallback` for either scalar twin.
fn count_dispatch(path: SimdPath) {
    static METRICS: std::sync::OnceLock<[Counter; 3]> = std::sync::OnceLock::new();
    let [avx512, avx2, fallback] = METRICS.get_or_init(|| {
        [
            counter("gemm.simd_dispatch.avx512"),
            counter("gemm.simd_dispatch.avx2"),
            counter("gemm.simd_dispatch.fallback"),
        ]
    });
    match path {
        SimdPath::Avx512 => avx512.incr(),
        SimdPath::Avx2Fma => avx2.incr(),
        SimdPath::ScalarFma | SimdPath::Scalar => fallback.incr(),
    }
}

/// Validates the fusion hooks of a GEMM call: dropout probabilities in
/// range, the emit buffer exactly as long as the `A` operand, and the
/// softmax-grad prologue alone on a row-major `A` (no dropout, no emit,
/// not `Layout::Tn`) with its tables sized to the `m x k` operand.
fn check_fusion(
    layout: Layout,
    prologue: &Prologue<'_>,
    epilogue: &Epilogue,
    a_len: usize,
    m: usize,
    k: usize,
) -> Result<()> {
    if let Some(spec) = &prologue.dropout {
        spec.validate()?;
    }
    if let Epilogue::AddMasked(spec) = epilogue {
        spec.validate()?;
    }
    if let Some(emit) = &prologue.emit {
        if emit.len() != a_len {
            return Err(TensorError::LengthMismatch {
                expected: a_len,
                actual: emit.len(),
            });
        }
    }
    if let Some(sg) = &prologue.softmax_grad {
        if prologue.dropout.is_some() {
            return Err(TensorError::InvalidParameter {
                name: "softmax_grad",
                reason: "softmax-grad and dropout prologues are mutually exclusive",
            });
        }
        if prologue.emit.is_some() {
            return Err(TensorError::InvalidParameter {
                name: "softmax_grad",
                reason: "the softmax-grad prologue does not emit its operand",
            });
        }
        if layout == Layout::Tn {
            return Err(TensorError::InvalidParameter {
                name: "softmax_grad",
                reason: "the softmax-grad prologue needs a row-major A (Layout::Nn or Layout::Nt)",
            });
        }
        if sg.lse.len() != m {
            return Err(TensorError::LengthMismatch {
                expected: m,
                actual: sg.lse.len(),
            });
        }
        if sg.targets.len() != m {
            return Err(TensorError::LengthMismatch {
                expected: m,
                actual: sg.targets.len(),
            });
        }
        if sg.targets.iter().any(|&t| t as usize >= k) {
            return Err(TensorError::InvalidParameter {
                name: "softmax_grad.targets",
                reason: "target class index out of vocabulary range",
            });
        }
    }
    Ok(())
}

/// Computes one fused GEMM `C = epilogue(alpha * prologue(A)' @ B')` over
/// row-major slices on `pool` with the microkernel spelling `path`: the
/// one checked GEMM entry, which every other call in the workspace goes
/// through.
///
/// `(m, k, n)` is the product shape: `a` holds the `m x k` operand
/// (`k x m` under [`Layout::Tn`]), `b` the `k x n` one (`n x k` under
/// [`Layout::Nt`]) and `c` the `m x n` output. The slices may be row
/// windows of larger row-major tensors (`&x[start * k..end * k]`): a row
/// window is contiguous, and a `DropoutSpec::row_offset` in the prologue
/// or epilogue keeps the realized mask identical to the whole-batch one,
/// which is how the multi-LoRA executor and the chunked loss head run
/// per-segment and per-chunk GEMMs without copies. `prologue.emit`, when
/// present, must have exactly `a.len()` elements and receives the
/// post-dropout `A` operand in the source's own layout.
///
/// `row_max`, when present, must have one slot per output row and
/// receives the maximum of each row as stored, folded while each tile is
/// register-hot — the streaming-max hook of the chunked fused
/// linear+cross-entropy, whose LSE pass then reads each logits row once
/// instead of twice. For NaN-free data it is bitwise the linear scan
/// [`crate::loss::row_max`] at every thread count; a row with no columns
/// gets `-inf`.
///
/// `path` must be supported on this host ([`SimdPath::is_supported`]).
/// Production callers pass [`simd::active_path`]; tests and the dual-path
/// bench gate pass each [`simd::supported_paths`] spelling to run them
/// all in one process, where flipping the `LORAFUSION_SIMD` env var is
/// unreliable.
///
/// A slice whose length disagrees with `(m, k, n)` is a
/// [`TensorError::LengthMismatch`], as are mis-sized fusion tables; an
/// invalid dropout probability or softmax-grad combination is a
/// [`TensorError::InvalidParameter`].
#[allow(clippy::too_many_arguments)] // the full fused-GEMM surface
pub fn gemm(
    pool: &Pool,
    path: SimdPath,
    layout: Layout,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    prologue: Prologue<'_>,
    epilogue: Epilogue,
    row_max: Option<&mut [f32]>,
) -> Result<()> {
    for (len, want) in [
        (a.len(), m * k),
        (b.len(), k * n),
        (c.len(), m * n),
        (row_max.as_ref().map_or(m, |r| r.len()), m),
    ] {
        if len != want {
            return Err(TensorError::LengthMismatch {
                expected: want,
                actual: len,
            });
        }
    }
    check_fusion(layout, &prologue, &epilogue, a.len(), m, k)?;
    let _span = gemm_trace(layout, m, k, n);
    count_dispatch(path);
    microkernel::gemm(
        pool, path, layout, alpha, a, b, c, m, k, n, prologue, epilogue, row_max,
    );
    Ok(())
}

/// [`gemm`] on matrix operands, on the current pool and the active SIMD
/// spelling, without a row-max output.
///
/// Shapes are checked per `layout`: a reduction dimension that `a` and `b`
/// disagree on is a [`TensorError::ShapeMismatch`] named `gemm_nn`,
/// `gemm_nt` or `gemm_tn`, and a `c` of the wrong shape one named
/// `gemm_nn_out`, `gemm_nt_out` or `gemm_tn_out`.
pub fn gemm_fused(
    layout: Layout,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    prologue: Prologue<'_>,
    epilogue: Epilogue,
) -> Result<()> {
    let (op, out_op, (m, k), (kb, n)) = match layout {
        Layout::Nn => ("gemm_nn", "gemm_nn_out", a.shape(), b.shape()),
        Layout::Nt => ("gemm_nt", "gemm_nt_out", a.shape(), (b.cols(), b.rows())),
        Layout::Tn => ("gemm_tn", "gemm_tn_out", (a.cols(), a.rows()), b.shape()),
    };
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.shape() != (m, n) {
        return Err(TensorError::ShapeMismatch {
            op: out_op,
            lhs: (m, n),
            rhs: c.shape(),
        });
    }
    gemm(
        pool::current(),
        simd::active_path(),
        layout,
        alpha,
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
        (m, k, n),
        prologue,
        epilogue,
        None,
    )
}

/// Returns the `rows x cols` product `A' @ B'` under `layout` as a new
/// matrix.
fn matmul(layout: Layout, a: &Matrix, b: &Matrix, rows: usize, cols: usize) -> Result<Matrix> {
    let mut c = Matrix::zeros(rows, cols);
    gemm_fused(
        layout,
        1.0,
        a,
        b,
        &mut c,
        Prologue::none(),
        Epilogue::Overwrite,
    )?;
    Ok(c)
}

/// Returns `A @ B` as a new matrix.
pub fn matmul_nn(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul(Layout::Nn, a, b, a.rows(), b.cols())
}

/// Returns `A @ Bᵀ` as a new matrix.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul(Layout::Nt, a, b, a.rows(), b.rows())
}

/// Returns `Aᵀ @ B` as a new matrix.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul(Layout::Tn, a, b, a.cols(), b.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::rng::Pcg32;

    /// Reference triple-loop matmul for cross-checking the blocked kernels.
    fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk).unwrap() * b.get(kk, j).unwrap();
                }
                c.set(i, j, acc).unwrap();
            }
        }
        c
    }

    fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn nn_matches_naive() {
        let mut rng = Pcg32::seeded(17);
        let a = Matrix::random_uniform(33, 65, 1.0, &mut rng);
        let b = Matrix::random_uniform(65, 19, 1.0, &mut rng);
        assert!(close(&matmul_nn(&a, &b).unwrap(), &naive_nn(&a, &b), 1e-4));
    }

    #[test]
    fn nt_matches_nn_with_explicit_transpose() {
        let mut rng = Pcg32::seeded(18);
        let a = Matrix::random_uniform(20, 30, 1.0, &mut rng);
        let b = Matrix::random_uniform(25, 30, 1.0, &mut rng);
        let via_t = matmul_nn(&a, &b.transpose()).unwrap();
        assert!(close(&matmul_nt(&a, &b).unwrap(), &via_t, 1e-4));
    }

    #[test]
    fn tn_matches_nn_with_explicit_transpose() {
        let mut rng = Pcg32::seeded(19);
        let a = Matrix::random_uniform(30, 20, 1.0, &mut rng);
        let b = Matrix::random_uniform(30, 25, 1.0, &mut rng);
        let via_t = matmul_nn(&a.transpose(), &b).unwrap();
        assert!(close(&matmul_tn(&a, &b).unwrap(), &via_t, 1e-4));
    }

    #[test]
    fn accumulate_adds_into_output() {
        let mut rng = Pcg32::seeded(20);
        let a = Matrix::random_uniform(8, 8, 1.0, &mut rng);
        let b = Matrix::random_uniform(8, 8, 1.0, &mut rng);
        let base = Matrix::full(8, 8, 3.0);
        let mut c = base.clone();
        gemm_fused(
            Layout::Nn,
            2.0,
            &a,
            &b,
            &mut c,
            Prologue::none(),
            Epilogue::Add,
        )
        .unwrap();
        let prod = matmul_nn(&a, &b).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let expect = 3.0 + 2.0 * prod.get(i, j).unwrap();
                assert!((c.get(i, j).unwrap() - expect).abs() < 1e-4);
            }
        }
    }

    /// Regression for the folded zeroing: `Epilogue::Overwrite` must
    /// fully replace stale output contents — including NaN, which an
    /// accidental `+=` would smear into every element.
    #[test]
    fn overwrite_replaces_poisoned_output() {
        let mut rng = Pcg32::seeded(27);
        for &(m, k, n) in &[(5, 7, 9), (1, 0, 4), (MR + 1, KC + 1, NR + 1)] {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let fresh = matmul_nn(&a, &b).unwrap();
            let mut poisoned = Matrix::full(m, n, f32::NAN);
            gemm_fused(
                Layout::Nn,
                1.0,
                &a,
                &b,
                &mut poisoned,
                Prologue::none(),
                Epilogue::Overwrite,
            )
            .unwrap();
            assert!(bitwise_eq(&fresh, &poisoned), "{m}x{k}x{n}");
        }
    }

    /// Matrix operands report the mismatched layout or output by name;
    /// slices and the row-max output report the length they should have.
    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            matmul_nn(&a, &b),
            Err(TensorError::ShapeMismatch { op: "gemm_nn", .. })
        ));
        let mut c = Matrix::zeros(3, 2);
        assert!(matches!(
            gemm_fused(
                Layout::Nt,
                1.0,
                &a,
                &b.transpose(),
                &mut c,
                Prologue::none(),
                Epilogue::Overwrite
            ),
            Err(TensorError::ShapeMismatch { op: "gemm_nt", .. })
        ));
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            gemm_fused(
                Layout::Nn,
                1.0,
                &a,
                &b,
                &mut c,
                Prologue::none(),
                Epilogue::Overwrite
            ),
            Err(TensorError::ShapeMismatch {
                op: "gemm_nn_out",
                ..
            })
        ));

        let pool = Pool::new(1);
        let mut out = vec![0.0f32; 4];
        let mut maxes = vec![0.0f32; 1];
        let slices = |c: &mut [f32], row_max: Option<&mut [f32]>| {
            gemm(
                &pool,
                simd::active_path(),
                Layout::Nn,
                1.0,
                a.as_slice(),
                b.as_slice(),
                c,
                (2, 3, 2),
                Prologue::none(),
                Epilogue::Overwrite,
                row_max,
            )
        };
        assert!(slices(&mut out, None).is_ok());
        assert!(matches!(
            slices(&mut out[..3], None),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
        assert!(matches!(
            slices(&mut out, Some(&mut maxes)),
            Err(TensorError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Pcg32::seeded(21);
        let a = Matrix::random_uniform(16, 16, 1.0, &mut rng);
        let mut eye = Matrix::zeros(16, 16);
        for i in 0..16 {
            eye.set(i, i, 1.0).unwrap();
        }
        assert!(close(&matmul_nn(&a, &eye).unwrap(), &a, 1e-6));
        assert!(close(&matmul_nn(&eye, &a).unwrap(), &a, 1e-6));
    }

    /// Regression for the removed `if aik == 0.0 { continue; }` fast path:
    /// `0.0 * NaN` must produce `NaN` in the output, and `0.0 * inf` must
    /// produce `NaN` as well — the skip silently dropped both.
    #[test]
    fn non_finite_values_propagate_through_zero_rows() {
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 1, 1.0).unwrap();
        let mut b = Matrix::zeros(3, 2);
        b.set(0, 0, f32::NAN).unwrap();
        b.set(2, 1, f32::INFINITY).unwrap();
        // Row 0 of A is [0, 1, 0]: kk=0 contributes 0*NaN = NaN, kk=2
        // contributes 0*inf = NaN.
        let c = matmul_nn(&a, &b).unwrap();
        assert!(c.get(0, 0).unwrap().is_nan());
        assert!(c.get(0, 1).unwrap().is_nan());
        // Row 1 of A is all zeros: 0*NaN is still NaN.
        assert!(c.get(1, 0).unwrap().is_nan());

        let c = matmul_tn(&a.transpose(), &b).unwrap();
        assert!(c.get(0, 0).unwrap().is_nan());
        assert!(c.get(0, 1).unwrap().is_nan());
    }

    /// The row-max sink must reproduce a linear scan of each output row,
    /// bit for bit, at every thread count and for non-block-multiple
    /// shapes; a row with no columns gets `-inf`.
    #[test]
    fn rowmax_sink_matches_linear_scan() {
        let shapes = [
            (5usize, 9usize, 17usize),
            (65, 33, NC + 13),
            (1, 4, 2 * NC),
            (3, 4, 0),
        ];
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for (seed, &(m, k, n)) in shapes.iter().enumerate() {
                let mut rng = Pcg32::seeded(300 + seed as u64);
                let a = Matrix::random_gaussian(m, k, 1.0, &mut rng);
                let b = Matrix::random_gaussian(k, n, 1.0, &mut rng);
                let mut c = vec![0.0f32; m * n];
                let mut maxes = vec![f32::NAN; m];
                gemm(
                    &pool,
                    simd::active_path(),
                    Layout::Nn,
                    1.0,
                    a.as_slice(),
                    b.as_slice(),
                    &mut c,
                    (m, k, n),
                    Prologue::none(),
                    Epilogue::Overwrite,
                    Some(&mut maxes),
                )
                .unwrap();
                for i in 0..m {
                    let want = crate::loss::row_max(&c[i * n..(i + 1) * n]);
                    assert_eq!(
                        maxes[i].to_bits(),
                        want.to_bits(),
                        "{m}x{k}x{n} row {i} t={threads}"
                    );
                }
            }
        }
    }

    /// The softmax-grad prologue must pack exactly what the per-element
    /// definition computes on the materialized operand, in both row-major
    /// layouts (`NN`, and `NT` as the loss head runs it), across partial
    /// row blocks and an edge strip, on every supported SIMD spelling, at
    /// 1 and 3 threads.
    #[test]
    fn softmax_grad_prologue_matches_materialized_transform() {
        let (m, v, h) = (MR + 3, crate::loss::EXP_BLOCK + 37, 11);
        let mut rng = Pcg32::seeded(91);
        let logits = Matrix::random_gaussian(m, v, 1.0, &mut rng);
        let w = Matrix::random_gaussian(v, h, 1.0, &mut rng);
        let w_t = w.transpose();
        let lse: Vec<f32> = (0..m)
            .map(|i| {
                let row = &logits.as_slice()[i * v..(i + 1) * v];
                let mx = crate::loss::row_max(row);
                crate::loss::log_sum_exp(mx, crate::loss::row_sum_exp(row, mx))
            })
            .collect();
        let targets: Vec<u32> = (0..m).map(|i| ((i * 29) % v) as u32).collect();
        let scale = 0.125f32;

        // Materialized dlogits through the per-element definition.
        let mut dlogits = Matrix::zeros(m, v);
        for i in 0..m {
            for j in 0..v {
                let g = crate::loss::softmax_grad(
                    logits.get(i, j).unwrap(),
                    lse[i],
                    targets[i] as usize == j,
                    scale,
                );
                dlogits.set(i, j, g).unwrap();
            }
        }
        let want = matmul_nn(&dlogits, &w).unwrap();

        let spec = SoftmaxGradSpec {
            lse: &lse,
            targets: &targets,
            scale,
        };
        for threads in [1usize, 3] {
            let pool = Pool::new(threads);
            for &path in simd::supported_paths() {
                for (layout, b) in [(Layout::Nn, &w), (Layout::Nt, &w_t)] {
                    let mut got = Matrix::zeros(m, h);
                    gemm(
                        &pool,
                        path,
                        layout,
                        1.0,
                        logits.as_slice(),
                        b.as_slice(),
                        got.as_mut_slice(),
                        (m, v, h),
                        Prologue::softmax_grad(spec),
                        Epilogue::Overwrite,
                        None,
                    )
                    .unwrap();
                    assert!(bitwise_eq(&want, &got), "{path:?} {layout:?} t={threads}");
                }
            }
        }
    }

    /// Softmax-grad validation: wrong table lengths, out-of-range targets,
    /// combination with dropout or emit, and the transposed (`TN`) gather
    /// must all be rejected with a typed error.
    #[test]
    fn softmax_grad_validation_rejects_bad_specs() {
        let m = 4;
        let v = 8;
        let mut rng = Pcg32::seeded(92);
        let logits = Matrix::random_gaussian(m, v, 1.0, &mut rng);
        let w = Matrix::random_gaussian(v, 3, 1.0, &mut rng);
        let mut c = Matrix::zeros(m, 3);
        let lse = vec![0.0f32; m];
        let targets = vec![0u32; m];
        let spec = SoftmaxGradSpec {
            lse: &lse,
            targets: &targets,
            scale: 1.0,
        };
        let invalid = |r: Result<()>| {
            matches!(
                r,
                Err(TensorError::InvalidParameter { .. } | TensorError::LengthMismatch { .. })
            )
        };

        let short_lse = vec![0.0f32; m - 1];
        let bad = Prologue::softmax_grad(SoftmaxGradSpec {
            lse: &short_lse,
            ..spec
        });
        assert!(invalid(gemm_fused(
            Layout::Nn,
            1.0,
            &logits,
            &w,
            &mut c,
            bad,
            Epilogue::Overwrite
        )));

        let oob = vec![v as u32; m];
        let bad = Prologue::softmax_grad(SoftmaxGradSpec {
            targets: &oob,
            ..spec
        });
        assert!(invalid(gemm_fused(
            Layout::Nn,
            1.0,
            &logits,
            &w,
            &mut c,
            bad,
            Epilogue::Overwrite
        )));

        let both = Prologue {
            dropout: Some(crate::dropout::DropoutSpec::new(0.5, 1)),
            ..Prologue::softmax_grad(spec)
        };
        assert!(invalid(gemm_fused(
            Layout::Nn,
            1.0,
            &logits,
            &w,
            &mut c,
            both,
            Epilogue::Overwrite
        )));

        let mut emitted = vec![0.0f32; m * v];
        let emit = Prologue {
            emit: Some(&mut emitted),
            ..Prologue::softmax_grad(spec)
        };
        assert!(matches!(
            gemm_fused(
                Layout::Nn,
                1.0,
                &logits,
                &w,
                &mut c,
                emit,
                Epilogue::Overwrite
            ),
            Err(TensorError::InvalidParameter { .. })
        ));

        // The transposed gather: logitsᵀ through `TN` is rejected, where
        // it used to pack the same product.
        let logits_t = logits.transpose();
        assert!(matches!(
            gemm_fused(
                Layout::Tn,
                1.0,
                &logits_t,
                &w,
                &mut c,
                Prologue::softmax_grad(spec),
                Epilogue::Overwrite
            ),
            Err(TensorError::InvalidParameter { .. })
        ));
    }
}
