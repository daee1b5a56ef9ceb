//! Numerically stable loss primitives with a fixed chunk-merge contract.
//!
//! These are the scalar/row building blocks of the chunked fused
//! linear+cross-entropy in `lorafusion-kernels::loss`: streaming per-row
//! max, per-row sum-of-exponentials, log-sum-exp, the `exp`-based softmax
//! gradient, and the per-token cross-entropy loss. Both the fused chunked
//! kernel and the unfused multi-pass reference call *these exact
//! functions*, so their per-element expression shapes are identical by
//! construction — the same discipline that makes the GEMM epilogues
//! bitwise-equal to the multi-pass compositions they replace.
//!
//! # The fixed chunk-merge contract
//!
//! Chunking the token dimension and blocking the vocab dimension must not
//! change a single output bit, for every chunk size and thread count. The
//! contract mirrors the GEMM engine's KC-parking rule: every reduction
//! order is a pure function of the *shape*, never of the blocking or the
//! thread count.
//!
//! * **Token chunks own whole rows.** A token's logits row lives entirely
//!   inside one chunk, so per-row reductions (max, sum-exp, LSE, loss)
//!   never merge across chunk boundaries — chunk size cannot appear in any
//!   reduction order.
//! * **Row max folds are grouping-free.** [`row_max`] is an ascending
//!   [`f32::max`] fold. For inputs without NaN, `max` is an exact
//!   *selection* (no rounding), so folding per vocab block and merging
//!   the block partials in ascending block order (the GEMM's row-max
//!   sink, [`crate::matmul::gemm`]) returns the same value as one linear
//!   scan. (The one theoretical exception is a
//!   row whose maximum is attained by both `+0.0` and `-0.0`, where IEEE
//!   leaves the returned zero's sign unspecified; the kernels' gates run
//!   on continuous random data where this has probability zero.)
//! * **Sum-of-exponentials is one ascending chain.** [`row_sum_exp`]
//!   accumulates `exp(x - max)` in a single ascending-index `f32` chain
//!   per row. It is never split across threads or blocks; parking the
//!   accumulator in an exact `f32` slot between row segments (as the
//!   chunked kernel does when it resumes a row) reorders nothing and
//!   rounds nothing.
//! * **One `exp`, no libm.** Every exponential here is the in-tree
//!   [`crate::simd::exp`]: Cody-Waite reduction plus the Cephes `expf`
//!   polynomial in plain multiply/add, within 1 ulp of the correctly
//!   rounded value, flushed to `+0` below the smallest normal result. It
//!   has one definition and two spellings (8-lane AVX2, also taken on the
//!   AVX-512 path, and a scalar twin)
//!   that agree bit for bit, so [`row_sum_exp`] and [`softmax_grad_row`]
//!   vectorize their exps in 64-element blocks without the spelling, the
//!   block boundaries, or `LORAFUSION_SIMD` reaching a result bit. The
//!   fused head and the unfused reference call the same row helpers, so
//!   they stay bitwise-equal at every chunk size.
//! * **Batch totals fold in ascending token order.** The mean loss is an
//!   ascending-token `f64` fold over per-token losses with one carried
//!   accumulator — independent of how tokens were chunked.
//!
//! The GEMM that produces each logits chunk is itself chunk-invariant:
//! the engine's per-element reduction is one ascending-`k` chain whose
//! order depends only on `k`, never on `m`, so the rows of a `[chunk x
//! vocab]` product are bit-for-bit the rows of the full `[tokens x
//! vocab]` product.

use crate::simd;

/// Maximum of a row, folded in ascending index order from
/// [`f32::NEG_INFINITY`] (the max of an empty row).
///
/// Applied to per-block partials in ascending block order, it merges
/// them: for NaN-free data this equals `row_max` over the concatenated
/// blocks, because `max` is an exact selection and grouping cannot change
/// the result.
#[inline]
pub fn row_max(xs: &[f32]) -> f32 {
    xs.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v))
}

/// Block length of the vectorized exponentials in [`row_sum_exp`] and of
/// the row segments the GEMM's softmax-grad pack hands to
/// [`softmax_grad_row`]: one stack buffer of exps per block.
pub(crate) const EXP_BLOCK: usize = 64;

/// Sum of `exp(x - max)` over a row, accumulated in one ascending-index
/// `f32` chain.
///
/// The exponentials are the in-tree [`crate::simd::exp`], computed 64 at
/// a time through the active SIMD spelling into a stack buffer; the sum
/// then folds them one by one, in index order, into the single carried
/// accumulator. Blocking only decides when each `exp` is computed, never
/// the order of the additions.
///
/// `max` must be the row's maximum so every exponent is `<= 0` and the
/// sum is in `[1, len]` — the classic stable log-sum-exp shift. An empty
/// row sums to `0.0`.
#[inline]
pub fn row_sum_exp(xs: &[f32], max: f32) -> f32 {
    let path = simd::active_path();
    let mut buf = [0.0f32; EXP_BLOCK];
    let mut acc = 0.0f32;
    for block in xs.chunks(EXP_BLOCK) {
        let e = &mut buf[..block.len()];
        simd::exp_shifted_on_path(path, block, max, e);
        for &v in e.iter() {
            acc += v;
        }
    }
    acc
}

/// Log-sum-exp from its two streaming reductions: `max + ln(sum_exp)`.
///
/// An empty row (`max == -inf`) stays `-inf` rather than producing
/// `-inf + NaN`.
#[inline]
pub fn log_sum_exp(max: f32, sum_exp: f32) -> f32 {
    if max == f32::NEG_INFINITY {
        f32::NEG_INFINITY
    } else {
        max + sum_exp.ln()
    }
}

/// Softmax-gradient of one logit under cross-entropy loss:
/// `scale * (exp(v - lse) - onehot)`.
///
/// `exp(v - lse)` *is* the softmax probability of `v` (the `exp`-based
/// spelling that never materializes the probability row), and subtracting
/// the one-hot target gives `dL/dlogit` for a `scale`-weighted loss. The
/// exponential is the scalar twin [`crate::simd::exp`]. This is the
/// per-element definition; the kernels evaluate it a row segment at a
/// time through [`softmax_grad_row`], which gives the same bits.
#[inline]
pub fn softmax_grad(v: f32, lse: f32, is_target: bool, scale: f32) -> f32 {
    let onehot = if is_target { 1.0 } else { 0.0 };
    scale * (simd::exp(v - lse) - onehot)
}

/// `dst[j] = alpha * softmax_grad(src[j], lse, j == target, scale)` over a
/// contiguous segment of one logits row, with the exponentials computed
/// by the `path` spelling of [`crate::simd::exp_shifted_on_path`].
/// `target` is the target column relative to the segment start, `None`
/// when the segment does not hold it; `dst` and `src` must have the same
/// length.
///
/// Bitwise-equal to the per-element definition: off the target column
/// `e - 0.0 == e` for every `e` an exponential can return, so the one-hot
/// subtraction is applied once, to the target column, instead of being
/// tested per element. Both the fused GEMM pack prologue and the unfused
/// reference dlogits pass call this function.
#[inline]
pub fn softmax_grad_row(
    path: simd::SimdPath,
    src: &[f32],
    lse: f32,
    target: Option<usize>,
    scale: f32,
    alpha: f32,
    dst: &mut [f32],
) {
    simd::exp_shifted_on_path(path, src, lse, dst);
    let target = target.and_then(|t| dst.get(t).map(|&e| (t, e)));
    for d in dst.iter_mut() {
        *d = alpha * (scale * *d);
    }
    if let Some((t, e)) = target {
        dst[t] = alpha * (scale * (e - 1.0));
    }
}

/// Cross-entropy loss of one token: `lse - target_logit`
/// (`-ln softmax(target)`).
#[inline]
pub fn ce_loss(target_logit: f32, lse: f32) -> f32 {
    lse - target_logit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn random_row(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Pcg32::seeded(seed);
        (0..len).map(|_| 4.0 * (rng.next_f32() - 0.5)).collect()
    }

    /// Blocked max folds must match the linear scan bit for bit, for every
    /// blocking of the row.
    #[test]
    fn blocked_max_matches_linear_scan() {
        for (len, seed) in [(1usize, 1u64), (7, 2), (64, 3), (257, 4), (1000, 5)] {
            let row = random_row(len, seed);
            let want = row_max(&row);
            for block in [1usize, 3, 16, 100, len] {
                let partials: Vec<f32> = row.chunks(block).map(row_max).collect();
                let got = row_max(&partials);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} block {block}");
            }
        }
    }

    /// Resuming the sum-exp chain from a parked `f32` accumulator must be
    /// bitwise-identical to the unbroken ascending chain — the KC-parking
    /// argument applied to the loss reduction.
    #[test]
    fn parked_sum_exp_matches_unbroken_chain() {
        for (len, seed) in [(5usize, 11u64), (64, 12), (333, 13)] {
            let row = random_row(len, seed);
            let max = row_max(&row);
            let want = row_sum_exp(&row, max);
            for block in [1usize, 7, 50, len] {
                // Park the accumulator between segments: store/load of an
                // f32 is exact, so the chain is unchanged.
                let mut parked = 0.0f32;
                for seg in row.chunks(block) {
                    let mut acc = parked;
                    for &v in seg {
                        acc += simd::exp(v - max);
                    }
                    parked = acc;
                }
                assert_eq!(parked.to_bits(), want.to_bits(), "len {len} block {block}");
            }
        }
    }

    /// The row-segment helper must reproduce the per-element definition
    /// bit for bit on every spelling, with the target column inside the
    /// segment, at its edges, or outside it, and with `alpha` folded in.
    #[test]
    fn softmax_grad_row_matches_per_element_definition() {
        let row = random_row(2 * EXP_BLOCK + 13, 31);
        let max = row_max(&row);
        let lse = log_sum_exp(max, row_sum_exp(&row, max));
        for &path in simd::supported_paths() {
            for (col0, len) in [(0usize, row.len()), (7, EXP_BLOCK), (100, 3)] {
                let seg = &row[col0..col0 + len];
                for target in [0usize, col0, col0 + len - 1, row.len() - 1] {
                    for (scale, alpha) in [(0.25f32, 1.0f32), (1.0 / 3.0, -1.5)] {
                        let mut got = vec![f32::NAN; len];
                        let rel = target.checked_sub(col0).filter(|&t| t < len);
                        softmax_grad_row(path, seg, lse, rel, scale, alpha, &mut got);
                        for (j, (&g, &v)) in got.iter().zip(seg).enumerate() {
                            let want = alpha * softmax_grad(v, lse, col0 + j == target, scale);
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{path:?} col {} target {target}",
                                col0 + j
                            );
                        }
                    }
                }
            }
        }
    }

    /// The `exp`-based gradient must equal the materialized
    /// softmax-minus-onehot spelling to tight tolerance, and the
    /// probabilities it implies must sum to 1.
    #[test]
    fn softmax_grad_matches_materialized_softmax() {
        let row = random_row(101, 21);
        let max = row_max(&row);
        let sum = row_sum_exp(&row, max);
        let lse = log_sum_exp(max, sum);
        let target = 13usize;
        let scale = 0.25f32;

        // Materialized softmax via the same shift (libm `exp`, so this
        // also checks the in-tree exponential against it).
        let probs: Vec<f32> = row.iter().map(|&v| (v - max).exp() / sum).collect();
        let psum: f32 = probs.iter().sum();
        assert!((psum - 1.0).abs() < 1e-5, "probs sum {psum}");

        for (j, (&v, &p)) in row.iter().zip(&probs).enumerate() {
            let grad = softmax_grad(v, lse, j == target, scale);
            let onehot = if j == target { 1.0 } else { 0.0 };
            let want = scale * (p - onehot);
            assert!(
                (grad - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "grad at {j}: {grad} vs {want}"
            );
        }
    }

    /// Degenerate rows: empty row stays -inf without NaN, a single-element
    /// row has loss 0 at its own target, and a uniform row's LSE is
    /// `v + ln(n)`.
    #[test]
    fn degenerate_rows() {
        assert_eq!(row_max(&[]), f32::NEG_INFINITY);
        assert_eq!(log_sum_exp(f32::NEG_INFINITY, 0.0), f32::NEG_INFINITY);

        let one = [2.5f32];
        let max = row_max(&one);
        let lse = log_sum_exp(max, row_sum_exp(&one, max));
        assert!((ce_loss(one[0], lse)).abs() < 1e-6);

        let uniform = [1.5f32; 8];
        let max = row_max(&uniform);
        let lse = log_sum_exp(max, row_sum_exp(&uniform, max));
        assert!((lse - (1.5 + (8.0f32).ln())).abs() < 1e-6);
    }

    /// Large-magnitude logits must not overflow: the shift keeps every
    /// exponent non-positive.
    #[test]
    fn large_logits_are_stable() {
        let row = [1.0e4f32, 9.9e3, 2.0e4];
        let max = row_max(&row);
        let sum = row_sum_exp(&row, max);
        assert!(sum.is_finite() && sum >= 1.0);
        let lse = log_sum_exp(max, sum);
        assert!(lse.is_finite());
        assert!(ce_loss(row[0], lse).is_finite());
    }
}
