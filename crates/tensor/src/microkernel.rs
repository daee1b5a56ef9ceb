//! Register-tiled GEMM engine: pack-once operands, an `MR x NR`
//! microkernel, fused pack-prologue / store-epilogue hooks, and 2D
//! macro-tile parallelism.
//!
//! Every GEMM layout (`NN`, `NT`, `TN`) lowers onto one compute path:
//!
//! 1. **Pack once.** `A` (with `alpha` folded in) is packed into row strips
//!    of [`MR`] rows and `B` into column strips of [`NR`] columns, both in
//!    k-major order, so the microkernel's inner loop reads two contiguous
//!    streams. Packing happens a single time per call — in parallel, one
//!    strip range per pool task — and the packed panels are then shared
//!    read-only by every compute task. The transpose layouts differ *only*
//!    in their packing gather; the compute loop is layout-oblivious.
//!    A [`Prologue`] can transform `A` while it is being gathered:
//!    counter-based dropout is applied per element (the keep/drop decision
//!    is a pure function of `(seed, row, col)`, so *where* it is evaluated
//!    cannot change the result), and the post-dropout operand can be
//!    emitted to a second destination — this is how the fused LoRA forward
//!    produces `X̂` for the backward pass without a separate mask +
//!    hadamard sweep.
//! 2. **Microkernel.** An `MR x NR` accumulator tile is accumulated in
//!    registers in strictly ascending `kk` order, one [`KC`]-length block
//!    of the reduction per invocation; between blocks the tile parks in an
//!    exact `f32` stack buffer (see [`KC`] for why this cannot change a
//!    bit). The kernel has four spellings selected by [`SimdPath`]: an
//!    explicit AVX-512 kernel that runs two adjacent `B` strips as one
//!    `MR x 2·NR` tile and an explicit AVX2+FMA kernel (both confined to
//!    `crate::simd`), a scalar `mul_add` twin that matches them bit for
//!    bit — three spellings of one rounding behaviour — and the historical
//!    auto-vectorized mul-then-add kernel for non-FMA hosts. One
//!    invocation owns its output tiles exclusively. When a tile is
//!    complete it is stored exactly once, through an [`Epilogue`] applied
//!    while the values are still in registers: overwrite, accumulate,
//!    scale-by-alpha, or accumulate-through-a-dropout-mask. This is what
//!    lets the LoRA executors drop their standalone `scale` / `hadamard` /
//!    `add` full-tensor passes. The store can also fold each stored row's
//!    maximum into per-column-block partials, which `gemm` merges into a
//!    per-row maximum: the row-max sink of the chunked loss head.
//! 3. **2D macro-tiles.** Parallelism is over an `(i-block, j-block)` grid
//!    of [`MC`]` x `[`NC`] output tiles rather than row ranges, so skinny
//!    LoRA shapes (`m x k x r` and `r x k x n` with rank `r` in 16..=64,
//!    and 16-row `TN` weight-gradient GEMMs) still expose enough tasks to
//!    occupy the pool: a shape with one usable row block still has
//!    `ceil(n / NC)` independent column blocks, and vice versa.
//!
//! # Determinism
//!
//! Results are bitwise-identical at every thread count by construction:
//!
//! * every output element is owned by exactly one macro-tile task and,
//!   inside it, by exactly one microkernel invocation;
//! * the reduction order per element is a single ascending-`kk` chain over
//!   the full `k` extent — a pure function of the shape, never of the
//!   thread count or of which thread ran the tile. The chain is *executed*
//!   in [`KC`]-length blocks with the accumulator tile parked in an exact
//!   `f32` buffer between blocks, which reorders nothing and rounds
//!   nothing — the engine stays bitwise-equal to a naive ascending-`k`
//!   loop at *every* `k`, which the fuzz suite asserts;
//! * packing only copies values, multiplies by `alpha`, multiplies by
//!   the deterministic dropout mask value, or applies the softmax-grad
//!   transform (a pure function of the element, its row's `lse`/target
//!   and its column), so where it runs cannot perturb a bit, and
//!   zero padding in edge strips is written explicitly but only ever
//!   multiplies into padded accumulator lanes that are never stored;
//! * epilogues are applied per element exactly once, in the same
//!   expression shape as the multi-pass composition they replace
//!   (`c + alpha * p`, `c + p * mask`), so the fused result is
//!   bitwise-equal to the unfused one.
//!
//! `Epilogue::Overwrite` writes the tile with `=` instead of `+=`, which
//! removes the separate zeroing sweep over `C` — one full write pass saved
//! per call.

use crate::arena::Scratch;
use crate::dropout::DropoutSpec;
use crate::loss::EXP_BLOCK;
use crate::pool::{self, Pool};
use crate::simd::{self, SimdPath};

/// Microkernel tile rows: rows of `C` accumulated per invocation.
///
/// `MR x NR = 6 x 16` is the FMA-bound register shape for AVX2: 12
/// accumulator vectors (6 rows x two 8-lane columns) plus two `B` vectors
/// and one broadcast fill 15 of the 16 ymm registers, and each `kk` step
/// issues 12 fused multiply-adds against only 8 load-port uops (6
/// broadcasts + 2 `B` loads) — the FMA ports saturate before the load
/// ports do. The earlier 8x8 shape was the opposite (9 load uops per 8
/// FMAs, load-port-bound at ~89% of FMA peak); 8x16 and 12x8 spill
/// registers and collapse entirely. The AVX-512 spelling keeps the same
/// ratio at twice the width by pairing two `NR` strips: 6 rows x two
/// 16-lane columns is again 12 accumulators, 2 `B` loads and 6
/// broadcasts per step.
pub const MR: usize = 6;
/// Microkernel tile columns: the packed `B` strip width — two 8-lane AVX2
/// vectors per row, exactly one 16-lane AVX-512 vector (the AVX-512
/// spelling reads two strips side by side), and two auto-vectorized
/// lanes-of-8 in the scalar spellings.
pub const NR: usize = 16;
/// Cache-blocking length of the `k` loop inside a macro-tile. The AVX-512
/// spelling streams one `KC x MR` `A` window (6 KiB) against a pair of
/// `KC x NR` `B` windows (2 x 16 KiB) per invocation — 38 KiB, under a
/// 48 KiB L1d — and the AVX2 and scalar spellings stream half the `B`
/// bytes. At `KC = 512` the pair alone (64 KiB) would spill L1. One
/// `i`/`j` sweep's working set — the `A` block, the `B` block, and the
/// macro-tile's accumulator buffer — stays L2-resident instead of
/// streaming full-`k` strips per tile. `KC` is
/// *not* part of the numeric contract: the accumulator tile round-trips
/// through an `f32` buffer between blocks, and an `f32` store/load is
/// exact, so the per-element reduction is still one ascending-`k` chain
/// regardless of `k` — bitwise-equal to the unblocked loop at every `k`,
/// which the fuzz suite asserts.
pub const KC: usize = 256;
/// Macro-tile rows (`i`-block). Must be a multiple of [`MR`] so packed row
/// strips never straddle two macro-tiles.
pub const MC: usize = 120;
/// Macro-tile columns (`j`-block). Must be a multiple of [`NR`].
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Transpose layout of a GEMM call; selects the packing gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `C = A @ B` — `A` is `m x k`, `B` is `k x n`.
    Nn,
    /// `C = A @ Bᵀ` — `A` is `m x k`, `B` is `n x k`.
    Nt,
    /// `C = Aᵀ @ B` — `A` is `k x m`, `B` is `k x n`.
    Tn,
}

impl Layout {
    /// Lower-case tag used by benches and result files.
    pub fn tag(self) -> &'static str {
        match self {
            Layout::Nn => "nn",
            Layout::Nt => "nt",
            Layout::Tn => "tn",
        }
    }
}

/// Store-epilogue applied to each completed accumulator tile, while it is
/// still in registers. `P` below is the packed-alpha product
/// `(alpha * A') @ B'`.
///
/// Each variant is the register-resident equivalent of a multi-pass
/// composition, with the identical per-element expression shape, so fused
/// and unfused results are bitwise-equal:
///
/// | variant            | computes              | replaces                              |
/// |--------------------|-----------------------|---------------------------------------|
/// | `Overwrite`        | `C = P`               | `matmul(...)`                         |
/// | `Add`              | `C += P`              | `add(C, matmul(...))`                 |
/// | `Scaled(s)`        | `C = s * P`           | `scale(s, matmul(...))`               |
/// | `AddScaled(s)`     | `C += s * P`          | `add(C, scale(s, matmul(...)))`       |
/// | `AddMasked(spec)`  | `C += P * mask(i, j)` | `add(C, hadamard(matmul(...), mask))` |
///
/// `AddMasked` regenerates the counter-based dropout mask value analytically
/// from `(seed, row, col)` — the mask matrix itself is never materialized.
/// The multiply by `0.0` for dropped elements is kept (rather than a skip)
/// so non-finite values propagate exactly as `hadamard` would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue {
    /// `C = P`.
    Overwrite,
    /// `C += P`.
    Add,
    /// `C = s * P`.
    Scaled(f32),
    /// `C += s * P`.
    AddScaled(f32),
    /// `C += P * mask(i, j)` with the mask value from `spec` at the
    /// output's logical coordinates (`spec.row_offset` shifts rows, so a
    /// row-window GEMM reproduces the whole-batch mask).
    AddMasked(DropoutSpec),
}

/// Softmax-gradient pack transform: replaces each element `v` at
/// `(row, col)` of a row-major `A` with
/// `scale * (exp(v - lse[row]) - onehot(col == targets[row]))` while the
/// panel is gathered (see [`crate::loss::softmax_grad`]).
///
/// This is the dlogits producer of the chunked fused linear+cross-entropy:
/// the backward GEMM packs the *logits* chunk through this transform, so
/// the `[chunk x vocab]` gradient matrix is never materialized. The
/// transform is a pure function of `(v, row, col)` and the per-row `lse`
/// / `targets` tables, so *where* it is evaluated (which strip, which
/// thread, which row segment) cannot change a bit.
#[derive(Clone, Copy)]
pub struct SoftmaxGradSpec<'a> {
    /// Per-logical-row log-sum-exp of the `A` operand; length `m`.
    pub lse: &'a [f32],
    /// Per-logical-row target class index; length `m`, each `< k`.
    pub targets: &'a [u32],
    /// Loss scale folded into the gradient (for mean reduction,
    /// `1 / total_tokens`).
    pub scale: f32,
}

/// Pack-prologue applied to the `A` operand while its panels are gathered.
///
/// * `dropout` multiplies each element by its counter-based mask value
///   (`spec.scale()` or `0.0`) in the *source* matrix's coordinates, so the
///   packed operand is bitwise-identical to `hadamard(A, mask)` without a
///   mask matrix or an extra pass.
/// * `softmax_grad` rewrites a row-major `A` (`Layout::Nn`/`Layout::Nt`)
///   through [`crate::loss::softmax_grad_row`], one row segment at a time,
///   turning a logits operand into its cross-entropy gradient in-flight.
///   It cannot be combined with `dropout`, `emit` or `Layout::Tn`
///   (`matmul::check_fusion` rejects those).
/// * `emit` additionally writes the post-transform (pre-`alpha`) operand
///   to a buffer with the same layout and length as the `A` source. This
///   is how the fused LoRA forward saves `X̂` for the backward pass during
///   the K1 pack. Strips write disjoint regions, so parallel packing stays
///   safe and deterministic.
#[derive(Default)]
pub struct Prologue<'a> {
    /// Counter-based dropout applied to `A` during packing.
    pub dropout: Option<DropoutSpec>,
    /// Softmax-gradient transform applied to `A` during packing.
    pub softmax_grad: Option<SoftmaxGradSpec<'a>>,
    /// Second destination receiving the post-transform `A` operand; must
    /// have exactly the length of the `A` source slice.
    pub emit: Option<&'a mut [f32]>,
}

impl<'a> Prologue<'a> {
    /// The empty prologue: pack `A` unchanged.
    pub fn none() -> Self {
        Self::default()
    }

    /// Dropout-only prologue.
    pub fn dropout(spec: DropoutSpec) -> Self {
        Self {
            dropout: Some(spec),
            softmax_grad: None,
            emit: None,
        }
    }

    /// Softmax-gradient-only prologue.
    pub fn softmax_grad(spec: SoftmaxGradSpec<'a>) -> Self {
        Self {
            dropout: None,
            softmax_grad: Some(spec),
            emit: None,
        }
    }
}

/// Raw base pointer for handing disjoint tile regions to pool tasks.
struct SendPtr(*mut f32);
// SAFETY: tasks write only the `MR x NR`-aligned tile regions assigned by
// the row-band partition, and the output allocation outlives the scope.
unsafe impl Send for SendPtr {}
// SAFETY: shared references only hand out the raw pointer; tile regions
// handed to different tasks are disjoint, so no data race is possible.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than a public field) so closures capture the whole
    /// `Sync` wrapper instead of disjointly capturing the raw pointer.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Packing
//
// Packed `A`: strip `s` holds logical rows `s*MR .. s*MR+MR` at offset
// `s*k*MR`, element `(kk, r)` at `kk*MR + r` within the strip. Packed `B`:
// strip `t` holds logical columns `t*NR .. t*NR+NR` at offset `t*k*NR`,
// element `(kk, c)` at `kk*NR + c`. Rows/columns beyond the edge are
// explicit zeros (scratch buffers are reused, so stale bytes must never
// survive packing).
// ---------------------------------------------------------------------------

/// Per-strip view of the dropout/emit prologue, capturable by `Sync` pack
/// closures.
#[derive(Clone, Copy)]
struct PackFusion {
    dropout: Option<DropoutSpec>,
    emit: Option<*const SendPtr>,
}

impl PackFusion {
    #[cfg(test)]
    const NONE: PackFusion = PackFusion {
        dropout: None,
        emit: None,
    };

    #[inline]
    fn emit_ptr(&self) -> Option<*mut f32> {
        // SAFETY: the pointee `SendPtr` outlives the packing job (it is a
        // local in `gemm`, which blocks until packing completes).
        self.emit.map(|p| unsafe { (*p).get() })
    }
}

// SAFETY: `emit` points at a `SendPtr` owned by the submitting `gemm` call,
// which outlives the packing job; the target regions written through it are
// pairwise disjoint per strip.
unsafe impl Send for PackFusion {}
// SAFETY: same argument as `Send` above — shared references only read the
// configuration fields; all writes through `emit` target disjoint strips.
unsafe impl Sync for PackFusion {}

/// Packs one `MR`-row strip of a row-major `m x k` matrix, folding `alpha`
/// and applying the pack fusion (dropout in source coordinates, then
/// optional emission of the post-dropout value at the source element's
/// offset).
fn pack_a_strip_rowmajor_fused(
    av: &[f32],
    m: usize,
    k: usize,
    alpha: f32,
    i0: usize,
    fusion: PackFusion,
    out: &mut [f32],
) {
    let emit = fusion.emit_ptr();
    for r in 0..MR {
        let row = i0 + r;
        if row < m {
            let src = &av[row * k..(row + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                let x = match fusion.dropout {
                    Some(spec) => v * spec.mask_value(row, kk, k),
                    None => v,
                };
                if let Some(e) = emit {
                    // SAFETY: offset `row*k + kk` is in-bounds of the
                    // emit buffer (length == av.len() == m*k) and owned by
                    // this strip alone.
                    unsafe { *e.add(row * k + kk) = x };
                }
                out[kk * MR + r] = alpha * x;
            }
        } else {
            for kk in 0..k {
                out[kk * MR + r] = 0.0;
            }
        }
    }
}

/// Packs one `MR`-row strip of a row-major `m x k` logits matrix through
/// the softmax-grad transform, folding `alpha` (`m = sg.lse.len()`).
///
/// The strip advances one [`EXP_BLOCK`]-column block at a time: each live
/// row's segment goes through [`crate::loss::softmax_grad_row`] into its
/// own stack buffer (vectorized exps on `path`, the target column fixed
/// up once), and the `MR` buffers are then interleaved into the strip's
/// `kk`-major layout. Rows past `m` stay zero in their buffers. No heap
/// allocation and no per-element table lookup.
fn pack_a_strip_softmax_grad(
    path: SimdPath,
    av: &[f32],
    k: usize,
    alpha: f32,
    i0: usize,
    sg: SoftmaxGradSpec<'_>,
    out: &mut [f32],
) {
    let rows = sg.lse.len().saturating_sub(i0).min(MR);
    let mut buf = [[0.0f32; EXP_BLOCK]; MR];
    let mut kb = 0;
    while kb < k {
        let w = EXP_BLOCK.min(k - kb);
        for (r, seg) in buf.iter_mut().enumerate().take(rows) {
            let row = i0 + r;
            let target = (sg.targets[row] as usize)
                .checked_sub(kb)
                .filter(|&t| t < w);
            crate::loss::softmax_grad_row(
                path,
                &av[row * k + kb..row * k + kb + w],
                sg.lse[row],
                target,
                sg.scale,
                alpha,
                &mut seg[..w],
            );
        }
        for (kk, dst) in out[kb * MR..(kb + w) * MR].chunks_exact_mut(MR).enumerate() {
            for (d, seg) in dst.iter_mut().zip(&buf) {
                *d = seg[kk];
            }
        }
        kb += w;
    }
}

/// Packs one `MR`-row strip of a row-major `m x k` matrix, folding `alpha`
/// (prologue-free path; the fuzz and packing tests compare against it).
#[cfg(test)]
fn pack_a_strip_rowmajor(av: &[f32], m: usize, k: usize, alpha: f32, i0: usize, out: &mut [f32]) {
    pack_a_strip_rowmajor_fused(av, m, k, alpha, i0, PackFusion::NONE, out);
}

/// Packs one `MR`-row strip of the *transpose* of a row-major `k x m`
/// matrix (the `TN` left operand), folding `alpha` and the pack fusion.
/// Dropout and emission use the source's own `(kk, col)` coordinates.
fn pack_a_strip_transposed_fused(
    av: &[f32],
    m: usize,
    k: usize,
    alpha: f32,
    i0: usize,
    fusion: PackFusion,
    out: &mut [f32],
) {
    let emit = fusion.emit_ptr();
    let avail = m.saturating_sub(i0).min(MR);
    for kk in 0..k {
        // The gather reads `MR` floats per source row with an `m`-element
        // stride between rows; prefetching a few rows ahead hides the
        // stride the hardware prefetcher gives up on for large `m`.
        simd::prefetch_read(av.as_ptr().wrapping_add((kk + 4) * m + i0));
        let src = &av[kk * m..(kk + 1) * m];
        let dst = &mut out[kk * MR..(kk + 1) * MR];
        for r in 0..avail {
            let x = match fusion.dropout {
                Some(spec) => src[i0 + r] * spec.mask_value(kk, i0 + r, m),
                None => src[i0 + r],
            };
            if let Some(e) = emit {
                // SAFETY: offset `kk*m + i0 + r` is in-bounds of the emit
                // buffer (length == av.len() == k*m) and owned by this
                // strip's column range alone.
                unsafe { *e.add(kk * m + i0 + r) = x };
            }
            dst[r] = alpha * x;
        }
        for d in dst.iter_mut().skip(avail) {
            *d = 0.0;
        }
    }
}

/// Packs one `MR`-row strip of the *transpose* of a row-major `k x m`
/// matrix (the `TN` left operand), folding `alpha` (prologue-free path).
#[cfg(test)]
fn pack_a_strip_transposed(av: &[f32], m: usize, k: usize, alpha: f32, i0: usize, out: &mut [f32]) {
    pack_a_strip_transposed_fused(av, m, k, alpha, i0, PackFusion::NONE, out);
}

/// Packs one `NR`-column strip of a row-major `k x n` matrix.
fn pack_b_strip_rowmajor(bv: &[f32], k: usize, n: usize, j0: usize, out: &mut [f32]) {
    let avail = n.saturating_sub(j0).min(NR);
    for kk in 0..k {
        let src = &bv[kk * n..(kk + 1) * n];
        let dst = &mut out[kk * NR..(kk + 1) * NR];
        dst[..avail].copy_from_slice(&src[j0..j0 + avail]);
        for d in dst.iter_mut().skip(avail) {
            *d = 0.0;
        }
    }
}

/// `kk`-block length for the transposed gathers. A block keeps one
/// `PACK_KB x NR` destination window (`16 KiB`) plus `NR` source row
/// segments resident in L1 while the transpose walks them, instead of
/// streaming the whole `k x NR` strip through cache once per source row.
/// Purely a traversal choice: the values written are identical to the
/// unblocked gather, which the packing tests assert.
const PACK_KB: usize = 256;

/// Packs one `NR`-column strip of the *transpose* of a row-major `n x k`
/// matrix (the `NT` right operand), `kk`-blocked with the next source row
/// segment prefetched while the current one is gathered.
fn pack_b_strip_transposed(bv: &[f32], k: usize, n: usize, j0: usize, out: &mut [f32]) {
    let avail = n.saturating_sub(j0).min(NR);
    let mut kb = 0;
    while kb < k {
        let kend = (kb + PACK_KB).min(k);
        for c in 0..avail {
            if c + 1 < avail {
                simd::prefetch_read(bv.as_ptr().wrapping_add((j0 + c + 1) * k + kb));
            }
            let src = &bv[(j0 + c) * k + kb..(j0 + c) * k + kend];
            for (kk, &v) in src.iter().enumerate() {
                out[(kb + kk) * NR + c] = v;
            }
        }
        kb = kend;
    }
    if avail < NR {
        for kk in 0..k {
            for d in out[kk * NR + avail..(kk + 1) * NR].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Packs all strips of one operand in parallel. `strip_len` is `k*MR` (for
/// `A`) or `k*NR` (for `B`); strips are disjoint, so tasks write disjoint
/// regions of `out`. Content is a pure copy/transform per strip —
/// identical at any thread count. A 1-thread pool takes the serial path
/// without touching the allocator.
fn pack_parallel(
    pool: &Pool,
    out: &mut [f32],
    strips: usize,
    strip_len: usize,
    pack_strip: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    {
        use std::sync::OnceLock;
        static PANELS: OnceLock<lorafusion_trace::metrics::Counter> = OnceLock::new();
        PANELS
            .get_or_init(|| lorafusion_trace::metrics::counter("gemm.panels_packed"))
            .add(strips as u64);
    }
    if pool.threads() <= 1 || strips <= 1 {
        for s in 0..strips {
            pack_strip(s, &mut out[s * strip_len..(s + 1) * strip_len]);
        }
        return;
    }
    let ranges = pool::split_evenly(strips, pool.threads());
    if ranges.len() <= 1 {
        for s in 0..strips {
            pack_strip(s, &mut out[s * strip_len..(s + 1) * strip_len]);
        }
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    pool.run(ranges.len(), &|t| {
        for s in ranges[t].clone() {
            // SAFETY: strip regions are pairwise disjoint and in-bounds.
            let strip =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(s * strip_len), strip_len) };
            pack_strip(s, strip);
        }
    });
}

// ---------------------------------------------------------------------------
// Microkernel and macro-tile driver
// ---------------------------------------------------------------------------

/// Accumulates `k` outer products into the register tile. `apanel` is a
/// `k x MR` packed strip, `bpanel` a `k x NR` one. The `NR` lane loop has
/// constant bounds and independent lanes, so the compiler vectorizes it;
/// the per-element reduction order over `kk` is strictly ascending across
/// the full `k` extent.
#[inline]
fn microkernel(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
}

/// Scalar twin of the AVX2 kernel ([`SimdPath::ScalarFma`]): the same
/// loop structure as [`microkernel`] but accumulating with
/// `f32::mul_add`, whose single correctly-rounded step matches the
/// vector kernel's `vfmaddps` bit for bit. This is what
/// `LORAFUSION_SIMD=0` executes on FMA hosts, keeping the env override
/// bitwise-neutral (see `crate::simd` for the purity rules).
#[inline]
fn microkernel_fma(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(b[j], acc[i][j]);
            }
        }
    }
}

/// Runs the single-strip microkernel spelling selected by `path` (see
/// [`crate::simd`] for how paths are resolved; all spellings share the
/// ascending-`kk` per-element reduction order). [`SimdPath::Avx512`]
/// reaches this only for an unpaired strip, which runs the AVX2 kernel.
#[inline]
fn run_microkernel(path: SimdPath, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    match path {
        SimdPath::Avx512 | SimdPath::Avx2Fma => simd::microkernel_avx2(apanel, bpanel, acc),
        SimdPath::ScalarFma => microkernel_fma(apanel, bpanel, acc),
        SimdPath::Scalar => microkernel(apanel, bpanel, acc),
    }
}

/// Writes the live `rows x cols` corner of a completed accumulator tile
/// into `C` at `(i0, j0)` through `epilogue`. Runs exactly once per output
/// element per GEMM call.
///
/// When `rowmax_slot` is set, the maximum of each *stored* row segment is
/// folded into the per-row slot at `rowmax_slot + i0 + r` while the values
/// are still hot: the first `j`-tile of the macro-tile initializes the
/// slot, later tiles merge with [`f32::max`]. Column order within the
/// macro-tile is ascending `j0`, and `max` is an exact selection, so the
/// folded value equals a linear scan of the macro-tile's column range (the
/// chunk-merge contract in [`crate::loss`]).
///
/// # Safety
///
/// The caller must guarantee the `rows x cols` region at `(i0, j0)` of the
/// `.. x n` matrix at `cbase` is in-bounds and not concurrently accessed,
/// and that `rowmax_slot`, when set, points at storage where indices
/// `i0 .. i0 + rows` are in-bounds and owned by this macro-tile alone.
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile(
    acc: &[[f32; NR]; MR],
    cbase: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    epilogue: Epilogue,
    rowmax_slot: Option<*mut f32>,
    first_jtile: bool,
) {
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        // SAFETY: per this function's contract the `rows x cols` region at
        // `(i0, j0)` is in-bounds and unaliased, so row `i0 + r` has `cols`
        // valid, exclusively-owned elements starting at column `j0`; and
        // the row-max slot at `i0 + r`, when requested, is in-bounds and
        // owned by this macro-tile.
        let (dst, mslot) = unsafe {
            (
                std::slice::from_raw_parts_mut(cbase.add((i0 + r) * n + j0), cols),
                rowmax_slot.map(|p| &mut *p.add(i0 + r)),
            )
        };
        match epilogue {
            Epilogue::Overwrite => dst.copy_from_slice(&acc_row[..cols]),
            Epilogue::Add => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d += v;
                }
            }
            Epilogue::Scaled(s) => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d = s * v;
                }
            }
            Epilogue::AddScaled(s) => {
                for (d, v) in dst.iter_mut().zip(acc_row) {
                    *d += s * v;
                }
            }
            Epilogue::AddMasked(spec) => {
                for (c, (d, v)) in dst.iter_mut().zip(acc_row).enumerate() {
                    // Always multiply (never branch to skip) so non-finite
                    // products propagate exactly as `hadamard` would.
                    *d += v * spec.mask_value(i0 + r, j0 + c, n);
                }
            }
        }
        if let Some(slot) = mslot {
            // Max over the values as *stored* (post-epilogue), folded in
            // ascending column order within the tile row.
            let tile_max = dst.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
            *slot = if first_jtile {
                tile_max
            } else {
                slot.max(tile_max)
            };
        }
    }
}

/// Accumulator-tile count of one macro-tile, and the `j`-direction stride
/// of the accumulator buffer's `(ti, tj)` indexing.
const ACC_TILES_J: usize = NC / NR;
const ACC_TILES: usize = (MC / MR) * ACC_TILES_J;

/// Computes one `MC x NC` macro-tile of `C` from the shared packed panels.
///
/// The `k` reduction is blocked by [`KC`]: for each `kb` block the loop
/// order is `j`-strip → `i`-strip, so the `KC x NR` `B` window (16 KiB;
/// a pair of them on the AVX-512 path) stays L1-resident across the `i`
/// loop and the whole block working set (`A` window + `B` window +
/// accumulator buffer, 120 + 256 + 120 KiB) stays L2-resident — instead of
/// streaming two full-`k` strips per tile, which made large GEMMs
/// bandwidth-bound. On [`SimdPath::Avx512`] `j` steps two strips at a
/// time through the paired kernel, and an odd last strip runs the AVX2
/// kernel alone. Each `MR x NR` tile's accumulator lives in a stack
/// buffer between blocks; the round-trip is an exact `f32` copy, so the
/// per-element reduction order (one ascending-`kk` chain) and therefore
/// every output bit is identical to the unblocked loop whichever kernel
/// ran the tile. Tiles are stored exactly once through the epilogue after
/// the last block.
#[allow(clippy::too_many_arguments)] // one argument per tile coordinate
fn macro_tile(
    path: SimdPath,
    apack: &[f32],
    bpack: &[f32],
    cbase: *mut f32,
    k: usize,
    n: usize,
    i_range: std::ops::Range<usize>,
    j_range: std::ops::Range<usize>,
    epilogue: Epilogue,
    rowmax_slot: Option<*mut f32>,
) {
    let mut accbuf = [[[0.0f32; NR]; MR]; ACC_TILES];
    let mut kb = 0;
    loop {
        let kend = (kb + KC).min(k);
        let kc = kend - kb;
        let bwindow = |j0: usize| &bpack[(j0 / NR) * k * NR + kb * NR..][..kc * NR];
        let mut j0 = j_range.start;
        while j0 < j_range.end {
            let tj = (j0 - j_range.start) / NR;
            let bpanel = bwindow(j0);
            let paired = path == SimdPath::Avx512 && j0 + NR < j_range.end;
            let mut i0 = i_range.start;
            while i0 < i_range.end {
                let ti = (i0 - i_range.start) / MR;
                let apanel = &apack[(i0 / MR) * k * MR + kb * MR..][..kc * MR];
                let t = ti * ACC_TILES_J + tj;
                if paired {
                    let pair = (&mut accbuf[t..t + 2])
                        .try_into()
                        .expect("a two-tile window is two tiles");
                    simd::microkernel_avx512_pair(apanel, [bpanel, bwindow(j0 + NR)], pair);
                } else {
                    run_microkernel(path, apanel, bpanel, &mut accbuf[t]);
                }
                i0 += MR;
            }
            j0 += if paired { 2 * NR } else { NR };
        }
        kb = kend;
        if kb >= k {
            break;
        }
    }
    let mut j0 = j_range.start;
    while j0 < j_range.end {
        let cols = NR.min(j_range.end - j0);
        let tj = (j0 - j_range.start) / NR;
        let mut i0 = i_range.start;
        while i0 < i_range.end {
            let rows = MR.min(i_range.end - i0);
            let ti = (i0 - i_range.start) / MR;
            // SAFETY: this macro-tile exclusively owns the
            // `i_range x j_range` region of `C` and rows `i_range` of its
            // row-max partial column, and `(i0, j0)` plus `rows x cols`
            // stays inside it.
            unsafe {
                store_tile(
                    &accbuf[ti * ACC_TILES_J + tj],
                    cbase,
                    n,
                    i0,
                    j0,
                    rows,
                    cols,
                    epilogue,
                    rowmax_slot,
                    j0 == j_range.start,
                )
            };
            i0 += MR;
        }
        j0 += NR;
    }
}

/// Packs both operands once (through the prologue) and runs the macro-tile
/// grid on `pool`, storing each tile through the epilogue.
///
/// `av`/`bv` are interpreted per `layout`; `cv` is the row-major `m x n`
/// output. `prologue.emit`, when present, must have exactly `av.len()`
/// elements (the shape check lives in `matmul`). `k == 0` is handled by
/// the normal path: empty panels leave every accumulator tile zero, and
/// the epilogue is still applied (`Overwrite` clears, `Add` is a no-op in
/// value but keeps the composition's `c + 0.0` semantics).
///
/// `row_max`, when present, has one slot per output row and receives the
/// maximum of that row's *stored* values. The store epilogue writes a
/// `[j_blocks x m]` partials buffer (`j_blocks = n.div_ceil(NC)`) checked
/// out of the arena: cell `bj * m + row` receives the max of row `row`
/// within column block `bj`, computed while the tile is register-hot, and
/// each cell is written by exactly one macro-tile task. The blocks are
/// then folded in ascending order from `-inf` — max is grouping-free, so
/// the result equals a linear row scan at every thread count (the
/// chunk-merge contract in [`crate::loss`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    pool: &Pool,
    path: SimdPath,
    layout: Layout,
    alpha: f32,
    av: &[f32],
    bv: &[f32],
    cv: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    prologue: Prologue<'_>,
    epilogue: Epilogue,
    row_max: Option<&mut [f32]>,
) {
    debug_assert!(
        row_max.as_ref().is_none_or(|r| r.len() == m),
        "row_max must have one slot per output row"
    );
    if m == 0 || n == 0 {
        if let Some(out) = row_max {
            out.fill(f32::NEG_INFINITY);
        }
        return;
    }
    debug_assert!(
        prologue.emit.as_ref().is_none_or(|e| e.len() == av.len()),
        "prologue emit buffer must match the A operand length"
    );

    let a_strips = m.div_ceil(MR);
    let b_strips = n.div_ceil(NR);
    let j_blocks = n.div_ceil(NC);
    let mut apack = Scratch::take_aligned(a_strips * MR * k);
    let mut bpack = Scratch::take_aligned(b_strips * NR * k);
    // Checked out after the panels, so the arena's largest-first hand-out
    // gives this small buffer its smallest cached one.
    let mut partials = row_max.as_ref().map(|_| Scratch::take(j_blocks * m));

    // Keep the `SendPtr` alive on this frame for the whole packing job so
    // `PackFusion`'s raw pointer to it stays valid.
    let emit_holder = prologue.emit.map(|e| SendPtr(e.as_mut_ptr()));
    let fusion = PackFusion {
        dropout: prologue.dropout,
        emit: emit_holder.as_ref().map(|h| h as *const SendPtr),
    };
    debug_assert!(
        prologue.softmax_grad.is_none() || (layout != Layout::Tn && fusion.emit.is_none()),
        "softmax-grad packs only a row-major A, without emit"
    );

    match (layout, prologue.softmax_grad) {
        (Layout::Nn | Layout::Nt, Some(sg)) => {
            pack_parallel(pool, &mut apack, a_strips, k * MR, &|s, out| {
                pack_a_strip_softmax_grad(path, av, k, alpha, s * MR, sg, out);
            })
        }
        (Layout::Nn | Layout::Nt, None) => {
            pack_parallel(pool, &mut apack, a_strips, k * MR, &|s, out| {
                pack_a_strip_rowmajor_fused(av, m, k, alpha, s * MR, fusion, out);
            })
        }
        (Layout::Tn, _) => pack_parallel(pool, &mut apack, a_strips, k * MR, &|s, out| {
            pack_a_strip_transposed_fused(av, m, k, alpha, s * MR, fusion, out);
        }),
    }
    match layout {
        Layout::Nn | Layout::Tn => pack_parallel(pool, &mut bpack, b_strips, k * NR, &|t, out| {
            pack_b_strip_rowmajor(bv, k, n, t * NR, out);
        }),
        Layout::Nt => pack_parallel(pool, &mut bpack, b_strips, k * NR, &|t, out| {
            pack_b_strip_transposed(bv, k, n, t * NR, out);
        }),
    }

    let i_blocks = m.div_ceil(MC);
    let apack = apack.as_slice();
    let bpack = bpack.as_slice();
    let cbase = SendPtr(cv.as_mut_ptr());
    let cbase = &cbase;
    let rowmax_holder = partials.as_mut().map(|p| SendPtr(p.as_mut_ptr()));
    let rowmax_holder = &rowmax_holder;
    pool.run(i_blocks * j_blocks, &|t| {
        let bi = t / j_blocks;
        let bj = t % j_blocks;
        let i_lo = bi * MC;
        let j_lo = bj * NC;
        // Task-category span: macro-tile execution is where the real
        // FLOPs happen, so Perfetto occupancy comes from these.
        let _tile = lorafusion_trace::task_span!("gemm.macro_tile", bi = bi, bj = bj);
        macro_tile(
            path,
            apack,
            bpack,
            cbase.get(),
            k,
            n,
            i_lo..(i_lo + MC).min(m),
            j_lo..(j_lo + NC).min(n),
            epilogue,
            // Partial column `bj` of the `[j_blocks x m]` buffer; this
            // task owns rows `i_lo..i_hi` of it exclusively.
            rowmax_holder.as_ref().map(|h| h.get().wrapping_add(bj * m)),
        );
    });
    if let (Some(out), Some(partials)) = (row_max, &partials) {
        out.fill(f32::NEG_INFINITY);
        for block in partials.chunks_exact(m) {
            for (o, &p) in out.iter_mut().zip(block) {
                *o = o.max(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    /// The packed strip of an edge row/column must zero its padding even
    /// when the scratch buffer held stale data.
    #[test]
    fn packing_zeroes_edge_padding() {
        let k = 3;
        let av: Vec<f32> = (0..k).map(|v| v as f32 + 1.0).collect(); // 1 x 3
        let mut out = vec![7.0f32; k * MR];
        pack_a_strip_rowmajor(&av, 1, k, 2.0, 0, &mut out);
        for kk in 0..k {
            assert_eq!(out[kk * MR], 2.0 * (kk as f32 + 1.0));
            for r in 1..MR {
                assert_eq!(out[kk * MR + r], 0.0, "pad row {r} kk {kk}");
            }
        }

        let bv: Vec<f32> = (0..k).map(|v| v as f32 + 1.0).collect(); // 3 x 1
        let mut out = vec![7.0f32; k * NR];
        pack_b_strip_rowmajor(&bv, k, 1, 0, &mut out);
        for kk in 0..k {
            assert_eq!(out[kk * NR], kk as f32 + 1.0);
            for c in 1..NR {
                assert_eq!(out[kk * NR + c], 0.0, "pad col {c} kk {kk}");
            }
        }
    }

    /// Transposed packing must agree with row-major packing of the
    /// explicitly transposed operand.
    #[test]
    fn transposed_packing_matches_rowmajor_of_transpose() {
        let (m, k) = (MR + 3, 2 * KC + 5);
        let mut rng = crate::rng::Pcg32::seeded(42);
        let a = crate::tensor::Matrix::random_uniform(k, m, 1.0, &mut rng);
        let at = a.transpose(); // m x k
        let strips = m.div_ceil(MR);
        for s in 0..strips {
            let mut via_t = vec![0.0f32; k * MR];
            let mut direct = vec![1.0f32; k * MR];
            pack_a_strip_rowmajor(at.as_slice(), m, k, 1.5, s * MR, &mut via_t);
            pack_a_strip_transposed(a.as_slice(), m, k, 1.5, s * MR, &mut direct);
            assert_eq!(via_t, direct, "strip {s}");
        }

        let (n, k) = (NR + 1, KC + 3);
        let b = crate::tensor::Matrix::random_uniform(n, k, 1.0, &mut rng);
        let bt = b.transpose(); // k x n
        for t in 0..n.div_ceil(NR) {
            let mut via_t = vec![0.0f32; k * NR];
            let mut direct = vec![1.0f32; k * NR];
            pack_b_strip_rowmajor(bt.as_slice(), k, n, t * NR, &mut via_t);
            pack_b_strip_transposed(b.as_slice(), k, n, t * NR, &mut direct);
            assert_eq!(via_t, direct, "strip {t}");
        }
    }

    /// The dropout prologue must pack exactly `hadamard(A, mask)` and emit
    /// the post-dropout operand at source offsets, for both A gathers.
    #[test]
    fn fused_packing_applies_mask_and_emits() {
        let (m, k) = (MR + 2, 13);
        let mut rng = crate::rng::Pcg32::seeded(77);
        let a = crate::tensor::Matrix::random_uniform(m, k, 1.0, &mut rng);
        let spec = DropoutSpec::new(0.4, 99);
        let alpha = 1.25f32;

        // Expected packed strip: mask applied manually, then plain pack.
        let mut masked = a.clone();
        for i in 0..m {
            for j in 0..k {
                let v = masked.get(i, j).unwrap() * spec.mask_value(i, j, k);
                masked.set(i, j, v).unwrap();
            }
        }

        let mut emit = vec![f32::NAN; m * k];
        let holder = SendPtr(emit.as_mut_ptr());
        let fusion = PackFusion {
            dropout: Some(spec),
            emit: Some(&holder as *const SendPtr),
        };
        for s in 0..m.div_ceil(MR) {
            let mut want = vec![0.0f32; k * MR];
            let mut got = vec![1.0f32; k * MR];
            pack_a_strip_rowmajor(masked.as_slice(), m, k, alpha, s * MR, &mut want);
            pack_a_strip_rowmajor_fused(a.as_slice(), m, k, alpha, s * MR, fusion, &mut got);
            assert_eq!(want, got, "rowmajor strip {s}");
        }
        assert_eq!(emit, masked.as_slice(), "rowmajor emit");

        // Transposed gather: source is (reduction `tk`) x (output rows
        // `tm`); dropout runs in the source's own coordinates.
        let (tm, tk) = (MR + 5, 9);
        let src = crate::tensor::Matrix::random_uniform(tk, tm, 1.0, &mut rng);
        let mut masked_t = src.clone();
        for i in 0..tk {
            for j in 0..tm {
                let v = masked_t.get(i, j).unwrap() * spec.mask_value(i, j, tm);
                masked_t.set(i, j, v).unwrap();
            }
        }
        let mut emit_t = vec![f32::NAN; tk * tm];
        let holder_t = SendPtr(emit_t.as_mut_ptr());
        let fusion_t = PackFusion {
            dropout: Some(spec),
            emit: Some(&holder_t as *const SendPtr),
        };
        for s in 0..tm.div_ceil(MR) {
            let mut want = vec![0.0f32; tk * MR];
            let mut got = vec![1.0f32; tk * MR];
            pack_a_strip_transposed(masked_t.as_slice(), tm, tk, alpha, s * MR, &mut want);
            pack_a_strip_transposed_fused(
                src.as_slice(),
                tm,
                tk,
                alpha,
                s * MR,
                fusion_t,
                &mut got,
            );
            assert_eq!(want, got, "transposed strip {s}");
        }
        assert_eq!(emit_t, masked_t.as_slice(), "transposed emit");
    }

    /// The vector kernels and their scalar `mul_add` twin must agree bit
    /// for bit on the same packed panels — the heart of the
    /// dispatch-purity contract — and the historical mul-then-add kernel
    /// must stay close. The AVX-512 pair kernel must equal two twin calls,
    /// one per strip, at reduction lengths around the `KC` block edges.
    #[test]
    fn microkernel_spellings_agree() {
        let mut rng = crate::rng::Pcg32::seeded(41);
        for k in [0, 1, KC - 1, KC, 2 * KC + 3] {
            let apanel: Vec<f32> = (0..k * MR).map(|_| rng.next_f32() - 0.5).collect();
            let bpanels: [Vec<f32>; 2] =
                std::array::from_fn(|_| (0..k * NR).map(|_| rng.next_f32() - 0.5).collect());
            let base: [[[f32; NR]; MR]; 2] = std::array::from_fn(|_| {
                std::array::from_fn(|_| std::array::from_fn(|_| rng.next_f32()))
            });
            let bits = |t: &[[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));

            let mut fma = base;
            for (tile, bpanel) in fma.iter_mut().zip(&bpanels) {
                microkernel_fma(&apanel, bpanel, tile);
            }
            let mut plain = base[0];
            microkernel(&apanel, &bpanels[0], &mut plain);
            for i in 0..MR {
                for j in 0..NR {
                    let (x, y) = (fma[0][i][j], plain[i][j]);
                    assert!(
                        (x - y).abs() <= 1e-3 * (1.0 + x.abs().max(y.abs())),
                        "fma vs plain at ({i},{j}) k={k}: {x} vs {y}"
                    );
                }
            }

            if SimdPath::Avx2Fma.is_supported() {
                for (s, bpanel) in bpanels.iter().enumerate() {
                    let mut vector = base[s];
                    simd::microkernel_avx2(&apanel, bpanel, &mut vector);
                    assert_eq!(bits(&vector), bits(&fma[s]), "avx2 strip {s} k={k}");
                }
            }
            if SimdPath::Avx512.is_supported() {
                let mut pair = base;
                simd::microkernel_avx512_pair(&apanel, [&bpanels[0], &bpanels[1]], &mut pair);
                for s in 0..2 {
                    assert_eq!(bits(&pair[s]), bits(&fma[s]), "avx512 strip {s} k={k}");
                }
            }
        }
    }

    /// A skinny LoRA shape (one row block) must still produce a multi-task
    /// grid via its column blocks.
    #[test]
    fn skinny_shapes_expose_column_parallelism() {
        let (m, n): (usize, usize) = (16, 8 * NC);
        assert_eq!(m.div_ceil(MC), 1);
        assert!(n.div_ceil(NC) >= 8, "j-blocks must carry the parallelism");
    }

    /// `k = 0` runs the normal path: overwrite clears, add leaves values.
    #[test]
    fn zero_k_overwrite_clears_output() {
        let pool = Pool::new(2);
        let mut c = vec![5.0f32; 6];
        gemm(
            &pool,
            simd::active_path(),
            Layout::Nn,
            1.0,
            &[],
            &[],
            &mut c,
            2,
            0,
            3,
            Prologue::none(),
            Epilogue::Overwrite,
            None,
        );
        assert!(c.iter().all(|&v| v == 0.0));
        let mut c = vec![5.0f32; 6];
        gemm(
            &pool,
            simd::active_path(),
            Layout::Nn,
            1.0,
            &[],
            &[],
            &mut c,
            2,
            0,
            3,
            Prologue::none(),
            Epilogue::Add,
            None,
        );
        assert!(c.iter().all(|&v| v == 5.0));
    }
}
