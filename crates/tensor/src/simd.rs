//! The explicit-SIMD execution tier: runtime CPU-feature detection, the
//! `LORAFUSION_SIMD` override, and the AVX-512 and AVX2+FMA register
//! microkernels.
//!
//! This is the **only** module in the workspace allowed to touch
//! `core::arch`, `is_x86_feature_detected!`, or `#[target_feature]` — the
//! `simd-confinement` rule of `lorafusion-lint` enforces that, mirroring
//! how `thread-count-dependence` confines pool sizing to `tensor::pool`.
//! Everything architecture-specific funnels through the safe wrappers
//! here; the rest of the engine dispatches on the portable [`SimdPath`]
//! enum and never names an ISA.
//!
//! # Dispatch purity
//!
//! Two separate things are pure functions of two separate inputs:
//!
//! * **Numeric semantics** are a pure function of the *detected CPU
//!   features only*. On a host with AVX2+FMA every path — the AVX-512
//!   kernel, the AVX2 kernel and the scalar fallback alike — accumulates
//!   with a fused multiply-add (`f32::mul_add` in the scalar twin,
//!   `vfmaddps` on 8 or 16 lanes in the vector kernels; all are correctly
//!   rounded, hence bitwise-equal). On a host without FMA every path uses
//!   the historical mul-then-add kernel. The env override can therefore
//!   never change a result bit: it moves execution between spellings of
//!   the *same* rounding behaviour.
//! * **Execution path** is a pure function of `(detected features,
//!   LORAFUSION_SIMD)`. `LORAFUSION_SIMD=0` forces the scalar spelling,
//!   anything else (or unset) takes the widest vector kernel the host
//!   has: [`SimdPath::Avx512`] with `avx512f`, else
//!   [`SimdPath::Avx2Fma`]. Both inputs are read once per process and
//!   cached, so the path cannot flip mid-run. [`supported_paths`] lists
//!   every spelling of the host's semantics, so tests and the bench gate
//!   can run each of them in one process.
//!
//! # Three GEMM spellings, one rounding behaviour
//!
//! Every spelling accumulates each output element as one ascending-`kk`
//! chain of correctly rounded FMAs from the value parked in the
//! accumulator tile, so they differ only in how many chains run side by
//! side:
//!
//! * [`SimdPath::ScalarFma`] — the `f32::mul_add` twin in `microkernel`,
//!   one `MR x NR = 6 x 16` tile per call;
//! * [`SimdPath::Avx2Fma`] — the same 6x16 tile in 12 ymm accumulators;
//! * [`SimdPath::Avx512`] — two adjacent packed `B` strips against one `A`
//!   strip, a 6x32 tile in 12 zmm accumulators (two `B` loads and six
//!   broadcasts per `kk` step, the AVX2 ratio at twice the width). The
//!   packed layouts are unchanged: the pair is just two `NR`-wide strips
//!   read side by side. `microkernel::macro_tile` steps `j` two strips at
//!   a time on this path and runs an odd last strip — and any one-strip
//!   GEMM, such as a rank-16 output — through the AVX2 kernel.
//!
//! The bitwise-vs-fallback contract — `LORAFUSION_SIMD=0` and the default
//! produce identical bits on any given host — is asserted by the fuzz
//! matrix in `crates/tensor/tests/gemm_fuzz.rs` over every
//! [`supported_paths`] spelling, and by the dual-path digest gates in
//! `scripts/ci.sh` (`bench_gemm`, which also runs every spelling in
//! process, and `bench_loss`).
//!
//! # The in-tree `exp`: one definition, two spellings
//!
//! The loss kernels' exponentials do not call libm. [`exp`] is one fixed
//! definition — Cody-Waite range reduction `x = n·ln 2 + r` with `ln 2`
//! split into an exact high part and a low correction, the degree-6 Cephes
//! `expf` polynomial on `r`, and an exact two-step `2^n` scaling — written
//! with plain multiplies and adds only (no FMA, whose availability differs
//! between hosts). It is therefore the same function on every host, and it
//! has two spellings: an 8-lane AVX2 kernel and the scalar twin [`exp`],
//! bitwise-equal lane for lane. [`exp_shifted_on_path`] takes the AVX2
//! kernel on both vector paths ([`SimdPath::Avx512`] included) and the
//! twin otherwise, so `LORAFUSION_SIMD=0` moves the loss head between
//! spellings without changing a bit.
//!
//! Accuracy: on every input whose exponential is a normal `f32`
//! (`[EXP_MIN_INPUT, EXP_MAX_INPUT]`, about 2.2·10⁹ values) the result is
//! within 1 ulp of the correctly rounded value — libm's `expf` bound — and
//! about 0.8% of those inputs are not correctly rounded. Below
//! [`EXP_MIN_INPUT`] the result flushes to `+0` instead of a subnormal;
//! above [`EXP_MAX_INPUT`] it is `+inf`; NaN comes back unchanged. The
//! exhaustive check is an `#[ignore]`d test that `scripts/ci.sh` runs.

use std::sync::OnceLock;

use crate::microkernel::{MR, NR};

/// Which microkernel spelling a GEMM call executes. See the module docs
/// for the purity rules; obtain values via [`active_path`] / [`path_for`]
/// / [`supported_paths`] rather than constructing them ad hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Explicit `core::arch` AVX-512 6x32 paired-strip kernel, with the
    /// AVX2 kernel for an unpaired strip. Requires [`fma_semantics`] and
    /// `avx512f`.
    Avx512,
    /// Explicit `core::arch` AVX2+FMA 6x16 register kernel. Requires
    /// [`fma_semantics`] to be true.
    Avx2Fma,
    /// Scalar twin of the vector kernels: same fused multiply-add rounding
    /// via `f32::mul_add`, no `core::arch`. The forced-off spelling on
    /// FMA hosts.
    ScalarFma,
    /// The historical mul-then-add safe kernel — the only spelling on
    /// hosts without AVX2+FMA, so such hosts see no numeric change at all.
    Scalar,
}

impl SimdPath {
    /// Lower-case tag used by benches, result files, and trace counters.
    pub fn tag(self) -> &'static str {
        match self {
            SimdPath::Avx512 => "avx512",
            SimdPath::Avx2Fma => "avx2+fma",
            SimdPath::ScalarFma => "scalar-fma",
            SimdPath::Scalar => "scalar",
        }
    }

    /// Whether this path can execute on the current host. The vector
    /// paths require detection; the scalar spellings always run.
    pub fn is_supported(self) -> bool {
        match self {
            SimdPath::Avx512 => avx512_detected(),
            SimdPath::Avx2Fma => fma_semantics(),
            SimdPath::ScalarFma | SimdPath::Scalar => true,
        }
    }
}

/// One-time runtime CPU-feature detection: does this host have AVX2+FMA?
///
/// This single cached bit decides the *numeric semantics* of every GEMM
/// in the process (fused multiply-add vs mul-then-add accumulation); the
/// env override below only selects between spellings of the semantics it
/// fixes.
pub fn fma_semantics() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(detect_avx2_fma)
}

/// One-time runtime detection of `avx512f` on top of AVX2+FMA: whether
/// [`SimdPath::Avx512`] can run. Changes which spelling runs, never the
/// semantics [`fma_semantics`] fixes.
fn avx512_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| fma_semantics() && detect_avx512f())
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn detect_avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2_fma() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx512f() -> bool {
    false
}

/// Human-readable summary of the detected features, recorded in bench
/// result rows so cross-machine trajectories stay comparable.
pub fn detected_features() -> &'static str {
    if avx512_detected() {
        "avx512+fma"
    } else if fma_semantics() {
        "avx2+fma"
    } else {
        "none"
    }
}

/// The `LORAFUSION_SIMD` override, read once per process: `0`, `false`,
/// or `off` force the scalar spelling; anything else (or unset) enables
/// the vector kernel. `1` on a host without the features is a no-op, not
/// an error — the path degrades to the only semantics the host has.
fn env_enables_simd() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !std::env::var("LORAFUSION_SIMD")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "false" || v == "off"
            })
            .unwrap_or(false)
    })
}

/// Every spelling of this host's numeric semantics, widest first: the
/// vector kernels the host can run, then the scalar twin. All of them
/// give the same bits, so tests and the `bench_gemm` digest gate run each
/// one in a single process.
pub fn supported_paths() -> &'static [SimdPath] {
    if avx512_detected() {
        &[SimdPath::Avx512, SimdPath::Avx2Fma, SimdPath::ScalarFma]
    } else if fma_semantics() {
        &[SimdPath::Avx2Fma, SimdPath::ScalarFma]
    } else {
        &[SimdPath::Scalar]
    }
}

/// The execution path for a given env decision on *this* host — the pure
/// function `(detected features, enabled) -> path`: the widest
/// [`supported_paths`] spelling when enabled, the scalar one otherwise.
pub fn path_for(enabled: bool) -> SimdPath {
    let paths = supported_paths();
    if enabled {
        paths[0]
    } else {
        paths[paths.len() - 1]
    }
}

/// The process-wide active path: `path_for` applied to the cached
/// `LORAFUSION_SIMD` decision.
pub fn active_path() -> SimdPath {
    path_for(env_enables_simd())
}

/// Issues a best-effort read prefetch hint for `p`. No-op off x86-64.
///
/// Safe to call with any pointer, including one computed past the end of
/// an allocation with `wrapping_add`: a prefetch hint performs no memory
/// access in the abstract machine and the hardware instruction cannot
/// fault. The packed-panel gather loops in `microkernel` use this to hide
/// the strided reads of the transposed layouts.
#[inline(always)]
pub fn prefetch_read(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure hint — it performs no load or
    // store, cannot fault on any address, and `_MM_HINT_T0`/SSE are
    // baseline on x86-64.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Smallest input whose [`exp`] is a normal `f32` (`≈ ln f32::MIN_POSITIVE`);
/// anything below flushes to `+0`.
pub const EXP_MIN_INPUT: f32 = -87.33654;
/// Largest input whose [`exp`] is finite (`≈ ln f32::MAX`); anything above
/// is `+inf`.
pub const EXP_MAX_INPUT: f32 = 88.72283;

/// `ln 2 = EXP_LN2_HI + EXP_LN2_LO`, Cody-Waite split: the high part
/// (`0.693359375`) has 9 significant bits, so `n * EXP_LN2_HI` is exact
/// for every `|n| <= 128`.
const EXP_LN2_HI: f32 = 355.0 / 512.0;
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` polynomial, highest degree first:
/// `e^r ≈ 1 + r + r²·P(r)` on `|r| <= ln 2 / 2`.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];

/// The scalar spelling of the in-tree exponential (see the module docs).
///
/// Every step is a plain `f32` multiply, add, `floor` or exact bit
/// construction, in the same order as the AVX2 lane code, so the two
/// spellings agree bit for bit on every input.
#[inline]
pub fn exp(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x < EXP_MIN_INPUT {
        return 0.0;
    }
    if x > EXP_MAX_INPUT {
        return f32::INFINITY;
    }
    let z = (x * std::f32::consts::LOG2_E + 0.5).floor();
    let r = x - z * EXP_LN2_HI;
    let r = r - z * EXP_LN2_LO;
    let r2 = r * r;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = p * r2 + r + 1.0;
    // `n` lies in [-126, 128], so `2^n` is applied as two exact normal
    // factors `2^(n >> 1)` and `2^(n - (n >> 1))`; only the last multiply
    // can round, exactly once.
    let n = z as i32;
    let n1 = n >> 1;
    (y * pow2(n1)) * pow2(n - n1)
}

/// `2^n` for `n` in `[-126, 127]`, built from its exponent bits.
#[inline]
fn pow2(n: i32) -> f32 {
    f32::from_bits(((n + 127) as u32) << 23)
}

/// `dst[i] = exp(src[i] - shift)` over `min(src.len(), dst.len())`
/// elements with an explicit spelling: the AVX2 kernel on both vector
/// paths, the scalar twin [`exp`] otherwise. Both give the same bits;
/// tests use this to run both inside one process. `path` must be
/// supported on this host ([`SimdPath::is_supported`]).
#[inline]
pub fn exp_shifted_on_path(path: SimdPath, src: &[f32], shift: f32, dst: &mut [f32]) {
    match path {
        SimdPath::Avx512 | SimdPath::Avx2Fma => {
            assert!(
                fma_semantics(),
                "a vector SimdPath dispatched on a host without AVX2+FMA"
            );
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 availability was just verified via the cached
            // runtime detection, and the kernel bounds every access by
            // `min(src.len(), dst.len())`.
            unsafe {
                avx2::exp_shifted(src, shift, dst);
            }
        }
        SimdPath::ScalarFma | SimdPath::Scalar => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = exp(v - shift);
            }
        }
    }
}

/// Runs the explicit AVX2+FMA microkernel: accumulates the full packed
/// reduction of `apanel` (`k x MR`) against `bpanel` (`k x NR`) into
/// `acc`, in strictly ascending `kk` order with one correctly-rounded
/// fused multiply-add per element — bitwise-equal to the `ScalarFma`
/// twin in `microkernel`.
///
/// Panics if the host lacks AVX2+FMA (callers dispatch on [`SimdPath`],
/// which [`path_for`] only sets to `Avx2Fma` after detection).
#[inline]
pub(crate) fn microkernel_avx2(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    assert!(
        fma_semantics(),
        "SimdPath::Avx2Fma dispatched on a host without AVX2+FMA"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2+FMA availability was just verified via the cached
    // runtime detection, and the kernel bounds its reads by the panel
    // slice lengths.
    unsafe {
        avx2::kernel(apanel, bpanel, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("fma_semantics() is false off x86-64");
}

/// Runs the explicit AVX-512 paired-strip microkernel: accumulates the
/// packed `apanel` (`k x MR`) against two packed `B` strips (`k x NR`
/// each) into the two adjacent accumulator tiles, as one 6x32 register
/// tile. Each element is one ascending-`kk` chain of correctly rounded
/// fused multiply-adds, so the result is bitwise-equal to two
/// [`microkernel_avx2`] (or `ScalarFma` twin) calls, one per strip.
///
/// Panics if the host lacks AVX-512 (callers dispatch on [`SimdPath`],
/// which [`path_for`] only sets to `Avx512` after detection).
#[inline]
pub(crate) fn microkernel_avx512_pair(
    apanel: &[f32],
    bpanels: [&[f32]; 2],
    acc: &mut [[[f32; NR]; MR]; 2],
) {
    assert!(
        avx512_detected(),
        "SimdPath::Avx512 dispatched on a host without AVX-512"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX-512F availability was just verified via the cached
    // runtime detection, and the kernel bounds its reads by the panel
    // slice lengths.
    unsafe {
        avx512::kernel_pair(apanel, bpanels, acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx512_detected() is false off x86-64");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR, NR};
    use core::arch::x86_64::{
        __m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    /// The 6x32 AVX-512 register tile: 12 zmm accumulators (6 rows x one
    /// 16-lane vector per `B` strip), two `B`-strip loads and 6 broadcasts
    /// feeding 12 FMAs per `kk` step — the AVX2 kernel's FMA-port-bound
    /// ratio at twice the vector width. Each `NR = 16` strip is exactly
    /// one zmm wide, so the two strips keep their packed layouts and are
    /// simply read side by side. The loop is unrolled four steps deep like
    /// the AVX2 kernel; each element's reduction is one ascending-`kk`
    /// fused-multiply-add chain in one register, bitwise-equal to the
    /// other spellings.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX-512F is available on the executing CPU.
    /// All memory access is bounded by the panel slice lengths.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn kernel_pair(
        apanel: &[f32],
        bpanels: [&[f32]; 2],
        acc: &mut [[[f32; NR]; MR]; 2],
    ) {
        let k = (apanel.len() / MR)
            .min(bpanels[0].len() / NR)
            .min(bpanels[1].len() / NR);
        let mut ap = apanel.as_ptr();
        let mut bp0 = bpanels[0].as_ptr();
        let mut bp1 = bpanels[1].as_ptr();
        let mut c: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        for (i, ci) in c.iter_mut().enumerate() {
            ci[0] = _mm512_loadu_ps(acc[0][i].as_ptr());
            ci[1] = _mm512_loadu_ps(acc[1][i].as_ptr());
        }
        // One `kk` step: one vector load per strip plus 6 broadcast-FMA
        // pairs, fully unrolled by the constant row bound so every
        // accumulator stays pinned to its own zmm register.
        macro_rules! step {
            () => {
                let b0 = _mm512_loadu_ps(bp0);
                let b1 = _mm512_loadu_ps(bp1);
                for (i, ci) in c.iter_mut().enumerate() {
                    let ai = _mm512_set1_ps(*ap.add(i));
                    ci[0] = _mm512_fmadd_ps(ai, b0, ci[0]);
                    ci[1] = _mm512_fmadd_ps(ai, b1, ci[1]);
                }
                ap = ap.add(MR);
                bp0 = bp0.add(NR);
                bp1 = bp1.add(NR);
            };
        }
        let mut kk = 0;
        while kk + 4 <= k {
            step!();
            step!();
            step!();
            step!();
            kk += 4;
        }
        while kk < k {
            step!();
            kk += 1;
        }
        // The trailing step's pointer bumps are intentionally unused.
        let _ = (ap, bp0, bp1);
        for (i, ci) in c.iter().enumerate() {
            _mm512_storeu_ps(acc[0][i].as_mut_ptr(), ci[0]);
            _mm512_storeu_ps(acc[1][i].as_mut_ptr(), ci[1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_blendv_ps, _mm256_castsi256_ps,
        _mm256_cmp_ps, _mm256_cvttps_epi32, _mm256_floor_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_slli_epi32, _mm256_srai_epi32, _mm256_storeu_ps,
        _mm256_sub_epi32, _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ, _CMP_UNORD_Q,
    };

    /// The 6x16 AVX2+FMA register tile: 12 accumulator vectors (6 rows x
    /// two 8-lane columns), two `B`-panel vector loads and 6 broadcasts
    /// feeding 12 FMAs per `kk` step — an FMA-port-bound ratio (8 load
    /// uops per 12 FMAs), unlike the load-port-bound 8x8 predecessor. The
    /// loop is unrolled two steps deep so pointer updates and loop control
    /// stay off the critical ports, and issues no prefetches: under the
    /// `KC` cache blocking in `macro_tile` the panels are small contiguous
    /// streams the hardware prefetcher tracks on its own. The per-element
    /// reduction is a single ascending-`kk` fused-multiply-add chain —
    /// exactly the scalar `mul_add` twin's order, so the two spellings are
    /// bitwise-equal (unrolling changes nothing: each element's chain
    /// lives in one register either way).
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 and FMA are available on the executing
    /// CPU. All memory access is bounded by the panel slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn kernel(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
        let k = (apanel.len() / MR).min(bpanel.len() / NR);
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        let mut c: [[__m256; 2]; MR] = [
            [
                _mm256_loadu_ps(acc[0].as_ptr()),
                _mm256_loadu_ps(acc[0].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[1].as_ptr()),
                _mm256_loadu_ps(acc[1].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[2].as_ptr()),
                _mm256_loadu_ps(acc[2].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[3].as_ptr()),
                _mm256_loadu_ps(acc[3].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[4].as_ptr()),
                _mm256_loadu_ps(acc[4].as_ptr().add(8)),
            ],
            [
                _mm256_loadu_ps(acc[5].as_ptr()),
                _mm256_loadu_ps(acc[5].as_ptr().add(8)),
            ],
        ];
        // One `kk` step: two B-strip vector loads plus 6 broadcast-FMA
        // pairs, fully unrolled by the constant row bound so every
        // accumulator stays pinned to its own ymm register across the
        // whole reduction.
        macro_rules! step {
            () => {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (i, ci) in c.iter_mut().enumerate() {
                    let ai = _mm256_set1_ps(*ap.add(i));
                    ci[0] = _mm256_fmadd_ps(ai, b0, ci[0]);
                    ci[1] = _mm256_fmadd_ps(ai, b1, ci[1]);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            };
        }
        let mut kk = 0;
        while kk + 4 <= k {
            step!();
            step!();
            step!();
            step!();
            kk += 4;
        }
        while kk < k {
            step!();
            kk += 1;
        }
        // The trailing step's pointer bumps are intentionally unused.
        let _ = (ap, bp);
        for (row, ci) in acc.iter_mut().zip(&c) {
            _mm256_storeu_ps(row.as_mut_ptr(), ci[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), ci[1]);
        }
    }

    /// `dst[i] = exp(src[i] - shift)`, eight lanes at a time; the ragged
    /// tail goes through the scalar twin, which gives the same bits.
    ///
    /// # Safety
    ///
    /// Caller must guarantee AVX2 is available on the executing CPU. All
    /// memory access is bounded by `min(src.len(), dst.len())`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_shifted(src: &[f32], shift: f32, dst: &mut [f32]) {
        let len = src.len().min(dst.len());
        let s = _mm256_set1_ps(shift);
        let mut i = 0;
        while i + 8 <= len {
            let x = _mm256_sub_ps(_mm256_loadu_ps(src.as_ptr().add(i)), s);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), exp8(x));
            i += 8;
        }
        for (d, &v) in dst[i..len].iter_mut().zip(&src[i..len]) {
            *d = super::exp(v - shift);
        }
    }

    /// Eight lanes of [`super::exp`]: the same operations in the same
    /// order, with the special cases blended in at the end instead of
    /// returned early (the main path runs on the clamped input, which
    /// equals the input wherever its result is kept).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn exp8(x: __m256) -> __m256 {
        let lo = _mm256_set1_ps(super::EXP_MIN_INPUT);
        let hi = _mm256_set1_ps(super::EXP_MAX_INPUT);
        let xc = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let z = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(xc, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_sub_ps(xc, _mm256_mul_ps(z, _mm256_set1_ps(super::EXP_LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(z, _mm256_set1_ps(super::EXP_LN2_LO)));
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(super::EXP_POLY[0]);
        for &c in &super::EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
        // 2^n as two exact factors, as in the twin.
        let n = _mm256_cvttps_epi32(z);
        let n1 = _mm256_srai_epi32::<1>(n);
        let n2 = _mm256_sub_epi32(n, n1);
        let bias = _mm256_set1_epi32(127);
        let s1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n1, bias)));
        let s2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n2, bias)));
        let y = _mm256_mul_ps(_mm256_mul_ps(y, s1), s2);
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), _mm256_cmp_ps::<_CMP_LT_OQ>(x, lo));
        let y = _mm256_blendv_ps(
            y,
            _mm256_set1_ps(f32::INFINITY),
            _mm256_cmp_ps::<_CMP_GT_OQ>(x, hi),
        );
        _mm256_blendv_ps(y, x, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_resolution_is_pure_in_env_decision() {
        // Whatever the host, the two env decisions must map to supported
        // paths with identical numeric semantics: the widest and the
        // scalar end of `supported_paths`.
        let on = path_for(true);
        let off = path_for(false);
        let paths = supported_paths();
        assert!(paths.iter().all(|p| p.is_supported()));
        assert_eq!(paths.first(), Some(&on));
        assert_eq!(paths.last(), Some(&off));
        if avx512_detected() {
            assert_eq!(on, SimdPath::Avx512);
            assert_eq!(off, SimdPath::ScalarFma);
            assert!(paths.contains(&SimdPath::Avx2Fma));
        } else if fma_semantics() {
            assert_eq!(on, SimdPath::Avx2Fma);
            assert_eq!(off, SimdPath::ScalarFma);
        } else {
            assert_eq!(on, SimdPath::Scalar);
            assert_eq!(off, SimdPath::Scalar);
        }
        // Cached: repeated resolution cannot flip.
        assert_eq!(active_path(), active_path());
    }

    #[test]
    fn detected_features_tag_is_consistent() {
        let want = match (avx512_detected(), fma_semantics()) {
            (true, _) => "avx512+fma",
            (false, true) => "avx2+fma",
            (false, false) => "none",
        };
        assert_eq!(detected_features(), want);
        assert_eq!(SimdPath::Avx512.is_supported(), avx512_detected());
        assert!(active_path().is_supported());
    }

    #[test]
    fn prefetch_accepts_arbitrary_addresses() {
        let v = [1.0f32; 4];
        prefetch_read(v.as_ptr());
        prefetch_read(v.as_ptr().wrapping_add(1 << 20));
        prefetch_read(std::ptr::null());
    }

    /// `f32` one bit pattern above or below `x`.
    fn step_bits(x: f32, up: bool) -> f32 {
        f32::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
    }

    /// Distance in representable values between two non-negative floats.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `exp` through `f64`, rounded once to `f32`.
    fn exp_ref(x: f32) -> f32 {
        (x as f64).exp() as f32
    }

    /// A strided sweep of all 2^32 bit patterns plus the special inputs:
    /// NaNs, ±inf, ±0, both cut-offs and their neighbours, and inputs
    /// whose exponential is subnormal. The length is not a multiple of 8,
    /// so the vector kernel's scalar tail runs too.
    fn exp_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..u32::MAX / 4099)
            .map(|i| f32::from_bits(i * 4099))
            .collect();
        for x in [EXP_MIN_INPUT, EXP_MAX_INPUT] {
            xs.extend([x, step_bits(x, true), step_bits(x, false)]);
        }
        xs.extend([
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            -88.0,
            -95.5,
            -103.27893,
            -103.97208,
            -104.0,
            88.0,
            88.5,
        ]);
        xs.push(1.0);
        assert_ne!(xs.len() % 8, 0);
        xs
    }

    /// One definition, two spellings: every [`supported_paths`] spelling
    /// gives the scalar twin's bits, with and without a shift.
    #[test]
    fn exp_spellings_agree_bitwise() {
        let xs = exp_sweep();
        for shift in [0.0f32, 3.25, -90.0] {
            let want: Vec<u32> = xs.iter().map(|&x| exp(x - shift).to_bits()).collect();
            for &path in supported_paths() {
                let mut got = vec![f32::NAN; xs.len()];
                exp_shifted_on_path(path, &xs, shift, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "{path:?} x={:?} shift={shift}", xs[i]);
                }
            }
        }
    }

    /// Accuracy on the sweep: within 1 ulp of the correctly rounded value
    /// wherever that value is a normal `f32`, `+0` below the cut-off,
    /// `+inf` above it, and NaN through. The cut-offs are the exact
    /// boundaries of the normal range.
    #[test]
    fn exp_is_within_one_ulp_on_the_sweep() {
        assert!(exp_ref(EXP_MIN_INPUT) >= f32::MIN_POSITIVE);
        assert!(exp_ref(step_bits(EXP_MIN_INPUT, true)) < f32::MIN_POSITIVE);
        assert!(exp_ref(EXP_MAX_INPUT).is_finite());
        assert!(exp_ref(step_bits(EXP_MAX_INPUT, true)).is_infinite());
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        for x in exp_sweep() {
            let got = exp(x);
            if x.is_nan() {
                assert!(got.is_nan(), "NaN in, {got} out");
            } else if x < EXP_MIN_INPUT {
                assert_eq!(got.to_bits(), 0, "x={x:?} must flush to +0");
            } else if x > EXP_MAX_INPUT {
                assert_eq!(got, f32::INFINITY, "x={x:?}");
            } else {
                let want = exp_ref(x);
                assert!(ulps(got, want) <= 1, "x={x:?}: {got:?} vs {want:?}");
            }
        }
    }

    /// Exhaustive form of the accuracy check over every `f32` whose
    /// exponential is a normal `f32` (~2.2·10⁹ inputs, about 1.5–2 min
    /// on one core in release), with every [`supported_paths`] spelling
    /// compared to the twin bit for bit along the way. Run by `scripts/ci.sh`:
    /// `cargo test --release -p lorafusion-tensor --lib exhaustive -- --ignored`.
    #[test]
    #[ignore]
    fn exp_is_within_one_ulp_exhaustively() {
        const BLOCK: u32 = 1 << 14;
        let mut xs = vec![0.0f32; BLOCK as usize];
        let mut got = vec![0.0f32; BLOCK as usize];
        let (mut total, mut inexact, mut worst) = (0u64, 0u64, 0u32);
        // Non-negative inputs up to the overflow cut-off, then negative
        // ones (bit patterns grow with magnitude) down to the flush one.
        for (first, last) in [
            (0u32, EXP_MAX_INPUT.to_bits()),
            ((-0.0f32).to_bits(), EXP_MIN_INPUT.to_bits()),
        ] {
            let mut lo = first;
            loop {
                let hi = last.min(lo.saturating_add(BLOCK - 1));
                let n = (hi - lo + 1) as usize;
                for (slot, b) in xs.iter_mut().zip(lo..=hi) {
                    *slot = f32::from_bits(b);
                }
                let want: Vec<f32> = xs[..n].iter().map(|&x| exp(x)).collect();
                for &path in supported_paths() {
                    exp_shifted_on_path(path, &xs[..n], 0.0, &mut got[..n]);
                    assert!(
                        got[..n]
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                        "{path:?} differs from the twin in [{lo:#x}, {hi:#x}]"
                    );
                }
                for (&x, &w) in xs[..n].iter().zip(&want) {
                    let d = ulps(w, exp_ref(x));
                    assert!(d <= 1, "x={x:?}: {w:?} is {d} ulps off");
                    worst = worst.max(d);
                    inexact += u64::from(d != 0);
                }
                total += n as u64;
                if hi == last {
                    break;
                }
                lo = hi + 1;
            }
        }
        println!(
            "exp: {total} inputs, worst {worst} ulp, {:.3}% not correctly rounded",
            100.0 * inexact as f64 / total as f64
        );
        assert!(total > 2_000_000_000);
    }
}
