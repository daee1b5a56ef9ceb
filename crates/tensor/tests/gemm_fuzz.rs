//! Deterministic shape-fuzz suite for the register-tiled GEMM engine.
//!
//! Cross-checks the microkernel path against a naive triple loop for all
//! three layouts over (a) seeded-random shapes and (b) hand-picked edge
//! shapes that straddle every tile boundary the engine has (`MR`, `NR`,
//! `KC`, `MC`, `NC`, and the degenerate 1-row/1-column cases). A second
//! pass sweeps pool sizes {1, 2, 4, 8} over the same edge shapes and
//! asserts bitwise equality with the single-threaded run.
//!
//! The naive reference accumulates each element in ascending `kk` order
//! with `alpha` folded into `A` — exactly the microkernel's per-element
//! order at *every* `k` since the full-`k` register-accumulation rewrite,
//! so every comparison here is bitwise. On AVX2+FMA hosts the engine's
//! semantics are fused multiply-add (see `lorafusion_tensor::simd`), so
//! the reference mirrors that with `f32::mul_add`. A third suite checks
//! each fused prologue/epilogue path against the multi-pass composition it
//! replaces (`scale` / `add` / `hadamard` / mask materialization), also
//! bitwise. A fourth sweeps the full (layout x shape x thread-count)
//! matrix on every SIMD spelling the host can run and asserts bitwise
//! equality with the scalar twin — the `LORAFUSION_SIMD` contract.

use lorafusion_tensor::matmul::{gemm, Epilogue, Layout, Prologue, KC, MC, MR, NC, NR};
use lorafusion_tensor::ops;
use lorafusion_tensor::pool::Pool;
use lorafusion_tensor::{dropout_mask, simd, DropoutSpec, Matrix, Pcg32, SimdPath};

/// One GEMM through the checked slice-level entry on `pool` and `path`,
/// with the product shape read off the matrix operands.
#[allow(clippy::too_many_arguments)] // the entry's surface, on matrices
fn gemm_on(
    pool: &Pool,
    path: SimdPath,
    layout: Layout,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    prologue: Prologue<'_>,
    epilogue: Epilogue,
) {
    let (m, n) = c.shape();
    let k = match layout {
        Layout::Nn | Layout::Nt => a.cols(),
        Layout::Tn => a.rows(),
    };
    gemm(
        pool,
        path,
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
    .unwrap();
}

/// Naive `C (+)= alpha * A' @ B'` with per-element ascending-`kk` order and
/// alpha folded into `A`, matching the engine's single-`k`-block order.
fn naive(
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    trans_a: bool,
    trans_b: bool,
    overwrite: bool,
) {
    let (m, n) = c.shape();
    let k = if trans_a { a.rows() } else { a.cols() };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = if trans_a {
                    a.get(kk, i).unwrap()
                } else {
                    a.get(i, kk).unwrap()
                };
                let bv = if trans_b {
                    b.get(j, kk).unwrap()
                } else {
                    b.get(kk, j).unwrap()
                };
                // Mirror the engine's host-determined numeric semantics:
                // one correctly-rounded fused multiply-add per `kk` on
                // FMA hosts, historical mul-then-add everywhere else.
                if simd::fma_semantics() {
                    acc = (alpha * av).mul_add(bv, acc);
                } else {
                    acc += (alpha * av) * bv;
                }
            }
            // The engine folds the register tile into `C` with one add per
            // element (`C += tile`), so the `Add` reference must do the
            // same rather than seeding the running sum with `C`.
            let val = if overwrite {
                acc
            } else {
                c.get(i, j).unwrap() + acc
            };
            c.set(i, j, val).unwrap();
        }
    }
}

fn rel_close(x: f32, y: f32, tol: f32) -> bool {
    (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()))
}

fn assert_matches(label: &str, got: &Matrix, want: &Matrix, bitwise: bool) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        if bitwise {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: element {idx}: {g} vs {w}"
            );
        } else {
            assert!(
                rel_close(*g, *w, 1e-4),
                "{label}: element {idx}: {g} vs {w}"
            );
        }
    }
}

/// Runs one (shape, layout, overwrite-or-add) case on `pool` and checks
/// it against the naive reference.
fn check_case(pool: &Pool, m: usize, k: usize, n: usize, alpha: f32, seed: u64) {
    let mut rng = Pcg32::seeded(seed);
    let a = Matrix::random_gaussian(m, k, 1.0, &mut rng);
    let b = Matrix::random_gaussian(k, n, 1.0, &mut rng);
    let at = a.transpose();
    let bt = b.transpose();
    let base = Matrix::random_gaussian(m, n, 1.0, &mut rng);
    // Full-k register accumulation reproduces the naive per-element order
    // exactly, at every k.
    let bitwise = true;
    let label = format!("{m}x{k}x{n} alpha={alpha}");

    for overwrite in [true, false] {
        let epilogue = if overwrite {
            Epilogue::Overwrite
        } else {
            Epilogue::Add
        };
        let mut want = base.clone();
        naive(alpha, &a, &b, &mut want, false, false, overwrite);

        for (layout, a, b) in [
            (Layout::Nn, &a, &b),
            (Layout::Nt, &a, &bt),
            (Layout::Tn, &at, &b),
        ] {
            let mut c = base.clone();
            gemm_on(
                pool,
                simd::active_path(),
                layout,
                alpha,
                a,
                b,
                &mut c,
                Prologue::none(),
                epilogue,
            );
            let tag = layout.tag();
            assert_matches(&format!("{tag} {label} ow={overwrite}"), &c, &want, bitwise);
        }
    }
}

/// Shapes that straddle every blocking boundary of the engine.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 40, NR - 1),
        (MR - 1, KC + 1, 1),
        (MR + 1, 3, NR + 1),
        (MR, KC, NR),
        (2 * MR + 3, 2 * KC + 5, 2 * NR + 7),
        (MC, 7, NC),
        (MC + 1, KC - 1, NC + 1),
        (MC - 1, 2 * KC, NC - 1),
        (16, 70, 257), // 16-row weight-gradient-like shape
        (33, KC + KC / 2, 16),
        (65, 33, 17),
        (1, 40, 9),
        (8, 1, 8),
        (130, 70, 257),
    ]
}

#[test]
fn edge_shapes_match_naive_reference() {
    let pool = Pool::new(2);
    for (i, &(m, k, n)) in edge_shapes().iter().enumerate() {
        for &alpha in &[1.0f32, -0.75] {
            check_case(&pool, m, k, n, alpha, 900 + i as u64);
        }
    }
}

#[test]
fn random_shape_fuzz_matches_naive_reference() {
    let pool = Pool::new(3);
    let mut shape_rng = Pcg32::seeded(0xF00D);
    // Seeded-random shapes biased toward tile-boundary straddles: raw
    // draws in 1..=96 plus draws snapped to a multiple-of-tile +/- 1.
    let mut dim = |snap: usize| -> usize {
        let raw = 1 + (shape_rng.next_u32() as usize % 96);
        if shape_rng.next_u32().is_multiple_of(2) {
            raw
        } else {
            let mult = 1 + (shape_rng.next_u32() as usize % 3);
            (snap * mult + (shape_rng.next_u32() as usize % 3)).saturating_sub(1)
        }
        .max(1)
    };
    for case in 0..40 {
        let m = dim(MR);
        let k = dim(KC.min(64));
        let n = dim(NR);
        let alpha = if case % 3 == 0 {
            1.0
        } else {
            0.5 + case as f32 * 0.125
        };
        check_case(&pool, m, k, n, alpha, 3000 + case);
    }
}

/// Checks every fused prologue/epilogue path against the multi-pass
/// composition it replaces, bitwise, for all three layouts.
fn check_fused_paths(pool: &Pool, m: usize, k: usize, n: usize, seed: u64) {
    let alpha = 1.25f32;
    let s = -0.75f32;
    let spec = DropoutSpec::new(0.35, seed ^ 0xD0).with_row_offset((seed as usize % 2) * 5);
    for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
        let mut rng = Pcg32::seeded(seed);
        let (a, b) = match layout {
            Layout::Nn => (
                Matrix::random_gaussian(m, k, 1.0, &mut rng),
                Matrix::random_gaussian(k, n, 1.0, &mut rng),
            ),
            Layout::Nt => (
                Matrix::random_gaussian(m, k, 1.0, &mut rng),
                Matrix::random_gaussian(n, k, 1.0, &mut rng),
            ),
            Layout::Tn => (
                Matrix::random_gaussian(k, m, 1.0, &mut rng),
                Matrix::random_gaussian(k, n, 1.0, &mut rng),
            ),
        };
        let base = Matrix::random_gaussian(m, n, 1.0, &mut rng);
        let tag = layout.tag();
        let label = format!("{tag} {m}x{k}x{n}");

        // Plain product P = alpha * A' @ B' through the same engine; the
        // compositions below are the multi-pass spellings each epilogue
        // replaces.
        let mut p = Matrix::zeros(m, n);
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a,
            &b,
            &mut p,
            Prologue::none(),
            Epilogue::Overwrite,
        );

        // Scaled(s) == scale(s, matmul(...)), even over stale output.
        let want = ops::scale(s, &p);
        let mut got = base.clone();
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a,
            &b,
            &mut got,
            Prologue::none(),
            Epilogue::Scaled(s),
        );
        assert_matches(&format!("{label} scaled"), &got, &want, true);

        // AddScaled(s) == add(C, scale(s, matmul(...))).
        let want = ops::add(&base, &ops::scale(s, &p)).unwrap();
        let mut got = base.clone();
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a,
            &b,
            &mut got,
            Prologue::none(),
            Epilogue::AddScaled(s),
        );
        assert_matches(&format!("{label} addscaled"), &got, &want, true);

        // AddMasked(spec) == add(C, hadamard(matmul(...), mask)).
        let mask = dropout_mask(m, n, &spec).unwrap();
        let want = ops::add(&base, &ops::hadamard(&p, &mask).unwrap()).unwrap();
        let mut got = base.clone();
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a,
            &b,
            &mut got,
            Prologue::none(),
            Epilogue::AddMasked(spec),
        );
        assert_matches(&format!("{label} addmasked"), &got, &want, true);

        // Dropout prologue (+ emit) == matmul(hadamard(A, mask_a), B),
        // with the mask in the A source's own coordinates and the emitted
        // buffer equal to the materialized X̂.
        let (src_rows, src_cols) = a.shape();
        let amask = dropout_mask(src_rows, src_cols, &spec).unwrap();
        let a_hat = ops::hadamard(&a, &amask).unwrap();
        let mut want = Matrix::zeros(m, n);
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a_hat,
            &b,
            &mut want,
            Prologue::none(),
            Epilogue::Overwrite,
        );
        let mut emit = vec![f32::NAN; a.len()];
        let mut got = base.clone();
        gemm_on(
            pool,
            simd::active_path(),
            layout,
            alpha,
            &a,
            &b,
            &mut got,
            Prologue {
                dropout: Some(spec),
                softmax_grad: None,
                emit: Some(&mut emit),
            },
            Epilogue::Overwrite,
        );
        assert_matches(&format!("{label} prologue"), &got, &want, true);
        for (idx, (g, w)) in emit.iter().zip(a_hat.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label} emit element {idx}: {g} vs {w}"
            );
        }
    }
}

#[test]
fn fused_paths_match_multipass_compositions() {
    let pool = Pool::new(2);
    for (i, &(m, k, n)) in edge_shapes().iter().enumerate() {
        check_fused_paths(&pool, m, k, n, 500 + i as u64);
    }
}

#[test]
fn fused_paths_are_bitwise_identical_across_thread_counts() {
    // Passing the composition check under every pool size implies the
    // fused paths themselves are bitwise-identical across thread counts
    // (the compositions are deterministic by the suites above).
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        for (i, &(m, k, n)) in [(MR + 1, 3, NR + 1), (MC + 1, KC + 1, NC + 1), (16, 70, 257)]
            .iter()
            .enumerate()
        {
            check_fused_paths(&pool, m, k, n, 800 + i as u64);
        }
    }
}

/// The `LORAFUSION_SIMD` contract: for every (layout x shape x
/// thread-count) case, every spelling this host can run must be
/// bitwise-equal to the scalar twin. Passes each `supported_paths`
/// spelling to the slice-level entry rather than setting the env var, which is unreliable
/// under the parallel test runner; `path_for` picks the env override's
/// two paths from the ends of that same list, and on an AVX-512 host the
/// AVX2 kernel in between is only reachable this way.
#[test]
fn every_simd_spelling_is_bitwise_identical() {
    let paths = simd::supported_paths();
    let (&twin, vector) = paths.split_last().unwrap();
    assert!(paths.iter().all(|p| p.is_supported()));
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        for (i, &(m, k, n)) in edge_shapes().iter().enumerate() {
            let mut rng = Pcg32::seeded(9000 + i as u64);
            for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
                let (a, b) = match layout {
                    Layout::Nn => (
                        Matrix::random_gaussian(m, k, 1.0, &mut rng),
                        Matrix::random_gaussian(k, n, 1.0, &mut rng),
                    ),
                    Layout::Nt => (
                        Matrix::random_gaussian(m, k, 1.0, &mut rng),
                        Matrix::random_gaussian(n, k, 1.0, &mut rng),
                    ),
                    Layout::Tn => (
                        Matrix::random_gaussian(k, m, 1.0, &mut rng),
                        Matrix::random_gaussian(k, n, 1.0, &mut rng),
                    ),
                };
                let base = Matrix::random_gaussian(m, n, 1.0, &mut rng);
                let spec = DropoutSpec::new(0.3, 40 + i as u64);
                let label = format!("{} {m}x{k}x{n} t={threads}", layout.tag());
                for (tag, epilogue) in [
                    ("overwrite", Epilogue::Overwrite),
                    ("addscaled", Epilogue::AddScaled(-0.5)),
                ] {
                    let run = |path| {
                        let mut c = base.clone();
                        gemm_on(
                            &pool,
                            path,
                            layout,
                            1.25,
                            &a,
                            &b,
                            &mut c,
                            Prologue::dropout(spec),
                            epilogue,
                        );
                        c
                    };
                    let want = run(twin);
                    for &path in vector {
                        let got = run(path);
                        assert_matches(&format!("{label} {tag} {}", path.tag()), &got, &want, true);
                    }
                }
            }
        }
    }
}

#[test]
fn thread_sweep_is_bitwise_identical_on_edge_shapes() {
    let serial = Pool::new(1);
    let pools: Vec<(usize, Pool)> = [2usize, 4, 8].map(|t| (t, Pool::new(t))).into();
    for (i, &(m, k, n)) in edge_shapes().iter().enumerate() {
        let mut rng = Pcg32::seeded(7000 + i as u64);
        let a = Matrix::random_gaussian(m, k, 1.0, &mut rng);
        let b = Matrix::random_gaussian(k, n, 1.0, &mut rng);
        let at = a.transpose();
        let bt = b.transpose();
        for (layout, a, b) in [
            (Layout::Nn, &a, &b),
            (Layout::Nt, &a, &bt),
            (Layout::Tn, &at, &b),
        ] {
            let run = |pool: &Pool| {
                let mut c = Matrix::zeros(m, n);
                gemm_on(
                    pool,
                    simd::active_path(),
                    layout,
                    1.25,
                    a,
                    b,
                    &mut c,
                    Prologue::none(),
                    Epilogue::Overwrite,
                );
                c
            };
            let want = run(&serial);
            for (threads, pool) in &pools {
                let label = format!("{} {m}x{k}x{n} t={threads}", layout.tag());
                assert_matches(&label, &run(pool), &want, true);
            }
        }
    }
}
