//! Deterministic thread-count sweep: every functional executor must be
//! bitwise identical to its single-threaded run at any pool size.
//!
//! This is the executable form of the pool's determinism contract (see
//! `lorafusion_tensor::pool`): parallel tiles own disjoint outputs and each
//! output element is reduced in the serial floating-point order, so pool
//! size cannot change a single bit. The sweep includes odd shapes (non
//! multiples of the GEMM block size, single-row and single-column cases)
//! where partitioning edge cases would show up first.
//!
//! It also serves as the deterministic fallback for the property-based
//! suites, which are compile-gated behind `--features proptest` in the
//! offline build.

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::fused::Workspace;
use lorafusion_kernels::multi::MultiLoraLayer;
use lorafusion_kernels::{
    full_fusion, multi, reference, LoraConfig, LoraLayer, Segment, Shape, TrafficModel,
};
use lorafusion_tensor::pool::{with_pool, Pool};
use lorafusion_tensor::{Matrix, Pcg32};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn traffic() -> TrafficModel {
    TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(label: &str, threads: usize, reference: &Matrix, got: &Matrix) {
    assert_eq!(reference.shape(), got.shape(), "{label} shape @ {threads}t");
    assert_eq!(
        bits(reference),
        bits(got),
        "{label} differs from serial at {threads} threads"
    );
}

/// Shapes chosen to stress partition boundaries: odd sizes straddling the
/// 64-element GEMM block, degenerate m=1 / k=1 / n=1, and a size larger
/// than one block per dimension.
const SHAPES: [(usize, usize, usize, usize); 5] = [
    (65, 33, 17, 3),
    (1, 40, 9, 2),
    (8, 1, 8, 1),
    (7, 9, 1, 1),
    (130, 96, 70, 16),
];

fn build_layer(
    m: usize,
    k: usize,
    n: usize,
    rank: usize,
    seed: u64,
) -> (LoraLayer, Matrix, Matrix) {
    let mut rng = Pcg32::seeded(seed);
    let cfg = LoraConfig {
        rank,
        alpha: 1.5,
        dropout: 0.2,
        seed: seed ^ 0xABCD,
    };
    let layer = LoraLayer::init_nonzero(k, n, cfg, &mut rng);
    let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
    let dy = Matrix::random_uniform(m, n, 1.0, &mut rng);
    (layer, x, dy)
}

/// One forward+backward step through a fresh workspace.
fn fused_step(layer: &LoraLayer, x: &Matrix, dy: &Matrix) -> Workspace {
    let mut ws = Workspace::new();
    ws.forward_into(layer, x, 0).unwrap();
    ws.backward_into(layer, dy).unwrap();
    ws
}

/// Asserts every tensor a fused step produces is bitwise equal.
fn assert_same_step(tag: &str, threads: usize, base: &Workspace, got: &Workspace) {
    for (label, want, have) in [
        ("y", &base.y, &got.y),
        ("x_hat", &base.x_hat, &got.x_hat),
        ("s", &base.s, &got.s),
        ("ds", &base.ds, &got.ds),
        ("dx", &base.dx, &got.dx),
        ("da", &base.da, &got.da),
        ("db", &base.db, &got.db),
    ] {
        assert_same_bits(&format!("{tag}.{label}"), threads, want, have);
    }
}

#[test]
fn reference_executor_is_bitwise_deterministic_across_threads() {
    let t = traffic();
    for &(m, k, n, rank) in &SHAPES {
        let (layer, x, dy) = build_layer(m, k, n, rank, 11);
        let serial = Pool::new(1);
        let (base_fwd, base_bwd) = with_pool(&serial, || {
            let f = reference::forward(&layer, &x, 0, &t).unwrap();
            let b = reference::backward(&layer, &f.saved, &dy, &t).unwrap();
            (f, b)
        });
        for &threads in &THREAD_SWEEP {
            let pool = Pool::new(threads);
            with_pool(&pool, || {
                let f = reference::forward(&layer, &x, 0, &t).unwrap();
                assert_same_bits("reference.y", threads, &base_fwd.y, &f.y);
                assert_eq!(
                    base_fwd.saved.mask.is_some(),
                    f.saved.mask.is_some(),
                    "reference.mask presence diverged at {threads} threads"
                );
                if let (Some(base_mask), Some(mask)) = (&base_fwd.saved.mask, &f.saved.mask) {
                    assert_same_bits("reference.mask", threads, base_mask, mask);
                }
                let b = reference::backward(&layer, &f.saved, &dy, &t).unwrap();
                assert_same_bits("reference.dx", threads, &base_bwd.dx, &b.dx);
                assert_same_bits("reference.da", threads, &base_bwd.grads.da, &b.grads.da);
                assert_same_bits("reference.db", threads, &base_bwd.grads.db, &b.grads.db);
            });
        }
    }
}

#[test]
fn fused_executor_is_bitwise_deterministic_across_threads() {
    let serial = Pool::new(1);
    let pools: Vec<(usize, Pool)> = THREAD_SWEEP.iter().map(|&t| (t, Pool::new(t))).collect();
    for &(m, k, n, rank) in &SHAPES {
        let (layer, x, dy) = build_layer(m, k, n, rank, 23);
        let tag = format!("fused{m}x{k}x{n}r{rank}");
        let base = with_pool(&serial, || fused_step(&layer, &x, &dy));
        for (threads, pool) in &pools {
            let got = with_pool(pool, || fused_step(&layer, &x, &dy));
            assert_same_step(&tag, *threads, &base, &got);
        }
    }
}

#[test]
fn multi_executor_is_bitwise_deterministic_across_threads() {
    let t = traffic();
    // Three adapters over 50 tokens with uneven segment lengths, one
    // adapter appearing twice (exercises the gradient accumulation path).
    let mut rng = Pcg32::seeded(37);
    let layers: Vec<LoraLayer> = [(2usize, 0.0f32), (4, 0.2), (3, 0.1)]
        .iter()
        .map(|&(rank, dropout)| {
            let cfg = LoraConfig {
                rank,
                alpha: 2.0,
                dropout,
                seed: rank as u64 * 101,
            };
            LoraLayer::init_nonzero(24, 18, cfg, &mut rng)
        })
        .collect();
    let layer = MultiLoraLayer::from_layers(&layers).unwrap();
    let segments = [
        Segment {
            adapter: 0,
            start: 0,
            end: 13,
            dropout_row_offset: 0,
        },
        Segment {
            adapter: 1,
            start: 13,
            end: 30,
            dropout_row_offset: 0,
        },
        Segment {
            adapter: 0,
            start: 30,
            end: 31,
            dropout_row_offset: 13,
        },
        Segment {
            adapter: 2,
            start: 31,
            end: 50,
            dropout_row_offset: 0,
        },
    ];
    let x = Matrix::random_uniform(50, 24, 1.0, &mut rng);
    let dy = Matrix::random_uniform(50, 18, 1.0, &mut rng);

    let serial = Pool::new(1);
    let (base_fwd, base_bwd) = with_pool(&serial, || {
        let f = multi::forward(&layer, &x, &segments, &t).unwrap();
        let b = multi::backward(&layer, &f.saved, &dy, &t).unwrap();
        (f, b)
    });
    for &threads in &THREAD_SWEEP {
        let pool = Pool::new(threads);
        with_pool(&pool, || {
            let f = multi::forward(&layer, &x, &segments, &t).unwrap();
            assert_same_bits("multi.y", threads, &base_fwd.y, &f.y);
            let b = multi::backward(&layer, &f.saved, &dy, &t).unwrap();
            assert_same_bits("multi.dx", threads, &base_bwd.dx, &b.dx);
            assert_eq!(
                base_bwd.grads.keys().collect::<Vec<_>>(),
                b.grads.keys().collect::<Vec<_>>(),
                "multi grads cover the same adapters at {threads} threads"
            );
            for (adapter, grads) in &base_bwd.grads {
                let got = &b.grads[adapter];
                assert_same_bits("multi.da", threads, &grads.da, &got.da);
                assert_same_bits("multi.db", threads, &grads.db, &got.db);
            }
        });
    }
}

#[test]
fn full_fusion_profiles_are_thread_independent() {
    // full_fusion is a cost-model-only executor (the rejected designs of
    // Fig. 9); its lowering must not depend on the pool either.
    let t = traffic();
    let shape = Shape::new(130, 96, 70, 16);
    let base_recompute = full_fusion::forward_profiles_recompute(shape, &t);
    let base_sync = full_fusion::forward_profiles_sync(shape, &t);
    for &threads in &THREAD_SWEEP {
        let pool = Pool::new(threads);
        with_pool(&pool, || {
            assert_eq!(
                base_recompute,
                full_fusion::forward_profiles_recompute(shape, &t)
            );
            assert_eq!(base_sync, full_fusion::forward_profiles_sync(shape, &t));
        });
    }
}

/// The acceptance-scale witness: the FusedLoRA step forward + backward at
/// the paper's evaluation shape (4096 tokens, 4096x4096 linear, rank 16)
/// is bitwise identical between a 1-thread and a 4-thread pool.
///
/// Ignored by default because the shape is expensive under `cargo test`'s
/// debug profile; run with
/// `cargo test --release -p lorafusion-kernels -- --ignored`.
#[test]
#[ignore = "large shape; run explicitly in release mode"]
fn fused_large_shape_is_bitwise_identical_serial_vs_parallel() {
    let (layer, x, dy) = build_layer(4096, 4096, 4096, 16, 4242);
    let base = with_pool(&Pool::new(1), || fused_step(&layer, &x, &dy));
    let got = with_pool(&Pool::new(4), || fused_step(&layer, &x, &dy));
    assert_same_step("fused4096", 4, &base, &got);
}
