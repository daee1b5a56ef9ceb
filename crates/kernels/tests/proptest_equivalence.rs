//! Property-based suite: compile-gated because `proptest` is not
//! vendored in the offline build. Enable with `--features proptest` after
//! re-adding the `proptest` dev-dependency in a networked environment.
//! Deterministic sweep fallbacks live in the regular test suites.
#![cfg(feature = "proptest")]

//! Property-based lossless-ness tests: the fused executors must agree with
//! the unfused reference on random shapes, ranks, dropout rates and seeds.

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::fused::Workspace;
use lorafusion_kernels::multi::MultiLoraLayer;
use lorafusion_kernels::{fused, multi, reference, LoraConfig, LoraLayer, Segment, TrafficModel};
use lorafusion_tensor::ops::all_close;
use lorafusion_tensor::{Matrix, Pcg32};
use proptest::prelude::*;

fn traffic() -> TrafficModel {
    TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
}

#[derive(Debug, Clone)]
struct Case {
    m: usize,
    k: usize,
    n: usize,
    rank: usize,
    dropout: f32,
    seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..24,
        2usize..24,
        2usize..24,
        1usize..6,
        0u8..2,
        any::<u64>(),
    )
        .prop_map(|(m, k, n, rank, drop, seed)| Case {
            m,
            k,
            n,
            rank,
            dropout: if drop == 0 { 0.0 } else { 0.3 },
            seed,
        })
}

fn build_layer(case: &Case) -> (LoraLayer, Matrix, Matrix) {
    let mut rng = Pcg32::seeded(case.seed);
    let cfg = LoraConfig {
        rank: case.rank,
        alpha: 1.5,
        dropout: case.dropout,
        seed: case.seed ^ 0xABCD,
    };
    let layer = LoraLayer::init_nonzero(case.k, case.n, cfg, &mut rng);
    let x = Matrix::random_uniform(case.m, case.k, 1.0, &mut rng);
    let dy = Matrix::random_uniform(case.m, case.n, 1.0, &mut rng);
    (layer, x, dy)
}

/// One forward+backward step through a fresh workspace.
fn fused_step(layer: &LoraLayer, x: &Matrix, dy: &Matrix) -> Workspace {
    let mut ws = Workspace::new();
    ws.forward_into(layer, x, 0).unwrap();
    ws.backward_into(layer, dy).unwrap();
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused step's forward output and saved `X̂` match Torch LoRA.
    #[test]
    fn fused_forward_is_lossless(case in arb_case()) {
        let (layer, x, dy) = build_layer(&case);
        let t = traffic();
        let r = reference::forward(&layer, &x, 0, &t).unwrap();
        let f = fused_step(&layer, &x, &dy);
        prop_assert!(all_close(&f.y, &r.y, 1e-4));
        prop_assert_eq!(&f.x_hat, &r.saved.x_hat);
    }

    /// The fused step's gradients match Torch LoRA.
    #[test]
    fn fused_backward_is_lossless(case in arb_case()) {
        let (layer, x, dy) = build_layer(&case);
        let t = traffic();
        let r_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
        let r = reference::backward(&layer, &r_fwd.saved, &dy, &t).unwrap();
        let f = fused_step(&layer, &x, &dy);
        prop_assert!(all_close(&f.dx, &r.dx, 1e-4));
        prop_assert!(all_close(&f.da, &r.grads.da, 1e-4));
        prop_assert!(all_close(&f.db, &r.grads.db, 1e-4));
    }

    /// FusedMultiLoRA on a random segmentation matches running each
    /// adapter's segment through single-adapter FusedLoRA.
    #[test]
    fn multi_matches_independent_jobs(
        seed in any::<u64>(),
        k in 4usize..16,
        n in 4usize..16,
        lens in prop::collection::vec(1usize..8, 1..5),
    ) {
        let mut rng = Pcg32::seeded(seed);
        let t = traffic();
        let w = Matrix::random_gaussian(k, n, 0.3, &mut rng);
        let adapters: Vec<_> = (0..lens.len())
            .map(|i| {
                let cfg = LoraConfig {
                    rank: 1 + i % 4,
                    alpha: 2.0,
                    dropout: if i % 2 == 0 { 0.0 } else { 0.25 },
                    seed: seed.wrapping_add(i as u64),
                };
                lorafusion_kernels::AdapterWeights::init_nonzero(k, n, cfg, &mut rng)
            })
            .collect();
        let layer = MultiLoraLayer { w, adapters };

        let m: usize = lens.iter().sum();
        let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let dy = Matrix::random_uniform(m, n, 1.0, &mut rng);

        let mut segments = Vec::new();
        let mut cursor = 0;
        for (i, &len) in lens.iter().enumerate() {
            segments.push(Segment {
                adapter: i,
                start: cursor,
                end: cursor + len,
                dropout_row_offset: 0,
            });
            cursor += len;
        }

        let fwd = multi::forward(&layer, &x, &segments, &t).unwrap();
        let bwd = multi::backward(&layer, &fwd.saved, &dy, &t).unwrap();

        for seg in &segments {
            let single = layer.as_single(seg.adapter).unwrap();
            let x_seg = x.slice_rows(seg.start, seg.end).unwrap();
            let dy_seg = dy.slice_rows(seg.start, seg.end).unwrap();
            let solo = fused_step(&single, &x_seg, &dy_seg);

            let joint_y = fwd.y.slice_rows(seg.start, seg.end).unwrap();
            prop_assert!(all_close(&joint_y, &solo.y, 1e-4));
            let joint_dx = bwd.dx.slice_rows(seg.start, seg.end).unwrap();
            prop_assert!(all_close(&joint_dx, &solo.dx, 1e-4));
            let g = &bwd.grads[&seg.adapter];
            prop_assert!(all_close(&g.da, &solo.da, 1e-4));
            prop_assert!(all_close(&g.db, &solo.db, 1e-4));
        }
    }

    /// Traffic accounting is monotone in the token dimension for every
    /// strategy, and fused never exceeds unfused traffic.
    #[test]
    fn traffic_monotone_and_fused_never_worse(m in 64usize..8192, k in 256usize..4096) {
        use lorafusion_gpu::KernelProfile;
        use lorafusion_kernels::Shape;
        let t = traffic();
        let sum = |ks: &[KernelProfile]| ks.iter().map(KernelProfile::bytes_total).sum::<u64>();
        let shape = Shape::new(m, k, k, 16);
        let bigger = Shape::new(m * 2, k, k, 16);

        let fused_now = sum(&fused::forward_profiles(shape, &t))
            + sum(&fused::backward_profiles(shape, &t));
        let fused_big = sum(&fused::forward_profiles(bigger, &t))
            + sum(&fused::backward_profiles(bigger, &t));
        prop_assert!(fused_big > fused_now);

        let torch_now = sum(&reference::forward_profiles(shape, &t))
            + sum(&reference::backward_profiles(shape, &t));
        prop_assert!(fused_now < torch_now);
    }
}
