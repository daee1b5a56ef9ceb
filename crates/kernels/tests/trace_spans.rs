//! Span-structure determinism gate.
//!
//! Trace *timestamps* are wall-clock and excluded from the repo's
//! determinism contract, but span *structure* — the multiset of
//! `Cat::Work` span paths (names + logical nesting + counts) — must be
//! identical at any thread count. This exercises the logical-parent
//! propagation through the worker pool: segment spans of the
//! multi-LoRA executor run on arbitrary worker threads, yet must land
//! under the same `multi.forward`/`multi.backward` parents that the
//! 1-thread inline path produces.
//!
//! Lives in its own test binary because it flips the process-global
//! capture flag and drains the process-global span buffers; the tests
//! inside still serialize against each other for the same reason.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::contraction::{ContractionPlan, PlannedWorkspace};
use lorafusion_kernels::{
    multi, AdapterWeights, LoraConfig, LoraLayer, MultiLoraLayer, Segment, TrafficModel,
};
use lorafusion_tensor::pool::with_pool;
use lorafusion_tensor::{Matrix, Pcg32, Pool};
use lorafusion_trace::span::{drain_all_events, work_span_paths};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One representative workload: a fused single-adapter step plus a
/// 3-segment multi-adapter forward/backward.
fn run_workload() {
    let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
    let mut rng = Pcg32::seeded(7);
    let (k, n, m) = (96usize, 80usize, 48usize);

    let cfg = LoraConfig {
        rank: 8,
        alpha: 1.25,
        dropout: 0.2,
        seed: 11,
    };
    let layer = LoraLayer::init_nonzero(k, n, cfg, &mut rng);
    let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
    let dy = Matrix::random_uniform(m, n, 1.0, &mut rng);
    let mut ws = PlannedWorkspace::new(ContractionPlan::DEFAULT).unwrap();
    ws.forward_into(&layer, &x, 0).unwrap();
    ws.backward_into(&layer, &dy).unwrap();

    let mlayer = MultiLoraLayer {
        w: Matrix::random_gaussian(k, n, 0.2, &mut rng),
        adapters: vec![
            AdapterWeights::init_nonzero(
                k,
                n,
                LoraConfig {
                    rank: 4,
                    alpha: 1.0,
                    dropout: 0.1,
                    seed: 1,
                },
                &mut rng,
            ),
            AdapterWeights::init_nonzero(
                k,
                n,
                LoraConfig {
                    rank: 8,
                    alpha: 2.0,
                    dropout: 0.0,
                    seed: 2,
                },
                &mut rng,
            ),
        ],
    };
    let seg = |adapter, start, end, off| Segment {
        adapter,
        start,
        end,
        dropout_row_offset: off,
    };
    let segments = vec![seg(0, 0, 16, 0), seg(1, 16, 32, 0), seg(0, 32, m, 16)];
    let fwd = multi::forward(&mlayer, &x, &segments, &t).unwrap();
    let _ = multi::backward(&mlayer, &fwd.saved, &dy, &t).unwrap();
}

/// Captures the Work-span path multiset of one workload run under a
/// pool of `threads` threads.
fn capture_paths(threads: usize) -> BTreeMap<String, u64> {
    lorafusion_trace::enable_capture();
    drain_all_events();
    let pool = Pool::new(threads);
    with_pool(&pool, run_workload);
    lorafusion_trace::disable();
    let events = drain_all_events();
    work_span_paths(&events)
}

#[test]
fn work_span_structure_is_identical_at_any_thread_count() {
    let _serial = serial();
    let baseline = capture_paths(1);

    // The workload actually produces the span tree we claim to compare.
    assert_eq!(baseline.get("contraction.forward"), Some(&1));
    assert_eq!(baseline.get("multi.forward"), Some(&1));
    assert_eq!(baseline.get("multi.forward/multi.segment"), Some(&3));
    assert_eq!(baseline.get("multi.backward/multi.segment"), Some(&3));
    assert!(
        baseline
            .keys()
            .any(|p| p == "multi.forward/multi.segment/gemm.nn"),
        "segment GEMMs must nest under their segment span, got {baseline:?}"
    );
    assert!(
        baseline
            .keys()
            .any(|p| p.starts_with("contraction.forward/gemm")),
        "fused step GEMMs must nest under the executor span"
    );

    for threads in [2usize, 4, 8] {
        let paths = capture_paths(threads);
        assert_eq!(
            paths, baseline,
            "Work span structure diverged at {threads} threads"
        );
    }
}

#[test]
fn fused_backward_includes_expected_gemm_layouts() {
    let _serial = serial();
    let baseline = capture_paths(1);
    for layout in ["gemm.nt", "gemm.tn"] {
        assert!(
            baseline
                .keys()
                .any(|p| p.starts_with("contraction.backward/") && p.ends_with(layout)),
            "missing {layout} under contraction.backward in {baseline:?}"
        );
    }
}
