//! Steady-state allocation gate for the single-adapter fused executor and
//! the chunked fused loss head.
//!
//! A forward+backward step through [`Workspace`] must not touch the heap
//! once warmed up: workspace tensors are `resize`d in place, GEMM packing
//! buffers come from the thread-local arena, and the serial pool path
//! dispatches inline. The same holds for a warmed `fused_linear_ce_into`,
//! whose row-max partials also come from the arena. This file installs a
//! counting global allocator and asserts *zero* allocations and *zero*
//! arena growth events for a warmed step of each.
//!
//! The step is instrumented with `lorafusion-trace` spans and registry
//! counters, so this gate also proves the *disabled*-tracing path costs
//! nothing on the heap: span guards must be inert and counter handles
//! must be resolved (and their one-time registration allocations paid)
//! during warm-up, never in the steady state.
//!
//! It lives in its own test binary so the global allocator cannot count
//! tests of other binaries. Allocations are counted per thread, like the
//! arena's growth events, so neither a sibling test nor the test harness
//! reporting it on another thread lands in a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::fused::Workspace;
use lorafusion_kernels::loss::{fused_linear_ce_into, LinearCeWorkspace};
use lorafusion_kernels::{reference, LoraConfig, LoraLayer, TrafficModel};
use lorafusion_tensor::pool::with_pool;
use lorafusion_tensor::{Matrix, Pcg32, Pool};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The serial pool runs the
    /// whole measured step on the test thread, so nothing it allocates
    /// escapes this count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` cannot panic inside the allocator, even while the
    // thread's locals are torn down; the const-initialized `Cell` itself
    // never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates to `System`, adding only a thread-local
// counter bump; layout and pointer contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; `layout` is forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: our caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero layout), which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: caller-supplied layout forwarded verbatim to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from this allocator (which is `System`
        // underneath) with `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_performs_no_heap_allocation() {
    let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
    let mut rng = Pcg32::seeded(42);
    let cfg = LoraConfig {
        rank: 8,
        alpha: 1.5,
        dropout: 0.25,
        seed: 42,
    };
    let layer = LoraLayer::init_nonzero(96, 80, cfg, &mut rng);
    let x = Matrix::random_uniform(64, 96, 1.0, &mut rng);
    let dy = Matrix::random_uniform(64, 80, 1.0, &mut rng);
    let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();

    // Tracing must be off: this gate covers the disabled path that every
    // production step takes when LORAFUSION_TRACE is unset.
    lorafusion_trace::disable();
    assert!(!lorafusion_trace::enabled());

    // The serial pool dispatches inline; multi-threaded dispatch allocates
    // job state inside the pool (outside the per-layer numeric path this
    // gate covers).
    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = Workspace::new();

        // Warm up: first steps size the workspace tensors and the packing
        // arena, and resolve the trace counter handles (their one-time
        // registration allocates); a second round proves sizing is stable.
        for _ in 0..2 {
            ws.forward_into(&layer, &x, 0).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
        }

        let allocs_before = allocations();
        let growth_before = lorafusion_tensor::arena::growth_events();

        // A disabled span guard in the measured region must be free.
        {
            let _span = lorafusion_trace::span!("zero_alloc.step", m = x.rows());
            ws.forward_into(&layer, &x, 0).unwrap();
            ws.backward_into(&layer, &dy).unwrap();
        }

        let allocs = allocations() - allocs_before;
        let growth = lorafusion_tensor::arena::growth_events() - growth_before;
        assert_eq!(
            allocs, 0,
            "warmed step touched the global allocator {allocs} times"
        );
        assert_eq!(growth, 0, "warmed step grew the arena {growth} times");

        // The warmed step still computes the right thing: bit for bit what
        // a fresh workspace computes, and a forward equal to the reference.
        let mut fresh = Workspace::new();
        fresh.forward_into(&layer, &x, 0).unwrap();
        fresh.backward_into(&layer, &dy).unwrap();
        for (name, warm, cold) in [
            ("y", &ws.y, &fresh.y),
            ("dx", &ws.dx, &fresh.dx),
            ("da", &ws.da, &fresh.da),
            ("db", &ws.db, &fresh.db),
        ] {
            assert_eq!(warm.shape(), cold.shape(), "{name} shape");
            assert!(
                warm.as_slice()
                    .iter()
                    .zip(cold.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "warmed step diverged from a fresh one in {name}"
            );
        }
        assert_eq!(ws.y.as_slice(), ref_fwd.y.as_slice());
    });
}

/// The chunked fused linear+CE head at a ragged multi-chunk shape (600
/// tokens in 256-token chunks, so the last chunk is short) allocates
/// nothing once one call has sized its workspace and the arena.
#[test]
fn warmed_loss_head_performs_no_heap_allocation() {
    let (m, h, v, chunk) = (600, 64, 1000, 256);
    let mut rng = Pcg32::seeded(11);
    let x = Matrix::random_gaussian(m, h, 1.0, &mut rng);
    let w = Matrix::random_gaussian(h, v, 0.5, &mut rng);
    let targets: Vec<u32> = (0..m).map(|_| rng.next_u32() % v as u32).collect();

    lorafusion_trace::disable();
    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = LinearCeWorkspace::new();
        fused_linear_ce_into(&mut ws, &x, &w, &targets, chunk).unwrap();
        let warm_lse: Vec<u32> = ws.lse.iter().map(|l| l.to_bits()).collect();

        let allocs_before = allocations();
        let growth_before = lorafusion_tensor::arena::growth_events();
        fused_linear_ce_into(&mut ws, &x, &w, &targets, chunk).unwrap();
        let allocs = allocations() - allocs_before;
        let growth = lorafusion_tensor::arena::growth_events() - growth_before;
        assert_eq!(
            allocs, 0,
            "warmed loss head touched the global allocator {allocs} times"
        );
        assert_eq!(growth, 0, "warmed loss head grew the arena {growth} times");

        let lse: Vec<u32> = ws.lse.iter().map(|l| l.to_bits()).collect();
        assert_eq!(lse, warm_lse, "warmed loss head diverged from its warm-up");
    });
}

#[test]
fn seeded_allocation_is_caught_by_the_counting_allocator() {
    // The static mirror of this gate is the `alloc-in-hot-path` lint
    // rule; its positive fixture (`crates/lint/fixtures/hot_alloc_pos.rs`)
    // seeds a per-step staging buffer into a hot entry point. This test
    // performs that exact pattern inside the measured window and proves
    // the dynamic gate would catch the same bug the lint flags: the two
    // enforcement tiers agree on what "allocation on the hot path" means.
    let mut rng = Pcg32::seeded(7);
    let cfg = LoraConfig {
        rank: 8,
        alpha: 1.5,
        dropout: 0.25,
        seed: 7,
    };
    let layer = LoraLayer::init_nonzero(96, 80, cfg, &mut rng);
    let x = Matrix::random_uniform(64, 96, 1.0, &mut rng);

    lorafusion_trace::disable();
    let pool = Pool::new(1);
    with_pool(&pool, || {
        let mut ws = Workspace::new();
        for _ in 0..2 {
            ws.forward_into(&layer, &x, 0).unwrap();
        }

        let allocs_before = allocations();

        // The seeded defect from the lint fixture: stage the output
        // through a freshly allocated buffer instead of writing in place.
        ws.forward_into(&layer, &x, 0).unwrap();
        let mut staging = Vec::with_capacity(ws.y.as_slice().len());
        for &v in ws.y.as_slice() {
            staging.push(v);
        }
        std::hint::black_box(&staging);

        let allocs = allocations() - allocs_before;
        assert!(
            allocs > 0,
            "the counting allocator must observe the seeded staging buffer"
        );
    });
}
