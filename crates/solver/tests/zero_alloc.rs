//! Allocation gate for the branch-and-bound core.
//!
//! A MILP solve must not touch the heap per node: the simplex tableau
//! lives in a flat buffer sized once per solve, nodes go into an arena
//! that records one bound tightening each, and per-node bound vectors are
//! rebuilt in place by walking the parent chain. This test installs a
//! counting global allocator and compares the solves of a small and a
//! larger problem of the same form: the larger one explores several times
//! as many nodes, yet may only pay the few extra allocations of the
//! arena's amortized growth.
//!
//! It lives in its own test binary so the global allocator cannot count
//! unrelated tests running on sibling threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lorafusion_solver::{solve_milp, MilpOptions, Problem, Sense, Solution, Status};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System`, adding only a relaxed
// counter bump; layout and pointer contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; `layout` is forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero layout), which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller-supplied layout forwarded verbatim to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// A bin-packing MILP: `items` into up to `bins` bins of capacity 17,
/// minimizing used bins, with no symmetry breaking so branch-and-bound
/// explores equivalent assignments.
fn bin_packing_problem(items: &[f64], bins: usize) -> Problem {
    let cap = 17.0;
    let mut p = Problem::new();
    let x: Vec<Vec<_>> = items
        .iter()
        .map(|_| (0..bins).map(|_| p.add_bin_var(0.0)).collect())
        .collect();
    let z: Vec<_> = (0..bins).map(|_| p.add_bin_var(1.0)).collect();
    for xi in &x {
        p.add_constraint(xi.iter().map(|&v| (v, 1.0)).collect(), Sense::Eq, 1.0);
    }
    for (b, &zb) in z.iter().enumerate() {
        let mut terms: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, &w)| (x[i][b], w))
            .collect();
        terms.push((zb, -cap));
        p.add_constraint(terms, Sense::Le, 0.0);
    }
    p
}

/// Allocations, explored nodes and the solution of one solve.
fn measure(p: &Problem) -> (u64, u64, Solution) {
    let nodes_counter = lorafusion_trace::metrics::counter("solver.bb.nodes");
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let nodes_before = nodes_counter.get();
    let sol = solve_milp(p, &MilpOptions::default()).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let nodes = nodes_counter.get() - nodes_before;
    (allocs, nodes, sol)
}

#[test]
fn milp_solve_allocations_do_not_grow_per_node() {
    // Tracing must be off: this gate covers the disabled path that every
    // production solve takes when LORAFUSION_TRACE is unset.
    lorafusion_trace::disable();
    assert!(!lorafusion_trace::enabled());

    // Total weight 24 into 2 bins: a handful of nodes.
    let light = bin_packing_problem(&[9.0, 8.0, 7.0], 2);
    // Total weight 51 into 4 bins: 3 are necessary and sufficient, and
    // proving it takes ~80 nodes.
    let heavy = bin_packing_problem(&[9.0, 8.0, 7.0, 6.0, 5.0, 5.0, 4.0, 4.0, 3.0], 4);
    // Warm up: the first solve pays the one-time trace counter
    // registration.
    solve_milp(&heavy, &MilpOptions::default()).unwrap();

    let (few_allocs, few_nodes, few_sol) = measure(&light);
    let (allocs, nodes, sol) = measure(&heavy);
    assert_eq!(few_sol.status, Status::Optimal);
    assert_eq!(few_sol.objective.round() as i64, 2);
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.objective.round() as i64, 3);
    assert!(
        nodes >= 50 && nodes >= 6 * few_nodes,
        "problem too easy to exercise per-node reuse: {nodes} vs {few_nodes} nodes"
    );
    // Only the node arena and the DFS stack may grow, by doubling: a
    // handful of reallocations however many nodes the tree explores.
    assert!(
        allocs <= few_allocs + 8,
        "{nodes}-node solve allocated {allocs} times, {few_nodes}-node solve {few_allocs}"
    );
}
