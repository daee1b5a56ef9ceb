//! Depth-first branch-and-bound MILP solver.

// lint: allow(wall-clock-in-core) — the deadline is a hard-stop guard
// against pathological MILPs, not a result input: `MAX_NODES` is the
// deterministic bound, and any truncation (by either limit) surfaces as
// `Status::TimedOut` so callers can tell a timed-out solve from an
// optimal one.

use std::time::{Duration, Instant};

use crate::model::{Problem, Solution, SolverError, Status};
use crate::simplex::{solve_lp_scratch, LpScratch};

const INT_TOL: f64 = 1e-6;
/// A node prunes once its LP bound cannot beat the incumbent by more than
/// this (absolute objective units).
const GAP_TOL: f64 = 1e-6;
/// Hard cap on explored nodes, a second safety valve next to the
/// timeout. Unlike the wall-clock timeout this limit is deterministic.
const MAX_NODES: usize = 200_000;

/// Options controlling a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Wall-clock budget; on expiry the best incumbent is returned with
    /// [`Status::TimedOut`] (Algorithm 1's greedy fallback then kicks in at
    /// the scheduler level).
    pub timeout: Duration,
    /// Optional warm-start assignment; if feasible it seeds the incumbent,
    /// letting the tree prune immediately.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(10),
            warm_start: None,
        }
    }
}

/// One branch-and-bound node: a single bound tightening on top of the
/// parent's bounds. The full node bounds are reconstructed by walking the
/// parent chain, so pushing a node costs one fixed-size struct instead of
/// a cloned bounds vector.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index of the parent node in the node arena; `usize::MAX` for the
    /// root.
    parent: usize,
    /// Variable whose bound this node tightens (`usize::MAX` at the root).
    var: usize,
    /// New lower bound (`-inf` when only the upper moved).
    lower: f64,
    /// New upper bound (`+inf` when only the lower moved).
    upper: f64,
    /// LP bound inherited from the parent relaxation.
    lp_bound: f64,
}

/// Solves a mixed-integer linear program by branch-and-bound.
///
/// Returns the best integer-feasible solution found. `status` is
/// [`Status::Optimal`] when the tree was exhausted, [`Status::TimedOut`]
/// when a feasible incumbent exists but the deadline or node cap expired
/// first, and [`Status::Infeasible`] when no feasible point was found.
///
/// The LP tableau and per-node bound vectors are sized once per solve and
/// reused at every node; only the node arena and DFS stack grow, by
/// doubling, so no heap allocation happens per node
/// (`solver/tests/zero_alloc.rs` pins this with a counting allocator).
pub fn solve_milp(problem: &Problem, options: &MilpOptions) -> Result<Solution, SolverError> {
    let _span = lorafusion_trace::span!(
        "solver.milp",
        vars = problem.num_vars(),
        constraints = problem.num_constraints()
    );
    problem.validate()?;
    let deadline = Instant::now() + options.timeout;
    let n = problem.num_vars();

    let mut lp = LpScratch::new();
    lp.reserve_for(problem);

    // Incumbent state.
    let mut incumbent: Vec<f64> = Vec::with_capacity(n);
    let mut candidate: Vec<f64> = Vec::with_capacity(n);
    let mut incumbent_obj = f64::INFINITY;
    let mut have_incumbent = false;
    if let Some(ws) = &options.warm_start {
        if problem.is_feasible(ws, 1e-6) {
            incumbent.extend_from_slice(ws);
            incumbent_obj = problem.objective_value(ws);
            have_incumbent = true;
        }
    }
    // Node attribution goes by how the solve *started*.
    let started_warm = have_incumbent;

    // Root relaxation.
    let root = solve_lp_scratch(problem, None, &mut lp)?;
    match root.status {
        Status::Infeasible => {
            return Ok(if have_incumbent {
                Solution {
                    status: Status::TimedOut,
                    objective: incumbent_obj,
                    values: incumbent,
                }
            } else {
                Solution {
                    status: Status::Infeasible,
                    objective: 0.0,
                    values: vec![],
                }
            })
        }
        Status::Unbounded => {
            // With a feasible incumbent the MILP itself may still be
            // bounded, but for scheduler models (all bounded) this is a
            // modeling error; surface it as unbounded.
            return Ok(Solution {
                status: Status::Unbounded,
                objective: f64::NEG_INFINITY,
                values: vec![],
            });
        }
        _ => {}
    }

    let (nodes_counter, warm_nodes_counter, cold_nodes_counter) = {
        use std::sync::OnceLock;
        type C = lorafusion_trace::metrics::Counter;
        static CELLS: OnceLock<(C, C, C)> = OnceLock::new();
        *CELLS.get_or_init(|| {
            let start = |v| lorafusion_trace::label::Scope::new(&[("start", v)]);
            (
                lorafusion_trace::metrics::counter("solver.bb.nodes"),
                start("warm").counter("solver.bb.nodes"),
                start("cold").counter("solver.bb.nodes"),
            )
        })
    };

    let mut nodes: Vec<Node> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut lowers: Vec<f64> = Vec::with_capacity(n);
    let mut uppers: Vec<f64> = Vec::with_capacity(n);
    nodes.push(Node {
        parent: usize::MAX,
        var: usize::MAX,
        lower: f64::NEG_INFINITY,
        upper: f64::INFINITY,
        lp_bound: root.objective,
    });
    stack.push(0);
    let mut explored = 0usize;
    let mut timed_out = false;

    while let Some(node_idx) = stack.pop() {
        if Instant::now() >= deadline || explored >= MAX_NODES {
            timed_out = true;
            break;
        }
        explored += 1;
        nodes_counter.incr();

        // Prune by the bound inherited from the parent relaxation.
        if have_incumbent && nodes[node_idx].lp_bound >= incumbent_obj - GAP_TOL {
            continue;
        }

        // Reconstruct the node's bounds: base bounds, then every
        // tightening on the path back to the root (max/min are
        // order-independent).
        lowers.clear();
        uppers.clear();
        for v in problem.variables() {
            lowers.push(v.lower);
            uppers.push(v.upper);
        }
        let mut cur = node_idx;
        while nodes[cur].parent != usize::MAX {
            let nd = nodes[cur];
            lowers[nd.var] = lowers[nd.var].max(nd.lower);
            uppers[nd.var] = uppers[nd.var].min(nd.upper);
            cur = nd.parent;
        }
        if lowers.iter().zip(uppers.iter()).any(|(l, u)| l > u) {
            // Empty domain: prune.
            continue;
        }

        let relax = solve_lp_scratch(problem, Some((&lowers, &uppers)), &mut lp)?;
        if relax.status != Status::Optimal {
            continue;
        }
        if have_incumbent && relax.objective >= incumbent_obj - GAP_TOL {
            continue;
        }

        // Find the most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOL;
        for (j, v) in problem.variables().iter().enumerate() {
            if v.integer {
                let x = lp.values()[j];
                let frac = (x - x.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some((j, x));
                }
            }
        }

        match branch_var {
            None => {
                // Integer feasible: round off numerical fuzz and accept.
                candidate.clear();
                candidate.extend_from_slice(lp.values());
                for (j, v) in problem.variables().iter().enumerate() {
                    if v.integer {
                        candidate[j] = candidate[j].round();
                    }
                }
                let objective = problem.objective_value(&candidate);
                let better = !have_incumbent || objective < incumbent_obj;
                if better && problem.is_feasible(&candidate, 1e-5) {
                    incumbent.clear();
                    incumbent.extend_from_slice(&candidate);
                    incumbent_obj = objective;
                    have_incumbent = true;
                }
            }
            Some((j, x)) => {
                // Branch: explore the side closer to the LP value first
                // (pushed last so it pops first).
                let floor = x.floor();
                let down = Node {
                    parent: node_idx,
                    var: j,
                    lower: f64::NEG_INFINITY,
                    upper: floor,
                    lp_bound: relax.objective,
                };
                let up = Node {
                    parent: node_idx,
                    var: j,
                    lower: floor + 1.0,
                    upper: f64::INFINITY,
                    lp_bound: relax.objective,
                };
                let down_idx = nodes.len();
                nodes.push(down);
                let up_idx = nodes.len();
                nodes.push(up);
                if x - floor > 0.5 {
                    stack.push(down_idx);
                    stack.push(up_idx);
                } else {
                    stack.push(up_idx);
                    stack.push(down_idx);
                }
            }
        }
    }

    if started_warm {
        warm_nodes_counter.add(explored as u64);
    } else {
        cold_nodes_counter.add(explored as u64);
    }

    debug_assert!(incumbent.is_empty() || incumbent.len() == n);
    Ok(if have_incumbent {
        Solution {
            status: if timed_out {
                Status::TimedOut
            } else {
                Status::Optimal
            },
            objective: incumbent_obj,
            values: incumbent,
        }
    } else if timed_out {
        Solution {
            status: Status::TimedOut,
            objective: f64::INFINITY,
            values: vec![],
        }
    } else {
        Solution {
            status: Status::Infeasible,
            objective: 0.0,
            values: vec![],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarId};

    #[test]
    fn solves_knapsack_exactly() {
        // max 10a + 13b + 7c with weights 3,4,2 and capacity 6.
        // Optimal: b + c = 20 (weight 6).
        let mut p = Problem::new();
        let a = p.add_bin_var(-10.0);
        let b = p.add_bin_var(-13.0);
        let c = p.add_bin_var(-7.0);
        p.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Sense::Le, 6.0);
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective + 20.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert_eq!(sol.values[0].round() as i64, 0);
        assert_eq!(sol.values[1].round() as i64, 1);
        assert_eq!(sol.values[2].round() as i64, 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // LP relaxation gives x = 1.5; MILP must give x = 1.
        let mut p = Problem::new();
        let x = p.add_int_var(-1.0, 0.0, 10.0);
        p.add_constraint(vec![(x, 2.0)], Sense::Le, 3.0);
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.values[0].round() as i64, 1);
    }

    #[test]
    fn mixed_integer_keeps_continuous_fractional() {
        // min -(x + y), x integer <= 2.5 per constraint, y continuous <= 0.5.
        let mut p = Problem::new();
        let x = p.add_int_var(-1.0, 0.0, 10.0);
        let _y = p.add_var(-1.0, 0.0, 0.5);
        p.add_constraint(vec![(x, 1.0)], Sense::Le, 2.5);
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.values[0].round() as i64, 2);
        assert!((sol.values[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp_is_reported() {
        let mut p = Problem::new();
        let x = p.add_bin_var(1.0);
        let y = p.add_bin_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn warm_start_survives_timeout() {
        // A zero-time budget returns the warm start unchanged.
        let mut p = Problem::new();
        let x = p.add_bin_var(-1.0);
        let y = p.add_bin_var(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        let options = MilpOptions {
            timeout: Duration::from_millis(0),
            warm_start: Some(vec![1.0, 0.0]),
        };
        let sol = solve_milp(&p, &options).unwrap();
        assert_eq!(sol.status, Status::TimedOut);
        assert!((sol.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn bin_packing_matches_brute_force() {
        // Pack items into bins of capacity 10, minimizing used bins.
        let items = [6.0f64, 5.0, 4.0, 3.0, 2.0];
        let bins = 3usize;
        let mut p = Problem::new();
        // x[i][b] = item i in bin b; z[b] = bin b used.
        let x: Vec<Vec<_>> = items
            .iter()
            .map(|_| (0..bins).map(|_| p.add_bin_var(0.0)).collect())
            .collect();
        let z: Vec<_> = (0..bins).map(|_| p.add_bin_var(1.0)).collect();
        for xi in &x {
            p.add_constraint(xi.iter().map(|&v| (v, 1.0)).collect(), Sense::Eq, 1.0);
        }
        for b in 0..bins {
            let mut terms: Vec<_> = items
                .iter()
                .enumerate()
                .map(|(i, &w)| (x[i][b], w))
                .collect();
            terms.push((z[b], -10.0));
            p.add_constraint(terms, Sense::Le, 0.0);
        }
        // Symmetry break: used bins are contiguous.
        for b in 0..bins - 1 {
            p.add_constraint(vec![(z[b], 1.0), (z[b + 1], -1.0)], Sense::Ge, 0.0);
        }
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        // Total weight 20, capacity 10: 2 bins are necessary and achievable
        // (6+4, 5+3+2).
        assert_eq!(sol.objective.round() as i64, 2);
    }

    #[test]
    fn equality_constrained_assignment() {
        // Assign 2 jobs to 2 machines, each machine exactly one job,
        // minimize cost matrix [[4, 2], [3, 5]] => 2 + 3 = 5.
        let mut p = Problem::new();
        let costs = [[4.0, 2.0], [3.0, 5.0]];
        let mut vars = [[VarId(0); 2]; 2];
        for (i, row) in vars.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = p.add_bin_var(costs[i][j]);
            }
        }
        for (i, row) in vars.iter().enumerate() {
            p.add_constraint(vec![(row[0], 1.0), (row[1], 1.0)], Sense::Eq, 1.0);
            p.add_constraint(vec![(vars[0][i], 1.0), (vars[1][i], 1.0)], Sense::Eq, 1.0);
        }
        let sol = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }
}
