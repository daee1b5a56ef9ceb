//! Dense two-phase primal simplex.
//!
//! Solves the LP relaxation of a [`Problem`] (integrality marks ignored).
//! Variables are shifted to zero lower bounds; finite upper bounds become
//! explicit rows. Phase 1 minimizes artificial infeasibility; phase 2 the
//! real objective. Pivoting uses Dantzig's rule with a Bland fallback after
//! a fixed iteration budget to guarantee termination on degenerate models.
//!
//! All working storage lives in a caller-owned [`LpScratch`] so
//! branch-and-bound can solve thousands of node relaxations without
//! touching the heap: the tableau is one flat row-major buffer that is
//! `resize`d (never reallocated once [`LpScratch::reserve_for`] has run)
//! between solves, and per-node bound changes are passed as an override
//! slice instead of cloning the [`Problem`].

use crate::model::{Problem, Sense, Solution, SolverError, Status};

const EPS: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;

/// Reusable working storage for [`solve_lp_scratch`].
///
/// Holds the row-construction buffers, the flat simplex tableau, the
/// basis bookkeeping, and the result values. A scratch sized by
/// [`LpScratch::reserve_for`] performs no heap allocation on subsequent
/// solves of that problem (at any node-bound override), which is the
/// contract `solver/tests/zero_alloc.rs` enforces.
#[derive(Debug, Default)]
pub(crate) struct LpScratch {
    /// Constraint rows over structural variables, flat `m x n`.
    row_coefs: Vec<f64>,
    row_sense: Vec<Sense>,
    row_rhs: Vec<f64>,
    /// Flat tableau, `m x (total + 1)` row-major; last column is the rhs.
    a: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    cost: Vec<f64>,
    pivot_row: Vec<f64>,
    /// Effective lower bounds used for the shift (base or override).
    lowers: Vec<f64>,
    /// Solution values in the original (unshifted) variable space.
    values: Vec<f64>,
}

/// Status and objective of one scratch solve; the variable assignment
/// stays in [`LpScratch::values`] to avoid a per-solve allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LpOutcome {
    /// [`Status::Optimal`], [`Status::Infeasible`] or [`Status::Unbounded`].
    pub status: Status,
    /// Objective at the returned point (meaningless otherwise).
    pub objective: f64,
}

impl LpScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves every buffer for the worst case this problem can reach —
    /// including branch-and-bound nodes that give previously unbounded
    /// variables finite bounds (each finite upper bound adds a row).
    /// After this call, solves of `problem` under any bound override
    /// allocate nothing.
    pub fn reserve_for(&mut self, problem: &Problem) {
        let n = problem.num_vars();
        let m_max = problem.num_constraints() + n;
        // Worst case every row needs both a slack and an artificial.
        let total_max = n + 2 * m_max;
        // Clear first: `reserve` asks for capacity *beyond the current
        // length*, so reserving over a previous solve's leftovers would
        // grow every buffer once per solve.
        self.row_coefs.clear();
        self.row_sense.clear();
        self.row_rhs.clear();
        self.a.clear();
        self.basis.clear();
        self.in_basis.clear();
        self.cost.clear();
        self.pivot_row.clear();
        self.lowers.clear();
        self.values.clear();
        self.row_coefs.reserve(m_max * n);
        self.row_sense.reserve(m_max);
        self.row_rhs.reserve(m_max);
        self.a.reserve(m_max * (total_max + 1));
        self.basis.reserve(m_max);
        self.in_basis.reserve(total_max);
        self.cost.reserve(total_max);
        self.pivot_row.reserve(total_max + 1);
        self.lowers.reserve(n);
        self.values.reserve(n);
    }

    /// The variable assignment of the last [`Status::Optimal`] solve, in
    /// the original variable space.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Solves the LP relaxation of `problem`, allocating fresh storage.
///
/// Returns [`Status::Optimal`], [`Status::Infeasible`] or
/// [`Status::Unbounded`]; the values vector is in the original (unshifted)
/// variable space.
pub fn solve_lp(problem: &Problem) -> Result<Solution, SolverError> {
    let mut scratch = LpScratch::new();
    let outcome = solve_lp_scratch(problem, None, &mut scratch)?;
    Ok(Solution {
        status: outcome.status,
        objective: outcome.objective,
        values: if outcome.status == Status::Optimal {
            scratch.values.clone()
        } else {
            Vec::new()
        },
    })
}

/// Solves the LP relaxation using caller-owned scratch storage.
///
/// `bounds` optionally overrides the per-variable `(lowers, uppers)`
/// (branch-and-bound node bounds) without mutating or cloning the
/// problem; `None` uses the problem's own bounds. An override with an
/// empty domain (`lower > upper`) reports [`Status::Infeasible`].
pub(crate) fn solve_lp_scratch(
    problem: &Problem,
    bounds: Option<(&[f64], &[f64])>,
    scratch: &mut LpScratch,
) -> Result<LpOutcome, SolverError> {
    problem.validate()?;
    let n = problem.num_vars();

    let infeasible = Ok(LpOutcome {
        status: Status::Infeasible,
        objective: 0.0,
    });

    scratch.lowers.clear();
    match bounds {
        Some((lo, hi)) => {
            debug_assert_eq!(lo.len(), n);
            debug_assert_eq!(hi.len(), n);
            if lo.iter().zip(hi).any(|(l, u)| l > u) {
                return infeasible;
            }
            scratch.lowers.extend_from_slice(lo);
        }
        None => scratch
            .lowers
            .extend(problem.variables().iter().map(|v| v.lower)),
    }

    // Build rows over the shifted variables y = x - l >= 0, normalizing
    // rhs >= 0 as we go.
    scratch.row_coefs.clear();
    scratch.row_sense.clear();
    scratch.row_rhs.clear();
    for c in problem.constraints() {
        let base = scratch.row_coefs.len();
        scratch.row_coefs.resize(base + n, 0.0);
        let coefs = &mut scratch.row_coefs[base..];
        let mut shift = 0.0;
        for &(id, coef) in &c.terms {
            coefs[id.0] += coef;
            shift += coef * scratch.lowers[id.0];
        }
        let mut rhs = c.rhs - shift;
        let mut sense = c.sense;
        if rhs < 0.0 {
            for v in coefs.iter_mut() {
                *v = -*v;
            }
            rhs = -rhs;
            sense = match sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
        scratch.row_sense.push(sense);
        scratch.row_rhs.push(rhs);
    }
    // Finite upper bounds become explicit rows y_j <= u_j - l_j.
    for j in 0..n {
        let upper = match bounds {
            Some((_, hi)) => hi[j],
            None => problem.variables()[j].upper,
        };
        if upper.is_finite() {
            let base = scratch.row_coefs.len();
            scratch.row_coefs.resize(base + n, 0.0);
            // The row bound is nonnegative (domains were checked above),
            // so no normalization is needed.
            scratch.row_coefs[base + j] = 1.0;
            scratch.row_sense.push(Sense::Le);
            scratch.row_rhs.push(upper - scratch.lowers[j]);
        }
    }

    let m = scratch.row_rhs.len();
    // Column layout: [structural n][slack/surplus][artificial][rhs].
    let mut num_slack = 0usize;
    let mut num_art = 0usize;
    for sense in &scratch.row_sense {
        match sense {
            Sense::Le => num_slack += 1,
            Sense::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Sense::Eq => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let stride = total + 1;
    let art_start = n + num_slack;

    scratch.a.clear();
    scratch.a.resize(m * stride, 0.0);
    scratch.basis.clear();
    scratch.basis.resize(m, 0);
    scratch.in_basis.clear();
    scratch.in_basis.resize(total, false);
    scratch.pivot_row.clear();
    scratch.pivot_row.resize(stride, 0.0);

    let mut slack_idx = n;
    let mut art_idx = art_start;
    for i in 0..m {
        let row = &mut scratch.a[i * stride..(i + 1) * stride];
        row[..n].copy_from_slice(&scratch.row_coefs[i * n..(i + 1) * n]);
        row[total] = scratch.row_rhs[i];
        match scratch.row_sense[i] {
            Sense::Le => {
                row[slack_idx] = 1.0;
                scratch.basis[i] = slack_idx;
                slack_idx += 1;
            }
            Sense::Ge => {
                row[slack_idx] = -1.0;
                slack_idx += 1;
                row[art_idx] = 1.0;
                scratch.basis[i] = art_idx;
                art_idx += 1;
            }
            Sense::Eq => {
                row[art_idx] = 1.0;
                scratch.basis[i] = art_idx;
                art_idx += 1;
            }
        }
    }
    for &b in &scratch.basis {
        scratch.in_basis[b] = true;
    }

    // Phase 1: minimize the sum of artificial variables.
    if num_art > 0 {
        scratch.cost.clear();
        scratch.cost.resize(total, 0.0);
        for c in &mut scratch.cost[art_start..total] {
            *c = 1.0;
        }
        let status = run_simplex(
            &mut scratch.a,
            stride,
            &mut scratch.basis,
            &mut scratch.in_basis,
            &scratch.cost,
            total,
            art_start,
            &mut scratch.pivot_row,
        );
        if status == InnerStatus::Unbounded {
            // Phase 1 is bounded below by 0; this cannot happen on a sound
            // tableau, treat as infeasible defensively.
            return infeasible;
        }
        let phase1_obj: f64 = scratch
            .basis
            .iter()
            .enumerate()
            .filter(|(_, &bj)| bj >= art_start)
            .map(|(i, _)| scratch.a[i * stride + total])
            .sum();
        if phase1_obj > FEAS_TOL {
            return infeasible;
        }
        // Drive remaining (degenerate) artificials out of the basis.
        for i in 0..m {
            if scratch.basis[i] >= art_start {
                if let Some(col) = (0..art_start).find(|&j| scratch.a[i * stride + j].abs() > EPS) {
                    pivot(
                        &mut scratch.a,
                        stride,
                        &mut scratch.basis,
                        &mut scratch.in_basis,
                        i,
                        col,
                        total,
                        &mut scratch.pivot_row,
                    );
                }
                // If no pivot column exists the row is all-zero: harmless.
            }
        }
    }

    // Phase 2: original objective over shifted variables (constant term
    // from the shift is re-added at the end via objective_value).
    scratch.cost.clear();
    scratch.cost.resize(total, 0.0);
    scratch.cost[..n].copy_from_slice(problem.objective());
    let status = run_simplex(
        &mut scratch.a,
        stride,
        &mut scratch.basis,
        &mut scratch.in_basis,
        &scratch.cost,
        total,
        art_start,
        &mut scratch.pivot_row,
    );
    if status == InnerStatus::Unbounded {
        return Ok(LpOutcome {
            status: Status::Unbounded,
            objective: f64::NEG_INFINITY,
        });
    }

    scratch.values.clear();
    scratch.values.extend_from_slice(&scratch.lowers);
    for (i, &bj) in scratch.basis.iter().enumerate() {
        if bj < n {
            scratch.values[bj] += scratch.a[i * stride + total];
        }
    }
    let objective = problem.objective_value(&scratch.values);
    Ok(LpOutcome {
        status: Status::Optimal,
        objective,
    })
}

#[derive(Debug, PartialEq, Eq)]
enum InnerStatus {
    Optimal,
    Unbounded,
}

/// Runs primal simplex on the flat tableau; columns from `forbid`
/// (artificials in phase 2) are never allowed to enter.
#[allow(clippy::too_many_arguments)]
fn run_simplex(
    a: &mut [f64],
    stride: usize,
    basis: &mut [usize],
    in_basis: &mut [bool],
    cost: &[f64],
    total: usize,
    forbid: usize,
    pivot_row: &mut [f64],
) -> InnerStatus {
    let m = basis.len();
    let max_dantzig = 20 * (m + total) + 200;
    let max_iters = 200 * (m + total) + 2000;

    for iter in 0..max_iters {
        // Reduced costs: r_j = c_j - c_B B^-1 A_j, computed directly from
        // the maintained tableau.
        let mut entering: Option<usize> = None;
        let mut best = -EPS;
        for j in 0..total {
            // Artificial columns never (re-)enter: they start basic in
            // phase 1 and are forbidden in phase 2.
            if j >= forbid || in_basis[j] {
                continue;
            }
            let mut rj = cost[j];
            for (i, &bi) in basis.iter().enumerate() {
                let cb = cost[bi];
                if cb != 0.0 {
                    rj -= cb * a[i * stride + j];
                }
            }
            if iter < max_dantzig {
                if rj < best {
                    best = rj;
                    entering = Some(j);
                }
            } else if rj < -EPS {
                // Bland: first improving column.
                entering = Some(j);
                break;
            }
        }
        let Some(e) = entering else {
            return InnerStatus::Optimal;
        };

        // Ratio test (Bland ties by smallest basis index).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if a[i * stride + e] > EPS {
                let ratio = a[i * stride + total] / a[i * stride + e];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return InnerStatus::Unbounded;
        };
        pivot(a, stride, basis, in_basis, l, e, total, pivot_row);
    }
    // Iteration budget exhausted: report the current (feasible) point as
    // optimal-so-far; on these problem sizes this path is unreachable.
    InnerStatus::Optimal
}

#[allow(clippy::too_many_arguments)]
fn pivot(
    a: &mut [f64],
    stride: usize,
    basis: &mut [usize],
    in_basis: &mut [bool],
    row: usize,
    col: usize,
    total: usize,
    pivot_row: &mut [f64],
) {
    let p = a[row * stride + col];
    for v in &mut a[row * stride..row * stride + total + 1] {
        *v /= p;
    }
    // Copy the pivot row out so the eliminations below can read it while
    // mutating the other rows of the flat buffer.
    pivot_row[..=total].copy_from_slice(&a[row * stride..row * stride + total + 1]);
    let m = basis.len();
    for i in 0..m {
        if i == row {
            continue;
        }
        let f = a[i * stride + col];
        if f.abs() > 0.0 {
            for (v, &pv) in a[i * stride..i * stride + total + 1]
                .iter_mut()
                .zip(&pivot_row[..=total])
            {
                *v -= f * pv;
            }
        }
    }
    in_basis[basis[row]] = false;
    in_basis[col] = true;
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    #[test]
    fn solves_textbook_lp() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), 36.
        let mut p = Problem::new();
        let x = p.add_var(-3.0, 0.0, f64::INFINITY);
        let y = p.add_var(-5.0, 0.0, f64::INFINITY);
        p.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective + 36.0).abs() < 1e-6);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn handles_ge_and_eq_constraints() {
        // min x + y  s.t. x + y >= 3, x - y == 1 => (2, 1), 3.
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - 3.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Sense::Ge, 5.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, f64::INFINITY);
        p.add_constraint(vec![(x, -1.0)], Sense::Le, 0.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Unbounded);
    }

    #[test]
    fn respects_variable_bounds() {
        // min -x with x in [0, 7].
        let mut p = Problem::new();
        let _x = p.add_var(-1.0, 0.0, 7.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.values[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn respects_nonzero_lower_bounds() {
        // min x + y with x >= 2, y in [3, 10], x + y >= 6 => (3, 3) or (2, 4): obj 6.
        let mut p = Problem::new();
        let x = p.add_var(1.0, 2.0, f64::INFINITY);
        let y = p.add_var(1.0, 3.0, 10.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 6.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!(sol.values[0] >= 2.0 - 1e-9);
        assert!(sol.values[1] >= 3.0 - 1e-9);
    }

    #[test]
    fn degenerate_problems_terminate() {
        // Classic degenerate LP; Bland fallback must prevent cycling.
        let mut p = Problem::new();
        let x1 = p.add_var(-0.75, 0.0, f64::INFINITY);
        let x2 = p.add_var(150.0, 0.0, f64::INFINITY);
        let x3 = p.add_var(-0.02, 0.0, f64::INFINITY);
        let x4 = p.add_var(6.0, 0.0, f64::INFINITY);
        p.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(vec![(x3, 1.0)], Sense::Le, 1.0);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective + 0.05).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn lp_relaxation_of_binary_problem() {
        // min -(x + y) with x, y binary and x + y <= 1.5 relaxes to 1.5.
        let mut p = Problem::new();
        let x = p.add_bin_var(-1.0);
        let y = p.add_bin_var(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let sol = solve_lp(&p).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective + 1.5).abs() < 1e-6);
    }

    #[test]
    fn bound_override_matches_modified_problem() {
        // Overriding bounds through the scratch API must agree with
        // baking the same bounds into the problem (the branch-and-bound
        // node contract).
        let mut p = Problem::new();
        let x = p.add_int_var(-1.0, 0.0, 10.0);
        let y = p.add_var(-1.0, 0.0, 10.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 7.5);

        let mut q = p.clone();
        q.set_bounds(x, 0.0, 3.0);
        let expect = solve_lp(&q).unwrap();

        let mut scratch = LpScratch::new();
        let lowers = [0.0, 0.0];
        let uppers = [3.0, 10.0];
        let outcome = solve_lp_scratch(&p, Some((&lowers, &uppers)), &mut scratch).unwrap();
        assert_eq!(outcome.status, Status::Optimal);
        assert!((outcome.objective - expect.objective).abs() < 1e-9);
        assert_eq!(scratch.values(), expect.values.as_slice());
    }

    #[test]
    fn scratch_reuse_is_consistent_across_solves() {
        // The same scratch must give identical answers when reused for
        // different problems back to back.
        let mut scratch = LpScratch::new();

        let mut p1 = Problem::new();
        let x = p1.add_var(-3.0, 0.0, f64::INFINITY);
        let y = p1.add_var(-5.0, 0.0, f64::INFINITY);
        p1.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        p1.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        p1.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);

        let mut p2 = Problem::new();
        let a = p2.add_var(1.0, 0.0, f64::INFINITY);
        let b = p2.add_var(1.0, 0.0, f64::INFINITY);
        p2.add_constraint(vec![(a, 1.0), (b, 1.0)], Sense::Ge, 3.0);
        p2.add_constraint(vec![(a, 1.0), (b, -1.0)], Sense::Eq, 1.0);

        for _ in 0..3 {
            let o1 = solve_lp_scratch(&p1, None, &mut scratch).unwrap();
            assert!((o1.objective + 36.0).abs() < 1e-6);
            let o2 = solve_lp_scratch(&p2, None, &mut scratch).unwrap();
            assert!((o2.objective - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_domain_override_is_infeasible() {
        let mut p = Problem::new();
        let _x = p.add_var(1.0, 0.0, 5.0);
        let mut scratch = LpScratch::new();
        let outcome = solve_lp_scratch(&p, Some((&[3.0], &[2.0])), &mut scratch).unwrap();
        assert_eq!(outcome.status, Status::Infeasible);
    }
}
