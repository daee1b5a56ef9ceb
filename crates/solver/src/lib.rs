//! From-scratch LP/MILP solver.
//!
//! The paper's scheduler (Section 5.2, Algorithm 1) packs samples into
//! microbatches by solving two small mixed-integer linear programs per
//! global batch, with a wall-clock timeout and a greedy fallback. The
//! original system uses an off-the-shelf solver; this crate rebuilds the
//! required machinery from scratch:
//!
//! * [`model`] — a problem builder (minimize `cᵀx` subject to linear
//!   constraints, variable bounds, and integrality marks);
//! * [`simplex`] — a dense two-phase primal simplex for the LP relaxation,
//!   with Bland's rule for cycle-freedom;
//! * [`branch_bound`] — depth-first branch-and-bound over the fractional
//!   integer variables, with incumbent warm-starts, LP-bound pruning, and
//!   a deadline.
//!
//! Scale: bin-packing instances here have tens to a few hundred variables.
//! The solver is exact when given time and degrades gracefully (returns the
//! best incumbent with [`model::Status::TimedOut`]) otherwise — exactly the
//! behaviour Algorithm 1 requires.

pub mod branch_bound;
pub mod model;
pub mod simplex;

pub use branch_bound::{solve_milp, MilpOptions};
pub use model::{Constraint, Problem, Sense, Solution, SolverError, Status, VarId};
pub use simplex::solve_lp;
