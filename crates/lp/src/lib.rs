//! Dense two-phase primal simplex linear-programming solver.
//!
//! The exact wrapper/TAM co-optimization baseline of the paper relies on
//! integer linear programming solved with `lpsolve 3.0` (its
//! reference [2]) — a closed-ecosystem C solver. In this workspace the
//! exact step is a specialized branch-and-bound (`tamopt_assign::exact`);
//! this crate solves the LP relaxation of the paper's model
//! (`tamopt_assign::ilp::build_model`). It is a small, dependency-free,
//! dense **two-phase primal simplex** implementation sized for those
//! relaxations (tens of variables × tens of rows), with
//!
//! * `≤`, `=`, `≥` constraints and non-negative variables (a bound on a
//!   variable is one more constraint row),
//! * Dantzig pricing with an automatic switch to Bland's rule to
//!   guarantee termination,
//! * infeasibility and unboundedness detection,
//! * dual values and reduced costs read from the same primal solve
//!   ([`Problem::solve_with_duals`]).
//!
//! # Example
//!
//! ```
//! use tamopt_lp::{Problem, Relation};
//!
//! # fn main() -> Result<(), tamopt_lp::LpError> {
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
//! let mut p = Problem::maximize(2);
//! p.set_objective(0, 3.0)?;
//! p.set_objective(1, 2.0)?;
//! p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0)?;
//! p.constraint(&[(0, 1.0), (1, 3.0)], Relation::Le, 6.0)?;
//! let sol = p.solve()?;
//! assert!((sol.objective() - 12.0).abs() < 1e-6);
//! assert!((sol.value(0) - 4.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod error;
mod problem;
mod simplex;
mod solution;

pub use crate::dual::DualSolution;
pub use crate::error::LpError;
pub use crate::problem::{Objective, Problem, Relation};
pub use crate::solution::LpSolution;

/// Absolute tolerance used throughout the solver for feasibility and
/// optimality tests.
pub const EPSILON: f64 = 1e-9;
