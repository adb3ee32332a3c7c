//! Core-to-TAM assignment — problem *P_AW* of the paper.
//!
//! Given an SOC, a set of TAMs of fixed widths, and the per-core testing
//! times `T_i(w)` of [`tamopt_wrapper::TimeTable`], *P_AW* asks for the
//! assignment of every core to exactly one TAM (plus a wrapper design per
//! core) minimizing the SOC testing time — the maximum, over TAMs, of the
//! summed testing times of the cores on that TAM (all TAMs test in
//! parallel; cores on one TAM test serially).
//!
//! Two solvers and one model are provided:
//!
//! * [`core_assign`] — the paper's new `Core_assign` heuristic
//!   (Figure 1): largest-testing-time core onto the least-loaded TAM,
//!   with two tie-break rules and an early abort against a best-known
//!   bound `τ`. Runs in `O(N·(N + B))`.
//! * [`exact::solve`] — a specialized branch-and-bound for the underlying
//!   unrelated-machines min-makespan problem; the one exact solver, in
//!   the role of the paper's Section 3.2 ILP at much higher speed.
//! * [`ilp::build_model`] — the LP relaxation of that ILP model
//!   (`N·B + 1` variables, `N + B` rows) on the workspace's own simplex
//!   ([`tamopt_lp`]): a lower bound on the exact time, with TAM and core
//!   duals. Long exact searches weight their Lagrangian load bound with
//!   its TAM duals.
//!
//! # Example
//!
//! ```
//! use tamopt_assign::{core_assign, CoreAssignOptions, CostMatrix, TamSet};
//! use tamopt_soc::benchmarks;
//! use tamopt_wrapper::TimeTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = benchmarks::d695();
//! let table = TimeTable::new(&soc, 64)?;
//! let tams = TamSet::new([32, 16, 16])?;
//! let costs = CostMatrix::from_table(&table, &tams)?;
//! let result = core_assign(&costs, None, &CoreAssignOptions::default())
//!     .into_result()
//!     .expect("no bound given, so never aborted");
//! assert_eq!(result.assignment().len(), soc.num_cores());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
pub mod exact;
mod heuristic;
pub mod ilp;
mod result;
mod tam;

pub use crate::cost::CostMatrix;
pub use crate::error::AssignError;
pub use crate::heuristic::{
    core_assign, core_assign_first_steps, core_assign_widths, AssignScratch, CoreAssignOptions,
    CoreAssignOutcome, TimeColumns,
};
pub use crate::result::AssignResult;
pub use crate::tam::TamSet;
