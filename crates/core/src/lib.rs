//! # tamopt — wrapper/TAM co-optimization for SOC test architectures
//!
//! A from-scratch reproduction of *Iyengar, Chakrabarty & Marinissen,
//! "Efficient Wrapper/TAM Co-Optimization for Large SOCs" (DATE 2002)*,
//! packaged as the library a DFT engineer would actually use.
//!
//! An SOC integrates many pre-designed cores; testing them requires
//! (1) a *test wrapper* around each core and (2) *test access mechanisms*
//! (TAMs) — on-chip buses of limited total width `W` that carry test
//! data from the chip pins to the wrappers. Cores on one TAM are tested
//! serially; TAMs operate in parallel. Minimizing the SOC testing time
//! means co-optimizing four nested decisions: wrapper design per core
//! (*P_W*), core-to-TAM assignment (*P_AW*), the width partition
//! (*P_PAW*), and the number of TAMs (*P_NPAW*).
//!
//! The centerpiece is the paper's two-step heuristic methodology
//! ([`CoOptimizer`] with [`Strategy::TwoStep`]): the fast
//! `Partition_evaluate`/`Core_assign` heuristics pick an architecture,
//! then one exact optimization pass polishes the core assignment. The
//! exhaustive exact baseline ([`Strategy::Exhaustive`]) is included for
//! comparison, as are all substrates (wrapper design, an exact
//! branch-and-bound for *P_AW*, a simplex LP solver).
//!
//! ## Quick start
//!
//! ```
//! use tamopt::{benchmarks, CoOptimizer};
//!
//! # fn main() -> Result<(), tamopt::TamOptError> {
//! let soc = benchmarks::d695();
//! let architecture = CoOptimizer::new(soc, 32).max_tams(4).run()?;
//! println!("{}", architecture.report());
//! assert_eq!(architecture.tams.total_width(), 32);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper problem |
//! |---|---|---|
//! | [`soc`] | SOC/core model, `.soc` format, benchmarks, generator | — |
//! | [`wrapper`] | `Design_wrapper`, time tables, Pareto analysis | *P_W* |
//! | [`assign`] | `Core_assign`, exact B&B, the Section 3.2 LP relaxation | *P_AW* |
//! | [`partition`] | `Partition_evaluate`, exhaustive baseline, pipeline | *P_PAW*, *P_NPAW* |
//! | [`engine`] | deterministic parallel executor, `SearchBudget`, shared `τ` | — |
//! | [`service`] | batched + live multi-SOC request queues on one worker pool | extension |
//! | [`store`] | persistent, versioned, crash-safe warm-start store | extension |
//! | [`lp`] | dense simplex with duals (lpsolve stand-in) | — |
//! | [`analysis`] | idle-wire / utilization metrics behind the paper's motivation | extension |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod architecture;
mod error;
mod optimizer;
mod query;

pub mod cli;

pub use crate::architecture::Architecture;
pub use crate::error::TamOptError;
pub use crate::optimizer::{CoOptimizer, Strategy};
pub use crate::query::{FrontierPoint, ParetoFrontier, RankedArchitectures};

/// SOC test-data model, benchmarks, generator, `.soc` format
/// (re-export of [`tamopt_soc`]).
pub mod soc {
    pub use tamopt_soc::*;
}

/// Wrapper design and testing-time tables (re-export of
/// [`tamopt_wrapper`]).
pub mod wrapper {
    pub use tamopt_wrapper::*;
}

/// Core-to-TAM assignment solvers (re-export of [`tamopt_assign`]).
pub mod assign {
    pub use tamopt_assign::*;
}

/// Partition optimization and the co-optimization pipeline (re-export of
/// [`tamopt_partition`]).
pub mod partition {
    pub use tamopt_partition::*;
}

/// Deterministic parallel search engine: the unified [`SearchBudget`],
/// the shared incumbent bound and the chunked executor (re-export of
/// [`tamopt_engine`]).
pub mod engine {
    pub use tamopt_engine::*;
}

/// Batched and live multi-SOC co-optimization service: request queues,
/// per-request budgets and cancellation, deterministic batch reports,
/// and the live daemon (`LiveQueue`) with trace replay and warm-start
/// caching (re-export of [`tamopt_service`]). See also
/// [`CoOptimizer::batch`] and [`CoOptimizer::serve`].
pub mod service {
    pub use tamopt_service::*;
}

/// Persistent, versioned, crash-safe warm-start store: incumbents and
/// compressed cost tables per SOC fingerprint, surviving restarts
/// behind the service layer's warm cache (re-export of
/// [`tamopt_store`]). Attach one via [`service::StoreBinding`] /
/// `tamopt serve --store` / `tamopt batch --store`.
pub mod store {
    pub use tamopt_store::*;
}

/// Linear programming substrate (re-export of [`tamopt_lp`]).
pub mod lp {
    pub use tamopt_lp::*;
}

// The everyday vocabulary, flattened for convenience.
pub use tamopt_assign::{AssignResult, CostMatrix, TamSet};
pub use tamopt_engine::{ParallelConfig, SearchBudget};
pub use tamopt_soc::{benchmarks, Core, CoreKind, Soc, SocError};
pub use tamopt_wrapper::{design_wrapper, TimeTable, WrapperDesign};
