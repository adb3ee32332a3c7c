//! # tamopt_engine — deterministic parallel search for the tamopt stack
//!
//! The paper's `Partition_evaluate` scores every unique partition of the
//! TAM width `W` under a shared incumbent bound `τ` — an embarrassingly
//! parallel search. This crate provides the three pieces that let every
//! solver in the workspace run it (and its exact cousins) concurrently
//! *without giving up reproducibility*:
//!
//! * [`SearchBudget`] — the single wall-clock / node / cancellation
//!   budget threaded through all solver layers, replacing the per-crate
//!   `time_limit` fields;
//! * [`SharedIncumbent`] — an atomic `τ` bound workers prune against;
//! * [`search_ranges`] — a `std::thread`-based chunked executor over an
//!   index space `0..len`, whose generation-barrier schedule makes
//!   `threads = N` bit-identical to `threads = 1` (see [`executor`] for
//!   the determinism argument). It hands every chunk to `eval` as a
//!   `Range<u64>` of global indices, and the caller owns what an index
//!   stands for; [`search_generations`] is the same driver with a
//!   per-generation hook in place of the fixed length.
//!
//! No external dependencies: the executor is built on `std::thread`
//! scoped threads, a [`std::sync::Barrier`] pair and atomics.
//!
//! # Example
//!
//! ```
//! use tamopt_engine::{search_ranges, ParallelConfig, SearchBudget, SharedIncumbent};
//!
//! // Minimize (i * 37) % 101 over i in 0..500, pruning with a shared bound.
//! let incumbent = SharedIncumbent::unbounded();
//! let mut best = u64::MAX;
//! let status = search_ranges(
//!     500,
//!     &ParallelConfig::with_threads(4),
//!     &SearchBudget::unlimited(),
//!     || (),
//!     |(), range| -> Result<u64, ()> {
//!         let tau = incumbent.get();
//!         Ok(range.map(|i| (i * 37) % 101).filter(|&v| v < tau).min().unwrap_or(u64::MAX))
//!     },
//!     |chunk_min| {
//!         incumbent.tighten(chunk_min);
//!         best = best.min(chunk_min);
//!         Ok(())
//!     },
//! )
//! .unwrap();
//! assert!(status.is_complete());
//! assert_eq!(best, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod executor;
mod incumbent;
mod ranking;

pub use crate::budget::{CancelHandle, SearchBudget};
pub use crate::executor::{search_generations, search_ranges, ParallelConfig, SearchStatus};
pub use crate::incumbent::SharedIncumbent;
pub use crate::ranking::Ranking;
