//! TAM width partitioning and the full co-optimization pipeline —
//! problems *P_PAW* and *P_NPAW* of the paper.
//!
//! Given a total TAM width `W`, the SOC test architecture must decide how
//! many TAMs to build (`B`), how to split `W` over them (a *partition* of
//! `W` into `B` positive parts), and which core rides which TAM. This
//! crate implements both sides of the paper's comparison:
//!
//! * [`exhaustive`] — the baseline of the paper's reference [8]:
//!   enumerate every unique partition and solve each core assignment
//!   *exactly*;
//! * [`evaluate`] — the paper's new `Partition_evaluate` heuristic
//!   (Figure 3) with its three levels of solution-space pruning:
//!   1. only *unique* partitions are enumerated (the Line-1 bound of the
//!      `Increment` procedure — realized here as canonical
//!      non-decreasing enumeration, see [`enumerate`]);
//!   2. evaluation of a partition aborts as soon as any TAM's summed
//!      time reaches the best-known bound `τ` (lines 18–20 of
//!      `Core_assign`);
//!   3. partitions are evaluated with the `O(N²)` heuristic rather than
//!      solved exactly.
//! * [`pipeline`] — the two-step methodology: `Partition_evaluate`
//!   followed by one *exact* re-optimization of the core assignment on
//!   the winning partition (Section 3.2).
//! * [`count`] — partition counting: exact `p(W,B)` and the paper's
//!   asymptotic estimate `V(W,B) ≈ W^(B-1)/(B!·(B-1)!)` used in its
//!   Table 1.
//!
//! # Example
//!
//! ```
//! use tamopt_partition::pipeline::{co_optimize, PipelineConfig};
//! use tamopt_soc::benchmarks;
//! use tamopt_wrapper::TimeTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = benchmarks::d695();
//! let table = TimeTable::new(&soc, 32)?;
//! let result = co_optimize(&table, 32, &PipelineConfig::up_to_tams(4))?;
//! println!(
//!     "best architecture: {} TAMs ({}), {} cycles",
//!     result.tams.len(),
//!     result.tams,
//!     result.optimized.soc_time()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bounds;
pub mod count;
pub mod enumerate;
mod error;
pub mod evaluate;
pub mod exhaustive;
pub mod pipeline;

pub use crate::error::PartitionError;
pub use crate::evaluate::{
    partition_evaluate, partition_evaluate_top_k, EvalResult, EvaluateConfig, PruneStats,
    RankedEvalResult, RankedPartition,
};
pub use crate::pipeline::{
    co_optimize, co_optimize_frontier, co_optimize_frontier_seeded, co_optimize_top_k,
    CoOptimization, FinalStep, FrontierResult, PipelineConfig, RankedCoOptimization,
};
