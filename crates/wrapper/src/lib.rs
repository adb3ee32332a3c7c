//! Test-wrapper design for embedded cores — problem *P_W* of the paper.
//!
//! A test wrapper is the thin shell of scan cells around an embedded core
//! that connects its functional terminals and internal scan chains to the
//! TAM wires feeding it. Given a core and a TAM width `w`, the
//! `Design_wrapper` algorithm (from the authors' earlier JETTA'02 work,
//! reference [8] of the paper) builds at most `w` *wrapper scan chains*
//! such that:
//!
//! 1. the core testing time is minimized, and
//! 2. the TAM width actually used is minimized (the algorithm is
//!    "reluctant" to open a new wrapper chain).
//!
//! The testing time of a core wrapped with scan-in length `s_i`,
//! scan-out length `s_o` and `p` patterns is
//!
//! ```text
//! T = (1 + max(s_i, s_o)) · p + min(s_i, s_o)
//! ```
//!
//! This crate implements:
//!
//! * [`design_wrapper`] — the wrapper construction itself
//!   ([`WrapperDesign`] describes the resulting chains);
//! * [`time_row`] — a core's testing time at every width, in closed
//!   form from one BFD pass per bin count;
//! * [`TimeTable`] — the `T_i(w)` tables consumed by the core-assignment
//!   and partitioning layers, one [`time_row`] per core;
//! * [`pareto`] — Pareto-optimal width analysis (the staircase of
//!   `T(w)`) and the bottleneck lower bound that explains the paper's
//!   p31108 saturation phenomenon.
//!
//! # Example
//!
//! ```
//! use tamopt_soc::Core;
//! use tamopt_wrapper::design_wrapper;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let core = Core::builder("s9234")
//!     .inputs(36)
//!     .outputs(39)
//!     .scan_chains([54, 53, 52, 52])
//!     .patterns(105)
//!     .build()?;
//! let wide = design_wrapper(&core, 16)?;
//! let narrow = design_wrapper(&core, 2)?;
//! assert!(wide.test_time() <= narrow.test_time());
//! assert!(wide.used_width() <= 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod error;
pub mod pareto;
mod table;
mod time;

pub use crate::design::{design_wrapper, time_row, ChainLayout, WrapperDesign};
pub use crate::error::WrapperError;
pub use crate::table::TimeTable;
pub use crate::time::testing_time;
