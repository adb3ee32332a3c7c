//! Batched multi-SOC co-optimization — the service layer of the
//! workspace.
//!
//! A long-running test-architecture service does not optimize one SOC at
//! a time: it receives a *queue* of `(SOC, W)` requests — different
//! chips, widths, TAM ranges, deadlines and priorities — and must run
//! them on one machine without letting any single request monopolize it.
//! This crate turns the deterministic parallel engine of
//! [`tamopt_engine`] into exactly that service:
//!
//! * a [`Request`] bundles one co-optimization job (SOC, total width,
//!   TAM range, per-request [`SearchBudget`], priority) and a typed
//!   [`RequestKind`]: the classic single-architecture *point* query, the
//!   *k* best architectures of one scan ([`Request::top_k`]), or a
//!   Pareto-frontier width sweep ([`Request::frontier`]);
//! * a [`Batch`] queues requests and hands out a
//!   [`CancelHandle`](tamopt_engine::CancelHandle) per request at
//!   submission, so callers can cancel individual jobs while the batch
//!   runs;
//! * [`Batch::run`] executes the queue as a [`LiveQueue::replay`] of a
//!   trace submitting every request at generation 0, so batch and live
//!   serving share one dispatcher (the engine's chunked executor with
//!   one request per chunk): requests are dispatched in priority order,
//!   every request runs under the intersection of the **global** budget
//!   and its **own** budget, and the [`BatchReport`] lists outcomes in
//!   **submission order**, independent of completion order or thread
//!   count;
//! * the report serializes to deterministic JSON
//!   ([`BatchReport::to_json`]) with every wall-clock quantity on its
//!   own `wall_clock*` line, so byte-level diffs across thread counts
//!   need only filter those lines;
//! * a [`LiveQueue`] (module [`live`]) upgrades the batch into a
//!   long-running daemon: non-blocking [`LiveQueue::submit`] while
//!   requests execute, re-prioritization at every generation barrier,
//!   streamed outcomes, deterministic [`Trace`] replay and a warm-start
//!   incumbent cache across requests on the same SOC. It runs `1..N`
//!   shards ([`LiveConfig::shards`]), each with its own dispatcher and
//!   pool: one unstamped shard by default, or `N` shards routed by SOC
//!   fingerprint hash with deterministic work stealing (module
//!   [`shard`]), sharing one warm cache and stamping each outcome with
//!   its shard — trace replay stays bit-identical across thread counts;
//! * a [`StoreBinding`] attaches a persistent, versioned, crash-safe
//!   [`tamopt_store`] warm-start store behind the in-memory cache: the
//!   queue preloads from it at start, feeds it at every merge and
//!   snapshots it at generation barriers and shutdown, so incumbents
//!   (and compressed cost tables) survive restarts. Store hits are
//!   work-saving only — every winner is bit-identical to a cold run's;
//!   the prune statistics just record less work (strictly fewer
//!   completed evaluations once a seed prunes anything).
//!
//! # Determinism
//!
//! The batch schedule (dispatch order, generation geometry) is fixed by
//! the request list and [`BatchConfig::requests_per_generation`] — never
//! by [`BatchConfig::threads`]. Each request's inner partition scan runs
//! on its proportional share of the pool
//! (`max(1, threads / generation_width)`) with the default chunk
//! geometry; the inner thread count is pure execution policy, so a
//! request's result inside a batch is bit-identical to a standalone
//! [`co_optimize`](tamopt_partition::co_optimize) run, and the whole
//! report (minus wall-clock fields) is bit-identical across thread
//! counts. Wall-clock deadlines and cancellation truncate — they never
//! reorder.
//!
//! # Example
//!
//! ```
//! use tamopt_service::{Batch, BatchConfig, Request};
//! use tamopt_soc::benchmarks;
//!
//! let mut batch = Batch::new();
//! batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
//! batch.push(
//!     Request::new(benchmarks::d695(), 24)
//!         .unwrap()
//!         .max_tams(3)
//!         .priority(1),
//! );
//! let report = batch.run(&BatchConfig::default());
//! assert!(report.complete);
//! // Outcomes are in submission order even though the priority-1
//! // request was dispatched first.
//! assert_eq!(report.outcomes[0].width, 16);
//! assert!(report.outcomes[1].soc_time().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod chaos;
pub mod live;
pub mod net;
mod report;
mod request;
pub mod shard;

pub use crate::batch::{run_batch, Batch, BatchConfig};
pub use crate::chaos::{ChaosOutcome, ChaosScenario, ClientScript, ClientTranscript};
pub use crate::live::{
    JournalBinding, LiveConfig, LiveQueue, PendingStat, QueueStats, RequestId, StoreBinding,
    SubmitError, Trace, TraceAction, TraceEvent, DEFAULT_SNAPSHOT_EVERY, DEFAULT_WARM_CAPACITY,
};
pub use crate::net::{
    error_line, Frame, LineFramer, LineParser, NetDirective, NetListener, NetOptions, NetServer,
    MAX_LINE_LEN,
};
pub use crate::report::{BatchReport, RequestOutcome, RequestStatus, ResultEntry, WIRE_VERSION};
pub use crate::request::{Request, RequestError, RequestKind};
pub use crate::shard::{ShardStats, ShardedStats, STEAL_MARGIN};
