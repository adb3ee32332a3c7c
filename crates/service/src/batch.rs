//! The batch queue: build-then-run over the live dispatcher. A batch
//! run is a [`LiveQueue::replay`] of a trace that submits every queued
//! request at generation 0.

use tamopt_engine::{CancelHandle, SearchBudget};

use crate::live::{LiveConfig, LiveQueue, StoreBinding, Trace};
use crate::report::BatchReport;
use crate::Request;

/// Configuration of [`Batch::run`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Global budget for the whole batch. The deadline and cancellation
    /// flags are intersected into every request; a node budget caps the
    /// number of requests *dispatched* (it does not leak into the
    /// requests' own partition counters).
    pub budget: SearchBudget,
    /// Worker threads of the shared pool (`0` = one per available CPU,
    /// `1` = inline). Pure execution policy: results are bit-identical
    /// for every value.
    pub threads: usize,
    /// Upper bound on requests dispatched per executor generation. The
    /// executor ramps generations exponentially — 1, 2, 4, … requests,
    /// capped here — and polls the global budget between generations, so
    /// this caps the useful parallelism and, together with the ramp,
    /// fixes the deterministic schedule: changing it can change *which*
    /// requests run under a tight budget, but never any request's
    /// result.
    pub requests_per_generation: usize,
    /// Optional persistent warm-start store. When set, the batch seeds
    /// every request from the store's incumbents (work-saving only —
    /// winners are unaffected), records what it finds back, and saves
    /// the store as a live queue does: every
    /// [`snapshot_every`](StoreBinding::snapshot_every) generation
    /// barriers and once at the end of the run. `None` (the default)
    /// keeps batches fully cold and side-effect-free.
    pub store: Option<StoreBinding>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            budget: SearchBudget::unlimited(),
            threads: 1,
            requests_per_generation: 8,
            store: None,
        }
    }
}

impl BatchConfig {
    /// Default configuration with `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig {
            threads,
            ..Self::default()
        }
    }

    /// Tightens the global budget by a wall-clock limit counted from
    /// **now** — build the config when the batch is about to run.
    pub fn time_limit(mut self, limit: std::time::Duration) -> Self {
        self.budget = self.budget.and_time_limit(limit);
        self
    }
}

/// One queued request plus the cancellation handle minted at submission.
#[derive(Debug, Clone)]
struct Entry {
    /// The request, its budget already carrying the entry's cancel flag.
    request: Request,
    handle: CancelHandle,
}

/// A queue of co-optimization requests sharing one worker pool.
///
/// Push requests with [`Batch::push`] (which returns a per-request
/// [`CancelHandle`]), then execute the whole queue with [`Batch::run`].
/// The batch itself is immutable during a run; handles may be tripped
/// from any thread.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    entries: Vec<Entry>,
}

impl Batch {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `request`, returning the handle that cancels it — and only
    /// it — cooperatively. A request cancelled mid-run stops at its next
    /// generation boundary and reports partial-but-valid results; its
    /// siblings are unaffected.
    pub fn push(&mut self, request: Request) -> CancelHandle {
        let (budget, handle) = request.budget.clone().cancellable();
        self.entries.push(Entry {
            request: Request { budget, ..request },
            handle: handle.clone(),
        });
        handle
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cancellation handle of the request at `index` (submission
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn handle(&self, index: usize) -> &CancelHandle {
        &self.entries[index].handle
    }

    /// Runs every queued request on one shared worker pool and returns
    /// the report, outcomes in submission order.
    ///
    /// The run is a [`LiveQueue::replay`] of a trace that submits every
    /// queued request at generation 0, under a [`LiveConfig`] carrying
    /// this config's budget, threads, generation cap and store (warm
    /// starts only with a store attached, no aging, no backlog cap).
    /// Requests are dispatched in priority order (ties keep submission
    /// order), one request per executor chunk: with `threads = N`, up to
    /// `N` requests co-optimize concurrently, and the global budget is
    /// polled between generations. The pool is split proportionally
    /// across each generation's dispatches — every request's inner
    /// partition scan runs `max(1, N / generation_width)` wide, so a
    /// lone request (always generation 0 under the ramp, and whenever
    /// the queue runs low) borrows the whole pool and idle workers
    /// never park while siblings scan single-threaded. The split is
    /// pure execution policy: results are identical for every value.
    /// Requests never dispatched because the budget ran out are
    /// reported as [`Skipped`](crate::RequestStatus::Skipped); a request
    /// cancelled through its [`handle`](Self::handle) still runs and
    /// reports [`Cancelled`](crate::RequestStatus::Cancelled) with its
    /// partial result. Per-request failures (e.g. an infeasible width)
    /// are captured as [`Failed`](crate::RequestStatus::Failed) outcomes
    /// — they never abort the batch.
    pub fn run(&self, config: &BatchConfig) -> BatchReport {
        let mut trace = Trace::new();
        for entry in &self.entries {
            trace = trace.submit_at(0, entry.request.clone());
        }
        let live = LiveConfig {
            budget: config.budget.clone(),
            threads: config.threads,
            requests_per_generation: config.requests_per_generation,
            // A storeless batch stays cold; the warm cache lives for this
            // one run, so it needs no entry cap.
            warm_start: config.store.is_some(),
            warm_capacity: 0,
            store: config.store.clone(),
            ..LiveConfig::default()
        };
        LiveQueue::replay(trace, live).1
    }
}

/// Queues `requests` in order and runs them — [`Batch::push`] +
/// [`Batch::run`] for callers that do not need cancellation handles.
pub fn run_batch(requests: impl IntoIterator<Item = Request>, config: &BatchConfig) -> BatchReport {
    let mut batch = Batch::new();
    for request in requests {
        batch.push(request);
    }
    batch.run(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestStatus;
    use tamopt_soc::benchmarks;

    #[test]
    fn empty_batch_reports_complete() {
        let report = Batch::new().run(&BatchConfig::default());
        assert!(report.complete);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn failed_requests_do_not_abort_the_batch() {
        let mut batch = Batch::new();
        // A degenerate frontier sweep (zero step) fails at dispatch.
        batch.push(
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .frontier(16..=16, 0),
        );
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
        let report = batch.run(&BatchConfig::default());
        assert!(report.complete, "failure is an outcome, not an abort");
        assert_eq!(report.outcomes[0].status, RequestStatus::Failed);
        assert!(report.outcomes[0].error.is_some());
        assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
        assert!(report.outcomes[1].soc_time().is_some());
    }

    #[test]
    fn node_budget_dispatches_highest_priority_first() {
        let mut batch = Batch::new();
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)); // priority 0
        batch.push(
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .max_tams(2)
                .priority(5),
        );
        let config = BatchConfig {
            budget: SearchBudget::node_limited(1),
            ..BatchConfig::default()
        };
        let report = batch.run(&config);
        assert!(!report.complete);
        assert_eq!(
            report.outcomes[0].status,
            RequestStatus::Skipped,
            "the low-priority submission must be the one skipped"
        );
        assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
    }

    #[test]
    fn equal_priorities_dispatch_in_submission_order() {
        let mut batch = Batch::new();
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
        batch.push(Request::new(benchmarks::d695(), 24).unwrap().max_tams(2));
        let config = BatchConfig {
            budget: SearchBudget::node_limited(1),
            ..BatchConfig::default()
        };
        let report = batch.run(&config);
        assert_eq!(report.outcomes[0].status, RequestStatus::Complete);
        assert_eq!(report.outcomes[1].status, RequestStatus::Skipped);
    }
}
