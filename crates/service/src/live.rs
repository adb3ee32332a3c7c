//! The live serving daemon: a non-blocking request queue whose one
//! dispatcher owns a long-lived worker pool and re-prioritizes between
//! generations.
//!
//! [`crate::Batch`] is build-then-run: a request arriving mid-run waits
//! for the whole batch. A [`LiveQueue`] removes that limitation — its
//! dispatcher owns an engine worker pool for the queue's lifetime, and
//! the queue accepts [`submit`](LiveQueue::submit) calls *while requests
//! execute*. The dispatcher re-reads its priority queue at every
//! generation barrier of the engine
//! ([`tamopt_engine::search_generations`]), so a high-priority request
//! submitted mid-run preempts queued (not yet dispatched) lower-priority
//! work — bounded by the optional [`LiveConfig::aging`] term, which
//! deterministically raises the effective priority of waiting work so a
//! stream of high-priority submissions cannot starve the backlog.
//! Completed outcomes stream out via
//! [`recv_outcome`](LiveQueue::recv_outcome) as they merge instead of
//! one terminal report; [`shutdown`](LiveQueue::shutdown) drains the
//! queue and returns the final [`BatchReport`].
//!
//! # Determinism
//!
//! Real-time submission is inherently racy — *when* a request lands
//! relative to the running generations depends on wall-clock timing. The
//! determinism contract is therefore stated over **traces**: for a fixed
//! [`Trace`] (a sequence of submit/cancel events tagged with generation
//! indices), [`LiveQueue::replay`] produces a
//! bit-identical outcome stream and final report for every thread count.
//! Live operation is the same machinery with the trace written by the
//! wall clock.
//!
//! # Warm starts
//!
//! The queue keeps an incumbent cache keyed by
//! [`Soc::fingerprint`](tamopt_soc::Soc::fingerprint): when a request
//! arrives for an SOC seen before
//! (at a width ≥ the cached one, with the cached TAM count inside the new
//! request's range), its step-1 scan is seeded with the cached heuristic
//! time — same winner, strictly fewer completed evaluations. Every
//! completed request feeds the cache its **whole** payload: all `k`
//! incumbents of a top-K answer and every swept width of a frontier,
//! each a valid architecture at its own width. Consumption is
//! kind-aware too — a frontier sweep picks up every transferable
//! `(width, time)` pair and seeds each swept width with the pairs at or
//! below it, so a `topk:K` answer at `(SOC, W)` accelerates a later
//! frontier covering widths ≥ W. The cache belongs to the dispatcher:
//! reads happen at dispatch and writes at merge, both on the dispatcher
//! thread at generation barriers, so warm starts never break trace
//! determinism.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tamopt_engine::{search_generations, CancelHandle, ParallelConfig, SearchBudget};
use tamopt_partition::pipeline::{
    co_optimize, co_optimize_frontier_seeded, co_optimize_top_k, PipelineConfig,
};
use tamopt_partition::CoOptimization;
use tamopt_store::{CostColumns, SharedStore, Store, StoredEntry};
use tamopt_wrapper::{pareto, TimeTable};

use crate::report::{json_string, BatchReport, RequestOutcome, RequestStatus, ResultEntry};
use crate::request::RequestKind;
use crate::Request;

/// Configuration of a [`LiveQueue`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Global budget for the queue's whole lifetime (a batch run's
    /// [`crate::BatchConfig::budget`]). The deadline and cancellation
    /// flags are intersected into every request and a node budget caps
    /// the number of requests *dispatched*.
    pub budget: SearchBudget,
    /// Worker threads of the pool, the dispatcher included: `N` means
    /// the dispatcher thread plus `N − 1` spawned workers, so `1` runs
    /// inline on the dispatcher; `0` means one per available CPU. Pure
    /// execution policy: replayed traces are bit-identical for every
    /// value.
    pub threads: usize,
    /// Upper bound on requests dispatched per generation — the window of
    /// the exponential ramp and therefore the preemption granularity:
    /// smaller generations re-read the priority queue more often.
    pub requests_per_generation: usize,
    /// Whether to warm-start requests from the per-queue incumbent cache
    /// (default `true`). Disable to measure cold-start costs.
    pub warm_start: bool,
    /// Priority-aging rate: a queued request's **effective** priority is
    /// `priority + aging × generations_waited`, counted in generation
    /// barriers since the request became visible to the dispatcher —
    /// deterministic (no wall clock), so replayed traces age
    /// identically. With `aging > 0` a steady stream of high-priority
    /// submissions can no longer starve the backlog: any queued request
    /// eventually out-prioritizes new arrivals. `0` (the default)
    /// preserves strict priority order.
    pub aging: u32,
    /// Entry cap of the in-memory warm cache: at most this many SOC
    /// fingerprints are kept, evicting the least recently used first
    /// (`0` = unbounded). Eviction only forgets work-saving seeds — it
    /// never changes a winner — so a long-running daemon's memory stays
    /// bounded without touching the determinism contract.
    pub warm_capacity: usize,
    /// Optional persistent backing tier for the warm cache (see
    /// [`StoreBinding`] and [`tamopt_store`]): loaded into the cache at
    /// start, fed at every merge, snapshotted at generation barriers
    /// and at shutdown.
    pub store: Option<StoreBinding>,
    /// Overload protection: upper bound on the pending (accepted, not
    /// yet dispatched) backlog (`0` = unbounded, the default). When a
    /// submission would exceed the cap, the weakest entry — the lowest
    /// aged effective priority, ties shedding the newest id — makes
    /// room: an already queued victim is reported as
    /// [`RequestStatus::Shed`], or the incoming request itself is
    /// refused with [`SubmitError::Overloaded`] (live) / shed with an
    /// outcome (trace replay, where ids are positional). Deterministic:
    /// the decision depends only on the backlog and the aging clock,
    /// never on the wall clock.
    pub max_pending: usize,
}

/// Default [`LiveConfig::warm_capacity`]: fingerprints cached before
/// LRU eviction starts.
pub const DEFAULT_WARM_CAPACITY: usize = 1024;

/// Default [`StoreBinding::snapshot_every`]: generation barriers
/// between persistent snapshots of a dirty store.
pub const DEFAULT_SNAPSHOT_EVERY: u32 = 32;

/// A persistent warm-start store attached to a queue (the `--store`
/// flag of `tamopt serve` / `tamopt batch`).
///
/// The dispatcher preloads the in-memory cache from the store at
/// start, records every merged incumbent (and freshly computed cost
/// columns) into both tiers, and calls [`Store::save`] when the store
/// is dirty — every `snapshot_every` generation barriers and once at
/// shutdown. The [`SharedStore`] mutex is a leaf lock, never held across
/// another lock. Store contents only ever *seed* searches: a
/// pre-populated store changes completed-evaluation counts, never
/// winners, and replayed traces stay byte-identical across thread counts
/// for any fixed starting store.
#[derive(Debug, Clone)]
pub struct StoreBinding {
    /// The shared store handle.
    pub store: SharedStore,
    /// Generation barriers between snapshots of a dirty store
    /// (`0` = save only at shutdown).
    pub snapshot_every: u32,
}

impl StoreBinding {
    /// Wraps an opened [`Store`] with the default snapshot cadence.
    pub fn new(store: Store) -> Self {
        StoreBinding {
            store: Arc::new(Mutex::new(store)),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Saves the store if it is dirty, demoting failures to a stderr
    /// warning — persistence is an accelerator, never worth failing a
    /// request over.
    fn snapshot(&self) {
        let mut store = self.lock();
        if store.is_dirty() {
            if let Err(e) = store.save() {
                eprintln!("tamopt: warm-store snapshot failed: {e}");
            }
        }
    }

    /// A recency-ordered copy of the store contents, for preloading the
    /// warm cache.
    fn contents(&self) -> Vec<(u64, StoredEntry)> {
        self.lock()
            .iter()
            .map(|(fingerprint, entry)| (fingerprint, entry.clone()))
            .collect()
    }

    /// Records a merged request's payload — every incumbent entry and
    /// any freshly computed cost columns — into the persistent tier.
    fn record(
        &self,
        fingerprint: u64,
        entries: &[crate::report::ResultEntry],
        columns: &Option<CostColumns>,
    ) {
        let mut store = self.lock();
        for entry in entries {
            store.record_incumbent(
                fingerprint,
                entry.width,
                entry.result.tams.len() as u32,
                entry.result.heuristic.soc_time(),
            );
        }
        if let Some(columns) = columns {
            store.record_columns(fingerprint, columns.clone());
        }
    }
}

/// A write-ahead request journal shared across the threads that accept,
/// cancel and seal requests (the `--journal` flag of `tamopt serve`).
///
/// Thin cloneable wrapper over [`tamopt_store::Journal`]: every method
/// takes the leaf mutex for one append and demotes I/O failures to a
/// stderr warning, mirroring [`StoreBinding`] — a sick disk degrades
/// crash recoverability, it never takes the daemon down with it.
#[derive(Debug, Clone)]
pub struct JournalBinding {
    journal: Arc<Mutex<tamopt_store::Journal>>,
}

impl JournalBinding {
    /// Wraps an opened [`tamopt_store::Journal`].
    pub fn new(journal: tamopt_store::Journal) -> Self {
        JournalBinding {
            journal: Arc::new(Mutex::new(journal)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, tamopt_store::Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn append(&self, record: &tamopt_store::JournalRecord) {
        if let Err(e) = self.lock().append(record) {
            eprintln!("tamopt: journal append failed: {e}");
        }
    }

    /// Journals an accepted submission: its id, the client stamp (when
    /// known) and the canonical request line it can be resubmitted from.
    pub fn submit(&self, id: usize, client: Option<usize>, line: &str) {
        self.append(&tamopt_store::JournalRecord::Submit {
            id: id as u64,
            client: client.map(|c| c as u64),
            shard: None,
            line: line.to_owned(),
        });
    }

    /// Journals an accepted cancellation of submission `id`.
    pub fn cancel(&self, id: usize) {
        self.append(&tamopt_store::JournalRecord::Cancel { id: id as u64 });
    }

    /// Journals that submission `id`'s outcome reached the output — the
    /// request no longer needs redoing after a crash.
    pub fn sealed(&self, id: usize) {
        self.append(&tamopt_store::JournalRecord::Sealed { id: id as u64 });
    }

    /// Truncates the journal to an empty header — the clean-shutdown
    /// path, once every accepted request has been sealed.
    pub fn compact(&self) {
        if let Err(e) = self.lock().compact() {
            eprintln!("tamopt: journal compaction failed: {e}");
        }
    }
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            budget: SearchBudget::unlimited(),
            threads: 1,
            requests_per_generation: 8,
            warm_start: true,
            aging: 0,
            warm_capacity: DEFAULT_WARM_CAPACITY,
            store: None,
            max_pending: 0,
        }
    }
}

impl LiveConfig {
    /// Default configuration with `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        LiveConfig {
            threads,
            ..Self::default()
        }
    }

    /// Tightens the global budget by a wall-clock limit counted from
    /// **now** — build the config when the queue is about to start.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.budget = self.budget.and_time_limit(limit);
        self
    }
}

/// Identifier of a submitted request: its submission index, unique per
/// queue, and the `index` of its outcome in the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(usize);

impl RequestId {
    /// The submission index this id wraps.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl From<usize> for RequestId {
    /// Ids are plain submission indices, so traces can reference
    /// submissions they have not "made" yet (the `n`-th submit event of
    /// a [`Trace`] gets id `n`).
    fn from(index: usize) -> Self {
        RequestId(index)
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a [`LiveQueue::submit`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is shutting down (or its dispatcher already finished);
    /// no new requests are accepted.
    ShutDown,
    /// Overload protection refused the request: the backlog is at its
    /// [`LiveConfig::max_pending`] cap and the incoming request has the
    /// lowest aged effective priority of everything queued — shedding
    /// it (rather than older, higher-priority work) is the
    /// deterministic choice. The caller may retry later; the connection
    /// or session it arrived on is unaffected.
    Overloaded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShutDown => f.write_str("queue is shut down"),
            SubmitError::Overloaded => {
                f.write_str("queue is overloaded (pending backlog at max-pending)")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One event of a deterministic submission [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// The earliest generation barrier at which the event applies. If
    /// the queue runs dry before this barrier is reached, the event is
    /// fast-forwarded (tags are lower bounds, so a trace can never
    /// deadlock an idle queue).
    pub generation: u32,
    /// What happens.
    pub action: TraceAction,
}

/// The action of a [`TraceEvent`].
#[derive(Debug, Clone)]
pub enum TraceAction {
    /// Submit a request. Submissions are numbered 0, 1, 2, … in trace
    /// order; that number is the [`RequestId`] cancellations refer to.
    Submit(Request),
    /// Trip the [`CancelHandle`] of an earlier submission.
    Cancel(RequestId),
}

/// A fixed submission trace: the replayable description of one queue
/// session. See [`LiveQueue::replay`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub(crate) events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a submission applying at generation barrier `generation`.
    pub fn submit_at(mut self, generation: u32, request: Request) -> Self {
        self.events.push(TraceEvent {
            generation,
            action: TraceAction::Submit(request),
        });
        self
    }

    /// Appends a cancellation of submission `id` (the index of an
    /// earlier submit event) applying at generation barrier
    /// `generation`.
    pub fn cancel_at(mut self, generation: u32, id: impl Into<RequestId>) -> Self {
        self.events.push(TraceEvent {
            generation,
            action: TraceAction::Cancel(id.into()),
        });
        self
    }

    /// The events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One queued, not yet dispatched submission.
#[derive(Debug)]
struct Pending {
    id: usize,
    request: Request,
    handle: CancelHandle,
    fingerprint: u64,
    /// The generation barrier at which the dispatcher first saw this
    /// entry — the zero point of priority aging. `None` until then
    /// (live submissions land between barriers).
    seen_at: Option<u32>,
}

impl Pending {
    /// Generation barriers waited as of barrier `generation` (0 until
    /// the dispatcher has seen the entry at a barrier).
    fn waited(&self, generation: u32) -> u32 {
        self.seen_at
            .map_or(0, |seen| generation.saturating_sub(seen))
    }

    /// The dispatch key as of barrier `generation`: the aged effective
    /// priority `priority + aging × barriers_waited` (i64, so extreme
    /// priorities cannot overflow) descending, ties by submission id.
    /// The dispatcher pops the smallest key; overload protection sheds
    /// the largest.
    fn dispatch_key(&self, generation: u32, aging: u32) -> (Reverse<i64>, usize) {
        let effective = i64::from(self.request.priority)
            + i64::from(aging) * i64::from(self.waited(generation));
        (Reverse(effective), self.id)
    }
}

/// One request handed to the worker pool, warm-start seed resolved.
struct Dispatch {
    id: usize,
    request: Request,
    fingerprint: u64,
    seed: WarmSeed,
    /// Whether the worker should return compressed cost columns for the
    /// warm cache — set when warm starts are on and the cache could not
    /// serve a ready-made table for this SOC.
    want_columns: bool,
    /// Thread count for the request's inner partition scan: its
    /// proportional share of the pool,
    /// `max(1, pool / generation_width)`.
    inner_threads: usize,
}

/// What one dispatched request produced: the per-entry payload plus the
/// completeness verdict. The headline result (the outcome's legacy
/// single-architecture fields) is derived from the entries by
/// [`RequestResult::headline`].
#[derive(Debug, Clone)]
struct RequestResult {
    /// All architectures the query produced: one entry for a point
    /// query, `k` ranked entries for top-k, one entry per swept width
    /// for a frontier (ascending width, `lower_bound` populated).
    entries: Vec<ResultEntry>,
    /// Whether every entry's scan ran to completion.
    complete: bool,
    /// The request's cost table, compressed for the warm cache — only
    /// when the dispatch asked for it (warm starts on and no table was
    /// cached for this SOC yet).
    columns: Option<CostColumns>,
}

impl RequestResult {
    /// The headline architecture: the entry with the smallest SOC
    /// testing time, ties keeping the earliest entry — rank 1 for a
    /// top-k query, the narrowest Pareto-preferred width for a frontier,
    /// the single entry for a point query.
    fn headline(&self) -> &CoOptimization {
        let mut best = &self.entries[0].result;
        for entry in &self.entries[1..] {
            if entry.result.soc_time() < best.soc_time() {
                best = &entry.result;
            }
        }
        best
    }
}

/// Warm-start material resolved from an incumbent cache at dispatch
/// (see [`LiveQueue`]). Purely work-saving: seeds never change a
/// winner, and an empty seed is a cold start.
#[derive(Debug, Clone, Default)]
struct WarmSeed {
    /// The tightest cached SOC time applicable at the request's own
    /// width — the step-1 `τ` seed of point and top-K scans.
    tau: Option<u64>,
    /// Cached `(width, soc_time)` pairs for frontier sweeps: each time
    /// was achieved at its width, so it seeds every swept width ≥ it
    /// (see [`co_optimize_frontier_seeded`]). Empty for other kinds.
    frontier: Vec<(u32, u64)>,
    /// A ready-made cost table covering the request's width, expanded
    /// from cached [`CostColumns`]. Bit-identical to building the table
    /// from the SOC (each wrapper design depends only on its own width),
    /// so serving it skips per-core wrapper construction without
    /// touching any result.
    table: Option<TimeTable>,
}

/// Runs one request under the intersection of its own budget and the
/// queue-global deadline/cancellation, optionally warm-started with a
/// [`WarmSeed`] (see [`LiveQueue`]'s incumbent cache).
///
/// `inner_threads` is the thread count of the request's inner partition
/// scan — the request's proportional share of the pool,
/// `max(1, pool / generation_width)`. The inner chunk geometry never
/// changes, so the result is bit-identical for every `inner_threads`
/// value — an unseeded point result matches a standalone `co_optimize`
/// run bit for bit. For a frontier request `inner_threads` instead
/// widens the *sweep* (the per-width scans are sequential by design),
/// equally result-invariant.
fn run_request(
    request: &Request,
    global: &SearchBudget,
    seed: &WarmSeed,
    inner_threads: usize,
    want_columns: bool,
) -> Result<RequestResult, String> {
    let table = match &seed.table {
        Some(table) => table.clone(),
        None => TimeTable::new(&request.soc, request.width).map_err(|e| e.to_string())?,
    };
    let columns = want_columns.then(|| CostColumns::from_table(&table));
    let pipeline = PipelineConfig {
        min_tams: request.min_tams,
        max_tams: request.max_tams,
        budget: request.budget.intersect(global),
        seed_tau: seed.tau,
        parallel: ParallelConfig::with_threads(inner_threads.max(1)),
        ..PipelineConfig::up_to_tams(request.max_tams)
    };
    match request.kind {
        RequestKind::Point => {
            let co = co_optimize(&table, request.width, &pipeline).map_err(|e| e.to_string())?;
            Ok(RequestResult {
                complete: co.evaluate_complete,
                entries: vec![ResultEntry {
                    width: request.width,
                    result: co,
                    lower_bound: None,
                }],
                columns,
            })
        }
        RequestKind::TopK { k } => {
            let ranked = co_optimize_top_k(&table, request.width, &pipeline, k)
                .map_err(|e| e.to_string())?;
            Ok(RequestResult {
                complete: ranked.entries.iter().all(|co| co.evaluate_complete),
                entries: ranked
                    .entries
                    .into_iter()
                    .map(|co| ResultEntry {
                        width: request.width,
                        result: co,
                        lower_bound: None,
                    })
                    .collect(),
                columns,
            })
        }
        RequestKind::Frontier {
            min_width,
            max_width,
            step,
        } => {
            // Wire input is validated by `RequestKind::from_str`; the
            // builder path defers degenerate sweeps to this dispatch
            // point, where they become a `Failed` outcome.
            if step == 0 || min_width == 0 || min_width > max_width {
                return Err(format!(
                    "invalid frontier sweep {min_width}..={max_width} step {step}"
                ));
            }
            if max_width != request.width {
                return Err(format!(
                    "frontier sweep maximum {max_width} does not match the request width {} \
                     (use Request::frontier, which keeps them aligned)",
                    request.width
                ));
            }
            let widths: Vec<u32> = (min_width..=max_width).step_by(step as usize).collect();
            let sweep = ParallelConfig::with_threads(inner_threads.max(1));
            let frontier =
                co_optimize_frontier_seeded(&table, &widths, &pipeline, &sweep, &seed.frontier)
                    .map_err(|e| e.to_string())?;
            if frontier.points.is_empty() {
                // Unreachable under the engine's always-run-generation-0
                // guarantee, but a frontier outcome must have a headline.
                return Err("frontier budget expired before any width completed".to_owned());
            }
            Ok(RequestResult {
                complete: frontier.complete,
                entries: frontier
                    .points
                    .into_iter()
                    .map(|(width, co)| ResultEntry {
                        lower_bound: Some(pareto::bottleneck_at_width(&table, width)),
                        width,
                        result: co,
                    })
                    .collect(),
                columns,
            })
        }
    }
}

/// Queue state behind the mutex.
#[derive(Debug, Default)]
struct State {
    pending: Vec<Pending>,
    /// Entries evicted by overload protection, awaiting their
    /// [`RequestStatus::Shed`] outcome at the next generation barrier
    /// (outcomes only ever stream from the dispatcher thread).
    shed: Vec<Pending>,
    shutdown: bool,
    /// The id the next accepted submission gets: ids go only to
    /// accepted submissions, in acceptance order.
    next_id: usize,
    /// The most recent generation barrier the dispatcher reached — the
    /// reference point of [`LiveQueue::stats`]'s aging arithmetic.
    last_barrier: u32,
    /// Cancellation handles of submissions still in flight (pending or
    /// dispatched), so [`LiveQueue::cancel`] and trace cancel events can
    /// reach them. Pruned when a submission's outcome is emitted —
    /// cancelling a finished request is meaningless, and a long-running
    /// daemon must not accumulate one entry per request forever.
    handles: HashMap<usize, CancelHandle>,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The incumbent cache: best known heuristic times per SOC fingerprint,
/// indexed by the width and TAM count that achieved them, plus the
/// SOC's compressed cost table once one has been computed. Owned by the
/// dispatcher ([`Book`]). Bounded by an LRU-by-fingerprint entry cap
/// ([`LiveConfig::warm_capacity`]): every dispatch-time read and
/// merge-time write touches the fingerprint's recency, both on the
/// dispatcher thread at generation barriers, so eviction order is
/// deterministic under trace replay — and eviction
/// only ever forgets seeds, never results.
#[derive(Debug, Default)]
struct WarmCache {
    slots: HashMap<u64, CacheSlot>,
    /// Logical recency clock; bumped on every touch.
    clock: u64,
    /// Max fingerprints kept (`0` = unbounded).
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheSlot {
    entries: Vec<WarmEntry>,
    columns: Option<CostColumns>,
    last_used: u64,
}

#[derive(Debug)]
struct WarmEntry {
    width: u32,
    tams: u32,
    time: u64,
}

impl WarmCache {
    /// An empty cache evicting beyond `capacity` fingerprints
    /// (`0` = unbounded).
    fn with_capacity(capacity: usize) -> Self {
        WarmCache {
            capacity,
            ..Self::default()
        }
    }

    fn touch(&mut self, fingerprint: u64) -> Option<&CacheSlot> {
        let slot = self.slots.get_mut(&fingerprint)?;
        self.clock += 1;
        slot.last_used = self.clock;
        Some(slot)
    }

    fn slot_mut(&mut self, fingerprint: u64) -> &mut CacheSlot {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.slots.entry(fingerprint).or_default();
        slot.last_used = clock;
        slot
    }

    fn evict_over_cap(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.slots.len() > self.capacity {
            let victim = self
                .slots
                .iter()
                .map(|(fingerprint, slot)| (slot.last_used, *fingerprint))
                .min()
                .expect("len > capacity >= 1")
                .1;
            self.slots.remove(&victim);
        }
    }

    /// The tightest applicable seed for `request`: a cached time is
    /// transferable when it was achieved at a width ≤ the request's
    /// (widening a TAM never slows a core) by a TAM count inside the
    /// request's range (so the widened partition is enumerable here).
    fn seed_for(&mut self, fingerprint: u64, request: &Request) -> Option<u64> {
        self.touch(fingerprint)?
            .entries
            .iter()
            .filter(|e| {
                e.width <= request.width && request.min_tams <= e.tams && e.tams <= request.max_tams
            })
            .map(|e| e.time)
            .min()
    }

    /// Every transferable `(width, time)` pair for a frontier request:
    /// cached times at widths ≤ the sweep maximum with TAM counts inside
    /// the request's range, collapsed to the best time per width and
    /// sorted by width — each pair seeds the swept widths ≥ its own (see
    /// [`tamopt_partition::co_optimize_frontier_seeded`]).
    fn frontier_seeds(&mut self, fingerprint: u64, request: &Request) -> Vec<(u32, u64)> {
        let Some(slot) = self.touch(fingerprint) else {
            return Vec::new();
        };
        let mut best: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for e in &slot.entries {
            if e.width <= request.width && request.min_tams <= e.tams && e.tams <= request.max_tams
            {
                best.entry(e.width)
                    .and_modify(|t| *t = (*t).min(e.time))
                    .or_insert(e.time);
            }
        }
        best.into_iter().collect()
    }

    /// A ready-made time table covering `width`, expanded from cached
    /// cost columns — bit-identical to building it from the SOC, so
    /// serving it skips the per-core wrapper-design sweep without
    /// changing anything the scan observes. `None` when no staircase
    /// wide enough is cached.
    fn table_for(&mut self, fingerprint: u64, width: u32) -> Option<TimeTable> {
        self.touch(fingerprint)?.columns.as_ref()?.expand(width)
    }

    /// The full warm-start material for `request`: the tightest τ,
    /// transferable frontier pairs (frontier kind only), and a
    /// ready-made table when the cached cost columns cover the width.
    fn seed(&mut self, fingerprint: u64, request: &Request) -> WarmSeed {
        WarmSeed {
            tau: self.seed_for(fingerprint, request),
            // A frontier consumes the cache per width: every
            // transferable pair seeds the swept widths ≥ it.
            frontier: match request.kind {
                RequestKind::Frontier { .. } => self.frontier_seeds(fingerprint, request),
                _ => Vec::new(),
            },
            table: self.table_for(fingerprint, request.width),
        }
    }

    fn record(&mut self, fingerprint: u64, width: u32, tams: u32, time: u64) {
        let slot = self.slot_mut(fingerprint);
        match slot
            .entries
            .iter_mut()
            .find(|e| e.width == width && e.tams == tams)
        {
            Some(entry) => entry.time = entry.time.min(time),
            None => slot.entries.push(WarmEntry { width, tams, time }),
        }
        self.evict_over_cap();
    }

    /// Caches `columns`, keeping the wider of the existing and new
    /// staircases.
    fn record_columns(&mut self, fingerprint: u64, columns: CostColumns) {
        let slot = self.slot_mut(fingerprint);
        let wider = slot
            .columns
            .as_ref()
            .is_none_or(|existing| columns.max_width() > existing.max_width());
        if wider {
            slot.columns = Some(columns);
        }
        self.evict_over_cap();
    }

    /// Merges a store entry through the normal recording paths — the
    /// start-of-queue preload from a [`StoreBinding`].
    fn adopt(&mut self, fingerprint: u64, entry: StoredEntry) {
        for incumbent in entry.incumbents {
            self.record(fingerprint, incumbent.width, incumbent.tams, incumbent.time);
        }
        if let Some(columns) = entry.columns {
            self.record_columns(fingerprint, columns);
        }
    }

    /// Number of fingerprints cached.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Dispatcher-thread bookkeeping: the warm cache, the live outcome
/// stream and the outcomes emitted so far, in emit order. Wrapped in a
/// `RefCell` because both the barrier hook and the merge closure need it
/// — they run at disjoint times on the dispatcher thread.
struct Book {
    cache: WarmCache,
    /// The queue's outcome channel; `None` under replay, whose stream is
    /// [`outcomes`](Self::outcomes) itself.
    stream: Option<Sender<RequestOutcome>>,
    outcomes: Vec<RequestOutcome>,
}

impl Book {
    fn new(warm_capacity: usize, stream: Option<Sender<RequestOutcome>>) -> Self {
        Book {
            cache: WarmCache::with_capacity(warm_capacity),
            stream,
            outcomes: Vec::new(),
        }
    }

    fn emit(&mut self, outcome: RequestOutcome) {
        if let Some(stream) = &self.stream {
            // A receiver may have been dropped (fire-and-forget
            // callers); the final report still collects everything.
            let _ = stream.send(outcome.clone());
        }
        self.outcomes.push(outcome);
    }
}

/// The `error` note attached to every [`RequestStatus::Shed`] outcome,
/// so shed requests are self-describing on the wire.
const SHED_NOTE: &str =
    "shed by overload protection: backlog at max-pending, lowest aged effective priority";

/// Overload protection's victim choice, invoked with the backlog at its
/// [`LiveConfig::max_pending`] cap and one more submission arriving.
/// The weakest entry — the lowest aged effective priority as of the
/// last generation barrier, ties falling on the newest id — makes room.
/// The incoming submission would carry the largest id and has waited
/// zero barriers, so it loses ties deliberately: admission never evicts
/// equal-priority work that queued first.
///
/// Returns the evicted queued entry (handle already unregistered), or
/// `None` when the incoming submission itself is the weakest and must
/// be the one shed.
fn overload_victim(state: &mut State, aging: u32, incoming_priority: i32) -> Option<Pending> {
    let generation = state.last_barrier;
    let (index, (Reverse(weakest), _)) = state
        .pending
        .iter()
        .map(|p| p.dispatch_key(generation, aging))
        .enumerate()
        .max_by_key(|&(_, key)| key)?;
    if weakest < i64::from(incoming_priority) {
        let victim = state.pending.remove(index);
        state.handles.remove(&victim.id);
        Some(victim)
    } else {
        None
    }
}

/// Admits submission `id` into the backlog: the one admission path of
/// live submits and replayed trace events. At the
/// [`LiveConfig::max_pending`] cap, [`overload_victim`] picks what
/// makes room; an evicted queued entry moves to [`State::shed`] for its
/// barrier-time outcome. Returns the queued entry's [`CancelHandle`],
/// or the incoming entry itself when it is the weakest — live refuses
/// it with [`SubmitError::Overloaded`], replay sheds it with an outcome.
fn admit(
    state: &mut State,
    id: usize,
    request: Request,
    max_pending: usize,
    aging: u32,
) -> Result<CancelHandle, Box<Pending>> {
    let (budget, handle) = request.budget.clone().cancellable();
    let entry = Pending {
        id,
        fingerprint: request.soc.fingerprint(),
        request: Request { budget, ..request },
        handle: handle.clone(),
        seen_at: None,
    };
    if max_pending > 0 && state.pending.len() >= max_pending {
        match overload_victim(state, aging, entry.request.priority) {
            Some(victim) => state.shed.push(victim),
            None => return Err(Box::new(entry)),
        }
    }
    state.handles.insert(id, handle.clone());
    state.pending.push(entry);
    Ok(handle)
}

/// An outcome carrying no result — cancelled before dispatch, or skipped
/// because the global budget ran out first.
fn bare_outcome(id: usize, request: &Request, status: RequestStatus) -> RequestOutcome {
    RequestOutcome {
        index: id,
        client: None,
        soc: request.soc.name().to_owned(),
        width: request.width,
        min_tams: request.min_tams,
        max_tams: request.max_tams,
        priority: request.priority,
        kind: request.kind,
        status,
        result: None,
        results: Vec::new(),
        error: None,
    }
}

/// A point-in-time snapshot of the queue's backlog, as reported by
/// [`LiveQueue::stats`] (the `stats` verb of `tamopt serve`). Entries
/// are ordered exactly as the dispatcher would pick them: effective
/// priority descending, ties by submission id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// The most recent generation barrier the dispatcher reached.
    pub generation: u32,
    /// The queue's [`LiveConfig::aging`] rate.
    pub aging: u32,
    /// The pending (accepted, not yet dispatched) entries.
    pub pending: Vec<PendingStat>,
}

/// One backlog entry of a [`QueueStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingStat {
    /// Submission id.
    pub id: usize,
    /// SOC name.
    pub soc: String,
    /// The query kind.
    pub kind: RequestKind,
    /// Raw submission priority.
    pub priority: i32,
    /// Generation barriers waited since the dispatcher first saw the
    /// entry (0 until it has been seen at a barrier).
    pub barriers_waited: u32,
    /// Aged effective priority: `priority + aging × barriers_waited`.
    pub effective_priority: i64,
}

impl QueueStats {
    /// The snapshot as one deterministic, compact JSON object (no
    /// wall-clock fields; stable key and entry order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "{{\"generation\": {}, \"aging\": {}, \"pending\": [",
            self.generation, self.aging
        );
        for (i, p) in self.pending.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"id\": {}, \"soc\": {}, \"kind\": {}, \"priority\": {}, \
                 \"barriers_waited\": {}, \"effective_priority\": {}}}",
                p.id,
                json_string(&p.soc),
                json_string(&p.kind.label()),
                p.priority,
                p.barriers_waited,
                p.effective_priority,
            );
        }
        out.push_str("]}");
        out
    }
}

/// A long-running request queue: one dispatcher thread owning a worker
/// pool.
///
/// Start it with [`LiveQueue::start`], feed it with
/// [`submit`](Self::submit) (thread-safe, non-blocking, callable while
/// requests run), stream results with [`recv_outcome`](Self::recv_outcome)
/// and finish with [`shutdown`](Self::shutdown). For reproducible runs,
/// [`replay`](Self::replay) executes a fixed [`Trace`] instead.
///
/// The queue numbers submissions 0, 1, 2, … in acceptance order;
/// outcomes, cancellations and the final report use those ids.
///
/// # Example
///
/// ```
/// use tamopt_service::{LiveConfig, LiveQueue, Request};
/// use tamopt_soc::benchmarks;
///
/// let queue = LiveQueue::start(LiveConfig::default());
/// let (id, _handle) = queue
///     .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
///     .unwrap();
/// let outcome = queue.recv_outcome().unwrap();
/// assert_eq!(outcome.index, id.index());
/// let report = queue.shutdown().expect("first shutdown returns the report");
/// assert!(report.complete);
/// // The queue is sealed now.
/// assert!(queue.submit(Request::new(benchmarks::d695(), 8).unwrap()).is_err());
/// ```
#[derive(Debug)]
pub struct LiveQueue {
    shared: Arc<Shared>,
    /// The aging rate of the starting config, kept for
    /// [`stats`](Self::stats) (the dispatcher owns the config itself).
    aging: u32,
    /// The backlog cap of the starting config, kept for
    /// [`submit`](Self::submit)'s admission check.
    max_pending: usize,
    dispatcher: Mutex<Option<std::thread::JoinHandle<Vec<RequestOutcome>>>>,
    /// The dispatcher's outcome stream. Behind a mutex so the queue is
    /// `Sync`: one thread can submit while another drains outcomes (the
    /// `tamopt serve` pattern).
    outcomes: Mutex<Receiver<RequestOutcome>>,
    start: Instant,
}

impl LiveQueue {
    /// Starts the queue: spawns the dispatcher thread, which owns its
    /// worker pool until [`shutdown`](Self::shutdown).
    pub fn start(config: LiveConfig) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        let book = Book::new(config.warm_capacity, Some(tx));
        let shared = Arc::new(Shared::default());
        let (aging, max_pending) = (config.aging, config.max_pending);
        let dispatcher_shared = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("tamopt-live-dispatcher".to_owned())
            .spawn(move || dispatch(&dispatcher_shared, &config, None, book))
            .expect("spawning the dispatcher thread");
        LiveQueue {
            shared,
            aging,
            max_pending,
            dispatcher: Mutex::new(Some(dispatcher)),
            outcomes: Mutex::new(rx),
            start: Instant::now(),
        }
    }

    /// Replays a fixed submission trace on the calling thread and returns
    /// the streamed outcomes (in stream order) plus the final drained
    /// report.
    ///
    /// Submissions are numbered 0, 1, 2, … as they apply, in trace
    /// order; a cancel of an id not submitted yet is a no-op. The report
    /// holds one outcome per submission, in id order. For a fixed trace
    /// and [`LiveConfig::requests_per_generation`], both are
    /// bit-identical across [`LiveConfig::threads`] values — wall-clock
    /// fields aside. The replay stops by itself once the trace is
    /// exhausted and the backlog drained.
    pub fn replay(trace: Trace, config: LiveConfig) -> (Vec<RequestOutcome>, BatchReport) {
        let start = Instant::now();
        let book = Book::new(config.warm_capacity, None);
        let events = VecDeque::from(trace.events);
        let stream = dispatch(&Shared::default(), &config, Some(events), book);
        let report = final_report(stream.clone(), start);
        (stream, report)
    }

    /// Submits `request`, returning its [`RequestId`] and the
    /// [`CancelHandle`] that cancels it — and only it. Thread-safe and
    /// non-blocking; may be called while other requests are executing.
    /// The request becomes dispatchable at the next generation barrier,
    /// ahead of any queued work of lower priority.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after [`shutdown`](Self::shutdown) (or
    /// after the dispatcher stopped because the global budget expired);
    /// [`SubmitError::Overloaded`] when the backlog is at
    /// [`LiveConfig::max_pending`] and this request is the weakest
    /// thing in it (lowest aged effective priority; ties shed the
    /// newest submission). A refused request consumes no id: the queue
    /// looks exactly as if the submission never happened, and the
    /// caller may retry once the backlog drains.
    pub fn submit(&self, request: Request) -> Result<(RequestId, CancelHandle), SubmitError> {
        let mut state = lock(&self.shared);
        if state.shutdown {
            return Err(SubmitError::ShutDown);
        }
        let id = state.next_id;
        let handle = admit(&mut state, id, request, self.max_pending, self.aging)
            .map_err(|_| SubmitError::Overloaded)?;
        state.next_id += 1;
        drop(state);
        self.shared.cv.notify_all();
        Ok((RequestId(id), handle))
    }

    /// Cancels submission `id` (pending or already dispatched); returns
    /// whether the id named a request still in flight — `false` for
    /// unknown ids *and* for requests whose outcome already streamed.
    /// Equivalent to the [`CancelHandle`] returned by
    /// [`submit`](Self::submit).
    pub fn cancel(&self, id: RequestId) -> bool {
        let state = lock(&self.shared);
        let known = state.handles.get(&id.0).inspect(|h| h.cancel()).is_some();
        drop(state);
        self.shared.cv.notify_all();
        known
    }

    /// Number of submissions accepted so far.
    pub fn submitted(&self) -> usize {
        lock(&self.shared).next_id
    }

    /// A backlog snapshot: the pending entries with their raw priority,
    /// barriers waited and aged effective priority, ordered as the
    /// dispatcher would pick them (effective priority descending, ties
    /// by submission id). Deterministic under replay — the aging clock
    /// counts generation barriers, never the wall clock.
    pub fn stats(&self) -> QueueStats {
        let state = lock(&self.shared);
        let generation = state.last_barrier;
        let mut backlog: Vec<&Pending> = state.pending.iter().collect();
        backlog.sort_by_key(|p| p.dispatch_key(generation, self.aging));
        let pending = backlog
            .into_iter()
            .map(|p| {
                let (Reverse(effective_priority), id) = p.dispatch_key(generation, self.aging);
                PendingStat {
                    id,
                    soc: p.request.soc.name().to_owned(),
                    kind: p.request.kind,
                    priority: p.request.priority,
                    barriers_waited: p.waited(generation),
                    effective_priority,
                }
            })
            .collect();
        QueueStats {
            generation,
            aging: self.aging,
            pending,
        }
    }

    /// The `stats` verb's JSON: [`QueueStats::to_json`] of
    /// [`stats`](Self::stats).
    pub fn stats_json(&self) -> String {
        self.stats().to_json()
    }

    /// Blocks until the next outcome streams out; `None` once the
    /// dispatcher has finished and all outcomes were received.
    pub fn recv_outcome(&self) -> Option<RequestOutcome> {
        self.outcomes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .ok()
    }

    /// The next outcome if one is ready right now (never blocks — a
    /// `None` may also mean another thread is currently parked inside
    /// [`recv_outcome`](Self::recv_outcome) holding the receiver).
    pub fn try_recv_outcome(&self) -> Option<RequestOutcome> {
        // try_lock, not lock: recv_outcome holds the mutex across its
        // blocking recv, and this method must never wait on it.
        match self.outcomes.try_lock() {
            Ok(receiver) => receiver.try_recv().ok(),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                poisoned.into_inner().try_recv().ok()
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Stops accepting submissions (later [`submit`](Self::submit)s
    /// return [`SubmitError::ShutDown`] immediately), drains the
    /// backlog, joins the worker pool and returns the final report —
    /// outcomes in submission order, exactly one per accepted
    /// submission. `None` if the queue was already shut down.
    pub fn shutdown(&self) -> Option<BatchReport> {
        lock(&self.shared).shutdown = true;
        self.shared.cv.notify_all();
        let handle = self
            .dispatcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()?;
        let outcomes = handle.join().expect("dispatcher thread panicked");
        Some(final_report(outcomes, self.start))
    }
}

impl Drop for LiveQueue {
    fn drop(&mut self) {
        // A queue dropped without `shutdown` still winds the pool down
        // cleanly (finishing the backlog it already accepted).
        let _ = self.shutdown();
    }
}

/// The final report over every outcome a queue emitted: submission
/// order, complete unless something was skipped.
fn final_report(mut outcomes: Vec<RequestOutcome>, start: Instant) -> BatchReport {
    outcomes.sort_by_key(|o| o.index);
    let complete = outcomes.iter().all(|o| o.status != RequestStatus::Skipped);
    BatchReport {
        outcomes,
        complete,
        wall_time: start.elapsed(),
    }
}

/// The dispatcher: runs the engine's generation loop for the queue's
/// whole lifetime. The barrier hook re-reads (and re-prioritizes) the
/// pending queue, injects due trace events, reports
/// cancelled-before-dispatch entries, resolves warm-start seeds, and —
/// in live mode — blocks waiting for work; `merge` streams outcomes and
/// feeds the warm cache. Returns every outcome the queue emitted, in
/// emit order.
fn dispatch(
    shared: &Shared,
    config: &LiveConfig,
    mut replay: Option<VecDeque<TraceEvent>>,
    mut book: Book,
) -> Vec<RequestOutcome> {
    let parallel = ParallelConfig {
        threads: config.threads,
        chunk_size: 1,
        chunks_per_generation: config.requests_per_generation.max(1),
    };
    // The global node budget counts dispatched requests (polled by the
    // executor); only deadline + cancellation carry into the requests
    // themselves.
    let inner_global = config.budget.clone().without_node_budget();
    // Preload the in-memory cache from the persistent store.
    if let Some(binding) = &config.store {
        for (fingerprint, entry) in binding.contents() {
            book.cache.adopt(fingerprint, entry);
        }
    }
    let book = RefCell::new(book);

    let apply = |state: &mut State, event: TraceEvent| match event.action {
        TraceAction::Submit(request) => {
            // Unlike the live path, a replayed submission that loses
            // the overload decision cannot be refused: trace ids are
            // positional (cancels reference them), so it keeps its id
            // and owes a [`RequestStatus::Shed`] outcome.
            let id = state.next_id;
            state.next_id += 1;
            if let Err(entry) = admit(state, id, request, config.max_pending, config.aging) {
                state.shed.push(*entry);
            }
        }
        // An id not submitted yet has no handle: a no-op.
        TraceAction::Cancel(id) => {
            if let Some(handle) = state.handles.get(&id.0) {
                handle.cancel();
            }
        }
    };

    let pool_width = parallel.effective_threads();
    // The generation in flight, by global index: `produce` stores its
    // dispatches under the barrier, after the first index it hands out,
    // and each `eval` takes the one its range names.
    let in_flight: Mutex<(u64, Vec<Option<Dispatch>>)> = Mutex::new((0, Vec::new()));
    let mut next_index = 0u64;
    let produce = |generation: u32, capacity: usize| -> usize {
        // Periodic persistence: a dirty store snapshots at generation
        // barriers (on the dispatcher thread, no other lock held), so a
        // crashed daemon loses at most `snapshot_every` generations.
        if let Some(binding) = &config.store {
            if binding.snapshot_every > 0
                && generation > 0
                && generation % binding.snapshot_every == 0
            {
                binding.snapshot();
            }
        }
        let mut book = book.borrow_mut();
        let mut state = lock(shared);
        state.last_barrier = generation;
        loop {
            // 1. Inject trace events due at this barrier.
            if let Some(events) = replay.as_mut() {
                while events.front().is_some_and(|e| e.generation <= generation) {
                    apply(&mut state, events.pop_front().expect("peeked"));
                }
            }
            // 2. Requests shed by overload protection or cancelled
            // before dispatch never reach the pool; their outcomes
            // stream right here, each group in id order (shed first —
            // eviction preceded this barrier).
            let mut shed = std::mem::take(&mut state.shed);
            shed.sort_by_key(|p| p.id);
            for p in &shed {
                state.handles.remove(&p.id);
                book.emit(RequestOutcome {
                    error: Some(SHED_NOTE.to_owned()),
                    ..bare_outcome(p.id, &p.request, RequestStatus::Shed)
                });
            }
            let (mut cancelled, kept): (Vec<Pending>, Vec<Pending>) =
                std::mem::take(&mut state.pending)
                    .into_iter()
                    .partition(|p| p.handle.is_cancelled());
            state.pending = kept;
            cancelled.sort_by_key(|p| p.id);
            for p in &cancelled {
                state.handles.remove(&p.id);
                book.emit(bare_outcome(p.id, &p.request, RequestStatus::Cancelled));
            }
            // 3. Anything dispatchable? Pop it (priority desc, id asc).
            if !state.pending.is_empty() {
                break;
            }
            // 4. Queue is dry. Fast-forward the trace (tags are lower
            // bounds — without work the generation counter cannot
            // advance to meet them)…
            if let Some(events) = replay.as_mut() {
                if let Some(next) = events.front() {
                    let tag = next.generation;
                    while events.front().is_some_and(|e| e.generation == tag) {
                        apply(&mut state, events.pop_front().expect("peeked"));
                    }
                    continue;
                }
                return 0; // trace exhausted: replay is over
            }
            // …or, live: end on shutdown / a dead budget, else park
            // until a submission or cancellation arrives.
            if state.shutdown || config.budget.out_of_time() || config.budget.cancelled() {
                return 0;
            }
            state = shared
                .cv
                .wait_timeout(state, Duration::from_millis(25))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        // Aging clock: an entry starts aging at the first barrier that
        // sees it (deterministic under replay — trace events are
        // injected at their tagged barrier).
        for p in &mut state.pending {
            p.seen_at.get_or_insert(generation);
        }
        state
            .pending
            .sort_by_key(|p| p.dispatch_key(generation, config.aging));
        let take = capacity.min(state.pending.len());
        // The pool splits proportionally across the generation's
        // dispatches: each inner scan runs `max(1, pool / take)` wide,
        // so a lone request borrows the whole pool and siblings share
        // it evenly (thread-count-invariant inner geometry: identical
        // results and `PruneStats` for every split).
        let inner_threads = (pool_width / take.max(1)).max(1);
        let mut slots = in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        let (first, dispatches) = &mut *slots;
        *first = next_index;
        next_index += take as u64;
        dispatches.clear();
        dispatches.extend(state.pending.drain(..take).map(|p| {
            let seed = if config.warm_start {
                book.cache.seed(p.fingerprint, &p.request)
            } else {
                WarmSeed::default()
            };
            Some(Dispatch {
                id: p.id,
                request: p.request,
                fingerprint: p.fingerprint,
                want_columns: config.warm_start && seed.table.is_none(),
                seed,
                inner_threads,
            })
        }));
        take
    };

    let status = search_generations(
        produce,
        &parallel,
        &config.budget,
        || (),
        |(), range| -> Result<_, std::convert::Infallible> {
            // `chunk_size: 1`: every range is one request.
            let dispatch = {
                let mut slots = in_flight.lock().unwrap_or_else(PoisonError::into_inner);
                let (first, dispatches) = &mut *slots;
                dispatches[(range.start - *first) as usize]
                    .take()
                    .expect("a request is evaluated once")
            };
            let result = run_request(
                &dispatch.request,
                &inner_global,
                &dispatch.seed,
                dispatch.inner_threads,
                dispatch.want_columns,
            );
            Ok((dispatch, result))
        },
        |(dispatch, result)| {
            let mut book = book.borrow_mut();
            let mut state = lock(shared);
            state.handles.remove(&dispatch.id);
            let outcome = match result {
                Ok(res) => {
                    if config.warm_start {
                        // Every entry is a valid architecture at its
                        // own width — a frontier or top-k request
                        // warms the cache across its whole payload
                        // (all K incumbents, not just the headline).
                        let cache = &mut book.cache;
                        for entry in &res.entries {
                            cache.record(
                                dispatch.fingerprint,
                                entry.width,
                                entry.result.tams.len() as u32,
                                entry.result.heuristic.soc_time(),
                            );
                        }
                        if let Some(columns) = &res.columns {
                            cache.record_columns(dispatch.fingerprint, columns.clone());
                        }
                    }
                    if let Some(binding) = &config.store {
                        binding.record(dispatch.fingerprint, &res.entries, &res.columns);
                    }
                    // Any tripped flag on the request's own budget
                    // counts: the queue's handle, or one the caller
                    // attached before submitting (a batch's push
                    // handle).
                    let status = if res.complete {
                        RequestStatus::Complete
                    } else if dispatch.request.budget.cancelled() {
                        RequestStatus::Cancelled
                    } else {
                        RequestStatus::Partial
                    };
                    let headline = res.headline().clone();
                    // Point outcomes keep the legacy single-result
                    // shape; only the typed kinds carry a payload.
                    let results = if dispatch.request.kind == RequestKind::Point {
                        Vec::new()
                    } else {
                        res.entries
                    };
                    RequestOutcome {
                        result: Some(headline),
                        results,
                        ..bare_outcome(dispatch.id, &dispatch.request, status)
                    }
                }
                Err(message) => RequestOutcome {
                    error: Some(message),
                    ..bare_outcome(dispatch.id, &dispatch.request, RequestStatus::Failed)
                },
            };
            book.emit(outcome);
            Ok(())
        },
    );
    let _status = status.expect("request failures are captured per request");

    // Seal the queue and report whatever never got dispatched (the
    // global budget ran out, or the replay truncated) as skipped.
    let mut book = book.into_inner();
    let mut state = lock(shared);
    state.shutdown = true;
    let mut leftovers: Vec<Pending> = std::mem::take(&mut state.pending);
    let mut shed: Vec<Pending> = std::mem::take(&mut state.shed);
    if let Some(events) = replay.as_mut() {
        // Submissions the truncated replay never injected still owe an
        // outcome — inject them now, straight into the leftovers.
        while let Some(event) = events.pop_front() {
            apply(&mut state, event);
        }
        leftovers.append(&mut state.pending);
        shed.append(&mut state.shed);
    }
    // The queue is sealed: no handle can reach anything anymore.
    state.handles.clear();
    drop(state);
    // Evictions that never saw another barrier still owe their outcome.
    shed.sort_by_key(|p| p.id);
    for p in &shed {
        book.emit(RequestOutcome {
            error: Some(SHED_NOTE.to_owned()),
            ..bare_outcome(p.id, &p.request, RequestStatus::Shed)
        });
    }
    leftovers.sort_by_key(|p| p.id);
    for p in &leftovers {
        let status = if p.handle.is_cancelled() {
            RequestStatus::Cancelled
        } else {
            RequestStatus::Skipped
        };
        book.emit(bare_outcome(p.id, &p.request, status));
    }

    // Final persistence point: everything merged is on disk before the
    // queue reports.
    if let Some(binding) = &config.store {
        binding.snapshot();
    }
    book.outcomes
}

#[cfg(test)]
mod tests {
    use super::WarmCache;

    /// The capacity cap is a hard bound: however many distinct
    /// fingerprints stream through, the cache never holds more than
    /// `capacity` slots, and the survivors are the most recently used.
    #[test]
    fn warm_cache_eviction_is_bounded_and_lru() {
        let mut cache = WarmCache::with_capacity(3);
        for fingerprint in 0..100u64 {
            cache.record(fingerprint, 32, 4, 1000 + fingerprint);
            assert!(cache.len() <= 3, "cap exceeded at {fingerprint}");
        }
        assert_eq!(cache.len(), 3);
        // The three most recent fingerprints survive; older ones are
        // gone (touch returns None without resurrecting them).
        for fingerprint in 97..100 {
            assert!(cache.touch(fingerprint).is_some());
        }
        assert!(cache.touch(0).is_none());
    }

    /// Capacity 0 disables eviction entirely.
    #[test]
    fn warm_cache_zero_capacity_is_unbounded() {
        let mut cache = WarmCache::with_capacity(0);
        for fingerprint in 0..100u64 {
            cache.record(fingerprint, 32, 4, 1000);
        }
        assert_eq!(cache.len(), 100);
    }
}
