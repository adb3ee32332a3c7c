//! Fingerprint-sharded serving: N [`LiveQueue`] shards behind one
//! facade.
//!
//! A single [`LiveQueue`] serializes all dispatch decisions through one
//! dispatcher thread; under heavy traffic that thread becomes the
//! bottleneck long before the worker pool does. A [`ShardedQueue`] runs
//! `N` independent queues — each with its own dispatcher, pool and
//! generation clock — and routes every submission to a shard by its
//! SOC's [`fingerprint`](tamopt_soc::Soc::fingerprint) hash, so repeat
//! requests for the same chip land on the same shard and keep hitting
//! its locality. All shards share **one** warm-start incumbent cache,
//! so an incumbent discovered on any shard seeds every later request
//! for that SOC regardless of where it routes.
//!
//! # Routing and work stealing
//!
//! The home shard of a request is `fingerprint % N`. Routing is
//! decided once, at submission time, by [`route`]: when the home shard
//! already holds [`STEAL_MARGIN`] more routed requests than the
//! least-loaded shard, the request is *stolen* by that least-loaded
//! shard (lowest shard id on ties) — a drained shard never idles while
//! another's backlog grows. The steal decision reads only the
//! deterministic per-shard routing counters, never the wall clock:
//! under replay the counters advance exactly as the trace is split, so
//! the whole routing (and therefore each shard's sub-trace) is a pure
//! function of the trace — thread counts cannot change it.
//!
//! # Determinism
//!
//! [`ShardedQueue::replay`] extends the [`LiveQueue`] trace contract to
//! shards: for a fixed [`ShardTrace`] and shard count, the outcome
//! stream and final report are bit-identical for every
//! [`LiveConfig::threads`] value. The replay splits the trace into one
//! sub-trace per shard (deterministic routing, global → local id
//! renumbering), replays the shards **sequentially in shard-id order**
//! over the shared warm cache — so the cache state each shard starts
//! from is itself deterministic — and emits the merged stream as the
//! per-shard streams concatenated in shard-id order, ids mapped back to
//! global and every outcome stamped with its shard. Live operation uses
//! the same routing on live backlog counters (decremented as outcomes
//! stream), with the shards genuinely concurrent.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use tamopt_engine::CancelHandle;

use crate::live::{
    LiveConfig, LiveQueue, QueueStats, RequestId, SubmitError, Trace, TraceAction, TraceEvent,
    WarmCache,
};
use crate::report::{BatchReport, RequestOutcome};
use crate::Request;

/// How many more routed requests than the least-loaded shard a
/// request's home shard must already hold before the request is stolen
/// by the least-loaded shard. Margin 1 would reduce fingerprint routing
/// to round-robin and destroy same-SOC locality; a small margin keeps
/// locality while bounding skew.
pub const STEAL_MARGIN: usize = 2;

/// One event of a [`ShardTrace`]: a [`TraceEvent`] plus an optional
/// explicit shard pin (`None` routes by fingerprint hash + stealing).
#[derive(Debug, Clone)]
struct ShardTraceEvent {
    event: TraceEvent,
    shard: Option<usize>,
}

/// A fixed submission trace for a [`ShardedQueue`]: the [`Trace`]
/// grammar extended with optional per-event shard pins (the CLI's
/// `@<generation>/<shard>` tags). Submissions are numbered 0, 1, 2, …
/// in trace order — **global** ids, which cancellations refer to and
/// which the replayed outcomes carry.
#[derive(Debug, Clone, Default)]
pub struct ShardTrace {
    events: Vec<ShardTraceEvent>,
}

impl ShardTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a hash-routed submission applying at generation barrier
    /// `generation` of its shard.
    pub fn submit_at(mut self, generation: u32, request: Request) -> Self {
        self.events.push(ShardTraceEvent {
            event: TraceEvent {
                generation,
                action: TraceAction::Submit(request),
            },
            shard: None,
        });
        self
    }

    /// Appends a submission pinned to `shard` (bypassing hash routing
    /// and stealing), applying at generation barrier `generation` of
    /// that shard. Pins beyond the shard count wrap (`shard % N`).
    pub fn submit_pinned_at(mut self, generation: u32, shard: usize, request: Request) -> Self {
        self.events.push(ShardTraceEvent {
            event: TraceEvent {
                generation,
                action: TraceAction::Submit(request),
            },
            shard: Some(shard),
        });
        self
    }

    /// Appends a cancellation of global submission `id`, applying at
    /// generation barrier `generation` of the shard that owns the
    /// submission.
    pub fn cancel_at(mut self, generation: u32, id: impl Into<RequestId>) -> Self {
        self.events.push(ShardTraceEvent {
            event: TraceEvent {
                generation,
                action: TraceAction::Cancel(id.into()),
            },
            shard: None,
        });
        self
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

/// The deterministic routing decision: `fingerprint`'s home shard, or
/// the least-loaded shard (lowest id on ties) when the home shard is
/// ahead of it by at least [`STEAL_MARGIN`] routed requests.
fn route(fingerprint: u64, loads: &[usize]) -> usize {
    let home = (fingerprint % loads.len() as u64) as usize;
    let (steal, min_load) = loads
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(shard, load)| (load, shard))
        .expect("a sharded queue has at least one shard");
    if loads[home] >= min_load + STEAL_MARGIN {
        steal
    } else {
        home
    }
}

/// The global ↔ local id mapping plus the routing load counters.
#[derive(Debug, Default)]
struct RouteTable {
    /// Global id → `(shard, local id)`.
    owner: Vec<(usize, usize)>,
    /// Shard → local id → global id.
    global_of: Vec<Vec<usize>>,
    /// Per-shard routed-and-not-yet-finished counters driving the steal
    /// decision. Under replay these only grow (the split is static);
    /// live they are decremented as outcomes stream.
    loads: Vec<usize>,
}

impl RouteTable {
    fn new(shards: usize) -> Self {
        RouteTable {
            owner: Vec::new(),
            global_of: vec![Vec::new(); shards],
            loads: vec![0; shards],
        }
    }

    /// Routes one submission (explicit `pin` bypasses hash + stealing)
    /// and records the id mapping; returns `(shard, local id)`.
    fn assign(&mut self, fingerprint: u64, pin: Option<usize>) -> (usize, usize) {
        let shards = self.loads.len();
        let shard = match pin {
            Some(pinned) => pinned % shards,
            None => route(fingerprint, &self.loads),
        };
        let local = self.global_of[shard].len();
        self.global_of[shard].push(self.owner.len());
        self.owner.push((shard, local));
        self.loads[shard] += 1;
        (shard, local)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Re-stamps a shard-local outcome as a global one.
fn globalize(mut outcome: RequestOutcome, shard: usize, global_of: &[usize]) -> RequestOutcome {
    outcome.index = global_of[outcome.index];
    outcome.shard = Some(shard);
    outcome
}

/// The backlog snapshot of one shard, as reported by
/// [`ShardedQueue::stats`]. Pending ids are **global** submission ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// Requests routed to this shard and not yet finished (pending or
    /// executing) — the live load counter the steal decision reads.
    pub outstanding: usize,
    /// The shard queue's own snapshot: generation clock, aging rate and
    /// the pending backlog with aged effective priorities.
    pub queue: QueueStats,
}

/// A point-in-time snapshot of every shard's backlog — the sharded
/// `stats` verb of `tamopt serve`, making queue skew observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// One entry per shard, in shard-id order.
    pub shards: Vec<ShardStats>,
}

impl ShardedStats {
    /// The snapshot as one deterministic, compact JSON object: per
    /// shard its id, outstanding count, pending count and the shard
    /// queue's own stats object (see [`QueueStats::to_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"shard\": {}, \"outstanding\": {}, \"pending_count\": {}, \"queue\": {}}}",
                s.shard,
                s.outstanding,
                s.queue.pending.len(),
                s.queue.to_json(),
            );
        }
        out.push_str("]}");
        out
    }
}

/// `N` independent [`LiveQueue`] shards behind one queue-shaped facade:
/// fingerprint-hash routing with deterministic work stealing, one warm
/// cache shared by every shard, global submission ids and shard-stamped
/// outcomes. See the [module docs](self) for the routing and
/// determinism story.
///
/// # Example
///
/// ```
/// use tamopt_service::{LiveConfig, Request, ShardedQueue};
/// use tamopt_soc::benchmarks;
///
/// let queue = ShardedQueue::start(LiveConfig::default(), 2);
/// let (id, _handle) = queue
///     .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
///     .unwrap();
/// let outcome = queue.recv_outcome().unwrap();
/// assert_eq!(outcome.index, id.index());
/// assert!(outcome.shard.is_some());
/// let report = queue.shutdown().expect("first shutdown returns the report");
/// assert!(report.complete);
/// ```
#[derive(Debug)]
pub struct ShardedQueue {
    shards: Arc<Vec<LiveQueue>>,
    route: Arc<Mutex<RouteTable>>,
    start: Instant,
    /// Merged outcome stream, fed by one forwarder thread per shard.
    outcomes: Mutex<Receiver<RequestOutcome>>,
    forwarders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardedQueue {
    /// Starts `shards.max(1)` live shards, each a full [`LiveQueue`]
    /// with its own dispatcher and worker pool configured by its own
    /// clone of `config` (so `config.threads` is **per shard**), all
    /// sharing one warm cache.
    pub fn start(config: LiveConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let cache = WarmCache::shared(config.warm_capacity);
        let queues: Arc<Vec<LiveQueue>> = Arc::new(
            (0..shards)
                .map(|_| LiveQueue::start_with_cache(config.clone(), Arc::clone(&cache)))
                .collect(),
        );
        let route = Arc::new(Mutex::new(RouteTable::new(shards)));
        let (tx, rx) = std::sync::mpsc::channel::<RequestOutcome>();
        let forwarders = (0..shards)
            .map(|shard| {
                let queues = Arc::clone(&queues);
                let route = Arc::clone(&route);
                let tx: Sender<RequestOutcome> = tx.clone();
                std::thread::Builder::new()
                    .name(format!("tamopt-shard-{shard}"))
                    .spawn(move || {
                        while let Some(outcome) = queues[shard].recv_outcome() {
                            let global = {
                                let mut table = lock(&route);
                                table.loads[shard] = table.loads[shard].saturating_sub(1);
                                table.global_of[shard][outcome.index]
                            };
                            let mut outcome = outcome;
                            outcome.index = global;
                            outcome.shard = Some(shard);
                            // Fire-and-forget callers may drop the
                            // receiver; the final report still collects
                            // everything shard-side.
                            let _ = tx.send(outcome);
                        }
                    })
                    .expect("spawning a shard forwarder thread")
            })
            .collect();
        ShardedQueue {
            shards: queues,
            route,
            start: Instant::now(),
            outcomes: Mutex::new(rx),
            forwarders: Mutex::new(forwarders),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits `request`, routing it to its fingerprint's home shard
    /// (or a stealing shard — see [`route`]); returns the **global**
    /// [`RequestId`] and the per-request [`CancelHandle`]. Thread-safe
    /// and non-blocking, as [`LiveQueue::submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after [`shutdown`](Self::shutdown);
    /// [`SubmitError::Overloaded`] when the routed shard's backlog is
    /// at [`LiveConfig::max_pending`] (the cap is per shard) and this
    /// request is its weakest entry. Either way the speculative global
    /// id is unwound — a refused submission consumes nothing.
    pub fn submit(&self, request: Request) -> Result<(RequestId, CancelHandle), SubmitError> {
        // The route lock is held across the shard submit so local ids
        // assigned by the shard queue stay in lock-step with the
        // mapping (the shard's own state lock nests inside it; the
        // forwarders take the route lock alone, so no cycle).
        let mut table = lock(&self.route);
        let (shard, local) = table.assign(request.soc.fingerprint(), None);
        match self.shards[shard].submit(request) {
            Ok((id, handle)) => {
                debug_assert_eq!(id.index(), local);
                Ok((RequestId::from(table.owner.len() - 1), handle))
            }
            Err(err) => {
                // Unwind the speculative assignment: the shard queue
                // never saw the request.
                table.owner.pop();
                table.global_of[shard].pop();
                table.loads[shard] -= 1;
                Err(err)
            }
        }
    }

    /// Submits `request` pinned to `shard` (wrapped into range),
    /// bypassing fingerprint routing — the recovery path uses this to
    /// re-run a journalled request on the shard that originally
    /// accepted it.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_pinned(
        &self,
        shard: usize,
        request: Request,
    ) -> Result<(RequestId, CancelHandle), SubmitError> {
        let mut table = lock(&self.route);
        let (shard, _local) = table.assign(request.soc.fingerprint(), Some(shard));
        match self.shards[shard].submit(request) {
            Ok((_id, handle)) => Ok((RequestId::from(table.owner.len() - 1), handle)),
            Err(err) => {
                table.owner.pop();
                table.global_of[shard].pop();
                table.loads[shard] -= 1;
                Err(err)
            }
        }
    }

    /// The shard that accepted global submission `id`, or `None` for
    /// unknown ids — the accept-time stamp the journal records.
    pub fn shard_of(&self, id: RequestId) -> Option<usize> {
        lock(&self.route)
            .owner
            .get(id.index())
            .map(|&(shard, _)| shard)
    }

    /// Cancels global submission `id` on its owning shard; `false` for
    /// unknown ids and for requests whose outcome already streamed.
    pub fn cancel(&self, id: RequestId) -> bool {
        let owner = lock(&self.route).owner.get(id.index()).copied();
        match owner {
            Some((shard, local)) => self.shards[shard].cancel(RequestId::from(local)),
            None => false,
        }
    }

    /// Number of submissions accepted so far (across all shards).
    pub fn submitted(&self) -> usize {
        lock(&self.route).owner.len()
    }

    /// A per-shard backlog snapshot, pending ids mapped to global —
    /// the observability hook for queue skew (shard id, outstanding
    /// and pending counts, aged effective priorities).
    pub fn stats(&self) -> ShardedStats {
        let table = lock(&self.route);
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let mut stats = queue.stats();
                for p in &mut stats.pending {
                    p.id = table.global_of[shard][p.id];
                }
                ShardStats {
                    shard,
                    outstanding: table.loads[shard],
                    queue: stats,
                }
            })
            .collect();
        ShardedStats { shards }
    }

    /// Blocks until the next outcome streams out of any shard (global
    /// id, shard stamped); `None` once every shard has finished and all
    /// outcomes were received.
    pub fn recv_outcome(&self) -> Option<RequestOutcome> {
        lock(&self.outcomes).recv().ok()
    }

    /// The next outcome if one is ready right now (never blocks; see
    /// [`LiveQueue::try_recv_outcome`] for the `None` caveats).
    pub fn try_recv_outcome(&self) -> Option<RequestOutcome> {
        match self.outcomes.try_lock() {
            Ok(receiver) => receiver.try_recv().ok(),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                poisoned.into_inner().try_recv().ok()
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Shuts every shard down, drains their backlogs and returns the
    /// merged report: outcomes in global submission order, each stamped
    /// with its shard. `None` if the queue was already shut down.
    pub fn shutdown(&self) -> Option<BatchReport> {
        let reports: Vec<Option<BatchReport>> =
            self.shards.iter().map(LiveQueue::shutdown).collect();
        for forwarder in lock(&self.forwarders).drain(..) {
            let _ = forwarder.join();
        }
        let table = lock(&self.route);
        let mut outcomes = Vec::with_capacity(table.owner.len());
        let mut complete = true;
        for (shard, report) in reports.into_iter().enumerate() {
            let report = report?;
            complete &= report.complete;
            outcomes.extend(
                report
                    .outcomes
                    .into_iter()
                    .map(|o| globalize(o, shard, &table.global_of[shard])),
            );
        }
        outcomes.sort_by_key(|o| o.index);
        Some(BatchReport {
            outcomes,
            complete,
            wall_time: self.start.elapsed(),
        })
    }

    /// Replays a fixed sharded submission trace over `shards.max(1)`
    /// shards and returns the merged outcome stream plus the final
    /// report — the sharded extension of [`LiveQueue::replay`].
    ///
    /// The trace is split into per-shard sub-traces by the
    /// deterministic routing (pins honored, then fingerprint hash +
    /// stealing on the routing counters), and the shards replay
    /// **sequentially in shard-id order** over one shared warm cache.
    /// The merged stream is the per-shard streams concatenated in
    /// shard-id order with global ids and shard stamps; the report
    /// holds one outcome per submission in global order. For a fixed
    /// trace and shard count, both are bit-identical for every
    /// [`LiveConfig::threads`] value.
    pub fn replay(
        trace: ShardTrace,
        config: LiveConfig,
        shards: usize,
    ) -> (Vec<RequestOutcome>, BatchReport) {
        let shards = shards.max(1);
        let start = Instant::now();
        // Split the global trace into one local trace per shard.
        let mut table = RouteTable::new(shards);
        let mut local: Vec<Trace> = vec![Trace::new(); shards];
        for ShardTraceEvent { event, shard } in trace.events {
            match event.action {
                TraceAction::Submit(request) => {
                    let (shard, _local) = table.assign(request.soc.fingerprint(), shard);
                    local[shard] =
                        std::mem::take(&mut local[shard]).submit_at(event.generation, request);
                }
                TraceAction::Cancel(id) => {
                    // A cancel of a not-yet-submitted global id is a
                    // no-op, exactly as in a flat trace replay (events
                    // apply in order; unknown handles are skipped).
                    if let Some(&(shard, local_id)) = table.owner.get(id.index()) {
                        local[shard] =
                            std::mem::take(&mut local[shard]).cancel_at(event.generation, local_id);
                    }
                }
            }
        }

        // Sequential shard replay over one cache: shard `s` starts from
        // the exact cache state shards `0..s` left behind — itself
        // thread-count invariant by induction — so cross-shard warm
        // sharing cannot break the byte-identity contract.
        let cache = WarmCache::shared(config.warm_capacity);
        let mut stream = Vec::new();
        let mut outcomes = Vec::with_capacity(table.owner.len());
        let mut complete = true;
        for (shard, sub) in local.into_iter().enumerate() {
            let (shard_stream, report) =
                LiveQueue::replay_with_cache(sub, config.clone(), Arc::clone(&cache));
            complete &= report.complete;
            stream.extend(
                shard_stream
                    .into_iter()
                    .map(|o| globalize(o, shard, &table.global_of[shard])),
            );
            outcomes.extend(
                report
                    .outcomes
                    .into_iter()
                    .map(|o| globalize(o, shard, &table.global_of[shard])),
            );
        }
        outcomes.sort_by_key(|o| o.index);
        let report = BatchReport {
            outcomes,
            complete,
            wall_time: start.elapsed(),
        };
        (stream, report)
    }
}

impl Drop for ShardedQueue {
    fn drop(&mut self) {
        // A facade dropped without `shutdown` still winds every shard
        // down cleanly; join the forwarders so no thread outlives the
        // facade.
        let _ = self.shutdown();
    }
}

/// A serving daemon of either shape behind one surface: one flat
/// [`LiveQueue`], or a [`ShardedQueue`] of `N` fingerprint-routed
/// shards. Ids are global in both shapes; only the sharded shape stamps
/// outcomes with their shard, so a flat daemon's wire output is that of
/// a bare [`LiveQueue`].
#[derive(Debug)]
pub enum ServeQueue {
    /// One queue, no shard stamps.
    Flat(LiveQueue),
    /// `N` shards behind the routing facade.
    Sharded(ShardedQueue),
}

impl ServeQueue {
    /// Starts a flat queue (`shards = None`) or a sharded one over
    /// `shards` shards (see [`ShardedQueue::start`]).
    pub fn start(config: LiveConfig, shards: Option<usize>) -> Self {
        match shards {
            None => ServeQueue::Flat(LiveQueue::start(config)),
            Some(n) => ServeQueue::Sharded(ShardedQueue::start(config, n)),
        }
    }

    /// Replays `trace` flat ([`LiveQueue::replay`], shard pins ignored)
    /// or over `shards` shards ([`ShardedQueue::replay`]).
    pub fn replay(
        trace: ShardTrace,
        config: LiveConfig,
        shards: Option<usize>,
    ) -> (Vec<RequestOutcome>, BatchReport) {
        match shards {
            None => LiveQueue::replay(
                Trace {
                    events: trace.events.into_iter().map(|e| e.event).collect(),
                },
                config,
            ),
            Some(n) => ShardedQueue::replay(trace, config, n),
        }
    }

    /// Submits `request`, returning its global id (see
    /// [`LiveQueue::submit`] and [`ShardedQueue::submit`]).
    ///
    /// # Errors
    ///
    /// As [`LiveQueue::submit`].
    pub fn submit(&self, request: Request) -> Result<RequestId, SubmitError> {
        match self {
            ServeQueue::Flat(q) => q.submit(request).map(|(id, _)| id),
            ServeQueue::Sharded(q) => q.submit(request).map(|(id, _)| id),
        }
    }

    /// Submits pinned to `shard` when both the pin and the sharding
    /// exist — the recovery path re-running a journalled request where
    /// it was originally accepted; routes normally otherwise.
    ///
    /// # Errors
    ///
    /// As [`LiveQueue::submit`].
    pub fn submit_pinned(
        &self,
        shard: Option<usize>,
        request: Request,
    ) -> Result<RequestId, SubmitError> {
        match (self, shard) {
            (ServeQueue::Sharded(q), Some(shard)) => {
                q.submit_pinned(shard, request).map(|(id, _)| id)
            }
            _ => self.submit(request),
        }
    }

    /// The shard that accepted global submission `id` (`None` when
    /// flat) — the accept-time stamp the journal records.
    pub fn shard_of(&self, id: RequestId) -> Option<usize> {
        match self {
            ServeQueue::Flat(_) => None,
            ServeQueue::Sharded(q) => q.shard_of(id),
        }
    }

    /// Cancels global submission `id`; `false` for unknown ids and for
    /// requests whose outcome already streamed.
    pub fn cancel(&self, id: RequestId) -> bool {
        match self {
            ServeQueue::Flat(q) => q.cancel(id),
            ServeQueue::Sharded(q) => q.cancel(id),
        }
    }

    /// The backlog snapshot as compact JSON ([`QueueStats::to_json`]
    /// or [`ShardedStats::to_json`]).
    pub fn stats_json(&self) -> String {
        match self {
            ServeQueue::Flat(q) => q.stats().to_json(),
            ServeQueue::Sharded(q) => q.stats().to_json(),
        }
    }

    /// Blocks until the next outcome streams out; `None` once the queue
    /// has finished and all outcomes were received.
    pub fn recv_outcome(&self) -> Option<RequestOutcome> {
        match self {
            ServeQueue::Flat(q) => q.recv_outcome(),
            ServeQueue::Sharded(q) => q.recv_outcome(),
        }
    }

    /// Drains the backlog and returns the final report; `None` if the
    /// queue was already shut down.
    pub fn shutdown(&self) -> Option<BatchReport> {
        match self {
            ServeQueue::Flat(q) => q.shutdown(),
            ServeQueue::Sharded(q) => q.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn routing_prefers_home_until_the_margin() {
        // Home shard = fingerprint % 2.
        let fp = benchmarks::d695().fingerprint();
        let home = (fp % 2) as usize;
        let other = 1 - home;
        let mut loads = vec![0usize; 2];
        assert_eq!(route(fp, &loads), home);
        loads[home] = STEAL_MARGIN - 1;
        assert_eq!(route(fp, &loads), home, "below the margin: stay home");
        loads[home] = STEAL_MARGIN;
        assert_eq!(route(fp, &loads), other, "at the margin: steal");
        loads[other] = 1;
        assert_eq!(route(fp, &loads), home, "margin is relative to the min");
    }

    #[test]
    fn stealing_breaks_ties_by_lowest_shard_id() {
        let fp = benchmarks::d695().fingerprint();
        let shards = 4;
        let home = (fp % shards as u64) as usize;
        let mut loads = vec![0usize; shards];
        loads[home] = STEAL_MARGIN;
        let stolen = route(fp, &loads);
        let expected = (0..shards).find(|&s| s != home || loads[s] == 0).unwrap();
        assert_eq!(stolen, expected);
    }

    #[test]
    fn pins_wrap_and_bypass_stealing() {
        let mut table = RouteTable::new(2);
        table.loads = vec![10, 0];
        let (shard, _) = table.assign(0, Some(4));
        assert_eq!(shard, 0, "pin 4 % 2 shards = shard 0, stealing ignored");
    }

    #[test]
    fn assign_keeps_global_and_local_ids_in_lock_step() {
        let mut table = RouteTable::new(2);
        for i in 0..6 {
            let (shard, local) = table.assign(i as u64, Some(i % 2));
            assert_eq!(table.owner[i], (shard, local));
            assert_eq!(table.global_of[shard][local], i);
        }
        assert_eq!(table.loads, vec![3, 3]);
    }
}
