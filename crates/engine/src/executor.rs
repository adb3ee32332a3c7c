//! Deterministic chunked parallel execution of indexed search spaces.
//!
//! The executor schedules **index ranges**, never items. A search is a
//! run of global indices `0, 1, 2, …`, dispatched a *generation* at a
//! time; what an index stands for (a partition rank, a swept width, a
//! queued request) belongs to the caller. Each generation's indices are
//! cut into fixed-size *chunks*, and the chunks of one generation are
//! evaluated concurrently, each as one `base..end` range. The calling
//! thread is worker 0: it spawns `threads − 1` more `std::thread`
//! workers (none at `threads = 1`) and claims chunks alongside them.
//! Workers do not get a fixed pre-assignment: they **pull** chunks from
//! a shared index-ordered queue, so a slow chunk never idles the rest of
//! the pool (work stealing within a generation).
//!
//! Between generations, while every other worker is parked, the calling
//! thread folds the chunk results through the caller's `merge` closure
//! **in chunk-index order**, polls the budget and produces the next
//! generation. `merge` is where a [`crate::SharedIncumbent`] is
//! tightened, so every worker of generation `g` prunes against exactly
//! the bound established by generations `0..g`, regardless of thread
//! count or timing.
//!
//! # Determinism
//!
//! For a fixed [`ParallelConfig`] chunk geometry, the set of ranges, the
//! shared state each range observes, and the merge order are all
//! independent of [`ParallelConfig::threads`]. If `eval` is a pure
//! function of `(range, pre-generation shared state)`, the merged
//! outcome at `threads = N` is **bit-identical** to `threads = 1`.
//! Wall-clock truncation ([`SearchBudget::out_of_time`] / cancellation)
//! necessarily depends on timing, but it only takes effect at generation
//! boundaries: a truncated run is always equivalent to a complete run
//! over its first `k` generations. Node-budget truncation counts
//! dispatched indices and is therefore fully deterministic.
//!
//! Per-worker scratch is invisible to the contract: a scratch value may
//! cache and reuse buffers across the ranges one worker happens to
//! evaluate, but `eval`'s *result* must not depend on it (reuse changes
//! where bytes live, never what they say).
//!
//! Generations ramp up exponentially (1, 2, 4, … chunks, capped at
//! [`ParallelConfig::chunks_per_generation`]): the first chunks
//! establish a strong incumbent almost as fast as a fully sequential
//! scan would, and the later, wide generations carry the parallelism.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use crate::SearchBudget;

/// Thread-count and chunk geometry of a parallel search.
///
/// The chunk geometry (`chunk_size`, `chunks_per_generation`) is part of
/// the *search definition*: it fixes the deterministic schedule on which
/// incumbent bounds propagate. The `threads` knob is pure execution
/// policy and never changes results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads, the calling thread included: `N` means the
    /// calling thread plus `N − 1` spawned workers, so `1` (the default)
    /// runs inline; `0` means one per available CPU.
    pub threads: usize,
    /// Indices per chunk (the unit of work stealing).
    pub chunk_size: usize,
    /// Upper bound on chunks per generation (the maximum useful
    /// parallelism and the staleness window of the incumbent bound).
    pub chunks_per_generation: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            chunk_size: 32,
            chunks_per_generation: 16,
        }
    }
}

impl ParallelConfig {
    /// Default geometry with `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..Self::default()
        }
    }

    /// The actual worker count: resolves `threads == 0` to the number of
    /// available CPUs, and clamps to `chunks_per_generation` — more
    /// workers than chunks in a generation can never be busy, and an
    /// absurd request must not exhaust OS threads.
    pub fn effective_threads(&self) -> usize {
        let requested = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        requested.clamp(1, self.chunks_per_generation.max(1))
    }

    /// Chunk capacity of generation `index` under the exponential
    /// ramp-up.
    fn generation_width(&self, index: u32) -> usize {
        self.chunks_per_generation
            .max(1)
            .min(1usize << index.min(20))
    }
}

/// Whether a search ran to completion or was stopped by its
/// [`SearchBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStatus {
    /// Every index of the search space was evaluated.
    Complete,
    /// The budget expired; the merged state covers a prefix of whole
    /// generations.
    Truncated,
}

impl SearchStatus {
    /// `true` for [`SearchStatus::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, SearchStatus::Complete)
    }
}

/// The generation in flight: its global index range, cut into chunks of
/// `chunk_size`, and one outcome slot per chunk. The slot vector keeps
/// its capacity from one generation to the next.
struct Generation<C, E> {
    indices: Range<u64>,
    outs: Vec<Option<std::thread::Result<Result<C, E>>>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Evaluates the index space `0..len` range by range, possibly in
/// parallel, and folds the range results in index order.
///
/// * `scratch()` runs once per worker, the calling thread included
///   (once total when `threads == 1`); the worker hands the same
///   `&mut W` to every `eval` call it executes, across all generations.
///   This is the hook for allocation-free hot paths: a scratch can hold
///   grow-once buffers, memo tables and reusable result objects, so the
///   steady-state evaluation of one range allocates nothing. Which
///   ranges share a scratch depends on thread count and timing, so
///   `eval`'s result must be independent of the scratch's history —
///   caches may change *how fast* a value is computed, never *which*
///   value.
/// * `eval(scratch, base..end)` runs on a worker thread over one chunk
///   of at most [`ParallelConfig::chunk_size`] global indices (only the
///   last range is shorter). It must not mutate shared state
///   (read-only access to e.g. a [`crate::SharedIncumbent`] is the
///   intended pattern).
/// * `merge(result)` runs on the calling thread, in ascending range
///   order, only between generations; it may mutate shared state.
///
/// This is [`search_generations`] with a hook that hands out the next
/// `capacity` indices until `len` are dispatched.
///
/// Errors from `eval` and `merge` abort the search; when several ranges
/// of one generation fail, the error of the lowest-indexed range wins
/// (deterministically). Panics in `eval` are forwarded to the caller
/// after the worker pool shuts down cleanly.
///
/// The budget is polled between generations (the first generation always
/// runs), so a truncated search still merges at least one range —
/// callers relying on "partial but valid" results get a best-effort
/// incumbent even under an already-expired budget.
pub fn search_ranges<C, E, W, S, F, M>(
    len: u64,
    config: &ParallelConfig,
    budget: &SearchBudget,
    scratch: S,
    eval: F,
    merge: M,
) -> Result<SearchStatus, E>
where
    C: Send,
    E: Send,
    S: Fn() -> W + Sync,
    F: Fn(&mut W, Range<u64>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    let mut dispatched = 0u64;
    search_generations(
        |_generation, capacity| {
            let count = (len - dispatched).min(capacity as u64);
            dispatched += count;
            count as usize
        },
        config,
        budget,
        scratch,
        eval,
        merge,
    )
}

/// [`search_ranges`] with the fixed length replaced by a **generation
/// barrier hook**: `produce(generation, capacity)` runs on the calling
/// thread at every generation boundary — while all workers are parked —
/// and returns how many indices to dispatch in that generation. They
/// follow on from the last index dispatched before, so a caller that
/// hands out its own items (e.g. queued requests) stores them where
/// `eval` can take them by global index.
///
/// This is the one driver behind every search, and the engine-level
/// primitive behind dynamic schedulers (e.g. a live request queue that
/// re-reads its priority queue between generations): because the hook
/// runs under the barrier, after the previous generation merged, it may
/// consult and mutate caller state that `merge` also touches, admit work
/// that arrived after the search started, and reorder what it hands out
/// — all without breaking the determinism contract, which now reads: for
/// a fixed *sequence of produced generations*, the merged outcome at
/// `threads = N` is bit-identical to `threads = 1`.
///
/// `capacity` is the generation's chunk budget in indices
/// (`generation_width(g) × chunk_size` under the exponential ramp);
/// returning more than `capacity` simply widens the generation (still
/// deterministically — the schedule depends only on the hook's return
/// values). Returning **0** ends the search with
/// [`SearchStatus::Complete`]; the hook may block (e.g. on a condition
/// variable) to wait for more work instead. The budget is polled between
/// generations, *before* the hook runs, so a blocking hook is not
/// consulted once the budget has expired.
pub fn search_generations<C, E, W, P, S, F, M>(
    mut produce: P,
    config: &ParallelConfig,
    budget: &SearchBudget,
    scratch: S,
    eval: F,
    mut merge: M,
) -> Result<SearchStatus, E>
where
    C: Send,
    E: Send,
    P: FnMut(u32, usize) -> usize,
    S: Fn() -> W + Sync,
    F: Fn(&mut W, Range<u64>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    let threads = config.effective_threads();
    let chunk_size = config.chunk_size.max(1);
    let current: Mutex<Generation<C, E>> = Mutex::new(Generation {
        indices: 0..0,
        outs: Vec::new(),
    });
    let next_chunk = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    // Two barriers per generation: `start` publishes the generation to
    // the workers, `finish` hands the filled slots back to the caller.
    // Alone, the caller skips them: a wait wakes a futex even when no
    // thread sleeps on it (about 0.2 µs).
    let start = Barrier::new(threads);
    let finish = Barrier::new(threads);

    // Shared index-ordered chunk queue: each worker claims the next
    // unclaimed chunk, so load imbalance inside a generation self-levels.
    let claim = |workspace: &mut W| loop {
        let index = next_chunk.fetch_add(1, Ordering::Relaxed);
        let range = {
            let generation = lock(&current);
            if index >= generation.outs.len() {
                break;
            }
            let base = generation.indices.start + (index * chunk_size) as u64;
            base..generation
                .indices
                .end
                .min(base.saturating_add(chunk_size as u64))
        };
        let out = catch_unwind(AssertUnwindSafe(|| eval(workspace, range)));
        lock(&current).outs[index] = Some(out);
    };

    let mut status = SearchStatus::Complete;
    let mut first_error: Option<E> = None;
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

    let mut drive = || {
        let mut workspace = scratch();
        // Global index of the next chunk's base — doubles as the
        // dispatched-index count the node budget is polled against.
        let mut next_base = 0u64;
        let mut generation = 0u32;
        loop {
            if generation > 0 && budget.is_exhausted(next_base) {
                status = SearchStatus::Truncated;
                break;
            }
            let width = config.generation_width(generation);
            let count = produce(generation, width * chunk_size);
            if count == 0 {
                break;
            }
            {
                let mut slots = lock(&current);
                slots.indices = next_base..next_base + count as u64;
                slots.outs.resize_with(count.div_ceil(chunk_size), || None);
            }
            next_base += count as u64;
            next_chunk.store(0, Ordering::Relaxed);
            if threads > 1 {
                start.wait();
            }
            claim(&mut workspace);
            if threads > 1 {
                finish.wait();
            }
            // Merge in chunk order, outside the lock: keep the
            // lowest-indexed error and the first worker panic, and merge
            // nothing after either. The emptied slot buffer goes back for
            // the next generation.
            let mut outs = std::mem::take(&mut lock(&current).outs);
            for out in outs.drain(..) {
                let failed = first_error.is_some() || panic_payload.is_some();
                match out.expect("generation fully evaluated") {
                    Ok(Ok(c)) if !failed => {
                        if let Err(e) = merge(c) {
                            first_error = Some(e);
                        }
                    }
                    Ok(Err(e)) if !failed => first_error = Some(e),
                    Err(payload) if panic_payload.is_none() => panic_payload = Some(payload),
                    _ => {}
                }
            }
            lock(&current).outs = outs;
            if first_error.is_some() || panic_payload.is_some() {
                break;
            }
            generation += 1;
        }
    };

    if threads == 1 {
        // No thread scope: opening one costs a heap allocation per search.
        drive();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| {
                    let mut workspace = scratch();
                    loop {
                        start.wait();
                        if done.load(Ordering::Acquire) {
                            return;
                        }
                        claim(&mut workspace);
                        finish.wait();
                    }
                });
            }
            // A panic in `produce` or `merge` must still reach the
            // shutdown below, or the workers would stay parked on the
            // start barrier forever and scope-join would deadlock. Every
            // exit of the driver releases the workers exactly once.
            let driver = catch_unwind(AssertUnwindSafe(drive));
            done.store(true, Ordering::Release);
            start.wait();
            if let Err(payload) = driver {
                resume_unwind(payload);
            }
        });
    }

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedIncumbent;
    use std::time::Duration;

    /// Runs a bound-pruned "find the minimum" search and returns
    /// (winner value, winner index, number of items actually scored).
    fn pruned_min(values: &[u64], threads: usize) -> (u64, u64, u64) {
        let incumbent = SharedIncumbent::unbounded();
        let mut best: Option<(u64, u64)> = None;
        let mut scored = 0u64;
        let config = ParallelConfig {
            threads,
            chunk_size: 4,
            chunks_per_generation: 4,
        };
        let status = search_ranges(
            values.len() as u64,
            &config,
            &SearchBudget::unlimited(),
            || (),
            |(), range| -> Result<_, ()> {
                let mut local_tau = incumbent.get();
                let mut local_best = None;
                let mut local_scored = 0u64;
                for i in range {
                    // "Scoring" only happens under the bound, like a
                    // τ-pruned evaluation would.
                    let v = values[i as usize];
                    if v < local_tau {
                        local_scored += 1;
                        local_tau = v;
                        local_best = Some((v, i));
                    }
                }
                Ok((local_best, local_scored))
            },
            |(chunk_best, chunk_scored)| {
                scored += chunk_scored;
                if let Some((v, i)) = chunk_best {
                    incumbent.tighten(v);
                    if best.is_none_or(|(bv, _)| v < bv) {
                        best = Some((v, i));
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(status.is_complete());
        let (v, i) = best.unwrap();
        (v, i, scored)
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 2_654_435_761) % 1000).collect();
        let reference = pruned_min(&values, 1);
        for threads in [2, 3, 8] {
            assert_eq!(pruned_min(&values, threads), reference, "threads {threads}");
        }
        // The winner is the *first* index achieving the minimum.
        let min = *values.iter().min().unwrap();
        let first = values.iter().position(|&v| v == min).unwrap() as u64;
        assert_eq!((reference.0, reference.1), (min, first));
    }

    #[test]
    fn merge_sees_chunks_in_index_order() {
        // 100 = 14 × 7 + 2: every range is a full chunk but the last,
        // which holds the 2 leftover indices.
        for threads in [1, 4] {
            let mut ranges = Vec::new();
            let status = search_ranges(
                100,
                &ParallelConfig {
                    threads,
                    chunk_size: 7,
                    chunks_per_generation: 3,
                },
                &SearchBudget::unlimited(),
                || (),
                |(), range| Ok::<_, ()>(range),
                |range| {
                    ranges.push(range);
                    Ok(())
                },
            )
            .unwrap();
            assert!(status.is_complete());
            let expected: Vec<Range<u64>> =
                (0..100).step_by(7).map(|b| b..(b + 7).min(100)).collect();
            assert_eq!(ranges, expected, "threads {threads}");
            assert_eq!(ranges.last(), Some(&(98..100)));
        }
    }

    #[test]
    fn empty_input_completes_without_merging() {
        for threads in [1, 4] {
            let status = search_ranges(
                0,
                &ParallelConfig::with_threads(threads),
                &SearchBudget::unlimited(),
                || (),
                |(), _| -> Result<(), ()> { panic!("nothing to evaluate") },
                |()| panic!("nothing to merge"),
            )
            .unwrap();
            assert!(status.is_complete(), "threads {threads}");
        }
    }

    #[test]
    fn expired_budget_still_runs_the_first_generation() {
        for threads in [1, 4] {
            let mut merged_items = 0u64;
            let status = search_ranges(
                1000,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 16,
                },
                &SearchBudget::time_limited(Duration::ZERO),
                || (),
                |(), range| Ok::<_, ()>(range.end - range.start),
                |n| {
                    merged_items += n;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(status, SearchStatus::Truncated);
            // Generation 0 ramps up to a single chunk.
            assert_eq!(merged_items, 8, "threads {threads}");
        }
    }

    #[test]
    fn node_budget_truncation_is_deterministic() {
        let count = |threads: usize| {
            let mut merged = 0u64;
            let status = search_ranges(
                10_000,
                &ParallelConfig {
                    threads,
                    chunk_size: 32,
                    chunks_per_generation: 16,
                },
                &SearchBudget::node_limited(100),
                || (),
                |(), range| Ok::<_, ()>(range.end - range.start),
                |n| {
                    merged += n;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(status, SearchStatus::Truncated);
            merged
        };
        let reference = count(1);
        // Whole generations: 32 (gen 0) + 64 (gen 1) + 128 (gen 2) — the
        // budget trips after the generation crossing 100 items.
        assert_eq!(reference, 224);
        for threads in [2, 8] {
            assert_eq!(count(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn cancellation_stops_the_next_generation_from_dispatching() {
        // A cancellation landing while generation g merges must win: the
        // budget poll before generation g+1 ends the search, and no item
        // of g+1 is evaluated.
        use std::sync::atomic::AtomicU64;
        for threads in [1usize, 4] {
            let (budget, handle) = SearchBudget::unlimited().cancellable();
            let evaluated = AtomicU64::new(0);
            let mut merged = 0u64;
            let status = search_ranges(
                1000,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 16,
                },
                &budget,
                || (),
                |(), range| {
                    let n = range.end - range.start;
                    evaluated.fetch_add(n, Ordering::Relaxed);
                    Ok::<_, ()>(n)
                },
                |n| {
                    merged += n;
                    // Trips during the merge of generation 0.
                    handle.cancel();
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(status, SearchStatus::Truncated, "threads {threads}");
            assert_eq!(merged, 8, "threads {threads}");
            assert_eq!(
                evaluated.load(Ordering::Relaxed),
                8,
                "threads {threads}: the next generation must not run"
            );
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        for threads in [1, 4] {
            let err = search_ranges(
                256,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 8,
                },
                &SearchBudget::unlimited(),
                || (),
                |(), range| {
                    if range.start >= 64 {
                        Err(range.start)
                    } else {
                        Ok(())
                    }
                },
                |()| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err, 64, "threads {threads}");
        }
    }

    #[test]
    fn merge_error_aborts() {
        let err = search_ranges(
            100,
            &ParallelConfig::with_threads(4),
            &SearchBudget::unlimited(),
            || (),
            |(), range| Ok(range.start),
            |base| if base >= 32 { Err("stop") } else { Ok(()) },
        )
        .unwrap_err();
        assert_eq!(err, "stop");
    }

    #[test]
    fn worker_panics_propagate_after_clean_shutdown() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_ranges(
                100,
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                || (),
                |(), range| -> Result<(), ()> {
                    if range.start >= 32 {
                        panic!("worker bug");
                    }
                    Ok(())
                },
                |()| Ok(()),
            )
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "worker bug");
    }

    #[test]
    fn merge_panics_propagate_instead_of_deadlocking() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_ranges(
                100,
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                || (),
                |(), range| Ok::<_, ()>(range.start),
                |base| {
                    if base >= 32 {
                        panic!("merge bug");
                    }
                    Ok(())
                },
            )
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "merge bug");
    }

    #[test]
    fn hook_producer_panics_propagate_instead_of_deadlocking() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_generations(
                |generation, capacity| {
                    if generation >= 2 {
                        panic!("hook bug");
                    }
                    capacity
                },
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                || (),
                |(), _range| Ok::<_, ()>(()),
                |()| Ok(()),
            )
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "hook bug");
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let config = ParallelConfig::with_threads(0);
        assert!(config.effective_threads() >= 1);
    }

    #[test]
    fn absurd_thread_counts_are_clamped_to_usable_parallelism() {
        let config = ParallelConfig::with_threads(usize::MAX);
        assert_eq!(
            config.effective_threads(),
            config.chunks_per_generation,
            "workers beyond the generation width can never be busy"
        );
        // And the search still runs (and stays deterministic).
        let mut sum = 0u64;
        search_ranges(
            100,
            &ParallelConfig {
                threads: 1_000_000,
                chunk_size: 8,
                chunks_per_generation: 4,
            },
            &SearchBudget::unlimited(),
            || (),
            |(), range| Ok::<_, ()>(range.sum::<u64>()),
            |s| {
                sum += s;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn scratch_is_per_worker_and_reused_across_generations() {
        // Each worker's scratch counts the chunks it evaluated; the
        // counts must sum to the total chunk count (every chunk ran on
        // exactly one scratch), and with threads = 1 a single scratch
        // sees everything — proof the value survives generations.
        for threads in [1usize, 4] {
            let mut per_chunk_counts = Vec::new();
            let status = search_ranges(
                96,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                || 0u64,
                |seen: &mut u64, range| {
                    *seen += 1;
                    Ok::<_, ()>((range.start, *seen))
                },
                |(base, seen)| {
                    per_chunk_counts.push((base, seen));
                    Ok(())
                },
            )
            .unwrap();
            assert!(status.is_complete());
            assert_eq!(per_chunk_counts.len(), 12, "threads {threads}");
            if threads == 1 {
                // One scratch evaluates every chunk in order.
                let counts: Vec<u64> = per_chunk_counts.iter().map(|&(_, s)| s).collect();
                assert_eq!(counts, (1..=12).collect::<Vec<u64>>());
            }
            // Per-worker counters never exceed the chunk total and are
            // strictly positive.
            assert!(per_chunk_counts.iter().all(|&(_, s)| (1..=12).contains(&s)));
        }
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        // One generation of two chunks at threads 2: each `eval` waits
        // on a 2-party barrier, so both chunks run at once on two
        // distinct threads — and with one worker spawned, one of them
        // must be the caller.
        let rendezvous = std::sync::Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        let mut rounds = 0u32;
        let status = search_generations(
            |_generation, _capacity| {
                rounds += 1;
                if rounds == 1 {
                    2
                } else {
                    0
                }
            },
            &ParallelConfig {
                threads: 2,
                chunk_size: 1,
                chunks_per_generation: 2,
            },
            &SearchBudget::unlimited(),
            || (),
            |(), _range| {
                ids.lock().unwrap().push(std::thread::current().id());
                rendezvous.wait();
                Ok::<_, ()>(())
            },
            |()| Ok(()),
        )
        .unwrap();
        assert!(status.is_complete());
        let ids: std::collections::HashSet<_> = ids.into_inner().unwrap().into_iter().collect();
        assert_eq!(ids.len(), 2, "two chunks on two distinct threads");
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn generation_hook_sees_the_ramp() {
        // The hook runs once per generation with the ramped capacity;
        // returning fewer indices than the capacity keeps the search
        // going.
        let mut calls: Vec<(u32, usize)> = Vec::new();
        let mut merged: Vec<u64> = Vec::new();
        let mut remaining = 10usize;
        let status = search_generations(
            |generation, capacity| {
                calls.push((generation, capacity));
                let take = remaining.min(3);
                remaining -= take;
                take
            },
            &ParallelConfig {
                threads: 1,
                chunk_size: 2,
                chunks_per_generation: 4,
            },
            &SearchBudget::unlimited(),
            || (),
            |(), range| Ok::<_, ()>(range.end),
            |v| {
                merged.push(v);
                Ok(())
            },
        )
        .unwrap();
        assert!(status.is_complete());
        // Capacities follow the exponential ramp × chunk_size: 1×2, 2×2,
        // 4×2 (cap), …; the final call finds nothing and ends the search.
        assert_eq!(calls, vec![(0, 2), (1, 4), (2, 8), (3, 8), (4, 8)]);
        // 3 indices per call → ranges of (2, 1), (2, 1), (2, 1), (1):
        // bases advance across generations.
        assert_eq!(merged, vec![2, 3, 5, 6, 8, 9, 10]);
    }

    #[test]
    fn a_hook_past_its_capacity_widens_the_generation() {
        // Generation 0 has room for one chunk of 2 but is handed 9
        // indices: it runs five ranges, the last one short. The node
        // budget counts all 9, so a budget of 10 lets generation 1 run
        // and stops the search before generation 2.
        for threads in [1usize, 4] {
            let mut calls = Vec::new();
            let mut merged = Vec::new();
            let status = search_generations(
                |generation, capacity| {
                    calls.push((generation, capacity));
                    if generation == 0 {
                        9
                    } else {
                        1
                    }
                },
                &ParallelConfig {
                    threads,
                    chunk_size: 2,
                    chunks_per_generation: 4,
                },
                &SearchBudget::node_limited(10),
                || (),
                |(), range| Ok::<_, ()>(range),
                |range| {
                    merged.push(range);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(status, SearchStatus::Truncated, "threads {threads}");
            assert_eq!(calls, vec![(0, 2), (1, 4)], "threads {threads}");
            assert_eq!(
                merged,
                vec![0..2, 2..4, 4..6, 6..8, 8..9, 9..10],
                "threads {threads}"
            );
        }
    }

    #[test]
    fn dynamic_production_is_thread_count_invariant() {
        // A hook that "admits" new work depending on the generation index
        // (the live-queue pattern) hands its items to `eval` by global
        // index, and must still merge bit-identically for every thread
        // count.
        let run = |threads: usize| {
            let mut queue: Vec<u64> = (0..40).collect();
            let dispatched: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let mut merged = Vec::new();
            let status = search_generations(
                |generation, capacity| {
                    if generation == 2 {
                        // Mid-run submission, admitted at the barrier.
                        queue.extend(1000..1010);
                    }
                    let take = capacity.min(queue.len());
                    dispatched.lock().unwrap().extend(queue.drain(..take));
                    take
                },
                &ParallelConfig {
                    threads,
                    chunk_size: 4,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                || (),
                |(), range: Range<u64>| {
                    let items = dispatched.lock().unwrap();
                    let chunk = items[range.start as usize..range.end as usize].to_vec();
                    Ok::<_, ()>((range.start, chunk))
                },
                |(base, chunk)| {
                    merged.push((base, chunk));
                    Ok(())
                },
            )
            .unwrap();
            assert!(status.is_complete());
            merged
        };
        let reference = run(1);
        assert_eq!(reference.iter().map(|(_, c)| c.len()).sum::<usize>(), 50);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn hook_sees_merged_state_of_the_previous_generation() {
        // The hook contract: production at generation g observes every
        // merge of generations 0..g.
        for threads in [1usize, 4] {
            let merged_total = std::cell::Cell::new(0u64);
            let mut observed: Vec<u64> = Vec::new();
            let mut rounds = 0u32;
            let status = search_generations(
                |_generation, _capacity| {
                    observed.push(merged_total.get());
                    rounds += 1;
                    if rounds > 3 {
                        0
                    } else {
                        4
                    }
                },
                &ParallelConfig {
                    threads,
                    chunk_size: 2,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                || (),
                |(), range| Ok::<_, ()>(range.end - range.start),
                |s| {
                    merged_total.set(merged_total.get() + s);
                    Ok(())
                },
            )
            .unwrap();
            assert!(status.is_complete());
            // Each call sees all previous generations fully merged.
            assert_eq!(observed, vec![0, 4, 8, 12], "threads {threads}");
        }
    }

    #[test]
    fn hook_budget_is_polled_before_producing() {
        // Once the budget expires, the hook must not be consulted again —
        // a blocking hook would otherwise hang a truncated search.
        let mut calls = 0u32;
        let status = search_generations(
            |_, capacity| {
                calls += 1;
                capacity
            },
            &ParallelConfig::with_threads(4),
            &SearchBudget::time_limited(Duration::ZERO),
            || (),
            |(), _range| Ok::<_, ()>(()),
            |()| Ok(()),
        )
        .unwrap();
        assert_eq!(status, SearchStatus::Truncated);
        assert_eq!(calls, 1, "only the always-run first generation produced");
    }

    #[test]
    fn generation_ramp_is_capped() {
        let config = ParallelConfig::default();
        assert_eq!(config.generation_width(0), 1);
        assert_eq!(config.generation_width(1), 2);
        assert_eq!(config.generation_width(3), 8);
        assert_eq!(config.generation_width(10), 16);
        assert_eq!(config.generation_width(u32::MAX), 16);
    }
}
