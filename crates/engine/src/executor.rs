//! Deterministic chunked parallel execution of indexed search spaces.
//!
//! The executor splits a lazily produced item stream into fixed-size,
//! globally indexed *chunks*, groups chunks into *generations*, and
//! evaluates the chunks of one generation concurrently. The calling
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
//! For a fixed [`ParallelConfig`] chunk geometry, the set of chunks, the
//! shared state each chunk observes, and the merge order are all
//! independent of [`ParallelConfig::threads`]. If `eval` is a pure
//! function of `(chunk index, chunk items, pre-generation shared
//! state)`, the merged outcome at `threads = N` is **bit-identical** to
//! `threads = 1`. Wall-clock truncation ([`SearchBudget::out_of_time`] /
//! cancellation) necessarily depends on timing, but it only takes effect
//! at generation boundaries: a truncated run is always equivalent to a
//! complete run over its first `k` generations. Node-budget truncation
//! counts dispatched items and is therefore fully deterministic.
//!
//! Per-worker scratch ([`search_chunks_with`]) is invisible to the
//! contract: a scratch value may cache and reuse buffers across the
//! chunks one worker happens to evaluate, but `eval`'s *result* must not
//! depend on it (reuse changes where bytes live, never what they say).
//!
//! Generations ramp up exponentially (1, 2, 4, … chunks, capped at
//! [`ParallelConfig::chunks_per_generation`]): the first chunks
//! establish a strong incumbent almost as fast as a fully sequential
//! scan would, and the later, wide generations carry the parallelism.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

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
    /// Items per chunk (the unit of work stealing).
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
    /// Every item of the search space was evaluated.
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

/// One chunk in flight: its global base index, its items (taken by the
/// evaluating worker) and the evaluation outcome.
struct Slot<T, C, E> {
    base: u64,
    items: Vec<T>,
    out: Option<std::thread::Result<Result<C, E>>>,
}

/// Evaluates `items` chunk by chunk, possibly in parallel, and folds the
/// chunk results in deterministic chunk order.
///
/// * `eval(base, chunk)` runs on a worker thread; `base` is the global
///   index of the chunk's first item. It must not mutate shared state
///   (read-only access to e.g. a [`crate::SharedIncumbent`] is the
///   intended pattern).
/// * `merge(result)` runs on the calling thread, in ascending chunk
///   order, only between generations; it may mutate shared state.
///
/// The items of a generation are pulled from the iterator on the calling
/// thread, between generations, after the previous generation merged.
/// This is [`search_generations`] with the iterator as its hook.
///
/// Errors from `eval` and `merge` abort the search; when several chunks
/// of one generation fail, the error of the lowest-indexed chunk wins
/// (deterministically). Panics in `eval` are forwarded to the caller
/// after the worker pool shuts down cleanly.
///
/// The budget is polled between generations (the first generation always
/// runs), so a truncated search still merges at least one chunk —
/// callers relying on "partial but valid" results get a best-effort
/// incumbent even under an already-expired budget.
pub fn search_chunks<T, C, E, F, M>(
    items: impl Iterator<Item = T>,
    config: &ParallelConfig,
    budget: &SearchBudget,
    eval: F,
    merge: M,
) -> Result<SearchStatus, E>
where
    T: Send,
    C: Send,
    E: Send,
    F: Fn(u64, Vec<T>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    search_chunks_with(
        items,
        config,
        budget,
        || (),
        |(), base, chunk| eval(base, chunk),
        merge,
    )
}

/// [`search_chunks`] with a reusable **per-worker scratch value**.
///
/// `scratch()` runs once per worker, the calling thread included (once
/// total when `threads == 1`); the worker hands the same `&mut W` to
/// every `eval` call it executes, across all generations. This is the
/// hook for allocation-free hot paths: a scratch can hold grow-once
/// buffers, memo tables and reusable result objects, so the steady-state
/// evaluation of one chunk allocates nothing.
///
/// Determinism: which chunks share a scratch depends on thread count and
/// timing, so `eval`'s result must be independent of the scratch's
/// history — caches may change *how fast* a value is computed, never
/// *which* value.
pub fn search_chunks_with<T, C, E, W, S, F, M>(
    items: impl Iterator<Item = T>,
    config: &ParallelConfig,
    budget: &SearchBudget,
    scratch: S,
    eval: F,
    merge: M,
) -> Result<SearchStatus, E>
where
    T: Send,
    C: Send,
    E: Send,
    S: Fn() -> W + Sync,
    F: Fn(&mut W, u64, Vec<T>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    let mut items = items.fuse();
    search_impl(
        |_generation, capacity| items.by_ref().take(capacity).collect(),
        config,
        budget,
        &scratch,
        &eval,
        merge,
    )
}

/// [`search_chunks`] with the item stream replaced by a **generation
/// barrier hook**: `produce(generation, capacity)` runs on the calling
/// thread at every generation boundary — while all workers are parked —
/// and returns the items to dispatch in that generation.
///
/// This is the engine-level primitive behind dynamic schedulers (e.g. a
/// live request queue that re-reads its priority queue between
/// generations): because the hook runs under the barrier, after the
/// previous generation merged, it may consult and mutate caller state
/// that `merge` also touches, admit work that arrived after the search
/// started, and reorder what it hands out — all without breaking the
/// determinism contract, which now reads: for a fixed *sequence of
/// produced generations*, the merged outcome at `threads = N` is
/// bit-identical to `threads = 1`.
///
/// `capacity` is the generation's chunk budget in items
/// (`generation_width(g) × chunk_size` under the exponential ramp);
/// returning more than `capacity` items simply widens the generation
/// (still deterministically — the schedule depends only on the hook's
/// return values). Returning an **empty** vector ends the search with
/// [`SearchStatus::Complete`]; the hook may block (e.g. on a condition
/// variable) to wait for more work instead. The budget is polled between
/// generations, *before* the hook runs, so a blocking hook is not
/// consulted once the budget has expired.
pub fn search_generations<T, C, E, F, M, P>(
    produce: P,
    config: &ParallelConfig,
    budget: &SearchBudget,
    eval: F,
    merge: M,
) -> Result<SearchStatus, E>
where
    T: Send,
    C: Send,
    E: Send,
    P: FnMut(u32, usize) -> Vec<T>,
    F: Fn(u64, Vec<T>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    search_impl(
        produce,
        config,
        budget,
        &|| (),
        &|(), base, chunk| eval(base, chunk),
        merge,
    )
}

/// The shared implementation behind every front end: one generation loop
/// on the calling thread, which is also worker 0 of the pool.
fn search_impl<T, C, E, W, P, S, F, M>(
    mut produce: P,
    config: &ParallelConfig,
    budget: &SearchBudget,
    scratch: &S,
    eval: &F,
    mut merge: M,
) -> Result<SearchStatus, E>
where
    T: Send,
    C: Send,
    E: Send,
    P: FnMut(u32, usize) -> Vec<T>,
    S: Fn() -> W + Sync,
    F: Fn(&mut W, u64, Vec<T>) -> Result<C, E> + Sync,
    M: FnMut(C) -> Result<(), E>,
{
    let threads = config.effective_threads();
    let chunk_size = config.chunk_size.max(1);
    let slots: Mutex<Vec<Slot<T, C, E>>> = Mutex::new(Vec::new());
    let next_slot = AtomicUsize::new(0);
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
        let index = next_slot.fetch_add(1, Ordering::Relaxed);
        let work = {
            let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
            guard
                .get_mut(index)
                .map(|slot| (slot.base, std::mem::take(&mut slot.items)))
        };
        let Some((base, chunk)) = work else { break };
        let out = catch_unwind(AssertUnwindSafe(|| eval(workspace, base, chunk)));
        slots.lock().unwrap_or_else(PoisonError::into_inner)[index].out = Some(out);
    };

    let mut status = SearchStatus::Complete;
    let mut first_error: Option<E> = None;
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

    let mut drive = || {
        let mut workspace = scratch();
        // Global index of the next item — doubles as the dispatched-item
        // count the node budget is polled against.
        let mut next_base = 0u64;
        let mut generation = 0u32;
        loop {
            if generation > 0 && budget.is_exhausted(next_base) {
                status = SearchStatus::Truncated;
                break;
            }
            let width = config.generation_width(generation);
            let mut produced = produce(generation, width * chunk_size).into_iter();
            let mut gen = Vec::with_capacity(width);
            loop {
                let items: Vec<T> = produced.by_ref().take(chunk_size).collect();
                if items.is_empty() {
                    break;
                }
                let base = next_base;
                next_base += items.len() as u64;
                gen.push(Slot {
                    base,
                    items,
                    out: None,
                });
            }
            if gen.is_empty() {
                break;
            }
            *slots.lock().unwrap_or_else(PoisonError::into_inner) = gen;
            next_slot.store(0, Ordering::Relaxed);
            if threads > 1 {
                start.wait();
            }
            claim(&mut workspace);
            if threads > 1 {
                finish.wait();
            }
            let gen = std::mem::take(&mut *slots.lock().unwrap_or_else(PoisonError::into_inner));
            for slot in gen {
                collect(
                    slot.out.expect("generation fully evaluated"),
                    &mut merge,
                    &mut first_error,
                    &mut panic_payload,
                );
            }
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

/// Folds one evaluated slot into the driver state: merge successful
/// results (in slot order, only while no failure is pending), keep the
/// lowest-indexed error, and capture the first worker panic.
fn collect<C, E>(
    out: std::thread::Result<Result<C, E>>,
    merge: &mut impl FnMut(C) -> Result<(), E>,
    first_error: &mut Option<E>,
    panic_payload: &mut Option<Box<dyn std::any::Any + Send>>,
) {
    match out {
        Ok(Ok(c)) => {
            if first_error.is_none() && panic_payload.is_none() {
                if let Err(e) = merge(c) {
                    *first_error = Some(e);
                }
            }
        }
        Ok(Err(e)) => {
            if first_error.is_none() && panic_payload.is_none() {
                *first_error = Some(e);
            }
        }
        Err(payload) => {
            if panic_payload.is_none() {
                *panic_payload = Some(payload);
            }
        }
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
        let status = search_chunks(
            values.iter().copied(),
            &config,
            &SearchBudget::unlimited(),
            |base, chunk: Vec<u64>| -> Result<_, ()> {
                let tau = incumbent.get();
                let mut local_tau = tau;
                let mut local_best = None;
                let mut local_scored = 0u64;
                for (i, v) in chunk.into_iter().enumerate() {
                    // "Scoring" only happens under the bound, like a
                    // τ-pruned evaluation would.
                    if v < local_tau {
                        local_scored += 1;
                        local_tau = v;
                        local_best = Some((v, base + i as u64));
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
        for threads in [1, 4] {
            let mut bases = Vec::new();
            let status = search_chunks(
                0..100u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 7,
                    chunks_per_generation: 3,
                },
                &SearchBudget::unlimited(),
                |base, chunk: Vec<u32>| Ok::<_, ()>((base, chunk.len())),
                |(base, _)| {
                    bases.push(base);
                    Ok(())
                },
            )
            .unwrap();
            assert!(status.is_complete());
            let expected: Vec<u64> = (0..100).step_by(7).map(|b| b as u64).collect();
            assert_eq!(bases, expected, "threads {threads}");
        }
    }

    #[test]
    fn empty_input_completes_without_merging() {
        let status = search_chunks(
            std::iter::empty::<u32>(),
            &ParallelConfig::with_threads(4),
            &SearchBudget::unlimited(),
            |_, _| Ok::<_, ()>(()),
            |_| panic!("nothing to merge"),
        )
        .unwrap();
        assert!(status.is_complete());
    }

    #[test]
    fn expired_budget_still_runs_the_first_generation() {
        for threads in [1, 4] {
            let mut merged_items = 0usize;
            let status = search_chunks(
                0..1000u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 16,
                },
                &SearchBudget::time_limited(Duration::ZERO),
                |_, chunk: Vec<u32>| Ok::<_, ()>(chunk.len()),
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
            let status = search_chunks(
                0..10_000u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 32,
                    chunks_per_generation: 16,
                },
                &SearchBudget::node_limited(100),
                |_, chunk: Vec<u32>| Ok::<_, ()>(chunk.len() as u64),
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
            let status = search_chunks(
                0..1000u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 16,
                },
                &budget,
                |_, chunk: Vec<u32>| {
                    evaluated.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    Ok::<_, ()>(chunk.len() as u64)
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
            let err = search_chunks(
                0..256u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 8,
                },
                &SearchBudget::unlimited(),
                |base, _chunk| {
                    if base >= 64 {
                        Err(base)
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
        let err = search_chunks(
            0..100u32,
            &ParallelConfig::with_threads(4),
            &SearchBudget::unlimited(),
            |base, _chunk| Ok(base),
            |base| if base >= 32 { Err("stop") } else { Ok(()) },
        )
        .unwrap_err();
        assert_eq!(err, "stop");
    }

    #[test]
    fn worker_panics_propagate_after_clean_shutdown() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_chunks(
                0..100u32,
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                |base, _chunk| -> Result<(), ()> {
                    if base >= 32 {
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
            search_chunks(
                0..100u32,
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                |base, _chunk| Ok::<_, ()>(base),
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
    fn producer_panics_propagate_instead_of_deadlocking() {
        let items = (0..100u32).inspect(|&i| {
            if i >= 40 {
                panic!("iterator bug");
            }
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_chunks(
                items,
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                |_base, _chunk: Vec<u32>| Ok::<_, ()>(()),
                |()| Ok(()),
            )
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "iterator bug");
    }

    #[test]
    fn hook_producer_panics_propagate_instead_of_deadlocking() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            search_generations(
                |generation, capacity| {
                    if generation >= 2 {
                        panic!("hook bug");
                    }
                    vec![0u32; capacity]
                },
                &ParallelConfig::with_threads(4),
                &SearchBudget::unlimited(),
                |_base, _chunk: Vec<u32>| Ok::<_, ()>(()),
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
        search_chunks(
            0..100u64,
            &ParallelConfig {
                threads: 1_000_000,
                chunk_size: 8,
                chunks_per_generation: 4,
            },
            &SearchBudget::unlimited(),
            |_base, chunk: Vec<u64>| Ok::<_, ()>(chunk.iter().sum::<u64>()),
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
            let status = search_chunks_with(
                0..96u32,
                &ParallelConfig {
                    threads,
                    chunk_size: 8,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                || 0u64,
                |seen: &mut u64, base, _chunk: Vec<u32>| {
                    *seen += 1;
                    Ok::<_, ()>((base, *seen))
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
                    vec![0u32, 1]
                } else {
                    Vec::new()
                }
            },
            &ParallelConfig {
                threads: 2,
                chunk_size: 1,
                chunks_per_generation: 2,
            },
            &SearchBudget::unlimited(),
            |_base, _chunk: Vec<u32>| {
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
        // returning fewer items than the capacity keeps the search going.
        let mut calls: Vec<(u32, usize)> = Vec::new();
        let mut merged: Vec<u64> = Vec::new();
        let mut remaining = 10u32;
        let status = search_generations(
            |generation, capacity| {
                calls.push((generation, capacity));
                let take = remaining.min(3);
                remaining -= take;
                (0..take).collect::<Vec<u32>>()
            },
            &ParallelConfig {
                threads: 1,
                chunk_size: 2,
                chunks_per_generation: 4,
            },
            &SearchBudget::unlimited(),
            |base, chunk: Vec<u32>| Ok::<_, ()>(base + chunk.len() as u64),
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
        // 3 items per call → chunks (2,1), (2,1), (2,1), (1): bases
        // advance across generations.
        assert_eq!(merged, vec![2, 3, 5, 6, 8, 9, 10]);
    }

    #[test]
    fn dynamic_production_is_thread_count_invariant() {
        // A hook that "admits" new work depending on the generation index
        // (the live-queue pattern) must still merge bit-identically for
        // every thread count.
        let run = |threads: usize| {
            let mut queue: Vec<u64> = (0..40).collect();
            let mut merged = Vec::new();
            let status = search_generations(
                |generation, capacity| {
                    if generation == 2 {
                        // Mid-run submission, admitted at the barrier.
                        queue.extend(1000..1010);
                    }
                    let take = capacity.min(queue.len());
                    queue.drain(..take).collect::<Vec<u64>>()
                },
                &ParallelConfig {
                    threads,
                    chunk_size: 4,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                |base, chunk: Vec<u64>| Ok::<_, ()>((base, chunk)),
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
                        Vec::new()
                    } else {
                        vec![1u64; 4]
                    }
                },
                &ParallelConfig {
                    threads,
                    chunk_size: 2,
                    chunks_per_generation: 4,
                },
                &SearchBudget::unlimited(),
                |_base, chunk: Vec<u64>| Ok::<_, ()>(chunk.iter().sum::<u64>()),
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
                vec![0u32; capacity]
            },
            &ParallelConfig::with_threads(4),
            &SearchBudget::time_limited(Duration::ZERO),
            |_, _chunk| Ok::<_, ()>(()),
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
