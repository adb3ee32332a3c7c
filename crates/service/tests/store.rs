//! Integration tests of the persistent warm-start store behind the
//! service layer: store hits must keep every winner bit-identical to a
//! cold run while strictly shrinking the work done, a restarted daemon
//! must benefit from what the previous run persisted, the replay
//! byte-identity grid must hold with a pre-populated store, and
//! in-memory cache eviction must never change a winner.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use tamopt_service::{LiveConfig, LiveQueue, Request, RequestOutcome, StoreBinding, Trace};
use tamopt_soc::benchmarks;
use tamopt_store::{Store, StoreConfig};

/// A unique scratch path per test; the guard removes the store and its
/// sidecars on drop.
struct Scratch {
    path: PathBuf,
}

impl Scratch {
    fn new() -> Self {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tamopt_service_store_test_{}_{n}.tamstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Scratch { path }
    }

    fn open(&self) -> StoreBinding {
        StoreBinding::new(Store::open(&self.path, StoreConfig::default()).unwrap())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for suffix in ["", ".lock", ".tmp"] {
            let mut name = self.path.as_os_str().to_owned();
            name.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(name));
        }
    }
}

fn stream_text(outcomes: &[RequestOutcome]) -> String {
    outcomes.iter().map(RequestOutcome::to_json_line).collect()
}

fn stable_lines(report_json: &str) -> String {
    report_json
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The headline winners: `(soc_time, num_tams)` per outcome, the
/// quantities a store hit must never change.
fn winners(outcomes: &[RequestOutcome]) -> Vec<Option<(u64, usize)>> {
    outcomes
        .iter()
        .map(|o| o.result.as_ref().map(|co| (co.soc_time(), co.tams.len())))
        .collect()
}

/// Completed partition evaluations across all outcomes — the work a
/// warm start is allowed (and expected) to save.
fn total_completed(outcomes: &[RequestOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.result.as_ref())
        .map(|co| co.stats.completed)
        .sum()
}

fn mixed_trace() -> Trace {
    Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        )
        .submit_at(1, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
}

#[test]
fn store_hits_keep_winners_and_shrink_work() {
    // Reference: the trace replayed without any store.
    let (cold_stream, _) = LiveQueue::replay(mixed_trace(), LiveConfig::default());

    let scratch = Scratch::new();
    // First run: attach an empty store; it absorbs every incumbent and
    // saves at shutdown.
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    let (first_stream, _) = LiveQueue::replay(mixed_trace(), config);
    assert_eq!(
        winners(&first_stream),
        winners(&cold_stream),
        "an empty store must not disturb the run that fills it"
    );
    assert!(scratch.path.exists(), "shutdown persisted the store");

    // Second run: the same trace against the populated store.
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    let (second_stream, _) = LiveQueue::replay(mixed_trace(), config);
    assert_eq!(
        winners(&second_stream),
        winners(&cold_stream),
        "store hits must never change a winner"
    );
    assert!(
        total_completed(&second_stream) < total_completed(&cold_stream),
        "a populated store must strictly shrink the completed evaluations \
         (cold {}, warm {})",
        total_completed(&cold_stream),
        total_completed(&second_stream)
    );
}

#[test]
fn restarted_daemon_resumes_from_the_store() {
    // One workload, split at a "restart": the first half runs, the
    // daemon shuts down (persisting the store), a new daemon opens the
    // same file and runs the second half.
    let first_half = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
            .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
    };
    let second_half = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
            .submit_at(0, Request::new(benchmarks::d695(), 24).unwrap().max_tams(3))
    };

    // Cold reference for the post-restart half.
    let (cold_stream, _) = LiveQueue::replay(second_half(), LiveConfig::default());

    let scratch = Scratch::new();
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    let (_, report) = LiveQueue::replay(first_half(), config);
    assert!(report.complete);

    // "Restart": a brand-new binding over the persisted file.
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    let (warm_stream, _) = LiveQueue::replay(second_half(), config);
    assert_eq!(
        winners(&warm_stream),
        winners(&cold_stream),
        "identical winners across the restart"
    );
    assert!(
        total_completed(&warm_stream) < total_completed(&cold_stream),
        "the restarted daemon must do strictly less work (cold {}, warm {})",
        total_completed(&cold_stream),
        total_completed(&warm_stream)
    );
}

#[test]
fn flat_replay_grid_is_byte_identical_with_a_prepopulated_store() {
    // Populate a store once, then replay the trace against byte-copies
    // of it (every run mutates its own copy) across thread counts: the
    // full stream and stable report lines must not vary.
    let scratch = Scratch::new();
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    LiveQueue::replay(mixed_trace(), config);
    let snapshot = std::fs::read(&scratch.path).unwrap();

    let run = |threads: usize| {
        let copy = Scratch::new();
        std::fs::write(&copy.path, &snapshot).unwrap();
        let config = LiveConfig {
            store: Some(copy.open()),
            ..LiveConfig::with_threads(threads)
        };
        let (stream, report) = LiveQueue::replay(mixed_trace(), config);
        (stream_text(&stream), stable_lines(&report.to_json()))
    };

    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "threads {threads}");
    }
}

#[test]
fn sharded_replay_grid_is_byte_identical_with_a_prepopulated_store() {
    let trace = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
            .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
            .submit_at(
                0,
                Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
            )
            .submit_at(1, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
    };
    // Populate once (unsharded — the store is shard-agnostic).
    let scratch = Scratch::new();
    let config = LiveConfig {
        store: Some(scratch.open()),
        ..LiveConfig::default()
    };
    LiveQueue::replay(mixed_trace(), config);
    let snapshot = std::fs::read(&scratch.path).unwrap();

    for shards in [1, 2, 4] {
        let run = |threads: usize| {
            let copy = Scratch::new();
            std::fs::write(&copy.path, &snapshot).unwrap();
            let config = LiveConfig {
                store: Some(copy.open()),
                shards: Some(shards),
                ..LiveConfig::with_threads(threads)
            };
            let (stream, report) = LiveQueue::replay(trace(), config);
            (stream_text(&stream), stable_lines(&report.to_json()))
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "shards {shards} threads {threads}");
        }
    }
}

#[test]
fn cache_eviction_never_changes_winners() {
    // Alternate SOCs so a capacity-1 cache evicts on every dispatch;
    // winners must match the unbounded-cache replay exactly.
    let trace = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
            .submit_at(
                0,
                Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
            )
            .submit_at(1, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
            .submit_at(
                1,
                Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
            )
    };
    let tight = LiveConfig {
        warm_capacity: 1,
        ..LiveConfig::default()
    };
    let unbounded = LiveConfig {
        warm_capacity: 0,
        ..LiveConfig::default()
    };
    let (tight_stream, tight_report) = LiveQueue::replay(trace(), tight);
    let (full_stream, _) = LiveQueue::replay(trace(), unbounded);
    assert!(tight_report.complete);
    assert_eq!(
        winners(&tight_stream),
        winners(&full_stream),
        "eviction only forgets seeds, never results"
    );
}

#[test]
fn batch_with_store_saves_and_second_run_does_less_work() {
    use tamopt_service::{run_batch, BatchConfig};
    let requests = || {
        vec![
            Request::new(benchmarks::d695(), 32).unwrap().max_tams(6),
            Request::new(benchmarks::d695(), 32).unwrap().max_tams(6),
        ]
    };
    // Cold reference: no store, batches never warm-start by themselves.
    let cold = run_batch(requests(), &BatchConfig::default());

    let scratch = Scratch::new();
    let first = {
        // Scoped so the binding releases its lock before the reopen.
        let config = BatchConfig {
            store: Some(scratch.open()),
            ..BatchConfig::default()
        };
        run_batch(requests(), &config)
    };
    assert_eq!(winners(&first.outcomes), winners(&cold.outcomes));
    assert!(scratch.path.exists(), "the batch saved the store at exit");

    let config = BatchConfig {
        store: Some(scratch.open()),
        ..BatchConfig::default()
    };
    let second = run_batch(requests(), &config);
    assert_eq!(
        winners(&second.outcomes),
        winners(&cold.outcomes),
        "store hits must never change a batch winner"
    );
    assert!(
        total_completed(&second.outcomes) < total_completed(&cold.outcomes),
        "the second batch run must do strictly less work (cold {}, warm {})",
        total_completed(&cold.outcomes),
        total_completed(&second.outcomes)
    );
}
