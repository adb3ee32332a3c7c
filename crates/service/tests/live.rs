//! Integration tests of the live serving daemon: trace-replay
//! determinism across thread counts, mid-run preemption, warm-start
//! cache behavior, and queue edge cases.

use std::time::Duration;

use tamopt_service::{LiveConfig, LiveQueue, Request, RequestOutcome, RequestStatus, Trace};
use tamopt_soc::benchmarks;

/// Renders a streamed outcome sequence as its wire format (the JSON
/// lines `tamopt serve` prints) — the canonical comparison key.
fn stream_text(outcomes: &[RequestOutcome]) -> String {
    outcomes.iter().map(RequestOutcome::to_json_line).collect()
}

/// Strips the wall-clock lines a pretty report may vary on.
fn stable_lines(report_json: &str) -> String {
    report_json
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A trace mixing generations, priorities, a mid-run high-priority
/// submission and a mid-run cancellation.
fn mixed_trace() -> Trace {
    let mut trace = Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6)) // id 0
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)) // id 1
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        ); // id 2
           // Mid-run: a high-priority request jumps the remaining backlog…
    trace = trace.submit_at(
        1,
        Request::new(benchmarks::d695(), 24)
            .unwrap()
            .max_tams(3)
            .priority(9), // id 3
    );
    // …and a pending low-priority request is cancelled before dispatch.
    let id1 = tamopt_service::RequestId::from(1);
    trace.cancel_at(1, id1)
}

/// Eight submissions over two SOC families, so the generation ramp
/// (1, 2, 4, …) reaches a four-wide schedule, plus a mid-run
/// priority-9 submission and a warm-start duplicate of submission 0.
fn eight_submission_trace() -> Trace {
    Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 32).unwrap().max_tams(4),
        )
        .submit_at(0, Request::new(benchmarks::d695(), 48).unwrap().max_tams(6))
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        )
        .submit_at(0, Request::new(benchmarks::d695(), 24).unwrap().max_tams(4))
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 16).unwrap().max_tams(2),
        )
        .submit_at(
            1,
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .max_tams(2)
                .priority(9),
        )
        .submit_at(2, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
}

#[test]
fn replayed_traces_are_thread_count_invariant() {
    for (trace, submissions) in [
        (mixed_trace as fn() -> Trace, 4),
        (eight_submission_trace, 8),
    ] {
        let (ref_stream, ref_report) = LiveQueue::replay(trace(), LiveConfig::with_threads(1));
        assert_eq!(
            ref_report.outcomes.len(),
            submissions,
            "one outcome per submission"
        );
        let ref_stream_text = stream_text(&ref_stream);
        let ref_report_text = stable_lines(&ref_report.to_json());
        for threads in [2, 4, 8] {
            let (stream, report) = LiveQueue::replay(trace(), LiveConfig::with_threads(threads));
            let at = format!("{submissions} submissions, threads {threads}");
            assert_eq!(stream_text(&stream), ref_stream_text, "{at}");
            assert_eq!(stable_lines(&report.to_json()), ref_report_text, "{at}");
        }
    }
}

#[test]
fn high_priority_submission_preempts_queued_work() {
    // Five submissions at generation 0 (ids 0..5, priority 0), one
    // priority-9 submission at generation 1 (id 5). The ramp dispatches
    // 1, 2, 4, … requests per generation, so id 5 arrives while ids 1+
    // still wait — and must run before them.
    let mut trace = Trace::new();
    for _ in 0..5 {
        trace = trace.submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
    }
    trace = trace.submit_at(
        1,
        Request::new(benchmarks::d695(), 24)
            .unwrap()
            .max_tams(3)
            .priority(9),
    );
    let (stream, report) = LiveQueue::replay(trace, LiveConfig::default());
    let order: Vec<usize> = stream.iter().map(|o| o.index).collect();
    assert_eq!(
        order,
        vec![0, 5, 1, 2, 3, 4],
        "generation 0 runs id 0; the barrier of generation 1 admits id 5 \
         ahead of the queued ids 1..5"
    );
    assert!(report.complete);
    assert_eq!(report.count(RequestStatus::Complete), 6);
    // The final report is in submission order regardless of the stream.
    let ids: Vec<usize> = report.outcomes.iter().map(|o| o.index).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn replayed_results_match_the_synchronous_batch() {
    // A trace without cancellations must produce the same per-request
    // results as the build-then-run batch API.
    let requests = || {
        vec![
            Request::new(benchmarks::d695(), 32).unwrap().max_tams(6),
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
            Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        ]
    };
    let mut trace = Trace::new();
    for request in requests() {
        trace = trace.submit_at(0, request);
    }
    // Warm starts off: the batch API runs every request cold.
    let config = LiveConfig {
        warm_start: false,
        ..LiveConfig::default()
    };
    let (_, live) = LiveQueue::replay(trace, config);
    let batch = tamopt_service::run_batch(requests(), &tamopt_service::BatchConfig::default());
    for (a, b) in live.outcomes.iter().zip(&batch.outcomes) {
        assert_eq!(a.status, b.status);
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.tams, b.tams);
        assert_eq!(a.optimized, b.optimized);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn duplicate_soc_warm_hit_beats_cold_miss() {
    // The same request twice: the second dispatch seeds its τ bound from
    // the first outcome — identical winner, strictly fewer completed
    // step-1 evaluations.
    let request = || Request::new(benchmarks::d695(), 32).unwrap().max_tams(4);
    let trace = || Trace::new().submit_at(0, request()).submit_at(0, request());
    let (_, warm) = LiveQueue::replay(trace(), LiveConfig::default());
    let cold_config = LiveConfig {
        warm_start: false,
        ..LiveConfig::default()
    };
    let (_, cold) = LiveQueue::replay(trace(), cold_config);
    for report in [&warm, &cold] {
        assert_eq!(report.count(RequestStatus::Complete), 2);
    }
    let (warm_first, warm_second) = (
        warm.outcomes[0].result.as_ref().unwrap(),
        warm.outcomes[1].result.as_ref().unwrap(),
    );
    let cold_second = cold.outcomes[1].result.as_ref().unwrap();
    assert_eq!(warm_second.tams, cold_second.tams, "identical winner");
    assert_eq!(warm_second.optimized, cold_second.optimized);
    assert_eq!(warm_second.heuristic, cold_second.heuristic);
    assert!(
        warm_second.stats.completed < cold_second.stats.completed,
        "warm hit must complete strictly fewer evaluations: {:?} vs {:?}",
        warm_second.stats,
        cold_second.stats
    );
    // The first request of the warm queue is itself a cold miss.
    assert_eq!(
        warm_first.stats,
        cold.outcomes[0].result.as_ref().unwrap().stats
    );
}

#[test]
fn top_k_results_seed_later_point_queries() {
    // A topk:3 answer feeds the warm cache; a later point query on the
    // same (SOC, W) seeds its τ bound from the best incumbent —
    // identical winner, strictly fewer completed evaluations.
    let trace = || {
        Trace::new()
            .submit_at(
                0,
                Request::new(benchmarks::d695(), 32)
                    .unwrap()
                    .max_tams(6)
                    .top_k(3),
            )
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
    };
    let (_, warm) = LiveQueue::replay(trace(), LiveConfig::default());
    let (_, cold) = LiveQueue::replay(
        trace(),
        LiveConfig {
            warm_start: false,
            ..LiveConfig::default()
        },
    );
    let warm_point = warm.outcomes[1].result.as_ref().unwrap();
    let cold_point = cold.outcomes[1].result.as_ref().unwrap();
    assert_eq!(warm_point.tams, cold_point.tams, "identical winner");
    assert_eq!(warm_point.optimized, cold_point.optimized);
    assert!(
        warm_point.stats.completed < cold_point.stats.completed,
        "a topk-then-point trace must warm-hit: {:?} vs {:?}",
        warm_point.stats,
        cold_point.stats
    );
}

#[test]
fn all_top_k_incumbents_feed_the_warm_cache_not_just_the_headline() {
    // At (d695, W=32, ≤6 TAMs) the three best architectures use 5, 5
    // and 4 TAMs. A later point query restricted to ≤4 TAMs can only be
    // seeded by the *rank-3* incumbent — the headline winner is outside
    // its TAM range — so a warm hit here proves the cache records every
    // incumbent of a top-K result, not only the best one.
    let trace = || {
        Trace::new()
            .submit_at(
                0,
                Request::new(benchmarks::d695(), 32)
                    .unwrap()
                    .max_tams(6)
                    .top_k(3),
            )
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(4))
    };
    let (_, warm) = LiveQueue::replay(trace(), LiveConfig::default());
    let (_, cold) = LiveQueue::replay(
        trace(),
        LiveConfig {
            warm_start: false,
            ..LiveConfig::default()
        },
    );
    // Precondition of the scenario: the topk winner really is out of
    // the follow-up's range while a lower rank fits.
    let ranked = &warm.outcomes[0].results;
    assert!(
        ranked[0].result.tams.len() > 4 && ranked.iter().any(|e| e.result.tams.len() <= 4),
        "scenario broken: ranked TAM counts {:?}",
        ranked
            .iter()
            .map(|e| e.result.tams.len())
            .collect::<Vec<_>>()
    );
    let warm_point = warm.outcomes[1].result.as_ref().unwrap();
    let cold_point = cold.outcomes[1].result.as_ref().unwrap();
    assert_eq!(warm_point.tams, cold_point.tams, "identical winner");
    assert_eq!(warm_point.optimized, cold_point.optimized);
    assert!(
        warm_point.stats.completed < cold_point.stats.completed,
        "the non-headline incumbent must seed: {:?} vs {:?}",
        warm_point.stats,
        cold_point.stats
    );
}

#[test]
fn top_k_results_seed_later_frontier_sweeps() {
    // A topk answer at (SOC, W) seeds a later Pareto sweep over widths
    // ≤ W: the incumbents bound the swept width they were found at —
    // identical frontier, strictly fewer completed evaluations.
    let trace = || {
        Trace::new()
            .submit_at(
                0,
                Request::new(benchmarks::d695(), 32)
                    .unwrap()
                    .max_tams(6)
                    .top_k(3),
            )
            .submit_at(
                0,
                Request::new(benchmarks::d695(), 32)
                    .unwrap()
                    .max_tams(6)
                    .frontier(8..=32, 8),
            )
    };
    let (_, warm) = LiveQueue::replay(trace(), LiveConfig::default());
    let (_, cold) = LiveQueue::replay(
        trace(),
        LiveConfig {
            warm_start: false,
            ..LiveConfig::default()
        },
    );
    let (warm_sweep, cold_sweep) = (&warm.outcomes[1].results, &cold.outcomes[1].results);
    assert_eq!(warm_sweep.len(), cold_sweep.len());
    for (a, b) in warm_sweep.iter().zip(cold_sweep) {
        assert_eq!(a.width, b.width);
        assert_eq!(a.result.tams, b.result.tams, "width {}", a.width);
        assert_eq!(a.result.optimized, b.result.optimized, "width {}", a.width);
    }
    let warm_stats = &warm.outcomes[1].result.as_ref().unwrap().stats;
    let cold_stats = &cold.outcomes[1].result.as_ref().unwrap().stats;
    assert!(
        warm_stats.completed < cold_stats.completed,
        "seeded sweep must prune: {warm_stats:?} vs {cold_stats:?}"
    );
}

#[test]
fn warm_start_transfers_across_widths() {
    // Same SOC at a larger width: the cached W=24 time seeds the W=32
    // scan (widening a TAM never slows a core, so the bound transfers).
    let trace = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 24).unwrap().max_tams(4))
            .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(4))
    };
    let (_, warm) = LiveQueue::replay(trace(), LiveConfig::default());
    let (_, cold) = LiveQueue::replay(
        trace(),
        LiveConfig {
            warm_start: false,
            ..LiveConfig::default()
        },
    );
    let warm_wide = warm.outcomes[1].result.as_ref().unwrap();
    let cold_wide = cold.outcomes[1].result.as_ref().unwrap();
    assert_eq!(warm_wide.tams, cold_wide.tams, "identical winner");
    assert_eq!(warm_wide.optimized, cold_wide.optimized);
    assert!(
        warm_wide.stats.completed < cold_wide.stats.completed,
        "cross-width warm start must prune: {:?} vs {:?}",
        warm_wide.stats,
        cold_wide.stats
    );
}

#[test]
fn empty_trace_produces_a_valid_empty_report() {
    let (stream, report) = LiveQueue::replay(Trace::new(), LiveConfig::default());
    assert!(stream.is_empty());
    assert!(report.outcomes.is_empty());
    assert!(report.complete);
    assert!(stable_lines(&report.to_json()).contains("\"requests\": ["));
}

#[test]
fn all_requests_cancelled_before_dispatch() {
    let mut trace = Trace::new();
    for _ in 0..3 {
        trace = trace.submit_at(0, Request::new(benchmarks::d695(), 48).unwrap().max_tams(6));
    }
    for id in 0..3 {
        trace = trace.cancel_at(0, tamopt_service::RequestId::from(id));
    }
    let (stream, report) = LiveQueue::replay(trace, LiveConfig::default());
    assert_eq!(stream.len(), 3);
    assert_eq!(report.count(RequestStatus::Cancelled), 3);
    assert!(report.complete, "cancelled is a final outcome, not a skip");
    for outcome in &report.outcomes {
        assert!(outcome.result.is_none(), "never dispatched");
        assert!(outcome.error.is_none());
    }
}

#[test]
fn cancel_of_an_id_not_yet_submitted_is_a_no_op() {
    // Replay numbers submissions as it applies them, in trace order: at
    // the cancel, id 1 does not exist yet, so the later submission that
    // gets id 1 still runs.
    let trace = Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .cancel_at(0, 1)
        .submit_at(0, Request::new(benchmarks::d695(), 24).unwrap().max_tams(3));
    let (_, report) = LiveQueue::replay(trace, LiveConfig::default());
    let statuses: Vec<RequestStatus> = report.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(
        statuses,
        vec![RequestStatus::Complete, RequestStatus::Complete]
    );
    assert_eq!(
        report.outcomes[1].width, 24,
        "id 1 is the second submission"
    );
}

#[test]
fn expired_global_budget_skips_the_backlog() {
    // The first generation always dispatches one request (truncated
    // internally by the shared deadline); the rest of the backlog is
    // reported as skipped — including trace events never injected.
    let trace = Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 48).unwrap().max_tams(6))
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .submit_at(3, Request::new(benchmarks::d695(), 24).unwrap().max_tams(3));
    let config = LiveConfig::default().time_limit(Duration::ZERO);
    let (stream, report) = LiveQueue::replay(trace, config);
    assert_eq!(report.outcomes.len(), 3, "every submission owes an outcome");
    assert!(!report.complete);
    assert_eq!(report.outcomes[0].status, RequestStatus::Partial);
    assert!(report.outcomes[0].result.is_some(), "partial but valid");
    assert_eq!(report.outcomes[1].status, RequestStatus::Skipped);
    assert_eq!(report.outcomes[2].status, RequestStatus::Skipped);
    assert_eq!(stream.len(), 3);
}

#[test]
fn aging_bounds_starvation_deterministically() {
    // One priority-0 submission facing a *stream* of priority-5 arrivals
    // (one per generation barrier — each new arrival starts with zero
    // age), one request dispatched per generation. With aging off,
    // strict priorities starve the backlog entry until the stream ends;
    // with `aging = 3` its effective priority (0 + 3 × barriers waited)
    // passes a fresh arrival's 5 after two waited barriers and it
    // overtakes the stream. Both schedules replay bit-identically at
    // every thread count — aging counts generation barriers, not wall
    // clock.
    let trace = || {
        let mut t =
            Trace::new().submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)); // id 0
        for generation in 0..4 {
            t = t.submit_at(
                generation,
                Request::new(benchmarks::d695(), 16)
                    .unwrap()
                    .max_tams(2)
                    .priority(5), // ids 1..=4
            );
        }
        t
    };
    let run = |aging: u32, threads: usize| {
        let config = LiveConfig {
            requests_per_generation: 1,
            aging,
            threads,
            ..LiveConfig::default()
        };
        let (stream, report) = LiveQueue::replay(trace(), config);
        assert!(report.complete);
        assert_eq!(report.count(RequestStatus::Complete), 5);
        (
            stream.iter().map(|o| o.index).collect::<Vec<usize>>(),
            stream_text(&stream),
            stable_lines(&report.to_json()),
        )
    };
    let (strict_order, strict_stream, strict_report) = run(0, 1);
    assert_eq!(
        strict_order,
        vec![1, 2, 3, 4, 0],
        "strict priorities starve"
    );
    let (aged_order, aged_stream, aged_report) = run(3, 1);
    assert_eq!(
        aged_order,
        vec![1, 2, 0, 3, 4],
        "after two waited barriers the aged entry outranks the burst"
    );
    for threads in [2, 8] {
        let (_, stream, report) = run(0, threads);
        assert_eq!(
            (stream, report),
            (strict_stream.clone(), strict_report.clone())
        );
        let (_, stream, report) = run(3, threads);
        assert_eq!((stream, report), (aged_stream.clone(), aged_report.clone()));
    }
}

#[test]
fn aging_never_changes_results_only_order() {
    // Aging is pure scheduling: the per-request architectures, stats and
    // statuses of an aged run must equal the strict run's, request by
    // request (the final report is in submission order either way).
    let trace = || {
        Trace::new()
            .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
            .submit_at(
                0,
                Request::new(benchmarks::d695(), 24)
                    .unwrap()
                    .max_tams(3)
                    .priority(7),
            )
            .submit_at(
                1,
                Request::new(benchmarks::p31108(), 24)
                    .unwrap()
                    .max_tams(3)
                    .priority(7),
            )
    };
    // Warm starts off: dispatch order feeds the warm cache, so only the
    // cold configuration isolates scheduling from seeding.
    let run = |aging: u32| {
        let config = LiveConfig {
            requests_per_generation: 1,
            warm_start: false,
            aging,
            ..LiveConfig::default()
        };
        LiveQueue::replay(trace(), config).1
    };
    let strict = run(0);
    let aged = run(5);
    for (a, b) in strict.outcomes.iter().zip(&aged.outcomes) {
        assert_eq!(a.status, b.status, "request {}", a.index);
        let (a_co, b_co) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        // Everything but the wall-clock fields must be bit-identical.
        assert_eq!(a_co.tams, b_co.tams, "request {}", a.index);
        assert_eq!(a_co.heuristic, b_co.heuristic, "request {}", a.index);
        assert_eq!(a_co.optimized, b_co.optimized, "request {}", a.index);
        assert_eq!(a_co.stats, b_co.stats, "request {}", a.index);
    }
}

#[test]
fn live_queue_streams_submissions_and_seals_on_shutdown() {
    let queue = LiveQueue::start(LiveConfig::default());
    let (id0, _) = queue
        .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .unwrap();
    let (id1, _) = queue
        .submit(Request::new(benchmarks::d695(), 24).unwrap().max_tams(3))
        .unwrap();
    assert_eq!((id0.index(), id1.index()), (0, 1));
    assert_eq!(queue.submitted(), 2);
    let first = queue.recv_outcome().expect("first outcome streams");
    assert_eq!(first.index, 0);
    let report = queue.shutdown().expect("first shutdown yields the report");
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.complete);
    // Sealed: no more submissions, no second report.
    assert_eq!(
        queue
            .submit(Request::new(benchmarks::d695(), 8).unwrap())
            .unwrap_err(),
        tamopt_service::SubmitError::ShutDown
    );
    assert!(queue.shutdown().is_none());
}

#[test]
fn cancel_by_id_works_for_pending_requests() {
    let queue = LiveQueue::start(LiveConfig::default());
    // A long request keeps the pool busy while we cancel a queued one.
    queue
        .submit(Request::new(benchmarks::p31108(), 32).unwrap().max_tams(4))
        .unwrap();
    let (victim, _) = queue
        .submit(Request::new(benchmarks::d695(), 48).unwrap().max_tams(6))
        .unwrap();
    assert!(queue.cancel(victim));
    assert!(
        !queue.cancel(tamopt_service::RequestId::from(99)),
        "unknown ids are reported, not panicked on"
    );
    let report = queue.shutdown().expect("report");
    assert_eq!(report.outcomes[0].status, RequestStatus::Complete);
    // Cancelled either before dispatch (no result) or cooperatively
    // right after its first generation — both are `cancelled`.
    assert_eq!(report.outcomes[1].status, RequestStatus::Cancelled);
}

#[test]
fn request_carrying_its_own_tripped_cancel_flag_streams_cancelled() {
    // The caller attaches (and trips) a cancellation flag of its own
    // before submitting; the queue's handle is never touched.
    let (budget, own) = tamopt_engine::SearchBudget::unlimited().cancellable();
    own.cancel();
    let queue = LiveQueue::start(LiveConfig::default());
    let (id, queue_handle) = queue
        .submit(
            Request::new(benchmarks::d695(), 48)
                .unwrap()
                .max_tams(6)
                .budget(budget),
        )
        .unwrap();
    let outcome = queue
        .recv_outcome()
        .expect("the request streams an outcome");
    assert_eq!(outcome.index, id.index());
    assert!(!queue_handle.is_cancelled());
    assert_eq!(
        outcome.status,
        RequestStatus::Cancelled,
        "any tripped flag on the request's budget means cancelled, not partial"
    );
    let co = outcome.result.as_ref().expect("partial result exists");
    assert!(!co.evaluate_complete);
    assert_eq!(co.tams.total_width(), 48, "partial result is valid");
    assert!(queue.shutdown().expect("report").complete);
}
