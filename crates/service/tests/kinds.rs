//! Integration tests of the typed query kinds ([`RequestKind`]) through
//! the service layer: top-1 ≡ point bit-identity, top-k ranking,
//! frontier ≡ independent point queries, versioned wire format, and
//! thread-count invariance of mixed-kind trace replays.

use tamopt_partition::CoOptimization;
use tamopt_service::{
    run_batch, BatchConfig, LiveConfig, LiveQueue, PendingStat, QueueStats, Request, RequestKind,
    RequestStatus, Trace,
};
use tamopt_soc::benchmarks;
use tamopt_wrapper::{pareto, TimeTable};

/// Field-by-field bit-identity, skipping only the wall-clock fields.
fn assert_same_co(a: &CoOptimization, b: &CoOptimization, context: &str) {
    assert_eq!(a.tams, b.tams, "{context}: tams");
    assert_eq!(a.heuristic, b.heuristic, "{context}: heuristic");
    assert_eq!(a.optimized, b.optimized, "{context}: optimized");
    assert_eq!(
        a.final_step_optimal, b.final_step_optimal,
        "{context}: final_step_optimal"
    );
    assert_eq!(
        a.evaluate_complete, b.evaluate_complete,
        "{context}: evaluate_complete"
    );
    assert_eq!(a.stats, b.stats, "{context}: stats");
}

#[test]
fn top_1_is_bit_identical_to_point() {
    let config = BatchConfig::default();
    let point = run_batch(
        [Request::new(benchmarks::d695(), 32).unwrap().max_tams(6)],
        &config,
    );
    let top1 = run_batch(
        [Request::new(benchmarks::d695(), 32)
            .unwrap()
            .max_tams(6)
            .top_k(1)],
        &config,
    );
    assert_eq!(point.outcomes[0].status, RequestStatus::Complete);
    assert_eq!(top1.outcomes[0].status, RequestStatus::Complete);
    let a = point.outcomes[0].result.as_ref().expect("point result");
    let b = top1.outcomes[0].result.as_ref().expect("top-1 result");
    assert_same_co(a, b, "top-1 vs point");
    // Point outcomes keep the legacy single-result wire shape; a top-k
    // outcome carries its payload in `results` (here: the winner once).
    assert!(point.outcomes[0].results.is_empty());
    assert_eq!(top1.outcomes[0].results.len(), 1);
    assert_same_co(&top1.outcomes[0].results[0].result, b, "results[0]");
}

#[test]
fn top_k_results_are_ranked_and_headline_is_rank_1() {
    let report = run_batch(
        [Request::new(benchmarks::d695(), 32)
            .unwrap()
            .max_tams(6)
            .top_k(4)],
        &BatchConfig::default(),
    );
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, RequestStatus::Complete);
    assert_eq!(outcome.kind, RequestKind::TopK { k: 4 });
    let results = &outcome.results;
    assert_eq!(results.len(), 4);
    assert!(
        results
            .windows(2)
            .all(|w| w[0].result.soc_time() <= w[1].result.soc_time()),
        "ranked by final testing time"
    );
    assert_same_co(
        outcome.result.as_ref().expect("headline"),
        &results[0].result,
        "headline is rank 1",
    );
    // Top-k entries carry no per-width bound (that is a frontier field).
    assert!(results.iter().all(|e| e.lower_bound.is_none()));
    assert!(results.iter().all(|e| e.width == 32));
}

#[test]
fn frontier_matches_independent_point_requests() {
    let widths = [8u32, 16, 24, 32];
    let config = BatchConfig::default();
    let frontier = run_batch(
        [Request::new(benchmarks::d695(), 8)
            .unwrap()
            .max_tams(3)
            .frontier(8..=32, 8)],
        &config,
    );
    let outcome = &frontier.outcomes[0];
    assert_eq!(outcome.status, RequestStatus::Complete);
    assert_eq!(outcome.width, 32, "request width follows the sweep max");
    assert_eq!(outcome.results.len(), widths.len());

    let table = TimeTable::new(&benchmarks::d695(), 32).expect("width is valid");
    for (entry, &width) in outcome.results.iter().zip(&widths) {
        assert_eq!(entry.width, width);
        assert_eq!(
            entry.lower_bound,
            Some(pareto::bottleneck_at_width(&table, width)),
            "width {width}: bottleneck bound"
        );
        let point = run_batch(
            [Request::new(benchmarks::d695(), width).unwrap().max_tams(3)],
            &config,
        );
        let cold = point.outcomes[0].result.as_ref().expect("point result");
        // Same winner and assignments as an independent cold query. The
        // prune counters legitimately differ: the sweep warm-starts
        // later widths with earlier incumbents, completing fewer (never
        // more) full evaluations for the identical result.
        assert_eq!(entry.result.tams, cold.tams, "width {width}: tams");
        assert_eq!(
            entry.result.heuristic, cold.heuristic,
            "width {width}: heuristic"
        );
        assert_eq!(
            entry.result.optimized, cold.optimized,
            "width {width}: optimized"
        );
        assert!(entry.result.evaluate_complete, "width {width}: complete");
        assert!(
            entry.result.stats.completed <= cold.stats.completed,
            "width {width}: a warm start may only skip work"
        );
    }
    // The headline is the best (and, on ties, narrowest) sweep point.
    let best = outcome.result.as_ref().expect("headline").soc_time();
    assert!(outcome.results.iter().all(|e| e.result.soc_time() >= best));
}

#[test]
fn degenerate_frontier_fails_without_aborting_the_batch() {
    let report = run_batch(
        [
            // Builder-path degenerate sweep: step 0 survives construction
            // and must fail at dispatch with a real error.
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .frontier(16..=16, 0),
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
        ],
        &BatchConfig::default(),
    );
    assert_eq!(report.outcomes[0].status, RequestStatus::Failed);
    assert!(report.outcomes[0]
        .error
        .as_deref()
        .expect("error message")
        .contains("invalid frontier sweep"));
    assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
}

#[test]
fn json_lines_are_versioned_and_kind_tagged() {
    let report = run_batch(
        [
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .max_tams(2)
                .top_k(2),
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .max_tams(2)
                .frontier(8..=16, 8),
        ],
        &BatchConfig::default(),
    );
    let lines: Vec<String> = report.outcomes.iter().map(|o| o.to_json_line()).collect();
    for line in &lines {
        assert!(line.starts_with("{\"v\": 1, "), "versioned: {line}");
        assert!(!line.contains("wall_clock"), "no wall clock: {line}");
    }
    assert!(lines[0].contains("\"kind\": \"point\""));
    assert!(
        !lines[0].contains("\"results\""),
        "point lines keep the legacy shape: {}",
        lines[0]
    );
    assert!(lines[1].contains("\"kind\": \"topk:2\""));
    assert!(lines[1].contains("\"results\": [{\"rank\": 1, "));
    assert!(lines[2].contains("\"kind\": \"frontier:8..16:8\""));
    assert!(lines[2].contains("\"lower_bound\": "));
}

/// One trace mixing all three kinds, exercised by the replay gate below
/// and by `examples/kinds.trace` in CI.
fn mixed_kind_trace() -> Trace {
    Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 32)
                .unwrap()
                .max_tams(6)
                .top_k(3),
        )
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 8)
                .unwrap()
                .max_tams(3)
                .frontier(8..=24, 8),
        )
        .submit_at(
            1,
            Request::new(benchmarks::p31108(), 24)
                .unwrap()
                .max_tams(3)
                .top_k(2)
                .priority(5),
        )
}

#[test]
fn mixed_kind_replay_is_thread_count_invariant() {
    let reference = LiveQueue::replay(mixed_kind_trace(), LiveConfig::with_threads(1));
    for threads in [2, 4] {
        let run = LiveQueue::replay(mixed_kind_trace(), LiveConfig::with_threads(threads));
        let expect: Vec<String> = reference.0.iter().map(|o| o.to_json_line()).collect();
        let got: Vec<String> = run.0.iter().map(|o| o.to_json_line()).collect();
        assert_eq!(expect, got, "stream at {threads} threads");
        let filter = |json: &str| -> String {
            json.lines()
                .filter(|l| !l.contains("wall_clock"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            filter(&reference.1.to_json()),
            filter(&run.1.to_json()),
            "report at {threads} threads"
        );
    }
}

#[test]
fn queue_stats_serialize_deterministically() {
    let stats = QueueStats {
        generation: 3,
        aging: 2,
        pending: vec![
            PendingStat {
                id: 4,
                soc: "d695".to_owned(),
                kind: RequestKind::TopK { k: 3 },
                priority: 1,
                barriers_waited: 2,
                effective_priority: 5,
            },
            PendingStat {
                id: 7,
                soc: "p31108".to_owned(),
                kind: RequestKind::Point,
                priority: 0,
                barriers_waited: 0,
                effective_priority: 0,
            },
        ],
    };
    assert_eq!(
        stats.to_json(),
        "{\"generation\": 3, \"aging\": 2, \"pending\": [\
         {\"id\": 4, \"soc\": \"d695\", \"kind\": \"topk:3\", \"priority\": 1, \
         \"barriers_waited\": 2, \"effective_priority\": 5}, \
         {\"id\": 7, \"soc\": \"p31108\", \"kind\": \"point\", \"priority\": 0, \
         \"barriers_waited\": 0, \"effective_priority\": 0}]}"
    );
}

#[test]
fn live_queue_reports_backlog_stats() {
    // An idle queue: nothing submitted, so the snapshot is stable.
    let queue = LiveQueue::start(LiveConfig {
        aging: 3,
        ..LiveConfig::default()
    });
    let stats = queue.stats();
    assert_eq!(stats.aging, 3);
    assert!(stats.pending.is_empty());
    assert_eq!(
        stats.to_json(),
        format!(
            "{{\"generation\": {}, \"aging\": 3, \"pending\": []}}",
            stats.generation
        )
    );
    drop(queue);
}
