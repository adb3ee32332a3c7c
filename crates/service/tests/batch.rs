//! Integration tests of the batch service layer: thread-count
//! determinism of whole reports, per-request cancellation, and the
//! global-deadline ∩ per-request-budget interaction.

use std::time::Duration;

use tamopt_engine::{ParallelConfig, SearchBudget};
use tamopt_partition::pipeline::{co_optimize, PipelineConfig};
use tamopt_service::{run_batch, Batch, BatchConfig, Request, RequestStatus};
use tamopt_soc::benchmarks;
use tamopt_wrapper::TimeTable;

fn three_soc_requests() -> Vec<Request> {
    vec![
        Request::new(benchmarks::d695(), 32).unwrap().max_tams(6),
        Request::new(benchmarks::p31108(), 32)
            .unwrap()
            .max_tams(4)
            .priority(2),
        Request::new(benchmarks::d695(), 24)
            .unwrap()
            .max_tams(3)
            .priority(1),
    ]
}

/// The acceptance manifest (`examples/batch.manifest`) padded to eight
/// requests. The executor dispatches one request per chunk under an
/// exponential generation ramp (1, 2, 4, …), so a queue needs at least
/// seven requests before any generation is four wide.
fn eight_requests() -> Vec<Request> {
    vec![
        Request::new(benchmarks::d695(), 32).unwrap().max_tams(6),
        Request::new(benchmarks::p31108(), 32)
            .unwrap()
            .max_tams(4)
            .priority(1),
        Request::new(benchmarks::p93791(), 64).unwrap().max_tams(10),
        Request::new(benchmarks::d695(), 48).unwrap().max_tams(6),
        Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3),
        Request::new(benchmarks::d695(), 24).unwrap().max_tams(4),
        Request::new(benchmarks::p31108(), 16).unwrap().max_tams(2),
        Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
    ]
}

/// Strips the wall-clock lines a JSON report is allowed to vary on.
fn stable_lines(report_json: &str) -> String {
    report_json
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn batch_reports_are_thread_count_invariant() {
    for queue in [three_soc_requests as fn() -> Vec<Request>, eight_requests] {
        let reference = run_batch(queue(), &BatchConfig::with_threads(1));
        assert!(reference.complete);
        assert_eq!(reference.count(RequestStatus::Complete), queue().len());
        let reference_json = stable_lines(&reference.to_json());
        for threads in [2, 4, 8] {
            let report = run_batch(queue(), &BatchConfig::with_threads(threads));
            assert_eq!(
                stable_lines(&report.to_json()),
                reference_json,
                "{} requests, threads {threads}",
                queue().len()
            );
        }
    }
}

#[test]
fn lone_request_nested_parallelism_is_result_invariant() {
    // A single-request batch on a 4-thread pool borrows the whole pool
    // for its inner partition scan (nested parallelism). The inner chunk
    // geometry is fixed, so the architecture, heuristic, stats — all of
    // it — must equal both the 1-thread batch and a standalone
    // single-threaded co_optimize, bit for bit.
    let request = || Request::new(benchmarks::p31108(), 32).unwrap().max_tams(4);
    let narrow = run_batch([request()], &BatchConfig::with_threads(1));
    let wide = run_batch([request()], &BatchConfig::with_threads(4));
    assert_eq!(
        stable_lines(&narrow.to_json()),
        stable_lines(&wide.to_json())
    );
    let table = TimeTable::new(&request().soc, 32).expect("width is valid");
    let standalone = co_optimize(
        &table,
        32,
        &PipelineConfig {
            max_tams: 4,
            ..PipelineConfig::up_to_tams(4)
        },
    )
    .expect("valid configuration");
    let co = wide.outcomes[0].result.as_ref().expect("completed");
    assert_eq!(co.tams, standalone.tams);
    assert_eq!(co.optimized, standalone.optimized);
    assert_eq!(co.heuristic, standalone.heuristic);
    assert_eq!(co.stats, standalone.stats);
}

#[test]
fn batched_results_match_standalone_co_optimization() {
    let report = run_batch(three_soc_requests(), &BatchConfig::with_threads(4));
    for (request, outcome) in three_soc_requests().iter().zip(&report.outcomes) {
        let table = TimeTable::new(&request.soc, request.width).expect("width is valid");
        let standalone = co_optimize(
            &table,
            request.width,
            &PipelineConfig {
                min_tams: request.min_tams,
                max_tams: request.max_tams,
                ..PipelineConfig::up_to_tams(request.max_tams)
            },
        )
        .expect("valid configuration");
        let co = outcome.result.as_ref().expect("request completed");
        assert_eq!(co.tams, standalone.tams, "request {}", outcome.index);
        assert_eq!(co.optimized, standalone.optimized);
        assert_eq!(co.heuristic, standalone.heuristic);
        assert_eq!(co.stats, standalone.stats);
    }
}

#[test]
fn cancelled_request_is_partial_while_siblings_complete() {
    let mut batch = Batch::new();
    // A wide scan that would enumerate thousands of partitions...
    let handle = batch.push(Request::new(benchmarks::d695(), 48).unwrap().max_tams(6));
    // ...and two ordinary siblings.
    batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
    batch.push(Request::new(benchmarks::p31108(), 24).unwrap().max_tams(3));
    // Cancel before the run: deterministic, and the strictest test of
    // "partial but valid" (the request still owes a result).
    handle.cancel();
    let report = batch.run(&BatchConfig::with_threads(2));
    assert!(report.complete, "cancellation must not skip siblings");

    let cancelled = &report.outcomes[0];
    assert_eq!(cancelled.status, RequestStatus::Cancelled);
    let co = cancelled.result.as_ref().expect("partial result exists");
    assert!(!co.evaluate_complete);
    assert_eq!(
        co.stats.enumerated,
        ParallelConfig::default().chunk_size as u64,
        "exactly the first generation of the cancelled scan ran"
    );
    assert_eq!(co.tams.total_width(), 48, "partial result is valid");
    assert!(co.optimized.soc_time() <= co.heuristic.soc_time());

    for sibling in &report.outcomes[1..] {
        assert_eq!(sibling.status, RequestStatus::Complete, "sibling untouched");
        assert!(sibling.result.as_ref().unwrap().evaluate_complete);
    }
}

#[test]
fn cancelling_one_request_leaves_sibling_results_bit_identical() {
    let baseline = run_batch(
        vec![
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
            Request::new(benchmarks::d695(), 24).unwrap().max_tams(3),
        ],
        &BatchConfig::default(),
    );
    let mut batch = Batch::new();
    batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
    batch.push(Request::new(benchmarks::d695(), 24).unwrap().max_tams(3));
    let doomed = batch.push(Request::new(benchmarks::d695(), 48).unwrap().max_tams(6));
    doomed.cancel();
    let report = batch.run(&BatchConfig::default());
    for (a, b) in baseline.outcomes.iter().zip(&report.outcomes) {
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(a.tams, b.tams);
        assert_eq!(a.optimized, b.optimized);
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn global_deadline_intersects_every_request_budget() {
    // An expired global deadline: the first generation still dispatches
    // one request (highest priority), whose inner scan is itself
    // deadline-truncated to its first generation; everything else is
    // skipped.
    let mut batch = Batch::new();
    batch.push(Request::new(benchmarks::d695(), 48).unwrap().max_tams(6));
    batch.push(
        Request::new(benchmarks::d695(), 16)
            .unwrap()
            .max_tams(2)
            .priority(9),
    );
    let config = BatchConfig::default().time_limit(Duration::ZERO);
    let report = batch.run(&config);
    assert!(!report.complete);
    assert_eq!(report.outcomes[0].status, RequestStatus::Skipped);
    assert!(report.outcomes[0].result.is_none());
    let ran = &report.outcomes[1];
    assert_eq!(ran.status, RequestStatus::Partial);
    let co = ran.result.as_ref().expect("partial result exists");
    assert!(!co.evaluate_complete);
    assert_eq!(co.tams.total_width(), 16, "partial result is valid");
}

#[test]
fn per_request_node_budget_does_not_leak_across_requests() {
    // Request 0 carries a tiny node budget; request 1 is unbudgeted and
    // must scan its whole space.
    let report = run_batch(
        vec![
            Request::new(benchmarks::d695(), 48)
                .unwrap()
                .max_tams(6)
                .budget(SearchBudget::node_limited(10)),
            Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
        ],
        &BatchConfig::default(),
    );
    assert_eq!(report.outcomes[0].status, RequestStatus::Partial);
    assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
}

#[test]
fn json_report_shape_is_stable() {
    let report = run_batch(
        vec![Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)],
        &BatchConfig::default(),
    );
    let json = report.to_json();
    assert!(json.starts_with("{\n  \"schema\": \"tamopt.batch-report/v1\",\n"));
    assert!(json.contains("\"status\": \"complete\""));
    assert!(json.contains("\"soc\": \"d695\""));
    assert!(json.contains("\"wall_clock_ms\":"));
    assert!(json.trim_end().ends_with('}'));
    // Every wall-clock quantity sits on its own filterable line.
    for line in json.lines().filter(|l| l.contains("wall_clock")) {
        assert!(line.trim_start().starts_with("\"wall_clock"));
    }
}
