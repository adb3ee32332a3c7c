//! Golden batch reports: the example manifests run through
//! [`CoOptimizer::batch`], pinned byte for byte (minus `wall_clock*`
//! lines) to the reports in `tests/golden/`.
//!
//! The reports fix the dispatch schedule's observable result: every
//! outcome's status, winner, assignment, payload and prune counters, in
//! submission order. Any change to how a batch is dispatched, seeded or
//! assembled that moves a byte of the report fails here. The expected
//! files are `tamopt batch <manifest> | grep -v wall_clock` output.

use tamopt_repro::cli::parse_manifest;
use tamopt_repro::service::BatchConfig;
use tamopt_repro::{benchmarks, CoOptimizer, Soc};

fn resolve(name: &str) -> Result<Soc, String> {
    match name {
        "d695" => Ok(benchmarks::d695()),
        "p21241" => Ok(benchmarks::p21241()),
        "p31108" => Ok(benchmarks::p31108()),
        "p93791" => Ok(benchmarks::p93791()),
        other => Err(format!("not a built-in SOC: {other}")),
    }
}

/// Runs `manifest` at `threads` and compares the report, line by line
/// with `wall_clock*` lines removed, against `expected`.
fn check(manifest: &str, expected: &str, threads: usize) {
    let requests = parse_manifest(manifest, &resolve).expect("example manifests parse");
    let report = CoOptimizer::batch(requests, &BatchConfig::with_threads(threads));
    let json = report.to_json();
    let actual: Vec<&str> = json
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect();
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(actual, expected, "batch report at threads={threads}");
}

#[test]
fn batch_manifest_report_is_pinned_at_one_thread() {
    check(
        include_str!("../examples/batch.manifest"),
        include_str!("golden/batch_report.json"),
        1,
    );
}

#[test]
fn batch_manifest_report_is_pinned_at_four_threads() {
    check(
        include_str!("../examples/batch.manifest"),
        include_str!("golden/batch_report.json"),
        4,
    );
}

#[test]
fn kinds_manifest_report_is_pinned_at_four_threads() {
    check(
        include_str!("../examples/kinds.manifest"),
        include_str!("golden/kinds_report.json"),
        4,
    );
}
