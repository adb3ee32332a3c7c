//! Throughput of the fingerprint-sharded daemon: one mixed-kind trace
//! (point, top-K and frontier queries over three SOC families, an
//! explicit pin, a hot fingerprint that triggers work stealing and a
//! cross-shard warm duplicate) replayed at 1, 2 and 4 shards.
//!
//! Before any timing, every shard count is gated on bit-identity across
//! worker thread counts — the sharded determinism contract — so the
//! shards axis trades wall-clock time only. On a single-core host the
//! multi-shard variants measure routing and merge overhead; speedups
//! need real CPUs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::benchmarks;
use tamopt::service::{LiveConfig, LiveQueue, Request, RequestOutcome, Trace};

fn shard_trace() -> Trace {
    Trace::new()
        .submit_at(0, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
        .submit_at(
            0,
            Request::new(benchmarks::p31108(), 32).unwrap().max_tams(4),
        )
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 32)
                .unwrap()
                .max_tams(6)
                .top_k(3),
        )
        .submit_pinned_at(
            0,
            1,
            Request::new(benchmarks::p21241(), 24).unwrap().max_tams(3),
        )
        .submit_at(
            0,
            Request::new(benchmarks::d695(), 24)
                .unwrap()
                .max_tams(3)
                .frontier(8..=24, 8),
        )
        .submit_at(
            1,
            Request::new(benchmarks::p31108(), 24)
                .unwrap()
                .max_tams(3)
                .priority(5),
        )
        // A warm duplicate of submission 0 — seeded across shards when
        // stealing moved either copy.
        .submit_at(1, Request::new(benchmarks::d695(), 32).unwrap().max_tams(6))
}

/// The deterministic portion of a replay: outcome lines (shard stamps
/// included) + stable report lines.
fn stable_text(stream: &[RequestOutcome], report: &tamopt::service::BatchReport) -> String {
    let mut text: String = stream.iter().map(RequestOutcome::to_json_line).collect();
    text.extend(
        report
            .to_json()
            .lines()
            .filter(|line| !line.contains("wall_clock"))
            .map(|line| format!("{line}\n")),
    );
    text
}

fn config(threads: usize, shards: usize) -> LiveConfig {
    LiveConfig {
        shards: Some(shards),
        ..LiveConfig::with_threads(threads)
    }
}

fn bench_shard_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_replay");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        // Determinism gate before timing anything: the stream and
        // report of this shard count must be bit-identical across
        // worker thread counts.
        let (stream, report) = LiveQueue::replay(shard_trace(), config(1, shards));
        let reference = stable_text(&stream, &report);
        for threads in [2usize, 4] {
            let (stream, report) = LiveQueue::replay(shard_trace(), config(threads, shards));
            assert_eq!(
                stable_text(&stream, &report),
                reference,
                "shards={shards} threads={threads} must be bit-identical"
            );
        }
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                black_box(LiveQueue::replay(
                    black_box(shard_trace()),
                    config(1, shards),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard_counts);
criterion_main!(benches);
