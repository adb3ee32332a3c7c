//! Partition-layer costs: enumeration iterators, `Partition_evaluate`,
//! and the exhaustive baseline — the paper's two-to-three orders of
//! magnitude gap. The industrial-scale scan (p93791, `W = 64`,
//! `B ≤ 10`) is timed once, by `bench_scan`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::partition::enumerate::{Compositions, Partitions};
use tamopt::partition::exhaustive::{self, ExhaustiveConfig};
use tamopt::partition::{partition_evaluate, EvaluateConfig};
use tamopt::{benchmarks, TimeTable};

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration");
    for (w, b) in [(32u32, 3u32), (64, 3), (64, 6)] {
        group.bench_with_input(
            BenchmarkId::new("partitions", format!("W{w}_B{b}")),
            &(w, b),
            |bench, &(w, b)| bench.iter(|| black_box(Partitions::new(w, b).count())),
        );
    }
    // Compositions blow up combinatorially; only the small case.
    group.bench_function("compositions/W32_B3", |bench| {
        bench.iter(|| black_box(Compositions::new(32, 3).count()))
    });
    group.finish();
}

fn bench_evaluate_vs_exhaustive(c: &mut Criterion) {
    let soc = benchmarks::d695();
    let table = TimeTable::new(&soc, 32).expect("width 32 is valid");
    let mut group = c.benchmark_group("partition_search_d695_W32_B3");
    group.sample_size(10);
    group.bench_function("partition_evaluate", |b| {
        b.iter(|| {
            black_box(partition_evaluate(
                black_box(&table),
                32,
                &EvaluateConfig::exact_tams(3),
            ))
        })
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            black_box(exhaustive::solve(
                black_box(&table),
                32,
                &ExhaustiveConfig::exact_tams(3),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_enumeration, bench_evaluate_vs_exhaustive);
criterion_main!(benches);
