//! Parallel scaling of the deterministic search engine on the
//! exhaustive baseline (d695, `W = 32`, `B = 3`) at 1 vs N worker
//! threads. The heuristic scan's thread scaling is measured by
//! `bench_scan` (`scan_evaluate_p93791_W64_B10`).
//!
//! The engine guarantees bit-identical results for every thread count
//! (asserted here on each measured configuration), so the only thing
//! this bench trades is wall-clock time. Speedups require actual CPUs;
//! on a single-core host the N-thread variants only measure the
//! engine's synchronization overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::engine::ParallelConfig;
use tamopt::partition::exhaustive::{self, ExhaustiveConfig};
use tamopt::{benchmarks, TimeTable};

fn bench_exhaustive_threads(c: &mut Criterion) {
    // Per-partition *exact* solves are the coarse-grained ideal case
    // for the chunked executor.
    let soc = benchmarks::d695();
    let table = TimeTable::new(&soc, 32).expect("width 32 is valid");
    let reference = exhaustive::solve(&table, 32, &ExhaustiveConfig::exact_tams(3))
        .expect("valid configuration");
    let mut group = c.benchmark_group("parallel_exhaustive_d695_W32_B3");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let config = ExhaustiveConfig {
            parallel: ParallelConfig::with_threads(threads),
            ..ExhaustiveConfig::exact_tams(3)
        };
        let solved = exhaustive::solve(&table, 32, &config).expect("valid configuration");
        assert_eq!(solved, reference, "threads={threads} must be bit-identical");
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(exhaustive::solve(black_box(&table), 32, &config)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exhaustive_threads);
criterion_main!(benches);
