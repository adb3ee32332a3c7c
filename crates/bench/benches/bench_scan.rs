//! The scan hot path, measured: the paper's heaviest heuristic scan —
//! p93791, *P_NPAW* at `W = 64`, `B ≤ 10` — on the pipelined executor
//! at 1/2/4 worker threads, plus single-partition microbenches of the
//! allocation-free `Core_assign` kernel the scan runs per partition
//! (`core_assign_widths` on the table's `TimeColumns`) and of the
//! per-partition branch-and-bound the pipeline's step 2 runs.
//!
//! Bit-identity across thread counts is asserted before any timing.
//! On a single-core host the multi-thread variants only measure
//! synchronization overhead; speedup claims need real CPUs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::assign::exact::{self, ExactConfig};
use tamopt::assign::{
    core_assign_widths, AssignScratch, CoreAssignOptions, CostMatrix, TamSet, TimeColumns,
};
use tamopt::engine::ParallelConfig;
use tamopt::partition::{partition_evaluate, EvaluateConfig};
use tamopt::{benchmarks, TimeTable};

fn config_with_threads(max_tams: u32, threads: usize) -> EvaluateConfig {
    EvaluateConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..EvaluateConfig::up_to_tams(max_tams)
    }
}

fn bench_scan_threads(c: &mut Criterion) {
    let soc = benchmarks::p93791();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let reference =
        partition_evaluate(&table, 64, &config_with_threads(10, 1)).expect("valid configuration");
    let mut group = c.benchmark_group("scan_evaluate_p93791_W64_B10");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        // Determinism gate: same TamSet, AssignResult and PruneStats at
        // every thread count before we bother timing it.
        let eval = partition_evaluate(&table, 64, &config_with_threads(10, threads))
            .expect("valid configuration");
        assert_eq!(eval, reference, "threads={threads} must be bit-identical");
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let config = config_with_threads(10, threads);
                b.iter(|| black_box(partition_evaluate(black_box(&table), 64, &config)))
            },
        );
    }
    group.finish();
}

fn bench_scan_single_partition(c: &mut Criterion) {
    // The inner loop of the scan, isolated: run the allocation-free
    // kernel on the table's columns — once τ-pruned (the common aborting
    // case) and once unbounded (the completing case).
    let soc = benchmarks::p93791();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let columns = TimeColumns::from_table(&table);
    let tams = TamSet::new([10, 23, 31]).expect("valid partition");
    let mut assign = AssignScratch::new();
    let unbounded = core_assign_widths(
        &columns,
        tams.widths(),
        None,
        &CoreAssignOptions::default(),
        &mut assign,
    )
    .expect("unbounded runs complete");

    let mut group = c.benchmark_group("scan_single_partition_p93791_W64");
    group.bench_function("assign_unbounded", |b| {
        b.iter(|| {
            black_box(core_assign_widths(
                black_box(&columns),
                black_box(tams.widths()),
                None,
                &CoreAssignOptions::default(),
                &mut assign,
            ))
        })
    });
    group.bench_function("assign_pruned", |b| {
        // A bound at half the achievable time aborts early — the case
        // the paper's pruning makes dominant.
        let bound = Some(unbounded / 2);
        b.iter(|| {
            black_box(core_assign_widths(
                black_box(&columns),
                black_box(tams.widths()),
                black_box(bound),
                &CoreAssignOptions::default(),
                &mut assign,
            ))
        })
    });
    group.bench_function("build_columns", |b| {
        b.iter(|| black_box(TimeColumns::from_table(black_box(&table))))
    });
    group.bench_function("branch_and_bound_exact", |b| {
        let costs = CostMatrix::from_table(&table, &tams).expect("widths covered");
        let config = ExactConfig::default();
        b.iter(|| black_box(exact::solve(black_box(&costs), &config)))
    });
    group.finish();
}

criterion_group!(benches, bench_scan_threads, bench_scan_single_partition);
criterion_main!(benches);
