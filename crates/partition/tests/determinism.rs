//! Determinism suite: the parallel search engine must return
//! bit-identical results for every thread count.
//!
//! `partition_evaluate`, `exhaustive::solve` and `co_optimize` are run
//! at `threads ∈ {1, 2, 8}` on d695 and a synthetic SOC and compared
//! field by field (winner, assignment, *and* pruning statistics), plus
//! a property test that parallel equals sequential on random small
//! instances. CI runs this file as its determinism gate.

use proptest::prelude::*;
use tamopt_engine::ParallelConfig;
use tamopt_partition::exhaustive::{self, ExhaustiveConfig};
use tamopt_partition::pipeline::{
    co_optimize, co_optimize_frontier, co_optimize_top_k, CoOptimization, PipelineConfig,
};
use tamopt_partition::{partition_evaluate, EvalResult, EvaluateConfig};
use tamopt_soc::{benchmarks, scenarios, Soc};
use tamopt_wrapper::TimeTable;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn eval_with_threads(table: &TimeTable, width: u32, max_tams: u32, threads: usize) -> EvalResult {
    let config = EvaluateConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..EvaluateConfig::up_to_tams(max_tams)
    };
    partition_evaluate(table, width, &config).expect("valid configuration")
}

fn co_optimize_with_threads(
    table: &TimeTable,
    width: u32,
    max_tams: u32,
    threads: usize,
) -> CoOptimization {
    let config = PipelineConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..PipelineConfig::up_to_tams(max_tams)
    };
    co_optimize(table, width, &config).expect("valid configuration")
}

/// Asserts every per-thread-count run of `partition_evaluate` and
/// `co_optimize` on `soc` matches the sequential reference bit for bit.
fn assert_deterministic(soc: &Soc, width: u32, max_tams: u32) {
    let table = TimeTable::new(soc, width).expect("width is valid");
    let eval_reference = eval_with_threads(&table, width, max_tams, 1);
    let co_reference = co_optimize_with_threads(&table, width, max_tams, 1);
    assert_eq!(
        eval_reference.stats.enumerated,
        eval_reference.stats.completed + eval_reference.stats.aborted,
        "{}: stats invariant",
        soc.name()
    );
    for threads in THREAD_COUNTS {
        let eval = eval_with_threads(&table, width, max_tams, threads);
        // EvalResult is PartialEq over TamSet, AssignResult, PruneStats
        // and the completion flag — the full bit-identity claim.
        assert_eq!(eval, eval_reference, "{}: threads {threads}", soc.name());

        let co = co_optimize_with_threads(&table, width, max_tams, threads);
        assert_eq!(
            co.tams,
            co_reference.tams,
            "{}: threads {threads}",
            soc.name()
        );
        assert_eq!(co.heuristic, co_reference.heuristic);
        assert_eq!(co.optimized, co_reference.optimized);
        assert_eq!(co.soc_time(), co_reference.soc_time());
        assert_eq!(co.stats, co_reference.stats);
        assert_eq!(co.evaluate_complete, co_reference.evaluate_complete);
    }
}

#[test]
fn d695_evaluate_and_co_optimize_are_thread_count_invariant() {
    assert_deterministic(&benchmarks::d695(), 32, 4);
}

#[test]
fn d695_wide_scan_is_thread_count_invariant() {
    // W = 48 with up to 6 TAMs crosses many executor generations.
    assert_deterministic(&benchmarks::d695(), 48, 6);
}

#[test]
fn synthetic_soc_is_thread_count_invariant() {
    let soc = scenarios::uniform(12, 0xDA7E_2002).expect("valid scenario");
    assert_deterministic(&soc, 40, 5);
}

/// `co_optimize_top_k` with `k = 1` must reduce bit-identically to the
/// single-incumbent path — winner, assignments *and* prune counters —
/// and stay thread-count invariant for every `k`.
#[test]
fn top_k_is_thread_count_invariant_and_top_1_equals_point() {
    for (soc, width, max_tams, k) in [
        (benchmarks::d695(), 32, 6, 3),
        (benchmarks::p93791(), 32, 6, 4),
        (benchmarks::p93791(), 64, 10, 4),
    ] {
        let table = TimeTable::new(&soc, width).expect("width is valid");
        let run = |threads: usize, k: usize| {
            let config = PipelineConfig {
                parallel: ParallelConfig::with_threads(threads),
                ..PipelineConfig::up_to_tams(max_tams)
            };
            co_optimize_top_k(&table, width, &config, k).expect("valid configuration")
        };
        let point = co_optimize_with_threads(&table, width, max_tams, 1);
        let top1 = run(1, 1);
        assert_eq!(top1.entries.len(), 1, "{}", soc.name());
        let best = &top1.entries[0];
        assert_eq!(best.tams, point.tams, "{}", soc.name());
        assert_eq!(best.heuristic, point.heuristic, "{}", soc.name());
        assert_eq!(best.optimized, point.optimized, "{}", soc.name());
        assert_eq!(
            best.stats,
            point.stats,
            "{}: k=1 prunes identically",
            soc.name()
        );
        assert_eq!(best.evaluate_complete, point.evaluate_complete);

        let reference = run(1, k);
        assert!(reference
            .entries
            .windows(2)
            .all(|w| w[0].soc_time() <= w[1].soc_time()));
        for threads in THREAD_COUNTS {
            let ranked = run(threads, k);
            assert_eq!(
                ranked.entries.len(),
                reference.entries.len(),
                "{}: threads {threads}",
                soc.name()
            );
            for (a, b) in ranked.entries.iter().zip(&reference.entries) {
                assert_eq!(a.tams, b.tams, "{}: threads {threads}", soc.name());
                assert_eq!(a.heuristic, b.heuristic);
                assert_eq!(a.optimized, b.optimized);
                assert_eq!(a.stats, b.stats);
            }
        }
    }
}

/// The frontier sweep is invariant in its own thread count: same points,
/// same per-width winners, same prune counters.
#[test]
fn frontier_is_sweep_thread_count_invariant_on_benchmarks() {
    let soc = benchmarks::d695();
    let table = TimeTable::new(&soc, 32).expect("width is valid");
    let widths = [8u32, 16, 24, 32];
    let run = |threads: usize| {
        co_optimize_frontier(
            &table,
            &widths,
            &PipelineConfig::up_to_tams(4),
            &ParallelConfig::with_threads(threads),
        )
        .expect("valid configuration")
    };
    let reference = run(1);
    assert!(reference.complete);
    assert_eq!(reference.points.len(), widths.len());
    for threads in THREAD_COUNTS {
        let frontier = run(threads);
        assert_eq!(frontier.complete, reference.complete, "threads {threads}");
        for ((wa, a), (wb, b)) in frontier.points.iter().zip(&reference.points) {
            assert_eq!(wa, wb, "threads {threads}");
            assert_eq!(a.tams, b.tams, "threads {threads}, width {wa}");
            assert_eq!(a.heuristic, b.heuristic);
            assert_eq!(a.optimized, b.optimized);
            assert_eq!(a.stats, b.stats);
        }
    }
}

#[test]
fn exhaustive_solve_is_thread_count_invariant() {
    for (width, tams) in [
        (24, ExhaustiveConfig::up_to_tams(3)),
        (32, ExhaustiveConfig::exact_tams(3)),
    ] {
        let table = TimeTable::new(&benchmarks::d695(), width).expect("width is valid");
        let solve = |threads: usize| {
            let config = ExhaustiveConfig {
                parallel: ParallelConfig::with_threads(threads),
                ..tams.clone()
            };
            exhaustive::solve(&table, width, &config).expect("valid configuration")
        };
        let reference = solve(1);
        assert!(reference.proven_optimal, "W={width}");
        for threads in THREAD_COUNTS {
            assert_eq!(solve(threads), reference, "W={width}, threads {threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel equals sequential on random small synthetic instances:
    /// random SOC, width and TAM range, threads 2..=8.
    #[test]
    fn parallel_equals_sequential_on_random_instances(
        seed in 0u64..1 << 32,
        cores in 4usize..10,
        width in 6u32..20,
        max_tams in 1u32..5,
        threads in 2usize..9,
    ) {
        let soc = scenarios::uniform(cores, seed).expect("valid scenario");
        let table = TimeTable::new(&soc, width).expect("width is valid");
        let run = |threads: usize| {
            partition_evaluate(
                &table,
                width,
                &EvaluateConfig {
                    parallel: ParallelConfig {
                        threads,
                        // Tiny chunks force many generations even on
                        // these small spaces.
                        chunk_size: 4,
                        chunks_per_generation: 4,
                    },
                    ..EvaluateConfig::up_to_tams(max_tams)
                },
            )
            .expect("valid configuration")
        };
        let sequential = run(1);
        let parallel = run(threads);
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(
            sequential.stats.enumerated,
            sequential.stats.completed + sequential.stats.aborted
        );
    }
}
