//! Property-based tests of partition enumeration, counting and the
//! evaluation/pipeline layers.

use proptest::prelude::*;
use std::collections::HashSet;
use tamopt_assign::{
    core_assign_first_steps, core_assign_widths, AssignScratch, CoreAssignOptions, TimeColumns,
};
use tamopt_partition::count;
use tamopt_partition::enumerate::{Compositions, Partitions};
use tamopt_partition::evaluate::AbortGate;
use tamopt_partition::pipeline::{
    co_optimize, co_optimize_frontier, co_optimize_top_k, FinalStep, PipelineConfig,
};
use tamopt_partition::{partition_evaluate, EvaluateConfig};
use tamopt_wrapper::{pareto, TimeTable};

/// A small random cost table shaped like `T_i(w)`: non-increasing rows.
fn arb_table() -> impl Strategy<Value = TimeTable> {
    (2usize..7, 4u32..12).prop_flat_map(|(cores, width)| {
        proptest::collection::vec(proptest::collection::vec(1u64..500, width as usize), cores)
            .prop_map(|mut rows| {
                for row in &mut rows {
                    // Sort descending so wider never tests slower.
                    row.sort_unstable_by(|a, b| b.cmp(a));
                }
                TimeTable::from_matrix(rows)
            })
    })
}

/// A small random cost table whose rows need **not** be monotone, like
/// a table given verbatim to [`TimeTable::from_matrix`].
fn arb_raw_table() -> impl Strategy<Value = TimeTable> {
    (1usize..6, 2u32..10).prop_flat_map(|(cores, width)| {
        proptest::collection::vec(proptest::collection::vec(1u64..300, width as usize), cores)
            .prop_map(TimeTable::from_matrix)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scan's abort gate is exact on any table, monotone or not: for
    /// every partition it gives the kernel's own largest load after the
    /// steps it decides (two from four TAMs on, one below), so it fires
    /// under `τ` iff `Core_assign` aborts within those steps, and a
    /// partition it fires on makes the bounded kernel abort. The
    /// bottleneck bound `LB` never increases with the width, and is
    /// sound: `Core_assign`'s time on a partition whose widest TAM is
    /// `w_max` is at least `LB(w_max)`, so `LB(w_max) >= τ` makes the
    /// bounded kernel abort too.
    #[test]
    fn bound_gate_implies_core_assign_aborts(table in arb_raw_table(), max_tams in 1u32..6) {
        let lb = pareto::bottleneck_by_width(&table);
        prop_assert!(lb[1..].windows(2).all(|p| p[0] >= p[1]), "LB not non-increasing: {:?}", lb);
        let width = table.max_width();
        let columns = TimeColumns::from_table(&table);
        let options = CoreAssignOptions::default();
        let mut scratch = AssignScratch::new();
        let gate = AbortGate::new(&columns, width, 1, max_tams, &options, &mut scratch)
            .expect("the default options admit the gate");
        for b in 1..=max_tams {
            for widths in Partitions::new(width, b) {
                let bound = lb[*widths.last().expect("non-empty") as usize];
                let load = gate.load(&widths);
                let steps = AbortGate::steps(widths.len());
                let first = core_assign_first_steps(&columns, &widths, steps, &options, &mut scratch);
                prop_assert_eq!(load, first, "{:?}: gate vs the kernel's first {} steps", &widths, steps);
                let time = core_assign_widths(&columns, &widths, None, &options, &mut scratch)
                    .expect("unbounded runs complete");
                prop_assert!(time >= bound, "{:?}: {} below LB {}", &widths, time, bound);
                prop_assert!(time >= load, "{:?}: {} below the gate's load {}", &widths, time, load);
                for tau in [
                    1,
                    bound.saturating_sub(1),
                    bound,
                    load.saturating_sub(1),
                    load,
                    load + 1,
                    time,
                    time + 1,
                ] {
                    let aborts = core_assign_widths(&columns, &widths, Some(tau), &options, &mut scratch)
                        .is_none();
                    prop_assert!(
                        bound < tau || aborts,
                        "{:?}: LB {} >= tau {} but Core_assign finished",
                        &widths, bound, tau
                    );
                    prop_assert!(
                        load < tau || aborts,
                        "{:?}: gate {} >= tau {} but Core_assign finished",
                        &widths, load, tau
                    );
                }
            }
        }
    }

    /// The iterator yields exactly p(W, B) partitions, all canonical
    /// (non-decreasing), all summing to W, all distinct.
    #[test]
    fn partitions_complete_and_unique(w in 1u32..48, b in 1u32..9) {
        let all: Vec<Vec<u32>> = Partitions::new(w, b).collect();
        prop_assert_eq!(all.len() as u64, count::unique_partitions(w, b));
        let mut seen = HashSet::new();
        for p in &all {
            prop_assert_eq!(p.len() as u32, b);
            prop_assert_eq!(p.iter().sum::<u32>(), w);
            prop_assert!(p.iter().all(|&x| x >= 1));
            prop_assert!(p.windows(2).all(|x| x[0] <= x[1]), "{:?} not canonical", p);
            prop_assert!(seen.insert(p.clone()), "duplicate {:?}", p);
        }
    }

    /// Compositions count C(W-1, B-1); each sorts into some partition,
    /// and each partition is reachable from some composition.
    #[test]
    fn compositions_cover_partitions(w in 1u32..26, b in 1u32..6) {
        let comps: Vec<Vec<u32>> = Compositions::new(w, b).collect();
        prop_assert_eq!(comps.len() as u64, count::compositions(w, b));
        let partitions: HashSet<Vec<u32>> = Partitions::new(w, b).collect();
        let mut reached = HashSet::new();
        for mut c in comps {
            prop_assert_eq!(c.iter().sum::<u32>(), w);
            c.sort_unstable();
            prop_assert!(partitions.contains(&c));
            reached.insert(c);
        }
        prop_assert_eq!(reached.len(), partitions.len());
    }

    /// Pascal-style recurrence of the exact counter.
    #[test]
    fn count_recurrence(w in 2u32..60, b in 2u32..10) {
        prop_assert_eq!(
            count::unique_partitions(w, b),
            count::unique_partitions(w - 1, b - 1)
                + if w >= b { count::unique_partitions(w - b, b) } else { 0 }
        );
    }

    /// Counting by symmetry: partitions of W into exactly B parts equal
    /// partitions of W - B into at most B parts.
    #[test]
    fn count_shift_identity(w in 1u32..50, b in 1u32..10) {
        prop_assume!(w >= b);
        let lhs = count::unique_partitions(w, b);
        let rhs: u64 = if w == b {
            1
        } else {
            (1..=b).map(|k| count::unique_partitions(w - b, k)).sum()
        };
        prop_assert_eq!(lhs, rhs);
    }

    /// The tau-abort (pruning level 2) is an optimization, not an
    /// approximation: Partition_evaluate returns the same best testing
    /// time with pruning on and off.
    #[test]
    fn pruning_never_changes_the_answer(table in arb_table(), max_tams in 1u32..5) {
        let width = table.max_width();
        let pruned = partition_evaluate(&table, width, &EvaluateConfig::up_to_tams(max_tams))
            .expect("valid width");
        let full = partition_evaluate(
            &table,
            width,
            &EvaluateConfig { prune: false, ..EvaluateConfig::up_to_tams(max_tams) },
        )
        .expect("valid width");
        prop_assert_eq!(pruned.result.soc_time(), full.result.soc_time());
        // Pruning only ever *reduces* completed evaluations.
        prop_assert!(pruned.stats.completed <= full.stats.completed);
        prop_assert_eq!(pruned.stats.enumerated, full.stats.enumerated);
    }

    /// The final exact step of the two-step pipeline never makes the
    /// architecture worse than the heuristic that seeded it.
    #[test]
    fn final_step_never_hurts(table in arb_table(), max_tams in 1u32..5) {
        let width = table.max_width();
        let heuristic_only = co_optimize(
            &table,
            width,
            &PipelineConfig { final_step: FinalStep::None, ..PipelineConfig::up_to_tams(max_tams) },
        )
        .expect("valid width");
        let two_step = co_optimize(&table, width, &PipelineConfig::up_to_tams(max_tams))
            .expect("valid width");
        prop_assert!(two_step.soc_time() <= two_step.heuristic.soc_time());
        // Both flows see the same partition ranking, so the two-step
        // result never exceeds the heuristic-only one.
        prop_assert!(two_step.soc_time() <= heuristic_only.soc_time());
    }

    /// Widening the TAM budget (larger max B) never increases the
    /// *heuristic* testing time: `Partition_evaluate` takes the minimum
    /// over a superset of partitions. The *final-step* time is NOT
    /// monotone — that is precisely the anomaly the paper documents in
    /// its conclusion (the heuristically-best partition need not be
    /// best after exact re-optimization), so only the heuristic
    /// invariant is asserted here.
    #[test]
    fn more_tams_never_hurt_the_heuristic(table in arb_table()) {
        let width = table.max_width();
        let mut previous = u64::MAX;
        for b in 1..=4u32 {
            let result = co_optimize(
                &table,
                width,
                &PipelineConfig { final_step: FinalStep::None, ..PipelineConfig::up_to_tams(b) },
            )
            .expect("valid width");
            prop_assert!(
                result.heuristic.soc_time() <= previous,
                "B <= {b}: {} > {previous}",
                result.heuristic.soc_time()
            );
            previous = result.heuristic.soc_time();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `co_optimize_top_k` with `k = 1` is the single-incumbent path,
    /// bit for bit — winner, both assignments *and* prune counters —
    /// on random tables at every thread count.
    #[test]
    fn top_1_equals_the_point_query_bit_identically(
        table in arb_table(),
        max_tams in 1u32..5,
        threads_ix in 0usize..3,
    ) {
        let width = table.max_width();
        let threads = [1usize, 2, 8][threads_ix];
        let config = PipelineConfig {
            parallel: tamopt_engine::ParallelConfig::with_threads(threads),
            ..PipelineConfig::up_to_tams(max_tams)
        };
        let point = co_optimize(&table, width, &config).expect("valid width");
        let ranked = co_optimize_top_k(&table, width, &config, 1).expect("valid width");
        prop_assert_eq!(ranked.entries.len(), 1);
        let best = &ranked.entries[0];
        prop_assert_eq!(&best.tams, &point.tams);
        prop_assert_eq!(&best.heuristic, &point.heuristic);
        prop_assert_eq!(&best.optimized, &point.optimized);
        prop_assert_eq!(&best.stats, &point.stats);
        prop_assert_eq!(best.evaluate_complete, point.evaluate_complete);
        prop_assert_eq!(best.final_step_optimal, point.final_step_optimal);
    }

    /// A frontier sweep returns, at every width, the same architecture
    /// as an independent point query at that width (prune counters may
    /// shrink — the sweep warm-starts later widths — but never the
    /// result).
    #[test]
    fn frontier_equals_a_loop_of_point_queries(
        table in arb_table(),
        max_tams in 1u32..4,
        step in 1u32..4,
        sweep_ix in 0usize..3,
    ) {
        let max_width = table.max_width();
        let widths: Vec<u32> = (1..=max_width).step_by(step as usize).collect();
        let config = PipelineConfig::up_to_tams(max_tams);
        let frontier = co_optimize_frontier(
            &table,
            &widths,
            &config,
            &tamopt_engine::ParallelConfig::with_threads([1usize, 2, 8][sweep_ix]),
        )
        .expect("widths fit the table");
        prop_assert!(frontier.complete);
        prop_assert_eq!(frontier.points.len(), widths.len());
        for (width, co) in &frontier.points {
            let point = co_optimize(&table, *width, &config).expect("valid width");
            prop_assert_eq!(&co.tams, &point.tams, "width {}", width);
            prop_assert_eq!(&co.heuristic, &point.heuristic, "width {}", width);
            prop_assert_eq!(&co.optimized, &point.optimized, "width {}", width);
            prop_assert!(co.stats.completed <= point.stats.completed, "width {}", width);
        }
    }
}

/// The minimal counterexample proptest found for "the two-step testing
/// time is monotone in the TAM budget" — kept as a pinned witness of
/// the anomaly the paper documents: at `B ≤ 3` the pipeline's heuristic
/// ranking picks a partition whose exactly-optimized time (441) is
/// worse than the `B ≤ 2` result (327).
#[test]
fn two_step_time_is_not_monotone_in_the_tam_budget() {
    let table = TimeTable::from_matrix(vec![
        vec![441, 197, 182, 65],
        vec![291, 291, 291, 264],
        vec![442, 276, 145, 145],
    ]);
    let narrow = co_optimize(&table, 4, &PipelineConfig::up_to_tams(2)).expect("valid");
    let wide = co_optimize(&table, 4, &PipelineConfig::up_to_tams(3)).expect("valid");
    // The wider budget looks better to the heuristic...
    assert!(wide.heuristic.soc_time() <= narrow.heuristic.soc_time());
    // ...but ends worse after the final exact step: the anomaly.
    assert!(wide.soc_time() > narrow.soc_time());
    assert_eq!(narrow.soc_time(), 327);
    assert_eq!(wide.soc_time(), 441);
}
