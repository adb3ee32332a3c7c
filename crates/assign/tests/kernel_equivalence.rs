//! Equivalence of the `Core_assign` kernel with the matrix-based
//! implementation it replaced.
//!
//! `reference::core_assign_into` is that implementation, copied
//! verbatim: it read a `CostMatrix` (which the partition scan rebuilt
//! per partition) and took a linear maximum over the unassigned cores
//! at every step. The kernel reads
//! sorted time columns instead. On random matrices with duplicate
//! widths and times drawn from `1..=4` (so the lines 11–16 tie-breaks
//! fire constantly), both tie-break switches and bounds around the
//! achieved time, the two must return the same value, and the same
//! assignment whenever the run completes.

use proptest::prelude::*;
use tamopt_assign::{
    core_assign, core_assign_widths, AssignScratch, CoreAssignOptions, CoreAssignOutcome,
    CostMatrix, TamSet, TimeColumns,
};
use tamopt_wrapper::TimeTable;

mod reference {
    use tamopt_assign::{CoreAssignOptions, CostMatrix};

    #[derive(Debug, Default)]
    pub struct AssignScratch {
        pub tam_times: Vec<u64>,
        pub assignment: Vec<usize>,
        pub unassigned: Vec<usize>,
        pub tied: Vec<usize>,
    }

    pub fn core_assign_into(
        costs: &CostMatrix,
        bound: Option<u64>,
        options: &CoreAssignOptions,
        scratch: &mut AssignScratch,
    ) -> Option<u64> {
        let n = costs.num_cores();
        let b = costs.num_tams();
        scratch.tam_times.clear();
        scratch.tam_times.resize(b, 0);
        scratch.assignment.clear();
        scratch.assignment.resize(n, usize::MAX);
        scratch.unassigned.clear();
        scratch.unassigned.extend(0..n);

        while !scratch.unassigned.is_empty() {
            // Lines 10-12: least-loaded TAM, tie broken toward the widest.
            let tam_times = &scratch.tam_times;
            let tam = (0..b)
                .min_by_key(|&t| {
                    let width_key = if options.widest_tam_tie_break {
                        // Larger width wins the tie => smaller key.
                        u32::MAX - costs.width(t)
                    } else {
                        0
                    };
                    (tam_times[t], width_key, t)
                })
                .expect("at least one tam");

            // Line 13: unassigned core with the largest time on `tam`.
            let max_time = scratch
                .unassigned
                .iter()
                .map(|&c| costs.time(c, tam))
                .max()
                .expect("unassigned is non-empty");
            scratch.tied.clear();
            scratch.tied.extend(
                scratch
                    .unassigned
                    .iter()
                    .copied()
                    .filter(|&c| costs.time(c, tam) == max_time),
            );
            let tied = &scratch.tied;
            let core = if tied.len() >= 2 && options.next_tam_tie_break {
                // Lines 14-16: compare the tied cores on the next-narrower
                // TAM (the widest TAM strictly narrower than `tam`).
                let narrower = (0..b)
                    .filter(|&t| costs.width(t) < costs.width(tam))
                    .max_by_key(|&t| (costs.width(t), usize::MAX - t));
                match narrower {
                    Some(next) => tied
                        .iter()
                        .copied()
                        .max_by_key(|&c| (costs.time(c, next), usize::MAX - c))
                        .expect("tied is non-empty"),
                    None => tied[0],
                }
            } else {
                tied[0]
            };

            // Line 17: assign.
            scratch.assignment[core] = tam;
            scratch.tam_times[tam] += costs.time(core, tam);
            scratch.unassigned.retain(|&c| c != core);

            // Lines 18-20: abort against the best-known bound.
            if let Some(tau) = bound {
                let worst = scratch.tam_times.iter().copied().max().expect("non-empty");
                if worst >= tau {
                    return None;
                }
            }
        }
        Some(
            scratch
                .tam_times
                .iter()
                .copied()
                .max()
                .expect("at least one tam"),
        )
    }
}

/// The reference's outcome: its return value and, when the run
/// completed, its assignment.
fn reference_run(
    costs: &CostMatrix,
    bound: Option<u64>,
    options: &CoreAssignOptions,
) -> (Option<u64>, Option<Vec<usize>>) {
    let mut scratch = reference::AssignScratch::default();
    let time = reference::core_assign_into(costs, bound, options, &mut scratch);
    (time, time.map(|_| scratch.assignment))
}

/// The bounds to test against a run that achieves `achieved`: none, a
/// random one, and the three around the achieved time.
fn bounds(achieved: u64, random: u64) -> [Option<u64>; 5] {
    [
        None,
        Some(random),
        Some(achieved.saturating_sub(1)),
        Some(achieved),
        Some(achieved + 1),
    ]
}

fn options(widest: bool, next: bool) -> CoreAssignOptions {
    CoreAssignOptions {
        widest_tam_tie_break: widest,
        next_tam_tie_break: next,
    }
}

/// A random cost matrix: up to 40 cores, up to 10 TAMs whose widths
/// repeat, times in `1..=4`.
fn arb_costs() -> impl Strategy<Value = CostMatrix> {
    (1usize..=40, 1usize..=10).prop_flat_map(|(cores, tams)| {
        (
            proptest::collection::vec(proptest::collection::vec(1u64..=4, tams), cores),
            proptest::collection::vec(1u32..=4, tams),
        )
            .prop_map(|(rows, widths)| CostMatrix::from_raw(rows, widths).expect("valid shape"))
    })
}

/// A random table up to width 8 with times in `1..=4`, and a partition
/// of TAM widths into it (widths repeat, in any order).
fn arb_table_and_widths() -> impl Strategy<Value = (TimeTable, Vec<u32>)> {
    (1usize..=40, 1u32..=8, 1usize..=10).prop_flat_map(|(cores, max_width, tams)| {
        (
            proptest::collection::vec(
                proptest::collection::vec(1u64..=4, max_width as usize),
                cores,
            ),
            proptest::collection::vec(1u32..=max_width, tams),
        )
            .prop_map(|(rows, widths)| (TimeTable::from_matrix(rows), widths))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `core_assign` (the kernel on columns keyed by TAM index) agrees
    /// with the reference on every matrix, switch and bound.
    #[test]
    fn matrix_kernel_matches_the_reference(
        costs in arb_costs(),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        let options = options(widest, next);
        let (achieved, _) = reference_run(&costs, None, &options);
        let achieved = achieved.expect("unbounded runs complete");
        for bound in bounds(achieved, random) {
            let (time, assignment) = reference_run(&costs, bound, &options);
            match core_assign(&costs, bound, &options) {
                CoreAssignOutcome::Complete(result) => {
                    prop_assert_eq!(time, Some(result.soc_time()), "bound {:?}", bound);
                    prop_assert_eq!(assignment.as_deref(), Some(result.assignment()));
                }
                CoreAssignOutcome::Aborted { bound: b } => {
                    prop_assert_eq!(Some(b), bound);
                    prop_assert_eq!(time, None, "bound {:?}", bound);
                }
            }
        }
    }

    /// `core_assign_widths` (the kernel on width-major table columns,
    /// as the partition scan calls it) agrees with the reference run on
    /// the partition's cost matrix.
    #[test]
    fn width_kernel_matches_the_reference(
        (table, widths) in arb_table_and_widths(),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        let options = options(widest, next);
        let columns = TimeColumns::from_table(&table);
        let tams = TamSet::new(widths.clone()).expect("positive widths");
        let costs = CostMatrix::from_table(&table, &tams).expect("widths fit the table");
        let (achieved, _) = reference_run(&costs, None, &options);
        let achieved = achieved.expect("unbounded runs complete");
        let mut scratch = AssignScratch::new();
        for bound in bounds(achieved, random) {
            let (time, assignment) = reference_run(&costs, bound, &options);
            let kernel = core_assign_widths(&columns, &widths, bound, &options, &mut scratch);
            prop_assert_eq!(kernel, time, "widths {:?} bound {:?}", &widths, bound);
            if kernel.is_some() {
                let result = scratch.result();
                prop_assert_eq!(assignment.as_deref(), Some(result.assignment()));
                prop_assert_eq!(result.soc_time(), achieved);
            }
        }
    }
}
