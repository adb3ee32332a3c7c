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
//!
//! Widths drawn in any order are rarely sorted once there are four or
//! more TAMs, so the kernel's widest-first phase, which runs only on
//! non-decreasing widths, gets cases of its own: widths in partition
//! order, the kernel's first `steps` steps for every `steps` up to the
//! TAM count, and matrices with zero times, which end the phase early.
//!
//! The same reference also checks the partition scan's abort gate: the
//! kernel's first two steps on a TAM set's two widest widths decide
//! exactly whether the reference aborts with at most two cores assigned.

use std::ops::RangeInclusive;

use proptest::prelude::*;
use tamopt_assign::{
    core_assign, core_assign_first_steps, core_assign_widths, AssignScratch, CoreAssignOptions,
    CoreAssignOutcome, CostMatrix, TamSet, TimeColumns,
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

/// How many cores the reference had assigned when it aborted against
/// `bound`, or `None` if it completed.
fn reference_abort_step(
    costs: &CostMatrix,
    bound: Option<u64>,
    options: &CoreAssignOptions,
) -> Option<usize> {
    let mut scratch = reference::AssignScratch::default();
    match reference::core_assign_into(costs, bound, options, &mut scratch) {
        Some(_) => None,
        None => Some(costs.num_cores() - scratch.unassigned.len()),
    }
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

/// Non-decreasing `widths` when `sorted` (partition order, the shape
/// of the kernel's widest-first phase), else `widths` as drawn.
fn ordered(mut widths: Vec<u32>, sorted: bool) -> Vec<u32> {
    if sorted {
        widths.sort_unstable();
    }
    widths
}

/// A random cost matrix: up to 40 cores, up to 10 TAMs whose widths
/// repeat (non-decreasing when `sorted`), times in `times`.
fn arb_costs(times: RangeInclusive<u64>, sorted: bool) -> impl Strategy<Value = CostMatrix> {
    (1usize..=40, 1usize..=10).prop_flat_map(move |(cores, tams)| {
        (
            proptest::collection::vec(proptest::collection::vec(times.clone(), tams), cores),
            proptest::collection::vec(1u32..=4, tams),
        )
            .prop_map(move |(rows, widths)| {
                CostMatrix::from_raw(rows, ordered(widths, sorted)).expect("valid shape")
            })
    })
}

/// A random table up to width 8 with times in `times`, and TAM widths
/// into it (widths repeat; non-decreasing when `sorted`, else in any
/// order).
fn arb_table_and_widths(
    times: RangeInclusive<u64>,
    sorted: bool,
) -> impl Strategy<Value = (TimeTable, Vec<u32>)> {
    (1usize..=40, 1u32..=8, 1usize..=10).prop_flat_map(move |(cores, max_width, tams)| {
        (
            proptest::collection::vec(
                proptest::collection::vec(times.clone(), max_width as usize),
                cores,
            ),
            proptest::collection::vec(1u32..=max_width, tams),
        )
            .prop_map(move |(rows, widths)| (TimeTable::from_matrix(rows), ordered(widths, sorted)))
    })
}

/// `core_assign` (the kernel on columns keyed by TAM index) agrees with
/// the reference on `costs` under every bound of [`bounds`].
fn check_matrix_kernel(
    costs: &CostMatrix,
    options: &CoreAssignOptions,
    random: u64,
) -> TestCaseResult {
    let (achieved, _) = reference_run(costs, None, options);
    let achieved = achieved.expect("unbounded runs complete");
    for bound in bounds(achieved, random) {
        let (time, assignment) = reference_run(costs, bound, options);
        match core_assign(costs, bound, options) {
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
    Ok(())
}

/// `core_assign_widths` (the kernel on width-major table columns, as
/// the partition scan calls it) agrees with the reference run on the
/// TAM set's cost matrix under every bound of [`bounds`].
fn check_width_kernel(
    table: &TimeTable,
    widths: &[u32],
    options: &CoreAssignOptions,
    random: u64,
) -> TestCaseResult {
    let columns = TimeColumns::from_table(table);
    let tams = TamSet::new(widths.to_vec()).expect("positive widths");
    let costs = CostMatrix::from_table(table, &tams).expect("widths fit the table");
    let (achieved, _) = reference_run(&costs, None, options);
    let achieved = achieved.expect("unbounded runs complete");
    let mut scratch = AssignScratch::new();
    for bound in bounds(achieved, random) {
        let (time, assignment) = reference_run(&costs, bound, options);
        let kernel = core_assign_widths(&columns, widths, bound, options, &mut scratch);
        prop_assert_eq!(kernel, time, "widths {:?} bound {:?}", widths, bound);
        if kernel.is_some() {
            let result = scratch.result();
            prop_assert_eq!(assignment.as_deref(), Some(result.assignment()));
            prop_assert_eq!(result.soc_time(), achieved);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `core_assign` agrees with the reference on every matrix, switch
    /// and bound.
    #[test]
    fn matrix_kernel_matches_the_reference(
        costs in arb_costs(1..=4, false),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        check_matrix_kernel(&costs, &options(widest, next), random)?;
    }

    /// `core_assign_widths` agrees with the reference run on the
    /// partition's cost matrix.
    #[test]
    fn width_kernel_matches_the_reference(
        (table, widths) in arb_table_and_widths(1..=4, false),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        check_width_kernel(&table, &widths, &options(widest, next), random)?;
    }

    /// The widest-first phase on a matrix: with non-decreasing widths,
    /// each TAM of a run of equal widths has a column of its own, so
    /// reading the wrong TAM of a run as the next-narrower one shows.
    #[test]
    fn sorted_matrix_kernel_matches_the_reference(
        costs in arb_costs(1..=4, true),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        check_matrix_kernel(&costs, &options(widest, next), random)?;
    }

    /// The widest-first phase on widths in partition order, as the scan
    /// calls the kernel.
    #[test]
    fn partition_order_width_kernel_matches_the_reference(
        (table, widths) in arb_table_and_widths(1..=4, true),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        check_width_kernel(&table, &widths, &options(widest, next), random)?;
    }

    /// A zero time leaves the loaded TAM least-loaded, so the kernel
    /// must leave the widest-first phase after the step that loads it.
    /// Times in `0..=2` make such steps common.
    #[test]
    fn zero_times_end_the_widest_first_phase(
        costs in arb_costs(0..=2, true),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        check_matrix_kernel(&costs, &options(true, next), random)?;
    }

    /// `core_assign_first_steps` on widths in partition order, for every
    /// `steps` up to the TAM count: its largest load reaches a bound iff
    /// the reference under that bound aborts with at most `steps` cores
    /// assigned. Loads only grow, so checking the load itself, one less
    /// and one more pins it to the reference's load after `steps` steps.
    #[test]
    fn first_steps_match_the_reference_at_every_step(
        (table, widths) in arb_table_and_widths(0..=4, true),
        widest in any::<bool>(),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        let options = options(widest, next);
        let columns = TimeColumns::from_table(&table);
        let tams = TamSet::new(widths.clone()).expect("positive widths");
        let costs = CostMatrix::from_table(&table, &tams).expect("widths fit the table");
        let mut scratch = AssignScratch::new();
        prop_assert_eq!(core_assign_first_steps(&columns, &widths, 0, &options, &mut scratch), 0);
        for steps in 1..=widths.len() {
            let load = core_assign_first_steps(&columns, &widths, steps, &options, &mut scratch);
            for tau in [load.checked_sub(1), Some(load), Some(load + 1), Some(random)]
                .into_iter()
                .flatten()
            {
                let early = reference_abort_step(&costs, Some(tau), &options)
                    .is_some_and(|n| n <= steps);
                prop_assert_eq!(
                    load >= tau,
                    early,
                    "widths {:?} steps {} load {} tau {}",
                    &widths, steps, load, tau
                );
            }
        }
    }

    /// The scan's abort gate: with the widest-TAM tie-break on (the only
    /// setting the scan gates under) and either next-TAM setting, the
    /// kernel's largest load after two steps on the TAM set's two widest
    /// widths `[w_2nd, w_max]` (its one width, for a single TAM) reaches
    /// a bound iff the reference run under that bound aborts with at
    /// most two cores assigned. Times include 0, so a first step that
    /// loads nothing is covered too.
    #[test]
    fn two_widest_tams_decide_an_abort_within_two_steps(
        (table, widths) in arb_table_and_widths(0..=4, false),
        next in any::<bool>(),
        random in 0u64..=60,
    ) {
        let options = options(true, next);
        let columns = TimeColumns::from_table(&table);
        let tams = TamSet::new(widths.clone()).expect("positive widths");
        let costs = CostMatrix::from_table(&table, &tams).expect("widths fit the table");
        let mut sorted = widths.clone();
        sorted.sort_unstable();
        let widest = &sorted[sorted.len().saturating_sub(2)..];
        let mut scratch = AssignScratch::new();
        let gate = core_assign_first_steps(&columns, widest, 2, &options, &mut scratch);
        let (achieved, _) = reference_run(&costs, None, &options);
        let achieved = achieved.expect("unbounded runs complete");
        let mut taus = bounds(achieved, random).to_vec();
        taus.extend([gate.checked_sub(1), Some(gate), Some(gate + 1)]);
        for tau in taus.into_iter().flatten() {
            let early = reference_abort_step(&costs, Some(tau), &options).is_some_and(|n| n <= 2);
            prop_assert_eq!(
                gate >= tau,
                early,
                "widths {:?} gate {} tau {}",
                &widths, gate, tau
            );
        }
    }
}
