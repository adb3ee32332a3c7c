//! Cross-solver agreement: the specialized branch-and-bound must agree
//! with brute force, and with an exact two-TAM Pareto-front search, on
//! optimal SOC testing times.

use tamopt_repro::assign::exact::{self, ExactConfig};
use tamopt_repro::assign::{AssignResult, CostMatrix, TamSet};
use tamopt_repro::{benchmarks, TimeTable};

fn brute_force_optimum(costs: &CostMatrix) -> u64 {
    let n = costs.num_cores();
    let b = costs.num_tams();
    let mut best = u64::MAX;
    let mut assignment = vec![0usize; n];
    loop {
        best = best.min(AssignResult::from_assignment(assignment.clone(), costs).soc_time());
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            assignment[i] += 1;
            if assignment[i] < b {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Exact optimum for two TAMs: the non-dominated `(load₀, load₁)`
/// pairs, extended core by core; the answer is the least
/// `max(load₀, load₁)` on the final front.
fn two_tam_pareto_optimum(costs: &CostMatrix) -> u64 {
    assert_eq!(costs.num_tams(), 2);
    let mut front = vec![(0u64, 0u64)];
    for core in 0..costs.num_cores() {
        let (t0, t1) = (costs.time(core, 0), costs.time(core, 1));
        let mut next: Vec<(u64, u64)> = front
            .iter()
            .flat_map(|&(l0, l1)| [(l0 + t0, l1), (l0, l1 + t1)])
            .collect();
        // Sorted by load₀, a pair survives only if it beats every
        // pair before it on load₁.
        next.sort_unstable();
        front.clear();
        for (l0, l1) in next {
            if front.last().is_none_or(|&(_, last)| l1 < last) {
                front.push((l0, l1));
            }
        }
    }
    front
        .iter()
        .map(|&(l0, l1)| l0.max(l1))
        .min()
        .expect("front is never empty")
}

#[test]
fn exact_matches_brute_force_on_d695() {
    let soc = benchmarks::d695();
    let table = TimeTable::new(&soc, 48).expect("width 48 valid");
    for widths in [vec![24u32, 24], vec![8, 16, 24], vec![4, 4, 8, 16]] {
        let tams = TamSet::new(widths.clone()).expect("positive widths");
        let costs = CostMatrix::from_table(&table, &tams).expect("within table");
        let brute = brute_force_optimum(&costs);
        let bb = exact::solve(&costs, &ExactConfig::default()).expect("bb solves");
        assert_eq!(bb.result.soc_time(), brute, "bb vs brute on {widths:?}");
    }
}

#[test]
fn solvers_agree_on_industrial_socs() {
    // Brute force is out of reach at 28-32 cores; the two-TAM front is
    // not. Equal splits grow the front to millions of pairs, so the
    // widths stay unequal.
    for soc in [benchmarks::p21241(), benchmarks::p93791()] {
        let table = TimeTable::new(&soc, 32).expect("width 32 valid");
        let tams = TamSet::new([9, 23]).expect("positive widths");
        let costs = CostMatrix::from_table(&table, &tams).expect("within table");
        let bb = exact::solve(&costs, &ExactConfig::default()).expect("bb solves");
        assert_eq!(
            bb.result.soc_time(),
            two_tam_pareto_optimum(&costs),
            "disagreement on {}",
            soc.name()
        );
    }
}

#[test]
fn exact_solution_is_a_valid_assignment() {
    let soc = benchmarks::p31108();
    let table = TimeTable::new(&soc, 40).expect("width 40 valid");
    let tams = TamSet::new([10, 10, 20]).expect("positive widths");
    let costs = CostMatrix::from_table(&table, &tams).expect("within table");
    let sol = exact::solve(&costs, &ExactConfig::default()).expect("solves");
    // Recomputing the times from scratch agrees.
    let recomputed = AssignResult::from_assignment(sol.result.assignment().to_vec(), &costs);
    assert_eq!(recomputed, sol.result);
}
