//! Property-based tests of the *P_AW* solvers.

use proptest::prelude::*;
use tamopt_assign::exact::{self, ExactConfig};
use tamopt_assign::{core_assign, ilp, AssignResult, CoreAssignOptions, CostMatrix};

/// Arbitrary cost matrices: times non-increasing in TAM width, widths
/// strictly decreasing across columns (the shape `Design_wrapper`
/// produces when TAMs are ordered widest-first).
fn arb_costs() -> impl Strategy<Value = CostMatrix> {
    (2usize..8, 2usize..5).prop_flat_map(|(cores, tams)| {
        let row = proptest::collection::vec(1u64..1000, tams);
        (proptest::collection::vec(row, cores), Just(tams)).prop_map(|(mut rows, tams)| {
            // Sort each row ascending and pair with descending widths so
            // that wider TAMs are never slower.
            for r in &mut rows {
                r.sort_unstable();
            }
            let widths: Vec<u32> = (0..tams as u32).map(|i| 64 - i * 8).collect();
            CostMatrix::from_raw(rows, widths).expect("shape is valid")
        })
    })
}

fn brute_force(costs: &CostMatrix) -> u64 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The heuristic always produces a complete, valid assignment whose
    /// reported times recompute exactly.
    #[test]
    fn heuristic_valid(costs in arb_costs()) {
        let r = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .expect("no bound");
        prop_assert_eq!(r.assignment().len(), costs.num_cores());
        prop_assert!(r.assignment().iter().all(|&t| t < costs.num_tams()));
        let recomputed = AssignResult::from_assignment(r.assignment().to_vec(), &costs);
        prop_assert_eq!(&recomputed, &r);
    }

    /// The exact solver matches brute force on small instances.
    #[test]
    fn exact_matches_brute_force(costs in arb_costs()) {
        let sol = exact::solve(&costs, &ExactConfig::default()).expect("solves");
        prop_assert!(sol.proven_optimal);
        prop_assert_eq!(sol.result.soc_time(), brute_force(&costs));
    }

    /// Sandwich: lower bounds (including the Section 3.2 LP relaxation)
    /// <= exact <= heuristic.
    #[test]
    fn bounds_sandwich(costs in arb_costs()) {
        let heuristic = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .expect("no bound")
            .soc_time();
        let exact_time =
            exact::solve(&costs, &ExactConfig::default()).expect("solves").result.soc_time();
        prop_assert!(exact_time <= heuristic);
        // Average-load and max-min lower bounds.
        let total_min: u64 = (0..costs.num_cores()).map(|c| costs.min_time(c)).sum();
        let avg_lb = total_min.div_ceil(costs.num_tams() as u64);
        let max_min = (0..costs.num_cores()).map(|c| costs.min_time(c)).max().unwrap_or(0);
        prop_assert!(exact_time >= avg_lb.max(max_min));
        let relaxed = ilp::build_model(&costs)
            .solve()
            .expect("the relaxation is feasible")
            .objective();
        let exact_f = exact_time as f64;
        prop_assert!(relaxed <= exact_f + 1e-6 * exact_f, "LP {relaxed} > exact {exact_time}");
    }

    /// The Section 3.2 relaxation (`≥` TAM rows, `=` core rows) and the
    /// duals of its one primal solve certify each other: strong duality,
    /// TAM duals that are non-negative and sum to 1 (`τ` has reduced
    /// cost 0), and complementary slackness on every row and variable.
    #[test]
    fn relaxation_duals_certify_the_optimum(costs in arb_costs()) {
        let (n, b) = (costs.num_cores(), costs.num_tams());
        let (primal, dual) = ilp::build_model(&costs)
            .solve_with_duals()
            .expect("the relaxation is feasible");
        let tau = primal.objective();
        let tol = 1e-6 * tau.max(1.0);
        prop_assert!((dual.dual_objective() - tau).abs() <= tol, "{} vs {tau}", dual.dual_objective());
        let tam_duals = &dual.duals()[..b];
        prop_assert!(tam_duals.iter().all(|&y| y >= -1e-9), "{tam_duals:?}");
        prop_assert!((tam_duals.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{tam_duals:?}");
        prop_assert!(dual.reduced_cost(n * b).abs() < 1e-9);
        for (tam, &y) in tam_duals.iter().enumerate() {
            let load: f64 =
                (0..n).map(|c| costs.time(c, tam) as f64 * primal.value(c * b + tam)).sum();
            prop_assert!((y * (primal.value(n * b) - load)).abs() <= tol, "TAM row {tam}");
        }
        for core in 0..n {
            let assigned: f64 = (0..b).map(|tam| primal.value(core * b + tam)).sum();
            prop_assert!((dual.dual(b + core) * (1.0 - assigned)).abs() <= tol, "core row {core}");
        }
        for (j, &d) in dual.reduced_costs().iter().enumerate() {
            prop_assert!(d >= -tol, "variable {j}: reduced cost {d}");
            prop_assert!((d * primal.value(j)).abs() <= tol, "variable {j}");
        }
    }

    /// The abort path never *under*-reports: an aborted run means some
    /// TAM already reached the bound.
    #[test]
    fn abort_is_sound(costs in arb_costs(), bound in 1u64..500) {
        match core_assign(&costs, Some(bound), &CoreAssignOptions::default()) {
            tamopt_assign::CoreAssignOutcome::Complete(r) => {
                prop_assert!(r.soc_time() < bound);
            }
            tamopt_assign::CoreAssignOutcome::Aborted { bound: b } => {
                prop_assert_eq!(b, bound);
                // An unbounded rerun must confirm the heuristic really
                // reaches the bound at some point of its walk: its final
                // time is >= any partial max, so >= bound may fail only
                // if the partial max later shrank — impossible (loads
                // only grow). The final time must therefore be >= bound.
                let full = core_assign(&costs, None, &CoreAssignOptions::default())
                    .into_result()
                    .expect("no bound")
                    .soc_time();
                prop_assert!(full >= bound);
            }
        }
    }

    /// Tie-break options change the walk but never validity.
    #[test]
    fn options_preserve_validity(costs in arb_costs(), widest in any::<bool>(), next in any::<bool>()) {
        let opts = CoreAssignOptions {
            widest_tam_tie_break: widest,
            next_tam_tie_break: next,
        };
        let r = core_assign(&costs, None, &opts).into_result().expect("no bound");
        prop_assert_eq!(r.assignment().len(), costs.num_cores());
    }
}
