//! Property-based tests of the simplex solver: returned points are
//! feasible, and no random feasible point beats the reported optimum.

use proptest::prelude::*;
use tamopt_lp::{LpError, Problem, Relation};

/// A random LP built around a known feasible point: constraints are
/// generated as `a·x0 <= a·x0 + slack`, so `x0` is always feasible.
#[derive(Debug, Clone)]
struct SeededLp {
    costs: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // (coefficients, rhs) with Le relation
    feasible_point: Vec<f64>,
}

fn arb_lp() -> impl Strategy<Value = SeededLp> {
    (2usize..6, 1usize..6).prop_flat_map(|(n, m)| {
        let point = proptest::collection::vec(0.0f64..10.0, n);
        let costs = proptest::collection::vec(-5.0f64..5.0, n);
        let row = proptest::collection::vec(-3.0f64..3.0, n);
        let rows = proptest::collection::vec((row, 0.0f64..5.0), m);
        (point, costs, rows).prop_map(|(feasible_point, costs, raw_rows)| {
            let rows = raw_rows
                .into_iter()
                .map(|(coeffs, slack)| {
                    let activity: f64 =
                        coeffs.iter().zip(&feasible_point).map(|(a, x)| a * x).sum();
                    (coeffs, activity + slack)
                })
                .collect();
            SeededLp {
                costs,
                rows,
                feasible_point,
            }
        })
    })
}

/// A random LP with `≤`, `≥` and `=` rows around a known feasible point,
/// whose right-hand sides are often negative (the solver negates such
/// rows internally), boxed by `x ≤ 100` rows after its own rows.
#[derive(Debug, Clone)]
struct MixedLp {
    costs: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

fn arb_mixed_lp() -> impl Strategy<Value = MixedLp> {
    (2usize..6, 1usize..6).prop_flat_map(|(n, m)| {
        let point = proptest::collection::vec(0.0f64..10.0, n);
        let costs = proptest::collection::vec(-5.0f64..5.0, n);
        let row = proptest::collection::vec(-3.0f64..3.0, n);
        let rows = proptest::collection::vec((row, 0u8..3, 0.0f64..5.0), m);
        (point, costs, rows).prop_map(|(point, costs, raw_rows)| {
            let rows = raw_rows
                .into_iter()
                .map(|(coeffs, kind, slack)| {
                    let activity: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
                    let (relation, rhs) = match kind {
                        0 => (Relation::Le, activity + slack),
                        1 => (Relation::Ge, activity - slack),
                        _ => (Relation::Eq, activity),
                    };
                    (coeffs, relation, rhs)
                })
                .collect();
            MixedLp { costs, rows }
        })
    })
}

fn build_mixed(lp: &MixedLp, maximize: bool) -> Problem {
    let n = lp.costs.len();
    let mut p = if maximize {
        Problem::maximize(n)
    } else {
        Problem::minimize(n)
    };
    for (i, &c) in lp.costs.iter().enumerate() {
        p.set_objective(i, c).expect("valid index");
    }
    for (coeffs, relation, rhs) in &lp.rows {
        let terms: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
        p.constraint(&terms, *relation, *rhs).expect("valid row");
    }
    for i in 0..n {
        p.constraint(&[(i, 1.0)], Relation::Le, 100.0)
            .expect("valid box row");
    }
    p
}

fn build(lp: &SeededLp, maximize: bool) -> Problem {
    let n = lp.costs.len();
    let mut p = if maximize {
        Problem::maximize(n)
    } else {
        Problem::minimize(n)
    };
    for (i, &c) in lp.costs.iter().enumerate() {
        p.set_objective(i, c).expect("valid index");
    }
    for (coeffs, rhs) in &lp.rows {
        let terms: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
        p.constraint(&terms, Relation::Le, *rhs).expect("valid row");
    }
    // Box the variables so the problem is never unbounded. The box rows
    // come after the seeded rows, so row `i` of `lp.rows` is constraint `i`.
    for i in 0..n {
        p.constraint(&[(i, 1.0)], Relation::Le, 100.0)
            .expect("valid box row");
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The solver never reports infeasible (x0 exists), the returned
    /// point satisfies every constraint, and it is at least as good as
    /// the seeded feasible point.
    #[test]
    fn optimal_dominates_seeded_point(lp in arb_lp(), maximize in any::<bool>()) {
        let p = build(&lp, maximize);
        let sol = match p.solve() {
            Ok(s) => s,
            Err(LpError::IterationLimit) => {
                // Extremely unlikely numerical stall; not a correctness
                // failure of the returned value (none was returned).
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::fail(format!("solver failed: {e}"))),
        };
        // Feasibility of the returned point.
        for (coeffs, rhs) in &lp.rows {
            let activity: f64 =
                coeffs.iter().enumerate().map(|(i, a)| a * sol.value(i)).sum();
            prop_assert!(activity <= rhs + 1e-6, "row violated: {activity} > {rhs}");
        }
        for i in 0..lp.costs.len() {
            prop_assert!(sol.value(i) >= -1e-7);
            prop_assert!(sol.value(i) <= 100.0 + 1e-6);
        }
        // Optimality vs the seeded point.
        let seeded_obj: f64 =
            lp.costs.iter().zip(&lp.feasible_point).map(|(c, x)| c * x).sum();
        if maximize {
            prop_assert!(sol.objective() >= seeded_obj - 1e-6);
        } else {
            prop_assert!(sol.objective() <= seeded_obj + 1e-6);
        }
        // Reported objective equals c.x of the returned point.
        let recomputed: f64 =
            lp.costs.iter().enumerate().map(|(i, c)| c * sol.value(i)).sum();
        prop_assert!((recomputed - sol.objective()).abs() < 1e-5);
    }

    /// Strong duality and dual feasibility hold on every solvable
    /// random instance.
    #[test]
    fn duality_invariants(lp in arb_lp(), maximize in any::<bool>()) {
        let p = build(&lp, maximize);
        let (primal, dual) = match p.solve_with_duals() {
            Ok(pair) => pair,
            Err(LpError::IterationLimit) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("solver failed: {e}"))),
        };
        // Strong duality.
        prop_assert!(
            (dual.dual_objective() - primal.objective()).abs()
                < 1e-4 * (1.0 + primal.objective().abs()),
            "duality gap: primal {} vs dual {}",
            primal.objective(),
            dual.dual_objective()
        );
        // Dual sign: all user rows are Le, so duals are <= 0 when
        // minimizing and >= 0 when maximizing.
        for i in 0..lp.rows.len() {
            if maximize {
                prop_assert!(dual.dual(i) >= -1e-6, "dual {i} = {}", dual.dual(i));
            } else {
                prop_assert!(dual.dual(i) <= 1e-6, "dual {i} = {}", dual.dual(i));
            }
        }
        // Complementary slackness on user rows.
        for (i, (coeffs, rhs)) in lp.rows.iter().enumerate() {
            let activity: f64 =
                coeffs.iter().enumerate().map(|(j, a)| a * primal.value(j)).sum();
            let slack = rhs - activity;
            prop_assert!(
                (dual.dual(i) * slack).abs() < 1e-3,
                "row {i}: dual {} x slack {slack}",
                dual.dual(i)
            );
        }
    }

    /// The duals read from the one primal solve certify it on `≤`, `≥`
    /// and `=` rows with either sign of right-hand side: strong duality,
    /// the sign convention of each row's relation, dual feasibility and
    /// complementary slackness on every row and every variable.
    #[test]
    fn duality_holds_on_mixed_rows(lp in arb_mixed_lp(), maximize in any::<bool>()) {
        let p = build_mixed(&lp, maximize);
        let (primal, dual) = match p.solve_with_duals() {
            Ok(pair) => pair,
            Err(LpError::IterationLimit) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("solver failed: {e}"))),
        };
        let scale = 1.0 + primal.objective().abs();
        prop_assert!(
            (dual.dual_objective() - primal.objective()).abs() <= 1e-6 * scale,
            "duality gap: primal {} vs dual {}",
            primal.objective(),
            dual.dual_objective()
        );
        // In the minimization sense (flipped for Maximize): `≥` duals
        // are non-negative, `≤` duals non-positive, reduced costs
        // non-negative.
        let sense = if maximize { -1.0 } else { 1.0 };
        let n = lp.costs.len();
        let box_rows = (0..n).map(|j| {
            let mut coeffs = vec![0.0; n];
            coeffs[j] = 1.0;
            (coeffs, Relation::Le, 100.0)
        });
        for (i, (coeffs, relation, rhs)) in lp.rows.iter().cloned().chain(box_rows).enumerate() {
            let y = sense * dual.dual(i);
            match relation {
                Relation::Le => prop_assert!(y <= 1e-7, "row {i} (Le): dual {y}"),
                Relation::Ge => prop_assert!(y >= -1e-7, "row {i} (Ge): dual {y}"),
                Relation::Eq => {}
            }
            let activity: f64 = coeffs.iter().enumerate().map(|(j, a)| a * primal.value(j)).sum();
            prop_assert!(
                (dual.dual(i) * (rhs - activity)).abs() <= 1e-6 * scale,
                "row {i}: dual {} x slack {}",
                dual.dual(i),
                rhs - activity
            );
        }
        for j in 0..n {
            let d = sense * dual.reduced_cost(j);
            prop_assert!(d >= -1e-7, "variable {j}: reduced cost {d}");
            prop_assert!((d * primal.value(j)).abs() <= 1e-6 * scale);
        }
    }
}
