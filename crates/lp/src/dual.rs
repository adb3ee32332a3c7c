//! Dual values and reduced costs.
//!
//! [`Problem::solve_with_duals`] reads them from the one primal simplex
//! solve: the final reduced-cost row holds every reduced cost, and, in
//! the unit column each row starts with (its slack or its artificial,
//! which is kept but never re-enters the basis), minus that row's dual.
//! Strong duality and complementary slackness are checked by the
//! property tests, not trusted.

use crate::simplex::solve_standard;
use crate::{LpError, LpSolution, Objective, Problem};

/// Dual information for an optimal LP solution.
///
/// Sign conventions follow the problem's own sense. For a
/// *minimization* problem:
///
/// * `dual(i) ≥ 0` for `≥` rows, `≤ 0` for `≤` rows, free for `=` rows;
/// * `reduced_cost(j) = c_j − Σ_i dual(i)·a_ij`: `0` for a variable
///   above zero, `≥ 0` for a variable at zero.
///
/// For a *maximization* problem all signs flip.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSolution {
    duals: Vec<f64>,
    reduced_costs: Vec<f64>,
    dual_objective: f64,
}

impl DualSolution {
    /// Dual value (shadow price) of constraint `constraint`, in the
    /// order constraints were added.
    ///
    /// # Panics
    ///
    /// Panics if `constraint` is out of range.
    pub fn dual(&self, constraint: usize) -> f64 {
        self.duals[constraint]
    }

    /// All constraint duals, in constraint order.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Reduced cost of `variable`; see the type docs for the sign
    /// convention.
    ///
    /// # Panics
    ///
    /// Panics if `variable` is out of range.
    pub fn reduced_cost(&self, variable: usize) -> f64 {
        self.reduced_costs[variable]
    }

    /// All reduced costs, indexed by variable.
    pub fn reduced_costs(&self) -> &[f64] {
        &self.reduced_costs
    }

    /// The dual objective value; equals the primal objective at an
    /// optimum (strong duality).
    pub fn dual_objective(&self) -> f64 {
        self.dual_objective
    }
}

impl Problem {
    /// Solves the problem and returns dual values and reduced costs
    /// alongside the primal solution.
    ///
    /// # Errors
    ///
    /// The same conditions as [`Problem::solve`], which is this call
    /// without the duals.
    ///
    /// # Example
    ///
    /// ```
    /// use tamopt_lp::{Problem, Relation};
    ///
    /// # fn main() -> Result<(), tamopt_lp::LpError> {
    /// // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6.
    /// let mut p = Problem::maximize(2);
    /// p.set_objective(0, 3.0)?;
    /// p.set_objective(1, 2.0)?;
    /// p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0)?;
    /// p.constraint(&[(0, 1.0), (1, 3.0)], Relation::Le, 6.0)?;
    /// let (primal, dual) = p.solve_with_duals()?;
    /// // Strong duality.
    /// assert!((dual.dual_objective() - primal.objective()).abs() < 1e-6);
    /// // Only the first constraint binds the optimum (x = 4, y = 0).
    /// assert!(dual.dual(0) > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_with_duals(&self) -> Result<(LpSolution, DualSolution), LpError> {
        // The simplex minimizes; flip the costs, and back the results,
        // for Maximize.
        let sign = match self.sense() {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let costs: Vec<f64> = self.costs().iter().map(|c| sign * c).collect();
        let opt = solve_standard(self.num_variables(), &costs, self.rows())?;
        let duals: Vec<f64> = opt.duals.iter().map(|y| sign * y).collect();
        let dual_objective = self
            .rows()
            .iter()
            .zip(&duals)
            .map(|(row, y)| y * row.rhs)
            .sum();
        Ok((
            LpSolution::new(opt.x, sign * opt.objective),
            DualSolution {
                duals,
                reduced_costs: opt.reduced_costs.iter().map(|d| sign * d).collect(),
                dual_objective,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_duals() {
        // max 5x + 4y; 6x + 4y <= 24; x + 2y <= 6. Optimum (3, 1.5),
        // obj 21, duals y1 = 0.75, y2 = 0.5.
        let mut p = Problem::maximize(2);
        p.set_objective(0, 5.0).unwrap();
        p.set_objective(1, 4.0).unwrap();
        p.constraint(&[(0, 6.0), (1, 4.0)], Relation::Le, 24.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 6.0)
            .unwrap();
        let (primal, dual) = p.solve_with_duals().unwrap();
        approx(primal.objective(), 21.0);
        approx(dual.dual_objective(), 21.0);
        approx(dual.dual(0), 0.75);
        approx(dual.dual(1), 0.5);
        // Both variables are basic: zero reduced costs.
        approx(dual.reduced_cost(0), 0.0);
        approx(dual.reduced_cost(1), 0.0);
    }

    #[test]
    fn nonbinding_row_has_zero_dual() {
        // min 2x s.t. x >= 3, x >= 1: second row slack at the optimum.
        let mut p = Problem::minimize(1);
        p.set_objective(0, 2.0).unwrap();
        p.constraint(&[(0, 1.0)], Relation::Ge, 3.0).unwrap();
        p.constraint(&[(0, 1.0)], Relation::Ge, 1.0).unwrap();
        let (primal, dual) = p.solve_with_duals().unwrap();
        approx(primal.objective(), 6.0);
        approx(dual.dual(0), 2.0);
        approx(dual.dual(1), 0.0);
    }

    #[test]
    fn variable_at_zero_has_nonnegative_reduced_cost() {
        // min x + 10y s.t. x + y >= 4 -> y stays at 0.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0).unwrap();
        p.set_objective(1, 10.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0)
            .unwrap();
        let (primal, dual) = p.solve_with_duals().unwrap();
        approx(primal.value(1), 0.0);
        approx(dual.reduced_cost(0), 0.0);
        // d_y = 10 - y1*1 = 10 - 1 = 9 > 0.
        approx(dual.reduced_cost(1), 9.0);
    }

    #[test]
    fn equality_duals_are_free() {
        // min x + y s.t. x + y = 5, x - y = 1 -> (3, 2). Duals solve
        // y1 + y2 = 1, y1 - y2 = 1 -> y1 = 1, y2 = 0.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0).unwrap();
        p.set_objective(1, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 1.0)
            .unwrap();
        let (primal, dual) = p.solve_with_duals().unwrap();
        approx(primal.objective(), 5.0);
        approx(dual.dual_objective(), 5.0);
        approx(dual.dual(0), 1.0);
        approx(dual.dual(1), 0.0);
    }

    #[test]
    fn infeasible_problems_error_before_the_dual_solve() {
        let mut p = Problem::minimize(1);
        p.constraint(&[(0, 1.0)], Relation::Ge, 3.0).unwrap();
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        assert_eq!(p.solve_with_duals().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn complementary_slackness_on_a_mixed_problem() {
        // max 2x + 3y s.t. x + y <= 10, x - y >= 2, y <= 6.
        let mut p = Problem::maximize(2);
        p.set_objective(0, 2.0).unwrap();
        p.set_objective(1, 3.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 10.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, -1.0)], Relation::Ge, 2.0)
            .unwrap();
        p.constraint(&[(1, 1.0)], Relation::Le, 6.0).unwrap();
        let (primal, dual) = p.solve_with_duals().unwrap();
        approx(dual.dual_objective(), primal.objective());
        // y_i · slack_i = 0 for every row.
        let slack0 = 10.0 - (primal.value(0) + primal.value(1));
        let slack1 = (primal.value(0) - primal.value(1)) - 2.0;
        let slack2 = 6.0 - primal.value(1);
        assert!((dual.dual(0) * slack0).abs() < 1e-6);
        assert!((dual.dual(1) * slack1).abs() < 1e-6);
        assert!((dual.dual(2) * slack2).abs() < 1e-6);
    }
}
