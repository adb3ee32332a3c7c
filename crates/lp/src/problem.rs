use crate::{LpError, LpSolution};

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: Vec<f64>, // dense over all variables
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Build with [`Problem::minimize`] / [`Problem::maximize`], add
/// objective coefficients and constraints, then call
/// [`solve`](Problem::solve).
///
/// # Example
///
/// ```
/// use tamopt_lp::{Problem, Relation};
///
/// # fn main() -> Result<(), tamopt_lp::LpError> {
/// // minimize x + y  s.t.  x + 2y >= 4,  3x + y >= 6
/// let mut p = Problem::minimize(2);
/// p.set_objective(0, 1.0)?;
/// p.set_objective(1, 1.0)?;
/// p.constraint(&[(0, 1.0), (1, 2.0)], Relation::Ge, 4.0)?;
/// p.constraint(&[(0, 3.0), (1, 1.0)], Relation::Ge, 6.0)?;
/// let sol = p.solve()?;
/// assert!((sol.objective() - 2.8).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    objective: Objective,
    costs: Vec<f64>,
    rows: Vec<Row>,
}

impl Problem {
    /// Creates a minimization problem over `num_variables` non-negative
    /// variables with an all-zero objective.
    pub fn minimize(num_variables: usize) -> Self {
        Self::new(Objective::Minimize, num_variables)
    }

    /// Creates a maximization problem over `num_variables` non-negative
    /// variables with an all-zero objective.
    pub fn maximize(num_variables: usize) -> Self {
        Self::new(Objective::Maximize, num_variables)
    }

    fn new(objective: Objective, num_variables: usize) -> Self {
        Problem {
            objective,
            costs: vec![0.0; num_variables],
            rows: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_variables(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// The optimization direction of this problem.
    pub fn sense(&self) -> Objective {
        self.objective
    }

    /// Sets the objective coefficient of `variable`.
    ///
    /// # Errors
    ///
    /// [`LpError::VariableOutOfRange`] / [`LpError::NotFinite`].
    pub fn set_objective(&mut self, variable: usize, coefficient: f64) -> Result<(), LpError> {
        self.check_var(variable)?;
        check_finite(coefficient)?;
        self.costs[variable] = coefficient;
        Ok(())
    }

    /// Adds the constraint `Σ coeffs ⋅ x  relation  rhs`. Terms may repeat
    /// a variable; they are summed.
    ///
    /// # Errors
    ///
    /// [`LpError::VariableOutOfRange`] / [`LpError::NotFinite`].
    pub fn constraint(
        &mut self,
        terms: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        check_finite(rhs)?;
        let mut coeffs = vec![0.0; self.num_variables()];
        for &(var, coef) in terms {
            self.check_var(var)?;
            check_finite(coef)?;
            coeffs[var] += coef;
        }
        self.rows.push(Row {
            coeffs,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no feasible point;
    /// * [`LpError::Unbounded`] — objective unbounded;
    /// * [`LpError::IterationLimit`] — numerical trouble (should not
    ///   occur on well-scaled inputs).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with_duals().map(|(primal, _)| primal)
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn costs(&self) -> &[f64] {
        &self.costs
    }

    fn check_var(&self, variable: usize) -> Result<(), LpError> {
        if variable >= self.num_variables() {
            return Err(LpError::VariableOutOfRange {
                variable,
                num_variables: self.num_variables(),
            });
        }
        Ok(())
    }
}

fn check_finite(value: f64) -> Result<(), LpError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(LpError::NotFinite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_and_non_finite() {
        let mut p = Problem::minimize(2);
        assert!(matches!(
            p.set_objective(2, 1.0),
            Err(LpError::VariableOutOfRange {
                variable: 2,
                num_variables: 2
            })
        ));
        assert_eq!(p.set_objective(0, f64::NAN), Err(LpError::NotFinite));
        assert!(matches!(
            p.constraint(&[(5, 1.0)], Relation::Le, 1.0),
            Err(LpError::VariableOutOfRange { .. })
        ));
        assert_eq!(
            p.constraint(&[(0, 1.0)], Relation::Le, f64::INFINITY),
            Err(LpError::NotFinite)
        );
    }

    #[test]
    fn repeated_terms_sum() {
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (0, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert!((sol.value(0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn accessors() {
        let mut p = Problem::minimize(3);
        p.constraint(&[(0, 1.0)], Relation::Ge, 1.0).unwrap();
        assert_eq!(p.num_variables(), 3);
        assert_eq!(p.num_constraints(), 1);
    }
}
