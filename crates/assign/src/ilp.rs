//! The LP relaxation of the paper's Section 3.2 ILP model for *P_AW*.
//!
//! For an SOC with `N` cores and `B` TAMs of widths `w_1 … w_B`:
//!
//! * variables `x_ib` (core `i` assigned to TAM `b`; binary in the ILP,
//!   relaxed here to `x_ib ≥ 0`),
//! * continuous `τ`,
//! * objective: minimize `τ`,
//! * `τ ≥ Σ_i T_i(w_b)·x_ib` for every TAM `b` (`τ` is the maximum
//!   per-TAM time),
//! * `Σ_b x_ib = 1` for every core `i`.
//!
//! The model has `N·B + 1` variables and `N + B` rows — the `O(N·B)`
//! size the paper quotes as its complexity measure. The assignment rows
//! already imply `x_ib ≤ 1`, so no variable bounds are needed. The
//! relaxation's optimum is a lower bound on the exact *P_AW* time, and
//! its duals price each TAM and each core. The exact optimum itself
//! comes from [`crate::exact::solve`], which weights its Lagrangian load
//! bound with the TAM duals once a search grows long.

use tamopt_lp::{Problem, Relation};

use crate::CostMatrix;

/// Builds the LP relaxation of the Section 3.2 model for `costs`.
///
/// Variable `i * B + b` is `x_ib`; variable `N * B` is `τ`. Rows
/// `0..B` are the TAM load rows, rows `B..B + N` the core assignment
/// rows.
///
/// # Example
///
/// ```
/// use tamopt_assign::exact::{self, ExactConfig};
/// use tamopt_assign::{ilp, CostMatrix};
/// use tamopt_soc::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (widths, times) = benchmarks::figure2_cost_table();
/// let costs = CostMatrix::from_raw(times, widths)?;
/// let relaxed = ilp::build_model(&costs).solve()?.objective();
/// let exact = exact::solve(&costs, &ExactConfig::default())?.result.soc_time();
/// assert!(relaxed <= exact as f64 + 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn build_model(costs: &CostMatrix) -> Problem {
    let n = costs.num_cores();
    let b = costs.num_tams();
    let tau = n * b;
    let mut lp = Problem::minimize(n * b + 1);
    lp.set_objective(tau, 1.0).expect("tau exists");
    // tau >= sum_i T_i(b) x_ib  for each TAM b.
    for tam in 0..b {
        let mut terms: Vec<(usize, f64)> = vec![(tau, 1.0)];
        for core in 0..n {
            terms.push((core * b + tam, -(costs.time(core, tam) as f64)));
        }
        lp.constraint(&terms, Relation::Ge, 0.0)
            .expect("valid model row");
    }
    // sum_b x_ib = 1  for each core i.
    for core in 0..n {
        let terms: Vec<(usize, f64)> = (0..b).map(|tam| (core * b + tam, 1.0)).collect();
        lp.constraint(&terms, Relation::Eq, 1.0)
            .expect("valid model row");
    }
    lp
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn model_dimensions_match_section_3_2() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let model = build_model(&costs);
        // N*B + 1 variables, N + B rows.
        assert_eq!(model.num_variables(), 5 * 3 + 1);
        assert_eq!(model.num_constraints(), 5 + 3);
    }
}
