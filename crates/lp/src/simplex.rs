//! Two-phase tableau simplex on standard-form problems.
//!
//! Internal module: [`solve_standard`] minimizes `cᵀx` subject to the
//! dense rows produced by [`crate::Problem`], `x ≥ 0`.
//!
//! Every row starts with a unit column of its own: its slack (`≤`) or
//! its artificial (`≥`, `=`). The artificial columns stay in the tableau
//! through phase 2 but may never enter the basis, so the final
//! reduced-cost row still carries `−y_i` in each row's unit column and
//! one primal solve yields the duals too.

use crate::problem::{Relation, Row};
use crate::{LpError, EPSILON};

/// Feasibility tolerance for the phase-1 objective.
const FEAS_EPS: f64 = 1e-7;

/// An optimal basic solution of the minimization form.
pub(crate) struct Optimum {
    /// Structural variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
    /// Dual value `y_i` of each input row, in input order.
    pub duals: Vec<f64>,
    /// Reduced cost `c_j − Σ_i y_i·a_ij` of each structural variable.
    pub reduced_costs: Vec<f64>,
}

/// Minimizes `costs · x` subject to `rows`, `x ≥ 0`.
pub(crate) fn solve_standard(n: usize, costs: &[f64], rows: &[Row]) -> Result<Optimum, LpError> {
    let mut t = Tableau::build(n, rows);
    // Phase 1: minimize the sum of artificial variables.
    if t.artificial_start < t.num_cols {
        let mut phase1 = vec![0.0; t.num_cols];
        phase1[t.artificial_start..].fill(1.0);
        let z = t.run(&phase1)?;
        if -z[t.num_cols] > FEAS_EPS {
            return Err(LpError::Infeasible);
        }
        t.drive_out_artificials();
    }
    // Phase 2: minimize the real objective; artificials cost 0 and stay
    // nonbasic (or basic at 0 in a redundant row).
    let mut full_costs = vec![0.0; t.num_cols];
    full_costs[..n].copy_from_slice(costs);
    let z = t.run(&full_costs)?;
    let mut x = vec![0.0; n];
    for (row, &basic) in t.basis.iter().enumerate() {
        if basic < n {
            x[basic] = t.rhs(row);
        }
    }
    // A unit column costs 0, so its reduced cost is `−y` of the
    // oriented row; undo the orientation to get the input row's dual.
    let duals = t
        .unit_col
        .iter()
        .zip(&t.row_sign)
        .map(|(&col, &sign)| -sign * z[col])
        .collect();
    Ok(Optimum {
        x,
        objective: -z[t.num_cols],
        duals,
        reduced_costs: z[..n].to_vec(),
    })
}

struct Tableau {
    /// `rows[i]` has `num_cols` coefficients followed by the rhs.
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
    num_cols: usize,
    artificial_start: usize,
    /// The column that forms row `i`'s unit vector in the first basis.
    unit_col: Vec<usize>,
    /// `-1.0` where row `i` was negated to make its rhs non-negative.
    row_sign: Vec<f64>,
}

impl Tableau {
    fn build(n: usize, input: &[Row]) -> Tableau {
        let m = input.len();
        // Count auxiliary columns.
        let mut num_slack = 0;
        let mut num_artificial = 0;
        for row in input {
            // Orient so rhs >= 0 first; the effective relation after
            // negation decides the auxiliary columns.
            let rel = effective_relation(row);
            match rel {
                Relation::Le => num_slack += 1,
                Relation::Ge => {
                    num_slack += 1; // surplus
                    num_artificial += 1;
                }
                Relation::Eq => num_artificial += 1,
            }
        }
        let slack_start = n;
        let artificial_start = n + num_slack;
        let num_cols = n + num_slack + num_artificial;
        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut row_sign = Vec::with_capacity(m);
        let mut next_slack = slack_start;
        let mut next_artificial = artificial_start;
        for row in input {
            let negate = row.rhs < 0.0;
            let sign = if negate { -1.0 } else { 1.0 };
            let mut r = vec![0.0; num_cols + 1];
            for (j, &c) in row.coeffs.iter().enumerate() {
                r[j] = sign * c;
            }
            r[num_cols] = sign * row.rhs;
            match effective_relation(row) {
                Relation::Le => {
                    r[next_slack] = 1.0;
                    basis.push(next_slack);
                    next_slack += 1;
                }
                Relation::Ge => {
                    r[next_slack] = -1.0;
                    next_slack += 1;
                    r[next_artificial] = 1.0;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
                Relation::Eq => {
                    r[next_artificial] = 1.0;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
            }
            rows.push(r);
            row_sign.push(sign);
        }
        Tableau {
            rows,
            unit_col: basis.clone(),
            basis,
            num_cols,
            artificial_start,
            row_sign,
        }
    }

    fn rhs(&self, row: usize) -> f64 {
        self.rows[row][self.num_cols]
    }

    /// Runs simplex minimizing `costs`; returns the final reduced-cost
    /// row, whose last entry is `−objective`.
    fn run(&mut self, costs: &[f64]) -> Result<Vec<f64>, LpError> {
        // Reduced-cost row: z[j] = c[j] - c_B B^{-1} A_j, tracked
        // incrementally; z[num_cols] accumulates -objective.
        let mut z = vec![0.0; self.num_cols + 1];
        z[..self.num_cols].copy_from_slice(costs);
        for (row, &basic) in self.basis.iter().enumerate() {
            let cb = costs[basic];
            if cb != 0.0 {
                let r = self.rows[row].clone();
                for (zj, rj) in z.iter_mut().zip(&r) {
                    *zj -= cb * rj;
                }
            }
        }
        let limit = 200 + 40 * (self.rows.len() + self.num_cols);
        let bland_after = 20 + 4 * (self.rows.len() + self.num_cols);
        for iteration in 0..limit {
            let bland = iteration >= bland_after;
            let entering = self.choose_entering(&z, bland);
            let Some(col) = entering else {
                return Ok(z);
            };
            let Some(pivot_row) = self.ratio_test(col, bland) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(pivot_row, col, &mut z);
        }
        Err(LpError::IterationLimit)
    }

    /// Artificial columns never enter: once out, they stay out.
    fn choose_entering(&self, z: &[f64], bland: bool) -> Option<usize> {
        if bland {
            (0..self.artificial_start).find(|&j| z[j] < -EPSILON)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for (j, &zj) in z.iter().enumerate().take(self.artificial_start) {
                if zj < -EPSILON && best.is_none_or(|(_, bz)| zj < bz) {
                    best = Some((j, zj));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    fn ratio_test(&self, col: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.rows.len() {
            let a = self.rows[i][col];
            if a > EPSILON {
                let ratio = self.rhs(i) / a;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - EPSILON
                            || (ratio < br + EPSILON
                                && if bland {
                                    self.basis[i] < self.basis[bi]
                                } else {
                                    // Prefer kicking artificials out.
                                    self.basis[i] >= self.artificial_start
                                        && self.basis[bi] < self.artificial_start
                                })
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    fn pivot(&mut self, pivot_row: usize, col: usize, z: &mut [f64]) {
        let pivot = self.rows[pivot_row][col];
        debug_assert!(pivot.abs() > EPSILON);
        let inv = 1.0 / pivot;
        for v in &mut self.rows[pivot_row] {
            *v *= inv;
        }
        let pr = self.rows[pivot_row].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != pivot_row {
                let factor = row[col];
                if factor != 0.0 {
                    for (v, p) in row.iter_mut().zip(&pr) {
                        *v -= factor * p;
                    }
                    row[col] = 0.0; // exact zero against drift
                }
            }
        }
        let factor = z[col];
        if factor != 0.0 {
            for (v, p) in z.iter_mut().zip(&pr) {
                *v -= factor * p;
            }
            z[col] = 0.0;
        }
        self.basis[pivot_row] = col;
    }

    /// After phase 1, pivots any artificial variable still basic (at
    /// value ~0) out of the basis where possible.
    fn drive_out_artificials(&mut self) {
        let mut zero = vec![0.0; self.num_cols + 1];
        for row in 0..self.rows.len() {
            if self.basis[row] >= self.artificial_start {
                let col = (0..self.artificial_start).find(|&j| self.rows[row][j].abs() > EPSILON);
                if let Some(col) = col {
                    self.pivot(row, col, &mut zero);
                }
                // If no pivot column exists the row is redundant
                // (all-zero over structural + slack); the artificial
                // stays basic at value 0, and since no column that may
                // enter has an entry in the row, it never pivots again.
            }
        }
    }
}

fn effective_relation(row: &Row) -> Relation {
    if row.rhs < 0.0 {
        match row.relation {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    } else {
        row.relation
    }
}

#[cfg(test)]
mod tests {
    use crate::{LpError, Problem, Relation};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y; 6x + 4y <= 24; x + 2y <= 6 -> x=3, y=1.5, obj=21.
        let mut p = Problem::maximize(2);
        p.set_objective(0, 5.0).unwrap();
        p.set_objective(1, 4.0).unwrap();
        p.constraint(&[(0, 6.0), (1, 4.0)], Relation::Le, 24.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 6.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 21.0);
        approx(s.value(0), 3.0);
        approx(s.value(1), 1.5);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y; x + y >= 4; x >= 1 -> x=4 (y=0), obj=8? No:
        // costs 2,3: best is all x: x=4, y=0 -> 8.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0).unwrap();
        p.set_objective(1, 3.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0)
            .unwrap();
        p.constraint(&[(0, 1.0)], Relation::Ge, 1.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 8.0);
        approx(s.value(0), 4.0);
    }

    #[test]
    fn equality_rows() {
        // min x + y; x + y = 5; x - y = 1 -> x=3, y=2, obj=5.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0).unwrap();
        p.set_objective(1, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.value(0), 3.0);
        approx(s.value(1), 2.0);
        approx(s.objective(), 5.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2  <=>  y - x >= 2; min y s.t. that and x >= 0 -> y=2.
        let mut p = Problem::minimize(2);
        p.set_objective(1, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, -2.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.value(1), 2.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize(1);
        p.constraint(&[(0, 1.0)], Relation::Ge, 3.0).unwrap();
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::maximize(1);
        p.set_objective(0, 1.0).unwrap();
        p.constraint(&[(0, -1.0)], Relation::Le, 1.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone example (Beale); Bland fallback must
        // terminate it.
        let mut p = Problem::minimize(4);
        for (i, c) in [-0.75, 150.0, -0.02, 6.0].iter().enumerate() {
            p.set_objective(i, *c).unwrap();
        }
        p.constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.constraint(&[(2, 1.0)], Relation::Le, 1.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), -0.05);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 twice (redundant row must be dropped after phase 1).
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 0.0);
        approx(s.value(1), 2.0);
    }

    #[test]
    fn min_max_assignment_relaxation() {
        // LP relaxation of a tiny P_AW instance: 2 cores, 2 TAMs.
        // min t s.t. t >= 10a + 20b (TAM1 load), t >= 12(1-a) + 8(1-b),
        // with a, b in [0, 1] the fractional assignment to TAM1.
        // Variables: t, a, b.
        let mut p = Problem::minimize(3);
        p.set_objective(0, 1.0).unwrap();
        p.constraint(&[(1, 1.0)], Relation::Le, 1.0).unwrap();
        p.constraint(&[(2, 1.0)], Relation::Le, 1.0).unwrap();
        p.constraint(&[(0, 1.0), (1, -10.0), (2, -20.0)], Relation::Ge, 0.0)
            .unwrap();
        p.constraint(&[(0, 1.0), (1, 12.0), (2, 8.0)], Relation::Ge, 20.0)
            .unwrap();
        let s = p.solve().unwrap();
        // Fractional optimum: b = 0, 10a = 20 - 12a -> a = 10/11,
        // t = 100/11. Strictly below the best integral makespan (10),
        // as an LP relaxation should be.
        approx(s.objective(), 100.0 / 11.0);
    }

    #[test]
    fn zero_constraint_problem_is_trivial() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0).unwrap();
        let s = p.solve().unwrap();
        approx(s.objective(), 0.0);
    }
}
