use tamopt_wrapper::TimeTable;

use crate::{AssignError, TamSet};

/// Testing times `T(core, tam)` for one concrete TAM set — the input of
/// every *P_AW* solver.
///
/// Normally derived from a wrapper [`TimeTable`] and a [`TamSet`]
/// (Figure 1 line 6 of the paper: "Find `T_c(w_b)` using
/// `Design_wrapper`"); [`CostMatrix::from_raw`] accepts a verbatim
/// matrix for cases like the paper's Figure 2 example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostMatrix {
    /// `costs[core][tam]`.
    costs: Vec<Vec<u64>>,
    widths: Vec<u32>,
}

impl CostMatrix {
    /// Derives the matrix from a wrapper time table: core `i` on TAM `b`
    /// costs `table.time(i, tams.width(b))`.
    ///
    /// # Errors
    ///
    /// [`AssignError::WidthOutOfTable`] if a TAM is wider than the table
    /// covers.
    pub fn from_table(table: &TimeTable, tams: &TamSet) -> Result<Self, AssignError> {
        for (index, &width) in tams.widths().iter().enumerate() {
            if width > table.max_width() {
                return Err(AssignError::WidthOutOfTable {
                    index,
                    width,
                    max_width: table.max_width(),
                });
            }
        }
        let costs = (0..table.num_cores())
            .map(|core| tams.widths().iter().map(|&w| table.time(core, w)).collect())
            .collect();
        Ok(CostMatrix {
            costs,
            widths: tams.widths().to_vec(),
        })
    }

    /// Wraps a verbatim cost matrix `costs[core][tam]` with the given TAM
    /// widths (used for the paper's Figure 2 example, whose table is
    /// given directly).
    ///
    /// # Errors
    ///
    /// [`AssignError::MalformedCosts`] if the matrix is empty, ragged, or
    /// disagrees with `widths` in TAM count.
    pub fn from_raw(costs: Vec<Vec<u64>>, widths: Vec<u32>) -> Result<Self, AssignError> {
        let tams = widths.len();
        if costs.is_empty() || tams == 0 || costs.iter().any(|row| row.len() != tams) {
            return Err(AssignError::MalformedCosts);
        }
        Ok(CostMatrix { costs, widths })
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.costs.len()
    }

    /// Number of TAMs.
    pub fn num_tams(&self) -> usize {
        self.widths.len()
    }

    /// Width of TAM `tam`.
    ///
    /// # Panics
    ///
    /// Panics if `tam` is out of range.
    pub fn width(&self, tam: usize) -> u32 {
        self.widths[tam]
    }

    /// All TAM widths, in TAM order.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Testing time of `core` on `tam`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn time(&self, core: usize, tam: usize) -> u64 {
        self.costs[core][tam]
    }

    /// The row of testing times of one core over all TAMs.
    pub fn row(&self, core: usize) -> &[u64] {
        &self.costs[core]
    }

    /// Cheapest TAM time for `core` (its contribution to lower bounds).
    pub fn min_time(&self, core: usize) -> u64 {
        *self.costs[core].iter().min().expect("at least one tam")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn from_table_picks_width_columns() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 32).unwrap();
        let tams = TamSet::new([8, 32]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        assert_eq!(costs.num_cores(), 10);
        assert_eq!(costs.num_tams(), 2);
        for core in 0..10 {
            assert_eq!(costs.time(core, 0), table.time(core, 8));
            assert_eq!(costs.time(core, 1), table.time(core, 32));
            assert!(
                costs.time(core, 1) <= costs.time(core, 0),
                "wider is never slower"
            );
        }
    }

    #[test]
    fn from_table_rejects_too_wide_tams() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 16).unwrap();
        let tams = TamSet::new([8, 24]).unwrap();
        assert_eq!(
            CostMatrix::from_table(&table, &tams).unwrap_err(),
            AssignError::WidthOutOfTable {
                index: 1,
                width: 24,
                max_width: 16
            }
        );
    }

    #[test]
    fn from_raw_validates_shape() {
        assert_eq!(
            CostMatrix::from_raw(vec![], vec![1]).unwrap_err(),
            AssignError::MalformedCosts
        );
        assert_eq!(
            CostMatrix::from_raw(vec![vec![1, 2], vec![3]], vec![4, 2]).unwrap_err(),
            AssignError::MalformedCosts
        );
        assert_eq!(
            CostMatrix::from_raw(vec![vec![1, 2]], vec![4]).unwrap_err(),
            AssignError::MalformedCosts
        );
    }

    #[test]
    fn figure2_matrix() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let m = CostMatrix::from_raw(times, widths).unwrap();
        assert_eq!(m.num_cores(), 5);
        assert_eq!(m.num_tams(), 3);
        assert_eq!(m.time(4, 0), 120);
        assert_eq!(m.min_time(2), 90);
        assert_eq!(m.row(0), &[50, 100, 200]);
        assert_eq!(m.width(2), 8);
    }
}
