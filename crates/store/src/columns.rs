//! Saturated effective-width cost columns: the compressed form of a
//! [`TimeTable`] persisted alongside the incumbents.
//!
//! A time table's columns form a Pareto staircase — once every core has
//! passed its saturation width, adding wires changes nothing, so long
//! runs of widths share one column of per-core testing times.
//! [`CostColumns`] stores only the
//! breakpoints (the widths whose column differs from the previous one)
//! and expands back to a table that is **bit-identical** to
//! `TimeTable::new` at any width it covers. Each row is
//! [`tamopt_wrapper::time_row`], whose entry at `w` is a closed form in
//! `w` alone: the smallest Best-Fit-Decreasing bin load over bin counts
//! `k ≤ w`, against the ceilings `⌈(S + I)/w⌉` and `⌈(S + O)/w⌉`. It does
//! not depend on the table's maximum width, so the column at `w` of a
//! table built at `W ≥ w` equals the column at `w` of a table built at
//! `w`. That exactness is the determinism argument for serving
//! a warm table from the store instead of re-running wrapper design —
//! the scan sees the very same numbers either way.

use tamopt_wrapper::TimeTable;

/// The deduplicated Pareto staircase of a [`TimeTable`]: one per-core
/// column of testing times per breakpoint width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostColumns {
    /// Largest width the staircase covers (the source table's
    /// `max_width`).
    max_width: u32,
    /// `(width, per-core column)` at every width whose column differs
    /// from the previous width's; the first entry is always width 1.
    /// Widths strictly increase and every column has the same (nonzero)
    /// length.
    breaks: Vec<(u32, Vec<u64>)>,
}

impl CostColumns {
    /// Compresses `table` to its breakpoint columns.
    pub fn from_table(table: &TimeTable) -> Self {
        let cores = table.num_cores();
        let column = |w: u32| -> Vec<u64> { (0..cores).map(|c| table.time(c, w)).collect() };
        let mut breaks = vec![(1u32, column(1))];
        for w in 2..=table.max_width() {
            let col = column(w);
            if col != breaks.last().expect("non-empty").1 {
                breaks.push((w, col));
            }
        }
        CostColumns {
            max_width: table.max_width(),
            breaks,
        }
    }

    /// Rebuilds internal state from decoded parts, re-validating every
    /// invariant (`None` for inconsistent input — the file decoder must
    /// never panic on hostile bytes).
    pub(crate) fn from_parts(max_width: u32, breaks: Vec<(u32, Vec<u64>)>) -> Option<Self> {
        let cores = breaks.first()?.1.len();
        if cores == 0 || breaks[0].0 != 1 || max_width == 0 {
            return None;
        }
        let widths_ok = breaks.windows(2).all(|pair| pair[0].0 < pair[1].0);
        let shape_ok = breaks
            .iter()
            .all(|(w, col)| *w <= max_width && col.len() == cores);
        (widths_ok && shape_ok).then_some(CostColumns { max_width, breaks })
    }

    /// Largest width [`expand`](Self::expand) can serve.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// Number of cores per column.
    pub fn num_cores(&self) -> usize {
        self.breaks[0].1.len()
    }

    /// The breakpoint entries, ascending by width.
    pub(crate) fn breaks(&self) -> &[(u32, Vec<u64>)] {
        &self.breaks
    }

    /// Expands the staircase back into a full table covering widths
    /// `1..=width` — bit-identical to `TimeTable::new(soc, width)` for
    /// the SOC the source table was built from. `None` when `width` is
    /// zero or beyond [`max_width`](Self::max_width) (the staircase
    /// cannot know where the *next* breakpoint would fall).
    pub fn expand(&self, width: u32) -> Option<TimeTable> {
        if width == 0 || width > self.max_width {
            return None;
        }
        let cores = self.num_cores();
        let mut times = vec![Vec::with_capacity(width as usize); cores];
        let mut level = 0usize;
        for w in 1..=width {
            while level + 1 < self.breaks.len() && self.breaks[level + 1].0 <= w {
                level += 1;
            }
            for (core, row) in times.iter_mut().enumerate() {
                row.push(self.breaks[level].1[core]);
            }
        }
        Some(TimeTable::from_matrix(times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn roundtrips_a_real_table_exactly() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 48).unwrap();
        let columns = CostColumns::from_table(&table);
        assert_eq!(columns.max_width(), 48);
        assert!(columns.breaks().len() < 48, "d695 saturates: must compress");
        // Bit-identical at the full width and at every narrower width.
        assert_eq!(columns.expand(48).unwrap(), table);
        for w in [1u32, 2, 7, 16, 33] {
            assert_eq!(
                columns.expand(w).unwrap(),
                TimeTable::new(&soc, w).unwrap(),
                "width {w}"
            );
        }
    }

    #[test]
    fn expand_refuses_uncovered_widths() {
        let table = TimeTable::from_matrix(vec![vec![9, 5, 5, 4]]);
        let columns = CostColumns::from_table(&table);
        assert!(columns.expand(0).is_none());
        assert!(columns.expand(5).is_none());
        assert_eq!(columns.expand(4).unwrap(), table);
    }

    #[test]
    fn from_parts_validates() {
        let good = vec![(1u32, vec![5u64, 9]), (3, vec![4, 7])];
        assert!(CostColumns::from_parts(4, good.clone()).is_some());
        // First break must be width 1.
        assert!(CostColumns::from_parts(4, vec![(2, vec![5, 9])]).is_none());
        // Widths must strictly increase and stay inside max_width.
        let dup = vec![(1u32, vec![5u64]), (1, vec![4])];
        assert!(CostColumns::from_parts(4, dup).is_none());
        assert!(CostColumns::from_parts(2, good.clone()).is_none());
        // Ragged columns are rejected.
        let ragged = vec![(1u32, vec![5u64, 9]), (3, vec![4])];
        assert!(CostColumns::from_parts(4, ragged).is_none());
        // Empty input is rejected.
        assert!(CostColumns::from_parts(4, Vec::new()).is_none());
        assert!(CostColumns::from_parts(4, vec![(1, Vec::new())]).is_none());
    }
}
