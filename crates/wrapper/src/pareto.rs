//! Pareto-optimal TAM width analysis.
//!
//! A core's testing time `T(w)` is a non-increasing staircase of the TAM
//! width `w`: beyond certain widths, extra wires are *idle* and buy no
//! time. The paper's key observation (Section 1) is that multiple TAMs
//! of different widths let more cores sit at a Pareto point of their own
//! staircase, wasting fewer wires — this module exposes that staircase.
//!
//! It also exposes the *bottleneck lower bound*: the SOC testing time can
//! never drop below the fastest possible time of its slowest core, which
//! explains the saturation the paper observes on p31108 (testing time
//! stuck at 544579 cycles for `W ≥ 40`, Tables 11–13).

use tamopt_soc::{Core, Soc};

use crate::{time_row, TimeTable, WrapperError};

/// One step of a core's testing-time staircase: the smallest width
/// achieving a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoPoint {
    /// TAM width of this step (the smallest width with this time).
    pub width: u32,
    /// Core testing time at this width, in clock cycles.
    pub time: u64,
}

/// Computes the Pareto-optimal width/time staircase of `core` for widths
/// `1..=max_width`: each returned point is the smallest width achieving a
/// strictly lower testing time than the previous point.
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `max_width == 0`.
///
/// # Example
///
/// ```
/// use tamopt_soc::Core;
/// use tamopt_wrapper::pareto::pareto_widths;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let core = Core::builder("c").inputs(8).outputs(8).patterns(10).build()?;
/// let steps = pareto_widths(&core, 16)?;
/// assert_eq!(steps.first().map(|p| p.width), Some(1));
/// // Times strictly decrease along the staircase.
/// assert!(steps.windows(2).all(|s| s[0].time > s[1].time));
/// # Ok(())
/// # }
/// ```
pub fn pareto_widths(core: &Core, max_width: u32) -> Result<Vec<ParetoPoint>, WrapperError> {
    let mut points = Vec::new();
    let mut last_time = u64::MAX;
    for (width, &time) in (1..).zip(&time_row(core, max_width)?) {
        if time < last_time {
            points.push(ParetoPoint { width, time });
            last_time = time;
        }
    }
    Ok(points)
}

/// The smallest width at which `core`'s testing time saturates within
/// `1..=max_width` (adding wires beyond it buys nothing in that range).
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `max_width == 0`.
pub fn saturation_width(core: &Core, max_width: u32) -> Result<u32, WrapperError> {
    Ok(pareto_widths(core, max_width)?
        .last()
        .expect("staircase is non-empty")
        .width)
}

/// Lower bound on the SOC testing time for any architecture of total
/// width `total_width`: no core can be tested faster than with all
/// `total_width` wires to itself, and TAMs run in parallel, so
///
/// ```text
/// T_soc ≥ max_cores T_core(total_width)
/// ```
///
/// This is the bound the paper's p31108 hits from `W = 40` on
/// (the 544579-cycle plateau of its Tables 11–13).
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `total_width == 0`.
pub fn bottleneck_lower_bound(soc: &Soc, total_width: u32) -> Result<u64, WrapperError> {
    Ok(bottleneck_core(soc, total_width)?.1)
}

/// Index and saturated testing time of the SOC's *bottleneck core*: the
/// core whose best-possible time at `total_width` is largest.
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `total_width == 0`.
pub fn bottleneck_core(soc: &Soc, total_width: u32) -> Result<(usize, u64), WrapperError> {
    if total_width == 0 {
        return Err(WrapperError::ZeroWidth);
    }
    let mut best = (0, 0);
    for (i, core) in soc.iter().enumerate() {
        let t = *time_row(core, total_width)?
            .last()
            .expect("a row has total_width >= 1 entries");
        if t > best.1 {
            best = (i, t);
        }
    }
    Ok(best)
}

/// Counts the idle wires of assigning `core` to a TAM of width `width`:
/// wires beyond the core's smallest width achieving the same time.
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `width == 0`.
pub fn idle_wires(core: &Core, width: u32) -> Result<u32, WrapperError> {
    let row = time_row(core, width)?;
    let target = row[row.len() - 1];
    let first = row
        .iter()
        .position(|&t| t == target)
        .expect("target is in the row");
    Ok(width - 1 - first as u32)
}

/// The per-width bottleneck bound of a precomputed [`TimeTable`], the
/// one definition every table-level bottleneck bound reads. Entry `w`
/// (for `1..=max_width`; entry 0 is unused and holds 0) is
///
/// ```text
/// LB(w) = max_c min_{w' ≤ w} T_c(w')
/// ```
///
/// the time of the slowest core when every core gets its best width of
/// at most `w` wires. No architecture whose TAMs are all at most `w`
/// wide can beat it. The prefix minimum keeps the bound sound even
/// when a row is not monotone (a table given verbatim); on built
/// tables, whose rows never increase, `LB(w) = max_c T_c(w)`. The
/// vector is non-increasing in `w`.
///
/// # Example
///
/// ```
/// use tamopt_wrapper::{pareto::bottleneck_by_width, TimeTable};
///
/// let table = TimeTable::from_matrix(vec![vec![10, 4, 9], vec![5, 5, 5]]);
/// assert_eq!(bottleneck_by_width(&table), vec![0, 10, 5, 5]);
/// ```
pub fn bottleneck_by_width(table: &TimeTable) -> Vec<u64> {
    let mut bound = vec![0u64; table.max_width() as usize + 1];
    for core in 0..table.num_cores() {
        let mut best = u64::MAX;
        for (slot, &time) in bound[1..].iter_mut().zip(table.row(core)) {
            best = best.min(time);
            *slot = (*slot).max(best);
        }
    }
    bound
}

/// Restates [`bottleneck_lower_bound`] on a precomputed [`TimeTable`]
/// whose `max_width` is the SOC total width: [`bottleneck_by_width`] at
/// the table's full width.
pub fn bottleneck_from_table(table: &TimeTable) -> u64 {
    bottleneck_at_width(table, table.max_width())
}

/// [`bottleneck_lower_bound`] at an *intermediate* width of a precomputed
/// [`TimeTable`] — the per-width bound column of a frontier sweep, read
/// from [`bottleneck_by_width`] without re-designing any wrapper.
///
/// # Panics
///
/// Panics if `width` is `0` or greater than the table's
/// [`max_width`](TimeTable::max_width).
pub fn bottleneck_at_width(table: &TimeTable, width: u32) -> u64 {
    assert!(
        width >= 1 && width <= table.max_width(),
        "width {width} out of range"
    );
    bottleneck_by_width(table)[width as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_wrapper;
    use tamopt_soc::benchmarks;

    #[test]
    fn staircase_strictly_decreases() {
        for core in benchmarks::d695().cores() {
            let steps = pareto_widths(core, 64).unwrap();
            assert!(!steps.is_empty());
            assert_eq!(steps[0].width, 1);
            assert!(steps
                .windows(2)
                .all(|s| s[0].time > s[1].time && s[0].width < s[1].width));
        }
    }

    #[test]
    fn saturation_width_reaches_min_time() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 64).unwrap();
        for (i, core) in soc.iter().enumerate() {
            let sat = saturation_width(core, 64).unwrap();
            assert_eq!(
                design_wrapper(core, sat).unwrap().test_time(),
                table.min_time(i)
            );
        }
    }

    #[test]
    fn bottleneck_bound_matches_table() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 48).unwrap();
        assert_eq!(
            bottleneck_lower_bound(&soc, 48).unwrap(),
            bottleneck_from_table(&table)
        );
    }

    #[test]
    fn per_width_bound_matches_a_fresh_design() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 48).unwrap();
        for w in (8..=48).step_by(8) {
            assert_eq!(
                bottleneck_at_width(&table, w),
                bottleneck_lower_bound(&soc, w).unwrap(),
                "W={w}"
            );
        }
        assert_eq!(
            bottleneck_at_width(&table, 48),
            bottleneck_from_table(&table)
        );
    }

    #[test]
    fn per_width_bound_is_the_prefix_min_column_max() {
        let soc = benchmarks::p93791();
        let table = TimeTable::new(&soc, 64).unwrap();
        let lb = bottleneck_by_width(&table);
        assert_eq!(lb.len(), 65);
        assert_eq!(lb[0], 0);
        // Built rows never increase, so the prefix min is the column.
        for w in 1..=64u32 {
            let column = (0..table.num_cores())
                .map(|c| table.time(c, w))
                .max()
                .unwrap();
            assert_eq!(lb[w as usize], column, "W={w}");
        }
        assert!(lb[1..].windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn per_width_bound_takes_the_prefix_min_of_non_monotone_rows() {
        // Core 0 is fastest at width 2 (4 cycles) and slower at width 3
        // (9). With TAMs of at most 3 wires it can still take 4 cycles,
        // so the bound at 3 must not read column 3.
        let table = TimeTable::from_matrix(vec![vec![10, 4, 9], vec![5, 5, 5]]);
        assert_eq!(bottleneck_by_width(&table), vec![0, 10, 5, 5]);
        assert_eq!(bottleneck_at_width(&table, 3), 5);
        assert_eq!(bottleneck_from_table(&table), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn per_width_bound_rejects_width_zero() {
        let table = TimeTable::from_matrix(vec![vec![3, 2]]);
        let _ = bottleneck_at_width(&table, 0);
    }

    #[test]
    fn bottleneck_core_is_argmax() {
        let soc = benchmarks::p31108();
        let (idx, t) = bottleneck_core(&soc, 64).unwrap();
        assert_eq!(t, bottleneck_lower_bound(&soc, 64).unwrap());
        assert!(idx < soc.num_cores());
    }

    #[test]
    fn p31108_has_a_hard_bottleneck() {
        // The stand-in reproduces the paper's plateau phenomenon: the
        // bottleneck bound stops improving well before W = 64.
        let soc = benchmarks::p31108();
        let b40 = bottleneck_lower_bound(&soc, 40).unwrap();
        let b64 = bottleneck_lower_bound(&soc, 64).unwrap();
        assert!(b64 > 0);
        let gap = (b40 - b64) as f64 / b64 as f64;
        assert!(gap < 0.25, "bound still falling steeply: {b40} -> {b64}");
    }

    #[test]
    fn idle_wires_zero_at_pareto_points() {
        let core = &benchmarks::d695().cores()[3].clone();
        for p in pareto_widths(core, 32).unwrap() {
            assert_eq!(idle_wires(core, p.width).unwrap(), 0, "width {}", p.width);
        }
    }

    #[test]
    fn idle_wires_positive_off_pareto() {
        // A 2-terminal memory core wastes every wire beyond 2.
        let core = tamopt_soc::Core::builder("m")
            .inputs(2)
            .outputs(2)
            .patterns(5)
            .build()
            .unwrap();
        assert_eq!(idle_wires(&core, 8).unwrap(), 6);
    }

    #[test]
    fn zero_width_errors() {
        let soc = benchmarks::d695();
        let core = &soc.cores()[0];
        assert!(pareto_widths(core, 0).is_err());
        assert!(saturation_width(core, 0).is_err());
        assert!(bottleneck_lower_bound(&soc, 0).is_err());
        assert!(bottleneck_core(&soc, 0).is_err());
        assert!(idle_wires(core, 0).is_err());
    }
}
