//! Typed query results of the [`CoOptimizer`](crate::CoOptimizer)
//! beyond the single-architecture point query.
//!
//! The paper's methodology answers one question — "the best architecture
//! for (SOC, `W`)" — but two neighboring questions recur in practice and
//! are much cheaper to answer *inside* the search than by repeating it:
//!
//! * **top-K** ([`RankedArchitectures`]): the `K` best architectures of
//!   one scan. Because step 1 ranks by *heuristic* time, re-optimizing
//!   `K` candidates exactly surfaces the paper's anomaly (its p21241,
//!   `W = 16` discussion) instead of silently losing the true winner;
//! * **frontier** ([`ParetoFrontier`]): the testing-time-versus-width
//!   trade-off curve of the paper's Tables 11–13, swept as one query
//!   sharing warm-start bounds across widths.

use std::fmt::Write as _;

use crate::Architecture;

/// The `K` best architectures of one co-optimization query, best first.
///
/// Produced by [`CoOptimizer::top_k`](crate::CoOptimizer::top_k).
/// Entries are ranked by final (optimized) SOC testing time; ties keep
/// the deterministic partition-scan order. With `k = 1` the single entry
/// is bit-identical to [`CoOptimizer::run`](crate::CoOptimizer::run).
#[derive(Debug, Clone)]
pub struct RankedArchitectures {
    /// Up to `k` architectures, best first (fewer when the partition
    /// space itself is smaller than `k`).
    pub entries: Vec<Architecture>,
}

impl RankedArchitectures {
    /// The rank-1 architecture.
    pub fn best(&self) -> &Architecture {
        self.entries.first().expect("ranking is never empty")
    }

    /// Number of ranked architectures (`<= k`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty (never, for a successful query).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A compact rank table in the style of the paper's result tables.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>14}  partition",
            "rank", "TAMs", "time (cycles)"
        );
        for (rank, arch) in self.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4} {:>8} {:>14}  {}",
                rank + 1,
                arch.num_tams(),
                arch.soc_time(),
                arch.tams
            );
        }
        out
    }
}

/// One width of a [`ParetoFrontier`]: the best architecture found at
/// that total TAM width, alongside the bottleneck lower bound there.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Total TAM width of this point.
    pub width: u32,
    /// The co-optimized architecture at this width.
    pub architecture: Architecture,
    /// The bottleneck lower bound at this width: no architecture can
    /// test faster than the slowest core with every wire to itself
    /// ([`pareto::bottleneck_lower_bound`](tamopt_wrapper::pareto)).
    pub lower_bound: u64,
}

impl FrontierPoint {
    /// Whether this point is *pinned*: its testing time equals the
    /// bottleneck bound, so no extra width or TAM count can improve it.
    pub fn at_bound(&self) -> bool {
        self.architecture.soc_time() == self.lower_bound
    }
}

/// The testing-time-versus-width trade-off curve of one SOC — the
/// paper's design-space tables as a single query result.
///
/// Produced by [`CoOptimizer::frontier`](crate::CoOptimizer::frontier).
/// Points are width-ascending and their testing times non-increasing
/// (more width never hurts).
#[derive(Debug, Clone)]
pub struct ParetoFrontier {
    /// One point per swept width, width-ascending.
    pub points: Vec<FrontierPoint>,
    /// Whether every width was swept with a complete partition scan. A
    /// budget deadline truncates the sweep to a valid width prefix.
    pub complete: bool,
}

impl ParetoFrontier {
    /// Number of swept widths.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep produced no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at total width `width`, if it was swept.
    pub fn at_width(&self, width: u32) -> Option<&FrontierPoint> {
        self.points.iter().find(|p| p.width == width)
    }

    /// The smallest swept width whose testing time already sits on the
    /// bottleneck bound — the saturation knee of the paper's Tables
    /// 11–13 (`None` when no swept point is pinned).
    pub fn saturation_width(&self) -> Option<u32> {
        self.points.iter().find(|p| p.at_bound()).map(|p| p.width)
    }

    /// The width/TAMs/time/bound table of the design-space exploration
    /// example, one row per swept width.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>14} {:>14}  note",
            "W", "TAMs", "time (cycles)", "lower bound"
        );
        for p in &self.points {
            let pinned = if p.at_bound() {
                "<- at the bottleneck bound"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>14} {:>14}  {}",
                p.width,
                p.architecture.num_tams(),
                p.architecture.soc_time(),
                p.lower_bound,
                pinned
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{benchmarks, CoOptimizer};

    #[test]
    fn rank_report_lists_every_entry() {
        let ranked = CoOptimizer::new(benchmarks::d695(), 24)
            .max_tams(3)
            .top_k(3)
            .unwrap();
        let report = ranked.report();
        assert!(report.contains("rank"));
        assert_eq!(report.lines().count(), 1 + ranked.len());
    }

    #[test]
    fn frontier_report_is_the_design_space_table() {
        let frontier = CoOptimizer::new(benchmarks::d695(), 32)
            .max_tams(4)
            .frontier(16..=32, 8)
            .unwrap();
        let report = frontier.report();
        assert!(report.contains("lower bound"));
        assert_eq!(report.lines().count(), 1 + frontier.len());
        for p in &frontier.points {
            assert!(p.architecture.soc_time() >= p.lower_bound);
        }
    }
}
