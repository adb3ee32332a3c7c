use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use tamopt_assign::exact::ExactConfig;
use tamopt_engine::{ParallelConfig, SearchBudget};
use tamopt_partition::exhaustive::{self, ExhaustiveConfig};
use tamopt_partition::pipeline::{
    co_optimize_frontier, co_optimize_top_k, FinalStep, PipelineConfig,
};
use tamopt_partition::{PruneStats, RankedPartition};
use tamopt_soc::Soc;
use tamopt_wrapper::{pareto, TimeTable};

use crate::{Architecture, FrontierPoint, ParetoFrontier, RankedArchitectures, TamOptError};

/// Solution strategy of the [`CoOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's methodology: `Partition_evaluate` + one exact
    /// re-optimization of the assignment (branch-and-bound). Default.
    #[default]
    TwoStep,
    /// Heuristic only — skip the final exact step.
    Heuristic,
    /// The exhaustive exact baseline of the paper's reference [8]:
    /// solve every unique partition exactly. Slow for many TAMs.
    Exhaustive,
}

/// High-level builder for wrapper/TAM co-optimization.
///
/// Wraps the whole stack — wrapper time tables, partition search, core
/// assignment, final exact step — behind one call.
///
/// # Example
///
/// ```
/// use tamopt::{benchmarks, CoOptimizer, Strategy};
///
/// # fn main() -> Result<(), tamopt::TamOptError> {
/// let soc = benchmarks::d695();
/// let arch = CoOptimizer::new(soc, 24)
///     .max_tams(3)
///     .strategy(Strategy::TwoStep)
///     .run()?;
/// assert!(arch.num_tams() <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoOptimizer {
    soc: Soc,
    total_width: u32,
    min_tams: u32,
    max_tams: u32,
    strategy: Strategy,
    time_limit: Option<Duration>,
    budget: SearchBudget,
    threads: usize,
}

impl CoOptimizer {
    /// Creates an optimizer for `soc` with `total_width` TAM wires.
    ///
    /// Defaults: explore 1 to 10 TAMs (the paper found more than ten
    /// TAMs "less useful for testing time minimization"), two-step
    /// strategy, no time limit.
    pub fn new(soc: Soc, total_width: u32) -> Self {
        CoOptimizer {
            soc,
            total_width,
            min_tams: 1,
            max_tams: 10.min(total_width.max(1)),
            strategy: Strategy::TwoStep,
            time_limit: None,
            budget: SearchBudget::unlimited(),
            threads: 1,
        }
    }

    /// Sets the largest TAM count to consider.
    pub fn max_tams(mut self, max_tams: u32) -> Self {
        self.max_tams = max_tams;
        self
    }

    /// Sets the smallest TAM count to consider (default 1).
    pub fn min_tams(mut self, min_tams: u32) -> Self {
        self.min_tams = min_tams;
        self
    }

    /// Fixes the TAM count (problem *P_PAW*).
    pub fn exact_tams(mut self, tams: u32) -> Self {
        self.min_tams = tams;
        self.max_tams = tams;
        self
    }

    /// Selects the solution [`Strategy`].
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the total wall-clock budget of the optimization — the
    /// partition scan *and* the exact components (final step /
    /// exhaustive per-partition solves) share one deadline, which
    /// starts when [`run`](Self::run) is called.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Bounds the optimization by an existing [`SearchBudget`]
    /// (deadline, node budget and/or cancellation flag). Combined with
    /// [`time_limit`](Self::time_limit) the tighter limit wins.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the worker-thread count for the partition search (`0` = one
    /// per available CPU; default 1). Results are bit-identical for
    /// every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs a whole queue of co-optimization requests on one shared
    /// worker pool — the batch entry point of the service layer
    /// ([`tamopt_service`], re-exported as [`crate::service`]).
    ///
    /// Requests dispatch in priority order under the intersection of
    /// the batch-global budget and each request's own; the report lists
    /// outcomes in submission order and is bit-identical (minus
    /// wall-clock fields) for every
    /// [`BatchConfig::threads`](crate::service::BatchConfig) value.
    /// Per-request failures become
    /// [`RequestStatus::Failed`](crate::service::RequestStatus)
    /// outcomes, never errors. Callers that need per-request
    /// cancellation handles should drive a
    /// [`Batch`](crate::service::Batch) directly.
    ///
    /// # Example
    ///
    /// ```
    /// use tamopt::service::{BatchConfig, Request};
    /// use tamopt::{benchmarks, CoOptimizer};
    ///
    /// let report = CoOptimizer::batch(
    ///     [
    ///         Request::new(benchmarks::d695(), 16).unwrap().max_tams(2),
    ///         Request::new(benchmarks::d695(), 24).unwrap().max_tams(3),
    ///     ],
    ///     &BatchConfig::with_threads(2),
    /// );
    /// assert!(report.complete);
    /// assert!(report.outcomes[0].soc_time().is_some());
    /// ```
    pub fn batch(
        requests: impl IntoIterator<Item = tamopt_service::Request>,
        config: &tamopt_service::BatchConfig,
    ) -> tamopt_service::BatchReport {
        tamopt_service::run_batch(requests, config)
    }

    /// Starts a live serving daemon — the long-running front-end of the
    /// service layer ([`tamopt_service::live`], re-exported as
    /// [`crate::service`]).
    ///
    /// Unlike [`CoOptimizer::batch`], the returned
    /// [`LiveQueue`](crate::service::LiveQueue) accepts
    /// [`submit`](crate::service::LiveQueue::submit) calls *while
    /// requests execute*: the dispatcher re-reads the priority queue at
    /// every generation barrier (so a high-priority submission preempts
    /// queued work), streams outcomes as they complete, and warm-starts
    /// repeat SOCs from a per-queue incumbent cache. Call
    /// [`shutdown`](crate::service::LiveQueue::shutdown) to drain the
    /// backlog and collect the final report. For reproducible runs, see
    /// [`LiveQueue::replay`](crate::service::LiveQueue::replay).
    ///
    /// # Example
    ///
    /// ```
    /// use tamopt::service::{LiveConfig, Request};
    /// use tamopt::{benchmarks, CoOptimizer};
    ///
    /// let queue = CoOptimizer::serve(LiveConfig::default());
    /// queue
    ///     .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
    ///     .unwrap();
    /// let report = queue.shutdown().unwrap();
    /// assert!(report.complete);
    /// ```
    pub fn serve(config: tamopt_service::LiveConfig) -> tamopt_service::LiveQueue {
        tamopt_service::LiveQueue::start(config)
    }

    /// Runs the optimization and assembles the [`Architecture`] — the
    /// *point* query: one `(SOC, W)`, one best architecture. The
    /// [`top_k`](Self::top_k) and [`frontier`](Self::frontier) queries
    /// answer the neighboring questions from the same builder.
    ///
    /// # Errors
    ///
    /// Validation and solver errors of the underlying layers
    /// ([`TamOptError`]).
    pub fn run(&self) -> Result<Architecture, TamOptError> {
        // A rank-1 ranking *is* the point query — same code path, same
        // bits (the partition layer's k=1 scan is the single-incumbent
        // scan).
        let mut ranked = self.top_k(1)?;
        Ok(ranked
            .entries
            .pop()
            .expect("a successful point query yields one architecture"))
    }

    /// Runs the optimization keeping the `k` best architectures — the
    /// *top-K* query.
    ///
    /// One shared partition scan ranks the `k` best partitions (bounded
    /// by the running K-th-best time instead of the single incumbent);
    /// the final exact step then re-optimizes *each* of them, so the
    /// ranking is by final testing time. Fewer than `k` entries are
    /// returned only when the partition space itself is smaller. With
    /// `k = 1` this is [`run`](Self::run) exactly.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use tamopt::{benchmarks, CoOptimizer};
    ///
    /// # fn main() -> Result<(), tamopt::TamOptError> {
    /// let ranked = CoOptimizer::new(benchmarks::d695(), 24)
    ///     .max_tams(3)
    ///     .top_k(4)?;
    /// assert!(ranked.len() <= 4);
    /// assert!(ranked.best().soc_time() <= ranked.entries.last().unwrap().soc_time());
    /// # Ok(())
    /// # }
    /// ```
    pub fn top_k(&self, k: usize) -> Result<RankedArchitectures, TamOptError> {
        // The clock starts here: one deadline bounds, wrapper-table
        // construction aside, every search step end to end.
        let budget = self.effective_budget();
        let table = TimeTable::new(&self.soc, self.total_width.max(1))?;
        match self.strategy {
            Strategy::Exhaustive => self
                .rank_exhaustive(&table, self.total_width, budget, k)
                .map(|(ranked, _proven)| ranked),
            _ => self.rank_pipeline(&table, self.total_width, budget, k),
        }
    }

    /// Sweeps total TAM widths `widths` (inclusive, stride `step`) — the
    /// *frontier* query: the testing-time-versus-width trade-off curve
    /// of the paper's design-space tables from one call.
    ///
    /// The builder's own `total_width` is ignored; one wrapper time
    /// table at the sweep's maximum width serves every point, and the
    /// pipeline strategies share warm-start bounds across widths. Work
    /// sharing never changes a winner: each point is bit-identical to an independent
    /// [`run`](Self::run) at its width, for every thread count.
    ///
    /// # Errors
    ///
    /// [`TamOptError::InvalidFrontier`] when `step == 0`, the range is
    /// empty, or it starts at width 0; otherwise the errors of
    /// [`run`](Self::run).
    ///
    /// # Example
    ///
    /// ```
    /// use tamopt::{benchmarks, CoOptimizer};
    ///
    /// # fn main() -> Result<(), tamopt::TamOptError> {
    /// let frontier = CoOptimizer::new(benchmarks::d695(), 32)
    ///     .max_tams(4)
    ///     .frontier(16..=32, 8)?;
    /// assert_eq!(frontier.len(), 3); // W = 16, 24, 32
    /// print!("{}", frontier.report());
    /// # Ok(())
    /// # }
    /// ```
    pub fn frontier(
        &self,
        widths: RangeInclusive<u32>,
        step: u32,
    ) -> Result<ParetoFrontier, TamOptError> {
        let (lo, hi) = (*widths.start(), *widths.end());
        if step == 0 || lo == 0 || lo > hi {
            return Err(TamOptError::InvalidFrontier {
                min_width: lo,
                max_width: hi,
                step,
            });
        }
        let swept: Vec<u32> = (lo..=hi).step_by(step as usize).collect();
        let budget = self.effective_budget();
        let table = TimeTable::new(&self.soc, hi)?;

        let (entries, complete) = match self.strategy {
            Strategy::Exhaustive => {
                // No cross-width sharing for the exact baseline: one
                // independent exhaustive solve per width.
                let mut entries = Vec::with_capacity(swept.len());
                let mut complete = true;
                for &w in &swept {
                    let (mut ranked, proven) =
                        self.rank_exhaustive(&table, w, budget.clone(), 1)?;
                    complete &= proven;
                    entries.push((w, ranked.entries.pop().expect("rank 1 exists")));
                }
                (entries, complete)
            }
            _ => {
                let config = self.pipeline_config(budget);
                let sweep_parallel = ParallelConfig::with_threads(self.threads);
                let frontier = co_optimize_frontier(&table, &swept, &config, &sweep_parallel)?;
                let complete = frontier.complete;
                let mut entries = Vec::with_capacity(frontier.points.len());
                for (w, co) in frontier.points {
                    entries.push((
                        w,
                        Architecture::assemble(
                            self.soc.clone(),
                            co.tams,
                            co.optimized,
                            co.heuristic.soc_time(),
                            co.stats,
                            co.evaluate_time,
                            co.final_time,
                        )?,
                    ));
                }
                (entries, complete)
            }
        };

        let points = entries
            .into_iter()
            .map(|(width, architecture)| FrontierPoint {
                width,
                architecture,
                lower_bound: pareto::bottleneck_at_width(&table, width),
            })
            .collect();
        Ok(ParetoFrontier { points, complete })
    }

    fn effective_budget(&self) -> SearchBudget {
        let mut budget = self.budget.clone();
        if let Some(limit) = self.time_limit {
            budget = budget.and_time_limit(limit);
        }
        budget
    }

    fn pipeline_config(&self, budget: SearchBudget) -> PipelineConfig {
        let final_step = match self.strategy {
            Strategy::Heuristic => FinalStep::None,
            _ => FinalStep::BranchBound(ExactConfig::default()),
        };
        PipelineConfig {
            min_tams: self.min_tams,
            max_tams: self.max_tams,
            final_step,
            budget,
            parallel: ParallelConfig::with_threads(self.threads),
            ..PipelineConfig::up_to_tams(self.max_tams)
        }
    }

    fn rank_pipeline(
        &self,
        table: &TimeTable,
        total_width: u32,
        budget: SearchBudget,
        k: usize,
    ) -> Result<RankedArchitectures, TamOptError> {
        let config = self.pipeline_config(budget);
        let ranked = co_optimize_top_k(table, total_width, &config, k)?;
        let mut entries = Vec::with_capacity(ranked.entries.len());
        for co in ranked.entries {
            entries.push(Architecture::assemble(
                self.soc.clone(),
                co.tams,
                co.optimized,
                co.heuristic.soc_time(),
                co.stats,
                co.evaluate_time,
                co.final_time,
            )?);
        }
        Ok(RankedArchitectures { entries })
    }

    fn rank_exhaustive(
        &self,
        table: &TimeTable,
        total_width: u32,
        budget: SearchBudget,
        k: usize,
    ) -> Result<(RankedArchitectures, bool), TamOptError> {
        let start = Instant::now();
        let config = ExhaustiveConfig {
            min_tams: self.min_tams,
            max_tams: self.max_tams,
            per_partition: ExactConfig::default(),
            budget,
            parallel: ParallelConfig::with_threads(self.threads),
            ..ExhaustiveConfig::up_to_tams(self.max_tams)
        };
        let ranked = exhaustive::solve_top_k(table, total_width, &config, k)?;
        let elapsed = start.elapsed();
        // Architecture statistics stay in partition units (matching the
        // pipeline strategies): a per-partition solve that hit its limit
        // counts as aborted, not completed.
        let stats = PruneStats {
            enumerated: ranked.partitions_solved,
            completed: ranked.partitions_proven,
            aborted: ranked.partitions_solved - ranked.partitions_proven,
        };
        let mut entries = Vec::with_capacity(ranked.entries.len());
        for RankedPartition { tams, result } in ranked.entries {
            let heuristic_time = result.soc_time();
            entries.push(Architecture::assemble(
                self.soc.clone(),
                tams,
                result,
                heuristic_time,
                stats,
                elapsed,
                Duration::ZERO,
            )?);
        }
        Ok((RankedArchitectures { entries }, ranked.proven_optimal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn defaults_are_sane() {
        let opt = CoOptimizer::new(benchmarks::d695(), 16);
        let arch = opt.run().unwrap();
        assert!(arch.num_tams() >= 1 && arch.num_tams() <= 10);
        assert_eq!(arch.tams.total_width(), 16);
    }

    #[test]
    fn strategies_rank_correctly() {
        let soc = benchmarks::d695();
        let heuristic = CoOptimizer::new(soc.clone(), 24)
            .max_tams(3)
            .strategy(Strategy::Heuristic)
            .run()
            .unwrap();
        let two_step = CoOptimizer::new(soc.clone(), 24)
            .max_tams(3)
            .strategy(Strategy::TwoStep)
            .run()
            .unwrap();
        let exhaustive = CoOptimizer::new(soc, 24)
            .max_tams(3)
            .strategy(Strategy::Exhaustive)
            .run()
            .unwrap();
        assert!(two_step.soc_time() <= heuristic.soc_time());
        assert!(exhaustive.soc_time() <= two_step.soc_time());
    }

    #[test]
    fn exact_tams_pins_the_count() {
        let arch = CoOptimizer::new(benchmarks::d695(), 24)
            .exact_tams(2)
            .run()
            .unwrap();
        assert_eq!(arch.num_tams(), 2);
    }

    #[test]
    fn zero_width_is_an_error() {
        let err = CoOptimizer::new(benchmarks::d695(), 0).run().unwrap_err();
        assert!(matches!(err, TamOptError::Partition(_)));
    }

    #[test]
    fn time_limit_bounds_step_one_end_to_end() {
        // Unbounded, p93791 at W = 64 with up to 10 TAMs enumerates
        // hundreds of thousands of partitions in step 1. A zero time
        // limit must stop after the first generation — well under a
        // second — and still return a valid architecture.
        let start = Instant::now();
        let arch = CoOptimizer::new(benchmarks::p93791(), 64)
            .max_tams(10)
            .time_limit(Duration::ZERO)
            .run()
            .unwrap();
        assert!(
            arch.stats.enumerated <= 64,
            "step 1 must be budget-truncated, enumerated {}",
            arch.stats.enumerated
        );
        assert_eq!(arch.tams.total_width(), 64);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the deadline must bound total runtime"
        );
    }

    #[test]
    fn budget_builder_bounds_the_run() {
        let arch = CoOptimizer::new(benchmarks::d695(), 48)
            .max_tams(6)
            .budget(SearchBudget::node_limited(50))
            .run()
            .unwrap();
        // Whole generations only: 32 + 64 dispatched partitions.
        assert_eq!(arch.stats.enumerated, 96);
        assert_eq!(arch.tams.total_width(), 48);
    }

    #[test]
    fn threads_do_not_change_the_architecture() {
        let reference = CoOptimizer::new(benchmarks::d695(), 32)
            .max_tams(4)
            .run()
            .unwrap();
        for threads in [2, 8] {
            let arch = CoOptimizer::new(benchmarks::d695(), 32)
                .max_tams(4)
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(arch.tams, reference.tams, "threads {threads}");
            assert_eq!(arch.soc_time(), reference.soc_time());
            assert_eq!(arch.stats, reference.stats);
        }
    }

    #[test]
    fn top_1_is_run_bit_identically() {
        for strategy in [Strategy::TwoStep, Strategy::Heuristic, Strategy::Exhaustive] {
            let opt = CoOptimizer::new(benchmarks::d695(), 24)
                .max_tams(3)
                .strategy(strategy);
            let point = opt.run().unwrap();
            let ranked = opt.top_k(1).unwrap();
            assert_eq!(ranked.len(), 1);
            let best = ranked.best();
            assert_eq!(best.tams, point.tams, "{strategy:?}");
            assert_eq!(best.assignment, point.assignment);
            assert_eq!(best.heuristic_time_cycles, point.heuristic_time_cycles);
            assert_eq!(best.stats, point.stats, "{strategy:?}");
        }
    }

    #[test]
    fn top_k_is_sorted_and_beats_nothing_below_rank_1() {
        let opt = CoOptimizer::new(benchmarks::d695(), 32).max_tams(4);
        let ranked = opt.top_k(4).unwrap();
        assert_eq!(ranked.len(), 4);
        assert!(ranked
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        let point = opt.run().unwrap();
        assert!(ranked.best().soc_time() <= point.soc_time());
    }

    #[test]
    fn exhaustive_top_k_brackets_the_two_step_ranking() {
        let soc = benchmarks::d695();
        let exact = CoOptimizer::new(soc.clone(), 24)
            .max_tams(3)
            .strategy(Strategy::Exhaustive)
            .top_k(3)
            .unwrap();
        assert_eq!(exact.len(), 3);
        assert!(exact
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        let two_step = CoOptimizer::new(soc, 24).max_tams(3).top_k(3).unwrap();
        // The exact rank-1 lower-bounds any heuristic pipeline result.
        assert!(exact.best().soc_time() <= two_step.best().soc_time());
    }

    #[test]
    fn frontier_points_match_independent_runs() {
        let opt = CoOptimizer::new(benchmarks::d695(), 32).max_tams(4);
        let frontier = opt.frontier(16..=32, 8).unwrap();
        assert!(frontier.complete);
        let widths: Vec<u32> = frontier.points.iter().map(|p| p.width).collect();
        assert_eq!(widths, vec![16, 24, 32]);
        for p in &frontier.points {
            let solo = CoOptimizer::new(benchmarks::d695(), p.width)
                .max_tams(4)
                .run()
                .unwrap();
            assert_eq!(p.architecture.tams, solo.tams, "W={}", p.width);
            assert_eq!(p.architecture.assignment, solo.assignment);
            assert_eq!(
                p.lower_bound,
                pareto::bottleneck_lower_bound(&benchmarks::d695(), p.width).unwrap()
            );
        }
        // Wider never slower.
        assert!(frontier
            .points
            .windows(2)
            .all(|p| p[1].architecture.soc_time() <= p[0].architecture.soc_time()));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // a reversed sweep is exactly the input under test
    fn frontier_rejects_degenerate_sweeps() {
        let opt = CoOptimizer::new(benchmarks::d695(), 32).max_tams(2);
        for (range, step) in [(16..=32, 0), (32..=16, 8), (0..=16, 8)] {
            assert!(matches!(
                opt.frontier(range, step).unwrap_err(),
                TamOptError::InvalidFrontier { .. }
            ));
        }
    }

    #[test]
    fn exhaustive_frontier_is_exact_per_width() {
        let opt = CoOptimizer::new(benchmarks::d695(), 24)
            .max_tams(2)
            .strategy(Strategy::Exhaustive);
        let frontier = opt.frontier(16..=24, 8).unwrap();
        assert!(frontier.complete);
        for p in &frontier.points {
            let solo = CoOptimizer::new(benchmarks::d695(), p.width)
                .max_tams(2)
                .strategy(Strategy::Exhaustive)
                .run()
                .unwrap();
            assert_eq!(p.architecture.tams, solo.tams);
            assert_eq!(p.architecture.soc_time(), solo.soc_time());
        }
    }
}
