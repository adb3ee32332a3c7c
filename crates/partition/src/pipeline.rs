//! The two-step co-optimization methodology of the paper.
//!
//! Step 1 runs [`crate::partition_evaluate`] to pick a TAM partition
//! quickly; step 2 re-optimizes the core assignment on that single
//! partition *exactly* (Section 3.2 — the paper uses its ILP model once,
//! warm-started). The combination reaches near-optimal architectures at
//! a small fraction of the exhaustive baseline's cost.
//!
//! The paper documents an *anomaly* of this scheme: because step 1 ranks
//! partitions by heuristic testing time, the partition it hands to
//! step 2 is not always the one that would win after exact optimization
//! (its p21241, `W = 16` discussion). [`CoOptimization`] therefore keeps
//! both the heuristic and the optimized results visible.

use std::time::{Duration, Instant};

use tamopt_assign::exact::ExactConfig;
use tamopt_assign::{exact, AssignResult, CoreAssignOptions, CostMatrix, TamSet};
use tamopt_engine::{search_ranges, ParallelConfig, SearchBudget, SharedIncumbent};
use tamopt_wrapper::TimeTable;

use crate::evaluate::{partition_evaluate_top_k, EvaluateConfig, PruneStats, RankedPartition};
use crate::PartitionError;

/// Which exact solver performs the final optimization step.
#[derive(Debug, Clone)]
pub enum FinalStep {
    /// Skip the final step (pure heuristic — ablation mode).
    None,
    /// Specialized branch-and-bound (default).
    BranchBound(ExactConfig),
}

impl Default for FinalStep {
    fn default() -> Self {
        FinalStep::BranchBound(ExactConfig::default())
    }
}

/// Configuration of [`co_optimize`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Smallest TAM count to consider (≥ 1).
    pub min_tams: u32,
    /// Largest TAM count to consider (inclusive).
    pub max_tams: u32,
    /// `Core_assign` tie-break switches for step 1.
    pub options: CoreAssignOptions,
    /// `τ`-pruning in step 1 (ablation switch).
    pub prune: bool,
    /// The final optimization step.
    pub final_step: FinalStep,
    /// Budget for the *whole* pipeline: step 1 enumerates under it and
    /// step 2's solver budget is intersected with it, so one deadline
    /// bounds both steps end to end.
    pub budget: SearchBudget,
    /// Thread count and chunk geometry for step 1's parallel scan.
    pub parallel: ParallelConfig,
    /// Warm-start seed for step 1's `τ` bound — an SOC testing time
    /// known to be achievable for this SOC (see
    /// [`EvaluateConfig::seed_tau`](crate::EvaluateConfig)). Same
    /// winner, strictly fewer completed evaluations; unreachable seeds
    /// fall back to a cold rescan automatically.
    pub seed_tau: Option<u64>,
}

impl PipelineConfig {
    /// Full *P_NPAW* over 1..=`max_tams` TAMs with default settings.
    pub fn up_to_tams(max_tams: u32) -> Self {
        PipelineConfig {
            min_tams: 1,
            max_tams,
            options: CoreAssignOptions::default(),
            prune: true,
            final_step: FinalStep::default(),
            budget: SearchBudget::unlimited(),
            parallel: ParallelConfig::default(),
            seed_tau: None,
        }
    }

    /// *P_PAW* at exactly `tams` TAMs with default settings.
    pub fn exact_tams(tams: u32) -> Self {
        PipelineConfig {
            min_tams: tams,
            max_tams: tams,
            ..Self::up_to_tams(tams)
        }
    }
}

/// Result of the two-step pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoOptimization {
    /// The TAM partition selected by step 1.
    pub tams: TamSet,
    /// Step-1 heuristic assignment on that partition.
    pub heuristic: AssignResult,
    /// Step-2 exactly optimized assignment (equals `heuristic` when the
    /// final step is [`FinalStep::None`]).
    pub optimized: AssignResult,
    /// Whether step 2 proved its assignment optimal for the partition.
    pub final_step_optimal: bool,
    /// Whether step 1 scanned the whole partition space (`false` when
    /// the budget truncated it; the result is then partial but valid).
    pub evaluate_complete: bool,
    /// Pruning statistics of step 1.
    pub stats: PruneStats,
    /// Wall-clock time of step 1 (`Partition_evaluate`).
    pub evaluate_time: Duration,
    /// Wall-clock time of step 2 (the exact re-optimization).
    pub final_time: Duration,
}

impl CoOptimization {
    /// SOC testing time of the final architecture, in clock cycles.
    pub fn soc_time(&self) -> u64 {
        self.optimized.soc_time()
    }

    /// Total wall-clock time of both steps.
    pub fn total_time(&self) -> Duration {
        self.evaluate_time + self.final_time
    }
}

/// Runs the full wrapper/TAM co-optimization (problems *P_PAW* /
/// *P_NPAW* depending on the configured TAM range).
///
/// # Errors
///
/// The validation errors of [`partition_evaluate`], plus
/// [`PartitionError::Assign`] if the final exact step fails.
///
/// # Example
///
/// ```
/// use tamopt_partition::pipeline::{co_optimize, PipelineConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = TimeTable::new(&benchmarks::d695(), 32)?;
/// let co = co_optimize(&table, 32, &PipelineConfig::up_to_tams(4))?;
/// assert!(co.soc_time() <= co.heuristic.soc_time());
/// # Ok(())
/// # }
/// ```
pub fn co_optimize(
    table: &TimeTable,
    total_width: u32,
    config: &PipelineConfig,
) -> Result<CoOptimization, PartitionError> {
    let ranked = co_optimize_top_k(table, total_width, config, 1)?;
    Ok(ranked
        .entries
        .into_iter()
        .next()
        .expect("a k=1 pipeline yields exactly one entry"))
}

/// Result of [`co_optimize_top_k`]: the `k` best architectures, each
/// fully re-optimized by step 2.
///
/// Entries are ranked by **optimized** SOC time (ties keep the step-1
/// scan order, i.e. partition-index order). Because step 1 ranks by
/// *heuristic* time, step 2 can legitimately reorder — this is the
/// paper's anomaly (its p21241, `W = 16` discussion) made visible: with
/// `k > 1` the architecture the single-winner pipeline would have missed
/// is right there in the ranking.
///
/// The step-1 scan is shared by all entries, so every entry carries the
/// same [`CoOptimization::stats`], `evaluate_complete` and
/// `evaluate_time`; `final_time` and the optimized assignment are per
/// entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedCoOptimization {
    /// Up to `k` architectures, best first by optimized SOC time.
    pub entries: Vec<CoOptimization>,
}

impl RankedCoOptimization {
    /// The best architecture of the ranking.
    pub fn best(&self) -> &CoOptimization {
        self.entries.first().expect("ranking is never empty")
    }
}

/// Runs the two-step pipeline keeping the `k` best architectures: step 1
/// is one shared [`partition_evaluate_top_k`] scan, step 2 re-optimizes
/// *each* of the `k` ranked partitions exactly. With `k = 1` this is
/// exactly [`co_optimize`] (that function is a wrapper over this one).
///
/// # Errors
///
/// Same as [`co_optimize`].
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn co_optimize_top_k(
    table: &TimeTable,
    total_width: u32,
    config: &PipelineConfig,
    k: usize,
) -> Result<RankedCoOptimization, PartitionError> {
    let eval_config = EvaluateConfig {
        min_tams: config.min_tams,
        max_tams: config.max_tams,
        options: config.options,
        prune: config.prune,
        budget: config.budget.clone(),
        parallel: config.parallel.clone(),
        seed_tau: config.seed_tau,
    };
    let eval_start = Instant::now();
    let ranked = partition_evaluate_top_k(table, total_width, &eval_config, k)?;
    let evaluate_time = eval_start.elapsed();

    // The pipeline-level node budget counts step-1 partitions; only the
    // deadline and cancellation carry into the step-2 solver, whose
    // nodes are a different unit.
    let step2_budget = config.budget.clone().without_node_budget();
    let mut entries = Vec::with_capacity(ranked.entries.len());
    for RankedPartition { tams, result } in ranked.entries {
        let final_start = Instant::now();
        let costs = CostMatrix::from_table(table, &tams)?;
        let (optimized, final_step_optimal) =
            run_final_step(&costs, &config.final_step, &step2_budget, &result)?;
        let final_time = final_start.elapsed();

        // The exact step can only improve (it is seeded with a heuristic
        // at least as good as step 1's assignment on this partition).
        let optimized = if optimized.soc_time() <= result.soc_time() {
            optimized
        } else {
            result.clone()
        };

        entries.push(CoOptimization {
            tams,
            heuristic: result,
            optimized,
            final_step_optimal,
            evaluate_complete: ranked.complete,
            stats: ranked.stats,
            evaluate_time,
            final_time,
        });
    }
    // Stable sort: equal optimized times keep their step-1 rank, whose
    // tie-break (partition index) is already deterministic.
    entries.sort_by_key(|co| co.soc_time());
    Ok(RankedCoOptimization { entries })
}

/// Result of [`co_optimize_frontier`]: one fully co-optimized
/// architecture per swept width, in ascending width order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierResult {
    /// `(total_width, architecture)` per swept width, width-ascending.
    pub points: Vec<(u32, CoOptimization)>,
    /// Whether every width was swept *and* every per-width scan covered
    /// its whole partition space. A budget deadline truncates the sweep
    /// to a valid prefix of widths (the last point of which may itself
    /// be a partial scan).
    pub complete: bool,
}

/// Sweeps the two-step pipeline across several total TAM widths over one
/// shared [`TimeTable`] — the paper's design-space exploration (its
/// Pareto plots of testing time versus TAM width) as a single engine
/// query.
///
/// Widths are deduplicated and swept in ascending order, one width per
/// engine chunk; `sweep_parallel` controls how many widths run
/// concurrently while each width's own partition scan stays
/// single-threaded (the parallelism budget is spent across the sweep,
/// not inside it). A width's scan is warm-started (`seed_tau`) with the
/// best heuristic SOC time merged from *narrower* widths — achievable
/// there, hence achievable at any wider budget (testing time is
/// non-increasing in width) — which cannot change any winner. Seeds only
/// tighten at generation barriers, on the driver thread, so the swept
/// results are bit-identical for every `sweep_parallel.threads`, and
/// identical to independent [`co_optimize`] calls per width.
///
/// `config.seed_tau` is ignored (the sweep manages it internally — to
/// warm-start a sweep from *outside*
/// knowledge, e.g. a service-layer incumbent cache, use
/// [`co_optimize_frontier_seeded`]); `config.parallel.threads` is
/// forced to 1 for the inner scans. The pipeline budget's deadline and
/// cancellation bound the whole sweep; its node budget applies per
/// width.
///
/// # Errors
///
/// The validation errors of [`co_optimize`] for any swept width (e.g.
/// [`PartitionError::TableTooNarrow`] when a width exceeds the table's
/// [`TimeTable::max_width`]).
pub fn co_optimize_frontier(
    table: &TimeTable,
    widths: &[u32],
    config: &PipelineConfig,
    sweep_parallel: &ParallelConfig,
) -> Result<FrontierResult, PartitionError> {
    co_optimize_frontier_seeded(table, widths, config, sweep_parallel, &[])
}

/// [`co_optimize_frontier`] warm-started from external knowledge:
/// `external_seeds` is a set of `(width, soc_time)` pairs, each an SOC
/// testing time known to be **achievable at its width** (e.g. cached
/// incumbents from earlier requests on the same SOC). Because testing
/// time is non-increasing in width, a pair seeds the `τ` bound of every
/// swept width ≥ its own — so a top-K answer at `(SOC, W)` accelerates a
/// later frontier over widths `≥ W` without touching any winner
/// (unreachable seeds fall back to a cold rescan inside the scan, see
/// [`EvaluateConfig::seed_tau`](crate::EvaluateConfig)).
///
/// External seeds combine with the sweep's own narrower-width merging:
/// each width's scan is seeded with the minimum of both sources, as it
/// stood at the last generation barrier — bit-identical results for
/// every `sweep_parallel.threads` value, with or without seeds.
///
/// # Errors
///
/// Same as [`co_optimize_frontier`].
pub fn co_optimize_frontier_seeded(
    table: &TimeTable,
    widths: &[u32],
    config: &PipelineConfig,
    sweep_parallel: &ParallelConfig,
    external_seeds: &[(u32, u64)],
) -> Result<FrontierResult, PartitionError> {
    let mut widths = widths.to_vec();
    widths.sort_unstable();
    widths.dedup();
    if widths.is_empty() {
        return Ok(FrontierResult {
            points: Vec::new(),
            complete: true,
        });
    }

    let inner = PipelineConfig {
        parallel: ParallelConfig {
            threads: 1,
            ..config.parallel.clone()
        },
        ..config.clone()
    };
    // One width per chunk: chunks merge in index order, so `points`
    // arrives width-ascending regardless of sweep thread count.
    let sweep = ParallelConfig {
        chunk_size: 1,
        ..sweep_parallel.clone()
    };
    // Deadline/cancellation bound the sweep; the node budget is a
    // per-scan unit and carries into the widths via `inner.budget`.
    let sweep_budget = config.budget.clone().without_node_budget();

    // Best heuristic SOC time merged so far. `merge` tightens it between
    // generations and `eval` only reads it, so every width of generation
    // `g` sees exactly the widths merged in generations `< g`:
    // deterministic in the sweep thread count.
    let seed = SharedIncumbent::unbounded();
    let mut points: Vec<(u32, CoOptimization)> = Vec::with_capacity(widths.len());

    let status = search_ranges(
        widths.len() as u64,
        &sweep,
        &sweep_budget,
        || (),
        |(), range| {
            let width = widths[range.start as usize];
            // An external pair seeds every width ≥ its own; the
            // tightest applicable bound wins.
            let external = external_seeds
                .iter()
                .filter(|(ew, _)| *ew <= width)
                .map(|(_, t)| *t)
                .min();
            let tau = match (seed.bound(), external) {
                (Some(m), Some(e)) => Some(m.min(e)),
                (m, e) => m.or(e),
            };
            let cfg = PipelineConfig {
                seed_tau: tau,
                ..inner.clone()
            };
            co_optimize(table, width, &cfg).map(|co| (width, co))
        },
        |(width, co)| {
            seed.tighten(co.heuristic.soc_time());
            points.push((width, co));
            Ok(())
        },
    )?;

    debug_assert!(points.windows(2).all(|p| p[0].0 < p[1].0));
    let complete = status.is_complete() && points.iter().all(|(_, co)| co.evaluate_complete);
    Ok(FrontierResult { points, complete })
}

fn run_final_step(
    costs: &CostMatrix,
    final_step: &FinalStep,
    step2_budget: &SearchBudget,
    heuristic: &AssignResult,
) -> Result<(AssignResult, bool), PartitionError> {
    match final_step {
        FinalStep::None => Ok((heuristic.clone(), false)),
        FinalStep::BranchBound(cfg) => {
            let cfg = ExactConfig {
                budget: cfg.budget.intersect(step2_budget),
                ..cfg.clone()
            };
            let sol = exact::solve(costs, &cfg)?;
            Ok((sol.result, sol.proven_optimal))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::{self, ExhaustiveConfig};
    use tamopt_soc::benchmarks;

    fn d695_table(width: u32) -> TimeTable {
        TimeTable::new(&benchmarks::d695(), width).unwrap()
    }

    #[test]
    fn final_step_never_hurts() {
        let table = d695_table(32);
        for b in 1..=4 {
            let co = co_optimize(&table, 32, &PipelineConfig::exact_tams(b)).unwrap();
            assert!(co.optimized.soc_time() <= co.heuristic.soc_time(), "B={b}");
        }
    }

    #[test]
    fn near_optimal_versus_exhaustive() {
        // The paper reports the two-step method within a few percent of
        // exhaustive on d695; allow 25 % slack for the reconstruction.
        let table = d695_table(24);
        for b in 2..=3 {
            let co = co_optimize(&table, 24, &PipelineConfig::exact_tams(b)).unwrap();
            let ex = exhaustive::solve(&table, 24, &ExhaustiveConfig::exact_tams(b)).unwrap();
            let gap = co.soc_time() as f64 / ex.result.soc_time() as f64;
            assert!(gap >= 1.0 - 1e-12, "co-optimization beat a proven optimum");
            assert!(gap < 1.25, "B={b}: gap {gap} too large");
        }
    }

    #[test]
    fn skipping_final_step_returns_heuristic() {
        let table = d695_table(16);
        let cfg = PipelineConfig {
            final_step: FinalStep::None,
            ..PipelineConfig::exact_tams(2)
        };
        let co = co_optimize(&table, 16, &cfg).unwrap();
        assert_eq!(co.heuristic, co.optimized);
        assert!(!co.final_step_optimal);
        assert_eq!(co.final_time, co.total_time() - co.evaluate_time);
    }

    #[test]
    fn warm_start_seed_keeps_the_architecture_with_fewer_completions() {
        let table = d695_table(32);
        let cold = co_optimize(&table, 32, &PipelineConfig::up_to_tams(4)).unwrap();
        let seeded = co_optimize(
            &table,
            32,
            &PipelineConfig {
                seed_tau: Some(cold.heuristic.soc_time()),
                ..PipelineConfig::up_to_tams(4)
            },
        )
        .unwrap();
        assert_eq!(seeded.tams, cold.tams);
        assert_eq!(seeded.optimized, cold.optimized);
        assert_eq!(seeded.heuristic, cold.heuristic);
        assert!(seeded.stats.completed < cold.stats.completed);
    }

    #[test]
    fn top_k_pipeline_ranks_by_optimized_time() {
        let table = d695_table(32);
        let ranked = co_optimize_top_k(&table, 32, &PipelineConfig::up_to_tams(4), 4).unwrap();
        assert_eq!(ranked.entries.len(), 4);
        assert!(ranked
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        for co in &ranked.entries {
            assert!(co.optimized.soc_time() <= co.heuristic.soc_time());
            // The shared step-1 scan is replicated on every entry.
            assert_eq!(co.stats, ranked.entries[0].stats);
            assert_eq!(co.evaluate_time, ranked.entries[0].evaluate_time);
        }
        assert_eq!(ranked.best().soc_time(), ranked.entries[0].soc_time());
    }

    #[test]
    fn top_1_pipeline_is_co_optimize() {
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(4);
        let single = co_optimize(&table, 32, &config).unwrap();
        let ranked = co_optimize_top_k(&table, 32, &config, 1).unwrap();
        assert_eq!(ranked.entries.len(), 1);
        let entry = &ranked.entries[0];
        // Wall-clock fields aside, the k=1 entry is the single result.
        assert_eq!(entry.tams, single.tams);
        assert_eq!(entry.heuristic, single.heuristic);
        assert_eq!(entry.optimized, single.optimized);
        assert_eq!(entry.final_step_optimal, single.final_step_optimal);
        assert_eq!(entry.evaluate_complete, single.evaluate_complete);
        assert_eq!(entry.stats, single.stats);
    }

    #[test]
    fn top_k_rank_1_can_only_improve_on_the_single_winner() {
        // Step 2 re-optimizes k candidate partitions instead of one, so
        // the ranked best is at least as good as the k=1 pipeline (the
        // paper's anomaly: the heuristic's winner is not always the
        // exact winner).
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(4);
        let single = co_optimize(&table, 32, &config).unwrap();
        let ranked = co_optimize_top_k(&table, 32, &config, 5).unwrap();
        assert!(ranked.best().soc_time() <= single.soc_time());
    }

    #[test]
    fn frontier_matches_independent_point_queries() {
        // Memo and seed sharing may only change *work done*, never
        // winners: every frontier point equals its standalone pipeline.
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(4);
        let widths: Vec<u32> = (16..=32).step_by(8).collect();
        let frontier =
            co_optimize_frontier(&table, &widths, &config, &ParallelConfig::default()).unwrap();
        assert!(frontier.complete);
        assert_eq!(frontier.points.len(), widths.len());
        for ((w, co), expected_w) in frontier.points.iter().zip(&widths) {
            assert_eq!(w, expected_w);
            let solo = co_optimize(&table, *w, &config).unwrap();
            assert_eq!(co.tams, solo.tams, "W={w}");
            assert_eq!(co.heuristic, solo.heuristic, "W={w}");
            assert_eq!(co.optimized, solo.optimized, "W={w}");
        }
    }

    #[test]
    fn frontier_is_sweep_thread_count_invariant() {
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(4);
        let widths = [16, 24, 32];
        let sweep = |threads| {
            co_optimize_frontier(
                &table,
                &widths,
                &config,
                &ParallelConfig {
                    threads,
                    ..ParallelConfig::default()
                },
            )
            .unwrap()
        };
        let single = sweep(1);
        for threads in [2, 8] {
            let multi = sweep(threads);
            assert_eq!(multi.complete, single.complete);
            assert_eq!(multi.points.len(), single.points.len());
            for ((wm, m), (ws, s)) in multi.points.iter().zip(&single.points) {
                assert_eq!(wm, ws);
                // Wall clocks aside, every field must be bit-identical —
                // including PruneStats, i.e. the warm-start seed each
                // width received is thread-count independent.
                assert_eq!(m.tams, s.tams, "threads={threads} W={wm}");
                assert_eq!(m.heuristic, s.heuristic);
                assert_eq!(m.optimized, s.optimized);
                assert_eq!(m.stats, s.stats, "threads={threads} W={wm}");
                assert_eq!(m.evaluate_complete, s.evaluate_complete);
                assert_eq!(m.final_step_optimal, s.final_step_optimal);
            }
        }
    }

    #[test]
    fn external_seeds_keep_frontier_winners_with_fewer_completions() {
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(4);
        let widths = [16, 24, 32];
        let cold =
            co_optimize_frontier(&table, &widths, &config, &ParallelConfig::default()).unwrap();
        // Seed with the narrowest width's own incumbent: achievable at
        // 16, so it applies to every swept width — including 16 itself,
        // which the unseeded sweep runs cold.
        let seed_time = cold.points[0].1.heuristic.soc_time();
        let seeded = co_optimize_frontier_seeded(
            &table,
            &widths,
            &config,
            &ParallelConfig::default(),
            &[(16, seed_time)],
        )
        .unwrap();
        assert_eq!(seeded.points.len(), cold.points.len());
        for ((w, s), (_, c)) in seeded.points.iter().zip(&cold.points) {
            assert_eq!(s.tams, c.tams, "W={w}");
            assert_eq!(s.heuristic, c.heuristic, "W={w}");
            assert_eq!(s.optimized, c.optimized, "W={w}");
            assert!(s.stats.completed <= c.stats.completed, "W={w}");
        }
        assert!(
            seeded.points[0].1.stats.completed < cold.points[0].1.stats.completed,
            "the external seed must save completed evaluations at the width it covers"
        );
    }

    #[test]
    fn external_seeds_never_apply_below_their_own_width() {
        // A time achieved at width 24 says nothing about width 16 —
        // the narrower scan must run exactly as if unseeded.
        let table = d695_table(24);
        let config = PipelineConfig::up_to_tams(3);
        let widths = [16, 24];
        let cold =
            co_optimize_frontier(&table, &widths, &config, &ParallelConfig::default()).unwrap();
        let t24 = cold.points[1].1.heuristic.soc_time();
        let seeded = co_optimize_frontier_seeded(
            &table,
            &widths,
            &config,
            &ParallelConfig::default(),
            &[(24, t24)],
        )
        .unwrap();
        assert_eq!(seeded.points[0].1.stats, cold.points[0].1.stats);
        assert_eq!(seeded.points[0].1.optimized, cold.points[0].1.optimized);
    }

    #[test]
    fn frontier_widths_are_sorted_and_deduplicated() {
        let table = d695_table(32);
        let config = PipelineConfig::up_to_tams(3);
        let frontier = co_optimize_frontier(
            &table,
            &[32, 16, 32, 24, 16],
            &config,
            &ParallelConfig::default(),
        )
        .unwrap();
        let swept: Vec<u32> = frontier.points.iter().map(|(w, _)| *w).collect();
        assert_eq!(swept, vec![16, 24, 32]);
        // Wider never tests slower — the frontier is monotone.
        assert!(frontier
            .points
            .windows(2)
            .all(|p| p[1].1.soc_time() <= p[0].1.soc_time()));
    }

    #[test]
    fn frontier_of_no_widths_is_empty_and_complete() {
        let table = d695_table(16);
        let frontier = co_optimize_frontier(
            &table,
            &[],
            &PipelineConfig::up_to_tams(2),
            &ParallelConfig::default(),
        )
        .unwrap();
        assert!(frontier.points.is_empty());
        assert!(frontier.complete);
    }

    #[test]
    fn frontier_rejects_widths_beyond_the_table() {
        let table = d695_table(16);
        assert_eq!(
            co_optimize_frontier(
                &table,
                &[16, 24],
                &PipelineConfig::up_to_tams(2),
                &ParallelConfig::default(),
            )
            .unwrap_err(),
            PartitionError::TableTooNarrow {
                required: 24,
                max_width: 16
            }
        );
    }

    #[test]
    fn frontier_deadline_truncates_to_a_width_prefix() {
        let table = d695_table(48);
        let config = PipelineConfig {
            budget: SearchBudget::time_limited(Duration::ZERO),
            ..PipelineConfig::up_to_tams(4)
        };
        let frontier = co_optimize_frontier(
            &table,
            &[16, 24, 32, 40, 48],
            &config,
            &ParallelConfig::default(),
        )
        .unwrap();
        assert!(!frontier.complete);
        // An expired deadline still yields the first sweep generation
        // (one width), whose own scan is likewise truncated but valid.
        assert_eq!(frontier.points.len(), 1);
        let (w, co) = &frontier.points[0];
        assert_eq!(*w, 16);
        assert!(!co.evaluate_complete);
        assert_eq!(co.tams.total_width(), 16);
    }

    #[test]
    fn validation_errors_propagate() {
        let table = d695_table(8);
        assert_eq!(
            co_optimize(&table, 0, &PipelineConfig::up_to_tams(2)).unwrap_err(),
            PartitionError::ZeroWidth
        );
    }

    #[test]
    fn tiny_budget_returns_partial_but_valid_result() {
        // Unbounded, d695 at W=48 enumerates thousands of partitions; an
        // expired budget must stop step 1 after its first generation and
        // still hand a valid architecture to step 2.
        let table = d695_table(48);
        let cfg = PipelineConfig {
            budget: SearchBudget::time_limited(Duration::ZERO),
            ..PipelineConfig::up_to_tams(6)
        };
        let co = co_optimize(&table, 48, &cfg).unwrap();
        assert!(!co.evaluate_complete, "step 1 must be budget-truncated");
        assert_eq!(
            co.stats.enumerated, cfg.parallel.chunk_size as u64,
            "exactly the first generation was scanned"
        );
        assert_eq!(
            co.stats.enumerated,
            co.stats.completed + co.stats.aborted,
            "stats invariant holds on truncated runs"
        );
        assert_eq!(co.tams.total_width(), 48, "partial result is valid");
        assert!(co.optimized.soc_time() <= co.heuristic.soc_time());
    }

    #[test]
    fn node_budget_counts_partitions_not_final_step_nodes() {
        // A node budget covering the whole step-1 scan must leave the
        // step-2 exact solver untouched (its nodes are a different
        // unit), so the result matches the unbudgeted run exactly.
        let table = d695_table(16);
        let budgeted = co_optimize(
            &table,
            16,
            &PipelineConfig {
                budget: SearchBudget::node_limited(1_000_000),
                ..PipelineConfig::up_to_tams(2)
            },
        )
        .unwrap();
        let unbudgeted = co_optimize(&table, 16, &PipelineConfig::up_to_tams(2)).unwrap();
        assert!(budgeted.evaluate_complete);
        assert_eq!(budgeted.optimized, unbudgeted.optimized);
        assert_eq!(budgeted.final_step_optimal, unbudgeted.final_step_optimal);
        assert!(budgeted.final_step_optimal);
    }

    #[test]
    fn unbounded_run_reports_complete() {
        let table = d695_table(16);
        let co = co_optimize(&table, 16, &PipelineConfig::up_to_tams(2)).unwrap();
        assert!(co.evaluate_complete);
    }

    #[test]
    fn wider_budget_never_worse() {
        let table = d695_table(48);
        let w24 = co_optimize(&table, 24, &PipelineConfig::up_to_tams(4)).unwrap();
        let w48 = co_optimize(&table, 48, &PipelineConfig::up_to_tams(4)).unwrap();
        assert!(w48.soc_time() <= w24.soc_time());
    }
}
