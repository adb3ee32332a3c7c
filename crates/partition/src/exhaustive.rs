//! The exhaustive baseline of the paper's reference [8]: enumerate every
//! unique partition and solve the core assignment on each one *exactly*.
//!
//! This is the method the paper improves on — for industrial SOCs it
//! "did not run to completion for `B = 3` even after two days of
//! execution". Our exact per-partition solver
//! ([`tamopt_assign::exact`]) is far faster than a 2002 ILP code, so the
//! baseline is actually runnable here, but the *relative* gap to
//! [`crate::partition_evaluate`] (two to three orders of magnitude)
//! reproduces the paper's headline claim; see the benches.
//!
//! Like the heuristic scan, the baseline runs on the deterministic
//! chunked executor of [`tamopt_engine`] over partition ranks, each
//! chunk walking its range of the same rank space in place:
//! per-partition exact solves are independent, so chunks parallelize
//! freely, and the winner reduces by partition rank — `threads = N`
//! returns exactly the `threads = 1` result. The unified
//! [`SearchBudget`] bounds the whole enumeration *and* is intersected
//! into every per-partition solve.
//!
//! Per-partition solves are additionally **seeded** from the shared
//! generation-barrier incumbent (see
//! [`ExhaustiveConfig::seed_incumbent`]): the best SOC time merged so
//! far becomes an external bound for every later branch-and-bound, so
//! partitions that cannot beat it are dismissed after a handful of
//! nodes. Because the incumbent only tightens at generation barriers,
//! the seeding is part of the deterministic schedule — results stay
//! bit-identical across thread counts, and identical to the unseeded
//! scan (only the node statistics shrink).

use tamopt_assign::exact::{self, ExactConfig};
use tamopt_assign::{AssignResult, CostMatrix, TamSet};
use tamopt_engine::{search_ranges, ParallelConfig, Ranking, SearchBudget, SharedIncumbent};
use tamopt_wrapper::TimeTable;

use crate::count::RankTable;
use crate::evaluate::{validate, Candidate, PruneStats, RankedPartition};
use crate::PartitionError;

/// Configuration of [`solve`].
#[derive(Debug, Clone)]
pub struct ExhaustiveConfig {
    /// Smallest TAM count to consider (≥ 1).
    pub min_tams: u32,
    /// Largest TAM count to consider (inclusive).
    pub max_tams: u32,
    /// Limits for each per-partition exact solve (its budget is
    /// intersected with the overall `budget`).
    pub per_partition: ExactConfig,
    /// Overall budget; when exhausted, the best architecture found so
    /// far is returned with `proven_optimal = false`.
    pub budget: SearchBudget,
    /// Thread count and chunk geometry of the parallel enumeration.
    pub parallel: ParallelConfig,
    /// Seed each per-partition exact solve with the best SOC time found
    /// by previous generations (and previous partitions of the same
    /// chunk). On by default: it only prunes — the winning architecture
    /// and `proven_optimal` are identical either way, but
    /// [`ExhaustiveResult::stats`] reports fewer enumerated nodes.
    /// Disable for ablation runs that measure the cold baseline.
    pub seed_incumbent: bool,
}

impl ExhaustiveConfig {
    /// Exhaustively solves exactly `tams` TAMs (problem *P_PAW*).
    pub fn exact_tams(tams: u32) -> Self {
        ExhaustiveConfig {
            min_tams: tams,
            max_tams: tams,
            per_partition: ExactConfig::default(),
            budget: SearchBudget::unlimited(),
            parallel: ParallelConfig::default(),
            seed_incumbent: true,
        }
    }

    /// Exhaustively solves every TAM count up to `max_tams`
    /// (problem *P_NPAW*).
    pub fn up_to_tams(max_tams: u32) -> Self {
        ExhaustiveConfig {
            min_tams: 1,
            ..Self::exact_tams(max_tams)
        }
    }
}

/// Result of the exhaustive baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveResult {
    /// The optimal TAM set over the searched range.
    pub tams: TamSet,
    /// The optimal core assignment on it.
    pub result: AssignResult,
    /// Number of partitions solved.
    pub partitions_solved: u64,
    /// How many of those per-partition solves ran to a proof (the rest
    /// hit a node or time limit and returned their incumbent).
    pub partitions_proven: u64,
    /// Branch-and-bound node statistics summed over every per-partition
    /// solve: `enumerated` is the total node count, split into the nodes
    /// spent by solves that ran to a proof (`completed`) and by solves
    /// cut short by a limit (`aborted`). Incumbent seeding
    /// ([`ExhaustiveConfig::seed_incumbent`]) shows up here as a smaller
    /// `enumerated` for the same winning architecture.
    pub stats: PruneStats,
    /// Whether every per-partition solve was proven optimal and the
    /// search was not cut short by the budget.
    pub proven_optimal: bool,
}

/// Runs the exhaustive baseline.
///
/// # Errors
///
/// Same validation errors as [`crate::partition_evaluate`], plus
/// [`PartitionError::Assign`] if a per-partition solve fails.
///
/// # Example
///
/// ```
/// use tamopt_partition::exhaustive::{solve, ExhaustiveConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = TimeTable::new(&benchmarks::d695(), 16)?;
/// let best = solve(&table, 16, &ExhaustiveConfig::exact_tams(2))?;
/// assert!(best.proven_optimal);
/// assert_eq!(best.tams.total_width(), 16);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    table: &TimeTable,
    total_width: u32,
    config: &ExhaustiveConfig,
) -> Result<ExhaustiveResult, PartitionError> {
    let ranked = solve_top_k(table, total_width, config, 1)?;
    let RankedPartition { tams, result } = ranked
        .entries
        .into_iter()
        .next()
        .expect("a k=1 solve with entries yields exactly one");
    Ok(ExhaustiveResult {
        tams,
        result,
        partitions_solved: ranked.partitions_solved,
        partitions_proven: ranked.partitions_proven,
        stats: ranked.stats,
        proven_optimal: ranked.proven_optimal,
    })
}

/// Result of [`solve_top_k`]: the `k` best exactly solved partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedExhaustiveResult {
    /// Up to `k` entries ordered by `(soc_time, partition index)`; each
    /// carries the *exact* optimal assignment on its partition. Fewer
    /// than `k` when the partition space itself is smaller.
    pub entries: Vec<RankedPartition>,
    /// Number of partitions solved.
    pub partitions_solved: u64,
    /// Per-partition solves that ran to a proof.
    pub partitions_proven: u64,
    /// Branch-and-bound node statistics (see
    /// [`ExhaustiveResult::stats`]).
    pub stats: PruneStats,
    /// Whether every per-partition solve was proven optimal and the
    /// search was not cut short by the budget.
    pub proven_optimal: bool,
}

/// Runs the exhaustive baseline keeping the `k` best partitions. With
/// incumbent seeding on, per-partition solves are bounded by the current
/// **k-th best** SOC time — a partition dismissed at that bound can never
/// enter the ranking, so seeding stays sound (and inert on results) for
/// any `k`. [`solve`] is this function at `k = 1`.
///
/// # Errors
///
/// Same as [`solve`].
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn solve_top_k(
    table: &TimeTable,
    total_width: u32,
    config: &ExhaustiveConfig,
    k: usize,
) -> Result<RankedExhaustiveResult, PartitionError> {
    assert!(k > 0, "top-k solve requires k >= 1");
    validate(table, total_width, config.min_tams, config.max_tams)?;

    /// Outcome of one index-ordered chunk of exactly solved partitions.
    struct ChunkSolve {
        solved: u64,
        proven_solves: u64,
        stats: PruneStats,
        proven: bool,
        /// The chunk's best candidates, ascending, at most `k`.
        best: Vec<Candidate>,
    }

    // The scan-level node budget counts *partitions* (enforced by the
    // executor); only the deadline and cancellation flags apply inside
    // each per-partition branch-and-bound, whose nodes are a different
    // unit.
    let per_partition = ExactConfig {
        budget: config
            .per_partition
            .budget
            .intersect(&config.budget.clone().without_node_budget()),
        ..config.per_partition.clone()
    };
    let incumbent = SharedIncumbent::unbounded();
    let mut partitions_solved = 0u64;
    let mut partitions_proven = 0u64;
    let mut stats = PruneStats::default();
    let mut proven = true;
    let mut global: Ranking<Candidate> = Ranking::new(k);

    // One index per partition, in the scan's rank order: TAM counts
    // ascending, each in `Increment` order.
    let ranks = RankTable::new(total_width, config.min_tams, config.max_tams);
    let status = search_ranges(
        ranks.len(),
        &config.parallel,
        &config.budget,
        || Vec::with_capacity(config.max_tams.min(total_width) as usize),
        |widths: &mut Vec<u32>, range| -> Result<ChunkSolve, PartitionError> {
            // The k-th-best incumbent as of this chunk's generation
            // barrier, tightened locally as the chunk's own heap fills.
            let snapshot = incumbent.get();
            let mut local: Ranking<Candidate> = Ranking::new(k);
            let mut out = ChunkSolve {
                solved: 0,
                proven_solves: 0,
                stats: PruneStats::default(),
                proven: true,
                best: Vec::new(),
            };
            ranks.walk(range, widths, |index, widths| {
                let tams =
                    TamSet::new(widths.iter().copied()).expect("partition parts are positive");
                let costs = CostMatrix::from_table(table, &tams)?;
                let tau = match local.worst() {
                    Some(worst) if local.is_full() => snapshot.min(worst.time),
                    _ => snapshot,
                };
                let bound = if config.seed_incumbent && tau != u64::MAX {
                    Some(tau)
                } else {
                    None
                };
                let solution = exact::solve_bounded(&costs, &per_partition, bound)?;
                out.stats.enumerated += solution.nodes;
                if solution.proven_optimal {
                    out.proven_solves += 1;
                    out.stats.completed += solution.nodes;
                } else {
                    out.stats.aborted += solution.nodes;
                }
                out.proven &= solution.proven_optimal;
                out.solved += 1;
                local.offer(Candidate {
                    time: solution.result.soc_time(),
                    index,
                    tams,
                    result: solution.result,
                });
                Ok(())
            })?;
            out.best = local.drain_sorted();
            Ok(out)
        },
        |chunk: ChunkSolve| {
            partitions_solved += chunk.solved;
            partitions_proven += chunk.proven_solves;
            stats.merge(chunk.stats);
            proven &= chunk.proven;
            for candidate in chunk.best {
                global.offer(candidate);
            }
            if global.is_full() {
                if let Some(worst) = global.worst() {
                    incumbent.tighten(worst.time);
                }
            }
            Ok(())
        },
    )?;

    if global.is_empty() {
        return Err(PartitionError::NoFeasiblePartition { total_width });
    }
    Ok(RankedExhaustiveResult {
        entries: global
            .into_sorted_vec()
            .into_iter()
            .map(|c| RankedPartition {
                tams: c.tams,
                result: c.result,
            })
            .collect(),
        partitions_solved,
        partitions_proven,
        stats,
        proven_optimal: proven && status.is_complete(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count;
    use crate::enumerate::Partitions;
    use crate::evaluate::{partition_evaluate, EvaluateConfig};
    use std::time::Duration;
    use tamopt_soc::benchmarks;

    fn d695_table(width: u32) -> TimeTable {
        TimeTable::new(&benchmarks::d695(), width).unwrap()
    }

    #[test]
    fn solves_every_partition() {
        let table = d695_table(16);
        let best = solve(&table, 16, &ExhaustiveConfig::exact_tams(2)).unwrap();
        assert_eq!(best.partitions_solved, count::unique_partitions(16, 2));
        assert_eq!(best.partitions_proven, best.partitions_solved);
        assert_eq!(best.stats.enumerated, best.stats.completed);
        assert!(best.proven_optimal);
    }

    #[test]
    fn limited_per_partition_solves_count_as_unproven() {
        let table = d695_table(24);
        let cfg = ExhaustiveConfig {
            per_partition: ExactConfig {
                node_limit: 1,
                ..ExactConfig::default()
            },
            ..ExhaustiveConfig::exact_tams(3)
        };
        let out = solve(&table, 24, &cfg).unwrap();
        assert!(!out.proven_optimal);
        assert!(out.partitions_proven < out.partitions_solved);
        assert_eq!(
            out.stats.enumerated,
            out.stats.completed + out.stats.aborted
        );
        assert!(out.stats.aborted > 0, "limited solves spend aborted nodes");
    }

    #[test]
    fn exhaustive_lower_bounds_the_heuristic() {
        let table = d695_table(24);
        for b in 1..=3 {
            let exact = solve(&table, 24, &ExhaustiveConfig::exact_tams(b)).unwrap();
            let heuristic = partition_evaluate(&table, 24, &EvaluateConfig::exact_tams(b)).unwrap();
            assert!(
                exact.result.soc_time() <= heuristic.result.soc_time(),
                "B={b}: exact {} > heuristic {}",
                exact.result.soc_time(),
                heuristic.result.soc_time()
            );
        }
    }

    #[test]
    fn more_tams_never_worse() {
        let table = d695_table(24);
        let b2 = solve(&table, 24, &ExhaustiveConfig::up_to_tams(2)).unwrap();
        let b3 = solve(&table, 24, &ExhaustiveConfig::up_to_tams(3)).unwrap();
        assert!(b3.result.soc_time() <= b2.result.soc_time());
    }

    #[test]
    fn expired_budget_returns_partial_unproven_result() {
        // p(64, 3) = 341 partitions — several generations. A zero
        // budget stops after the first one but still returns a valid
        // best-so-far architecture.
        let table = d695_table(64);
        let cfg = ExhaustiveConfig {
            budget: SearchBudget::time_limited(Duration::ZERO),
            ..ExhaustiveConfig::exact_tams(3)
        };
        let out = solve(&table, 64, &cfg).unwrap();
        assert!(!out.proven_optimal, "truncated search cannot prove");
        assert_eq!(
            out.partitions_solved, cfg.parallel.chunk_size as u64,
            "exactly the first generation was solved"
        );
        assert_eq!(out.tams.total_width(), 64);
    }

    #[test]
    fn scan_node_budget_does_not_cap_per_partition_solves() {
        // A node budget large enough to cover the whole scan counts
        // partitions, not branch-and-bound nodes: every per-partition
        // solve must still run to proven optimality.
        let table = d695_table(16);
        let cfg = ExhaustiveConfig {
            budget: SearchBudget::node_limited(10_000),
            ..ExhaustiveConfig::exact_tams(2)
        };
        let out = solve(&table, 16, &cfg).unwrap();
        let unbudgeted = solve(&table, 16, &ExhaustiveConfig::exact_tams(2)).unwrap();
        assert_eq!(out, unbudgeted);
        assert!(out.proven_optimal);
    }

    #[test]
    fn incumbent_seeding_prunes_nodes_but_not_results() {
        let table = d695_table(24);
        let mut strictly_fewer_somewhere = false;
        for b in 2..=3 {
            let seeded = solve(&table, 24, &ExhaustiveConfig::exact_tams(b)).unwrap();
            let cold = solve(
                &table,
                24,
                &ExhaustiveConfig {
                    seed_incumbent: false,
                    ..ExhaustiveConfig::exact_tams(b)
                },
            )
            .unwrap();
            assert_eq!(seeded.tams, cold.tams, "B={b}: seeding changed the winner");
            assert_eq!(seeded.result, cold.result, "B={b}");
            assert_eq!(seeded.partitions_solved, cold.partitions_solved, "B={b}");
            assert_eq!(seeded.proven_optimal, cold.proven_optimal, "B={b}");
            assert!(
                seeded.stats.enumerated <= cold.stats.enumerated,
                "B={b}: seeding must never enumerate more nodes"
            );
            strictly_fewer_somewhere |= seeded.stats.enumerated < cold.stats.enumerated;
            assert_eq!(
                seeded.stats.enumerated,
                seeded.stats.completed + seeded.stats.aborted,
                "B={b}: node-stat invariant"
            );
        }
        assert!(
            strictly_fewer_somewhere,
            "incumbent seeding pruned nothing on d695 W=24"
        );
    }

    #[test]
    fn top_k_solve_ranks_exact_partitions() {
        let table = d695_table(16);
        let ranked = solve_top_k(&table, 16, &ExhaustiveConfig::exact_tams(2), 4).unwrap();
        assert_eq!(ranked.entries.len(), 4);
        assert!(ranked.proven_optimal);
        assert!(ranked
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        let single = solve(&table, 16, &ExhaustiveConfig::exact_tams(2)).unwrap();
        assert_eq!(ranked.entries[0].tams, single.tams);
        assert_eq!(ranked.entries[0].result, single.result);
        assert_eq!(ranked.partitions_solved, single.partitions_solved);
    }

    #[test]
    fn top_k_incumbent_seeding_is_inert_on_the_ranking() {
        let table = d695_table(24);
        let seeded = solve_top_k(&table, 24, &ExhaustiveConfig::exact_tams(3), 3).unwrap();
        let cold = solve_top_k(
            &table,
            24,
            &ExhaustiveConfig {
                seed_incumbent: false,
                ..ExhaustiveConfig::exact_tams(3)
            },
            3,
        )
        .unwrap();
        assert_eq!(seeded.entries, cold.entries, "seeding changed the ranking");
        assert_eq!(seeded.proven_optimal, cold.proven_optimal);
        assert!(seeded.stats.enumerated <= cold.stats.enumerated);
    }

    #[test]
    fn top_k_solve_is_thread_count_invariant() {
        let table = d695_table(16);
        let run = |threads: usize| {
            solve_top_k(
                &table,
                16,
                &ExhaustiveConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    ..ExhaustiveConfig::up_to_tams(2)
                },
                3,
            )
            .unwrap()
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn rank_walk_covers_the_partitions_in_enumeration_order() {
        // k is the whole space, so the ranking holds every partition and
        // no seed ever bounds a solve: it must be a brute force over the
        // chained `Partitions` iterators, ranked by (time, enumeration
        // index) — which pins both coverage and tie order.
        let table = d695_table(12);
        let mut brute: Vec<(u64, usize, RankedPartition)> = (1..=3)
            .flat_map(|b| Partitions::new(12, b))
            .enumerate()
            .map(|(index, widths)| {
                let tams = TamSet::new(widths).unwrap();
                let costs = CostMatrix::from_table(&table, &tams).unwrap();
                let solution = exact::solve(&costs, &ExactConfig::default()).unwrap();
                assert!(solution.proven_optimal);
                let time = solution.result.soc_time();
                let entry = RankedPartition {
                    tams,
                    result: solution.result,
                };
                (time, index, entry)
            })
            .collect();
        let space = count::partitions_up_to(12, 3);
        assert_eq!(brute.len() as u64, space);
        brute.sort_by_key(|&(time, index, _)| (time, index));
        let expected: Vec<RankedPartition> = brute.into_iter().map(|(_, _, e)| e).collect();

        let ranked =
            solve_top_k(&table, 12, &ExhaustiveConfig::up_to_tams(3), space as usize).unwrap();
        assert_eq!(ranked.partitions_solved, space);
        assert!(ranked.proven_optimal);
        assert_eq!(ranked.entries, expected);
    }

    #[test]
    fn validation_shared_with_evaluate() {
        let table = d695_table(8);
        assert_eq!(
            solve(&table, 0, &ExhaustiveConfig::exact_tams(1)).unwrap_err(),
            PartitionError::ZeroWidth
        );
        assert_eq!(
            solve(&table, 16, &ExhaustiveConfig::exact_tams(2)).unwrap_err(),
            PartitionError::TableTooNarrow {
                required: 16,
                max_width: 8
            }
        );
    }
}
