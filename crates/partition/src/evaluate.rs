//! The `Partition_evaluate` heuristic (Figure 3 of the paper).
//!
//! For every TAM count `B` in the configured range and every unique
//! partition of the total width `W` into `B` parts, the partition is
//! scored with the `Core_assign` heuristic, carrying the best-known SOC
//! testing time `τ` across evaluations so that most partitions abort
//! early (pruning level 2). The result is the paper's *intermediate*
//! solution to *P_PAW* / *P_NPAW*; the final exact optimization step
//! lives in [`crate::pipeline`].
//!
//! The enumeration runs on the deterministic chunked executor of
//! [`tamopt_engine`]: partitions are split into index-ordered chunks,
//! chunks of one generation are scored concurrently against a shared
//! [`SharedIncumbent`] `τ`-bound, and results reduce in chunk order —
//! the winner is the lowest-indexed partition achieving the best time,
//! so `threads = N` is bit-identical to `threads = 1` (statistics
//! included). A [`SearchBudget`] bounds the whole scan; a truncated run
//! still returns the best partition of the generations that finished.
//!
//! The executor's indices are partition *ranks*: it hands each chunk a
//! range of them, and a worker unranks the first partition of its range
//! from the `p(n, k)` table of [`crate::count`] and steps to the rest in
//! place. So enumeration runs on the workers and allocates nothing per
//! chunk or per partition: a scan's allocations are per scan, plus the
//! TAM sets and results of candidates that enter a ranking.

use std::sync::OnceLock;

use tamopt_assign::{
    core_assign_first_steps, core_assign_widths, AssignResult, AssignScratch, CoreAssignOptions,
    TamSet, TimeColumns,
};
use tamopt_engine::{search_ranges, ParallelConfig, Ranking, SearchBudget, SharedIncumbent};
use tamopt_wrapper::TimeTable;

use crate::count::RankTable;
use crate::PartitionError;

/// Pruning statistics of one `Partition_evaluate` run — the quantities
/// behind the paper's Table 1.
///
/// The counting unit is defined by the producing search: here and in
/// [`crate::pipeline`] it is **partitions**; the exhaustive baseline's
/// [`crate::exhaustive::ExhaustiveResult::stats`] reuses the type with
/// **branch-and-bound nodes**. Do not merge statistics across searches
/// with different units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Unique partitions enumerated (pruning level 1 already applied).
    pub enumerated: u64,
    /// Partitions whose evaluation ran to completion.
    pub completed: u64,
    /// Partitions whose evaluation was aborted by the `τ` bound.
    pub aborted: u64,
}

impl PruneStats {
    /// The paper's efficiency measure `E = completed / estimate`, where
    /// `estimate` is the number of unique partitions (Table 1 uses the
    /// asymptotic `V(W,B)`; pass whichever denominator is wanted).
    pub fn efficiency(&self, denominator: f64) -> f64 {
        if denominator <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / denominator
    }

    /// Folds another (per-chunk) statistic into this one. Associative
    /// and commutative — parallel chunk merges cannot change totals —
    /// and it preserves the invariant
    /// `enumerated == completed + aborted`.
    pub fn merge(&mut self, other: PruneStats) {
        self.enumerated += other.enumerated;
        self.completed += other.completed;
        self.aborted += other.aborted;
    }
}

impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, other: PruneStats) {
        self.merge(other);
    }
}

/// Configuration of [`partition_evaluate`].
#[derive(Debug, Clone)]
pub struct EvaluateConfig {
    /// Smallest TAM count to consider (≥ 1).
    pub min_tams: u32,
    /// Largest TAM count to consider (inclusive).
    pub max_tams: u32,
    /// `Core_assign` tie-break switches.
    pub options: CoreAssignOptions,
    /// Whether to carry the `τ` bound into `Core_assign` (pruning
    /// level 2). Turned off only by tests that check pruning changes no
    /// answer, such as `pruning_does_not_change_the_result` and
    /// `scan_matches_a_naive_unpruned_scan`.
    pub prune: bool,
    /// Wall-clock / node / cancellation budget for the whole scan.
    pub budget: SearchBudget,
    /// Thread count and chunk geometry of the parallel enumeration.
    pub parallel: ParallelConfig,
    /// Warm-start seed: an SOC testing time **known to be achievable**
    /// for this table (e.g. from an earlier request on the same SOC at a
    /// width ≤ this one). The scan's `τ` bound starts at `seed + 1`
    /// instead of `∞`, so evaluations that cannot match the seed abort
    /// immediately — same winner, strictly fewer completed evaluations.
    /// The seed is pruning-only: if it turns out unreachable here (the
    /// transfer across widths is heuristic), the scan falls back to a
    /// cold rescan rather than returning nothing.
    pub seed_tau: Option<u64>,
}

impl EvaluateConfig {
    /// Evaluates every TAM count from 1 to `max_tams` (problem
    /// *P_NPAW*).
    pub fn up_to_tams(max_tams: u32) -> Self {
        EvaluateConfig {
            min_tams: 1,
            max_tams,
            options: CoreAssignOptions::default(),
            prune: true,
            budget: SearchBudget::unlimited(),
            parallel: ParallelConfig::default(),
            seed_tau: None,
        }
    }

    /// Evaluates exactly `tams` TAMs (problem *P_PAW*).
    pub fn exact_tams(tams: u32) -> Self {
        EvaluateConfig {
            min_tams: tams,
            max_tams: tams,
            ..Self::up_to_tams(tams)
        }
    }
}

/// Result of [`partition_evaluate`]: the best partition found, the
/// heuristic assignment achieving it, and pruning statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalResult {
    /// The winning TAM set (widths in non-decreasing order).
    pub tams: TamSet,
    /// The heuristic core assignment on the winning TAM set.
    pub result: AssignResult,
    /// Pruning statistics over the whole run.
    pub stats: PruneStats,
    /// How many of `stats.aborted` the scan's [`AbortGate`] skipped
    /// without running `Core_assign`, because the gate showed the run
    /// would abort within its first one or two steps (see
    /// [`partition_evaluate_top_k`]). An observability counter, not a
    /// Table 1 quantity: always `<= stats.aborted`.
    pub bound_skipped: u64,
    /// Whether the whole partition space was scanned (`false` when the
    /// [`SearchBudget`] stopped the scan early; the result is then the
    /// best over `stats.enumerated` partitions).
    pub complete: bool,
}

/// One entry of a ranked scan: a partition and the heuristic assignment
/// scored on it. Shared by [`partition_evaluate_top_k`] and the ranked
/// exhaustive baseline ([`crate::exhaustive::solve_top_k`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedPartition {
    /// The partition's TAM set (widths in non-decreasing order).
    pub tams: TamSet,
    /// The assignment scored on it (heuristic here, exact in the
    /// exhaustive baseline).
    pub result: AssignResult,
}

impl RankedPartition {
    /// SOC testing time of this entry, in clock cycles.
    pub fn soc_time(&self) -> u64 {
        self.result.soc_time()
    }
}

/// Result of [`partition_evaluate_top_k`]: the `k` best partitions found,
/// best first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedEvalResult {
    /// Up to `k` entries ordered by `(soc_time, partition index)` — the
    /// scan's deterministic tie-break. Fewer than `k` when the partition
    /// space itself is smaller.
    pub entries: Vec<RankedPartition>,
    /// Pruning statistics over the whole run (the bound is the running
    /// *k-th best* time, so completion counts grow with `k`).
    pub stats: PruneStats,
    /// How many of `stats.aborted` the scan's [`AbortGate`] skipped
    /// without running `Core_assign`. Observability only: always
    /// `<= stats.aborted`.
    pub bound_skipped: u64,
    /// Whether the whole partition space was scanned.
    pub complete: bool,
}

/// A scan candidate retained by the bounded best-K heap. Ordering (and
/// therefore ranking equality) is on `(time, index)` only: the global
/// partition index is unique per candidate, so the order is total and
/// the retained set is independent of evaluation interleaving.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) time: u64,
    /// Global index of the partition in the canonical enumeration
    /// (TAM counts ascending, partitions in `Increment` order) — the
    /// deterministic tie-break for equal times.
    pub(crate) index: u64,
    pub(crate) tams: TamSet,
    pub(crate) result: AssignResult,
}

impl Candidate {
    pub(crate) fn key(&self) -> (u64, u64) {
        (self.time, self.index)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-worker reusable state of the scan hot path: after warm-up, one
/// partition's enumeration and evaluation perform **zero heap
/// allocations** unless its result enters the chunk's ranking
/// (materializing a result).
struct ScanScratch {
    /// The partition being scored: unranked at a chunk's start, then
    /// advanced in place. Sized for the largest TAM count up front.
    widths: Vec<u32>,
    /// The `Core_assign` kernel's grow-once buffers.
    assign: AssignScratch,
    /// Chunk-local bounded best-K heap, drained at the end of every
    /// chunk (a heap persisting across chunks would make retention
    /// depend on which chunks share a worker, i.e. on thread count).
    ranking: Ranking<Candidate>,
}

/// Runs `Partition_evaluate`: enumerates every unique partition of
/// `total_width` over the configured TAM-count range, scores each with
/// `Core_assign` under the running best-known bound `τ`, and returns the
/// best.
///
/// With `parallel.threads > 1` the chunked scan runs concurrently; the
/// returned [`EvalResult`] (winner *and* statistics) is bit-identical to
/// a single-threaded run. The budget is polled at generation boundaries,
/// and the first generation always runs, so even an already-expired
/// budget yields a valid (partial) result.
///
/// # Errors
///
/// * [`PartitionError::ZeroWidth`] if `total_width == 0`;
/// * [`PartitionError::EmptyTamRange`] for an empty TAM-count range;
/// * [`PartitionError::TableTooNarrow`] if `table` does not cover
///   `total_width`;
/// * [`PartitionError::NoFeasiblePartition`] if no TAM count in range
///   admits any partition (all exceed `total_width`).
///
/// # Example
///
/// ```
/// use tamopt_partition::{partition_evaluate, EvaluateConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = benchmarks::d695();
/// let table = TimeTable::new(&soc, 24)?;
/// let eval = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(4))?;
/// assert_eq!(eval.tams.total_width(), 24);
/// assert!(eval.stats.completed >= 1);
/// assert!(eval.complete);
/// # Ok(())
/// # }
/// ```
pub fn partition_evaluate(
    table: &TimeTable,
    total_width: u32,
    config: &EvaluateConfig,
) -> Result<EvalResult, PartitionError> {
    let ranked = partition_evaluate_top_k(table, total_width, config, 1)?;
    let RankedPartition { tams, result } = ranked
        .entries
        .into_iter()
        .next()
        .expect("a k=1 scan with entries yields exactly one");
    Ok(EvalResult {
        tams,
        result,
        stats: ranked.stats,
        bound_skipped: ranked.bound_skipped,
        complete: ranked.complete,
    })
}

/// Runs `Partition_evaluate` keeping the `k` best partitions instead of
/// one: the typed `TopK` query kind of the service layer, and the
/// single-winner scan's actual implementation (`k = 1`).
///
/// The scan carries a bounded best-K heap per worker chunk (capped
/// [`Ranking`], ordered by `(soc_time, partition index)`), merged into a
/// global heap at generation barriers in chunk-index order. The pruning
/// bound generalizes from "best time so far" to "**k-th best** time so
/// far": a partition that cannot beat the current k-th best can never
/// enter the ranking, so `τ`-pruning (level 2) keeps working — it just
/// admits more completions as `k` grows. With `k = 1` the heap degenerates
/// to the single incumbent and the scan is bit-identical to
/// [`partition_evaluate`] — winner, [`PruneStats`] and all (that function
/// *is* this one).
///
/// A warm-start seed ([`EvaluateConfig::seed_tau`]) is honored only for
/// `k = 1`: the seed is a best-time bound, and opening the scan there
/// would wrongly abort the candidates of ranks `2..=k`, whose times are
/// worse than the best by definition.
///
/// With pruning on and the widest-TAM tie-break on, an [`AbortGate`]
/// stands in front of `Core_assign`. A partition of four or more TAMs
/// whose two widest TAMs `w_2nd <= w_max` load some TAM to `>= τ` within
/// the kernel's first two steps, or a smaller partition whose widest TAM
/// alone does so at step 1, is counted as aborted without being scored.
/// The gate is exact: it skips a partition iff `Core_assign` would
/// abort within those steps, so no winner, ranking or [`PruneStats`]
/// count can move. [`RankedEvalResult::bound_skipped`] counts the skips.
///
/// # Errors
///
/// Same validation errors as [`partition_evaluate`].
///
/// # Panics
///
/// Panics if `k == 0` (a best-0 query is meaningless).
///
/// # Example
///
/// ```
/// use tamopt_partition::{partition_evaluate_top_k, EvaluateConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = TimeTable::new(&benchmarks::d695(), 24)?;
/// let ranked = partition_evaluate_top_k(&table, 24, &EvaluateConfig::up_to_tams(4), 3)?;
/// assert_eq!(ranked.entries.len(), 3);
/// // Entries are ranked best-first.
/// assert!(ranked.entries[0].soc_time() <= ranked.entries[1].soc_time());
/// # Ok(())
/// # }
/// ```
pub fn partition_evaluate_top_k(
    table: &TimeTable,
    total_width: u32,
    config: &EvaluateConfig,
    k: usize,
) -> Result<RankedEvalResult, PartitionError> {
    assert!(k > 0, "top-k scan requires k >= 1");
    validate(table, total_width, config.min_tams, config.max_tams)?;

    /// Outcome of one index-ordered chunk of partitions.
    struct ChunkEval {
        stats: PruneStats,
        bound_skipped: u64,
        /// The chunk's best candidates, ascending, at most `k`.
        best: Vec<Candidate>,
    }

    // A warm-start seed opens the scan at `seed + 1`: any partition that
    // cannot *match* the seeded time aborts, while one achieving exactly
    // the seed (e.g. a repeated request) still completes and wins. Only
    // sound for k = 1 — see the doc above.
    let seed_tau = config.seed_tau.filter(|_| k == 1);
    let incumbent = match seed_tau {
        Some(seed) => SharedIncumbent::seeded(seed.saturating_add(1)),
        None => SharedIncumbent::unbounded(),
    };
    let mut stats = PruneStats::default();
    let mut bound_skipped = 0u64;
    // The global ranking; its worst entry (once full) is the k-th best
    // time, published to workers through `incumbent` at barriers only.
    let mut global: Ranking<Candidate> = Ranking::new(k);

    // Every partition is scored straight from the table's width-major
    // columns, built once and shared read-only by all workers.
    let columns = TimeColumns::from_table(table);
    // Built when a bound first exists, by the worker that needs it, on
    // that worker's own kernel buffers: the table is the gate's only
    // allocation. `None` when the options rule the gate out.
    let gate: OnceLock<Option<AbortGate>> = OnceLock::new();

    // One index per partition, so the node budget and the chunk geometry
    // count partitions: index `r` is the partition of rank `r` (TAM counts
    // ascending, each in `Increment` order).
    let ranks = RankTable::new(total_width, config.min_tams, config.max_tams);
    let status = search_ranges(
        ranks.len(),
        &config.parallel,
        &config.budget,
        || ScanScratch {
            widths: Vec::with_capacity(config.max_tams.min(total_width) as usize),
            assign: AssignScratch::new(),
            ranking: Ranking::new(k),
        },
        |scratch: &mut ScanScratch, range| -> Result<ChunkEval, PartitionError> {
            // The shared k-th-best bound as of this chunk's generation,
            // tightened locally by the chunk's own heap as it fills.
            let snapshot = incumbent.get();
            scratch.ranking.clear();
            let mut out_stats = PruneStats::default();
            let mut skipped = 0u64;
            ranks.walk(range, &mut scratch.widths, |index, widths| {
                out_stats.enumerated += 1;
                // A candidate worse than the chunk's own k-th best can
                // never enter the global top-k either, so the local
                // heap's worst (once full) is a sound extra bound.
                let tau = match scratch.ranking.worst() {
                    Some(worst) if scratch.ranking.is_full() => snapshot.min(worst.time),
                    _ => snapshot,
                };
                let bound = if config.prune && tau != u64::MAX {
                    Some(tau)
                } else {
                    None
                };
                if let Some(tau) = bound {
                    let gate = gate.get_or_init(|| {
                        AbortGate::new(
                            &columns,
                            total_width,
                            config.min_tams,
                            config.max_tams,
                            &config.options,
                            &mut scratch.assign,
                        )
                    });
                    if gate.as_ref().is_some_and(|gate| gate.load(widths) >= tau) {
                        // `Core_assign` would abort; skip it.
                        out_stats.aborted += 1;
                        skipped += 1;
                        return Ok(());
                    }
                }
                match core_assign_widths(
                    &columns,
                    widths,
                    bound,
                    &config.options,
                    &mut scratch.assign,
                ) {
                    Some(time) => {
                        out_stats.completed += 1;
                        let retain = match scratch.ranking.worst() {
                            Some(worst) if scratch.ranking.is_full() => (time, index) < worst.key(),
                            _ => true,
                        };
                        if retain {
                            // Materializing the TAM set and result is the
                            // hot path's only allocation, paid just for
                            // candidates entering the chunk's ranking.
                            scratch.ranking.offer(Candidate {
                                time,
                                index,
                                tams: TamSet::new(widths.iter().copied())
                                    .expect("partition parts are positive"),
                                result: scratch.assign.result(),
                            });
                        }
                    }
                    None => {
                        out_stats.aborted += 1;
                    }
                }
                Ok(())
            })?;
            Ok(ChunkEval {
                stats: out_stats,
                bound_skipped: skipped,
                best: scratch.ranking.drain_sorted(),
            })
        },
        |chunk: ChunkEval| {
            stats.merge(chunk.stats);
            bound_skipped += chunk.bound_skipped;
            // Chunks merge in index order and the candidate order is
            // total on (time, index), so the global ranking ends up with
            // the k lowest-(time, index) partitions — for k = 1 exactly
            // the sequential single-incumbent winner.
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

    debug_assert_eq!(stats.enumerated, stats.completed + stats.aborted);
    debug_assert!(bound_skipped <= stats.aborted);
    if global.is_empty() {
        if seed_tau.is_some() {
            // The seed was unreachable at this width / TAM range (the
            // warm-start transfer is heuristic, not a guarantee): rescan
            // cold so seeding can never change *whether* a result
            // exists. The fallback is deterministic — it depends only on
            // the (deterministic) seeded scan finding nothing.
            let cold = partition_evaluate_top_k(
                table,
                total_width,
                &EvaluateConfig {
                    seed_tau: None,
                    ..config.clone()
                },
                k,
            )?;
            let mut merged = stats;
            merged.merge(cold.stats);
            return Ok(RankedEvalResult {
                stats: merged,
                bound_skipped: bound_skipped + cold.bound_skipped,
                ..cold
            });
        }
        return Err(PartitionError::NoFeasiblePartition { total_width });
    }
    Ok(RankedEvalResult {
        entries: global
            .into_sorted_vec()
            .into_iter()
            .map(|c| RankedPartition {
                tams: c.tams,
                result: c.result,
            })
            .collect(),
        stats,
        bound_skipped,
        complete: status.is_complete(),
    })
}

/// The exact "`Core_assign` aborts within its first steps" table of one
/// scan: the gate [`partition_evaluate_top_k`] puts in front of the
/// kernel.
///
/// With the widest-TAM tie-break on, the kernel's widest-first phase
/// (see [`CoreAssignOptions`]) loads a partition's TAMs widest first, so
/// steps 1 and 2 load its widest TAM `w_max` and then its second-widest
/// `w_2nd` (or `w_max` again, if step 1 loaded nothing). A tie among
/// cores at step 1 is broken on the next-narrower width, `w_2nd` unless
/// `w_2nd = w_max`; which core step 2 picks among tied ones depends on
/// narrower TAMs, but its time does not. So the largest load after two
/// steps is a function of the pair `(w_2nd, w_max)`: the kernel run for
/// two steps on `[w_2nd, w_max]` ([`core_assign_first_steps`]). Loads
/// only grow, so a partition whose entry is `>= τ` aborts within two
/// steps under `τ`, and one whose entry is below `τ` does not.
///
/// Partitions of fewer than [`AbortGate::PAIR_MIN_TAMS`] TAMs are gated
/// on step 1 alone, from one entry per widest width: for them the pair
/// nearly fixes the partition, so a pair entry would be built for about
/// one lookup. The pair table covers only the pairs that some partition
/// of the gate's width and TAM range can have, and is not built at all
/// when that range stays below `PAIR_MIN_TAMS`.
///
/// With the tie-break off, step 1 loads the lowest-index TAM and the
/// order depends on every width, so there is no gate.
#[derive(Debug)]
pub struct AbortGate {
    /// Row length: `total_width + 1`, indexed by `w_max`.
    stride: usize,
    /// Row 0: the load after step 1, by `w_max`. Row `w_2nd >= 1` (at
    /// most `total_width / 2`, as `w_2nd + w_max <= total_width`): the
    /// largest load after two steps, by `w_max`.
    loads: Vec<u64>,
}

impl AbortGate {
    /// The smallest TAM count gated on its two widest TAMs; smaller
    /// partitions are gated on step 1 only.
    pub const PAIR_MIN_TAMS: usize = 4;

    /// The gate for partitions of `total_width` into `min_tams..=max_tams`
    /// TAMs, filled by running the kernel on `scratch`. `None` when
    /// `options` turn the widest-TAM tie-break off. The table is one
    /// allocation; `scratch` grows no larger than two TAMs need.
    ///
    /// # Panics
    ///
    /// Panics if `total_width` is `0` or beyond the columns' widths.
    pub fn new(
        columns: &TimeColumns,
        total_width: u32,
        min_tams: u32,
        max_tams: u32,
        options: &CoreAssignOptions,
        scratch: &mut AssignScratch,
    ) -> Option<AbortGate> {
        if !options.widest_tam_tie_break {
            return None;
        }
        let width = total_width as usize;
        let stride = width + 1;
        let pair_tams = (min_tams.max(Self::PAIR_MIN_TAMS as u32) as usize)..=max_tams as usize;
        let rows = if pair_tams.is_empty() {
            1
        } else {
            1 + width / 2
        };
        let mut loads = vec![0; rows * stride];
        if (min_tams as usize) < Self::PAIR_MIN_TAMS {
            for w_max in 1..=total_width {
                loads[w_max as usize] =
                    core_assign_first_steps(columns, &[w_max], 1, options, scratch);
            }
        }
        for w_2nd in 1..rows as u32 {
            for w_max in w_2nd..=total_width - w_2nd {
                // The other `b - 2` parts, each in `1..=w_2nd`, sum to `rest`.
                let rest = width - (w_2nd + w_max) as usize;
                if pair_tams
                    .clone()
                    .any(|b| b - 2 <= rest && rest <= (b - 2) * w_2nd as usize)
                {
                    loads[w_2nd as usize * stride + w_max as usize] =
                        core_assign_first_steps(columns, &[w_2nd, w_max], 2, options, scratch);
                }
            }
        }
        Some(AbortGate { stride, loads })
    }

    /// How many first steps of `Core_assign` the gate decides for a
    /// partition of `tams` TAMs: two from [`Self::PAIR_MIN_TAMS`] on,
    /// one below.
    pub fn steps(tams: usize) -> usize {
        if tams >= Self::PAIR_MIN_TAMS {
            2
        } else {
            1
        }
    }

    /// The largest TAM load after the first [`Self::steps`] steps of
    /// `Core_assign` on `widths`, a partition (parts non-decreasing) of
    /// the gate's width into a TAM count of its range. Under a bound
    /// `τ`, the kernel aborts within those steps iff this is `>= τ`.
    pub fn load(&self, widths: &[u32]) -> u64 {
        debug_assert_eq!(widths.iter().sum::<u32>() as usize + 1, self.stride);
        let b = widths.len();
        let row = if Self::steps(b) == 2 {
            widths[b - 2] as usize
        } else {
            0
        };
        self.loads[row * self.stride + widths[b - 1] as usize]
    }
}

pub(crate) fn validate(
    table: &TimeTable,
    total_width: u32,
    min_tams: u32,
    max_tams: u32,
) -> Result<(), PartitionError> {
    if total_width == 0 {
        return Err(PartitionError::ZeroWidth);
    }
    if min_tams == 0 || min_tams > max_tams {
        return Err(PartitionError::EmptyTamRange { min_tams, max_tams });
    }
    if table.max_width() < total_width {
        return Err(PartitionError::TableTooNarrow {
            required: total_width,
            max_width: table.max_width(),
        });
    }
    if min_tams > total_width {
        return Err(PartitionError::NoFeasiblePartition { total_width });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count;
    use crate::enumerate::Partitions;
    use std::time::Duration;
    use tamopt_soc::benchmarks;

    fn d695_table(width: u32) -> TimeTable {
        TimeTable::new(&benchmarks::d695(), width).unwrap()
    }

    #[test]
    fn finds_a_partition_for_fixed_b() {
        let table = d695_table(32);
        let eval = partition_evaluate(&table, 32, &EvaluateConfig::exact_tams(2)).unwrap();
        assert_eq!(eval.tams.len(), 2);
        assert_eq!(eval.tams.total_width(), 32);
        assert!(eval.complete);
        assert_eq!(
            eval.stats.enumerated,
            count::unique_partitions(32, 2),
            "every unique partition is enumerated"
        );
        assert_eq!(
            eval.stats.completed + eval.stats.aborted,
            eval.stats.enumerated
        );
    }

    #[test]
    fn pruning_skips_most_partitions() {
        let table = d695_table(48);
        let eval = partition_evaluate(&table, 48, &EvaluateConfig::up_to_tams(4)).unwrap();
        assert!(
            eval.stats.aborted > eval.stats.completed,
            "τ-pruning should dominate: {:?}",
            eval.stats
        );
    }

    #[test]
    fn pruning_does_not_change_the_result() {
        let table = d695_table(40);
        let pruned = partition_evaluate(&table, 40, &EvaluateConfig::up_to_tams(3)).unwrap();
        let unpruned = partition_evaluate(
            &table,
            40,
            &EvaluateConfig {
                prune: false,
                ..EvaluateConfig::up_to_tams(3)
            },
        )
        .unwrap();
        assert_eq!(pruned.result.soc_time(), unpruned.result.soc_time());
        assert_eq!(unpruned.stats.aborted, 0);
        assert_eq!(unpruned.stats.completed, unpruned.stats.enumerated);
    }

    #[test]
    fn more_tams_never_hurt_the_heuristic_bound() {
        let table = d695_table(32);
        let b2 = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(2)).unwrap();
        let b4 = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        assert!(b4.result.soc_time() <= b2.result.soc_time());
    }

    #[test]
    fn single_tam_is_the_serial_schedule() {
        let table = d695_table(16);
        let eval = partition_evaluate(&table, 16, &EvaluateConfig::exact_tams(1)).unwrap();
        let serial: u64 = (0..table.num_cores()).map(|c| table.time(c, 16)).sum();
        assert_eq!(eval.result.soc_time(), serial);
        assert_eq!(eval.stats.enumerated, 1);
    }

    #[test]
    fn validation_errors() {
        let table = d695_table(16);
        assert_eq!(
            partition_evaluate(&table, 0, &EvaluateConfig::up_to_tams(2)).unwrap_err(),
            PartitionError::ZeroWidth
        );
        assert_eq!(
            partition_evaluate(&table, 16, &EvaluateConfig::exact_tams(0)).unwrap_err(),
            PartitionError::EmptyTamRange {
                min_tams: 0,
                max_tams: 0
            }
        );
        assert_eq!(
            partition_evaluate(
                &table,
                16,
                &EvaluateConfig {
                    min_tams: 3,
                    max_tams: 2,
                    ..EvaluateConfig::up_to_tams(2)
                }
            )
            .unwrap_err(),
            PartitionError::EmptyTamRange {
                min_tams: 3,
                max_tams: 2
            }
        );
        assert_eq!(
            partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(2)).unwrap_err(),
            PartitionError::TableTooNarrow {
                required: 32,
                max_width: 16
            }
        );
        assert_eq!(
            partition_evaluate(&table, 4, &EvaluateConfig::exact_tams(9)).unwrap_err(),
            PartitionError::NoFeasiblePartition { total_width: 4 }
        );
    }

    #[test]
    fn stats_efficiency() {
        let stats = PruneStats {
            enumerated: 100,
            completed: 2,
            aborted: 98,
        };
        assert!((stats.efficiency(100.0) - 0.02).abs() < 1e-12);
        assert_eq!(stats.efficiency(0.0), 0.0);
    }

    #[test]
    fn stats_merge_is_associative() {
        let chunks = [
            PruneStats {
                enumerated: 10,
                completed: 3,
                aborted: 7,
            },
            PruneStats {
                enumerated: 5,
                completed: 5,
                aborted: 0,
            },
            PruneStats {
                enumerated: 8,
                completed: 1,
                aborted: 7,
            },
        ];
        // (a + b) + c == a + (b + c) == sum in any order.
        let mut left = chunks[0];
        left.merge(chunks[1]);
        left.merge(chunks[2]);
        let mut right = chunks[1];
        right.merge(chunks[2]);
        let mut a = chunks[0];
        a.merge(right);
        assert_eq!(left, a);
        let mut reversed = chunks[2];
        reversed += chunks[1];
        reversed += chunks[0];
        assert_eq!(left, reversed);
        assert_eq!(left.enumerated, left.completed + left.aborted);
    }

    #[test]
    fn result_partition_is_canonical() {
        let table = d695_table(24);
        let eval = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(5)).unwrap();
        let w = eval.tams.widths();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn expired_budget_returns_partial_but_valid_result() {
        let table = d695_table(48);
        let config = EvaluateConfig {
            budget: SearchBudget::time_limited(Duration::ZERO),
            ..EvaluateConfig::up_to_tams(6)
        };
        let eval = partition_evaluate(&table, 48, &config).unwrap();
        assert!(!eval.complete, "zero budget cannot scan everything");
        // Exactly the first generation (one chunk) ran.
        assert_eq!(eval.stats.enumerated, config.parallel.chunk_size as u64);
        assert_eq!(
            eval.stats.enumerated,
            eval.stats.completed + eval.stats.aborted
        );
        assert_eq!(eval.tams.total_width(), 48, "partial result is valid");
    }

    #[test]
    fn seeded_scan_keeps_the_winner_with_strictly_fewer_completions() {
        let table = d695_table(32);
        let cold = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        // Seeding with the cold run's own achieved time models a
        // warm-start cache hit (same SOC seen before).
        let seeded = partition_evaluate(
            &table,
            32,
            &EvaluateConfig {
                seed_tau: Some(cold.result.soc_time()),
                ..EvaluateConfig::up_to_tams(4)
            },
        )
        .unwrap();
        assert_eq!(
            seeded.tams, cold.tams,
            "warm start must not change the winner"
        );
        assert_eq!(seeded.result, cold.result);
        assert!(seeded.complete);
        assert_eq!(seeded.stats.enumerated, cold.stats.enumerated);
        assert!(
            seeded.stats.completed < cold.stats.completed,
            "the seed must abort evaluations the cold scan completed: {:?} vs {:?}",
            seeded.stats,
            cold.stats
        );
    }

    #[test]
    fn seeded_scan_is_thread_count_invariant() {
        let table = d695_table(32);
        let cold = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        let run = |threads: usize| {
            partition_evaluate(
                &table,
                32,
                &EvaluateConfig {
                    seed_tau: Some(cold.result.soc_time()),
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(4)
                },
            )
            .unwrap()
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn unreachable_seed_falls_back_to_a_cold_rescan() {
        let table = d695_table(24);
        let cold = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(3)).unwrap();
        let seeded = partition_evaluate(
            &table,
            24,
            &EvaluateConfig {
                seed_tau: Some(0), // no architecture tests in 0 cycles
                ..EvaluateConfig::up_to_tams(3)
            },
        )
        .unwrap();
        assert_eq!(seeded.tams, cold.tams);
        assert_eq!(seeded.result, cold.result);
        assert!(seeded.complete);
        // The wasted seeded pass is accounted for, not hidden.
        assert_eq!(seeded.stats.enumerated, 2 * cold.stats.enumerated);
        assert!(seeded.bound_skipped >= cold.bound_skipped);
        assert!(seeded.bound_skipped <= seeded.stats.aborted);
        assert_eq!(
            seeded.stats.enumerated,
            seeded.stats.completed + seeded.stats.aborted
        );
    }

    #[test]
    fn scan_matches_a_naive_unpruned_scan() {
        // End-to-end cross-check of the matrix-free hot path against the
        // straightforward loop: a cost matrix and an allocating
        // `core_assign` per partition.
        use tamopt_assign::{core_assign, CoreAssignOptions, CostMatrix};
        for soc in [benchmarks::d695(), benchmarks::p93791()] {
            let table = TimeTable::new(&soc, 64).unwrap();
            let config = EvaluateConfig {
                prune: false,
                ..EvaluateConfig::up_to_tams(3)
            };
            let eval = partition_evaluate(&table, 64, &config).unwrap();
            let mut best: Option<(u64, TamSet, AssignResult)> = None;
            for b in 1..=3u32 {
                for widths in Partitions::new(64, b) {
                    let tams = TamSet::new(widths).unwrap();
                    let costs = CostMatrix::from_table(&table, &tams).unwrap();
                    let result = core_assign(&costs, None, &CoreAssignOptions::default())
                        .into_result()
                        .expect("unbounded");
                    if best.as_ref().is_none_or(|(t, _, _)| result.soc_time() < *t) {
                        best = Some((result.soc_time(), tams, result));
                    }
                }
            }
            let (_, tams, result) = best.unwrap();
            assert_eq!(eval.tams, tams, "{}", soc.name());
            assert_eq!(eval.result, result, "{}", soc.name());
        }
    }

    #[test]
    fn top_k_entries_are_ranked_and_distinct() {
        let table = d695_table(32);
        let ranked =
            partition_evaluate_top_k(&table, 32, &EvaluateConfig::up_to_tams(4), 5).unwrap();
        assert_eq!(ranked.entries.len(), 5);
        assert!(ranked.complete);
        assert!(ranked
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        // Entries are distinct partitions, not copies of the winner.
        for pair in ranked.entries.windows(2) {
            assert_ne!(pair[0].tams, pair[1].tams);
        }
        assert_eq!(
            ranked.stats.enumerated,
            ranked.stats.completed + ranked.stats.aborted
        );
    }

    #[test]
    fn top_1_is_the_single_winner_path_bit_for_bit() {
        let table = d695_table(48);
        let config = EvaluateConfig::up_to_tams(5);
        let single = partition_evaluate(&table, 48, &config).unwrap();
        let ranked = partition_evaluate_top_k(&table, 48, &config, 1).unwrap();
        assert_eq!(ranked.entries.len(), 1);
        assert_eq!(ranked.entries[0].tams, single.tams);
        assert_eq!(ranked.entries[0].result, single.result);
        assert_eq!(ranked.stats, single.stats, "PruneStats must not drift");
        assert_eq!(ranked.complete, single.complete);
    }

    #[test]
    fn top_k_rank_1_matches_the_single_winner() {
        // Growing k admits more completions (the bound is the k-th best)
        // but must never change who wins.
        let table = d695_table(32);
        let config = EvaluateConfig::up_to_tams(4);
        let single = partition_evaluate(&table, 32, &config).unwrap();
        for k in [2usize, 4, 8] {
            let ranked = partition_evaluate_top_k(&table, 32, &config, k).unwrap();
            assert_eq!(ranked.entries[0].tams, single.tams, "k={k}");
            assert_eq!(ranked.entries[0].result, single.result, "k={k}");
            assert!(
                ranked.stats.completed >= single.stats.completed,
                "k={k}: a looser bound cannot complete fewer evaluations"
            );
        }
    }

    #[test]
    fn top_k_is_thread_count_invariant() {
        let table = d695_table(32);
        let run = |threads: usize, k: usize| {
            partition_evaluate_top_k(
                &table,
                32,
                &EvaluateConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(4)
                },
                k,
            )
            .unwrap()
        };
        for k in [1usize, 3, 4] {
            let reference = run(1, k);
            for threads in [2, 8] {
                assert_eq!(run(threads, k), reference, "threads {threads}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_larger_than_the_space_returns_everything() {
        // W=6, B=2 has exactly 3 unique partitions: 1+5, 2+4, 3+3.
        let table = d695_table(6);
        let ranked =
            partition_evaluate_top_k(&table, 6, &EvaluateConfig::exact_tams(2), 10).unwrap();
        assert_eq!(ranked.entries.len(), 3);
        assert_eq!(ranked.stats.enumerated, 3);
    }

    #[test]
    fn top_k_matches_a_full_unpruned_ranking() {
        // Cross-check the heap + k-th-best pruning against the obvious
        // oracle: score every partition unpruned, sort by
        // (time, enumeration index), take k.
        use tamopt_assign::{core_assign, CostMatrix};
        for soc in [benchmarks::d695(), benchmarks::p93791()] {
            let table = TimeTable::new(&soc, 24).unwrap();
            let k = 6usize;
            let ranked =
                partition_evaluate_top_k(&table, 24, &EvaluateConfig::up_to_tams(3), k).unwrap();
            let mut oracle: Vec<(u64, u64, TamSet, AssignResult)> = Vec::new();
            let mut index = 0u64;
            for b in 1..=3u32 {
                for widths in Partitions::new(24, b) {
                    let tams = TamSet::new(widths).unwrap();
                    let costs = CostMatrix::from_table(&table, &tams).unwrap();
                    let result = core_assign(&costs, None, &CoreAssignOptions::default())
                        .into_result()
                        .expect("unbounded");
                    oracle.push((result.soc_time(), index, tams, result));
                    index += 1;
                }
            }
            oracle.sort_by_key(|(time, index, _, _)| (*time, *index));
            assert_eq!(ranked.entries.len(), k);
            for (entry, (time, _, tams, result)) in ranked.entries.iter().zip(&oracle) {
                assert_eq!(entry.soc_time(), *time, "{}", soc.name());
                assert_eq!(&entry.tams, tams, "{}", soc.name());
                assert_eq!(&entry.result, result, "{}", soc.name());
            }
        }
    }

    #[test]
    fn top_k_ignores_the_warm_start_seed_for_k_above_1() {
        // A best-time seed would wrongly abort ranks 2..=k; the ranked
        // scan must drop it and still return the full cold ranking.
        let table = d695_table(32);
        let config = EvaluateConfig::up_to_tams(4);
        let cold = partition_evaluate_top_k(&table, 32, &config, 3).unwrap();
        let best = cold.entries[0].soc_time();
        let seeded = partition_evaluate_top_k(
            &table,
            32,
            &EvaluateConfig {
                seed_tau: Some(best),
                ..config
            },
            3,
        )
        .unwrap();
        assert_eq!(seeded, cold, "seed must be inert for k > 1");
    }

    #[test]
    fn bound_gate_only_skips_partitions_core_assign_aborts() {
        // For every partition of W = 64 into at most 5 TAMs (so both the
        // step-1 row and the pair table are read) and a sweep of τ around
        // the gate's load and the achieved time: the gate fires iff
        // `Core_assign` aborts within the steps the gate decides, and a
        // partition it fires on makes the bounded kernel abort.
        for soc in [benchmarks::d695(), benchmarks::p93791()] {
            let table = TimeTable::new(&soc, 64).unwrap();
            let columns = TimeColumns::from_table(&table);
            let options = CoreAssignOptions::default();
            let mut assign = AssignScratch::new();
            let gate = AbortGate::new(&columns, 64, 1, 5, &options, &mut assign).unwrap();
            let mut fired = [0u64; 2];
            for b in 1..=5u32 {
                for widths in Partitions::new(64, b) {
                    let load = gate.load(&widths);
                    let steps = AbortGate::steps(widths.len());
                    assert_eq!(
                        load,
                        core_assign_first_steps(&columns, &widths, steps, &options, &mut assign),
                        "{}: {widths:?}",
                        soc.name()
                    );
                    let time =
                        core_assign_widths(&columns, &widths, None, &options, &mut assign).unwrap();
                    for tau in [load - 1, load, load + 1, time - 1, time, time + 1] {
                        let aborts =
                            core_assign_widths(&columns, &widths, Some(tau), &options, &mut assign)
                                .is_none();
                        if load >= tau {
                            fired[steps - 1] += 1;
                            assert!(
                                aborts,
                                "{}: {widths:?} gate {load} >= tau {tau}",
                                soc.name()
                            );
                        }
                    }
                }
            }
            assert!(
                fired.iter().all(|&n| n > 0),
                "{}: the sweep must fire both gates: {fired:?}",
                soc.name()
            );
        }
    }

    #[test]
    fn bound_skipped_counts_gated_partitions() {
        let table = d695_table(64);
        let eval = partition_evaluate(&table, 64, &EvaluateConfig::up_to_tams(6)).unwrap();
        assert!(eval.bound_skipped > 0, "W=64 B<=6 must skip: {eval:?}");
        assert!(eval.bound_skipped <= eval.stats.aborted);
        // Without pruning there is no τ, so nothing can be skipped.
        let unpruned = partition_evaluate(
            &table,
            64,
            &EvaluateConfig {
                prune: false,
                ..EvaluateConfig::up_to_tams(6)
            },
        )
        .unwrap();
        assert_eq!(unpruned.bound_skipped, 0);
        assert_eq!(unpruned.result.soc_time(), eval.result.soc_time());
        // Nor without the widest-TAM tie-break, whose first steps the
        // gate models.
        let ablated = partition_evaluate(
            &table,
            64,
            &EvaluateConfig {
                options: CoreAssignOptions {
                    widest_tam_tie_break: false,
                    ..CoreAssignOptions::default()
                },
                ..EvaluateConfig::up_to_tams(6)
            },
        )
        .unwrap();
        assert_eq!(ablated.bound_skipped, 0);
    }

    #[test]
    fn bound_skipped_is_pinned_at_w64() {
        // The gate moves no winner and no `PruneStats` count, so a weaker
        // gate would show only here: `(soc, bound_skipped, [enumerated,
        // completed, aborted])` at W = 64, B <= 10.
        let pins = [
            (benchmarks::d695(), 262_567, [296_320, 82, 296_238]),
            (benchmarks::p93791(), 260_697, [296_320, 69, 296_251]),
        ];
        for (soc, skipped, stats) in pins {
            let table = TimeTable::new(&soc, 64).unwrap();
            for threads in [1, 4] {
                let eval = partition_evaluate(
                    &table,
                    64,
                    &EvaluateConfig {
                        parallel: ParallelConfig::with_threads(threads),
                        ..EvaluateConfig::up_to_tams(10)
                    },
                )
                .unwrap();
                let at = format!("{} threads={threads}", soc.name());
                assert_eq!(eval.bound_skipped, skipped, "{at}");
                assert_eq!(
                    [
                        eval.stats.enumerated,
                        eval.stats.completed,
                        eval.stats.aborted
                    ],
                    stats,
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn node_budget_truncates_deterministically() {
        let table = d695_table(48);
        let run = |threads: usize| {
            partition_evaluate(
                &table,
                48,
                &EvaluateConfig {
                    budget: SearchBudget::node_limited(100),
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(6)
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert!(!reference.complete);
        // Whole generations: 32 + 64 + 128 dispatched items.
        assert_eq!(reference.stats.enumerated, 224);
        assert_eq!(run(4), reference, "node-budget truncation is deterministic");
    }
}
