use tamopt_wrapper::TimeTable;

use crate::{AssignResult, CostMatrix};

/// Tie-break switches of the `Core_assign` heuristic (Figure 1 of the
/// paper). Both default to on. The unit tests `next_tam_tie_break_matters`
/// and `widest_tam_tie_break_matters` turn one off to show what it
/// decides, and the `kernel_equivalence` proptests run all four
/// settings against the reference kernel.
///
/// The kernel picks the TAM of each step in one of two phases. With
/// the widest-TAM tie-break on and the widths non-decreasing (every
/// partition the scan scores), every TAM not yet loaded has load 0 and
/// every loaded one a nonzero load, so the least-loaded TAM is the
/// widest unloaded one: the kernel takes the TAMs widest first without
/// comparing loads, until all are loaded or a step loads a time of 0.
/// From there, or from the start under any other setting, it compares
/// the loads as Figure 1 does. Both phases pick the TAM the figure
/// picks, so the switches alone decide the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreAssignOptions {
    /// Lines 11–12: when several TAMs are equally least-loaded, pick the
    /// widest (off: pick the lowest index).
    pub widest_tam_tie_break: bool,
    /// Lines 14–16: when several cores have the same largest time on the
    /// selected TAM, compare them on the next-narrower TAM and pick the
    /// one that would suffer most there (off: pick the lowest index).
    pub next_tam_tie_break: bool,
}

impl Default for CoreAssignOptions {
    fn default() -> Self {
        CoreAssignOptions {
            widest_tam_tie_break: true,
            next_tam_tie_break: true,
        }
    }
}

/// Outcome of [`core_assign`]: either a complete assignment, or an early
/// abort because some TAM's summed time already reached the caller's
/// best-known bound `τ` (lines 18–20 of Figure 1 — the pruning that
/// makes `Partition_evaluate` fast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreAssignOutcome {
    /// All cores assigned; the SOC time may or may not beat the bound.
    Complete(AssignResult),
    /// Assignment abandoned: the partial makespan already reached the
    /// best-known bound, which is returned unchanged.
    Aborted {
        /// The bound `τ` that triggered the abort.
        bound: u64,
    },
}

impl CoreAssignOutcome {
    /// The complete result, if the run was not aborted.
    pub fn into_result(self) -> Option<AssignResult> {
        match self {
            CoreAssignOutcome::Complete(r) => Some(r),
            CoreAssignOutcome::Aborted { .. } => None,
        }
    }

    /// The SOC testing time this outcome stands for: the achieved time,
    /// or the unchanged bound for an aborted run.
    pub fn soc_time(&self) -> u64 {
        match self {
            CoreAssignOutcome::Complete(r) => r.soc_time(),
            CoreAssignOutcome::Aborted { bound } => *bound,
        }
    }
}

/// The `Core_assign` heuristic of the paper's Figure 1.
///
/// Repeatedly selects the least-loaded TAM (tie: widest) and assigns to
/// it the unassigned core with the largest testing time on that TAM
/// (tie: the core with the larger time on the next-narrower TAM). If
/// `bound` is given and any TAM's summed time reaches it, the run aborts
/// immediately — the partition under evaluation cannot beat the
/// best-known architecture.
///
/// The matrix is turned into [`TimeColumns`] keyed by TAM index and run
/// through the same kernel as [`core_assign_widths`], so both share one
/// implementation of the selection rules.
///
/// Complexity: `O(N·(N + B))` for `N` cores and `B` TAMs, matching the
/// paper's `O(N²)` claim for `B ≤ N`.
///
/// # Example
///
/// The paper's Figure 2 walk-through (5 cores, TAM widths 32/16/8) ends
/// with per-TAM times 180, 200 and 200 cycles:
///
/// ```
/// use tamopt_assign::{core_assign, CoreAssignOptions, CostMatrix};
/// use tamopt_soc::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (widths, times) = benchmarks::figure2_cost_table();
/// let costs = CostMatrix::from_raw(times, widths)?;
/// let out = core_assign(&costs, None, &CoreAssignOptions::default());
/// assert_eq!(out.soc_time(), 200);
/// # Ok(())
/// # }
/// ```
pub fn core_assign(
    costs: &CostMatrix,
    bound: Option<u64>,
    options: &CoreAssignOptions,
) -> CoreAssignOutcome {
    let columns = TimeColumns::from_fn(costs.num_cores(), costs.num_tams(), |core, tam| {
        costs.time(core, tam)
    });
    let mut scratch = AssignScratch::new();
    match assign_columns(
        &columns,
        costs.widths(),
        |tam| tam,
        bound,
        usize::MAX,
        options,
        &mut scratch,
    ) {
        Some(_) => CoreAssignOutcome::Complete(scratch.result()),
        None => CoreAssignOutcome::Aborted {
            bound: bound.expect("only a bound can abort the heuristic"),
        },
    }
}

/// Column-major testing times, the input of the `Core_assign` kernel:
/// column `k` holds every core's time on one width (or one TAM), and
/// next to it the cores ordered by `(time desc, core asc)`.
///
/// The partition scan builds one per scan from its [`TimeTable`]
/// ([`TimeColumns::from_table`], column `w − 1` is width `w`) and scores
/// every partition straight from it with [`core_assign_widths`] — no
/// per-partition cost matrix. [`core_assign`] builds one keyed by TAM
/// index from its [`CostMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeColumns {
    cores: usize,
    /// `times[k · cores + core]`.
    times: Vec<u64>,
    /// `order[k · cores ..][..cores]`: column `k`'s cores by `(time
    /// desc, core asc)`, so the first unassigned entry is line 13's
    /// largest-time core and the run of equal times after it is its
    /// tied set, lowest core first.
    order: Vec<u32>,
}

impl TimeColumns {
    /// Width-major copy of `table`: column `w − 1` holds `T_c(w)`.
    pub fn from_table(table: &TimeTable) -> Self {
        Self::from_fn(table.num_cores(), table.max_width() as usize, |core, k| {
            table.row(core)[k]
        })
    }

    fn from_fn(cores: usize, columns: usize, time: impl Fn(usize, usize) -> u64) -> Self {
        let mut times = Vec::with_capacity(columns * cores);
        let mut order: Vec<u32> = Vec::with_capacity(columns * cores);
        for k in 0..columns {
            let start = times.len();
            times.extend((0..cores).map(|core| time(core, k)));
            let column = &times[start..];
            order.extend(0..cores as u32);
            order[start..].sort_unstable_by_key(|&c| (std::cmp::Reverse(column[c as usize]), c));
        }
        TimeColumns {
            cores,
            times,
            order,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores
    }

    fn column(&self, k: usize) -> &[u64] {
        &self.times[k * self.cores..][..self.cores]
    }

    fn order(&self, k: usize) -> &[u32] {
        &self.order[k * self.cores..][..self.cores]
    }
}

/// Reusable working buffers of the `Core_assign` kernel: per-TAM loads
/// and column cursors, and the assignment under construction. Keep one
/// per worker thread — after the first call at the largest `(cores,
/// tams)` shape, every further call is allocation-free.
#[derive(Debug, Default)]
pub struct AssignScratch {
    tam_times: Vec<u64>,
    assignment: Vec<usize>,
    /// Per TAM, how far into its column's order every core is assigned.
    cursor: Vec<usize>,
}

impl AssignScratch {
    /// Empty buffers; they grow on first use and are reused thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materializes the last **completed** kernel run as an owned
    /// [`AssignResult`], from the run's own assignment and per-TAM times
    /// (this is the only allocating step of the hot path, paid just for
    /// results worth keeping).
    pub fn result(&self) -> AssignResult {
        AssignResult::from_parts(self.assignment.clone(), self.tam_times.clone())
    }
}

/// `Core_assign` on the TAM widths of one partition, reading TAM `t`'s
/// times from `columns` at width `widths[t]` (columns built by
/// [`TimeColumns::from_table`]). Same selection and abort semantics as
/// [`core_assign`], with all working state borrowed from `scratch`.
///
/// Returns `Some(soc_time)` when the assignment completes — the
/// assignment is left in `scratch` and can be materialized with
/// [`AssignScratch::result`] — or `None` when the run aborted against
/// `bound` (lines 18–20 of Figure 1). The τ-pruned partition scan calls
/// this once per partition that passes its abort gate; with a warmed
/// scratch neither outcome allocates.
///
/// # Panics
///
/// Panics if a width is `0` or beyond the table's maximum width.
pub fn core_assign_widths(
    columns: &TimeColumns,
    widths: &[u32],
    bound: Option<u64>,
    options: &CoreAssignOptions,
    scratch: &mut AssignScratch,
) -> Option<u64> {
    assign_columns(
        columns,
        widths,
        |tam| widths[tam] as usize - 1,
        bound,
        usize::MAX,
        options,
        scratch,
    )
}

/// The largest TAM load after the first `steps` steps of `Core_assign`
/// on the TAM widths `widths` (all steps if there are fewer cores),
/// read from `columns` as in [`core_assign_widths`]. Runs the kernel
/// itself, unbounded, so the loads follow its selection rules exactly.
///
/// Loads only grow, so a bounded run on the same widths aborts within
/// its first `steps` steps exactly when this is `>= bound`. The
/// partition scan's abort gate is built from it: with the widest-TAM
/// tie-break on, the first two steps of a partition depend only on its
/// two widest TAMs, so the value on `[w_2nd, w_max]` holds for every
/// partition whose two widest TAMs are `w_2nd <= w_max`.
///
/// The partial assignment it leaves in `scratch` is not a result:
/// call [`AssignScratch::result`] only after a run that completed.
///
/// # Panics
///
/// Panics if a width is `0` or beyond the table's maximum width.
pub fn core_assign_first_steps(
    columns: &TimeColumns,
    widths: &[u32],
    steps: usize,
    options: &CoreAssignOptions,
    scratch: &mut AssignScratch,
) -> u64 {
    assign_columns(
        columns,
        widths,
        |tam| widths[tam] as usize - 1,
        None,
        steps,
        options,
        scratch,
    )
    .expect("an unbounded run never aborts")
}

/// The one `Core_assign` kernel: TAM `t` of width `widths[t]` reads
/// column `column_of(t)`. It stops after `steps` steps (pass
/// `usize::MAX` for a full run) and returns the largest TAM load, or
/// `None` if a load reached `bound` first.
///
/// Lines 10–12 (the least-loaded TAM, tie: widest, then lowest index)
/// are found in one of two phases, and both pick the TAM Figure 1
/// picks:
///
/// * **Widest first.** With the widest-TAM tie-break on and `widths`
///   non-decreasing (every partition the scan scores), the phase runs
///   from the first step. While every TAM loaded so far holds a
///   nonzero load, the others hold 0, so the least-loaded TAM is the
///   widest unloaded one, lowest index first: the next TAM in run
///   order, where runs of equal widths go from the right and each
///   run's indices ascend. No scan is needed, and the next-narrower TAM
///   of lines 14–16 is the first index of the run to the left. The
///   phase ends once every TAM is loaded, or after a step that loads a
///   time of 0, since that TAM stays least-loaded.
/// * **Least loaded.** Otherwise, and from there on, a scan over the
///   TAMs' loads, as Figure 1 states the rule.
///
/// Both phases hand the TAM to [`load_tam`], the one copy of lines
/// 13–17.
fn assign_columns(
    columns: &TimeColumns,
    widths: &[u32],
    column_of: impl Fn(usize) -> usize,
    bound: Option<u64>,
    steps: usize,
    options: &CoreAssignOptions,
    scratch: &mut AssignScratch,
) -> Option<u64> {
    let b = widths.len();
    scratch.tam_times.clear();
    scratch.tam_times.resize(b, 0);
    scratch.cursor.clear();
    scratch.cursor.resize(b, 0);
    scratch.assignment.clear();
    scratch.assignment.resize(columns.num_cores(), UNASSIGNED);

    let mut widest_first = if options.widest_tam_tie_break && widths.is_sorted() {
        WidestFirst::first(widths)
    } else {
        None
    };
    for _ in 0..columns.num_cores().min(steps) {
        let tam = match widest_first {
            Some(pick) => pick.tam,
            None => {
                // Lines 10-12: least-loaded TAM, tie broken toward the widest.
                let tam_times = &scratch.tam_times;
                (0..b)
                    .min_by_key(|&t| {
                        let width_key = if options.widest_tam_tie_break {
                            // Larger width wins the tie => smaller key.
                            u32::MAX - widths[t]
                        } else {
                            0
                        };
                        (tam_times[t], width_key, t)
                    })
                    .expect("at least one tam")
            }
        };
        // The widest TAM strictly narrower than `tam`, lowest index first.
        let narrower = || match widest_first {
            Some(pick) => pick.narrower,
            None => (0..b)
                .filter(|&t| widths[t] < widths[tam])
                .max_by_key(|&t| (widths[t], usize::MAX - t)),
        };
        let time = load_tam(
            columns,
            &column_of,
            tam,
            narrower,
            options.next_tam_tie_break,
            scratch,
        );
        widest_first = widest_first
            .filter(|_| time > 0)
            .and_then(|pick| pick.next(widths));

        // Lines 18-20: abort against the best-known bound. Every other
        // TAM was already below it, so only the one just loaded can
        // have reached it.
        if bound.is_some_and(|tau| scratch.tam_times[tam] >= tau) {
            return None;
        }
    }
    Some(
        scratch
            .tam_times
            .iter()
            .copied()
            .max()
            .expect("at least one tam"),
    )
}

const UNASSIGNED: usize = usize::MAX;

/// Lines 13–17 of Figure 1 on the TAM that lines 10–12 picked: assigns
/// it the unassigned core with the largest time in its column and
/// returns that time. With `next_tam_tie_break` on, a tie on that time
/// goes to the core with the largest time on the next-narrower TAM
/// (`narrower`, asked only when cores tie), then to the lowest core
/// index.
fn load_tam(
    columns: &TimeColumns,
    column_of: &impl Fn(usize) -> usize,
    tam: usize,
    narrower: impl FnOnce() -> Option<usize>,
    next_tam_tie_break: bool,
    scratch: &mut AssignScratch,
) -> u64 {
    // Line 13: the first unassigned core in the column's order has
    // the largest time on `tam`; the cursor skips assigned ones.
    let column = column_of(tam);
    let times = columns.column(column);
    let order = columns.order(column);
    let assignment = &scratch.assignment;
    let mut at = scratch.cursor[tam];
    while assignment[order[at] as usize] != UNASSIGNED {
        at += 1;
    }
    scratch.cursor[tam] = at;
    let mut core = order[at] as usize;

    // Lines 14-16: among the unassigned cores tied at that time, take
    // the one with the largest time on the next-narrower TAM; equal
    // times there keep the lowest core index.
    if next_tam_tie_break {
        let top = times[core];
        let mut tied = order[at + 1..]
            .iter()
            .map(|&c| c as usize)
            .take_while(|&c| times[c] == top)
            .filter(|&c| assignment[c] == UNASSIGNED)
            .peekable();
        if tied.peek().is_some() {
            if let Some(next) = narrower() {
                let next = columns.column(column_of(next));
                for c in tied {
                    if next[c] > next[core] {
                        core = c;
                    }
                }
            }
        }
    }

    // Line 17: assign.
    let time = times[core];
    scratch.assignment[core] = tam;
    scratch.tam_times[tam] += time;
    time
}

/// Where the widest-first phase of [`assign_columns`] stands on
/// non-decreasing widths: the TAM it loads next and that TAM's
/// next-narrower TAM.
#[derive(Clone, Copy)]
struct WidestFirst {
    tam: usize,
    /// The widest TAM strictly narrower than `tam`, lowest index first:
    /// the first index of the run of equal widths to the left of
    /// `tam`'s run.
    narrower: Option<usize>,
}

impl WidestFirst {
    /// The first TAM of the phase: the first index of the widest run.
    fn first(widths: &[u32]) -> Option<Self> {
        let last = widths.len().checked_sub(1)?;
        Some(Self::run(widths, run_start(widths, last)))
    }

    /// The TAM after this one: the next index of the same run, else the
    /// first of the run to the left, else none (every TAM is loaded).
    fn next(self, widths: &[u32]) -> Option<Self> {
        if widths.get(self.tam + 1) == Some(&widths[self.tam]) {
            Some(WidestFirst {
                tam: self.tam + 1,
                ..self
            })
        } else {
            self.narrower.map(|start| Self::run(widths, start))
        }
    }

    /// The first TAM of the run that starts at `start`.
    fn run(widths: &[u32], start: usize) -> Self {
        WidestFirst {
            tam: start,
            narrower: start.checked_sub(1).map(|last| run_start(widths, last)),
        }
    }
}

/// The first index of the run of equal widths that ends at `last`.
fn run_start(widths: &[u32], last: usize) -> usize {
    widths[..last]
        .iter()
        .rposition(|&w| w != widths[last])
        .map_or(0, |i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    fn figure2() -> CostMatrix {
        let (widths, times) = benchmarks::figure2_cost_table();
        CostMatrix::from_raw(times, widths).unwrap()
    }

    /// The worked example of the paper's Figure 2, step by step.
    #[test]
    fn figure2_example() {
        let costs = figure2();
        let out = core_assign(&costs, None, &CoreAssignOptions::default());
        let result = out.into_result().expect("no bound");
        // Final assignment per Figure 2(b): cores 1..5 on TAMs 2,3,2,1,1.
        assert_eq!(result.assignment(), &[1, 2, 1, 0, 0]);
        assert_eq!(result.assignment_vector(), "(2,3,2,1,1)");
        // "The testing times on TAMs 1, 2, and 3 are 180, 200, and 200".
        assert_eq!(result.tam_times(), &[180, 200, 200]);
        assert_eq!(result.soc_time(), 200);
    }

    #[test]
    fn next_tam_tie_break_matters() {
        // Two cores tie at 100 on the wide TAM, but core 1 would suffer
        // far more on the narrow TAM — the Line 14-16 rule must grab it
        // first, halving the final makespan's penalty.
        let costs =
            CostMatrix::from_raw(vec![vec![100, 150], vec![100, 200]], vec![16, 8]).unwrap();
        let with = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .unwrap();
        assert_eq!(with.assignment(), &[1, 0], "core 1 takes the wide TAM");
        assert_eq!(with.soc_time(), 150);
        let without = core_assign(
            &costs,
            None,
            &CoreAssignOptions {
                widest_tam_tie_break: true,
                next_tam_tie_break: false,
            },
        )
        .into_result()
        .unwrap();
        assert_eq!(
            without.assignment(),
            &[0, 1],
            "index order grabs core 0 instead"
        );
        assert_eq!(without.soc_time(), 200);
    }

    #[test]
    fn widest_tam_tie_break_matters() {
        // One big core: at all-zero loads the widest TAM must be chosen
        // so the big core lands on the fast TAM.
        let costs = CostMatrix::from_raw(vec![vec![100, 400]], vec![32, 8]).unwrap();
        let with = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .unwrap();
        assert_eq!(with.assignment(), &[0]);
        assert_eq!(with.soc_time(), 100);
        // With the widths ordered narrow-first and the tie-break off, the
        // first (narrow) TAM wins the tie.
        let costs_rev = CostMatrix::from_raw(vec![vec![400, 100]], vec![8, 32]).unwrap();
        let without = core_assign(
            &costs_rev,
            None,
            &CoreAssignOptions {
                widest_tam_tie_break: false,
                next_tam_tie_break: true,
            },
        )
        .into_result()
        .unwrap();
        assert_eq!(without.assignment(), &[0], "lowest index = narrow TAM");
        assert_eq!(without.soc_time(), 400);
    }

    #[test]
    fn abort_on_bound() {
        let costs = figure2();
        // Optimal-ish time is 200; a bound of 100 must abort.
        let out = core_assign(&costs, Some(100), &CoreAssignOptions::default());
        assert_eq!(out, CoreAssignOutcome::Aborted { bound: 100 });
        assert_eq!(out.soc_time(), 100);
        assert!(out.into_result().is_none());
    }

    #[test]
    fn generous_bound_does_not_abort() {
        let costs = figure2();
        let out = core_assign(&costs, Some(1_000_000), &CoreAssignOptions::default());
        assert!(matches!(out, CoreAssignOutcome::Complete(_)));
    }

    #[test]
    fn boundary_bound_equal_aborts() {
        // Abort uses >=: reaching exactly the bound cannot improve on it.
        let costs = figure2();
        let out = core_assign(&costs, Some(120), &CoreAssignOptions::default());
        // Core 5 -> TAM 1 yields exactly 120 at the first step.
        assert_eq!(out, CoreAssignOutcome::Aborted { bound: 120 });
    }

    #[test]
    fn assigns_every_core_exactly_once() {
        let soc = benchmarks::d695();
        let table = tamopt_wrapper::TimeTable::new(&soc, 64).unwrap();
        let tams = crate::TamSet::new([16, 32, 8, 8]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        let result = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .unwrap();
        assert_eq!(result.assignment().len(), 10);
        assert!(result.assignment().iter().all(|&t| t < 4));
        // Per-TAM times recompute consistently.
        let expect = AssignResult::from_assignment(result.assignment().to_vec(), &costs);
        assert_eq!(expect.soc_time(), result.soc_time());
    }

    #[test]
    fn single_tam_sums_everything() {
        let soc = benchmarks::d695();
        let table = tamopt_wrapper::TimeTable::new(&soc, 16).unwrap();
        let tams = crate::TamSet::new([16]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        let result = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .unwrap();
        let total: u64 = (0..10).map(|c| costs.time(c, 0)).sum();
        assert_eq!(result.soc_time(), total);
    }

    #[test]
    fn width_columns_match_the_matrix_path() {
        let soc = benchmarks::d695();
        let table = tamopt_wrapper::TimeTable::new(&soc, 32).unwrap();
        let columns = TimeColumns::from_table(&table);
        assert_eq!(columns.num_cores(), 10);
        let mut scratch = AssignScratch::new();
        for widths in [vec![8u32, 24], vec![4, 4, 8, 16], vec![32]] {
            let tams = crate::TamSet::new(widths.clone()).unwrap();
            let costs = CostMatrix::from_table(&table, &tams).unwrap();
            for bound in [None, Some(30_000), Some(1)] {
                let owned = core_assign(&costs, bound, &CoreAssignOptions::default());
                let fitted = core_assign_widths(
                    &columns,
                    &widths,
                    bound,
                    &CoreAssignOptions::default(),
                    &mut scratch,
                );
                match (owned, fitted) {
                    (CoreAssignOutcome::Complete(result), Some(time)) => {
                        assert_eq!(result.soc_time(), time, "widths {widths:?} bound {bound:?}");
                        assert_eq!(scratch.result(), result);
                    }
                    (CoreAssignOutcome::Aborted { .. }, None) => {}
                    (owned, fitted) => {
                        panic!("outcomes diverge for {widths:?}/{bound:?}: {owned:?} vs {fitted:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shrinking_shapes() {
        // A scratch warmed on a wide partition must produce correct
        // results on a narrower one (buffers shrink logically, not
        // physically).
        let table = tamopt_wrapper::TimeTable::from_matrix(vec![
            vec![9, 8, 7, 6],
            vec![5, 4, 3, 2],
            vec![1, 2, 3, 4],
        ]);
        let columns = TimeColumns::from_table(&table);
        let options = CoreAssignOptions::default();
        let mut scratch = AssignScratch::new();
        core_assign_widths(&columns, &[1, 1, 1, 1], None, &options, &mut scratch).unwrap();
        let time = core_assign_widths(&columns, &[2], None, &options, &mut scratch).unwrap();
        assert_eq!(time, 14);
        assert_eq!(scratch.result().assignment(), &[0, 0, 0]);
        assert_eq!(scratch.result().tam_times(), &[14]);
    }

    #[test]
    fn deterministic() {
        let costs = figure2();
        let a = core_assign(&costs, None, &CoreAssignOptions::default());
        let b = core_assign(&costs, None, &CoreAssignOptions::default());
        assert_eq!(a, b);
    }
}
