//! Exact branch-and-bound for *P_AW*.
//!
//! The core-assignment problem is scheduling `N` independent jobs on `B`
//! unrelated parallel machines to minimize makespan (the paper bases its
//! heuristic on exactly this view, citing Brucker). This module solves
//! it *exactly* by depth-first branch-and-bound:
//!
//! * the incumbent is seeded with the `Core_assign` heuristic;
//! * cores are branched in decreasing order of their cheapest time
//!   (big rocks first);
//! * nodes are pruned by three lower bounds (current makespan, average
//!   load, the largest remaining per-core minimum) and by symmetry
//!   (equal-width TAMs with equal loads are interchangeable);
//! * a search that reaches 100,000 nodes solves the LP relaxation
//!   ([`crate::ilp::build_model`]) once and adds a fourth bound, the
//!   Lagrangian load bound weighted by the TAM-row duals (van de Velde,
//!   ORSA J. Computing 5, 1993; Martello, Soumis and Toth, Discrete
//!   Applied Math. 75, 1997). It cuts only subtrees with no completion
//!   below the incumbent, so the search finds the same improving leaves
//!   in the same order, and smaller searches never pay for the LP;
//! * node and wall-clock limits make it safe inside enumeration loops.
//!
//! It plays the role the ILP of the paper's reference [8] plays for the
//! exhaustive baseline, at far higher speed.

use std::time::Duration;

use tamopt_engine::SearchBudget;

use crate::{core_assign, ilp, AssignError, AssignResult, CoreAssignOptions, CostMatrix};

/// Nodes a search explores before it solves the LP relaxation for the
/// Lagrangian load bound.
const LP_TRIGGER_NODES: u64 = 100_000;

/// Fixed-point scale of the LP duals (each in `[0, 1]`) in the integer
/// weights of [`LoadBound`].
const WEIGHT_SCALE: f64 = (1u64 << 32) as f64;

/// The Lagrangian load bound. For non-negative integer weights `k_t`
/// with `K = Σ k_t`, every completion of a node has a makespan `T` with
/// `K·T ≥ Σ_t k_t·load_t + Σ_{c unassigned} min_t k_t·T_c(w_t)`.
/// The sums are exact in `u128` (weights up to `2^32`, times up to
/// `2^64`), so the bound holds however the LP rounded its duals.
struct LoadBound {
    weights: Vec<u64>,
    /// `K`.
    total: u128,
    /// `suffix[d]`: `Σ min_t k_t·T_c(w_t)` over the cores at branch
    /// depths `d..`.
    suffix: Vec<u128>,
    /// `Σ_t k_t·load_t` at the current node.
    weighted: u128,
}

impl LoadBound {
    /// Weights from the TAM-row duals of the LP relaxation; `None` when
    /// the LP fails.
    fn from_lp(costs: &CostMatrix, order: &[usize], loads: &[u64]) -> Option<Self> {
        let (_, dual) = ilp::build_model(costs).solve_with_duals().ok()?;
        let weights = dual.duals()[..costs.num_tams()]
            .iter()
            .map(|&y| (y.clamp(0.0, 1.0) * WEIGHT_SCALE).round() as u64)
            .collect();
        Self::new(costs, order, weights, loads)
    }

    /// The bound for `weights` at a node with `loads`; `None` when every
    /// weight is 0, since it would then prune nothing.
    fn new(costs: &CostMatrix, order: &[usize], weights: Vec<u64>, loads: &[u64]) -> Option<Self> {
        if weights.iter().all(|&k| k == 0) {
            return None;
        }
        let weight = |t: usize, time: u64| u128::from(weights[t]) * u128::from(time);
        let mut suffix = vec![0; order.len() + 1];
        for d in (0..order.len()).rev() {
            let cheapest = (0..weights.len())
                .map(|t| weight(t, costs.time(order[d], t)))
                .min()
                .expect("at least one TAM");
            suffix[d] = suffix[d + 1] + cheapest;
        }
        let weighted = loads.iter().enumerate().map(|(t, &l)| weight(t, l)).sum();
        Some(LoadBound {
            total: weights.iter().map(|&k| u128::from(k)).sum(),
            weights,
            suffix,
            weighted,
        })
    }

    /// `Σ_t k_t·load_t + Σ_{c unassigned} min_t k_t·T_c(w_t)` at `depth`:
    /// at most `K` times the makespan of any completion.
    fn value(&self, depth: usize) -> u128 {
        self.weighted + self.suffix[depth]
    }

    /// Whether no completion of the node at `depth` has a makespan below
    /// `prune_bound` (at least 1).
    fn prunes(&self, depth: usize, prune_bound: u64) -> bool {
        self.value(depth) > self.total * u128::from(prune_bound - 1)
    }

    fn add(&mut self, tam: usize, time: u64) {
        self.weighted += u128::from(self.weights[tam]) * u128::from(time);
    }

    fn remove(&mut self, tam: usize, time: u64) {
        self.weighted -= u128::from(self.weights[tam]) * u128::from(time);
    }
}

/// Limits for [`solve`].
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Maximum number of branch-and-bound nodes (partial assignments).
    pub node_limit: u64,
    /// Unified wall-clock / node / cancellation budget
    /// ([`SearchBudget`]); its node budget, if any, caps `node_limit`.
    pub budget: SearchBudget,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            node_limit: 50_000_000,
            budget: SearchBudget::unlimited(),
        }
    }
}

impl ExactConfig {
    /// Config with a wall-clock limit starting now (delegates to
    /// [`SearchBudget::time_limited`]).
    pub fn with_time_limit(limit: Duration) -> Self {
        Self::with_budget(SearchBudget::time_limited(limit))
    }

    /// Config bounded by an existing [`SearchBudget`].
    pub fn with_budget(budget: SearchBudget) -> Self {
        ExactConfig {
            budget,
            ..Self::default()
        }
    }
}

/// An exact (or limit-truncated best-known) solution to *P_AW*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSolution {
    /// The best assignment found.
    pub result: AssignResult,
    /// Nodes explored.
    pub nodes: u64,
    /// Whether the search completed (true) or hit a limit with the
    /// incumbent in hand (false).
    pub proven_optimal: bool,
}

/// Solves *P_AW* exactly by branch-and-bound (up to the configured
/// limits).
///
/// # Errors
///
/// Never fails for a well-formed [`CostMatrix`]; the heuristic incumbent
/// guarantees a feasible solution even at `node_limit == 0`. The error
/// type is kept for parity with the other solvers.
///
/// # Example
///
/// ```
/// use tamopt_assign::exact::{solve, ExactConfig};
/// use tamopt_assign::CostMatrix;
/// use tamopt_soc::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (widths, times) = benchmarks::figure2_cost_table();
/// let costs = CostMatrix::from_raw(times, widths)?;
/// let sol = solve(&costs, &ExactConfig::default())?;
/// assert!(sol.proven_optimal);
/// assert!(sol.result.soc_time() <= 200); // heuristic achieves 200
/// # Ok(())
/// # }
/// ```
pub fn solve(costs: &CostMatrix, config: &ExactConfig) -> Result<ExactSolution, AssignError> {
    solve_bounded(costs, config, None)
}

/// [`solve`] seeded with an external incumbent bound.
///
/// With `bound = Some(τ)` the search only looks for assignments with
/// makespan **strictly below** `τ` (on top of the internal heuristic
/// incumbent): subtrees that cannot beat `min(heuristic, τ)` are pruned,
/// so a tight external bound — e.g. a [`tamopt_engine::SharedIncumbent`]
/// carried across an enumeration of partitions — cuts the node count
/// without changing which solutions can win. When no assignment beats
/// `τ`, the returned result is the heuristic incumbent (valid, but not
/// better than `τ`) and `proven_optimal` means "proven: nothing below
/// `min(heuristic, τ)` exists".
///
/// `bound = None` is exactly [`solve`].
///
/// # Errors
///
/// Same as [`solve`]: never fails for a well-formed [`CostMatrix`].
pub fn solve_bounded(
    costs: &CostMatrix,
    config: &ExactConfig,
    bound: Option<u64>,
) -> Result<ExactSolution, AssignError> {
    search(costs, config, bound, LP_TRIGGER_NODES)
}

/// [`solve_bounded`] with the node count at which the LP relaxation is
/// solved for the Lagrangian load bound.
fn search(
    costs: &CostMatrix,
    config: &ExactConfig,
    bound: Option<u64>,
    lp_trigger: u64,
) -> Result<ExactSolution, AssignError> {
    let n = costs.num_cores();
    let b = costs.num_tams();

    // Incumbent from the heuristic (always completes without a bound).
    let seed = core_assign(costs, None, &CoreAssignOptions::default())
        .into_result()
        .expect("unbounded core_assign always completes");
    let mut best_time = seed.soc_time();
    let mut best_assignment = seed.assignment().to_vec();

    // Branch order: cheapest-possible time, decreasing.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(costs.min_time(c)));

    // Suffix bounds over the branch order.
    let mut suffix_min_sum = vec![0u64; n + 1];
    let mut suffix_max_min = vec![0u64; n + 1];
    for i in (0..n).rev() {
        let m = costs.min_time(order[i]);
        suffix_min_sum[i] = suffix_min_sum[i + 1] + m;
        suffix_max_min[i] = suffix_max_min[i + 1].max(m);
    }

    struct Search<'a> {
        costs: &'a CostMatrix,
        order: &'a [usize],
        suffix_min_sum: &'a [u64],
        suffix_max_min: &'a [u64],
        loads: Vec<u64>,
        current: Vec<usize>,
        best_time: u64,
        /// Pruning threshold: `min(best_time, external bound)`. Kept
        /// separate from `best_time` so an external bound tightens the
        /// search without being mistaken for a found incumbent.
        prune_bound: u64,
        best_assignment: Vec<usize>,
        nodes: u64,
        node_limit: u64,
        budget: &'a SearchBudget,
        limited: bool,
        /// Node count at which `load_bound` is built.
        lp_trigger: u64,
        load_bound: Option<LoadBound>,
        /// One child buffer per depth, allocated once up front: the DFS
        /// hot loop must not pay a heap allocation per node (the buffers
        /// grow to `B` entries on first use and are reused thereafter).
        children: Vec<Vec<(u64, usize)>>,
    }

    impl Search<'_> {
        fn dfs(&mut self, depth: usize) {
            if self.limited {
                return;
            }
            self.nodes += 1;
            if self.nodes >= self.node_limit
                || (self.nodes % 4096 == 0 && self.budget.is_exhausted(self.nodes))
            {
                self.limited = true;
                return;
            }
            if self.nodes == self.lp_trigger {
                self.load_bound = LoadBound::from_lp(self.costs, self.order, &self.loads);
            }
            let b = self.loads.len();
            let current_max = self.loads.iter().copied().max().expect("non-empty");
            if depth == self.order.len() {
                if current_max < self.prune_bound {
                    self.best_time = current_max;
                    self.prune_bound = current_max;
                    self.best_assignment = self.current.clone();
                }
                return;
            }
            // Lower bounds.
            let total: u64 = self.loads.iter().sum::<u64>() + self.suffix_min_sum[depth];
            let avg = total.div_ceil(b as u64);
            let lb = current_max.max(avg).max(self.suffix_max_min[depth]);
            if lb >= self.prune_bound
                || self
                    .load_bound
                    .as_ref()
                    .is_some_and(|l| l.prunes(depth, self.prune_bound))
            {
                return;
            }
            let core = self.order[depth];
            // Children ordered by resulting load (most promising first),
            // with symmetric TAMs (same width, same load) deduplicated.
            // The buffer is taken out of the per-depth pool (and put
            // back below) so the recursive call can borrow `self`.
            let mut children = std::mem::take(&mut self.children[depth]);
            children.clear();
            for tam in 0..b {
                let duplicate = (0..tam).any(|t| {
                    self.costs.width(t) == self.costs.width(tam) && self.loads[t] == self.loads[tam]
                });
                if duplicate {
                    continue;
                }
                let new_load = self.loads[tam] + self.costs.time(core, tam);
                if new_load < self.prune_bound {
                    children.push((new_load, tam));
                }
            }
            children.sort_unstable();
            for &(_, tam) in &children {
                let cost = self.costs.time(core, tam);
                // Re-check against a possibly improved incumbent.
                if self.loads[tam] + cost >= self.prune_bound {
                    continue;
                }
                self.loads[tam] += cost;
                if let Some(l) = &mut self.load_bound {
                    l.add(tam, cost);
                }
                self.current[depth] = tam;
                self.dfs(depth + 1);
                self.loads[tam] -= cost;
                if let Some(l) = &mut self.load_bound {
                    l.remove(tam, cost);
                }
                if self.limited {
                    break;
                }
            }
            self.children[depth] = children;
        }
    }

    let mut search = Search {
        costs,
        order: &order,
        suffix_min_sum: &suffix_min_sum,
        suffix_max_min: &suffix_max_min,
        loads: vec![0; b],
        current: vec![0; n],
        best_time,
        prune_bound: best_time.min(bound.unwrap_or(u64::MAX)),
        best_assignment: best_assignment.clone(),
        nodes: 0,
        node_limit: config
            .node_limit
            .min(config.budget.node_budget().unwrap_or(u64::MAX))
            .max(1),
        budget: &config.budget,
        limited: config.node_limit == 0 || config.budget.node_budget() == Some(0),
        lp_trigger,
        load_bound: None,
        children: vec![Vec::new(); n],
    };
    search.dfs(0);
    best_time = search.best_time;
    // `current` is in branch order; translate back to core order when the
    // search improved on the seed.
    if best_time < seed.soc_time() {
        best_assignment = vec![0; n];
        for (depth, &core) in order.iter().enumerate() {
            best_assignment[core] = search.best_assignment[depth];
        }
    }
    let result = AssignResult::from_assignment(best_assignment, costs);
    debug_assert_eq!(result.soc_time(), best_time);
    Ok(ExactSolution {
        result,
        nodes: search.nodes,
        proven_optimal: !search.limited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TamSet;
    use proptest::prelude::*;
    use tamopt_soc::benchmarks;
    use tamopt_wrapper::TimeTable;

    fn brute_force(costs: &CostMatrix) -> u64 {
        brute_force_assignment(costs).soc_time()
    }

    /// An optimal assignment, found by trying every one.
    fn brute_force_assignment(costs: &CostMatrix) -> AssignResult {
        let n = costs.num_cores();
        let b = costs.num_tams();
        let mut best: Option<AssignResult> = None;
        let mut assignment = vec![0usize; n];
        loop {
            let r = AssignResult::from_assignment(assignment.clone(), costs);
            if best.as_ref().is_none_or(|b| r.soc_time() < b.soc_time()) {
                best = Some(r);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best.expect("at least one assignment");
                }
                assignment[i] += 1;
                if assignment[i] < b {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn matches_brute_force_on_figure2() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let expected = brute_force(&costs);
        let sol = solve(&costs, &ExactConfig::default()).unwrap();
        assert!(sol.proven_optimal);
        assert_eq!(sol.result.soc_time(), expected);
    }

    #[test]
    fn matches_brute_force_on_small_d695_instances() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 32).unwrap();
        for widths in [vec![8u32, 24], vec![16, 16], vec![4, 8, 20]] {
            let tams = TamSet::new(widths.clone()).unwrap();
            let costs = CostMatrix::from_table(&table, &tams).unwrap();
            let expected = brute_force(&costs);
            let sol = solve(&costs, &ExactConfig::default()).unwrap();
            assert_eq!(sol.result.soc_time(), expected, "widths {widths:?}");
            assert!(sol.proven_optimal);
        }
    }

    #[test]
    fn never_worse_than_heuristic() {
        let soc = benchmarks::p93791();
        let table = TimeTable::new(&soc, 64).unwrap();
        let tams = TamSet::new([10, 23, 31]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        let heuristic = core_assign(&costs, None, &CoreAssignOptions::default())
            .into_result()
            .unwrap();
        let sol = solve(&costs, &ExactConfig::default()).unwrap();
        assert!(sol.result.soc_time() <= heuristic.soc_time());
    }

    #[test]
    fn node_limit_zero_returns_heuristic_incumbent() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let sol = solve(
            &costs,
            &ExactConfig {
                node_limit: 0,
                budget: SearchBudget::unlimited(),
            },
        )
        .unwrap();
        assert!(!sol.proven_optimal);
        assert_eq!(sol.result.soc_time(), 200, "the heuristic's figure-2 time");
    }

    #[test]
    fn time_limit_is_respected() {
        let soc = benchmarks::p93791();
        let table = TimeTable::new(&soc, 64).unwrap();
        let tams = TamSet::new([6, 7, 8, 9, 10, 12, 12]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        let start = std::time::Instant::now();
        let sol = solve(
            &costs,
            &ExactConfig::with_time_limit(Duration::from_millis(50)),
        )
        .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(sol.result.soc_time() > 0);
    }

    #[test]
    fn single_tam_trivial() {
        let costs = CostMatrix::from_raw(vec![vec![5], vec![7]], vec![8]).unwrap();
        let sol = solve(&costs, &ExactConfig::default()).unwrap();
        assert_eq!(sol.result.soc_time(), 12);
        assert!(sol.proven_optimal);
    }

    #[test]
    fn loose_external_bound_changes_nothing() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let free = solve(&costs, &ExactConfig::default()).unwrap();
        let bounded = solve_bounded(&costs, &ExactConfig::default(), Some(u64::MAX - 1)).unwrap();
        assert_eq!(bounded.result, free.result);
        assert!(bounded.proven_optimal);
    }

    #[test]
    fn tight_external_bound_prunes_nodes() {
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 32).unwrap();
        let tams = TamSet::new([4, 8, 20]).unwrap();
        let costs = CostMatrix::from_table(&table, &tams).unwrap();
        let free = solve(&costs, &ExactConfig::default()).unwrap();
        assert!(free.proven_optimal);
        // A bound just above the optimum still admits it...
        let above = solve_bounded(
            &costs,
            &ExactConfig::default(),
            Some(free.result.soc_time() + 1),
        )
        .unwrap();
        assert_eq!(above.result.soc_time(), free.result.soc_time());
        assert!(above.proven_optimal);
        assert!(
            above.nodes <= free.nodes,
            "seeding can only prune: {} > {}",
            above.nodes,
            free.nodes
        );
        // ...while a bound at the optimum proves "nothing better" with
        // strictly fewer nodes and falls back to the heuristic seed.
        let at = solve_bounded(
            &costs,
            &ExactConfig::default(),
            Some(free.result.soc_time()),
        )
        .unwrap();
        assert!(at.proven_optimal);
        assert!(
            at.nodes < free.nodes,
            "a bound at the optimum must prune strictly: {} vs {}",
            at.nodes,
            free.nodes
        );
        assert!(at.result.soc_time() >= free.result.soc_time());
    }

    #[test]
    fn zero_bound_returns_the_heuristic_seed_quickly() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let sol = solve_bounded(&costs, &ExactConfig::default(), Some(0)).unwrap();
        assert!(sol.proven_optimal, "an empty search space is a proof");
        assert_eq!(sol.result.soc_time(), 200, "the heuristic's figure-2 time");
    }

    #[test]
    fn symmetric_tams_do_not_blow_up() {
        // 12 cores on 4 identical TAMs: symmetry pruning keeps this tiny.
        let rows: Vec<Vec<u64>> = (1..=12u64).map(|c| vec![c * 10; 4]).collect();
        let costs = CostMatrix::from_raw(rows, vec![8, 8, 8, 8]).unwrap();
        let sol = solve(&costs, &ExactConfig::default()).unwrap();
        assert!(sol.proven_optimal);
        // Σ = 780, perfect split = 195; LPT-reachable optimum is 200.
        assert!(sol.result.soc_time() >= 195);
        assert!(
            sol.nodes < 2_000_000,
            "symmetry pruning failed: {} nodes",
            sol.nodes
        );
    }

    /// Small matrices whose times depend only on the core and the TAM's
    /// width (as `Design_wrapper` makes them), with widths drawn from
    /// three values so that equal-width TAMs occur.
    fn arb_costs() -> impl Strategy<Value = CostMatrix> {
        (1usize..8, 1usize..5).prop_flat_map(|(cores, tams)| {
            let per_width =
                proptest::collection::vec(proptest::collection::vec(1u64..1000, 3), cores);
            let widths = proptest::collection::vec(1u32..4, tams);
            (per_width, widths).prop_map(|(per_width, widths)| {
                let rows = per_width
                    .iter()
                    .map(|times| widths.iter().map(|&w| times[w as usize - 1]).collect())
                    .collect();
                CostMatrix::from_raw(rows, widths).expect("shape is valid")
            })
        })
    }

    /// Checks that the weighted load of every prefix of an optimal
    /// assignment, plus the cheapest weighted rest, is at most `K` times
    /// the optimum, so the bound never cuts the optimum.
    fn assert_bound_admits_optimum(costs: &CostMatrix, weights: Vec<u64>) {
        let optimum = brute_force_assignment(costs);
        let order: Vec<usize> = (0..costs.num_cores()).collect();
        let mut loads = vec![0; costs.num_tams()];
        let Some(mut bound) = LoadBound::new(costs, &order, weights.clone(), &loads) else {
            assert!(
                weights.iter().all(|&k| k == 0),
                "only all-zero weights give no bound"
            );
            return;
        };
        let time = u128::from(optimum.soc_time());
        for depth in 0..=order.len() {
            assert!(
                bound.value(depth) <= bound.total * time,
                "{weights:?} at depth {depth}"
            );
            assert!(!bound.prunes(depth, optimum.soc_time() + 1));
            if let Some(&core) = order.get(depth) {
                let tam = optimum.assignment()[core];
                loads[tam] += costs.time(core, tam);
                bound.add(tam, costs.time(core, tam));
            }
        }
        let fresh = LoadBound::new(costs, &order, weights, &loads).expect("non-zero weights");
        assert_eq!(bound.weighted, fresh.weighted, "incremental weighted load");
    }

    #[test]
    fn load_bound_admits_the_optimum_at_extreme_weights() {
        let (widths, times) = benchmarks::figure2_cost_table();
        let costs = CostMatrix::from_raw(times, widths).unwrap();
        let b = costs.num_tams();
        assert_bound_admits_optimum(&costs, vec![0; b]);
        assert_bound_admits_optimum(&costs, vec![u64::MAX; b]);
        assert_bound_admits_optimum(&costs, vec![u64::MAX, 0, 1]);
        // LP-scale weights: the largest weight `WEIGHT_SCALE` takes.
        assert_bound_admits_optimum(&costs, vec![1 << 32; b]);
    }

    proptest! {
        /// Any non-negative integer weights give a valid bound: zero,
        /// small and full-range `u64` weights (whose products need
        /// `u128`) alike.
        #[test]
        fn load_bound_admits_the_optimum_for_any_weights(
            costs in arb_costs(),
            raw in proptest::collection::vec((any::<u64>(), 0u32..65), 4),
        ) {
            let weights = raw[..costs.num_tams()]
                .iter()
                .map(|&(k, shift)| k.checked_shr(shift).unwrap_or(0))
                .collect();
            assert_bound_admits_optimum(&costs, weights);
        }

        /// With the LP solved at the root, the search still proves the
        /// optimum and returns the assignment it returns without the
        /// bound, in no more nodes.
        #[test]
        fn lp_bound_from_node_one_matches_brute_force(costs in arb_costs()) {
            let config = ExactConfig::default();
            let plain = solve(&costs, &config).unwrap();
            let bounded = search(&costs, &config, None, 1).unwrap();
            prop_assert!(bounded.proven_optimal);
            prop_assert_eq!(bounded.result.soc_time(), brute_force(&costs));
            prop_assert_eq!(&bounded.result, &plain.result);
            prop_assert!(bounded.nodes <= plain.nodes);
        }
    }
}
