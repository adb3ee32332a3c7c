use tamopt_soc::Core;

use crate::{testing_time, WrapperError};

/// One wrapper scan chain: the internal scan chains threaded through it
/// plus the wrapper input/output cells placed on it.
///
/// On the scan-in path a pattern shifts through the chain's input cells
/// and then its scan cells (`scan_in_length`); on the scan-out path the
/// response shifts through the scan cells and then the output cells
/// (`scan_out_length`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLayout {
    /// Lengths of the internal scan chains threaded through this wrapper
    /// chain, in threading order.
    pub scan_chains: Vec<u32>,
    /// Wrapper input cells placed upstream of the scan cells.
    pub input_cells: u32,
    /// Wrapper output cells placed downstream of the scan cells.
    pub output_cells: u32,
}

impl ChainLayout {
    /// Total internal scan cells on this wrapper chain.
    pub fn scan_cells(&self) -> u64 {
        self.scan_chains.iter().map(|&l| u64::from(l)).sum()
    }

    /// Scan-in path length (input cells + scan cells).
    pub fn scan_in_length(&self) -> u64 {
        u64::from(self.input_cells) + self.scan_cells()
    }

    /// Scan-out path length (scan cells + output cells).
    pub fn scan_out_length(&self) -> u64 {
        self.scan_cells() + u64::from(self.output_cells)
    }

    /// Whether this chain carries anything at all.
    pub fn is_empty(&self) -> bool {
        self.scan_chains.is_empty() && self.input_cells == 0 && self.output_cells == 0
    }
}

/// The result of wrapper design for one core at one TAM width —
/// problem *P_W*.
///
/// Produced by [`design_wrapper`]. The design's two figures of merit are
/// [`test_time`](WrapperDesign::test_time) (priority 1 of the paper's
/// `Design_wrapper`) and [`used_width`](WrapperDesign::used_width)
/// (priority 2: TAM wires that actually carry a non-empty chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperDesign {
    width: u32,
    chains: Vec<ChainLayout>,
    scan_in: u64,
    scan_out: u64,
    patterns: u64,
    test_time: u64,
}

impl WrapperDesign {
    /// The TAM width the wrapper was designed for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The wrapper scan chains (one per TAM wire; trailing chains may be
    /// empty when the core cannot exploit the full width).
    pub fn chains(&self) -> &[ChainLayout] {
        &self.chains
    }

    /// The wrapper's scan-in length `s_i` (longest scan-in path).
    pub fn scan_in_length(&self) -> u64 {
        self.scan_in
    }

    /// The wrapper's scan-out length `s_o` (longest scan-out path).
    pub fn scan_out_length(&self) -> u64 {
        self.scan_out
    }

    /// Number of TAM wires actually used (non-empty chains).
    pub fn used_width(&self) -> u32 {
        self.chains.iter().filter(|c| !c.is_empty()).count() as u32
    }

    /// Core testing time in clock cycles,
    /// `(1 + max(s_i, s_o))·p + min(s_i, s_o)`.
    pub fn test_time(&self) -> u64 {
        self.test_time
    }
}

/// Designs a test wrapper for `core` at TAM width `width` — the
/// `Design_wrapper` algorithm of the paper's reference [8].
///
/// The algorithm:
///
/// 1. partitions the core-internal scan chains over `k` wrapper chains
///    with Best-Fit-Decreasing bin packing (longest chain to the
///    currently shortest wrapper chain), trying every `k ≤ min(width, s)`
///    and keeping the best — this realizes the published heuristic's
///    "built-in reluctance to create a new wrapper scan chain";
/// 2. distributes the wrapper input (output) cells over all `width`
///    chains by exact waterfilling, minimizing the maximum scan-in
///    (scan-out) path length;
/// 3. scores each candidate with the testing-time formula and prefers,
///    at equal time, the design using fewer TAM wires.
///
/// The returned design's testing time is non-increasing in `width`.
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `width == 0`.
///
/// # Example
///
/// ```
/// use tamopt_soc::Core;
/// use tamopt_wrapper::design_wrapper;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A memory core: terminals only.
/// let mem = Core::builder("m").inputs(40).outputs(39).patterns(1000).build()?;
/// let d = design_wrapper(&mem, 10)?;
/// // s_i = ceil(40/10), s_o = ceil(39/10).
/// assert_eq!(d.scan_in_length(), 4);
/// assert_eq!(d.scan_out_length(), 4);
/// assert_eq!(d.test_time(), (1 + 4) * 1000 + 4);
/// # Ok(())
/// # }
/// ```
pub fn design_wrapper(core: &Core, width: u32) -> Result<WrapperDesign, WrapperError> {
    if width == 0 {
        return Err(WrapperError::ZeroWidth);
    }
    let scan_count = core.scan_chains().len() as u32;
    let k_max = scan_count.min(width);
    let mut best: Option<WrapperDesign> = None;
    // k = 0 covers scan-less cores; for scan cores every bin count
    // 1..=k_max is tried and the fastest (then narrowest) design kept.
    let k_range = if k_max == 0 { 0..=0 } else { 1..=k_max };
    for k in k_range {
        let candidate = design_with_scan_bins(core, width, k);
        let better = match &best {
            None => true,
            Some(b) => {
                (candidate.test_time, candidate.used_width()) < (b.test_time, b.used_width())
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    Ok(best.expect("at least one candidate is always produced"))
}

/// The testing times of `core` at every TAM width `1..=max_width`
/// (`times[w - 1]`): the row of a [`TimeTable`](crate::TimeTable).
/// Entry `w - 1` equals `design_wrapper(core, w)?.test_time()` bit for
/// bit, but no wrapper chain is ever built.
///
/// Write `S` for the core's scan cells, `I` and `O` for its wrapper
/// input and output cells, `p` for its patterns, `s` for its number of
/// internal scan chains, `M_k` for the largest bin load when
/// Best-Fit-Decreasing packs the scan chains into `k` bins, and
/// `m(w) = min_{1 ≤ k ≤ min(s, w)} M_k` (`m = 0` for a scan-less core).
/// Then
///
/// ```text
/// s_i(w) = max(m(w), ⌈(S + I) / w⌉)
/// s_o(w) = max(m(w), ⌈(S + O) / w⌉)
/// T(w)   = testing_time(s_i(w), s_o(w), p)
/// ```
///
/// Why. [`design_wrapper`]'s candidate with `k` scan bins waterfills the
/// `I` input cells over its `k` loaded chains and `w − k` empty ones. The
/// water level is the smallest `L` with `Σ max(0, L − load) ≥ I`, and
/// draining the surplus never lowers the longest chain below `L`, since
/// level `L − 1` cannot hold all `I` cells. At any `L ≥ M_k` that sum is
/// `w·L − S`, so the scan-in length is `M_k` or `⌈(S + I)/w⌉`, whichever
/// is larger; scan-out is the same with `O`. [`testing_time`] is
/// non-decreasing in both lengths, so the fastest candidate is the one
/// with the smallest `M_k`. (The fewest-wires tie-break only chooses
/// among equally fast candidates.)
///
/// Cost: `min(s, max_width)` BFD passes, then O(1) per width, and three
/// allocations at most: the sorted chains, the bin loads and the row.
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] if `max_width == 0`.
///
/// # Example
///
/// ```
/// use tamopt_soc::Core;
/// use tamopt_wrapper::{design_wrapper, time_row};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let core = Core::builder("c")
///     .inputs(9)
///     .outputs(4)
///     .scan_chains([20, 12, 7])
///     .patterns(30)
///     .build()?;
/// let row = time_row(&core, 8)?;
/// for (w, &time) in (1..).zip(&row) {
///     assert_eq!(time, design_wrapper(&core, w)?.test_time());
/// }
/// # Ok(())
/// # }
/// ```
pub fn time_row(core: &Core, max_width: u32) -> Result<Vec<u64>, WrapperError> {
    if max_width == 0 {
        return Err(WrapperError::ZeroWidth);
    }
    let mut lengths = core.scan_chains().to_vec();
    lengths.sort_unstable_by(|a, b| b.cmp(a));
    let scan_in_cells = core.scan_cells() + u64::from(core.input_cells());
    let scan_out_cells = core.scan_cells() + u64::from(core.output_cells());
    let mut loads = Vec::with_capacity(lengths.len().min(max_width as usize));
    // m(w), the running minimum of M_k over k <= min(s, w).
    let mut longest = if lengths.is_empty() { 0 } else { u64::MAX };
    let row = (1..=max_width)
        .map(|w| {
            let bins = w as usize;
            if bins <= lengths.len() {
                longest = longest.min(bfd_max_load(&lengths, bins, &mut loads));
            }
            let wires = u64::from(w);
            let scan_in = longest.max(scan_in_cells.div_ceil(wires));
            let scan_out = longest.max(scan_out_cells.div_ceil(wires));
            testing_time(scan_in, scan_out, core.patterns())
        })
        .collect();
    Ok(row)
}

/// The bin Best-Fit-Decreasing fills next: the one with the least load
/// so far, the lowest index among equals.
fn least_loaded(loads: &[u64]) -> usize {
    (0..loads.len())
        .min_by_key(|&i| (loads[i], i))
        .expect("at least one bin")
}

/// `M_k`: the largest bin load after Best-Fit-Decreasing packs the
/// chain `lengths` (longest first) into `bins` bins. `loads` is scratch.
fn bfd_max_load(lengths: &[u32], bins: usize, loads: &mut Vec<u64>) -> u64 {
    loads.clear();
    loads.resize(bins, 0);
    for &len in lengths {
        let bin = least_loaded(loads);
        loads[bin] += u64::from(len);
    }
    loads.iter().copied().max().unwrap_or(0)
}

/// Builds one candidate design: internal scan chains packed into exactly
/// `scan_bins` wrapper chains, wrapper cells waterfilled over all
/// `width` chains.
fn design_with_scan_bins(core: &Core, width: u32, scan_bins: u32) -> WrapperDesign {
    let width_us = width as usize;
    let mut chains: Vec<ChainLayout> = (0..width_us)
        .map(|_| ChainLayout {
            scan_chains: Vec::new(),
            input_cells: 0,
            output_cells: 0,
        })
        .collect();

    if scan_bins > 0 {
        // Best-Fit-Decreasing: longest internal chain first, into the
        // wrapper chain with the least scan load so far.
        let mut order: Vec<u32> = core.scan_chains().to_vec();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let mut loads = vec![0u64; scan_bins as usize];
        for len in order {
            let bin = least_loaded(&loads);
            loads[bin] += u64::from(len);
            chains[bin].scan_chains.push(len);
        }
    }

    let scan_loads: Vec<u64> = chains.iter().map(ChainLayout::scan_cells).collect();
    let input_fill = waterfill(&scan_loads, u64::from(core.input_cells()));
    let output_fill = waterfill(&scan_loads, u64::from(core.output_cells()));
    for (i, chain) in chains.iter_mut().enumerate() {
        chain.input_cells = input_fill[i] as u32;
        chain.output_cells = output_fill[i] as u32;
    }

    let scan_in = chains
        .iter()
        .map(ChainLayout::scan_in_length)
        .max()
        .unwrap_or(0);
    let scan_out = chains
        .iter()
        .map(ChainLayout::scan_out_length)
        .max()
        .unwrap_or(0);
    let test_time = testing_time(scan_in, scan_out, core.patterns());
    WrapperDesign {
        width,
        chains,
        scan_in,
        scan_out,
        patterns: core.patterns(),
        test_time,
    }
}

/// Distributes `cells` wrapper cells over chains with fixed base loads
/// `bases`, minimizing the maximum of `base + cells_assigned`. Returns
/// the per-chain cell counts.
///
/// Exact integer waterfilling: binary-search the lowest level `L` such
/// that `Σ max(0, L - base_i) ≥ cells`, fill every chain up to `L`, then
/// drain the surplus from the *last* chains so that as few chains as
/// possible are touched (the "reluctance" tie-break).
fn waterfill(bases: &[u64], cells: u64) -> Vec<u64> {
    if cells == 0 || bases.is_empty() {
        return vec![0; bases.len()];
    }
    let max_base = bases.iter().copied().max().expect("non-empty");
    let mut lo = 0u64;
    let mut hi = max_base + cells; // always sufficient
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let capacity: u64 = bases.iter().map(|&b| mid.saturating_sub(b)).sum();
        if capacity >= cells {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let level = lo;
    let mut fill: Vec<u64> = bases.iter().map(|&b| level.saturating_sub(b)).collect();
    let mut surplus: u64 = fill.iter().sum::<u64>() - cells;
    for f in fill.iter_mut().rev() {
        if surplus == 0 {
            break;
        }
        let take = (*f).min(surplus);
        *f -= take;
        surplus -= take;
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    fn mem_core(inputs: u32, outputs: u32, patterns: u64) -> Core {
        Core::builder("m")
            .inputs(inputs)
            .outputs(outputs)
            .patterns(patterns)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_width_is_an_error() {
        let c = mem_core(1, 1, 1);
        assert_eq!(design_wrapper(&c, 0), Err(WrapperError::ZeroWidth));
    }

    #[test]
    fn waterfill_exact_levels() {
        assert_eq!(waterfill(&[], 5), Vec::<u64>::new());
        assert_eq!(waterfill(&[0, 0, 0], 0), vec![0, 0, 0]);
        // 7 cells over 3 empty chains -> level 3 with surplus drained
        // from the back: [3, 3, 1].
        assert_eq!(waterfill(&[0, 0, 0], 7), vec![3, 3, 1]);
        // Bases 5,1,0 and 3 cells -> level 2 suffices (capacity 0+1+2):
        // fills [0, 1, 2] with no surplus.
        assert_eq!(waterfill(&[5, 1, 0], 3), vec![0, 1, 2]);
    }

    #[test]
    fn waterfill_conserves_cells_and_minimizes_max() {
        let bases = [10, 4, 4, 0];
        for cells in 0..40u64 {
            let fill = waterfill(&bases, cells);
            assert_eq!(fill.iter().sum::<u64>(), cells);
            let level = bases
                .iter()
                .zip(&fill)
                .map(|(b, f)| b + f)
                .max()
                .expect("non-empty");
            // No level below is feasible.
            if level > 0 {
                let cap: u64 = bases.iter().map(|&b| (level - 1).saturating_sub(b)).sum();
                assert!(
                    cap < cells || level == *bases.iter().max().expect("non-empty"),
                    "cells={cells} level={level} not minimal"
                );
            }
        }
    }

    #[test]
    fn memory_core_matches_ceiling_formula() {
        let c = mem_core(40, 39, 1000);
        for w in 1..=48u32 {
            let d = design_wrapper(&c, w).unwrap();
            let si = 40_u64.div_ceil(u64::from(w));
            let so = 39_u64.div_ceil(u64::from(w));
            assert_eq!(d.scan_in_length(), si, "w={w}");
            assert_eq!(d.scan_out_length(), so, "w={w}");
            assert_eq!(d.test_time(), testing_time(si, so, 1000));
        }
    }

    #[test]
    fn scan_core_single_wire_serializes_everything() {
        let c = Core::builder("c")
            .inputs(3)
            .outputs(2)
            .scan_chains([10, 6])
            .patterns(7)
            .build()
            .unwrap();
        let d = design_wrapper(&c, 1).unwrap();
        assert_eq!(d.scan_in_length(), 3 + 16);
        assert_eq!(d.scan_out_length(), 16 + 2);
        assert_eq!(d.used_width(), 1);
    }

    #[test]
    fn test_time_non_increasing_in_width() {
        for core in benchmarks::d695().cores() {
            let mut prev = u64::MAX;
            for w in 1..=64 {
                let t = design_wrapper(core, w).unwrap().test_time();
                assert!(
                    t <= prev,
                    "{}: T({w})={t} > T({})={prev}",
                    core.name(),
                    w - 1
                );
                prev = t;
            }
        }
    }

    #[test]
    fn used_width_never_exceeds_requested() {
        for core in benchmarks::d695().cores() {
            for w in [1, 3, 8, 17, 64] {
                let d = design_wrapper(core, w).unwrap();
                assert!(d.used_width() <= w);
                assert_eq!(d.chains().len(), w as usize);
            }
        }
    }

    #[test]
    fn all_scan_chains_are_threaded() {
        for core in benchmarks::d695().cores() {
            for w in [1, 2, 5, 16, 32, 64] {
                let d = design_wrapper(core, w).unwrap();
                let mut threaded: Vec<u32> = d
                    .chains()
                    .iter()
                    .flat_map(|c| c.scan_chains.iter().copied())
                    .collect();
                let mut expected = core.scan_chains().to_vec();
                threaded.sort_unstable();
                expected.sort_unstable();
                assert_eq!(threaded, expected, "{} w={w}", core.name());
            }
        }
    }

    #[test]
    fn all_cells_are_placed() {
        for core in benchmarks::d695().cores() {
            for w in [1, 2, 5, 16, 32, 64] {
                let d = design_wrapper(core, w).unwrap();
                let ins: u32 = d.chains().iter().map(|c| c.input_cells).sum();
                let outs: u32 = d.chains().iter().map(|c| c.output_cells).sum();
                assert_eq!(ins, core.input_cells());
                assert_eq!(outs, core.output_cells());
            }
        }
    }

    #[test]
    fn reported_lengths_match_chain_layout() {
        for core in benchmarks::d695().cores() {
            let d = design_wrapper(core, 12).unwrap();
            let si = d
                .chains()
                .iter()
                .map(ChainLayout::scan_in_length)
                .max()
                .unwrap();
            let so = d
                .chains()
                .iter()
                .map(ChainLayout::scan_out_length)
                .max()
                .unwrap();
            assert_eq!(d.scan_in_length(), si);
            assert_eq!(d.scan_out_length(), so);
            assert_eq!(d.test_time(), testing_time(si, so, core.patterns()));
        }
    }

    #[test]
    fn bfd_balances_equal_chains() {
        let c = Core::builder("c")
            .scan_chains([8, 8, 8, 8])
            .inputs(1)
            .patterns(1)
            .build()
            .unwrap();
        let d = design_wrapper(&c, 4).unwrap();
        // Four equal chains over four wires: one each.
        assert_eq!(d.scan_in_length(), 9); // 8 scan + 1 input cell on one chain
        assert_eq!(d.scan_out_length(), 8);
        assert_eq!(d.used_width(), 4);
    }

    #[test]
    fn width_beyond_need_leaves_chains_empty() {
        let c = mem_core(2, 1, 3);
        let d = design_wrapper(&c, 8).unwrap();
        assert_eq!(d.used_width(), 2, "two input cells dominate");
        assert_eq!(d.test_time(), testing_time(1, 1, 3));
    }
}
