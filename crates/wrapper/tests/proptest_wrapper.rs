//! Property-based tests of wrapper design (*P_W*) invariants.

use proptest::prelude::*;
use tamopt_soc::{Core, Soc};
use tamopt_wrapper::{design_wrapper, testing_time, time_row, ChainLayout, TimeTable};

/// Strategy for arbitrary (but valid) cores.
fn arb_core() -> impl Strategy<Value = Core> {
    (
        0u32..200,                                   // inputs
        0u32..200,                                   // outputs
        0u32..20,                                    // bidirs
        proptest::collection::vec(1u32..300, 0..12), // scan chains
        1u64..5000,                                  // patterns
    )
        .prop_filter_map("core must be non-empty", |(i, o, b, scan, p)| {
            Core::builder("c")
                .inputs(i)
                .outputs(o)
                .bidirs(b)
                .scan_chains(scan)
                .patterns(p)
                .build()
                .ok()
        })
}

/// Strategy for cores in every shape the closed-form time row must
/// cover: scan-less with bidirectional terminals only, terminal-only,
/// one scan chain, more scan chains than any tested width, equal
/// chains, and arbitrary chains; any shape may also drop all its inputs
/// or all its outputs.
fn arb_shaped_core() -> impl Strategy<Value = Core> {
    (
        0u32..6,                                      // shape
        (0u32..200, 0u32..200, 1u32..20),             // inputs, outputs, bidirs
        (any::<bool>(), any::<bool>()),               // zero inputs, zero outputs
        1u32..400,                                    // one chain's length
        proptest::collection::vec(1u32..300, 1..120), // arbitrary chains
        1u64..5000,                                   // patterns
    )
        .prop_filter_map(
            "core must be non-empty",
            |(shape, (i, o, b), (no_inputs, no_outputs), len, chains, p)| {
                let (i, o) = (
                    if no_inputs { 0 } else { i },
                    if no_outputs { 0 } else { o },
                );
                let (i, o, bidirs, scan) = match shape {
                    0 => (0, 0, b, Vec::new()),
                    1 => (i, o, 0, Vec::new()),
                    2 => (i, o, 0, vec![len]),
                    3 => (
                        i,
                        o,
                        0,
                        chains
                            .iter()
                            .copied()
                            .cycle()
                            .take(81 + chains.len())
                            .collect(),
                    ),
                    4 => (i, o, 0, vec![len; chains.len()]),
                    _ => (i, o, 0, chains),
                };
                Core::builder("c")
                    .inputs(i)
                    .outputs(o)
                    .bidirs(bidirs)
                    .scan_chains(scan)
                    .patterns(p)
                    .build()
                    .ok()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The time table's closed form equals the testing time of a full
    /// wrapper design at every width up to 80.
    #[test]
    fn time_table_equals_design_wrapper(core in arb_shaped_core(), max_width in 1u32..=80) {
        let soc = Soc::builder("s").core(core.clone()).build().expect("one named core");
        let table = TimeTable::new(&soc, max_width).expect("max_width >= 1");
        for w in 1..=max_width {
            let design = design_wrapper(&core, w).expect("w >= 1");
            prop_assert_eq!(table.time(0, w), design.test_time(), "w={}", w);
        }
    }

    /// A width's time does not depend on the widest width asked for:
    /// a shorter row is a prefix of a longer one.
    #[test]
    fn time_row_is_width_independent(core in arb_shaped_core(), a in 1u32..=80, b in 1u32..=80) {
        let (short, long) = (a.min(b), a.max(b));
        let long_row = time_row(&core, long).expect("long >= 1");
        prop_assert_eq!(time_row(&core, short).expect("short >= 1"), long_row[..short as usize].to_vec());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every internal scan chain is threaded exactly once, and every
    /// wrapper cell is placed exactly once, at any width.
    #[test]
    fn conservation(core in arb_core(), width in 1u32..80) {
        let d = design_wrapper(&core, width).expect("width >= 1");
        let mut threaded: Vec<u32> =
            d.chains().iter().flat_map(|c| c.scan_chains.iter().copied()).collect();
        let mut expected = core.scan_chains().to_vec();
        threaded.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(threaded, expected);
        let ins: u32 = d.chains().iter().map(|c| c.input_cells).sum();
        let outs: u32 = d.chains().iter().map(|c| c.output_cells).sum();
        prop_assert_eq!(ins, core.input_cells());
        prop_assert_eq!(outs, core.output_cells());
    }

    /// Reported scan-in/scan-out lengths equal the chain layout maxima,
    /// and the testing time follows the formula.
    #[test]
    fn reported_lengths_consistent(core in arb_core(), width in 1u32..80) {
        let d = design_wrapper(&core, width).expect("width >= 1");
        let si = d.chains().iter().map(ChainLayout::scan_in_length).max().unwrap_or(0);
        let so = d.chains().iter().map(ChainLayout::scan_out_length).max().unwrap_or(0);
        prop_assert_eq!(d.scan_in_length(), si);
        prop_assert_eq!(d.scan_out_length(), so);
        prop_assert_eq!(d.test_time(), testing_time(si, so, core.patterns()));
    }

    /// Testing time is non-increasing in TAM width (the staircase).
    #[test]
    fn monotone_in_width(core in arb_core(), width in 1u32..60) {
        let narrow = design_wrapper(&core, width).expect("width >= 1");
        let wide = design_wrapper(&core, width + 1).expect("width >= 1");
        prop_assert!(wide.test_time() <= narrow.test_time());
    }

    /// The design never claims more wires than requested, and unused
    /// chains are truly empty.
    #[test]
    fn width_accounting(core in arb_core(), width in 1u32..80) {
        let d = design_wrapper(&core, width).expect("width >= 1");
        prop_assert_eq!(d.chains().len() as u32, width);
        prop_assert!(d.used_width() <= width);
        let nonempty = d.chains().iter().filter(|c| !c.is_empty()).count() as u32;
        prop_assert_eq!(nonempty, d.used_width());
    }

    /// A lower bound: no wrapper can beat ceil(cells / width) on either
    /// path (cells can't share a wire in the same cycle).
    #[test]
    fn information_lower_bound(core in arb_core(), width in 1u32..80) {
        let d = design_wrapper(&core, width).expect("width >= 1");
        let in_bits = u64::from(core.input_cells()) + core.scan_cells();
        let out_bits = u64::from(core.output_cells()) + core.scan_cells();
        let si_lb = in_bits.div_ceil(u64::from(width));
        let so_lb = out_bits.div_ceil(u64::from(width));
        prop_assert!(d.scan_in_length() >= si_lb);
        prop_assert!(d.scan_out_length() >= so_lb);
    }

    /// Stitching policy: at full width (one wire per internal chain),
    /// the wrapper time is pinned by the longest internal chain, so
    /// balanced stitching never tests slower than a skewed (geometric)
    /// stitch of the same flip-flops.
    #[test]
    fn balanced_stitching_wins_at_full_width(
        cells in 8u32..2000,
        chains in 2u32..12,
        ratio in 1.2f64..4.0,
        io in 0u32..100,
        patterns in 1u64..2000,
    ) {
        let build = |lengths: Vec<u32>| {
            Core::builder("c")
                .inputs(io)
                .outputs(io)
                .scan_chains(lengths)
                .patterns(patterns)
                .build()
                .expect("cells >= 8 makes a non-empty core")
        };
        let balanced = build(tamopt_soc::stitch::balanced(cells, chains));
        let skewed = build(tamopt_soc::stitch::geometric(cells, chains, ratio));
        let width = chains.max(1);
        let d_bal = design_wrapper(&balanced, width).expect("width >= 1");
        let d_geo = design_wrapper(&skewed, width).expect("width >= 1");
        prop_assert!(
            d_bal.test_time() <= d_geo.test_time(),
            "balanced {} > geometric {}",
            d_bal.test_time(),
            d_geo.test_time()
        );
    }
}
