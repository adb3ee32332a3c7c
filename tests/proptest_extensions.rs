//! Property-based tests of the layers beyond the paper's tables on
//! randomly generated scenario SOCs: the wire-cycle decomposition of
//! the analysis module.

use proptest::prelude::*;
use tamopt_repro::analysis::UtilizationReport;
use tamopt_repro::soc::scenarios;
use tamopt_repro::Strategy as OptStrategy;
use tamopt_repro::{CoOptimizer, Soc};

/// One of the four scenario families at a random small size and seed.
fn arb_soc() -> impl Strategy<Value = Soc> {
    (0usize..4, 4usize..10, 0u64..1000).prop_map(|(family, cores, seed)| {
        let build = [
            scenarios::logic_heavy,
            scenarios::memory_heavy,
            scenarios::bottleneck,
            scenarios::uniform,
        ][family];
        build(cores, seed).expect("scenario sizes >= MIN_CORES")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// used + idle-wire waste + slack always equals the W x T budget.
    #[test]
    fn wire_cycle_budget_decomposes(soc in arb_soc(), width in 8u32..33, max_tams in 1u32..5) {
        let arch = CoOptimizer::new(soc, width)
            .max_tams(max_tams)
            .strategy(OptStrategy::Heuristic)
            .run()
            .expect("scenario SOCs are valid");
        let report = UtilizationReport::new(&arch);
        prop_assert_eq!(
            report.used_wire_cycles()
                + report.idle_wire_cycles()
                + report.slack_wire_cycles(),
            report.capacity_wire_cycles()
        );
    }
}
