//! Cross-crate integration tests of the layers beyond the paper's
//! tables — the idle-wire utilization analysis behind its motivation
//! and the scenario generators — composed on top of the
//! paper-reproduction pipeline.

use tamopt_repro::analysis::UtilizationReport;
use tamopt_repro::soc::scenarios;
use tamopt_repro::{benchmarks, CoOptimizer};

#[test]
fn analysis_accounts_for_the_full_wire_cycle_budget_on_every_benchmark() {
    for soc in benchmarks::all() {
        let arch = CoOptimizer::new(soc.clone(), 32)
            .max_tams(4)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", soc.name()));
        let report = UtilizationReport::new(&arch);
        assert_eq!(
            report.used_wire_cycles() + report.idle_wire_cycles() + report.slack_wire_cycles(),
            report.capacity_wire_cycles(),
            "{}: wire-cycle budget must decompose exactly",
            soc.name()
        );
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
        assert_eq!(report.idle_wires(), arch.idle_wires(), "{}", soc.name());
    }
}

#[test]
fn scenarios_run_through_the_full_pipeline() {
    let socs = [
        scenarios::logic_heavy(12, 99).expect("valid"),
        scenarios::memory_heavy(12, 99).expect("valid"),
        scenarios::bottleneck(12, 99).expect("valid"),
        scenarios::uniform(12, 99).expect("valid"),
    ];
    for soc in socs {
        let arch = CoOptimizer::new(soc.clone(), 24)
            .max_tams(4)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", soc.name()));
        assert_eq!(arch.tams.total_width(), 24, "{}", soc.name());
    }
}

#[test]
fn bottleneck_scenario_saturates_at_the_core_lower_bound() {
    let soc = scenarios::bottleneck(10, 7).expect("valid");
    let wide = CoOptimizer::new(soc.clone(), 64)
        .max_tams(6)
        .run()
        .expect("valid");
    let table = tamopt_repro::TimeTable::new(&soc, 64).expect("positive width");
    let bound = (0..soc.num_cores())
        .map(|c| table.min_time(c))
        .max()
        .unwrap();
    // With 64 wires the giant core dominates; the architecture reaches
    // (or nearly reaches) the architecture-independent lower bound.
    assert!(
        wide.soc_time() as f64 <= bound as f64 * 1.05,
        "time {} strays from bound {bound}",
        wide.soc_time()
    );
}

#[test]
fn uniform_scenario_prefers_equal_partitions() {
    let soc = scenarios::uniform(8, 3).expect("valid");
    let arch = CoOptimizer::new(soc, 32).max_tams(8).run().expect("valid");
    let widths = arch.tams.widths();
    let (min, max) = (
        widths.iter().min().copied().unwrap(),
        widths.iter().max().copied().unwrap(),
    );
    assert!(
        max - min <= widths[0].max(2),
        "uniform cores should get near-uniform TAMs, got {}",
        arch.tams
    );
}
