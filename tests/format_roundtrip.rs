//! Integration tests for the `.soc` and ITC'02 exchange formats across
//! the stack: parse → optimize → export → re-parse → re-optimize must
//! agree.

use tamopt_repro::soc::format::{parse_soc, write_soc};
use tamopt_repro::soc::itc02::{parse_itc02, write_itc02};
use tamopt_repro::{benchmarks, CoOptimizer};

#[test]
fn optimization_invariant_under_format_roundtrip() {
    for soc in benchmarks::all() {
        let reparsed = parse_soc(&write_soc(&soc)).expect("round-trip parses");
        assert_eq!(reparsed, soc);
        let a = CoOptimizer::new(soc.clone(), 16)
            .max_tams(3)
            .run()
            .expect("valid run");
        let b = CoOptimizer::new(reparsed, 16)
            .max_tams(3)
            .run()
            .expect("valid run");
        assert_eq!(a.soc_time(), b.soc_time(), "{}", soc.name());
        assert_eq!(a.tams, b.tams);
    }
}

#[test]
fn handwritten_soc_file_optimizes() {
    let text = "\
# three-core toy SOC
soc toy
core alpha
  inputs 16
  outputs 16
  patterns 100
  scanchains 40 40 38
end
core beta
  inputs 8
  outputs 24
  patterns 60
  scanchains 20 20
end
core gamma
  inputs 30
  outputs 30
  patterns 5000
end
";
    let soc = parse_soc(text).expect("well-formed file");
    let arch = CoOptimizer::new(soc, 12)
        .max_tams(3)
        .run()
        .expect("valid run");
    assert_eq!(arch.tams.total_width(), 12);
    assert!(arch.soc_time() > 0);
}

#[test]
fn complexity_number_stable_across_roundtrip() {
    for soc in benchmarks::all() {
        let reparsed = parse_soc(&write_soc(&soc)).expect("round-trip parses");
        assert_eq!(reparsed.complexity_number(), soc.complexity_number());
    }
}

#[test]
fn itc02_roundtrip_preserves_optimization() {
    for soc in benchmarks::all() {
        let reparsed = parse_itc02(&write_itc02(&soc)).expect("own output parses");
        assert_eq!(reparsed, soc);
        let a = CoOptimizer::new(soc.clone(), 16)
            .max_tams(2)
            .run()
            .expect("valid run");
        let b = CoOptimizer::new(reparsed, 16)
            .max_tams(2)
            .run()
            .expect("valid run");
        assert_eq!(a.soc_time(), b.soc_time(), "{}", soc.name());
    }
}
