//! Golden answers of the paper's free-B grid (`P_NPAW`, `B ≤ 10`): the
//! scan-dominated rows of Tables 3/7/13/19 that the `npaw` benchmark
//! workload runs, pinned to their winner time, TAM widths and Table 1
//! work counters (`enumerated completed aborted`).
//!
//! Any change to the partition scan — pruning, enumeration order, chunk
//! geometry — that moves a winner or a prune count fails here. The rows
//! mirror the `npaw` block of `perfbench/expected.txt`.
//!
//! Four more p93791 rows, whose exact final step needs 4.9–32.8 M nodes
//! to prove its answer, are pinned by an ignored test that runs in
//! release mode: `make exact-gate` (0.3–2.1 s per row on a 2-CPU host).

use tamopt_repro::partition::{co_optimize, PipelineConfig};
use tamopt_repro::{benchmarks, ParallelConfig, Soc, TimeTable};

/// `(soc, W, soc_time, tams, [enumerated, completed, aborted])`.
type Row = (&'static str, u32, u64, &'static [u32], [u64; 3]);

#[rustfmt::skip]
const NPAW: [Row; 29] = [
    ("d695", 16, 42645, &[3, 3, 5, 5], [212, 7, 205]),
    ("d695", 20, 34684, &[3, 5, 6, 6], [530, 13, 517]),
    ("d695", 24, 29975, &[8, 8, 8], [1204, 11, 1193]),
    ("d695", 28, 24770, &[2, 5, 5, 8, 8], [2534, 22, 2512]),
    ("d695", 32, 21566, &[4, 4, 6, 9, 9], [5013, 20, 4993]),
    ("d695", 36, 19757, &[4, 5, 7, 10, 10], [9418, 34, 9384]),
    ("d695", 40, 19034, &[4, 5, 7, 12, 12], [16928, 30, 16898]),
    ("d695", 44, 18564, &[4, 5, 7, 13, 15], [29292, 26, 29266]),
    ("d695", 48, 15300, &[4, 11, 16, 17], [49037, 26, 49011]),
    ("d695", 52, 14202, &[2, 7, 9, 17, 17], [79725, 40, 79685]),
    ("d695", 56, 13182, &[2, 4, 7, 11, 16, 16], [126299, 51, 126248]),
    ("d695", 60, 11978, &[5, 5, 6, 11, 16, 17], [195491, 71, 195420]),
    ("d695", 64, 11034, &[4, 5, 8, 11, 18, 18], [296320, 82, 296238]),
    ("p21241", 44, 389060, &[4, 4, 5, 5, 5, 7, 14], [29292, 91, 29201]),
    ("p21241", 48, 354689, &[3, 4, 4, 4, 4, 6, 7, 16], [49037, 105, 48932]),
    ("p21241", 52, 345839, &[3, 3, 7, 7, 7, 7, 18], [79725, 119, 79606]),
    ("p21241", 56, 332477, &[3, 4, 5, 5, 5, 5, 8, 21], [126299, 131, 126168]),
    ("p21241", 60, 325403, &[3, 5, 5, 5, 5, 5, 8, 24], [195491, 137, 195354]),
    ("p21241", 64, 319115, &[4, 4, 7, 7, 7, 8, 27], [296320, 106, 296214]),
    ("p31108", 28, 1019035, &[3, 5, 5, 7, 8], [2534, 22, 2512]),
    ("p31108", 48, 602021, &[5, 5, 5, 7, 13, 13], [49037, 77, 48960]),
    ("p31108", 52, 602021, &[6, 7, 9, 15, 15], [79725, 106, 79619]),
    ("p31108", 56, 602021, &[4, 11, 11, 15, 15], [126299, 107, 126192]),
    ("p31108", 60, 602021, &[4, 9, 14, 15, 18], [195491, 88, 195403]),
    ("p31108", 64, 602021, &[4, 9, 13, 18, 20], [296320, 79, 296241]),
    ("p93791", 48, 1879798, &[15, 16, 17], [49037, 18, 49019]),
    ("p93791", 52, 1715831, &[7, 15, 15, 15], [79725, 28, 79697]),
    ("p93791", 60, 1507487, &[12, 12, 18, 18], [195491, 54, 195437]),
    ("p93791", 64, 1476847, &[6, 6, 15, 15, 22], [296320, 69, 296251]),
];

fn soc(name: &str) -> Soc {
    match name {
        "d695" => benchmarks::d695(),
        "p21241" => benchmarks::p21241(),
        "p31108" => benchmarks::p31108(),
        "p93791" => benchmarks::p93791(),
        other => unreachable!("not a paper SOC: {other}"),
    }
}

/// The p93791 rows at `W ∈ {16, 24, 32, 36}`, `B ≤ 10`, whose exact
/// final step explores 4.9–32.8 M nodes, within the default
/// `ExactConfig` node limit of 50 M, and proves its answer optimal with
/// the Lagrangian load bound. Without that bound each stopped at the
/// node limit.
#[rustfmt::skip]
const SLOW: [Row; 4] = [
    ("p93791", 16, 5228615, &[2, 2, 3, 4, 5], [212, 9, 203]),
    ("p93791", 24, 3493679, &[3, 3, 5, 5, 8], [1204, 11, 1193]),
    ("p93791", 32, 2637039, &[4, 4, 6, 8, 10], [5013, 14, 4999]),
    ("p93791", 36, 2346817, &[5, 5, 7, 8, 11], [9418, 21, 9397]),
];

/// Solves one row cold at `threads`, checks it against the pin and
/// returns whether the exact final step proved its answer optimal.
fn check(row: &Row, threads: usize) -> bool {
    let &(name, width, time, tams, [enumerated, completed, aborted]) = row;
    let table = TimeTable::new(&soc(name), width).expect("paper widths are valid");
    let config = PipelineConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..PipelineConfig::up_to_tams(10)
    };
    let co = co_optimize(&table, width, &config).expect("paper queries are feasible");
    let at = format!("{name} W={width} threads={threads}");
    assert_eq!(co.soc_time(), time, "{at}: winner time");
    assert_eq!(co.tams.widths(), tams, "{at}: TAM widths");
    assert_eq!(
        [co.stats.enumerated, co.stats.completed, co.stats.aborted],
        [enumerated, completed, aborted],
        "{at}: enumerated completed aborted"
    );
    co.final_step_optimal
}

#[test]
fn npaw_rows_are_pinned_at_one_thread() {
    for row in &NPAW {
        assert!(check(row, 1), "{} W={}: final step proved", row.0, row.1);
    }
}

#[test]
fn npaw_w64_rows_are_pinned_at_four_threads() {
    let wide: Vec<&Row> = NPAW.iter().filter(|row| row.1 == 64).collect();
    assert_eq!(wide.len(), 4, "one W = 64 row per paper SOC");
    for row in wide {
        assert!(check(row, 4), "{} W={}: final step proved", row.0, row.1);
    }
}

#[test]
#[ignore = "up to 2 s per row in release mode; run by `make exact-gate`"]
fn p93791_slow_rows_are_pinned_and_proven() {
    for row in &SLOW {
        assert!(check(row, 1), "p93791 W={}: final step proved", row.1);
    }
}
