//! Golden answers of the paper's fixed-B grid (`P_PAW`, `B = 2` and
//! `B = 3` at `W = 16..64` step 8): the rows of Tables 2, 5–6, 9–12 and
//! 15–18 that the `paw` benchmark workload runs, pinned to their winner
//! time, TAM widths and Table 1 work counters (`enumerated completed
//! aborted`).
//!
//! These queries spend their time in the `TimeTable` build and the exact
//! final step, so any change to wrapper design, the time table or the
//! final step that moves a winner or a prune count fails here. The rows
//! mirror the `paw` block of `perfbench/expected.txt`. The d695 rows are
//! also held to the paper's published numbers.

use tamopt_bench::paper;
use tamopt_repro::partition::{co_optimize, PipelineConfig};
use tamopt_repro::{benchmarks, ParallelConfig, Soc, TimeTable};

/// `(soc, W, B, soc_time, tams, [enumerated, completed, aborted])`.
type Row = (&'static str, u32, u32, u64, &'static [u32], [u64; 3]);

#[rustfmt::skip]
const PAW: [Row; 56] = [
    ("d695", 16, 2, 44673, &[8, 8], [8, 7, 1]),
    ("d695", 16, 3, 43020, &[5, 5, 6], [21, 9, 12]),
    ("d695", 24, 2, 34408, &[12, 12], [12, 8, 4]),
    ("d695", 24, 3, 29975, &[8, 8, 8], [48, 15, 33]),
    ("d695", 32, 2, 25776, &[16, 16], [16, 14, 2]),
    ("d695", 32, 3, 24863, &[7, 12, 13], [85, 15, 70]),
    ("d695", 40, 2, 22699, &[20, 20], [20, 18, 2]),
    ("d695", 40, 3, 18449, &[6, 17, 17], [133, 21, 112]),
    ("d695", 48, 2, 22477, &[21, 27], [24, 17, 7]),
    ("d695", 48, 3, 17579, &[16, 16, 16], [192, 25, 167]),
    ("d695", 56, 2, 18705, &[23, 33], [28, 18, 10]),
    ("d695", 56, 3, 15491, &[18, 19, 19], [261, 42, 219]),
    ("d695", 64, 2, 18737, &[32, 32], [32, 21, 11]),
    ("d695", 64, 3, 15442, &[18, 19, 27], [341, 38, 303]),
    ("p21241", 16, 2, 1068647, &[6, 10], [8, 6, 2]),
    ("p21241", 16, 3, 1054491, &[5, 5, 6], [21, 10, 11]),
    ("p21241", 24, 2, 748351, &[8, 16], [12, 8, 4]),
    ("p21241", 24, 3, 712449, &[7, 7, 10], [48, 10, 38]),
    ("p21241", 32, 2, 663950, &[16, 16], [16, 13, 3]),
    ("p21241", 32, 3, 554235, &[8, 8, 16], [85, 22, 63]),
    ("p21241", 40, 2, 601626, &[19, 21], [20, 17, 3]),
    ("p21241", 40, 3, 485274, &[13, 13, 14], [133, 32, 101]),
    ("p21241", 48, 2, 574686, &[24, 24], [24, 22, 2]),
    ("p21241", 48, 3, 442634, &[16, 16, 16], [192, 43, 149]),
    ("p21241", 56, 2, 493190, &[28, 28], [28, 23, 5]),
    ("p21241", 56, 3, 407888, &[18, 18, 20], [261, 64, 197]),
    ("p21241", 64, 2, 471691, &[32, 32], [32, 31, 1]),
    ("p21241", 64, 3, 387684, &[20, 20, 24], [341, 49, 292]),
    ("p31108", 16, 2, 1896763, &[8, 8], [8, 7, 1]),
    ("p31108", 16, 3, 1647527, &[5, 5, 6], [21, 7, 14]),
    ("p31108", 24, 2, 1239719, &[11, 13], [12, 9, 3]),
    ("p31108", 24, 3, 1205436, &[3, 7, 14], [48, 10, 38]),
    ("p31108", 32, 2, 1144253, &[14, 18], [16, 11, 5]),
    ("p31108", 32, 3, 904086, &[6, 13, 13], [85, 15, 70]),
    ("p31108", 40, 2, 1082183, &[14, 26], [20, 13, 7]),
    ("p31108", 40, 3, 815289, &[10, 15, 15], [133, 25, 108]),
    ("p31108", 48, 2, 1033239, &[17, 31], [24, 15, 9]),
    ("p31108", 48, 3, 759426, &[11, 18, 19], [192, 31, 161]),
    ("p31108", 56, 2, 1033239, &[27, 29], [28, 22, 6]),
    ("p31108", 56, 3, 751966, &[18, 18, 20], [261, 50, 211]),
    ("p31108", 64, 2, 1033228, &[27, 37], [32, 14, 18]),
    ("p31108", 64, 3, 705277, &[18, 18, 28], [341, 36, 305]),
    ("p93791", 16, 2, 5349050, &[8, 8], [8, 6, 2]),
    ("p93791", 16, 3, 5262559, &[5, 5, 6], [21, 8, 13]),
    ("p93791", 24, 2, 3587257, &[8, 16], [12, 6, 6]),
    ("p93791", 24, 3, 3566034, &[8, 8, 8], [48, 13, 35]),
    ("p93791", 32, 2, 2841632, &[15, 17], [16, 9, 7]),
    ("p93791", 32, 3, 2679427, &[6, 10, 16], [85, 14, 71]),
    ("p93791", 40, 2, 2467370, &[16, 24], [20, 12, 8]),
    ("p93791", 40, 3, 2193125, &[8, 15, 17], [133, 20, 113]),
    ("p93791", 48, 2, 2192645, &[21, 27], [24, 17, 7]),
    ("p93791", 48, 3, 1879798, &[15, 16, 17], [192, 30, 162]),
    ("p93791", 56, 2, 1755101, &[21, 35], [28, 21, 7]),
    ("p93791", 56, 3, 1702040, &[18, 19, 19], [261, 46, 215]),
    ("p93791", 64, 2, 1839946, &[32, 32], [32, 29, 3]),
    ("p93791", 64, 3, 1543800, &[19, 21, 24], [341, 47, 294]),
];

/// The paper's seven table rows, the index of every `paper` time array.
const WIDTHS: [u32; 7] = [16, 24, 32, 40, 48, 56, 64];

/// How much longer than the paper's published time a d695 row may be
/// (the benchmark oracle's tolerance; the largest gap is +3.2%, free B,
/// `W = 40`).
const D695_MAX_WORSE: f64 = 0.05;

/// How much shorter than the published time a d695 row may be: this
/// reproduction beats the paper's heuristic by up to 14.7% (free B,
/// `W = 64`), and a row far below it points at a broken time model.
const D695_MAX_BETTER: f64 = 0.20;

fn soc(name: &str) -> Soc {
    match name {
        "d695" => benchmarks::d695(),
        "p21241" => benchmarks::p21241(),
        "p31108" => benchmarks::p31108(),
        "p93791" => benchmarks::p93791(),
        other => unreachable!("not a paper SOC: {other}"),
    }
}

/// Solves `name` at width `width` with `min_tams..=max_tams` TAMs, cold.
fn solve(
    name: &str,
    width: u32,
    min_tams: u32,
    max_tams: u32,
    threads: usize,
) -> (u64, Vec<u32>, [u64; 3]) {
    let table = TimeTable::new(&soc(name), width).expect("paper widths are valid");
    let config = PipelineConfig {
        min_tams,
        parallel: ParallelConfig::with_threads(threads),
        ..PipelineConfig::up_to_tams(max_tams)
    };
    let co = co_optimize(&table, width, &config).expect("paper queries are feasible");
    let stats = [co.stats.enumerated, co.stats.completed, co.stats.aborted];
    (co.soc_time(), co.tams.widths().to_vec(), stats)
}

/// Solves one row cold at `threads` and checks it against the pin.
fn check(row: &Row, threads: usize) {
    let &(name, width, tams, time, widths, counts) = row;
    let (soc_time, tam_widths, stats) = solve(name, width, tams, tams, threads);
    let at = format!("{name} W={width} B={tams} threads={threads}");
    assert_eq!(soc_time, time, "{at}: winner time");
    assert_eq!(tam_widths, widths, "{at}: TAM widths");
    assert_eq!(stats, counts, "{at}: enumerated completed aborted");
}

/// Asserts that a measured d695 time is within tolerance of the paper's.
fn assert_reproduces(measured: u64, published: u64, at: &str) {
    let delta = (measured as f64 - published as f64) / published as f64;
    assert!(
        (-D695_MAX_BETTER..=D695_MAX_WORSE).contains(&delta),
        "{at}: {measured} is {:+.2}% from the paper's {published}",
        delta * 100.0
    );
}

#[test]
fn paw_rows_are_pinned_at_one_thread() {
    for row in &PAW {
        check(row, 1);
    }
}

#[test]
fn paw_w64_rows_are_pinned_at_four_threads() {
    let wide: Vec<&Row> = PAW.iter().filter(|row| row.1 == 64).collect();
    assert_eq!(wide.len(), 8, "B = 2 and B = 3 at W = 64 per paper SOC");
    for row in wide {
        check(row, 4);
    }
}

#[test]
fn d695_fixed_b_rows_reproduce_the_paper() {
    for &(name, width, tams, time, ..) in PAW.iter().filter(|row| row.0 == "d695") {
        let index = WIDTHS
            .iter()
            .position(|&w| w == width)
            .expect("a paper width");
        let published = match tams {
            2 => paper::D695_B2.new_method[index],
            3 => paper::D695_B3.new_method[index],
            other => unreachable!("the grid has B = 2 and 3, not {other}"),
        };
        assert_reproduces(time, published, &format!("{name} W={width} B={tams}"));
    }
}

#[test]
fn d695_free_b_rows_reproduce_the_paper() {
    for (index, &width) in WIDTHS.iter().enumerate() {
        let (time, ..) = solve("d695", width, 1, paper::D695_NPAW.max_tams, 1);
        assert_reproduces(
            time,
            paper::D695_NPAW.times[index],
            &format!("d695 W={width} B<=10"),
        );
    }
}
