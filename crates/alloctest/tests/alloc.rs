//! Counting-allocator proof of the scan hot path's allocation behavior:
//!
//! 1. after warm-up, running the `Core_assign` kernel on a partition's
//!    table columns performs **zero** heap allocations — the steady
//!    state of `partition_evaluate`'s inner loop;
//! 2. a whole `partition_evaluate` scan allocates **strictly less**
//!    than the seed path it replaced (a fresh `CostMatrix::from_table`
//!    plus an allocating `core_assign` per enumerated partition), and at
//!    most one allocation per enumerated partition plus a constant;
//! 3. enumerating partitions costs exactly one allocation per yielded
//!    partition (its own `Vec`): the successor is computed in place;
//! 4. building a `TimeTable` costs a constant number of allocations per
//!    core, however wide the table: no wrapper chain layout is built.
//!
//! The counter wraps the system allocator and counts every `alloc`
//! (reallocations included — they claim new blocks) **per thread**, so
//! the test harness's own threads and concurrently running tests never
//! leak into a measurement. Every measured section runs on the test's
//! thread: the scans use one worker, which the engine runs inline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tamopt_assign::{
    core_assign, core_assign_widths, AssignScratch, CoreAssignOptions, CostMatrix, TamSet,
    TimeColumns,
};
use tamopt_partition::enumerate::Partitions;
use tamopt_partition::{partition_evaluate, EvaluateConfig};
use tamopt_soc::benchmarks;
use tamopt_wrapper::TimeTable;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations the d695 `W = 32`, `B <= 4` scan may make beyond one per
/// enumerated partition (351): the abort gate's table, the time
/// columns, the engine's chunk and slot buffers, per-worker scratch
/// warm-up and the TAM sets and results of candidates entering the
/// ranking. The count is deterministic, and this is exactly what it
/// measured when the bound was set.
const SCAN_OVERHEAD_ALLOCATIONS: u64 = 92;

/// The same allowance for the d695 `W = 64`, `B <= 6` scan (26207
/// partitions, 82 completed), measured exactly. It does not depend on
/// how many partitions the abort gate skips: the gate's table replaced
/// the bottleneck-bound vector one for one and is filled on a worker's
/// kernel buffers. A per-partition cost matrix or a matrix cache would
/// add allocations per scored partition: the memo this replaced made
/// 85103 allocations on this scan, about 2.2 per partition beyond the
/// enumerator's.
const WIDE_SCAN_OVERHEAD_ALLOCATIONS: u64 = 1514;

/// Allocations `TimeTable::new` may make per core: the sorted copy of
/// its scan chains, the Best-Fit-Decreasing bin loads and its row of
/// times, whatever the width. The count is deterministic. For p93791
/// (32 cores, 14 with scan chains) at `W = 64` it measured 64 when this
/// bound was set: 32 rows, 2 × 14 scan buffers and 4 for the growing
/// vector of rows. Running `design_wrapper` per (core, width) instead
/// pays `w` chain layouts per candidate bin count: 377473 allocations.
const TABLE_ALLOCATIONS_PER_CORE: u64 = 3;

#[test]
fn time_table_build_allocates_a_constant_per_core() {
    let soc = benchmarks::p93791();
    let before = allocations();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let made = allocations() - before;
    let bound = TABLE_ALLOCATIONS_PER_CORE * soc.num_cores() as u64 + 2;
    assert!(
        made <= bound,
        "TimeTable::new(p93791, 64) made {made} allocations, more than \
         {TABLE_ALLOCATIONS_PER_CORE} per core plus 2 ({bound})"
    );
    assert_eq!(table.num_cores(), soc.num_cores());
}

#[test]
fn warm_hot_path_allocates_nothing_per_partition() {
    let table = TimeTable::new(&benchmarks::d695(), 32).expect("width 32 is valid");
    // Every unique partition of 32 wires into exactly 3 TAMs.
    let partitions: Vec<Vec<u32>> = Partitions::new(32, 3).collect();
    assert!(partitions.len() > 50, "enough shapes to be meaningful");
    let columns = TimeColumns::from_table(&table);
    let mut assign = AssignScratch::new();
    let options = CoreAssignOptions::default();

    // A mid-range bound so the steady-state pass mixes completed and
    // aborted evaluations, like the real τ-pruned scan.
    let tau = core_assign_widths(&columns, &partitions[0], None, &options, &mut assign)
        .expect("unbounded completes");

    let mut run_all = |bound: Option<u64>| {
        let mut completed = 0u64;
        for widths in &partitions {
            if core_assign_widths(&columns, widths, bound, &options, &mut assign).is_some() {
                completed += 1;
            }
        }
        completed
    };

    // Warm-up: buffers grow to the run's maximal shape.
    let completed = run_all(None);
    assert_eq!(completed as usize, partitions.len());

    let before = allocations();
    for _ in 0..5 {
        run_all(None);
        run_all(Some(tau));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state scan hot path must not allocate: {delta} allocations \
         over {} partition evaluations",
        10 * partitions.len()
    );
}

#[test]
fn enumeration_allocates_once_per_yielded_partition() {
    let partitions = Partitions::new(64, 6);
    let before = allocations();
    let mut yielded = 0u64;
    for widths in partitions {
        std::hint::black_box(widths);
        yielded += 1;
    }
    let delta = allocations() - before;
    assert_eq!(yielded, 17_180, "p(64, 6)");
    assert_eq!(
        delta, yielded,
        "one allocation per yielded partition: {delta} for {yielded}"
    );
}

#[test]
fn full_scan_allocates_strictly_less_than_the_seed_path() {
    let table = TimeTable::new(&benchmarks::d695(), 32).expect("width 32 is valid");
    let config = EvaluateConfig::up_to_tams(4);

    let before = allocations();
    let eval = partition_evaluate(&table, 32, &config).expect("valid configuration");
    let new_path = allocations() - before;

    // The seed path this PR replaced: enumerate the same partitions,
    // allocate a fresh matrix per partition, run the allocating
    // heuristic, carry τ sequentially.
    let before = allocations();
    let mut tau = u64::MAX;
    let mut best: Option<(u64, TamSet)> = None;
    let mut enumerated = 0u64;
    for b in 1..=4u32 {
        for widths in Partitions::new(32, b) {
            enumerated += 1;
            let tams = TamSet::new(widths).expect("parts are positive");
            let costs = CostMatrix::from_table(&table, &tams).expect("widths covered");
            let bound = if tau != u64::MAX { Some(tau) } else { None };
            if let Some(result) =
                core_assign(&costs, bound, &CoreAssignOptions::default()).into_result()
            {
                if result.soc_time() < tau {
                    tau = result.soc_time();
                    best = Some((tau, tams));
                }
            }
        }
    }
    let seed_path = allocations() - before;

    // Same search space, same winner.
    assert_eq!(enumerated, eval.stats.enumerated);
    let (seed_time, seed_tams) = best.expect("d695 W=32 is feasible");
    assert_eq!(seed_time, eval.result.soc_time());
    assert_eq!(seed_tams, eval.tams);

    assert!(
        new_path < seed_path,
        "the allocation-free scan must allocate strictly less than the \
         seed path: {new_path} vs {seed_path} over {enumerated} partitions"
    );
    // And not marginally: the seed path pays ~a dozen allocations per
    // partition, the new path amortizes to the enumerator's own output
    // (one `Vec` per partition) plus per-scan and per-chunk buffers.
    assert!(
        new_path <= enumerated + SCAN_OVERHEAD_ALLOCATIONS,
        "expected at most one allocation per partition plus \
         {SCAN_OVERHEAD_ALLOCATIONS}: {new_path} over {enumerated} partitions"
    );
}

#[test]
fn wide_scan_allocates_once_per_partition_plus_a_constant() {
    let table = TimeTable::new(&benchmarks::d695(), 64).expect("width 64 is valid");
    let before = allocations();
    let eval = partition_evaluate(&table, 64, &EvaluateConfig::up_to_tams(6))
        .expect("valid configuration");
    let made = allocations() - before;
    let enumerated = eval.stats.enumerated;
    assert_eq!(enumerated, 26_207, "partitions of 64 into at most 6 parts");
    assert!(
        made <= enumerated + WIDE_SCAN_OVERHEAD_ALLOCATIONS,
        "expected at most one allocation per partition plus \
         {WIDE_SCAN_OVERHEAD_ALLOCATIONS}: {made} over {enumerated} partitions"
    );
}
