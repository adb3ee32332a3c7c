//! Workload inputs: the paper's query grids, the seeded serve request
//! stream with its synthetic SOCs, the `.soc` files the program reads,
//! and the in-process reference solve every answer is compared with.

use std::path::{Path, PathBuf};

use tamopt::partition::{
    co_optimize, co_optimize_frontier, co_optimize_top_k, CoOptimization, PipelineConfig,
};
use tamopt::soc::format::{parse_soc, write_soc};
use tamopt::soc::generator::{CoreClass, SocSpec};
use tamopt::{benchmarks, ParallelConfig, Soc, TimeTable};

use crate::stats::Rng;

pub const PAPER_SOCS: [&str; 4] = ["d695", "p21241", "p31108", "p93791"];

/// The paper's seven table rows.
pub const WIDTHS: [u32; 7] = [16, 24, 32, 40, 48, 56, 64];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    TopK(usize),
    Frontier { lo: u32, step: u32 },
}

/// One co-optimization query, named by SOC so it can be sent to the
/// daemon as a request line or run in-process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub soc: String,
    pub width: u32,
    pub min_tams: u32,
    pub max_tams: u32,
    pub kind: Kind,
}

impl Query {
    fn new(soc: &str, width: u32, min_tams: u32, max_tams: u32, kind: Kind) -> Self {
        Query {
            soc: soc.to_owned(),
            width,
            min_tams,
            max_tams,
            kind,
        }
    }

    /// The serve-protocol request line, naming the SOC by `soc_ref`.
    pub fn line(&self, soc_ref: &str) -> String {
        let mut line = format!("{soc_ref} {} {}", self.width, self.max_tams);
        if self.min_tams != 1 {
            line += &format!(" min-tams={}", self.min_tams);
        }
        match self.kind {
            Kind::Point => {}
            Kind::TopK(k) => line += &format!(" kind=topk:{k}"),
            Kind::Frontier { lo, step } => {
                line += &format!(" kind=frontier:{lo}..{}:{step}", self.width)
            }
        }
        line
    }

    /// The query's key in `expected.txt`: its request line with the
    /// SOC's name in place of a file path.
    pub fn key(&self) -> String {
        self.line(&self.soc)
    }

    pub fn is_paper(&self) -> bool {
        PAPER_SOCS.contains(&self.soc.as_str())
    }
}

/// The `npaw` widths per paper SOC: of the free-B grid at `W` = 16..64
/// step 4, the queries whose partition scan takes at least as long as
/// the exact final step on this commit. The 23 left out spend 3 ms to
/// 3.4 s in the exact step (p93791 below `W = 48` about 3 s each) behind
/// a scan of at most 152 ms, so they would measure the final step, not
/// the scan.
const NPAW_WIDTHS: [(&str, &[u32]); 4] = [
    (
        "d695",
        &[16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64],
    ),
    ("p21241", &[44, 48, 52, 56, 60, 64]),
    ("p31108", &[28, 48, 52, 56, 60, 64]),
    ("p93791", &[48, 52, 60, 64]),
];

/// `npaw`: the scan-dominated part of the free-B grid of Tables
/// 3/7/13/19 (`B ≤ 10`), at every fourth width.
pub fn npaw_pool() -> Vec<Query> {
    let mut pool = Vec::new();
    for (soc, widths) in NPAW_WIDTHS {
        for &w in widths {
            pool.push(Query::new(soc, w, 1, 10, Kind::Point));
        }
    }
    pool
}

/// `paw`: the fixed-B grid of Tables 2, 5–6, 9–12 and 15–18.
pub fn paw_pool() -> Vec<Query> {
    let mut pool = Vec::new();
    for soc in PAPER_SOCS {
        for w in WIDTHS {
            for b in [2, 3] {
                pool.push(Query::new(soc, w, b, b, Kind::Point));
            }
        }
    }
    pool
}

/// TAM-count cap of the serve stream's point requests per paper SOC, so
/// that no single request dominates a run: cold, the costliest capped
/// request takes about 0.1 s, while p93791 at `W = 16`, `B ≤ 3` spends
/// 1 s in the exact step and p31108 at `W = 40`, `B ≤ 4` 0.16 s.
fn serve_cap(soc: &str) -> u32 {
    match soc {
        "d695" => 5,
        "p93791" => 2,
        _ => 3,
    }
}

/// The paper-SOC requests of the serve stream: every round sends each
/// of them once, in a seeded order.
pub fn serve_pool() -> Vec<Query> {
    let mut pool = Vec::new();
    for soc in PAPER_SOCS {
        for w in WIDTHS {
            pool.push(Query::new(soc, w, 1, serve_cap(soc), Kind::Point));
        }
        for w in [24, 40, 56] {
            pool.push(Query::new(soc, w, 1, 2, Kind::TopK(2)));
        }
        for w in [32, 48] {
            pool.push(Query::new(soc, w, 1, 2, Kind::Frontier { lo: 16, step: 8 }));
        }
    }
    pool
}

/// Synthetic SOCs per serve round: never seen before, so always cold.
pub const VARIANTS_PER_ROUND: usize = 2;

/// A seeded `SocSpec` variant: cores drawn from the ranges of the
/// paper's Tables 4/8/14. Core counts and data volume are fixed, so
/// every variant costs about the same and the seed moves only the
/// cores' contents.
pub fn variant(seed: u64, round: usize, index: usize) -> Result<Soc, String> {
    let mut rng = Rng::new(seed ^ ((round as u64) << 20) ^ ((index as u64) << 52));
    SocSpec::new(format!("v{seed}_{round}_{index}"), rng.next_u64())
        .class(CoreClass::logic(
            "logic",
            7,
            (10, 800),
            (30, 600),
            (1, 24),
            (8, 400),
        ))
        .class(CoreClass::memory("mem", 4, (100, 6_000), (20, 120)))
        .target_complexity(6_000)
        .generate()
        .map_err(|e| format!("variant generation failed: {e}"))
}

/// One round of the serve stream: the whole paper pool plus three
/// requests on each fresh variant, shuffled by the seed.
pub struct Round {
    pub queries: Vec<Query>,
    pub variants: Vec<Soc>,
}

pub fn serve_round(seed: u64, round: usize) -> Result<Round, String> {
    let mut rng = Rng::new(seed.wrapping_mul(0x100_0001).wrapping_add(round as u64));
    let mut queries = serve_pool();
    let mut variants = Vec::new();
    for index in 0..VARIANTS_PER_ROUND {
        let soc = variant(seed, round, index)?;
        let name = soc.name().to_owned();
        let w = [16, 24, 32][rng.below(3)];
        queries.push(Query::new(&name, w, 1, 4, Kind::Point));
        queries.push(Query::new(&name, 24, 1, 3, Kind::TopK(2)));
        queries.push(Query::new(
            &name,
            32,
            1,
            2,
            Kind::Frontier { lo: 16, step: 8 },
        ));
        variants.push(soc);
    }
    rng.shuffle(&mut queries);
    Ok(Round { queries, variants })
}

fn paper_soc(name: &str) -> Soc {
    match name {
        "d695" => benchmarks::d695(),
        "p21241" => benchmarks::p21241(),
        "p31108" => benchmarks::p31108(),
        "p93791" => benchmarks::p93791(),
        other => unreachable!("not a paper SOC: {other}"),
    }
}

pub fn soc_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.soc"))
}

pub fn write_soc_file(dir: &Path, soc: &Soc) -> Result<(), String> {
    let path = soc_path(dir, soc.name());
    std::fs::write(&path, write_soc(soc)).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Writes the four paper SOCs as `.soc` files: the program reads only
/// generated files, never the built-in benchmark tables.
pub fn write_paper_socs(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    for name in PAPER_SOCS {
        write_soc_file(dir, &paper_soc(name))?;
    }
    Ok(())
}

pub fn load_soc(path: &Path) -> Result<Soc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse_soc(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

/// One architecture of an answer: its total width, testing time and
/// TAM widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub width: u32,
    pub time: u64,
    pub tams: Vec<u32>,
}

/// `Partition_evaluate`'s work counters (the paper's Table 1 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub enumerated: u64,
    pub completed: u64,
    pub aborted: u64,
}

impl Counts {
    pub fn add(&mut self, stats: tamopt::partition::PruneStats) {
        self.enumerated += stats.enumerated;
        self.completed += stats.completed;
        self.aborted += stats.aborted;
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub entries: Vec<Entry>,
    pub counts: Counts,
}

pub fn entry(width: u32, co: &CoOptimization) -> Entry {
    Entry {
        width,
        time: co.soc_time(),
        tams: co.tams.widths().to_vec(),
    }
}

/// The two-step pipeline's configuration for `query`, on one thread.
pub fn pipeline_config(query: &Query) -> PipelineConfig {
    PipelineConfig {
        min_tams: query.min_tams,
        max_tams: query.max_tams,
        parallel: ParallelConfig::with_threads(1),
        ..PipelineConfig::up_to_tams(query.max_tams)
    }
}

/// The total widths `query` is solved at.
pub fn swept_widths(query: &Query) -> Vec<u32> {
    match query.kind {
        Kind::Frontier { lo, step } => (lo..=query.width).step_by(step as usize).collect(),
        _ => vec![query.width],
    }
}

/// Solves `query` cold on one thread: `TimeTable::new`, then the
/// partition-layer call the service makes for its kind (`co_optimize`,
/// `co_optimize_top_k` or `co_optimize_frontier`). The in-process path
/// of the grid workloads and the reference of every check.
pub fn solve(soc: &Soc, query: &Query) -> Result<Answer, String> {
    let table = TimeTable::new(soc, query.width).map_err(|e| e.to_string())?;
    let config = pipeline_config(query);
    let mut counts = Counts::default();
    let entries = match query.kind {
        Kind::Point => {
            let co = co_optimize(&table, query.width, &config).map_err(|e| e.to_string())?;
            counts.add(co.stats);
            vec![entry(query.width, &co)]
        }
        Kind::TopK(k) => {
            let ranked =
                co_optimize_top_k(&table, query.width, &config, k).map_err(|e| e.to_string())?;
            counts.add(ranked.best().stats);
            ranked
                .entries
                .iter()
                .map(|co| entry(query.width, co))
                .collect()
        }
        Kind::Frontier { .. } => {
            let sweep = ParallelConfig::with_threads(1);
            let frontier = co_optimize_frontier(&table, &swept_widths(query), &config, &sweep)
                .map_err(|e| e.to_string())?;
            frontier
                .points
                .iter()
                .map(|(w, co)| {
                    counts.add(co.stats);
                    entry(*w, co)
                })
                .collect()
        }
    };
    Ok(Answer { entries, counts })
}
