//! The untraced runs that produce the end-to-end metrics: the two paper
//! grids in-process, and the serve stream against a live daemon.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tamopt::service::{LiveConfig, LiveQueue, Request, RequestKind, RequestOutcome, StoreBinding};
use tamopt::store::{Store, StoreConfig};
use tamopt::Soc;

use crate::daemon::{Client, Daemon, Files};
use crate::inputs::{self, Answer, Query, PAPER_SOCS};
use crate::oracle::{self, Expected, D695_MAX_BETTER, D695_MAX_WORSE};
use crate::stats::{self, ms, Rng};
use crate::{Context, Failures, Report};

/// A serve run starts a second daemon every this many rounds; its
/// `setup_s` is the median of those starts and the serving daemon's
/// (about 1.7 ms each).
const SETUP_EVERY_ROUNDS: usize = 4;

/// A grid run loads its SOC files (about 0.09 ms) this many times in a
/// row before each pass; its `setup_s` is the median of a pass's loads,
/// at the pass where that median is lowest, like its latencies. Loads
/// timed between queries instead spread by 25% from run to run, as each
/// query leaves the caches in a different state.
const SETUPS_PER_PASS: usize = 16;

/// Work per second of `--seconds`, sized on a 2-CPU host at this commit:
/// a pass over the `npaw` grid takes 3.3 s, over the `paw` grid 3 s, and
/// a serve round 0.3 s, so a run takes about `--seconds`. Every run does
/// the same amount of work, so the sample count, and with it the tail's
/// percentile, does not change with the host's speed.
pub const NPAW_PASSES_PER_SECOND: f64 = 0.3;
pub const PAW_PASSES_PER_SECOND: f64 = 0.35;
const ROUNDS_PER_SECOND: f64 = 3.0;

/// A serve run's rounds fall into this many blocks of consecutive
/// rounds (15 rounds each at 25 s). Its latency and throughput metrics
/// are each taken at the block where they are best, the serve analogue
/// of the grids' best pass.
const SERVE_BLOCKS: usize = 5;

/// A run starts no further pass or round once it has taken this many
/// times `--seconds` (a host far slower than planned for).
const OVERRUN: u32 = 3;

/// How many passes or rounds a run of `seconds` makes.
fn planned(seconds: Duration, per_second: f64) -> usize {
    (seconds.as_secs_f64() * per_second).round().max(1.0) as usize
}

/// Paper SOCs whose answers are in the daemon's store before it starts,
/// so the stream mixes store-warm SOCs with cold ones.
const PRELOADED: [&str; 2] = ["d695", "p31108"];

pub fn load_paper_socs(dir: &Path) -> Result<HashMap<String, Soc>, String> {
    PAPER_SOCS
        .iter()
        .map(|&name| {
            Ok((
                name.to_owned(),
                inputs::load_soc(&inputs::soc_path(dir, name))?,
            ))
        })
        .collect()
}

/// Compares `answer` with the expected one and, for d695 rows, with the
/// paper; returns the first problem found.
fn check_grid_answer(query: &Query, answer: &Answer, expected: &Expected) -> Result<(), String> {
    let want = expected.answer(query)?;
    if answer != want {
        return Err(format!(
            "`{}`: got {:?}, expected {:?}",
            query.key(),
            answer,
            want
        ));
    }
    if let Some(published) = oracle::d695_paper_time(query) {
        let delta = oracle::delta(answer.entries[0].time, published);
        if !oracle::d695_within_tolerance(delta) {
            return Err(format!(
                "`{}`: {:+.2}% from the paper's {published}",
                query.key(),
                delta * 100.0
            ));
        }
    }
    Ok(())
}

fn print_d695_fidelity(pool: &[Query], expected: &Expected) -> Result<(), String> {
    println!(
        "d695 fidelity (measured vs paper, tolerance -{:.0}%..+{:.0}%):",
        D695_MAX_BETTER * 100.0,
        D695_MAX_WORSE * 100.0
    );
    for query in pool {
        if let Some(published) = oracle::d695_paper_time(query) {
            let measured = expected.answer(query)?.entries[0].time;
            println!(
                "  {:<18} measured {measured:>6}  paper {published:>6}  delta {:+.2}%",
                query.key(),
                oracle::delta(measured, published) * 100.0
            );
        }
    }
    Ok(())
}

/// `npaw` / `paw`: whole passes over the seeded-order grid, one cold
/// query ([`inputs::solve`]) at a time.
///
/// The host's speed changes in bursts of a few seconds (a CPU-bound
/// probe's 0.6 s medians jump between 15 and 21 ms while their minima
/// stay at 14–15 ms), so each query's latency is its best over the
/// run's passes, and the throughput is a pass at those best latencies.
pub fn run_grid(
    ctx: &Context,
    pool: Vec<Query>,
    passes_per_second: f64,
    expected: &Expected,
) -> Result<Report, String> {
    let soc_dir = ctx.work.join("socs");
    inputs::write_paper_socs(&soc_dir)?;
    print_d695_fidelity(&pool, expected)?;

    let mut order = pool;
    Rng::new(ctx.seed).shuffle(&mut order);
    let mut failures = Failures::default();
    let mut setup_s = f64::INFINITY;
    let mut best_ms = vec![f64::INFINITY; order.len()];
    let start = Instant::now();
    let planned = planned(ctx.seconds, passes_per_second);
    let mut passes = 0;
    while passes < planned && (passes == 0 || start.elapsed() < OVERRUN * ctx.seconds) {
        let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
        let mut socs = HashMap::new();
        for _ in 0..SETUPS_PER_PASS {
            let begin = Instant::now();
            socs = load_paper_socs(&soc_dir)?;
            setups.push(begin.elapsed().as_secs_f64());
        }
        for (query, best) in order.iter().zip(&mut best_ms) {
            let begin = Instant::now();
            let result = inputs::solve(&socs[&query.soc], query);
            *best = best.min(ms(begin.elapsed()));
            match result {
                Ok(answer) => failures.check(check_grid_answer(query, &answer, expected)),
                Err(e) => failures.fail(format!("`{}`: {e}", query.key())),
            }
        }
        setup_s = setup_s.min(stats::median(&setups));
        passes += 1;
    }
    println!(
        "passes over the grid: {passes} ({} queries each); latencies are each query's best pass",
        order.len()
    );
    let best_pass_s = best_ms.iter().sum::<f64>() / 1e3;
    Ok(Report::end_to_end(
        setup_s,
        stats::median(&best_ms),
        stats::tail(&best_ms),
        order.len() as f64 / best_pass_s,
        stats::peak_rss_mb("self")?,
        failures,
    ))
}

/// Fills a fresh store with the answers for the preloaded SOCs, through
/// an in-process queue bound to it (not timed).
pub fn preload_store(path: &Path, soc_dir: &Path) -> Result<(), String> {
    let store = Store::open(path, StoreConfig::default()).map_err(|e| e.to_string())?;
    let config = LiveConfig {
        store: Some(StoreBinding::new(store)),
        ..LiveConfig::with_threads(1)
    };
    let queue = LiveQueue::start(config);
    let mut submitted = 0;
    for query in inputs::serve_pool() {
        if PRELOADED.contains(&query.soc.as_str()) {
            let soc = inputs::load_soc(&inputs::soc_path(soc_dir, &query.soc))?;
            queue
                .submit(request(soc, &query)?)
                .map_err(|e| e.to_string())?;
            submitted += 1;
        }
    }
    for _ in 0..submitted {
        queue.recv_outcome().ok_or("preload queue closed early")?;
    }
    queue.shutdown().ok_or("preload queue already shut down")?;
    Ok(())
}

/// The service-layer request for `query`.
pub fn request(soc: Soc, query: &Query) -> Result<Request, String> {
    let kind = match query.kind {
        inputs::Kind::Point => RequestKind::Point,
        inputs::Kind::TopK(k) => RequestKind::TopK { k },
        inputs::Kind::Frontier { lo, step } => RequestKind::Frontier {
            min_width: lo,
            max_width: query.width,
            step,
        },
    };
    Ok(Request::new(soc, query.width)
        .map_err(|e| e.to_string())?
        .min_tams(query.min_tams)
        .max_tams(query.max_tams)
        .kind(kind))
}

/// An in-process queue that solves every request cold: the reference of
/// the service's answers.
pub fn cold_queue() -> LiveQueue {
    LiveQueue::start(LiveConfig {
        warm_start: false,
        ..LiveConfig::with_threads(1)
    })
}

/// Submits `query` to `queue` and waits for its outcome (the queue has
/// nothing else in flight).
pub fn solve_on(queue: &LiveQueue, soc: Soc, query: &Query) -> Result<RequestOutcome, String> {
    queue
        .submit(request(soc, query)?)
        .map_err(|e| e.to_string())?;
    queue
        .recv_outcome()
        .ok_or_else(|| "queue closed".to_owned())
}

/// `completed` evaluations an outcome's scans did, summed like
/// [`Answer::counts`] (once per scan: a top-K ranking shares one).
pub fn outcome_completed(outcome: &RequestOutcome) -> u64 {
    match outcome.kind {
        RequestKind::Frontier { .. } => outcome
            .results
            .iter()
            .map(|e| e.result.stats.completed)
            .sum(),
        _ => outcome.result.as_ref().map_or(0, |co| co.stats.completed),
    }
}

/// One answered serve request: what was asked, the daemon's line and
/// the client-side latency.
pub struct Exchange {
    pub query: Query,
    pub response: String,
    pub latency: Duration,
}

/// Sends `queries` split over `clients` (query `i` goes to client
/// `i % clients.len()`), each client a closed loop on its own thread.
/// Returns the exchanges in query order.
pub fn drive(
    clients: &mut [Client],
    queries: &[Query],
    soc_dir: &Path,
) -> Result<Vec<Exchange>, String> {
    let n = clients.len();
    let per_client: Vec<Result<Vec<(usize, Exchange)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, query) in queries.iter().enumerate().skip(c).step_by(n) {
                        let path = inputs::soc_path(soc_dir, &query.soc);
                        let (response, latency) =
                            client.request(&query.line(&path.display().to_string()))?;
                        let query = query.clone();
                        out.push((
                            i,
                            Exchange {
                                query,
                                response,
                                latency,
                            },
                        ));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut exchanges = Vec::with_capacity(queries.len());
    for result in per_client {
        exchanges.extend(result?);
    }
    exchanges.sort_by_key(|(i, _)| *i);
    Ok(exchanges.into_iter().map(|(_, e)| e).collect())
}

/// Reference winners ([`oracle::winner`]) and cold `completed` counts:
/// pinned ones for paper SOCs, cold in-process solves (memoized) for the
/// seeded variants.
pub struct References<'a> {
    pub expected: &'a Expected,
    pub variants: HashMap<String, Soc>,
    cold: LiveQueue,
    solved: HashMap<String, (String, u64)>,
}

impl<'a> References<'a> {
    pub fn new(expected: &'a Expected) -> Self {
        References {
            expected,
            variants: HashMap::new(),
            cold: cold_queue(),
            solved: HashMap::new(),
        }
    }

    /// The winner `query` must get and the `completed` count of its cold
    /// solve.
    pub fn reference(&mut self, query: &Query) -> Result<(&str, u64), String> {
        if query.is_paper() {
            let completed = self.expected.answer(query)?.counts.completed;
            return Ok((self.expected.winner(query)?, completed));
        }
        if !self.solved.contains_key(&query.key()) {
            let soc = self
                .variants
                .get(&query.soc)
                .ok_or_else(|| format!("unknown variant {}", query.soc))?;
            let outcome = solve_on(&self.cold, soc.clone(), query)?;
            let winner = oracle::winner(&outcome.to_json_line())?;
            self.solved
                .insert(query.key(), (winner, outcome_completed(&outcome)));
        }
        let (winner, completed) = &self.solved[&query.key()];
        Ok((winner, *completed))
    }

    /// Checks one outcome line against the reference winner.
    pub fn check(&mut self, query: &Query, line: &str) -> Result<(), String> {
        let got = oracle::winner(line).map_err(|e| format!("`{}`: {e}", query.key()))?;
        let (want, _) = self.reference(query)?;
        if got != want {
            return Err(format!("`{}`: got {got}, expected {want}", query.key()));
        }
        Ok(())
    }
}

/// `serve`: a real daemon driven by two closed-loop clients, round
/// after round of the seeded stream, until `--seconds` have passed.
///
/// Latencies include queueing behind the other client, so one request
/// has no best round of its own; instead each metric is taken over all
/// requests of a block of rounds, at the best of [`SERVE_BLOCKS`].
pub fn run_serve(ctx: &Context, expected: &Expected) -> Result<Report, String> {
    let soc_dir = ctx.work.join("socs");
    inputs::write_paper_socs(&soc_dir)?;
    let files = Files::in_dir(&ctx.work, "serve");
    preload_store(&files.store, &soc_dir)?;

    // The set-up daemons start on a copy of the preloaded store and
    // serve nothing, so every start loads the same store.
    let setup_files = Files::in_dir(&ctx.work, "setup");
    std::fs::copy(&files.store, &setup_files.store).map_err(|e| e.to_string())?;
    let (daemon, took) = Daemon::spawn(&ctx.tamopt, &files)?;
    let mut setups = vec![took.as_secs_f64()];
    let mut clients = vec![
        Client::connect(&files.socket)?,
        Client::connect(&files.socket)?,
    ];

    let planned = planned(ctx.seconds, ROUNDS_PER_SECOND);
    let mut references = References::new(expected);
    let mut exchanges = Vec::new();
    // Per round: its first exchange and its wall-clock time.
    let mut round_start = Vec::new();
    let mut round_s = Vec::new();
    let mut measured = Duration::ZERO;
    let mut rounds = 0;
    while rounds < planned && (rounds == 0 || measured < OVERRUN * ctx.seconds) {
        let round = inputs::serve_round(ctx.seed, rounds)?;
        for soc in round.variants {
            inputs::write_soc_file(&soc_dir, &soc)?;
            references.variants.insert(soc.name().to_owned(), soc);
        }
        round_start.push(exchanges.len());
        let start = Instant::now();
        exchanges.extend(drive(&mut clients, &round.queries, &soc_dir)?);
        let took = start.elapsed();
        round_s.push(took.as_secs_f64());
        measured += took;
        rounds += 1;
        if rounds % SETUP_EVERY_ROUNDS == 0 {
            let (setup, took) = Daemon::spawn(&ctx.tamopt, &setup_files)?;
            setups.push(took.as_secs_f64());
            setup.stop()?;
        }
    }
    let peak_rss = daemon.peak_rss_mb()?;
    drop(clients);
    daemon.stop()?;
    println!(
        "rounds of the serve stream: {rounds} ({} requests each)",
        exchanges.len() / rounds
    );

    let mut failures = Failures::default();
    let mut latencies = Vec::with_capacity(exchanges.len());
    for exchange in &exchanges {
        latencies.push(ms(exchange.latency));
        failures.check(references.check(&exchange.query, &exchange.response));
    }
    round_start.push(exchanges.len());
    let blocks = SERVE_BLOCKS.min(rounds);
    let (mut p50_ms, mut tail, mut queries_per_s) = (f64::INFINITY, None, 0.0);
    for b in 0..blocks {
        let (first, last) = (b * rounds / blocks, (b + 1) * rounds / blocks);
        let block = &latencies[round_start[first]..round_start[last]];
        let block_tail = stats::tail(block);
        p50_ms = stats::median(block).min(p50_ms);
        if tail.is_none_or(|t: stats::Tail| block_tail.value < t.value) {
            tail = Some(block_tail);
        }
        let seconds: f64 = round_s[first..last].iter().sum();
        queries_per_s = (block.len() as f64 / seconds).max(queries_per_s);
    }
    println!("latency and throughput: the best of {blocks} blocks of consecutive rounds");
    Ok(Report::end_to_end(
        stats::median(&setups),
        p50_ms,
        tail.expect("a run has at least one round"),
        queries_per_s,
        peak_rss,
        failures,
    ))
}
