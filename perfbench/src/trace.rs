//! The traced run (`--trace 1`): the workload's queries pushed through
//! each layer's public functions, with a span recorded around every
//! call, kept in memory and written to `spans.jsonl` at the end.
//!
//! Phases, in order:
//! 1. split — each pool query as `TimeTable::new` → `partition_evaluate`
//!    → `CostMatrix::from_table` + `exact::solve`, checked against the
//!    fused `co_optimize` call before its spans are kept, and run once
//!    more with recording off for the tracing overhead; then a separate
//!    pass of pure `Partitions` enumeration;
//! 2. `core::cli::parse_request_line` over the request stream;
//! 3. the stream through an in-process `LiveQueue` (closed loop), with
//!    `RequestOutcome::to_json_line` on every outcome, and through a
//!    `tamopt serve` daemon (no journal) over its socket: each request
//!    goes to both, in alternating order;
//! 4. `Store::open` / `Store::save` on the queue's store;
//! 5. `Journal::append` replaying the stream's Submit/Sealed records
//!    under `SyncPolicy::Always`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tamopt::assign::exact::{self, ExactConfig};
use tamopt::partition::enumerate::Partitions;
use tamopt::partition::{
    co_optimize_frontier, partition_evaluate_top_k, EvaluateConfig, RankedPartition,
};
use tamopt::service::{LiveConfig, LiveQueue, StoreBinding};
use tamopt::store::{Journal, JournalRecord, Store, StoreConfig, SyncPolicy};
use tamopt::{CostMatrix, ParallelConfig, Soc, TimeTable};

use crate::daemon::{Client, Daemon, Files};
use crate::inputs::{
    self, entry, pipeline_config, swept_widths, Answer, Counts, Entry, Kind, Query,
};
use crate::oracle::Expected;
use crate::stats::{self, ms, Rng};
use crate::workloads::{self, References};
use crate::{Context, Failures, Report};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    query: usize,
}

/// In-memory span recorder. Spans nest through `in_span`; a span's
/// parent is the span open when it started. A disabled tracer runs the
/// same calls and records nothing.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn in_span<T>(
        &mut self,
        name: &'static str,
        query: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Span time minus the time its direct children cover, summed per
    /// span name: `(total self ns, span count)`.
    fn self_times(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                child_ns[parent] += self.duration_ns(id);
            }
        }
        let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let entry = totals.entry(span.name).or_default();
            entry.0 += self.duration_ns(id).saturating_sub(child_ns[id]);
            entry.1 += 1;
        }
        totals
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"query\": {}}}",
                s.name, s.start_ns, s.end_ns, s.query
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// The split of one query into its public steps, each in its own span
/// under a `query` root. A frontier sweep is one partition-layer call
/// (`co_optimize_frontier`), so its `partition.scan` span also covers
/// the sweep's final steps. Returns the answer and, per exact solve,
/// whether it was proven optimal.
fn split(
    t: &mut Tracer,
    id: usize,
    soc: &Soc,
    query: &Query,
) -> Result<(Answer, Vec<bool>), String> {
    t.in_span("query", id, |t| {
        let table = t
            .in_span("wrapper.table", id, |_| TimeTable::new(soc, query.width))
            .map_err(|e| e.to_string())?;
        let config = pipeline_config(query);
        let mut counts = Counts::default();
        let mut proven = Vec::new();
        let entries = match query.kind {
            Kind::Point | Kind::TopK(_) => {
                let k = if let Kind::TopK(k) = query.kind { k } else { 1 };
                let eval = EvaluateConfig {
                    min_tams: query.min_tams,
                    max_tams: query.max_tams,
                    parallel: ParallelConfig::with_threads(1),
                    ..EvaluateConfig::up_to_tams(query.max_tams)
                };
                let ranked = t
                    .in_span("partition.scan", id, |_| {
                        partition_evaluate_top_k(&table, query.width, &eval, k)
                    })
                    .map_err(|e| e.to_string())?;
                counts.add(ranked.stats);
                let mut entries = Vec::new();
                for RankedPartition { tams, result } in ranked.entries {
                    let solution = t.in_span("assign.exact", id, |_| {
                        let costs = CostMatrix::from_table(&table, &tams)?;
                        exact::solve(&costs, &ExactConfig::default())
                    });
                    let solution = solution.map_err(|e| e.to_string())?;
                    proven.push(solution.proven_optimal);
                    let time = solution.result.soc_time().min(result.soc_time());
                    entries.push(Entry {
                        width: query.width,
                        time,
                        tams: tams.widths().to_vec(),
                    });
                }
                // Step 2 can reorder the ranking; ties keep scan order.
                entries.sort_by_key(|e| e.time);
                entries
            }
            Kind::Frontier { .. } => {
                let sweep = ParallelConfig::with_threads(1);
                let frontier = t
                    .in_span("partition.scan", id, |_| {
                        co_optimize_frontier(&table, &swept_widths(query), &config, &sweep)
                    })
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
        Ok((Answer { entries, counts }, proven))
    })
}

/// Pure enumeration of the query's partition space, as its own pass.
fn enumerate(t: &mut Tracer, id: usize, query: &Query) -> u64 {
    t.in_span("partition.enumerate", id, |_| {
        let mut n = 0u64;
        for w in swept_widths(query) {
            for b in query.min_tams..=query.max_tams {
                for partition in Partitions::new(w, b) {
                    black_box(&partition);
                    n += 1;
                }
            }
        }
        n
    })
}

/// The request stream pushed through the service, journal and network
/// layers: the pool itself for the grids, the first rounds of the
/// seeded stream for `serve`.
fn stream(
    ctx: &Context,
    pool: &[Query],
    soc_dir: &Path,
    refs: &mut References,
) -> Result<Vec<Query>, String> {
    if ctx.workload != "serve" {
        return Ok(pool.to_vec());
    }
    let mut queries = Vec::new();
    for r in 0..2 {
        let round = inputs::serve_round(ctx.seed, r)?;
        for soc in round.variants {
            inputs::write_soc_file(soc_dir, &soc)?;
            refs.variants.insert(soc.name().to_owned(), soc);
        }
        queries.extend(round.queries);
    }
    Ok(queries)
}

pub fn run(ctx: &Context, expected: &Expected) -> Result<Report, String> {
    let mut pool = match ctx.workload.as_str() {
        "npaw" => inputs::npaw_pool(),
        "paw" => inputs::paw_pool(),
        _ => inputs::serve_pool(),
    };
    Rng::new(ctx.seed).shuffle(&mut pool);
    let soc_dir = ctx.work.join("socs");
    inputs::write_paper_socs(&soc_dir)?;
    let paper = workloads::load_paper_socs(&soc_dir)?;
    let mut failures = Failures::default();
    let mut t = Tracer::new(true);
    let mut untraced = Tracer::new(false);

    // 1. The split, checked against the fused call before it is kept.
    let mut direct_ms: HashMap<String, f64> = HashMap::new();
    let mut overheads = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut totals = Counts::default();
    let mut proven = Vec::new();
    let mut enumerated_pass = 0u64;
    for (id, query) in pool.iter().enumerate() {
        let soc = &paper[&query.soc];
        let begin = Instant::now();
        let reference = inputs::solve(soc, query);
        let reference_ms = ms(begin.elapsed());
        // The same split untraced and traced, in alternating order so
        // that neither always runs on the other's warm caches.
        let mark = t.spans.len();
        let time_split = |tracer: &mut Tracer| {
            let begin = Instant::now();
            let out = split(tracer, id, soc, query);
            (out, ms(begin.elapsed()))
        };
        let ((traced, on_ms), (plain, off_ms)) = if id % 2 == 0 {
            let off = time_split(&mut untraced);
            (time_split(&mut t), off)
        } else {
            let on = time_split(&mut t);
            (on, time_split(&mut untraced))
        };
        let verdict = match (&reference, &traced, &plain) {
            (Ok(want), Ok((got, _)), _) if got != want => Err(format!(
                "`{}`: split gave {got:?}, co_optimize {want:?}",
                query.key()
            )),
            (Ok(want), _, Ok((got, _))) if got != want => Err(format!(
                "`{}`: untraced split gave {got:?}, co_optimize {want:?}",
                query.key()
            )),
            (Ok(want), _, _) if want != expected.answer(query)? => Err(format!(
                "`{}`: co_optimize disagrees with expected.txt",
                query.key()
            )),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                Err(format!("`{}`: {e}", query.key()))
            }
            _ => Ok(()),
        };
        if verdict.is_err() {
            t.spans.truncate(mark);
            failures.check(verdict);
            continue;
        }
        failures.check(Ok(()));
        let (answer, solved) = traced.expect("checked above");
        traced_ms.push(on_ms);
        untraced_ms.push(off_ms);
        overheads.push(on_ms - off_ms);
        direct_ms.insert(query.key(), reference_ms);
        totals.enumerated += answer.counts.enumerated;
        totals.completed += answer.counts.completed;
        totals.aborted += answer.counts.aborted;
        proven.extend(solved);
        let n = enumerate(&mut t, id, query);
        enumerated_pass += n;
        if n != answer.counts.enumerated {
            failures.fail(format!(
                "`{}`: enumeration yields {n} partitions, the scan counted {}",
                query.key(),
                answer.counts.enumerated
            ));
        }
    }
    let queries = pool.len() as f64;
    let tables_built = t.spans.iter().filter(|s| s.name == "wrapper.table").count() as u64;
    let pinned = expected.pinned(&ctx.workload)?;
    failures.check(
        if pinned.tables == tables_built && pinned.counts == totals {
            Ok(())
        } else {
            Err(format!(
                "pinned counts moved: tables {tables_built} (pinned {}), {totals:?} (pinned {:?})",
                pinned.tables, pinned.counts
            ))
        },
    );
    println!(
        "pinned counts: tables {tables_built}, enumerated {}, completed {}, aborted {}",
        totals.enumerated, totals.completed, totals.aborted
    );

    // 2–3. Parser, then the in-process queue and the daemon, over the
    // request stream.
    let mut refs = References::new(expected);
    let stream = stream(ctx, &pool, &soc_dir, &mut refs)?;
    let lines: Vec<String> = stream
        .iter()
        .map(|q| q.line(&inputs::soc_path(&soc_dir, &q.soc).display().to_string()))
        .collect();
    let resolve = |name: &str| inputs::load_soc(Path::new(name));
    let mut parse_ms = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let mark = t.spans.len();
        let parsed = t.in_span("core.parse", i, |_| {
            tamopt::cli::parse_request_line(line, &resolve)
        });
        parse_ms.push(t.duration_ns(mark) as f64 / 1e6);
        failures.check(parsed.map(|_| ()).map_err(|e| format!("`{line}`: {e}")));
    }
    // The daemon, like the in-process queue, has a fresh store and no
    // journal. It parses each line, SOC file read included, so that
    // parse time is subtracted from the network overhead too.
    let store_path = ctx.work.join("trace.tamstore");
    let store = Store::open(&store_path, StoreConfig::default()).map_err(|e| e.to_string())?;
    let queue = LiveQueue::start(LiveConfig {
        store: Some(StoreBinding::new(store)),
        ..LiveConfig::with_threads(1)
    });
    let files = Files {
        journal: None,
        ..Files::in_dir(&ctx.work, "trace-net")
    };
    let (daemon, _) = Daemon::spawn(&ctx.tamopt, &files)?;
    let mut client = Client::connect(&files.socket)?;
    let mut service_ms = Vec::new();
    let mut service_overhead = Vec::new();
    let mut net_overhead = Vec::new();
    let mut warm_hits = 0usize;
    for (i, query) in stream.iter().enumerate() {
        let soc = inputs::load_soc(&inputs::soc_path(&soc_dir, &query.soc))?;
        let in_process = |t: &mut Tracer| {
            let mark = t.spans.len();
            let outcome = t.in_span("service.roundtrip", i, |_| {
                workloads::solve_on(&queue, soc.clone(), query)
            })?;
            let roundtrip = t.duration_ns(mark) as f64 / 1e6;
            Ok::<_, String>((outcome, roundtrip))
        };
        let mut socket = |t: &mut Tracer| {
            let mark = t.spans.len();
            let (response, _) = t.in_span("net.roundtrip", i, |_| client.request(&lines[i]))?;
            Ok::<_, String>((response, t.duration_ns(mark) as f64 / 1e6))
        };
        let ((outcome, roundtrip), (response, net_ms)) = if i % 2 == 0 {
            let local = in_process(&mut t)?;
            (local, socket(&mut t)?)
        } else {
            let remote = socket(&mut t)?;
            (in_process(&mut t)?, remote)
        };
        net_overhead.push(net_ms - roundtrip - parse_ms[i]);
        failures.check(refs.check(query, &response));
        let line = t.in_span("service.serialize", i, |_| outcome.to_json_line());
        service_ms.push(roundtrip);
        let cold_ms = match direct_ms.get(&query.key()) {
            Some(&d) => d,
            None => {
                let begin = Instant::now();
                inputs::solve(&soc, query)?;
                let d = ms(begin.elapsed());
                direct_ms.insert(query.key(), d);
                d
            }
        };
        service_overhead.push(roundtrip - cold_ms);
        let (_, cold_completed) = refs.reference(query)?;
        if workloads::outcome_completed(&outcome) < cold_completed {
            warm_hits += 1;
        }
        failures.check(refs.check(query, &line));
    }
    queue.shutdown().ok_or("queue already shut down")?;
    drop(queue);
    drop(client);
    daemon.stop()?;

    // 4. Store open / save on what the queue persisted.
    let mut store_bytes = 0u64;
    for _ in 0..5 {
        let mut store = t
            .in_span("store.open", 0, |_| {
                Store::open(&store_path, StoreConfig::default())
            })
            .map_err(|e| e.to_string())?;
        t.in_span("store.save", 0, |_| store.save())
            .map_err(|e| e.to_string())?;
        store_bytes = std::fs::metadata(&store_path)
            .map_err(|e| e.to_string())?
            .len();
    }

    // 5. The journal records the daemon would write for this stream.
    let journal_path = ctx.work.join("trace.tamjrnl");
    let mut journal = Journal::open(&journal_path, SyncPolicy::Always)
        .map_err(|e| e.to_string())?
        .journal;
    for (i, line) in lines.iter().enumerate() {
        let submit = JournalRecord::Submit {
            id: i as u64,
            client: Some(0),
            shard: None,
            line: line.clone(),
        };
        t.in_span("journal.append", i, |_| journal.append(&submit))
            .map_err(|e| e.to_string())?;
        let sealed = JournalRecord::Sealed { id: i as u64 };
        t.in_span("journal.append", i, |_| journal.append(&sealed))
            .map_err(|e| e.to_string())?;
    }
    drop(journal);

    let spans_path = ctx.work.join("spans.jsonl");
    t.write(&spans_path)?;
    println!(
        "{} spans written to {}",
        t.spans.len(),
        spans_path.display()
    );
    println!(
        "tracing overhead: split p50 {:.3} ms traced, {:.3} ms untraced, median difference {:.4} ms",
        stats::median(&traced_ms),
        stats::median(&untraced_ms),
        stats::median(&overheads)
    );

    let selfs = t.self_times();
    let self_ms = |name: &str| selfs.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
    let mean_self = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64)
    };
    let store_ms = |name: &'static str| {
        let v: Vec<f64> = t
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, _)| t.duration_ns(id) as f64 / 1e6)
            .collect();
        stats::median(&v)
    };
    let frac = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut report = Report::new(failures);
    report.push("wrapper.table_ms", self_ms("wrapper.table") / queries, "ms");
    report.push("wrapper.tables_built", tables_built as f64, "count");
    report.push(
        "partition.enumerate_ms",
        self_ms("partition.enumerate") / queries,
        "ms",
    );
    report.push(
        "partition.scan_ms",
        self_ms("partition.scan") / queries,
        "ms",
    );
    report.push("partition.enumerated", totals.enumerated as f64, "count");
    report.push("partition.completed", totals.completed as f64, "count");
    report.push("partition.aborted", totals.aborted as f64, "count");
    report.push(
        "partition.completed_frac",
        frac(totals.completed as f64, totals.enumerated as f64),
        "ratio",
    );
    report.push(
        "partition.ns_per_partition",
        frac(self_ms("partition.scan") * 1e6, enumerated_pass as f64),
        "ns",
    );
    report.push("assign.exact_ms", self_ms("assign.exact") / queries, "ms");
    report.push(
        "assign.exact_optimal_frac",
        frac(
            proven.iter().filter(|&&p| p).count() as f64,
            proven.len() as f64,
        ),
        "ratio",
    );
    report.push("service.roundtrip_ms", stats::mean(&service_ms), "ms");
    report.push("service.overhead_ms", stats::mean(&service_overhead), "ms");
    report.push(
        "service.warm_hit_frac",
        frac(warm_hits as f64, stream.len() as f64),
        "ratio",
    );
    report.push("store.open_ms", store_ms("store.open"), "ms");
    report.push("store.save_ms", store_ms("store.save"), "ms");
    report.push("store.bytes", store_bytes as f64, "bytes");
    report.push("journal.append_us", mean_self("journal.append") / 1e3, "us");
    report.push(
        "journal.appends",
        selfs.get("journal.append").map_or(0, |&(_, n)| n) as f64,
        "count",
    );
    report.push("net.overhead_ms", stats::median(&net_overhead), "ms");
    report.push("core.parse_us", mean_self("core.parse") / 1e3, "us");
    report.push(
        "service.serialize_us",
        mean_self("service.serialize") / 1e3,
        "us",
    );
    report.push("trace.overhead_ms", stats::median(&overheads), "ms");
    Ok(report)
}
