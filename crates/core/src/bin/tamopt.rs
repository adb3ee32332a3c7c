//! `tamopt` — command-line wrapper/TAM co-optimization.
//!
//! ```text
//! USAGE:
//!   tamopt --soc <file.soc | d695 | p21241 | p31108 | p93791>
//!          --width <W> [--max-tams <B>] [--tams <B>]
//!          [--strategy two-step|two-step-ilp|heuristic|exhaustive]
//!          [--threads <N>] [--time-limit <seconds>]
//!          [--analyze] [--gantt] [--svg <out.svg>] [--rail]
//!
//!   tamopt batch <manifest> [--threads <N>] [--time-limit <seconds>]
//!                [--out <report.json>] [--store <file.tamstore>]
//!
//!   tamopt serve [--threads <N>] [--time-limit <seconds>]
//!                [--no-warm-start] [--aging <rate>]
//!                [--store <file.tamstore>] [--journal <file.tamjrnl>]
//!                [--sync always|interval[:N]|never] [--break-locks]
//!                [--max-pending <N>] [--max-inflight <N>] [--max-budget <nodes>]
//!                [--listen <ip:port> | --socket <path>]
//! ```
//!
//! Examples:
//!
//! ```text
//! tamopt --soc d695 --width 32 --max-tams 4
//! tamopt --soc p93791 --width 64 --max-tams 10 --threads 4 --time-limit 5
//! tamopt --soc my_chip.soc --width 48 --tams 3 --strategy exhaustive
//! tamopt --soc d695 --width 48 --max-tams 6 --analyze --gantt --rail
//! tamopt --soc p21241 --width 64 --max-tams 6 --svg schedule.svg
//! tamopt batch examples/batch.manifest --threads 4
//! tamopt serve --threads 4 < examples/serve.trace
//! ```
//!
//! A batch manifest holds one request per line — `<soc> <width>
//! <max-tams>` plus optional `key=value` pairs (`min-tams`, `priority`,
//! `time-limit`, `node-budget`, and `kind`: `point` (default),
//! `topk:K`, or `frontier:LO..HI:STEP` whose `HI` must equal the
//! positional `<width>`); `#` starts a comment. The report is
//! deterministic JSON (see [`tamopt::service`]): identical for every
//! `--threads` value once its `wall_clock` lines are filtered.
//!
//! `tamopt serve` runs the live daemon: it announces its wire protocol
//! with one JSON `protocol` banner line, then reads the same request
//! lines from **stdin** (plus `cancel <id>` and — live mode only —
//! `stats` lines) and streams one JSON
//! outcome line per request to stdout as results complete, submitting
//! each line the moment it is read — a high-priority request entered
//! while earlier work runs preempts the queued backlog. A final pretty
//! report follows once stdin closes. If the first line starts with
//! `@<generation>`, the whole input is a deterministic submission
//! *trace* instead (every line tagged, e.g. `@2 d695 32 6 priority=4`
//! or `@3 cancel 1`): the queue replays it, and the full stdout —
//! stream and report, minus `wall_clock*` lines — is byte-identical for
//! every `--threads` value.
//!
//! `--store <file.tamstore>` attaches the persistent warm-start store
//! (see [`tamopt::store`]) to `batch` and `serve`: incumbents and
//! compressed cost tables survive across runs, so a restarted daemon
//! finds the same winners with strictly less work. Only one process
//! may hold a store at a time (a sidecar lock file enforces this).
//!
//! `--journal <file.tamjrnl>` makes `serve` crash-safe: every accepted
//! submission and cancellation is appended to a write-ahead journal at
//! accept time, and every printed outcome seals its id. A daemon killed
//! mid-workload (`kill -9` included) replays the journal on restart and
//! deterministically resubmits exactly the accepted-but-unsealed
//! requests — recovered outcome lines (original ids) print before any
//! new input is read, and with `--store` the redo costs strictly less
//! work while finding identical winners. `--sync` picks the fsync
//! policy (`always` per record, `interval[:N]` every N records,
//! `never`); a clean shutdown compacts the journal to an empty header.
//! Trace-replay stdin (`@`-tagged) is not journalled — a trace is its
//! own deterministic recovery script. After a crash, stale sidecar
//! locks block reopening; `--break-locks` removes them first.
//!
//! Overload protection: `--max-pending <N>` bounds the accepted backlog
//! (per shard with `--shards`) — at the cap, the lowest aged effective
//! priority sheds deterministically, either as a `shed` outcome (queued
//! victim) or a typed `overloaded` error line refusing the newcomer
//! (which never drops the connection). `--max-inflight <N>` caps one
//! network client's outstanding requests; `--max-budget <nodes>`
//! clamps every request's node budget server-side (graceful
//! degradation rather than refusal).

use std::process::ExitCode;
use std::time::Duration;

use tamopt::analysis::UtilizationReport;
use tamopt::cli::{
    parse_manifest, parse_serve_line, parse_threads, parse_time_limit, ServeLine, ServeTag,
};
use tamopt::cost::{BusCost, GateWeights};
use tamopt::rail::{design_rails, RailConfig, RailCostModel};
use tamopt::schedule::TestSchedule;
use tamopt::service::{
    BatchConfig, JournalBinding, LiveConfig, LiveQueue, NetDirective, NetListener, NetOptions,
    NetServer, Request, RequestOutcome, RequestStatus, StoreBinding, SubmitError, Trace,
    WIRE_VERSION,
};
use tamopt::soc::format::parse_soc;
use tamopt::store::{Journal, JournalRecord, Store, StoreConfig, SyncPolicy};
use tamopt::{benchmarks, CoOptimizer, Soc, Strategy};

#[derive(Debug)]
struct Args {
    soc: String,
    width: u32,
    min_tams: u32,
    max_tams: Option<u32>,
    fixed_tams: Option<u32>,
    strategy: Strategy,
    threads: usize,
    time_limit: Option<Duration>,
    analyze: bool,
    gantt: bool,
    svg: Option<String>,
    rail: bool,
}

fn usage() -> &'static str {
    "usage: tamopt --soc <file.soc|d695|p21241|p31108|p93791> --width <W> \
     [--max-tams <B>] [--tams <B>] \
     [--strategy two-step|two-step-ilp|heuristic|exhaustive] \
     [--threads <N, 0 = all CPUs>] [--time-limit <seconds>] \
     [--analyze] [--gantt] [--svg <out.svg>] [--rail]\n\
     or:    tamopt batch <manifest> [--threads <N>] [--time-limit <seconds>] \
     [--out <report.json>]"
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut soc = None;
    let mut width = None;
    let mut min_tams = 1u32;
    let mut max_tams = None;
    let mut fixed_tams = None;
    let mut strategy = Strategy::TwoStep;
    let mut threads = 1usize;
    let mut time_limit = None;
    let mut analyze = false;
    let mut gantt = false;
    let mut svg = None;
    let mut rail = false;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--soc" => soc = Some(value("--soc")?),
            "--width" => {
                width = Some(
                    value("--width")?
                        .parse()
                        .map_err(|_| "invalid --width value".to_owned())?,
                )
            }
            "--min-tams" => {
                min_tams = value("--min-tams")?
                    .parse()
                    .map_err(|_| "invalid --min-tams value".to_owned())?
            }
            "--max-tams" => {
                max_tams = Some(
                    value("--max-tams")?
                        .parse()
                        .map_err(|_| "invalid --max-tams value".to_owned())?,
                )
            }
            "--tams" => {
                fixed_tams = Some(
                    value("--tams")?
                        .parse()
                        .map_err(|_| "invalid --tams value".to_owned())?,
                )
            }
            "--strategy" => {
                strategy = match value("--strategy")?.as_str() {
                    "two-step" => Strategy::TwoStep,
                    "two-step-ilp" => Strategy::TwoStepIlp,
                    "heuristic" => Strategy::Heuristic,
                    "exhaustive" => Strategy::Exhaustive,
                    other => return Err(format!("unknown strategy `{other}`")),
                }
            }
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--time-limit" => time_limit = Some(parse_time_limit(&value("--time-limit")?)?),
            "--analyze" => analyze = true,
            "--gantt" => gantt = true,
            "--svg" => svg = Some(value("--svg")?),
            "--rail" => rail = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(Args {
        soc: soc.ok_or_else(|| format!("--soc is required\n{}", usage()))?,
        width: width.ok_or_else(|| format!("--width is required\n{}", usage()))?,
        min_tams,
        max_tams,
        fixed_tams,
        strategy,
        threads,
        time_limit,
        analyze,
        gantt,
        svg,
        rail,
    })
}

#[derive(Debug)]
struct BatchArgs {
    manifest: String,
    threads: usize,
    time_limit: Option<Duration>,
    out: Option<String>,
    store: Option<String>,
}

fn batch_usage() -> &'static str {
    "usage: tamopt batch <manifest> [--threads <N, 0 = all CPUs>] \
     [--time-limit <seconds>] [--out <report.json>] [--store <file.tamstore>]\n\
     manifest lines: <soc> <width> <max-tams> \
     [min-tams=N] [priority=P] [time-limit=S] [node-budget=N] \
     [kind=point|topk:K|frontier:LO..HI:STEP]"
}

fn parse_batch_args(mut argv: impl Iterator<Item = String>) -> Result<BatchArgs, String> {
    let mut manifest = None;
    let mut threads = 1usize;
    let mut time_limit = None;
    let mut out = None;
    let mut store = None;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--time-limit" => time_limit = Some(parse_time_limit(&value("--time-limit")?)?),
            "--out" => out = Some(value("--out")?),
            "--store" => store = Some(value("--store")?),
            "--help" | "-h" => return Err(batch_usage().to_owned()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", batch_usage()))
            }
            positional if manifest.is_none() => manifest = Some(positional.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`\n{}", batch_usage())),
        }
    }
    Ok(BatchArgs {
        manifest: manifest
            .ok_or_else(|| format!("manifest path is required\n{}", batch_usage()))?,
        threads,
        time_limit,
        out,
        store,
    })
}

/// Opens the persistent warm-start store behind `--store`, reporting
/// recovery warnings (corrupt or old-layout files open as what could be
/// salvaged) on stderr. Hard failures — a held lock, a future format
/// version, I/O errors — abort the run.
fn open_store(path: &str, config: StoreConfig) -> Result<StoreBinding, String> {
    let store =
        Store::open(path, config).map_err(|e| format!("cannot open store `{path}`: {e}"))?;
    for warning in store.warnings() {
        eprintln!("tamopt: store `{path}`: {warning}");
    }
    Ok(StoreBinding::new(store))
}

fn batch_main(argv: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_batch_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", args.manifest);
            return ExitCode::FAILURE;
        }
    };
    let requests = match parse_manifest(&text, &load_soc) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = BatchConfig::with_threads(args.threads);
    if let Some(limit) = args.time_limit {
        config = config.time_limit(limit);
    }
    if let Some(path) = &args.store {
        config.store = match open_store(path, StoreConfig::default()) {
            Ok(binding) => Some(binding),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }
    let report = CoOptimizer::batch(requests, &config);
    let json = report.to_json();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("batch report written to {path}");
    } else {
        print!("{json}");
    }
    let failed = report.count(RequestStatus::Failed);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[derive(Debug)]
struct ServeArgs {
    threads: usize,
    time_limit: Option<Duration>,
    warm_start: bool,
    aging: u32,
    /// [`LiveConfig::shards`]: `Some(n)` runs `n` fingerprint-routed
    /// shards and stamps outcomes with them (even for `n = 1`); `None`
    /// runs one unstamped shard with its byte-identical legacy output.
    shards: Option<usize>,
    store: Option<String>,
    /// `--journal <path>`: write-ahead request journal for crash-safe
    /// serving (see [`tamopt::store::Journal`]).
    journal: Option<String>,
    /// `--sync`: fsync policy for the journal (and the store's saves).
    sync: SyncPolicy,
    /// `--break-locks`: remove stale store/journal lock sidecars left
    /// by a killed process before opening.
    break_locks: bool,
    /// `--max-pending`: accepted-backlog cap (0 = unbounded; per shard
    /// with `--shards`).
    max_pending: usize,
    /// `--max-inflight`: per-client outstanding-request quota in
    /// network mode (0 = unbounded).
    max_inflight: usize,
    /// `--max-budget`: server-side clamp on every request's node
    /// budget.
    max_budget: Option<u64>,
    /// `--listen <ip:port>`: serve the line protocol to many TCP
    /// clients instead of stdin.
    listen: Option<String>,
    /// `--socket <path>`: same, over a unix-domain socket.
    socket: Option<String>,
}

fn serve_usage() -> &'static str {
    "usage: tamopt serve [--threads <N per shard, 0 = all CPUs>] [--time-limit <seconds>] \
     [--no-warm-start] [--aging <rate, 0 = strict priorities>] [--shards <N>] \
     [--store <file.tamstore>] [--journal <file.tamjrnl>] \
     [--sync always|interval[:N]|never] [--break-locks] \
     [--max-pending <N, 0 = unbounded>] [--max-inflight <N, 0 = unbounded>] \
     [--max-budget <nodes>] [--listen <ip:port> | --socket <path>]\n\
     stdin lines: <soc> <width> <max-tams> [min-tams=N] [priority=P] \
     [time-limit=S] [node-budget=N] [kind=point|topk:K|frontier:LO..HI:STEP]  \
     |  cancel <id>  |  stats (live mode only)\n\
     prefix every line with @<generation> to replay a deterministic trace; \
     with --shards, @<generation>/<shard> pins a submission to a shard\n\
     with --listen/--socket the same lines arrive per connection (no @ tags), \
     ids are per-client, and closing stdin shuts the server down"
}

fn parse_serve_args(mut argv: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut threads = 1usize;
    let mut time_limit = None;
    let mut warm_start = true;
    let mut aging = 0u32;
    let mut shards = None;
    let mut store = None;
    let mut journal = None;
    let mut sync = SyncPolicy::default();
    let mut break_locks = false;
    let mut max_pending = 0usize;
    let mut max_inflight = 0usize;
    let mut max_budget = None;
    let mut listen = None;
    let mut socket = None;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--time-limit" => time_limit = Some(parse_time_limit(&value("--time-limit")?)?),
            "--no-warm-start" => warm_start = false,
            "--aging" => {
                aging = value("--aging")?
                    .parse()
                    .map_err(|_| "invalid --aging value".to_owned())?
            }
            "--shards" => {
                let n: usize = value("--shards")?
                    .parse()
                    .map_err(|_| "invalid --shards value".to_owned())?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                shards = Some(n);
            }
            "--store" => store = Some(value("--store")?),
            "--journal" => journal = Some(value("--journal")?),
            "--sync" => sync = value("--sync")?.parse()?,
            "--break-locks" => break_locks = true,
            "--max-pending" => {
                max_pending = value("--max-pending")?
                    .parse()
                    .map_err(|_| "invalid --max-pending value".to_owned())?
            }
            "--max-inflight" => {
                max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "invalid --max-inflight value".to_owned())?
            }
            "--max-budget" => {
                let nodes: u64 = value("--max-budget")?
                    .parse()
                    .map_err(|_| "invalid --max-budget value".to_owned())?;
                if nodes == 0 {
                    return Err("--max-budget must be at least 1".to_owned());
                }
                max_budget = Some(nodes);
            }
            "--listen" => listen = Some(value("--listen")?),
            "--socket" => socket = Some(value("--socket")?),
            "--help" | "-h" => return Err(serve_usage().to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", serve_usage())),
        }
    }
    if listen.is_some() && socket.is_some() {
        return Err("--listen and --socket are mutually exclusive".to_owned());
    }
    Ok(ServeArgs {
        threads,
        time_limit,
        warm_start,
        aging,
        shards,
        store,
        journal,
        sync,
        break_locks,
        max_pending,
        max_inflight,
        max_budget,
        listen,
        socket,
    })
}

fn serve_main(argv: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_serve_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = LiveConfig::with_threads(args.threads);
    config.warm_start = args.warm_start;
    config.aging = args.aging;
    config.max_pending = args.max_pending;
    config.shards = args.shards;
    if let Some(limit) = args.time_limit {
        config = config.time_limit(limit);
    }
    // A SIGKILLed daemon leaves its sidecar locks behind; the operator
    // opts into reclaiming them (a *live* holder would lose the lock
    // too — breaking is explicitly not automatic).
    if args.break_locks {
        if let Some(path) = &args.store {
            match Store::break_lock(path) {
                Ok(true) => eprintln!("tamopt: store `{path}`: broke a stale lock"),
                Ok(false) => {}
                Err(e) => eprintln!("tamopt: store `{path}`: cannot break lock: {e}"),
            }
        }
        if let Some(path) = &args.journal {
            match Journal::break_lock(path) {
                Ok(true) => eprintln!("tamopt: journal `{path}`: broke a stale lock"),
                Ok(false) => {}
                Err(e) => eprintln!("tamopt: journal `{path}`: cannot break lock: {e}"),
            }
        }
    }
    if let Some(path) = &args.store {
        let store_config = StoreConfig {
            sync: args.sync,
            ..StoreConfig::default()
        };
        config.store = match open_store(path, store_config) {
            Ok(binding) => Some(binding),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    }

    // Announce the wire protocol before any outcome streams: consumers
    // (and the replay comparator) key their parsing off this version.
    println!("{{\"protocol\": \"tamopt-serve\", \"v\": {WIRE_VERSION}}}");

    // Crash safety: open the write-ahead journal and — before reading
    // any input — redo whatever a previous process accepted but never
    // sealed. Recovered outcome lines print first, with original ids.
    let journal = match &args.journal {
        None => None,
        Some(path) => match Journal::open(path, args.sync) {
            Err(e) => {
                eprintln!("cannot open journal `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            Ok(opened) => {
                for warning in &opened.warnings {
                    eprintln!("tamopt: journal `{path}`: {warning}");
                }
                let binding = JournalBinding::new(opened.journal);
                if let Err(msg) = recover_journal(&opened.records, &binding, &config, &args) {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
                Some(binding)
            }
        },
    };

    if args.listen.is_some() || args.socket.is_some() {
        return serve_net(&args, config, journal);
    }

    use std::io::BufRead as _;
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines().enumerate();

    // The first directive decides the mode: `@`-tagged → deterministic
    // trace replay; untagged → live submission as lines arrive. The raw
    // line text rides along — it is what the journal records.
    let first = loop {
        match lines.next() {
            None => break None,
            Some((number, line)) => {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("serve: cannot read stdin: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match parse_serve_line(&line, &load_soc) {
                    Ok(None) => continue,
                    Ok(Some(directive)) => break Some((number, line, directive)),
                    Err(msg) => {
                        eprintln!("serve: line {}: {msg}", number + 1);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    };

    let report = match first {
        // Empty input: an empty trace still owes a valid (empty) report.
        None => LiveQueue::replay(Trace::new(), config).1,
        Some((first_number, _, (tag @ Some(_), first_directive))) => {
            // Trace mode: collect the whole input, then replay. A trace
            // is its own deterministic recovery script, so it is not
            // journalled (recovery of a *previous* crash already ran).
            if journal.is_some() {
                eprintln!("serve: trace replay is not journalled (the trace itself is the recovery script)");
            }
            let trace = match collect_trace((first_number, tag, first_directive), lines, &args) {
                Ok(trace) => trace,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            };
            let (stream, report) = LiveQueue::replay(trace, config);
            for outcome in &stream {
                print!("{}", outcome.to_json_line());
            }
            report
        }
        Some((first_number, first_line, (None, first_directive))) => {
            // Live mode: submit each line as it is read; outcomes stream
            // concurrently. Parse errors are reported and skipped — work
            // already submitted keeps running — but fail the exit code.
            let queue = LiveQueue::start(config);
            let mut parse_errors = 0u32;
            let report = std::thread::scope(|scope| {
                let printer = scope.spawn(|| {
                    use std::io::Write as _;
                    while let Some(outcome) = queue.recv_outcome() {
                        // Lock stdout per line, never across the blocking
                        // recv: the input loop prints `stats` replies to
                        // the same stdout.
                        let mut out = std::io::stdout().lock();
                        let _ = out.write_all(outcome.to_json_line().as_bytes());
                        let _ = out.flush();
                        drop(out);
                        // Seal after the line reached the output: a
                        // crash in between redoes the request rather
                        // than losing it.
                        if let Some(journal) = &journal {
                            journal.sealed(outcome.index);
                        }
                    }
                });
                let apply = |number: usize, line: &str, directive: ServeLine, errors: &mut u32| {
                    match directive {
                        ServeLine::Submit(mut request) => {
                            clamp_budget(&mut request, args.max_budget);
                            match queue.submit(request) {
                                Ok((id, _)) => {
                                    if let Some(journal) = &journal {
                                        journal.submit(id.index(), None, queue.shard_of(id), line);
                                    }
                                }
                                Err(SubmitError::ShutDown) => {
                                    eprintln!("serve: line {}: queue is shut down", number + 1);
                                    *errors += 1;
                                }
                                // Load shedding is an operational state,
                                // not an input error: report it without
                                // failing the run.
                                Err(SubmitError::Overloaded) => {
                                    eprintln!(
                                        "serve: line {}: overloaded — request shed (backlog at \
                                     max-pending)",
                                        number + 1
                                    );
                                }
                            }
                        }
                        ServeLine::Cancel(id) => {
                            if queue.cancel(id.into()) {
                                if let Some(journal) = &journal {
                                    journal.cancel(id);
                                }
                            } else {
                                eprintln!("serve: line {}: unknown request id {id}", number + 1);
                                *errors += 1;
                            }
                        }
                        ServeLine::Stats => {
                            println!("{}", queue.stats_json());
                        }
                    }
                };
                apply(
                    first_number,
                    &first_line,
                    first_directive,
                    &mut parse_errors,
                );
                for (number, line) in lines {
                    let line = match line {
                        Ok(l) => l,
                        Err(e) => {
                            eprintln!("serve: cannot read stdin: {e}");
                            parse_errors += 1;
                            break;
                        }
                    };
                    match parse_serve_line(&line, &load_soc) {
                        Ok(None) => {}
                        Ok(Some((None, directive))) => {
                            apply(number, &line, directive, &mut parse_errors);
                        }
                        Ok(Some((Some(_), _))) => {
                            eprintln!(
                                "serve: line {}: @<generation> tags are only valid when the \
                                 whole input is a trace",
                                number + 1
                            );
                            parse_errors += 1;
                        }
                        Err(msg) => {
                            eprintln!("serve: line {}: {msg}", number + 1);
                            parse_errors += 1;
                        }
                    }
                }
                let report = queue.shutdown().expect("first shutdown");
                printer.join().expect("printer thread");
                report
            });
            if parse_errors > 0 {
                eprintln!("{parse_errors} invalid line(s)");
                // Even a failed run drained its queue and sealed every
                // outcome — a clean shutdown as far as the journal goes.
                if let Some(journal) = &journal {
                    journal.compact();
                }
                print!("{}", report.to_json());
                return ExitCode::FAILURE;
            }
            report
        }
    };

    // Clean shutdown: every accepted id is sealed, so the journal owes
    // nothing — truncate it to an empty header.
    if let Some(journal) = &journal {
        journal.compact();
    }
    print!("{}", report.to_json());
    let failed = report.count(RequestStatus::Failed);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Collects a trace-mode input — its first tagged directive, then the
/// remaining stdin lines — into one [`Trace`], replayed by
/// [`LiveQueue::replay`]. Fails on the first line that only
/// live mode accepts (an untagged line, `stats`), on a shard pin
/// without `--shards`, and on unreadable or malformed input.
fn collect_trace(
    first: (usize, Option<ServeTag>, ServeLine),
    lines: impl Iterator<Item = (usize, std::io::Result<String>)>,
    args: &ServeArgs,
) -> Result<Trace, String> {
    type Event = Option<(usize, Option<ServeTag>, ServeLine)>;
    let rest = lines.map(|(number, line)| -> Result<Event, String> {
        let line = line.map_err(|e| format!("serve: cannot read stdin: {e}"))?;
        let parsed = parse_serve_line(&line, &load_soc)
            .map_err(|msg| format!("serve: line {}: {msg}", number + 1))?;
        Ok(parsed.map(|(tag, directive)| (number, tag, directive)))
    });
    let mut trace = Trace::new();
    for event in std::iter::once(Ok(Some(first))).chain(rest) {
        let Some((number, tag, directive)) = event? else {
            continue;
        };
        let line = number + 1;
        let tag = match (tag, &directive) {
            (_, ServeLine::Stats) => {
                return Err(format!(
                    "serve: line {line}: `stats` is only available in live mode"
                ))
            }
            (None, _) => {
                return Err(format!(
                    "serve: line {line}: missing @<generation> tag (trace mode)"
                ))
            }
            (Some(tag), _) if tag.shard.is_some() && args.shards.is_none() => {
                return Err(format!(
                    "serve: line {line}: @<generation>/<shard> tags require --shards"
                ))
            }
            (Some(tag), _) => tag,
        };
        trace = match directive {
            ServeLine::Submit(mut request) => {
                clamp_budget(&mut request, args.max_budget);
                match tag.shard {
                    Some(shard) => trace.submit_pinned_at(tag.generation, shard, request),
                    None => trace.submit_at(tag.generation, request),
                }
            }
            // A cancel routes to the owner of the id; any shard pin on
            // it is redundant.
            ServeLine::Cancel(id) => trace.cancel_at(tag.generation, id),
            ServeLine::Stats => unreachable!("rejected above"),
        };
    }
    Ok(trace)
}

/// Applies the server-side `--max-budget` clamp to one request: the
/// request keeps its own node budget if tighter, graceful degradation
/// instead of refusal otherwise.
fn clamp_budget(request: &mut Request, max_budget: Option<u64>) {
    if let Some(nodes) = max_budget {
        request.budget = request.budget.clone().and_node_budget(nodes);
    }
}

/// Redoes a crashed daemon's accepted-but-unsealed requests, so a
/// `kill -9` mid-workload loses nothing: parses each journaled line,
/// resubmits the live ones in original-id order through a fresh queue
/// of the same shape, prints every outcome with its original id and
/// client stamp, and seals it. Requests that were cancelled before the
/// crash are not re-run — their `cancelled` outcome is synthesized
/// directly — so the output still closes every accepted id exactly
/// once. With `--store`, the redo finds identical winners with strictly
/// fewer completed evaluations.
fn recover_journal(
    records: &[JournalRecord],
    journal: &JournalBinding,
    config: &LiveConfig,
    args: &ServeArgs,
) -> Result<(), String> {
    let pending = tamopt::store::journal::unsealed(records);
    if pending.is_empty() {
        return Ok(());
    }
    eprintln!(
        "tamopt: journal: recovering {} accepted-but-unsealed request(s)",
        pending.len()
    );
    // Parse every line up front: a journaled line was accepted by a
    // previous run, so a failure means a foreign or hand-edited file —
    // refuse loudly rather than dropping an accepted request.
    let mut live = Vec::new();
    let mut outcomes = Vec::new();
    for r in &pending {
        let parsed = parse_serve_line(&r.line, &load_soc)
            .map_err(|e| format!("journal: request {}: {e}", r.id))?;
        let Some((None, ServeLine::Submit(mut request))) = parsed else {
            return Err(format!(
                "journal: request {}: journaled line is not a submission",
                r.id
            ));
        };
        clamp_budget(&mut request, args.max_budget);
        if r.cancelled {
            outcomes.push(RequestOutcome {
                index: r.id as usize,
                client: r.client.map(|c| c as usize),
                shard: r.shard.map(|s| s as usize),
                soc: request.soc.name().to_owned(),
                width: request.width,
                min_tams: request.min_tams,
                max_tams: request.max_tams,
                priority: request.priority,
                kind: request.kind,
                status: RequestStatus::Cancelled,
                result: None,
                results: Vec::new(),
                error: None,
            });
        } else {
            live.push((r, request));
        }
    }
    if !live.is_empty() {
        // Same queue shape (shard count) and the same warm store,
        // but no backlog cap: everything here was accepted once
        // already, so recovery must never shed it.
        let mut recovery_config = config.clone();
        recovery_config.max_pending = 0;
        let queue = LiveQueue::start(recovery_config);
        let mut owner = std::collections::HashMap::new();
        for (r, request) in &live {
            // Pin to the accept-time shard stamp, so the redo runs
            // where the original did.
            let (id, _) = queue
                .submit_pinned(r.shard.map(|s| s as usize), request.clone())
                .map_err(|e| format!("journal: request {}: resubmission failed: {e}", r.id))?;
            owner.insert(id.index(), *r);
        }
        for _ in 0..owner.len() {
            let mut outcome = queue
                .recv_outcome()
                .ok_or_else(|| "journal: recovery queue died mid-replay".to_owned())?;
            let original = owner[&outcome.index];
            outcome.index = original.id as usize;
            outcome.client = original.client.map(|c| c as usize);
            outcomes.push(outcome);
        }
        let _ = queue.shutdown();
    }
    outcomes.sort_by_key(|o| o.index);
    for outcome in &outcomes {
        print!("{}", outcome.to_json_line());
        journal.sealed(outcome.index);
    }
    Ok(())
}

/// The network front-end behind `serve --listen` / `--socket`: bind,
/// announce the endpoint on stdout, serve clients until **stdin**
/// closes (the operator's shutdown signal), then print the
/// client-stamped final report.
fn serve_net(args: &ServeArgs, config: LiveConfig, journal: Option<JournalBinding>) -> ExitCode {
    let listener = match (&args.listen, &args.socket) {
        (Some(addr), None) => NetListener::tcp(addr),
        (None, Some(path)) => NetListener::unix(path.as_str()),
        _ => unreachable!("parse_serve_args enforces exclusivity"),
    };
    let listener = match listener {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("serve: cannot bind: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Port 0 resolves at bind time; announce the real endpoint so
    // clients (and tests) can discover it.
    println!("{{\"listening\": {}}}", json_escape(listener.addr()));

    let max_budget = args.max_budget;
    let parser: tamopt::service::LineParser =
        std::sync::Arc::new(move |line: &str| match parse_serve_line(line, &load_soc)? {
            None => Ok(None),
            Some((Some(_tag), _)) => Err(
                "@<generation> tags are only valid in trace mode, not over the network".to_owned(),
            ),
            Some((None, ServeLine::Submit(mut request))) => {
                clamp_budget(&mut request, max_budget);
                Ok(Some(NetDirective::Submit(request)))
            }
            Some((None, ServeLine::Cancel(id))) => Ok(Some(NetDirective::Cancel(id))),
            Some((None, ServeLine::Stats)) => Ok(Some(NetDirective::Stats)),
        });
    let options = NetOptions {
        max_inflight: args.max_inflight,
        journal: journal.clone(),
    };
    let server = NetServer::start_with_options(config, listener, parser, options);

    // Stdin is not a request source in network mode — it is the
    // lifetime: the server runs until it closes.
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());

    let report = server.shutdown().expect("first shutdown");
    // Clean shutdown: every accepted id was sealed by the router, so
    // the journal owes nothing — truncate it to an empty header.
    if let Some(journal) = &journal {
        journal.compact();
    }
    print!("{}", report.to_json());
    let failed = report.count(RequestStatus::Failed);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Escapes `value` as a JSON string literal (quotes included).
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn load_soc(name: &str) -> Result<Soc, String> {
    match name {
        "d695" => Ok(benchmarks::d695()),
        "p21241" => Ok(benchmarks::p21241()),
        "p31108" => Ok(benchmarks::p31108()),
        "p93791" => Ok(benchmarks::p93791()),
        path => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_soc(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("batch") {
        argv.next();
        return batch_main(argv);
    }
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        return serve_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let soc = match load_soc(&args.soc) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut optimizer = CoOptimizer::new(soc.clone(), args.width)
        .min_tams(args.min_tams)
        .strategy(args.strategy)
        .threads(args.threads);
    if let Some(limit) = args.time_limit {
        optimizer = optimizer.time_limit(limit);
    }
    if let Some(b) = args.fixed_tams {
        optimizer = optimizer.exact_tams(b);
    } else if let Some(b) = args.max_tams {
        optimizer = optimizer.max_tams(b);
    }
    let arch = match optimizer.run() {
        Ok(arch) => arch,
        Err(e) => {
            eprintln!("optimization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", arch.report());
    if args.analyze {
        println!();
        print!("{}", UtilizationReport::new(&arch));
        let cost = BusCost::of(&arch);
        println!(
            "hardware: {} boundary cells, {} mux2 equivalents, {} wire attachments \
             ({:.0} gate equivalents)",
            cost.boundary_cells,
            cost.mux_equivalents,
            cost.wire_attachments,
            cost.gate_equivalents(&GateWeights::default())
        );
    }
    if args.gantt {
        println!();
        print!("{}", TestSchedule::serial(&arch).gantt(72));
    }
    if let Some(path) = &args.svg {
        let svg = TestSchedule::serial(&arch).to_svg(900);
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nschedule written to {path}");
    }
    if args.rail {
        let max_rails = args.fixed_tams.or(args.max_tams).unwrap_or(6);
        let comparison = RailCostModel::new(&soc, args.width)
            .map_err(|e| e.to_string())
            .and_then(|model| {
                design_rails(&model, args.width, &RailConfig::up_to_rails(max_rails))
                    .map_err(|e| e.to_string())
            });
        match comparison {
            Ok(design) => {
                println!();
                print!("{}", design.report());
                println!(
                    "  bypass tax   : {:+.1} % vs the test-bus architecture",
                    (design.soc_time() as f64 / arch.soc_time() as f64 - 1.0) * 100.0
                );
            }
            Err(e) => {
                eprintln!("testrail comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_minimal() {
        let a = args(&["--soc", "d695", "--width", "32"]).unwrap();
        assert_eq!(a.soc, "d695");
        assert_eq!(a.width, 32);
        assert_eq!(a.min_tams, 1);
        assert!(a.max_tams.is_none());
        assert!(a.fixed_tams.is_none());
        assert_eq!(a.strategy, Strategy::TwoStep);
        assert_eq!(a.threads, 1);
        assert!(a.time_limit.is_none());
    }

    #[test]
    fn parses_threads_and_time_limit() {
        let a = args(&[
            "--soc",
            "d695",
            "--width",
            "32",
            "--threads",
            "4",
            "--time-limit",
            "2.5",
        ])
        .unwrap();
        assert_eq!(a.threads, 4);
        assert_eq!(a.time_limit, Some(Duration::from_millis(2500)));
    }

    #[test]
    fn rejects_bad_threads_and_time_limit() {
        assert!(args(&["--soc", "d695", "--width", "8", "--threads", "x"]).is_err());
        assert!(args(&["--soc", "d695", "--width", "8", "--time-limit", "-1"]).is_err());
        assert!(args(&["--soc", "d695", "--width", "8", "--time-limit", "inf"]).is_err());
    }

    #[test]
    fn parses_everything() {
        let a = args(&[
            "--soc",
            "chip.soc",
            "--width",
            "48",
            "--min-tams",
            "2",
            "--max-tams",
            "6",
            "--strategy",
            "exhaustive",
            "--analyze",
            "--gantt",
            "--svg",
            "out.svg",
            "--rail",
        ])
        .unwrap();
        assert_eq!(a.min_tams, 2);
        assert_eq!(a.max_tams, Some(6));
        assert_eq!(a.strategy, Strategy::Exhaustive);
        assert!(a.analyze);
        assert!(a.gantt);
        assert_eq!(a.svg.as_deref(), Some("out.svg"));
        assert!(a.rail);
    }

    #[test]
    fn report_flags_default_off() {
        let a = args(&["--soc", "d695", "--width", "32"]).unwrap();
        assert!(!a.analyze && !a.gantt && !a.rail);
        assert!(a.svg.is_none());
    }

    #[test]
    fn rejects_missing_required() {
        assert!(args(&["--width", "32"])
            .unwrap_err()
            .contains("--soc is required"));
        assert!(args(&["--soc", "d695"])
            .unwrap_err()
            .contains("--width is required"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(args(&["--soc", "d695", "--width", "x"]).is_err());
        assert!(args(&["--soc", "d695", "--width", "8", "--strategy", "magic"]).is_err());
        assert!(args(&["--soc", "d695", "--width", "8", "--frobnicate"]).is_err());
        assert!(args(&["--soc"]).is_err());
    }

    #[test]
    fn strategy_names() {
        for (name, expected) in [
            ("two-step", Strategy::TwoStep),
            ("two-step-ilp", Strategy::TwoStepIlp),
            ("heuristic", Strategy::Heuristic),
            ("exhaustive", Strategy::Exhaustive),
        ] {
            let a = args(&["--soc", "d695", "--width", "8", "--strategy", name]).unwrap();
            assert_eq!(a.strategy, expected, "{name}");
        }
    }

    #[test]
    fn load_soc_knows_benchmarks() {
        assert_eq!(load_soc("d695").unwrap().num_cores(), 10);
        assert_eq!(load_soc("p93791").unwrap().num_cores(), 32);
        assert!(load_soc("/nonexistent/x.soc").is_err());
    }

    fn batch_args(list: &[&str]) -> Result<BatchArgs, String> {
        parse_batch_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_batch_flags() {
        let a = batch_args(&["jobs.manifest", "--threads", "4", "--time-limit", "2"]).unwrap();
        assert_eq!(a.manifest, "jobs.manifest");
        assert_eq!(a.threads, 4);
        assert_eq!(a.time_limit, Some(Duration::from_secs(2)));
        assert!(a.out.is_none());
        assert!(a.store.is_none(), "persistence is opt-in");
        let b = batch_args(&["jobs.manifest", "--out", "report.json"]).unwrap();
        assert_eq!(b.out.as_deref(), Some("report.json"));
        let c = batch_args(&["jobs.manifest", "--store", "warm.tamstore"]).unwrap();
        assert_eq!(c.store.as_deref(), Some("warm.tamstore"));
    }

    #[test]
    fn batch_rejects_bad_usage() {
        assert!(batch_args(&[]).unwrap_err().contains("manifest path"));
        assert!(batch_args(&["a", "b"]).is_err(), "two positionals");
        assert!(batch_args(&["a", "--frobnicate"]).is_err());
        assert!(batch_args(&["a", "--threads", "x"]).is_err());
        assert!(batch_args(&["a", "--store"]).is_err(), "missing value");
    }

    #[test]
    fn parses_serve_flags() {
        let a = parse_serve_args(
            ["--threads", "4", "--no-warm-start"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.threads, 4);
        assert!(!a.warm_start);
        assert!(a.time_limit.is_none());
        assert_eq!(a.aging, 0, "strict priorities by default");
        let b = parse_serve_args(
            ["--time-limit", "2.5", "--aging", "3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(b.warm_start);
        assert_eq!(b.time_limit, Some(Duration::from_millis(2500)));
        assert_eq!(b.aging, 3);
        assert!(parse_serve_args(["--aging", "-1"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_serve_args(["--frobnicate".to_string()].into_iter()).is_err());
        assert!(parse_serve_args(["positional".to_string()].into_iter()).is_err());
        assert!(a.shards.is_none(), "sharding is opt-in");
        let c = parse_serve_args(["--shards", "4"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(c.shards, Some(4));
        assert!(
            parse_serve_args(["--shards", "0"].iter().map(|s| s.to_string()))
                .unwrap_err()
                .contains("at least 1")
        );
        assert!(parse_serve_args(["--shards", "x"].iter().map(|s| s.to_string())).is_err());
        let d =
            parse_serve_args(["--store", "warm.tamstore"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(d.store.as_deref(), Some("warm.tamstore"));
        assert!(a.store.is_none(), "persistence is opt-in");
        assert!(parse_serve_args(["--store".to_string()].into_iter()).is_err());
    }

    #[test]
    fn parses_network_serve_flags() {
        let a =
            parse_serve_args(["--listen", "127.0.0.1:0"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert!(a.socket.is_none());
        let b = parse_serve_args(
            ["--socket", "/tmp/tamopt.sock", "--shards", "2"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(b.socket.as_deref(), Some("/tmp/tamopt.sock"));
        assert_eq!(b.shards, Some(2));
        assert!(parse_serve_args(
            ["--listen", "127.0.0.1:0", "--socket", "/tmp/x.sock"]
                .iter()
                .map(|s| s.to_string())
        )
        .unwrap_err()
        .contains("mutually exclusive"));
        assert!(parse_serve_args(["--listen".to_string()].into_iter()).is_err());
        assert!(parse_serve_args(["--socket".to_string()].into_iter()).is_err());
    }

    #[test]
    fn parses_crash_safety_serve_flags() {
        let a = parse_serve_args(std::iter::empty()).unwrap();
        assert!(a.journal.is_none(), "journaling is opt-in");
        assert_eq!(a.sync, SyncPolicy::default());
        assert!(!a.break_locks);
        assert_eq!(a.max_pending, 0, "no backlog cap by default");
        assert_eq!(a.max_inflight, 0, "no client quota by default");
        assert!(a.max_budget.is_none());
        let b = parse_serve_args(
            [
                "--journal",
                "req.tamjrnl",
                "--sync",
                "interval:4",
                "--break-locks",
                "--max-pending",
                "16",
                "--max-inflight",
                "8",
                "--max-budget",
                "100000",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(b.journal.as_deref(), Some("req.tamjrnl"));
        assert_eq!(b.sync, SyncPolicy::Interval(4));
        assert!(b.break_locks);
        assert_eq!(b.max_pending, 16);
        assert_eq!(b.max_inflight, 8);
        assert_eq!(b.max_budget, Some(100_000));
        let c = parse_serve_args(["--sync", "always"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(c.sync, SyncPolicy::Always);
        assert!(parse_serve_args(["--sync", "sometimes"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_serve_args(["--journal".to_string()].into_iter()).is_err());
        assert!(parse_serve_args(["--max-pending", "x"].iter().map(|s| s.to_string())).is_err());
        assert!(
            parse_serve_args(["--max-budget", "0"].iter().map(|s| s.to_string()))
                .unwrap_err()
                .contains("at least 1")
        );
    }

    #[test]
    fn json_escape_matches_the_wire_format() {
        assert_eq!(json_escape("127.0.0.1:7171"), "\"127.0.0.1:7171\"");
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    // The request-line / manifest / serve-protocol grammars are parsed
    // (and tested) in `tamopt::cli`; the binary only supplies the
    // filesystem-aware SOC resolver, covered by `load_soc_knows_benchmarks`
    // and the manifest test below.

    #[test]
    fn manifest_resolves_through_load_soc() {
        let requests = parse_manifest("d695 32 6\np93791 64 8\n", &load_soc).unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[1].soc.name(), "p93791");
        assert!(parse_manifest("nope.soc 32 4\n", &load_soc)
            .unwrap_err()
            .contains("line 1"));
    }
}
