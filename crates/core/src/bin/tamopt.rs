//! `tamopt` — command-line wrapper/TAM co-optimization.
//!
//! ```text
//! USAGE:
//!   tamopt --soc <file.soc | d695 | p21241 | p31108 | p93791>
//!          --width <W> [--max-tams <B>] [--tams <B>]
//!          [--strategy two-step|heuristic|exhaustive]
//!          [--threads <N>] [--time-limit <seconds>]
//!          [--analyze]
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
//! tamopt --soc d695 --width 48 --max-tams 6 --analyze
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
//! — at the cap, the lowest aged effective
//! priority sheds deterministically, either as a `shed` outcome (queued
//! victim) or a typed `overloaded` error line refusing the newcomer
//! (which never drops the connection). `--max-inflight <N>` caps one
//! session's outstanding requests — a socket client's, or stdin's in
//! live mode — refusing the excess with the same typed `overloaded`
//! error line (a stderr note on stdin); `--max-budget <nodes>` clamps
//! every request's node budget server-side (graceful degradation
//! rather than refusal).

use std::io::{self, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tamopt::analysis::UtilizationReport;
use tamopt::cli::{
    clamp_budget, directive_text, parse_manifest, parse_serve_line, parse_session_line,
    parse_threads, parse_time_limit,
};
use tamopt::service::{
    json_string, BatchConfig, BatchReport, JournalBinding, LineParser, LiveConfig, LiveQueue,
    NetDirective, NetListener, NetOptions, NetServer, RequestOutcome, RequestStatus, StoreBinding,
    Trace, WIRE_VERSION,
};
use tamopt::soc::format::parse_soc;
use tamopt::store::{break_lock, Journal, JournalRecord, Store, StoreConfig, SyncPolicy};
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
}

fn usage() -> &'static str {
    "usage: tamopt --soc <file.soc|d695|p21241|p31108|p93791> --width <W> \
     [--max-tams <B>] [--tams <B>] \
     [--strategy two-step|heuristic|exhaustive] \
     [--threads <N, 0 = all CPUs>] [--time-limit <seconds>] \
     [--analyze]\n\
     or:    tamopt batch <manifest> [--threads <N>] [--time-limit <seconds>] \
     [--out <report.json>] [--store <file.tamstore>]\n\
     or:    tamopt serve [--threads <N>] [--time-limit <seconds>] [--store <file.tamstore>] \
     [--journal <file.tamjrnl>] [--listen <ip:port> | --socket <path>] ...\n\
     run `tamopt batch --help` or `tamopt serve --help` for their full flag lists"
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
                    "heuristic" => Strategy::Heuristic,
                    "exhaustive" => Strategy::Exhaustive,
                    other => return Err(format!("unknown strategy `{other}`")),
                }
            }
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--time-limit" => time_limit = Some(parse_time_limit(&value("--time-limit")?)?),
            "--analyze" => analyze = true,
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

fn batch_main(argv: impl Iterator<Item = String>) -> io::Result<ExitCode> {
    let args = match parse_batch_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let text = match std::fs::read_to_string(&args.manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", args.manifest);
            return Ok(ExitCode::FAILURE);
        }
    };
    let requests = match parse_manifest(&text, &load_soc) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
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
                return Ok(ExitCode::FAILURE);
            }
        };
    }
    let report = CoOptimizer::batch(requests, &config);
    let json = report.to_json();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write `{path}`: {e}");
            return Ok(ExitCode::FAILURE);
        }
        write_stdout(&format!("batch report written to {path}\n"))?;
    } else {
        write_stdout(&json)?;
    }
    let failed = report.count(RequestStatus::Failed);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[derive(Debug)]
struct ServeArgs {
    threads: usize,
    time_limit: Option<Duration>,
    warm_start: bool,
    aging: u32,
    store: Option<String>,
    /// `--journal <path>`: write-ahead request journal for crash-safe
    /// serving (see [`tamopt::store::Journal`]).
    journal: Option<String>,
    /// `--sync`: fsync policy for the journal (and the store's saves).
    sync: SyncPolicy,
    /// `--break-locks`: remove stale store/journal lock sidecars left
    /// by a killed process before opening.
    break_locks: bool,
    /// `--max-pending`: accepted-backlog cap (0 = unbounded).
    max_pending: usize,
    /// `--max-inflight`: per-session outstanding-request quota, for
    /// socket clients and the stdin session alike (0 = unbounded).
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
    "usage: tamopt serve [--threads <N, 0 = all CPUs>] [--time-limit <seconds>] \
     [--no-warm-start] [--aging <rate, 0 = strict priorities>] \
     [--store <file.tamstore>] [--journal <file.tamjrnl>] \
     [--sync always|interval[:N]|never] [--break-locks] \
     [--max-pending <N, 0 = unbounded>] [--max-inflight <N, 0 = unbounded>] \
     [--max-budget <nodes>] [--listen <ip:port> | --socket <path>]\n\
     stdin lines: <soc> <width> <max-tams> [min-tams=N] [priority=P] \
     [time-limit=S] [node-budget=N] [kind=point|topk:K|frontier:LO..HI:STEP]  \
     |  cancel <id>  |  stats (live mode only)\n\
     prefix every line with @<generation> to replay a deterministic trace\n\
     with --listen/--socket the same lines arrive per connection (no @ tags), \
     ids are per-client, and closing stdin shuts the server down"
}

fn parse_serve_args(mut argv: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut threads = 1usize;
    let mut time_limit = None;
    let mut warm_start = true;
    let mut aging = 0u32;
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

fn serve_main(argv: impl Iterator<Item = String>) -> io::Result<ExitCode> {
    let args = match parse_serve_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut config = LiveConfig::with_threads(args.threads);
    config.warm_start = args.warm_start;
    config.aging = args.aging;
    config.max_pending = args.max_pending;
    if let Some(limit) = args.time_limit {
        config = config.time_limit(limit);
    }
    // A SIGKILLed daemon leaves its sidecar locks behind; the operator
    // opts into reclaiming them (a *live* holder would lose the lock
    // too — breaking is explicitly not automatic).
    if args.break_locks {
        for (kind, path) in [("store", &args.store), ("journal", &args.journal)] {
            let Some(path) = path else { continue };
            match break_lock(path) {
                Ok(true) => eprintln!("tamopt: {kind} `{path}`: broke a stale lock"),
                Ok(false) => {}
                Err(e) => eprintln!("tamopt: {kind} `{path}`: cannot break lock: {e}"),
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
                return Ok(ExitCode::FAILURE);
            }
        };
    }

    // Announce the wire protocol before any outcome streams: consumers
    // (and the replay comparator) key their parsing off this version.
    write_stdout(&format!(
        "{{\"protocol\": \"tamopt-serve\", \"v\": {WIRE_VERSION}}}\n"
    ))?;

    // Crash safety: open the write-ahead journal and — before reading
    // any input — redo whatever a previous process accepted but never
    // sealed. Recovered outcome lines print first, with original ids.
    let journal = match &args.journal {
        None => None,
        Some(path) => match Journal::open(path, args.sync) {
            Err(e) => {
                eprintln!("cannot open journal `{path}`: {e}");
                return Ok(ExitCode::FAILURE);
            }
            Ok(opened) => {
                for warning in &opened.warnings {
                    eprintln!("tamopt: journal `{path}`: {warning}");
                }
                let binding = JournalBinding::new(opened.journal);
                let recovered = match recover_journal(&opened.records, &config, &args) {
                    Ok(outcomes) => outcomes,
                    Err(msg) => {
                        eprintln!("{msg}");
                        return Ok(ExitCode::FAILURE);
                    }
                };
                for outcome in &recovered {
                    write_stdout(&outcome.to_json_line())?;
                    binding.sealed(outcome.index);
                }
                Some(binding)
            }
        },
    };

    // Live lines, on stdin or a socket, go through one parser and one
    // session layer: submit, cancel, quota, journal and budget clamp
    // happen in `NetServer`.
    let max_budget = args.max_budget;
    let parser: LineParser =
        Arc::new(move |line: &str| parse_session_line(line, &load_soc, max_budget));
    let options = NetOptions {
        max_inflight: args.max_inflight,
        journal: journal.clone(),
    };
    if args.listen.is_some() || args.socket.is_some() {
        return serve_net(&args, config, parser, options);
    }

    use std::io::BufRead as _;
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines().enumerate();

    // The first directive decides the mode: `@`-tagged → deterministic
    // trace replay; untagged → live submission as lines arrive. Only the
    // tag is read here: either mode parses its input, and reports a
    // malformed line its own way, from that first line on.
    let mut first = None;
    for (number, line) in lines.by_ref() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("serve: cannot read stdin: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let directive = directive_text(&line);
        if !directive.is_empty() {
            first = Some((number, directive.starts_with('@'), line));
            break;
        }
    }

    let (report, invalid_lines) = match first {
        // Empty input: an empty trace still owes a valid (empty) report.
        None => (LiveQueue::replay(Trace::new(), config).1, 0),
        Some((number, true, line)) => {
            // Trace mode: collect the whole input, then replay. A trace
            // is its own deterministic recovery script, so it is not
            // journalled (recovery of a *previous* crash already ran).
            if journal.is_some() {
                eprintln!("serve: trace replay is not journalled (the trace itself is the recovery script)");
            }
            let lines = std::iter::once((number, Ok(line))).chain(lines);
            let trace = match collect_trace(lines, &args) {
                Ok(trace) => trace,
                Err(msg) => {
                    eprintln!("{msg}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let (stream, report) = LiveQueue::replay(trace, config);
            let text: String = stream.iter().map(RequestOutcome::to_json_line).collect();
            write_stdout(&text)?;
            (report, 0)
        }
        Some((number, false, line)) => {
            // Live mode: stdin is one session of the net layer. Refused
            // lines are reported and skipped — work already submitted
            // keeps running — and input errors fail the exit code. A
            // closed stdout ends the session, as a hang-up ends a socket
            // client's, and fails the run.
            let lines = std::iter::once((number, Ok(line))).chain(lines);
            let (report, invalid) = NetServer::serve_stdin(config, parser, options, lines)?;
            (report.expect("first shutdown"), invalid)
        }
    };
    finish(&report, journal.as_ref(), invalid_lines)
}

/// Ends a serve run: compacts the journal, prints the final report and
/// picks the exit code (invalid input lines or failed requests fail it).
fn finish(
    report: &BatchReport,
    journal: Option<&JournalBinding>,
    invalid_lines: usize,
) -> io::Result<ExitCode> {
    if invalid_lines > 0 {
        eprintln!("{invalid_lines} invalid line(s)");
    }
    // Clean shutdown: every accepted id is sealed, so the journal owes
    // nothing — truncate it to an empty header. Even a run with invalid
    // lines drained its queue and sealed every outcome.
    if let Some(journal) = journal {
        journal.compact();
    }
    write_stdout(&report.to_json())?;
    if invalid_lines > 0 {
        return Ok(ExitCode::FAILURE);
    }
    let failed = report.count(RequestStatus::Failed);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Collects a trace-mode input into one [`Trace`], replayed by
/// [`LiveQueue::replay`]. Fails on the first line that only
/// live mode accepts (an untagged line, `stats`), and on unreadable or
/// malformed input.
fn collect_trace(
    lines: impl Iterator<Item = (usize, std::io::Result<String>)>,
    args: &ServeArgs,
) -> Result<Trace, String> {
    let mut trace = Trace::new();
    for (number, line) in lines {
        let line = line.map_err(|e| format!("serve: cannot read stdin: {e}"))?;
        let parsed = parse_serve_line(&line, &load_soc)
            .map_err(|msg| format!("serve: line {}: {msg}", number + 1))?;
        let Some((tag, directive)) = parsed else {
            continue;
        };
        let line = number + 1;
        let generation = match (tag, &directive) {
            (_, NetDirective::Stats) => {
                return Err(format!(
                    "serve: line {line}: `stats` is only available in live mode"
                ))
            }
            (None, _) => {
                return Err(format!(
                    "serve: line {line}: missing @<generation> tag (trace mode)"
                ))
            }
            (Some(generation), _) => generation,
        };
        trace = match directive {
            NetDirective::Submit(mut request) => {
                clamp_budget(&mut request, args.max_budget);
                trace.submit_at(generation, request)
            }
            NetDirective::Cancel(id) => trace.cancel_at(generation, id),
            NetDirective::Stats => unreachable!("rejected above"),
        };
    }
    Ok(trace)
}

/// Redoes a crashed daemon's accepted-but-unsealed requests, so a
/// `kill -9` mid-workload loses nothing: parses each journaled line,
/// resubmits the live ones in original-id order through a fresh queue
/// and returns every outcome, in id order, with its
/// original id and client stamp; the caller prints and seals each.
/// Requests that were cancelled before the crash are not re-run — their
/// `cancelled` outcome is synthesized directly — so the output still
/// closes every accepted id exactly once. With `--store`, the redo
/// finds identical winners with strictly fewer completed evaluations.
fn recover_journal(
    records: &[JournalRecord],
    config: &LiveConfig,
    args: &ServeArgs,
) -> Result<Vec<RequestOutcome>, String> {
    let pending = tamopt::store::journal::unsealed(records);
    if pending.is_empty() {
        return Ok(Vec::new());
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
        let parsed = parse_session_line(&r.line, &load_soc, args.max_budget)
            .map_err(|e| format!("journal: request {}: {e}", r.id))?;
        let Some(NetDirective::Submit(request)) = parsed else {
            return Err(format!(
                "journal: request {}: journaled line is not a submission",
                r.id
            ));
        };
        if r.cancelled {
            outcomes.push(RequestOutcome {
                index: r.id as usize,
                client: r.client.map(|c| c as usize),
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
        // The same warm store, but no backlog cap: everything here was accepted once
        // already, so recovery must never shed it.
        let mut recovery_config = config.clone();
        recovery_config.max_pending = 0;
        let queue = LiveQueue::start(recovery_config);
        let mut owner = std::collections::HashMap::new();
        for (r, request) in &live {
            let (id, _) = queue
                .submit(request.clone())
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
    Ok(outcomes)
}

/// The network front-end behind `serve --listen` / `--socket`: bind,
/// announce the endpoint on stdout, serve clients until **stdin**
/// closes (the operator's shutdown signal), then print the
/// client-stamped final report.
fn serve_net(
    args: &ServeArgs,
    config: LiveConfig,
    parser: LineParser,
    options: NetOptions,
) -> io::Result<ExitCode> {
    let listener = match (&args.listen, &args.socket) {
        (Some(addr), None) => NetListener::tcp(addr),
        (None, Some(path)) => NetListener::unix(path.as_str()),
        _ => unreachable!("parse_serve_args enforces exclusivity"),
    };
    let listener = match listener {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("serve: cannot bind: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Port 0 resolves at bind time; announce the real endpoint so
    // clients (and tests) can discover it.
    write_stdout(&format!(
        "{{\"listening\": {}}}\n",
        json_string(listener.addr())
    ))?;

    let journal = options.journal.clone();
    let server = NetServer::start_with_options(config, listener, parser, options);

    // Stdin is not a request source in network mode — it is the
    // lifetime: the server runs until it closes.
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());

    let report = server.shutdown().expect("first shutdown");
    finish(&report, journal.as_ref(), 0)
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

/// Writes `text` to stdout and flushes it. Every stdout write of the
/// binary goes through here: unlike `print!`, which panics once the
/// reader of stdout has gone, it hands the error back to [`main`].
fn write_stdout(text: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    out.write_all(text.as_bytes())?;
    out.flush()
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let run = match argv.peek().map(String::as_str) {
        Some("batch") => {
            argv.next();
            batch_main(argv)
        }
        Some("serve") => {
            argv.next();
            serve_main(argv)
        }
        _ => optimize_main(argv),
    };
    run.unwrap_or_else(|e| {
        eprintln!("tamopt: cannot write stdout: {e}");
        ExitCode::FAILURE
    })
}

/// The one-shot optimization: one SOC, one width, one report.
fn optimize_main(argv: impl Iterator<Item = String>) -> io::Result<ExitCode> {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let soc = match load_soc(&args.soc) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut optimizer = CoOptimizer::new(soc, args.width)
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
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut text = arch.report();
    if args.analyze {
        text = format!("{text}\n{}", UtilizationReport::new(&arch));
    }
    write_stdout(&text)?;
    Ok(ExitCode::SUCCESS)
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
        ])
        .unwrap();
        assert_eq!(a.min_tams, 2);
        assert_eq!(a.max_tams, Some(6));
        assert_eq!(a.strategy, Strategy::Exhaustive);
        assert!(a.analyze);
    }

    #[test]
    fn report_flags_default_off() {
        let a = args(&["--soc", "d695", "--width", "32"]).unwrap();
        assert!(!a.analyze);
    }

    #[test]
    fn rejects_missing_required() {
        assert!(args(&["--width", "32"])
            .unwrap_err()
            .contains("--soc is required"));
        assert!(args(&["--soc", "d695"])
            .unwrap_err()
            .contains("--width is required"));
        assert!(args(&["--width", "32"])
            .unwrap_err()
            .contains("tamopt serve"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(args(&["--soc", "d695", "--width", "x"]).is_err());
        for strategy in ["magic", "two-step-ilp"] {
            let err = args(&["--soc", "d695", "--width", "8", "--strategy", strategy]).unwrap_err();
            assert!(err.contains("unknown strategy"), "{err}");
        }
        assert!(args(&["--soc", "d695", "--width", "8", "--frobnicate"]).is_err());
        assert!(args(&["--soc"]).is_err());
    }

    #[test]
    fn strategy_names() {
        for (name, expected) in [
            ("two-step", Strategy::TwoStep),
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
            ["--socket", "/tmp/tamopt.sock"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(b.socket.as_deref(), Some("/tmp/tamopt.sock"));
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
