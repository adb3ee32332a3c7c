//! Seeded multi-client chaos harness over the network front-end.
//!
//! Generates random multi-client scenarios — concurrent submitters,
//! mid-run disconnects, partial writes mid-frame, stalled readers,
//! malformed lines, out-of-namespace cancels — and checks them three
//! ways:
//!
//! * **replay**: the deterministic twin ([`tamopt::service::chaos`]).
//!   Every scenario must produce byte-identical per-client transcripts
//!   and final reports across threads {1, 2, 8} × shards
//!   {flat, 1, 2, 4} — the workspace determinism contract extended to
//!   hostile multi-client traffic.
//! * **socket**: the same scenario driven over real TCP connections
//!   against a live [`tamopt::service::NetServer`]. The stream
//!   interleaving is scheduler-dependent, so the oracles are semantic:
//!   every submission is answered exactly once (sealed shutdown
//!   included), every malformed line gets its versioned error line,
//!   disconnects neither leak requests nor perturb siblings — even
//!   when the disconnect tears a frame in half — and nobody reads
//!   until shutdown, so every client is a "stalled reader" exercising
//!   the writer buffering.
//! * **crash**: a kill-restart storm against the real `tamopt serve
//!   --journal --store` binary. A random workload is fed to a
//!   journal-backed daemon which is `SIGKILL`ed mid-workload and
//!   restarted; the oracles are the crash-safety contract itself —
//!   every journalled (accepted) request is answered across the two
//!   incarnations, recovered winners are byte-identical to an
//!   uninterrupted run's, and the journal compacts to its empty
//!   header once everything is sealed.
//!
//! ```text
//! cargo run --release --example chaos -- [--seed S] [--scenarios K] \
//!     [--clients N] [--events M] [--mode all|replay|socket|crash]
//! ```
//!
//! On any violation the offending scenario script is written to
//! `chaos-failures/` (reproduce with the printed seed) and the process
//! exits non-zero. Crash mode needs the `tamopt` binary built in the
//! same profile (`cargo build [--release] -p tamopt`); under
//! `--mode all` it is skipped with a warning when the binary is
//! missing, under `--mode crash` that is a failure.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tamopt::cli::{parse_serve_line, ServeLine};
use tamopt::service::chaos::replay;
use tamopt::service::{
    ChaosScenario, ClientScript, LineParser, LiveConfig, NetDirective, NetListener, NetServer,
};
use tamopt::soc::{benchmarks, Soc};
use tamopt::store::journal::{decode, JournalRecord};

const BENCHES: [&str; 3] = ["d695", "p21241", "p31108"];

fn resolve(name: &str) -> Result<Soc, String> {
    match name {
        "d695" => Ok(benchmarks::d695()),
        "p21241" => Ok(benchmarks::p21241()),
        "p31108" => Ok(benchmarks::p31108()),
        other => Err(format!("unknown SOC `{other}`")),
    }
}

/// The serve grammar adapted for the network path, exactly as the
/// `tamopt serve --listen` binary does it: `@` tags are trace-only.
fn net_parse(line: &str) -> Result<Option<NetDirective>, String> {
    match parse_serve_line(line, &resolve)? {
        None => Ok(None),
        Some((Some(_tag), _)) => {
            Err("@<generation> tags are only valid in trace mode, not over the network".to_owned())
        }
        Some((None, ServeLine::Submit(request))) => Ok(Some(NetDirective::Submit(request))),
        Some((None, ServeLine::Cancel(id))) => Ok(Some(NetDirective::Cancel(id))),
        Some((None, ServeLine::Stats)) => Ok(Some(NetDirective::Stats)),
    }
}

fn usage() -> String {
    "usage: chaos [--seed S] [--scenarios K] [--clients N] [--events M] \
     [--mode all|replay|socket|crash]"
        .to_owned()
}

struct Args {
    seed: u64,
    scenarios: u64,
    clients: usize,
    events: usize,
    mode: String,
}

fn parse_args() -> Result<Args, String> {
    let mut seed = 0xC4A0_5202;
    let mut scenarios = 3;
    let mut clients = 3;
    let mut events = 6;
    let mut mode = "all".to_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => seed = value("--seed")?.parse().map_err(|_| usage())?,
            "--scenarios" => scenarios = value("--scenarios")?.parse().map_err(|_| usage())?,
            "--clients" => clients = value("--clients")?.parse().map_err(|_| usage())?,
            "--events" => events = value("--events")?.parse().map_err(|_| usage())?,
            "--mode" => mode = value("--mode")?,
            _ => return Err(usage()),
        }
    }
    if !["all", "replay", "socket", "crash"].contains(&mode.as_str()) {
        return Err(usage());
    }
    if clients == 0 || events == 0 {
        return Err(usage());
    }
    Ok(Args {
        seed,
        scenarios,
        clients,
        events,
        mode,
    })
}

/// One generated client event, kept alongside its script form so the
/// socket driver and the failure artifact can replay it.
#[derive(Clone)]
enum Event {
    Line(String),
    /// The same frame written in two chunks with a pause in between —
    /// the framer must reassemble it; semantically identical to
    /// [`Event::Line`].
    Partial(String),
    /// The client stops reading and writing for a while; the server's
    /// writer keeps streaming into the socket buffer unperturbed.
    Stall,
    /// Drop the connection — after tearing off a dangling half-frame,
    /// which the server must discard without disturbing siblings.
    Disconnect,
}

/// A generated scenario: per-client generation-tagged events.
struct Scenario {
    events: Vec<Vec<(u32, Event)>>,
}

impl Scenario {
    fn to_chaos(&self) -> ChaosScenario {
        ChaosScenario::new(
            self.events
                .iter()
                .map(|events| {
                    let mut script = ClientScript::new();
                    for (generation, event) in events {
                        script = match event {
                            Event::Line(line) => script.line_at(*generation, line.clone()),
                            // The replay twin sees frames, not bytes: a
                            // reassembled partial is just its line, a
                            // stall is invisible, and a dangling
                            // half-frame never becomes a frame at all.
                            Event::Partial(line) => script.line_at(*generation, line.clone()),
                            Event::Stall => script,
                            Event::Disconnect => script.disconnect_at(*generation),
                        };
                    }
                    script
                })
                .collect(),
        )
    }

    /// Human-readable script, written to `chaos-failures/` on a
    /// violation.
    fn render(&self) -> String {
        let mut text = String::new();
        for (client, events) in self.events.iter().enumerate() {
            for (generation, event) in events {
                let line = match event {
                    Event::Line(line) => line.clone(),
                    Event::Partial(line) => format!("<partial> {line}"),
                    Event::Stall => "<stall>".to_owned(),
                    Event::Disconnect => "<disconnect>".to_owned(),
                };
                text.push_str(&format!("client {client} @{generation}: {line}\n"));
            }
        }
        text
    }
}

/// One valid network submit line, small enough for a dense grid sweep.
fn gen_submit(rng: &mut StdRng) -> String {
    let soc = BENCHES[rng.gen_range(0..BENCHES.len())];
    let width = rng.gen_range(8..=32u32);
    let max_tams = rng.gen_range(1..=4u32);
    let mut line = format!("{soc} {width} {max_tams}");
    if rng.gen::<bool>() {
        line.push_str(&format!(" priority={}", rng.gen_range(0..=9u32)));
    }
    line
}

fn gen_scenario(rng: &mut StdRng, clients: usize, events: usize) -> Scenario {
    let scripts = (0..clients)
        .map(|_| {
            let mut script: Vec<(u32, Event)> = Vec::new();
            let mut generation = 0u32;
            let mut disconnected = false;
            for _ in 0..events {
                if disconnected {
                    break;
                }
                generation += rng.gen_range(0..=1u32);
                let event = match rng.gen_range(0u32..12) {
                    // Mostly real work, so the grid exercises the queue.
                    0..=5 => Event::Line(gen_submit(rng)),
                    6 => Event::Line(format!("cancel {}", rng.gen_range(0..events))),
                    7 => Event::Line("totally not a request".to_owned()),
                    8 => Event::Line(format!("@{} d695 16 2", rng.gen_range(0..4u32))),
                    9 => Event::Partial(gen_submit(rng)),
                    10 => Event::Stall,
                    _ => {
                        disconnected = true;
                        Event::Disconnect
                    }
                };
                script.push((generation, event));
            }
            script
        })
        .collect();
    Scenario { events: scripts }
}

struct Session {
    seed: u64,
    failures: Vec<(u64, String, String)>,
}

impl Session {
    fn fail(&mut self, scenario_id: u64, reason: String, script: String) {
        eprintln!("chaos: scenario {scenario_id}: {reason}");
        self.failures.push((scenario_id, reason, script));
    }
}

/// The replay grid: threads {1, 2, 8} × shards {flat, 1, 2, 4} must be
/// byte-identical (transcripts and wall-clock-free report).
fn check_replay(s: &mut Session, id: u64, scenario: &Scenario) {
    let chaos = scenario.to_chaos();
    for shards in [None, Some(1), Some(2), Some(4)] {
        let config = |threads| LiveConfig {
            shards,
            ..LiveConfig::with_threads(threads)
        };
        let reference = replay(&chaos, config(1), &net_parse);
        for threads in [2, 8] {
            let run = replay(&chaos, config(threads), &net_parse);
            if run.transcripts != reference.transcripts {
                s.fail(
                    id,
                    format!("transcripts drifted at threads {threads}, shards {shards:?}"),
                    scenario.render(),
                );
            }
            if run.stable_report() != reference.stable_report() {
                s.fail(
                    id,
                    format!("report drifted at threads {threads}, shards {shards:?}"),
                    scenario.render(),
                );
            }
        }
    }
}

/// What the socket driver expects back per client, tallied while
/// sending.
#[derive(Default)]
struct Expected {
    submits: usize,
    parse_errors: usize,
    unknown_ids: usize,
    stats: usize,
}

/// What one client actually received, tallied by line envelope.
#[derive(Default)]
struct Tally {
    outcomes: usize,
    errors: usize,
    stats: usize,
}

enum Kind {
    Outcome,
    Error,
    Stats,
}

/// Classifies a received line by its envelope. Outcome lines are
/// `{"v": 1, "id": L, "client": C, ...}`; error and stats lines lead
/// with the client id instead. Substrings are not enough — outcome
/// lines legitimately contain a `"stats"` payload of prune counters.
fn classify(client: usize, line: &str) -> Option<Kind> {
    if line.starts_with("{\"v\": 1, \"id\": ") {
        return line
            .contains(&format!("\"client\": {client}"))
            .then_some(Kind::Outcome);
    }
    let envelope = format!("{{\"v\": 1, \"client\": {client}, ");
    let rest = line.strip_prefix(&envelope)?;
    if rest.starts_with("\"error\": ") {
        Some(Kind::Error)
    } else if rest.starts_with("\"stats\": ") {
        Some(Kind::Stats)
    } else {
        None
    }
}

/// Reads lines into `tally` until the **barrier** stats response: the
/// client may still have `pending_stats` unread responses to scenario
/// `stats` lines, which are tallied; the one after those is the
/// barrier's own, left untallied. Errors on EOF or a bad envelope.
fn read_until_stats(
    client: usize,
    reader: &mut BufReader<TcpStream>,
    tally: &mut Tally,
    mut pending_stats: usize,
) -> Result<(), String> {
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("client {client}: EOF before the stats barrier")),
            Ok(_) => match classify(client, &line) {
                Some(Kind::Outcome) => tally.outcomes += 1,
                Some(Kind::Error) => tally.errors += 1,
                Some(Kind::Stats) => {
                    if pending_stats == 0 {
                        return Ok(());
                    }
                    pending_stats -= 1;
                    tally.stats += 1;
                }
                None => return Err(format!("client {client}: bad envelope: {line}")),
            },
            Err(e) => return Err(format!("client {client}: read failed: {e}")),
        }
    }
}

/// Drives `scenario` over real TCP connections and checks the semantic
/// oracles. Nobody reads until their connection ends, so every client
/// also exercises the stalled-reader (writer-buffering) path. Before a
/// disconnect — and before shutdown — the driver runs a `stats`
/// round-trip barrier: each connection's reader processes frames in
/// order, so the response proves every earlier line was registered.
fn check_socket(s: &mut Session, id: u64, scenario: &Scenario, shards: Option<usize>) {
    let parser: LineParser = Arc::new(net_parse);
    let listener = match NetListener::tcp("127.0.0.1:0") {
        Ok(listener) => listener,
        Err(e) => {
            s.fail(
                id,
                format!("cannot bind a loopback port: {e}"),
                scenario.render(),
            );
            return;
        }
    };
    let config = LiveConfig {
        shards,
        ..LiveConfig::with_threads(2)
    };
    let server = NetServer::start(config, listener, parser);
    let addr = server.addr().to_owned();

    // Connect sequentially, reading each greeting before the next
    // connect, so client ids match scenario positions.
    let mut streams: Vec<Option<(TcpStream, BufReader<TcpStream>)>> = Vec::new();
    for client in 0..scenario.events.len() {
        let stream = TcpStream::connect(&addr).expect("connecting to the chaos server");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .expect("setting a read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("cloning the stream"));
        let mut greeting = String::new();
        reader.read_line(&mut greeting).expect("greeting");
        if !greeting.contains(&format!("\"client\": {client}")) {
            s.fail(id, format!("wrong greeting: {greeting}"), scenario.render());
        }
        streams.push(Some((stream, reader)));
    }

    // Merge events exactly as the replay does — (generation, client,
    // position) — and drive them down the live connections.
    let mut merged: Vec<(u32, usize, &Event)> = Vec::new();
    for (client, events) in scenario.events.iter().enumerate() {
        for (generation, event) in events {
            merged.push((*generation, client, event));
        }
    }
    merged.sort_by_key(|&(generation, _, _)| generation);

    let mut expected: Vec<Expected> = scenario
        .events
        .iter()
        .map(|_| Expected::default())
        .collect();
    let mut tallies: Vec<Tally> = scenario.events.iter().map(|_| Tally::default()).collect();
    for (_, client, event) in merged {
        let Some((stream, reader)) = streams[client].as_mut() else {
            continue;
        };
        match event {
            Event::Disconnect => {
                // Barrier first: once the stats response arrives, every
                // earlier line on this connection is registered, so the
                // disconnect cancels exactly the still-outstanding ones
                // and the report accounts for all of them.
                writeln!(stream, "stats").expect("writing the disconnect barrier");
                let pending = expected[client].stats - tallies[client].stats;
                if let Err(reason) = read_until_stats(client, reader, &mut tallies[client], pending)
                {
                    s.fail(id, reason, scenario.render());
                }
                // Tear off mid-frame: the dangling bytes never become a
                // frame, so the server must discard them silently when
                // the connection drops.
                let _ = stream.write_all(b"p21241 16");
                let _ = stream.flush();
                streams[client] = None;
            }
            Event::Stall => {
                // Neither read nor write for a beat; the server's
                // writer keeps streaming into the socket buffer.
                std::thread::sleep(Duration::from_millis(20));
            }
            Event::Partial(line) => {
                // One frame, two writes: the framer must reassemble it
                // into exactly the line the replay twin saw.
                let (head, tail) = line.as_bytes().split_at(line.len() / 2);
                stream.write_all(head).expect("writing a partial frame");
                stream.flush().expect("flushing a partial frame");
                std::thread::sleep(Duration::from_millis(2));
                stream.write_all(tail).expect("completing a partial frame");
                writeln!(stream).expect("terminating a partial frame");
                match net_parse(line) {
                    Err(_) => expected[client].parse_errors += 1,
                    Ok(None) => {}
                    Ok(Some(NetDirective::Submit(_))) => expected[client].submits += 1,
                    Ok(Some(NetDirective::Stats)) => expected[client].stats += 1,
                    Ok(Some(NetDirective::Cancel(local))) => {
                        if local >= expected[client].submits {
                            expected[client].unknown_ids += 1;
                        }
                    }
                }
            }
            Event::Line(line) => {
                writeln!(stream, "{line}").expect("writing a scenario line");
                match net_parse(line) {
                    Err(_) => expected[client].parse_errors += 1,
                    Ok(None) => {}
                    Ok(Some(NetDirective::Submit(_))) => expected[client].submits += 1,
                    Ok(Some(NetDirective::Stats)) => expected[client].stats += 1,
                    Ok(Some(NetDirective::Cancel(local))) => {
                        // In-range cancels are silent; out-of-range ones
                        // are typed errors. "In range" is judged against
                        // what this client has submitted so far.
                        if local >= expected[client].submits {
                            expected[client].unknown_ids += 1;
                        }
                    }
                }
            }
        }
    }

    // Barrier every surviving connection, so shutdown cannot outrun a
    // reader thread that still holds unprocessed frames.
    for (client, entry) in streams.iter_mut().enumerate() {
        let Some((stream, reader)) = entry.as_mut() else {
            continue;
        };
        writeln!(stream, "stats").expect("writing the shutdown barrier");
        let pending = expected[client].stats - tallies[client].stats;
        if let Err(reason) = read_until_stats(client, reader, &mut tallies[client], pending) {
            s.fail(id, reason, scenario.render());
        }
    }

    // Seal the queue: pending work surfaces as cancelled/skipped and
    // streams to the still-connected clients, then the channels close.
    let report = match server.shutdown() {
        Some(report) => report,
        None => {
            s.fail(
                id,
                "shutdown returned no report".to_owned(),
                scenario.render(),
            );
            return;
        }
    };

    let total_submits: usize = expected.iter().map(|e| e.submits).sum();
    if report.outcomes.len() != total_submits {
        s.fail(
            id,
            format!(
                "report accounts for {} outcomes, {} were submitted",
                report.outcomes.len(),
                total_submits
            ),
            scenario.render(),
        );
    }
    for outcome in &report.outcomes {
        if outcome.client.is_none() {
            s.fail(
                id,
                format!("outcome {} lost its client stamp", outcome.index),
                scenario.render(),
            );
        }
    }

    // Drain every surviving connection to EOF — the sealed tail — then
    // compare tallies. Surviving clients get exactly one outcome line
    // per submission; a disconnected client received a prefix (the
    // router drops its lines once the connection is gone).
    let survived: Vec<bool> = streams.iter().map(Option::is_some).collect();
    for (client, entry) in streams.into_iter().enumerate() {
        let Some((stream, mut reader)) = entry else {
            continue;
        };
        drop(stream);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => match classify(client, &line) {
                    Some(Kind::Outcome) => tallies[client].outcomes += 1,
                    Some(Kind::Error) => tallies[client].errors += 1,
                    Some(Kind::Stats) => tallies[client].stats += 1,
                    None => s.fail(
                        id,
                        format!("client {client}: bad envelope: {line}"),
                        scenario.render(),
                    ),
                },
                Err(e) => {
                    s.fail(
                        id,
                        format!("client {client} read failed: {e}"),
                        scenario.render(),
                    );
                    break;
                }
            }
        }
    }
    for (client, (want, got)) in expected.iter().zip(&tallies).enumerate() {
        let outcomes_ok = if survived[client] {
            got.outcomes == want.submits
        } else {
            got.outcomes <= want.submits
        };
        if !outcomes_ok {
            s.fail(
                id,
                format!(
                    "client {client}: {} outcome lines for {} submissions (survived: {})",
                    got.outcomes, want.submits, survived[client]
                ),
                scenario.render(),
            );
        }
        if got.errors != want.parse_errors + want.unknown_ids {
            s.fail(
                id,
                format!(
                    "client {client}: {} error lines, expected {} parse + {} unknown-id",
                    got.errors, want.parse_errors, want.unknown_ids
                ),
                scenario.render(),
            );
        }
        if got.stats != want.stats {
            s.fail(
                id,
                format!(
                    "client {client}: {} stats lines for {} requests",
                    got.stats, want.stats
                ),
                scenario.render(),
            );
        }
    }
}

/// A random single-daemon workload for the crash grid: plain submit
/// lines, with enough heavy requests that a kill lands mid-workload.
fn gen_workload(rng: &mut StdRng) -> Vec<String> {
    let count = rng.gen_range(5..=8usize);
    (0..count)
        .map(|_| {
            let soc = BENCHES[rng.gen_range(0..BENCHES.len())];
            let width = rng.gen_range(16..=48u32);
            let max_tams = rng.gen_range(2..=6u32);
            let mut line = format!("{soc} {width} {max_tams}");
            if rng.gen::<bool>() {
                line.push_str(&format!(" priority={}", rng.gen_range(0..=9u32)));
            }
            line
        })
        .collect()
}

/// The `tamopt` binary built in the same profile as this example
/// (`target/<profile>/examples/chaos` → `target/<profile>/tamopt`).
fn tamopt_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?;
    let path = dir.join(format!("tamopt{}", std::env::consts::EXE_SUFFIX));
    path.exists().then_some(path)
}

fn spawn_serve(
    binary: &Path,
    dir: &Path,
    shards: Option<usize>,
    extra: &[&str],
) -> std::io::Result<std::process::Child> {
    let mut command = std::process::Command::new(binary);
    command
        .current_dir(dir)
        .args(["serve", "--threads", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Some(shards) = shards {
        command.args(["--shards", &shards.to_string()]);
    }
    command.args(extra);
    command.spawn()
}

/// `{"v": 1, "id": N, ...}` outcome lines only; the banner and the
/// report tail are filtered out. A `kill -9` can land mid-write, so
/// torn tails are dropped by requiring the closing braces.
fn outcome_lines(stdout: &[u8]) -> Vec<(usize, String)> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|line| line.ends_with("}}"))
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"v\": 1, \"id\": ")?;
            let end = rest.find(',')?;
            let id: usize = rest[..end].parse().ok()?;
            Some((id, line.to_owned()))
        })
        .collect()
}

/// The winner fields of an outcome line: the prune-statistics tail and
/// the shard stamp are stripped. A warm-started redo prunes more
/// (different `stats`), and live shard routing steals by instantaneous
/// load (timing-dependent `shard`), but the winner itself must be
/// byte-identical.
fn winner(line: &str) -> String {
    let head = line.split(", \"stats\": ").next().unwrap_or(line);
    match (head.find(", \"shard\": "), head.find(", \"soc\": ")) {
        (Some(start), Some(end)) if start < end => format!("{}{}", &head[..start], &head[end..]),
        _ => head.to_owned(),
    }
}

/// Crash-and-restart a `--journal --store`-backed daemon mid-workload.
///
/// Oracles: (1) every journalled (accepted) request is answered across
/// the crashed + recovered incarnations, and recovery answers only
/// journalled requests; (2) every answer — pre-crash and recovered
/// alike — carries the same winner as an uninterrupted reference run
/// (prune stats may differ: the warm store makes the redo cheaper);
/// (3) once everything is sealed the journal compacts back to its
/// empty 12-byte header.
fn check_crash_restart(
    s: &mut Session,
    id: u64,
    rng: &mut StdRng,
    shards: Option<usize>,
    binary: &Path,
) {
    let workload = gen_workload(rng);
    let script = workload.join("\n") + "\n";
    let dir = std::env::temp_dir().join(format!("tamopt-chaos-{}-{id}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        s.fail(id, format!("cannot create {}: {e}", dir.display()), script);
        return;
    }
    let result = crash_restart_cycle(&dir, &workload, shards, binary);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(reason) = result {
        s.fail(id, reason, script);
    }
}

fn crash_restart_cycle(
    dir: &Path,
    workload: &[String],
    shards: Option<usize>,
    binary: &Path,
) -> Result<(), String> {
    let script = workload.join("\n") + "\n";

    // Uninterrupted reference run: same shard shape, no persistence.
    let mut reference = spawn_serve(binary, dir, shards, &[])
        .map_err(|e| format!("cannot spawn the reference daemon: {e}"))?;
    reference
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .map_err(|e| format!("cannot feed the reference daemon: {e}"))?;
    let output = reference
        .wait_with_output()
        .map_err(|e| format!("reference daemon failed: {e}"))?;
    if !output.status.success() {
        return Err(format!("reference daemon exited with {}", output.status));
    }
    let expected: BTreeMap<usize, String> = outcome_lines(&output.stdout)
        .into_iter()
        .map(|(id, line)| (id, winner(&line)))
        .collect();
    if expected.len() != workload.len() {
        return Err(format!(
            "reference run answered {} of {} submissions",
            expected.len(),
            workload.len()
        ));
    }

    // Journal-backed victim, SIGKILLed mid-workload. Stdin stays open
    // so the daemon keeps serving right up to the kill.
    let flags = ["--journal", "j.tamjrnl", "--store", "w.tamstore"];
    let mut victim = spawn_serve(binary, dir, shards, &flags)
        .map_err(|e| format!("cannot spawn the victim daemon: {e}"))?;
    let mut stdin = victim.stdin.take().expect("piped stdin");
    stdin
        .write_all(script.as_bytes())
        .map_err(|e| format!("cannot feed the victim daemon: {e}"))?;
    let _ = stdin.flush();
    std::thread::sleep(Duration::from_millis(60));
    victim
        .kill()
        .map_err(|e| format!("cannot kill the victim daemon: {e}"))?;
    let output = victim
        .wait_with_output()
        .map_err(|e| format!("victim daemon failed: {e}"))?;
    drop(stdin);
    let before = outcome_lines(&output.stdout);

    // What the journal promised: every accepted submit.
    let journal = dir.join("j.tamjrnl");
    let bytes = std::fs::read(&journal).map_err(|e| format!("cannot read the journal: {e}"))?;
    let accepted: BTreeSet<usize> = decode(&bytes)
        .map_err(|e| format!("journal does not decode after the kill: {e}"))?
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Submit { id, .. } => usize::try_from(*id).ok(),
            _ => None,
        })
        .collect();

    // Restart on the same journal + store; stale locks are expected.
    let flags = [
        "--journal",
        "j.tamjrnl",
        "--store",
        "w.tamstore",
        "--break-locks",
    ];
    let mut recovery = spawn_serve(binary, dir, shards, &flags)
        .map_err(|e| format!("cannot spawn the recovery daemon: {e}"))?;
    drop(recovery.stdin.take());
    let output = recovery
        .wait_with_output()
        .map_err(|e| format!("recovery daemon failed: {e}"))?;
    if !output.status.success() {
        return Err(format!("recovery daemon exited with {}", output.status));
    }
    let after = outcome_lines(&output.stdout);

    // Oracle 1: no accepted request lost, and recovery answers only
    // accepted ones. (The victim may additionally have answered a
    // request killed between queue accept and journal append.)
    let answered: BTreeSet<usize> = before.iter().chain(&after).map(|&(id, _)| id).collect();
    if !accepted.is_subset(&answered) {
        let lost: Vec<usize> = accepted.difference(&answered).copied().collect();
        return Err(format!(
            "accepted request(s) {lost:?} lost across the crash"
        ));
    }
    if let Some((id, _)) = after.iter().find(|(id, _)| !accepted.contains(id)) {
        return Err(format!(
            "recovery invented request {id} the journal never accepted"
        ));
    }

    // Oracle 2: winners byte-identical to the uninterrupted run.
    for (id, line) in before.iter().chain(&after) {
        match expected.get(id) {
            Some(want) if &winner(line) == want => {}
            Some(want) => {
                return Err(format!(
                    "request {id}: winner drifted across the crash\n  \
                     uninterrupted: {want}\n  crash cycle:   {}",
                    winner(line)
                ));
            }
            None => return Err(format!("request {id} was never submitted")),
        }
    }

    // Oracle 3: everything sealed → the journal is its empty header.
    let len = std::fs::metadata(&journal)
        .map_err(|e| format!("cannot stat the journal: {e}"))?
        .len();
    if len != 12 {
        return Err(format!(
            "journal holds {len} bytes after a clean recovery; expected the 12-byte empty header"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "chaos: scenarios={} clients={} events={} seed={} mode={} (reproduce with --seed {})",
        args.scenarios, args.clients, args.events, args.seed, args.mode, args.seed
    );

    let crash_binary = if args.mode == "all" || args.mode == "crash" {
        let binary = tamopt_binary();
        if binary.is_none() {
            if args.mode == "crash" {
                eprintln!(
                    "chaos: --mode crash needs the tamopt binary; \
                     run `cargo build -p tamopt` in the same profile first"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("chaos: tamopt binary not built in this profile; skipping crash scenarios");
        }
        binary
    } else {
        None
    };

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut session = Session {
        seed: args.seed,
        failures: Vec::new(),
    };
    for id in 0..args.scenarios {
        let scenario = gen_scenario(&mut rng, args.clients, args.events);
        // Alternate flat and sharded serving across scenarios.
        let shards = if id % 2 == 0 { None } else { Some(2) };
        if args.mode == "all" || args.mode == "replay" {
            check_replay(&mut session, id, &scenario);
        }
        if args.mode == "all" || args.mode == "socket" {
            check_socket(&mut session, id, &scenario, shards);
        }
        if let Some(binary) = &crash_binary {
            check_crash_restart(&mut session, id, &mut rng, shards, binary);
        }
        println!("chaos: scenario {id} checked");
    }

    if session.failures.is_empty() {
        println!("chaos: all scenarios clean");
        return ExitCode::SUCCESS;
    }
    let dir = std::path::Path::new("chaos-failures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("chaos: cannot create {}: {e}", dir.display());
    }
    for (id, reason, script) in &session.failures {
        let name = format!("scenario-seed{}-{id}.txt", session.seed);
        let path = dir.join(&name);
        let body = format!(
            "# chaos failure: {reason}\n\
             # reproduce: cargo run --release --example chaos -- --seed {} \n\
             {script}",
            session.seed
        );
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("chaos: {reason} -> {name}"),
            Err(e) => eprintln!("chaos: cannot write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "chaos: {} failure(s); scripts under {} (reproduce with --seed {})",
        session.failures.len(),
        dir.display(),
        session.seed
    );
    ExitCode::FAILURE
}
