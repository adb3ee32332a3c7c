//! Live socket tests for the multi-client front-end.
//!
//! The network path is inherently racy (outcome interleaving across
//! connections depends on the scheduler), so these tests check
//! *semantic* oracles — exactly one stamped outcome per surviving
//! submission, namespaces enforced, disconnects contained — and leave
//! byte-identity to the deterministic chaos replay suite.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tamopt_service::{
    LineParser, LiveConfig, NetDirective, NetListener, NetServer, Request, RequestStatus,
};
use tamopt_soc::benchmarks;

/// The minimal test grammar (the CLI grammar lives above this crate):
/// `<soc> <width> <max-tams>`, `cancel <id>`, `stats`.
fn parse(line: &str) -> Result<Option<NetDirective>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let first = parts.next().unwrap();
    if first == "stats" {
        return Ok(Some(NetDirective::Stats));
    }
    if first == "cancel" {
        let id = parts
            .next()
            .ok_or_else(|| "cancel needs an id".to_owned())?
            .parse()
            .map_err(|_| "invalid cancel id".to_owned())?;
        return Ok(Some(NetDirective::Cancel(id)));
    }
    let soc = match first {
        "d695" => benchmarks::d695(),
        "p31108" => benchmarks::p31108(),
        other => return Err(format!("unknown soc `{other}`")),
    };
    let width: u32 = parts
        .next()
        .ok_or_else(|| "missing width".to_owned())?
        .parse()
        .map_err(|_| "invalid width".to_owned())?;
    let max_tams: u32 = parts
        .next()
        .ok_or_else(|| "missing max-tams".to_owned())?
        .parse()
        .map_err(|_| "invalid max-tams".to_owned())?;
    Ok(Some(NetDirective::Submit(
        Request::new(soc, width)
            .map_err(|e| e.to_string())?
            .max_tams(max_tams),
    )))
}

fn parser() -> LineParser {
    Arc::new(parse)
}

fn tcp_server(threads: usize, shards: Option<usize>) -> NetServer {
    let listener = NetListener::tcp("127.0.0.1:0").expect("binding a loopback port");
    let config = LiveConfig {
        shards,
        ..LiveConfig::with_threads(threads)
    };
    NetServer::start(config, listener, parser())
}

/// How client 0's `stats` reply starts. Outcome lines carry a
/// `"stats"` key too (their prune counters), so match the prefix.
const STATS_REPLY: &str = "{\"v\": 1, \"client\": 0, \"stats\": ";

/// A line-oriented test client. Reads block with a generous timeout so
/// a regression fails the test instead of hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    id: usize,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connecting to the server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("setting a read timeout");
        let reader = BufReader::new(stream.try_clone().expect("cloning the stream"));
        let mut client = Client {
            stream,
            reader,
            id: usize::MAX,
        };
        let greeting = client.read_line();
        assert!(
            greeting.starts_with("{\"protocol\": \"tamopt-serve\", \"v\": 1, \"client\": "),
            "unexpected greeting: {greeting}"
        );
        client.id = greeting
            .rsplit("\"client\": ")
            .next()
            .and_then(|tail| tail.trim_end().trim_end_matches('}').parse().ok())
            .expect("client id in the greeting");
        client
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("writing a request line");
        self.stream.flush().expect("flushing the request line");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reading a line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line
    }
}

#[test]
fn clients_get_stamped_outcomes_in_their_own_namespaces() {
    let server = tcp_server(1, None);
    let addr = server.addr().to_owned();

    // Connect sequentially (reading each greeting first) so client ids
    // and global submission order are deterministic.
    let mut alice = Client::connect(&addr);
    assert_eq!(alice.id, 0);
    alice.send("d695 16 2");
    alice.send("p31108 24 3");
    for local in 0..2 {
        let line = alice.read_line();
        assert!(
            line.starts_with(&format!("{{\"v\": 1, \"id\": {local}, \"client\": 0, ")),
            "alice outcome {local}: {line}"
        );
    }

    let mut bob = Client::connect(&addr);
    assert_eq!(bob.id, 1);
    bob.send("d695 24 3");
    let line = bob.read_line();
    assert!(
        line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 1, "),
        "bob's id restarts at 0 in his own namespace: {line}"
    );

    let report = server
        .shutdown()
        .expect("first shutdown returns the report");
    assert_eq!(report.outcomes.len(), 3);
    // The report keeps global ids with client stamps.
    let stamped: Vec<(usize, Option<usize>)> = report
        .outcomes
        .iter()
        .map(|o| (o.index, o.client))
        .collect();
    assert_eq!(stamped, vec![(0, Some(0)), (1, Some(0)), (2, Some(1))]);
}

#[test]
fn sharded_outcomes_carry_both_client_and_shard_stamps() {
    let server = tcp_server(2, Some(2));
    let mut client = Client::connect(server.addr());
    client.send("d695 16 2");
    let line = client.read_line();
    assert!(
        line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 0, \"shard\": "),
        "sharded outcome line: {line}"
    );
    server.shutdown();
}

#[test]
fn cancel_outside_the_namespace_is_a_typed_error() {
    let server = tcp_server(1, None);
    let mut client = Client::connect(server.addr());
    client.send("d695 16 2");
    let outcome = client.read_line();
    assert!(outcome.contains("\"id\": 0"));
    // One request submitted: local id 1 does not exist — even though
    // global id 1 may belong to a sibling in other runs.
    client.send("cancel 1");
    let error = client.read_line();
    assert!(
        error.starts_with(&format!(
            "{{\"v\": 1, \"client\": {}, \"error\": \"unknown-id\", ",
            client.id
        )),
        "namespace violation reply: {error}"
    );
    assert!(error.contains("outside this client's namespace"));
    // The connection survives the error.
    client.send("d695 12 2");
    assert!(client.read_line().contains("\"id\": 1"));
    server.shutdown();
}

#[test]
fn stats_reports_per_client_outstanding_counts() {
    let server = tcp_server(1, None);
    let addr = server.addr().to_owned();
    let mut alice = Client::connect(&addr);
    // Bob only connects — his slot must still show up in the stats.
    let _bob = Client::connect(&addr);
    // Drained state is deterministic: the router retires an id from the
    // outstanding set before the outcome line reaches the client, so
    // once alice has read her line, everything reads zero.
    alice.send("d695 16 2");
    alice.read_line();
    alice.send("stats");
    let stats = alice.read_line();
    assert!(
        stats.starts_with("{\"v\": 1, \"client\": 0, \"stats\": {\"clients\": ["),
        "stats line: {stats}"
    );
    assert!(stats.contains("{\"client\": 0, \"outstanding\": 0}"));
    assert!(stats.contains("{\"client\": 1, \"outstanding\": 0}"));
    assert!(stats.contains("\"mine\": []"), "stats line: {stats}");

    // With a backlog in flight the exact count races the dispatcher,
    // but the invariants do not: bob still owes nothing, and alice's
    // `mine` list matches her reported outstanding count.
    alice.send("d695 32 6");
    alice.send("d695 32 6");
    alice.send("stats");
    let stats = loop {
        let line = alice.read_line();
        if line.starts_with(STATS_REPLY) {
            break line;
        }
        assert!(line.contains("\"id\": "), "unexpected line: {line}");
    };
    assert!(stats.contains("{\"client\": 1, \"outstanding\": 0}"));
    let outstanding: usize = stats
        .split("{\"client\": 0, \"outstanding\": ")
        .nth(1)
        .and_then(|tail| tail.split('}').next())
        .and_then(|n| n.parse().ok())
        .expect("alice's outstanding count");
    let mine = stats
        .split("\"mine\": [")
        .nth(1)
        .and_then(|tail| tail.split(']').next())
        .expect("alice's mine list");
    let mine_len = if mine.is_empty() {
        0
    } else {
        mine.split(", ").count()
    };
    assert_eq!(mine_len, outstanding, "stats line: {stats}");
    server.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_errors_and_the_connection_survives() {
    let server = tcp_server(1, None);
    let mut client = Client::connect(server.addr());

    client.send("not a request at all");
    let error = client.read_line();
    assert!(
        error.contains("\"error\": \"parse\""),
        "parse reply: {error}"
    );

    // An oversized line: discarded, answered, and framing resyncs at
    // the next newline.
    let huge = "y".repeat(tamopt_service::MAX_LINE_LEN + 7);
    client.send(&huge);
    let error = client.read_line();
    assert!(
        error.contains("\"error\": \"oversized\""),
        "oversized reply: {error}"
    );

    client.send("d695 16 2");
    let line = client.read_line();
    assert!(
        line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 0, "),
        "post-error outcome: {line}"
    );
    server.shutdown();
}

#[test]
fn disconnect_cancels_pending_work_without_leaking_or_touching_siblings() {
    // One worker thread dispatching one request at a time, so the
    // dropped client's later submissions are still queued when the
    // connection dies.
    let mut config = LiveConfig::with_threads(1);
    config.requests_per_generation = 1;
    let listener = NetListener::tcp("127.0.0.1:0").expect("binding a loopback port");
    let server = NetServer::start(config, listener, parser());
    let addr = server.addr().to_owned();
    let mut dropper = Client::connect(&addr);
    let mut sibling = Client::connect(&addr);

    // The first request runs for over a second in a debug build (a
    // tenth of that in release), so the three behind it are still
    // queued when the connection dies.
    dropper.send("d695 64 16");
    for _ in 0..3 {
        dropper.send("d695 32 6");
    }
    // Barrier: the reader handles lines in order, so the `stats` reply
    // proves all four submissions were accepted — ahead of the
    // sibling's, and before the shutdown below, which stops readers
    // without a disconnect — by the time the dropper goes away.
    dropper.send("stats");
    while !dropper.read_line().starts_with(STATS_REPLY) {}
    drop(dropper);

    // The sibling is unaffected: its request completes normally.
    sibling.send("d695 16 2");
    let line = sibling.read_line();
    assert!(
        line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 1, "),
        "sibling outcome after the disconnect: {line}"
    );

    let report = server.shutdown().expect("final report");
    // Nothing leaked: all five submissions are accounted for, each
    // stamped with its client.
    assert_eq!(report.outcomes.len(), 5);
    for outcome in &report.outcomes {
        assert!(
            outcome.client.is_some(),
            "unstamped outcome {}",
            outcome.index
        );
    }
    // The dropped client's queued requests surface as cancelled.
    let cancelled = report
        .outcomes
        .iter()
        .filter(|o| o.client == Some(0) && o.status == RequestStatus::Cancelled)
        .count();
    assert!(
        cancelled >= 1,
        "no queued request was cancelled:\n{:#?}",
        report.outcomes
    );
    let sibling_outcome = report
        .outcomes
        .iter()
        .find(|o| o.client == Some(1))
        .expect("sibling outcome in the report");
    assert_eq!(sibling_outcome.status, RequestStatus::Complete);
}

#[test]
fn stalled_reader_does_not_stall_siblings() {
    let server = tcp_server(1, None);
    let addr = server.addr().to_owned();
    // The stalled client submits but never reads; its outcome lines sit
    // in the writer queue without blocking anyone.
    let mut stalled = Client::connect(&addr);
    for _ in 0..3 {
        stalled.send("d695 16 2");
    }
    let mut live = Client::connect(&addr);
    live.send("p31108 24 3");
    let line = live.read_line();
    assert!(line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 1, "));
    // The stalled client can still catch up later.
    for local in 0..3 {
        let line = stalled.read_line();
        assert!(
            line.contains(&format!("\"id\": {local}, \"client\": 0")),
            "stalled client catch-up line {local}: {line}"
        );
    }
    server.shutdown();
}

#[test]
fn outcome_lines_are_run_invariant_per_client_with_warm_start_off() {
    // Live-mode determinism oracle (also the bench_net bit-identity
    // gate): with the warm cache off, each request's result is
    // independent of execution order, so a client's outcome lines are
    // byte-identical across runs and thread counts.
    let session = |threads: usize| -> Vec<String> {
        let mut config = LiveConfig::with_threads(threads);
        config.warm_start = false;
        let listener = NetListener::tcp("127.0.0.1:0").expect("binding a loopback port");
        let server = NetServer::start(config, listener, parser());
        let mut client = Client::connect(server.addr());
        let mut lines = Vec::new();
        for spec in ["d695 16 2", "p31108 24 3", "d695 24 3"] {
            client.send(spec);
            lines.push(client.read_line());
        }
        server.shutdown();
        lines
    };
    let reference = session(1);
    assert_eq!(session(1), reference, "same-config rerun drifted");
    assert_eq!(session(2), reference, "thread count leaked into the stream");
}

#[cfg(unix)]
#[test]
fn unix_socket_end_to_end() {
    let path = std::env::temp_dir().join(format!("tamopt-net-test-{}.sock", std::process::id()));
    let listener = NetListener::unix(&path).expect("binding the unix socket");
    assert_eq!(listener.addr(), path.to_string_lossy());
    let server = NetServer::start(LiveConfig::with_threads(1), listener, parser());

    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connecting");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("setting a read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("cloning the stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    assert!(line.contains("\"protocol\": \"tamopt-serve\""));

    let mut writer = stream;
    writeln!(writer, "d695 16 2").expect("submitting");
    writer.flush().expect("flushing");
    line.clear();
    reader.read_line(&mut line).expect("outcome");
    assert!(
        line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 0, "),
        "unix outcome line: {line}"
    );

    let report = server.shutdown().expect("report");
    assert_eq!(report.outcomes.len(), 1);
    assert!(!path.exists(), "socket file removed at shutdown");
}

#[test]
fn shutdown_streams_sealed_outcomes_to_connected_clients() {
    let server = tcp_server(1, None);
    let mut client = Client::connect(server.addr());
    for _ in 0..4 {
        client.send("d695 32 6");
    }
    // Barrier: the reader handles lines in order, so the `stats` reply
    // proves the backlog is registered before the shutdown below,
    // which stops readers. Then seal the queue while requests are
    // still pending.
    client.send("stats");
    let mut seen = Vec::new();
    loop {
        let line = client.read_line();
        if line.starts_with(STATS_REPLY) {
            break;
        }
        seen.push(line);
    }
    let report = server.shutdown().expect("report");
    assert_eq!(report.outcomes.len(), 4);
    // The still-connected client received a line for every submission,
    // including the sealed (cancelled/skipped) tail — exactly one line
    // per local id, in whatever completion order the race produced.
    while seen.len() < 4 {
        seen.push(client.read_line());
    }
    seen.sort();
    for (line, local) in seen.iter().zip(0..4) {
        assert!(
            line.contains(&format!("\"id\": {local}, \"client\": 0")),
            "sealed line {local}: {line}"
        );
    }
}
