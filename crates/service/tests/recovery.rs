//! Crash-recovery and overload-protection tests.
//!
//! The journal half simulates a crash at the library level: a workload
//! is journaled exactly as the daemon would (submits, a cancel, a
//! sealed prefix), the file is reopened, and the accepted-but-unsealed
//! set is resubmitted into a fresh queue at threads {1, 2, 8}. The
//! oracle is the recovery contract: every redone request produces the
//! same winners as an uninterrupted run — wall-clock stats aside — at
//! whatever thread count the restarted daemon runs.
//!
//! The overload half drives deterministic shedding through replay
//! (byte-identical across thread counts) and through a live queue with
//! a stats-barrier, and proves the network quota path answers with a
//! typed `overloaded` error while the connection keeps working.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tamopt_service::{
    LineParser, LiveConfig, LiveQueue, NetDirective, NetListener, NetOptions, NetServer, Request,
    RequestOutcome, RequestStatus, SubmitError, Trace,
};
use tamopt_soc::benchmarks;
use tamopt_store::journal::unsealed;
use tamopt_store::{Journal, JournalRecord, SyncPolicy};

/// The crash workload: `(soc, width, max_tams, priority)`. Small enough
/// to redo quickly over the whole grid, varied enough that a mixed-up
/// id mapping changes some winner.
const WORKLOAD: &[(&str, u32, u32, i32)] = &[
    ("d695", 16, 2, 5),
    ("p31108", 24, 3, 1),
    ("d695", 24, 3, 9),
    ("p31108", 16, 2, 0),
    ("d695", 12, 2, 7),
    ("p31108", 12, 1, 3),
];

fn soc(name: &str) -> tamopt_soc::Soc {
    match name {
        "d695" => benchmarks::d695(),
        "p31108" => benchmarks::p31108(),
        other => panic!("unknown soc `{other}`"),
    }
}

fn request(spec: (&str, u32, u32, i32)) -> Request {
    let (name, width, max_tams, priority) = spec;
    Request::new(soc(name), width)
        .expect("a valid workload request")
        .max_tams(max_tams)
        .priority(priority)
}

/// The canonical request line the daemon would journal for a spec —
/// what [`unsealed`] hands back for re-parsing.
fn line(spec: (&str, u32, u32, i32)) -> String {
    let (name, width, max_tams, priority) = spec;
    format!("{name} {width} {max_tams} priority={priority}")
}

/// The comparable part of an outcome: everything from `"soc"` on, minus
/// the wall-clock-dependent `stats` tail. Ids are remapped, so they
/// stay out of the comparison.
fn winner(outcome: &RequestOutcome) -> String {
    let json = outcome.to_json_line();
    let start = json.find("\"soc\": ").expect("a soc field in the outcome");
    let body = &json[start..];
    match body.rfind(", \"stats\": ") {
        Some(end) => body[..end].to_owned(),
        None => body.to_owned(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tamopt-recovery-{}-{name}", std::process::id()))
}

#[test]
fn unsealed_requests_redo_identically_across_threads() {
    // The uninterrupted reference: a flat single-threaded replay of the
    // full workload, winners keyed by id.
    let full = WORKLOAD
        .iter()
        .fold(Trace::new(), |t, &spec| t.submit_at(0, request(spec)));
    let (mut reference, _) = LiveQueue::replay(full, LiveConfig::with_threads(1));
    reference.sort_by_key(|o| o.index);
    let reference: Vec<String> = reference.iter().map(winner).collect();

    // Journal the workload the way the daemon does: every accept, one
    // accepted cancel, then a crash after the first two outcomes were
    // sealed.
    let path = temp_path("grid.tamjrnl");
    let _ = fs::remove_file(&path);
    {
        let mut journal = Journal::open(&path, SyncPolicy::Always)
            .expect("opening a fresh journal")
            .journal;
        for (id, &spec) in WORKLOAD.iter().enumerate() {
            journal
                .append(&JournalRecord::Submit {
                    id: id as u64,
                    client: None,
                    shard: None,
                    line: line(spec),
                })
                .expect("journaling a submit");
        }
        journal
            .append(&JournalRecord::Cancel { id: 3 })
            .expect("journaling a cancel");
        for id in 0..2u64 {
            journal
                .append(&JournalRecord::Sealed { id })
                .expect("journaling a seal");
        }
        // The crash: the journal handle just goes away.
    }

    let opened = Journal::open(&path, SyncPolicy::Always).expect("reopening after the crash");
    assert!(
        opened.warnings.is_empty(),
        "clean shutdown mid-file left warnings: {:?}",
        opened.warnings
    );
    let recovered = unsealed(&opened.records);
    drop(opened);
    let _ = fs::remove_file(&path);

    assert_eq!(
        recovered.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![2, 3, 4, 5],
        "the sealed prefix must be excluded, in id order"
    );
    assert!(
        recovered[1].cancelled && !recovered[0].cancelled,
        "the accepted cancel folds into its recovered request"
    );
    for r in &recovered {
        assert_eq!(
            r.line,
            line(WORKLOAD[r.id as usize]),
            "recovered line for id {}",
            r.id
        );
    }

    // Redo the live (not cancelled) recovered set at every thread count
    // and hold each redo to the uninterrupted winners.
    let live: Vec<&tamopt_store::journal::RecoveredRequest> =
        recovered.iter().filter(|r| !r.cancelled).collect();
    for &threads in &[1usize, 2, 8] {
        let trace = live.iter().fold(Trace::new(), |t, r| {
            t.submit_at(0, request(WORKLOAD[r.id as usize]))
        });
        let (mut outcomes, _) = LiveQueue::replay(trace, LiveConfig::with_threads(threads));
        outcomes.sort_by_key(|o| o.index);
        assert_eq!(outcomes.len(), live.len());
        for (outcome, r) in outcomes.iter().zip(&live) {
            assert_eq!(
                winner(outcome),
                reference[r.id as usize],
                "recovered id {} drifted at threads={threads}",
                r.id
            );
        }
    }
}

#[test]
fn torn_tail_recovers_the_clean_prefix_and_keeps_appending() {
    let path = temp_path("torn.tamjrnl");
    let _ = fs::remove_file(&path);
    let submit = |id: u64| JournalRecord::Submit {
        id,
        client: Some(7),
        shard: None,
        line: "d695 16 2".to_owned(),
    };
    {
        let mut journal = Journal::open(&path, SyncPolicy::Always)
            .expect("opening a fresh journal")
            .journal;
        for id in 0..3 {
            journal.append(&submit(id)).expect("appending");
        }
    }

    // A mid-append crash: the last record loses its checksum tail.
    let bytes = fs::read(&path).expect("reading the journal image");
    fs::write(&path, &bytes[..bytes.len() - 5]).expect("tearing the tail");

    let opened = Journal::open(&path, SyncPolicy::Always).expect("reopening a torn journal");
    assert_eq!(
        opened.records,
        vec![submit(0), submit(1)],
        "the clean prefix survives"
    );
    assert_eq!(opened.warnings.len(), 1, "warnings: {:?}", opened.warnings);
    assert!(
        opened.warnings[0].contains("torn or corrupt"),
        "warning text: {}",
        opened.warnings[0]
    );

    // The open truncated the tear away, so appends land on a record
    // boundary and the next open sees a clean file.
    let mut journal = opened.journal;
    journal
        .append(&JournalRecord::Sealed { id: 0 })
        .expect("appending after a tear");
    drop(journal);
    let reopened = Journal::open(&path, SyncPolicy::Always).expect("reopening after the repair");
    assert!(reopened.warnings.is_empty());
    assert_eq!(
        reopened.records,
        vec![submit(0), submit(1), JournalRecord::Sealed { id: 0 }]
    );
    drop(reopened);
    let _ = fs::remove_file(&path);
}

#[test]
fn replay_shedding_is_deterministic_across_thread_counts() {
    let trace = || {
        Trace::new()
            .submit_at(0, request(("d695", 16, 2, 5)))
            .submit_at(0, request(("p31108", 16, 2, 1)))
            .submit_at(0, request(("d695", 24, 3, 9)))
    };
    let config = |threads: usize| {
        let mut config = LiveConfig::with_threads(threads);
        config.max_pending = 1;
        config
    };

    let (reference, _) = LiveQueue::replay(trace(), config(1));
    // With a backlog of one: id 0 (p5) queues, id 1 (p1) is the weakest
    // on arrival and sheds itself, id 2 (p9) displaces id 0.
    let status: Vec<RequestStatus> = {
        let mut sorted = reference.clone();
        sorted.sort_by_key(|o| o.index);
        sorted.iter().map(|o| o.status).collect()
    };
    assert_eq!(
        status,
        vec![
            RequestStatus::Shed,
            RequestStatus::Shed,
            RequestStatus::Complete
        ]
    );
    for outcome in reference.iter().filter(|o| o.status == RequestStatus::Shed) {
        let note = outcome.error.as_deref().unwrap_or("");
        assert!(
            note.contains("shed by overload protection"),
            "shed outcome {} is not self-describing: {note:?}",
            outcome.index
        );
    }

    // The whole stream — shedding decisions included — is byte-stable
    // across thread counts.
    let lines = |outcomes: &[RequestOutcome]| {
        outcomes
            .iter()
            .map(RequestOutcome::to_json_line)
            .collect::<Vec<_>>()
    };
    let reference = lines(&reference);
    for threads in [2usize, 8] {
        let (outcomes, _) = LiveQueue::replay(trace(), config(threads));
        assert_eq!(
            lines(&outcomes),
            reference,
            "shedding drifted at {threads} threads"
        );
    }
}

#[test]
fn live_submission_is_refused_only_when_it_is_the_weakest() {
    let mut config = LiveConfig::with_threads(1);
    config.max_pending = 1;
    config.requests_per_generation = 1;
    let queue = LiveQueue::start(config);

    // Occupy the single worker with a long request, then wait for the
    // dispatcher to drain it out of the backlog.
    let (heavy, handle) = queue
        .submit(request(("p31108", 64, 8, 0)))
        .expect("the first submission is accepted");
    while !queue.stats().pending.is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }

    // The backlog holds exactly one entry again...
    let (kept, _) = queue
        .submit(request(("d695", 16, 2, 5)))
        .expect("a second submission fills the backlog");
    // ...so the weakest incoming request is refused outright...
    match queue.submit(request(("d695", 16, 2, 1))) {
        Err(SubmitError::Overloaded) => {}
        other => panic!("a weaker request must be refused, got {other:?}"),
    }
    // ...while a stronger one displaces the queued entry instead.
    let (winner_id, _) = queue
        .submit(request(("d695", 24, 3, 9)))
        .expect("a stronger request displaces the backlog");

    handle.cancel();
    let report = queue.shutdown().expect("the final report");
    let status_of = |id: tamopt_service::RequestId| {
        report
            .outcomes
            .iter()
            .find(|o| o.index == id.index())
            .unwrap_or_else(|| panic!("no outcome for id {}", id.index()))
            .status
    };
    assert_eq!(status_of(heavy), RequestStatus::Cancelled);
    assert_eq!(status_of(kept), RequestStatus::Shed);
    assert_eq!(status_of(winner_id), RequestStatus::Complete);
    // Refused submissions never got an id: three accepted, three
    // outcomes.
    assert_eq!(report.outcomes.len(), 3);
}

/// The network test grammar: `<soc> <width> <max-tams> [priority]`,
/// `cancel <id>`, `stats` — just enough to steer the overload paths.
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
        "p93791" => benchmarks::p93791(),
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
    let mut request = Request::new(soc, width)
        .map_err(|e| e.to_string())?
        .max_tams(max_tams);
    if let Some(priority) = parts.next() {
        request = request.priority(
            priority
                .parse()
                .map_err(|_| "invalid priority".to_owned())?,
        );
    }
    Ok(Some(NetDirective::Submit(request)))
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connecting to the server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("setting a read timeout");
        let reader = BufReader::new(stream.try_clone().expect("cloning the stream"));
        let mut client = Client { stream, reader };
        let greeting = client.read_line();
        assert!(
            greeting.starts_with("{\"protocol\": \"tamopt-serve\""),
            "unexpected greeting: {greeting}"
        );
        client
    }

    fn send(&mut self, line: &str) {
        // One write per line: a split write can stall on Nagle.
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("writing a request line");
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
fn inflight_quota_answers_with_a_typed_error_and_keeps_the_connection() {
    let listener = NetListener::tcp("127.0.0.1:0").expect("binding a loopback port");
    let parser: LineParser = Arc::new(parse);
    let server = NetServer::start_with_options(
        LiveConfig::with_threads(1),
        listener,
        parser,
        NetOptions {
            max_inflight: 1,
            ..NetOptions::default()
        },
    );
    let mut client = Client::connect(server.addr());

    // A long request holds the single in-flight slot: this shape scans
    // 36 M partitions, about 3 s in release, against protocol round
    // trips of at most tens of milliseconds, so it is still running for
    // every exchange below until the cancel. The reader thread handles a
    // connection's lines in order, so by the time the stats reply
    // arrives the submission is registered.
    client.send("p93791 96 16");
    client.send("stats");
    let stats = client.read_line();
    assert!(
        stats.contains("\"outstanding\": 1"),
        "the slot is taken: {stats}"
    );

    // At quota: the next submission gets a typed error, not an id.
    client.send("d695 16 2");
    let refusal = client.read_line();
    assert!(
        refusal.contains("\"error\": \"overloaded\""),
        "quota refusal: {refusal}"
    );
    assert!(
        refusal.contains("quota"),
        "the refusal names its cause: {refusal}"
    );

    // The connection survives: cancel the hog, drain its outcome, and
    // the freed slot accepts again. The refused submission consumed no
    // id, so the accepted follow-up is local id 1.
    client.send("cancel 0");
    let outcome = client.read_line();
    assert!(
        outcome.contains("\"id\": 0") && outcome.contains("\"cancelled\""),
        "cancelled hog: {outcome}"
    );
    client.send("d695 16 2");
    let outcome = client.read_line();
    assert!(
        outcome.contains("\"id\": 1") && outcome.contains("\"complete\""),
        "post-quota outcome: {outcome}"
    );
    server.shutdown();
}
