//! Seeded, deterministic fuzz harness over every untrusted input
//! surface of the workspace:
//!
//! * the batch-manifest grammar ([`tamopt::cli::parse_manifest`]),
//! * the serve line protocol ([`tamopt::cli::parse_serve_line`]),
//! * the ITC'02 SOC parser ([`tamopt::soc::itc02`]),
//! * the warm-start store file format ([`tamopt::store::Store`]), which
//!   must also refuse a valid journal image,
//! * the framed network protocol ([`tamopt::service::LineFramer`] +
//!   the serve grammar): split, merged, oversized and interleaved
//!   lines must frame chunking-invariantly and answer with error
//!   lines — never a panic or a wedged connection,
//! * whole tagged submit/cancel **traces** ([`tamopt::service::Trace`]):
//!   structure-aware generation whose oracle is the
//!   workspace invariant itself — replays are byte-identical across
//!   threads, a store-backed restart mid-trace redoes the tail with identical winners and
//!   never more work, and the write-ahead journal round-trips its
//!   records (and tolerates arbitrary corruption) across a reopen, and
//!   refuses a valid store image without touching the file.
//!
//! This is **not** cargo-fuzz: the build container has no crates.io
//! access, so the harness is a plain example over the vendored `rand`
//! shim — grammar-aware generation plus byte-level mutation (bit flips,
//! truncation, token splices), fully reproducible from `--seed`.
//!
//! Each iteration first builds a *valid* input and checks the surface's
//! semantic oracle (valid inputs parse; writers round-trip; store bytes
//! decode back to equal bytes), then mutates the input and checks the
//! robustness oracle: the parser may reject, but must never panic.
//!
//! ```text
//! cargo run --release --example fuzz -- [--iters N] [--seed S] \
//!     [--surface all|manifest|serve|itc02|store|net|trace]
//! ```
//!
//! On any violation the offending input is written to `fuzz-failures/`
//! (reproduce with the printed seed) and the process exits non-zero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tamopt::cli::{parse_manifest, parse_serve_line, parse_session_line};
use tamopt::service::{
    Frame, LineFramer, LiveConfig, LiveQueue, Refusal, Request, RequestOutcome, StoreBinding,
    Trace, MAX_LINE_LEN,
};
use tamopt::soc::itc02::{parse_itc02, write_itc02};
use tamopt::soc::{
    benchmarks,
    generator::{CoreClass, SocSpec},
    Soc,
};
use tamopt::store::journal::{decode as decode_journal, unsealed};
use tamopt::store::{
    CostColumns, Journal, JournalRecord, Store, StoreConfig, StoreError, SyncPolicy,
};
use tamopt::TimeTable;

const SURFACES: [&str; 6] = ["manifest", "serve", "itc02", "store", "net", "trace"];
const BENCHES: [&str; 4] = ["d695", "p21241", "p31108", "p93791"];

/// The in-memory SOC resolver: benchmark names only, no filesystem, so
/// the harness fuzzes the grammar rather than the OS.
fn resolve(name: &str) -> Result<Soc, String> {
    match name {
        "d695" => Ok(benchmarks::d695()),
        "p21241" => Ok(benchmarks::p21241()),
        "p31108" => Ok(benchmarks::p31108()),
        "p93791" => Ok(benchmarks::p93791()),
        other => Err(format!("unknown SOC `{other}`")),
    }
}

fn usage() -> String {
    "usage: fuzz [--iters N] [--seed S] \
     [--surface all|manifest|serve|itc02|store|net|trace]"
        .to_owned()
}

struct Args {
    iters: u64,
    seed: u64,
    surface: String,
}

fn parse_args() -> Result<Args, String> {
    let mut iters = 200;
    let mut seed = 0xDA7E_2002;
    let mut surface = "all".to_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--iters" => iters = value("--iters")?.parse().map_err(|_| usage())?,
            "--seed" => seed = value("--seed")?.parse().map_err(|_| usage())?,
            "--surface" => surface = value("--surface")?,
            _ => return Err(usage()),
        }
    }
    if surface != "all" && !SURFACES.contains(&surface.as_str()) {
        return Err(usage());
    }
    Ok(Args {
        iters,
        seed,
        surface,
    })
}

/// A recorded oracle violation: the input that triggered it, preserved
/// for replay.
struct Failure {
    surface: &'static str,
    case: u64,
    reason: String,
    input: Vec<u8>,
}

struct Session {
    rng: StdRng,
    seed: u64,
    failures: Vec<Failure>,
}

impl Session {
    fn fail(&mut self, surface: &'static str, case: u64, reason: String, input: &[u8]) {
        eprintln!("fuzz: {surface} case {case}: {reason}");
        self.failures.push(Failure {
            surface,
            case,
            reason,
            input: input.to_vec(),
        });
    }

    /// Runs `parser` on `input`; a panic is an oracle violation, an
    /// `Err` is the parser doing its job.
    fn must_not_panic<F: FnMut()>(
        &mut self,
        surface: &'static str,
        case: u64,
        input: &[u8],
        parser: F,
    ) {
        if catch_unwind(AssertUnwindSafe(parser)).is_err() {
            self.fail(surface, case, "parser panicked".to_owned(), input);
        }
    }
}

/// Applies one random byte-level mutation: bit flips, truncation, a
/// spliced copy of an internal range, or raw byte insertion.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.extend((0..rng.gen_range(1..=16u32)).map(|_| rng.gen::<u8>()));
        return;
    }
    match rng.gen_range(0u32..4) {
        0 => {
            for _ in 0..rng.gen_range(1..=8u32) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => {
            let lo = rng.gen_range(0..bytes.len());
            let hi = rng.gen_range(lo..bytes.len());
            let splice: Vec<u8> = bytes[lo..=hi].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, splice);
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let junk: Vec<u8> = (0..rng.gen_range(1..=8u32))
                .map(|_| rng.gen::<u8>())
                .collect();
            bytes.splice(at..at, junk);
        }
    }
}

/// One valid request line: `<soc> <width> <max-tams> [key=value]…`.
fn gen_request_line(rng: &mut StdRng) -> String {
    let soc = BENCHES[rng.gen_range(0..BENCHES.len())];
    let width = rng.gen_range(8..=64u32);
    let max_tams = rng.gen_range(1..=8u32);
    let mut line = format!("{soc} {width} {max_tams}");
    if rng.gen::<bool>() {
        line.push_str(&format!(" min-tams={}", rng.gen_range(1..=max_tams)));
    }
    if rng.gen::<bool>() {
        line.push_str(&format!(" priority={}", rng.gen_range(0..=9u32)));
    }
    if rng.gen::<bool>() {
        line.push_str(&format!(" node-budget={}", rng.gen_range(1..=100_000u64)));
    }
    match rng.gen_range(0u32..4) {
        0 => line.push_str(" kind=point"),
        1 => line.push_str(&format!(" kind=topk:{}", rng.gen_range(1..=5u32))),
        2 => {
            let lo = rng.gen_range(1..width);
            let step = rng.gen_range(1..=8u32);
            line.push_str(&format!(" kind=frontier:{lo}..{width}:{step}"));
        }
        _ => {}
    }
    line
}

/// A valid manifest: request lines mixed with comments and blanks.
fn gen_manifest(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(1..=5u32) {
        match rng.gen_range(0u32..5) {
            0 => text.push_str("# a comment line\n"),
            1 => text.push('\n'),
            _ => {
                text.push_str(&gen_request_line(rng));
                if rng.gen::<bool>() {
                    text.push_str(" # trailing comment");
                }
                text.push('\n');
            }
        }
    }
    text.push_str(&gen_request_line(rng));
    text.push('\n');
    text
}

/// A valid serve-protocol line: an optionally `@gen`-tagged submit,
/// cancel or stats directive.
fn gen_serve_line(rng: &mut StdRng) -> String {
    let mut line = String::new();
    if rng.gen::<bool>() {
        line.push_str(&format!("@{} ", rng.gen_range(0..=12u32)));
    }
    match rng.gen_range(0u32..4) {
        0 => line.push_str(&format!("cancel {}", rng.gen_range(0..32usize))),
        1 => line.push_str("stats"),
        _ => line.push_str(&gen_request_line(rng)),
    }
    line
}

fn fuzz_manifest(s: &mut Session, iters: u64) {
    for case in 0..iters {
        let valid = gen_manifest(&mut s.rng);
        if let Err(e) = parse_manifest(&valid, &resolve) {
            s.fail(
                "manifest",
                case,
                format!("valid manifest rejected: {e}"),
                valid.as_bytes(),
            );
        }
        let mut bytes = valid.into_bytes();
        mutate(&mut s.rng, &mut bytes);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        s.must_not_panic("manifest", case, &bytes, || {
            let _ = parse_manifest(&text, &resolve);
        });
    }
}

fn fuzz_serve(s: &mut Session, iters: u64) {
    for case in 0..iters {
        let valid = gen_serve_line(&mut s.rng);
        if let Err(e) = parse_serve_line(&valid, &resolve) {
            s.fail(
                "serve",
                case,
                format!("valid serve line rejected: {e}"),
                valid.as_bytes(),
            );
        }
        let mut bytes = valid.into_bytes();
        mutate(&mut s.rng, &mut bytes);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        s.must_not_panic("serve", case, &bytes, || {
            let _ = parse_serve_line(&text, &resolve);
        });
    }
}

fn fuzz_itc02(s: &mut Session, iters: u64) {
    for case in 0..iters {
        let spec_seed = s.rng.gen::<u64>();
        let logic = s.rng.gen_range(1..=6usize);
        let soc = SocSpec::new(format!("fuzz{case}"), spec_seed)
            .class(CoreClass::logic(
                "logic",
                logic,
                (16, 4096),
                (4, 96),
                (1, 12),
                (8, 200),
            ))
            .class(CoreClass::memory(
                "mem",
                s.rng.gen_range(1..=3usize),
                (128, 8192),
                (8, 64),
            ))
            .generate()
            .expect("generator specs are valid by construction");
        let written = write_itc02(&soc);
        match parse_itc02(&written) {
            Ok(reparsed) => {
                // The writer must be a fixed point of the parser.
                if write_itc02(&reparsed) != written {
                    s.fail(
                        "itc02",
                        case,
                        "write → parse → write is not a fixed point".to_owned(),
                        written.as_bytes(),
                    );
                }
            }
            Err(e) => s.fail(
                "itc02",
                case,
                format!("written SOC rejected: {e}"),
                written.as_bytes(),
            ),
        }
        let mut bytes = written.into_bytes();
        mutate(&mut s.rng, &mut bytes);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        s.must_not_panic("itc02", case, &bytes, || {
            let _ = parse_itc02(&text);
        });
    }
}

fn fuzz_store(s: &mut Session, iters: u64, columns: &CostColumns) {
    for case in 0..iters {
        let mut store = Store::in_memory(StoreConfig::default());
        for _ in 0..s.rng.gen_range(0..=6u32) {
            let fingerprint = s.rng.gen::<u64>();
            store.record_incumbent(
                fingerprint,
                s.rng.gen_range(1..=64u32),
                s.rng.gen_range(1..=16u32),
                s.rng.gen::<u64>() >> 16,
            );
            if s.rng.gen::<bool>() {
                store.record_columns(fingerprint, columns.clone());
            }
        }
        let bytes = store.to_bytes();
        // Semantic oracle: encode → decode → encode is byte-stable and
        // decoding our own bytes never warns.
        match Store::from_bytes(&bytes, StoreConfig::default()) {
            Ok(decoded) => {
                if !decoded.warnings().is_empty() {
                    s.fail(
                        "store",
                        case,
                        format!("own bytes warned: {:?}", decoded.warnings()),
                        &bytes,
                    );
                } else if decoded.to_bytes() != bytes {
                    s.fail(
                        "store",
                        case,
                        "encode → decode → encode is not byte-stable".to_owned(),
                        &bytes,
                    );
                }
            }
            Err(e) => s.fail("store", case, format!("own bytes rejected: {e}"), &bytes),
        }
        // Wrong-kind oracle: the store and the journal share one
        // envelope, so a valid journal image must be refused outright —
        // never decoded as a corrupt store that a save would overwrite.
        if let Some(journal) = journal_image(&mut s.rng, case) {
            let mut refused = false;
            s.must_not_panic("store", case, &journal, || {
                refused = matches!(
                    Store::from_bytes(&journal, StoreConfig::default()),
                    Err(StoreError::WrongKind { .. })
                );
            });
            if !refused {
                s.fail(
                    "store",
                    case,
                    "a valid journal image was not refused".to_owned(),
                    &journal,
                );
            }
        }
        let mut mutated = bytes;
        mutate(&mut s.rng, &mut mutated);
        s.must_not_panic("store", case, &mutated, || {
            // A mutated file may decode with warnings or fail (a bit
            // flip in the version field reads as a future version) —
            // either way, no panic.
            let _ = Store::from_bytes(&mutated, StoreConfig::default());
        });
    }
}

/// A valid journal image of up to four random records, written through
/// the real append path.
fn journal_image(rng: &mut StdRng, case: u64) -> Option<Vec<u8>> {
    let path = std::env::temp_dir().join(format!(
        "tamopt-fuzz-{}-store-{case}.tamjrnl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path, SyncPolicy::Never).ok()?.journal;
    for id in 0..rng.gen_range(0..=4u64) {
        let record = match rng.gen_range(0u32..3) {
            0 => JournalRecord::Submit {
                id,
                client: rng.gen::<bool>().then(|| rng.gen_range(0..4u64)),
                shard: None,
                line: gen_request_line(rng),
            },
            1 => JournalRecord::Cancel { id },
            _ => JournalRecord::Sealed { id },
        };
        journal.append(&record).ok()?;
    }
    drop(journal);
    let bytes = std::fs::read(&path).ok();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A hostile framed byte stream: valid serve lines, junk, carriage
/// returns, an occasional oversized line, sometimes an unterminated
/// tail — the traffic shapes a network peer can produce.
fn gen_net_stream(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..rng.gen_range(1..=6u32) {
        match rng.gen_range(0u32..8) {
            0 => {
                let over = MAX_LINE_LEN + rng.gen_range(1..=65usize);
                bytes.extend(std::iter::repeat_n(b'z', over));
            }
            1 => {
                for _ in 0..rng.gen_range(1..=24u32) {
                    let byte = rng.gen::<u8>();
                    if byte != b'\n' {
                        bytes.push(byte);
                    }
                }
            }
            2 => bytes.extend_from_slice(b"cancel 99999999999999999999999999"),
            _ => {
                bytes.extend(gen_serve_line(rng).into_bytes());
                if rng.gen::<bool>() {
                    bytes.push(b'\r');
                }
            }
        }
        bytes.push(b'\n');
    }
    if rng.gen::<bool>() {
        bytes.pop();
    }
    bytes
}

/// Frames `stream` pushed in random chunks (down to single bytes).
fn frames_chunked(rng: &mut StdRng, stream: &[u8]) -> Vec<Frame> {
    let mut framer = LineFramer::new();
    let mut frames = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=rest.len().min(97));
        frames.extend(framer.push(&rest[..take]));
        rest = &rest[take..];
    }
    frames.extend(framer.finish());
    frames
}

fn fuzz_net(s: &mut Session, iters: u64) {
    for case in 0..iters {
        let stream = gen_net_stream(&mut s.rng);
        // Semantic oracle: framing is chunking-invariant — the same
        // bytes split or merged arbitrarily yield the same frames.
        let mut whole = LineFramer::new();
        let mut reference = whole.push(&stream);
        reference.extend(whole.finish());
        let chunked = frames_chunked(&mut s.rng, &stream);
        if chunked != reference {
            s.fail(
                "net",
                case,
                "framing depends on chunk boundaries".to_owned(),
                &stream,
            );
        }
        // An oversized line never wedges the connection: a valid line
        // appended after the whole stream still frames intact.
        let mut resync = LineFramer::new();
        let mut tail = resync.push(&stream);
        tail.extend(resync.push(b"\nstats\n"));
        match tail.last() {
            Some(Frame::Line(line)) if line == "stats" => {}
            other => s.fail(
                "net",
                case,
                format!("no resync after the stream: {other:?}"),
                &stream,
            ),
        }
        // Robustness: every framed line goes through the real serve
        // grammar; rejections must render as well-formed single-line
        // versioned error lines — never a panic.
        s.must_not_panic("net", case, &stream, || {
            for frame in &reference {
                let refusal = match frame {
                    Frame::Oversized => Refusal::Oversized,
                    Frame::Line(text) => match parse_session_line(text, &resolve, None) {
                        Err(message) => Refusal::Parse(message),
                        Ok(_) => continue,
                    },
                };
                let line = refusal.error_line(0);
                assert!(
                    line.ends_with('\n') && !line[..line.len() - 1].contains('\n'),
                    "error line spans lines: {line:?}"
                );
                assert!(
                    line.starts_with("{\"v\": 1, \"client\": 0, \"error\": "),
                    "error line lost its envelope: {line:?}"
                );
            }
        });
        // And once more on mutated bytes: frame + parse arbitrary
        // garbage without panicking.
        let mut mutated = stream;
        mutate(&mut s.rng, &mut mutated);
        s.must_not_panic("net", case, &mutated, || {
            let mut framer = LineFramer::new();
            let mut frames = framer.push(&mutated);
            frames.extend(framer.finish());
            for frame in frames {
                if let Frame::Line(text) = frame {
                    let _ = parse_serve_line(&text, &resolve);
                }
            }
        });
    }
}

/// One event of a generated trace, kept structured so the same steps
/// build a [`Trace`], a journal record stream and a failure artifact.
enum TraceStep {
    Submit { generation: u32, request: Request },
    Cancel { generation: u32, id: usize },
}

/// A structure-aware random trace: submits against the fast benchmark
/// SOCs plus cancels that always reference an earlier submission. No
/// budgets or deadlines — the oracle is bit-identity, and those only
/// truncate.
fn gen_trace_steps(rng: &mut StdRng) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    let mut submitted = 0usize;
    let mut generation = 0u32;
    for _ in 0..rng.gen_range(3..=7u32) {
        generation += rng.gen_range(0..=1u32);
        if submitted > 0 && rng.gen_range(0u32..5) == 0 {
            steps.push(TraceStep::Cancel {
                generation,
                id: rng.gen_range(0..submitted),
            });
        } else {
            let soc = resolve(["d695", "p21241", "p31108"][rng.gen_range(0..3usize)])
                .expect("benchmark SOCs resolve");
            let width = rng.gen_range(8..=24u32);
            let request = Request::new(soc, width)
                .expect("widths >= 8 are valid")
                .max_tams(rng.gen_range(1..=3u32))
                .priority(rng.gen_range(0..=9u32) as i32);
            steps.push(TraceStep::Submit {
                generation,
                request,
            });
            submitted += 1;
        }
    }
    steps
}

fn trace(steps: &[TraceStep]) -> Trace {
    steps.iter().fold(Trace::new(), |trace, step| match step {
        TraceStep::Submit {
            generation,
            request,
        } => trace.submit_at(*generation, request.clone()),
        TraceStep::Cancel { generation, id } => trace.cancel_at(*generation, *id),
    })
}

/// Human-readable step list, the failure artifact for this surface.
fn render_steps(steps: &[TraceStep]) -> String {
    let mut text = String::new();
    for step in steps {
        match step {
            TraceStep::Submit {
                generation,
                request,
            } => {
                text.push_str(&format!(
                    "@{generation} {} {} {} priority={}\n",
                    request.soc.name(),
                    request.width,
                    request.max_tams,
                    request.priority
                ));
            }
            TraceStep::Cancel { generation, id } => {
                text.push_str(&format!("@{generation} cancel {id}\n"));
            }
        }
    }
    text
}

/// The winner fields of an outcome line: the prune-statistics tail
/// (warm seeds record less work) is stripped; everything else must be
/// byte-identical.
fn outcome_winner(outcome: &RequestOutcome) -> String {
    let line = outcome.to_json_line();
    line.split(", \"stats\": ")
        .next()
        .unwrap_or(&line)
        .to_owned()
}

/// The winner views of an outcome stream, ordered by submission id.
fn winners_by_id(outcomes: &[RequestOutcome]) -> Vec<String> {
    let mut winners: Vec<(usize, String)> = outcomes
        .iter()
        .map(|outcome| (outcome.index, outcome_winner(outcome)))
        .collect();
    winners.sort_by_key(|&(index, _)| index);
    winners.into_iter().map(|(_, winner)| winner).collect()
}

/// Completed heuristic evaluations of one outcome — the "work" in the
/// work-strictly-shrinks warm-start invariant.
fn completed_evals(outcome: &RequestOutcome) -> u64 {
    let line = outcome.to_json_line();
    line.rfind("\"completed\": ")
        .and_then(|at| {
            let rest = &line[at + "\"completed\": ".len()..];
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0)
}

/// A fresh [`LiveConfig`] for trace replay, optionally store-backed.
fn trace_config(threads: usize, store: Option<StoreBinding>) -> LiveConfig {
    LiveConfig {
        store,
        ..LiveConfig::with_threads(threads)
    }
}

fn fuzz_trace(s: &mut Session, iters: u64) {
    // Every case replays real co-optimizations a dozen ways; scale the
    // budget down so `--surface all` stays minutes, not hours.
    let iters = (iters / 10).max(5);
    for case in 0..iters {
        let steps = gen_trace_steps(&mut s.rng);
        let artifact = render_steps(&steps);
        let (reference, _) = LiveQueue::replay(trace(&steps), trace_config(1, None));
        let cold_lines: Vec<String> = reference.iter().map(RequestOutcome::to_json_line).collect();
        // Streams interleave cancellations and completions; key the
        // winner views by submission id so differently-ordered streams
        // compare request-wise.
        let cold_winners: Vec<String> = winners_by_id(&reference);

        // Oracle 1: replay is byte-identical across threads.
        for threads in [2, 8] {
            let (outcomes, _) = LiveQueue::replay(trace(&steps), trace_config(threads, None));
            let lines: Vec<String> = outcomes.iter().map(RequestOutcome::to_json_line).collect();
            if lines != cold_lines {
                s.fail(
                    "trace",
                    case,
                    format!("replay drifted at {threads} threads"),
                    artifact.as_bytes(),
                );
            }
        }

        // Oracle 2: a store-backed restart mid-trace. A prefix run
        // warms a store; the store round-trips through bytes (the
        // restart); re-running the whole trace against the warmed
        // store — the trace is its own recovery script — must produce
        // identical winners with no more work per request.
        let max_generation = steps
            .iter()
            .map(|step| match step {
                TraceStep::Submit { generation, .. } | TraceStep::Cancel { generation, .. } => {
                    *generation
                }
            })
            .max()
            .unwrap_or(0);
        let split = s.rng.gen_range(0..=max_generation);
        let prefix: Vec<TraceStep> = steps
            .iter()
            .filter(|step| match step {
                TraceStep::Submit { generation, .. } | TraceStep::Cancel { generation, .. } => {
                    *generation < split
                }
            })
            .map(|step| match step {
                TraceStep::Submit {
                    generation,
                    request,
                } => TraceStep::Submit {
                    generation: *generation,
                    request: request.clone(),
                },
                TraceStep::Cancel { generation, id } => TraceStep::Cancel {
                    generation: *generation,
                    id: *id,
                },
            })
            .collect();
        // Cancels reference submission ids; a time-prefix only ever
        // references its own submissions, but a cancel of an id whose
        // submit sits at the same generation may cross the cut — drop
        // those to keep the prefix self-contained.
        let prefix_submits = prefix
            .iter()
            .filter(|step| matches!(step, TraceStep::Submit { .. }))
            .count();
        let prefix: Vec<TraceStep> = prefix
            .into_iter()
            .filter(|step| match step {
                TraceStep::Cancel { id, .. } => *id < prefix_submits,
                TraceStep::Submit { .. } => true,
            })
            .collect();
        let warm_binding = StoreBinding::new(Store::in_memory(StoreConfig::default()));
        let _ = LiveQueue::replay(trace(&prefix), trace_config(2, Some(warm_binding.clone())));
        let bytes = warm_binding.store.lock().map(|store| store.to_bytes());
        let revived = bytes
            .ok()
            .and_then(|bytes| Store::from_bytes(&bytes, StoreConfig::default()).ok());
        match revived {
            None => s.fail(
                "trace",
                case,
                "warmed store did not survive a byte round-trip".to_owned(),
                artifact.as_bytes(),
            ),
            Some(revived) => {
                let binding = StoreBinding::new(revived);
                let (warm, _) = LiveQueue::replay(trace(&steps), trace_config(2, Some(binding)));
                if winners_by_id(&warm) != cold_winners {
                    s.fail(
                        "trace",
                        case,
                        format!("winners drifted across a restart at generation {split}"),
                        artifact.as_bytes(),
                    );
                }
                let cold_work: std::collections::BTreeMap<usize, u64> = reference
                    .iter()
                    .map(|outcome| (outcome.index, completed_evals(outcome)))
                    .collect();
                for warm in &warm {
                    let cold = cold_work.get(&warm.index).copied().unwrap_or(0);
                    if completed_evals(warm) > cold {
                        s.fail(
                            "trace",
                            case,
                            format!(
                                "request {} did more work warm ({}) than cold ({cold})",
                                warm.index,
                                completed_evals(warm)
                            ),
                            artifact.as_bytes(),
                        );
                    }
                }
            }
        }

        // Oracle 3: the write-ahead journal round-trips the trace's
        // accept-time records across a reopen, and `unsealed` recovers
        // exactly the unanswered ids; mutated journal bytes decode
        // leniently (torn tails) or reject — never a panic.
        fuzz_trace_journal(s, case, &steps, artifact.as_bytes());
    }
}

/// The journal leg of the trace surface: real file round-trip plus
/// byte-level corruption.
fn fuzz_trace_journal(s: &mut Session, case: u64, steps: &[TraceStep], artifact: &[u8]) {
    let dir = std::env::temp_dir().join(format!("tamopt-fuzz-{}-{case}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join("trace.tamjrnl");
    let mut written = Vec::new();
    let mut submits: Vec<u64> = Vec::new();
    let mut cancelled = std::collections::BTreeSet::new();
    let mut sealed = std::collections::BTreeSet::new();
    {
        let policy = match s.rng.gen_range(0u32..3) {
            0 => SyncPolicy::Always,
            1 => SyncPolicy::Interval(s.rng.gen_range(1..=8u32)),
            _ => SyncPolicy::Never,
        };
        let mut journal = match Journal::open(&path, policy) {
            Ok(opened) => opened.journal,
            Err(e) => {
                s.fail("trace", case, format!("journal open failed: {e}"), artifact);
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
        };
        for (id, step) in steps.iter().enumerate() {
            let id = id as u64;
            let record = match step {
                TraceStep::Submit { request, .. } => {
                    submits.push(id);
                    JournalRecord::Submit {
                        id,
                        client: s.rng.gen::<bool>().then(|| s.rng.gen_range(0..4u64)),
                        // The shard stamp older sharded daemons wrote:
                        // the decoder must keep accepting it.
                        shard: s.rng.gen::<bool>().then(|| s.rng.gen_range(0..4u64)),
                        line: format!(
                            "{} {} {}",
                            request.soc.name(),
                            request.width,
                            request.max_tams
                        ),
                    }
                }
                TraceStep::Cancel { id: target, .. } => {
                    cancelled.insert(*target as u64);
                    JournalRecord::Cancel { id: *target as u64 }
                }
            };
            written.push(record.clone());
            if journal.append(&record).is_err() {
                s.fail("trace", case, "journal append failed".to_owned(), artifact);
            }
            // Seal a random subset of what is in flight.
            if s.rng.gen_range(0u32..3) == 0 {
                if let Some(&id) = submits.iter().find(|id| !sealed.contains(*id)) {
                    sealed.insert(id);
                    let record = JournalRecord::Sealed { id };
                    written.push(record.clone());
                    if journal.append(&record).is_err() {
                        s.fail("trace", case, "journal append failed".to_owned(), artifact);
                    }
                }
            }
        }
    }
    // Reopen: the records must round-trip exactly, and the unsealed
    // set must be precisely the accepted-but-unanswered ids with their
    // cancellation flags.
    match Journal::open(&path, SyncPolicy::Never) {
        Ok(opened) => {
            if opened.records != written {
                s.fail(
                    "trace",
                    case,
                    "journal records did not round-trip a reopen".to_owned(),
                    artifact,
                );
            }
            if !opened.warnings.is_empty() {
                s.fail(
                    "trace",
                    case,
                    format!("clean journal warned on reopen: {:?}", opened.warnings),
                    artifact,
                );
            }
            let recovered = unsealed(&opened.records);
            let want: Vec<u64> = submits
                .iter()
                .copied()
                .filter(|id| !sealed.contains(id))
                .collect();
            let got: Vec<u64> = recovered.iter().map(|r| r.id).collect();
            if got != want {
                s.fail(
                    "trace",
                    case,
                    format!("unsealed recovered {got:?}, accepted-but-unsealed is {want:?}"),
                    artifact,
                );
            }
            for r in &recovered {
                if r.cancelled != cancelled.contains(&r.id) {
                    s.fail(
                        "trace",
                        case,
                        format!("request {} lost its cancellation flag", r.id),
                        artifact,
                    );
                }
            }
        }
        Err(e) => s.fail(
            "trace",
            case,
            format!("journal reopen failed: {e}"),
            artifact,
        ),
    }
    // Wrong-kind leg: a valid store image is refused by the decoder and
    // by `Journal::open`, which must leave the file byte-identical.
    let mut store = Store::in_memory(StoreConfig::default());
    for _ in 0..s.rng.gen_range(0..=3u32) {
        store.record_incumbent(s.rng.gen(), s.rng.gen_range(1..=64u32), 1, s.rng.gen());
    }
    let image = store.to_bytes();
    let foreign = dir.join("foreign.tamstore");
    let mut refused = false;
    s.must_not_panic("trace", case, &image, || {
        refused = matches!(decode_journal(&image), Err(StoreError::WrongKind { .. }))
            && std::fs::write(&foreign, &image).is_ok()
            && matches!(
                Journal::open(&foreign, SyncPolicy::Never),
                Err(StoreError::WrongKind { .. })
            )
            && std::fs::read(&foreign).is_ok_and(|bytes| bytes == image);
    });
    if !refused {
        s.fail(
            "trace",
            case,
            "a valid store image was not refused as a journal".to_owned(),
            &image,
        );
    }
    // Corruption leg: mutated bytes must decode leniently or reject —
    // never panic — and a reopen of the mutated file must not either.
    if let Ok(bytes) = std::fs::read(&path) {
        let mut mutated = bytes;
        mutate(&mut s.rng, &mut mutated);
        s.must_not_panic("trace", case, &mutated, || {
            let _ = decode_journal(&mutated);
        });
        let torn = dir.join("torn.tamjrnl");
        if std::fs::write(&torn, &mutated).is_ok() {
            s.must_not_panic("trace", case, &mutated, || {
                let _ = Journal::open(&torn, SyncPolicy::Never);
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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
        "fuzz: surface={} iters={} seed={} (reproduce with --seed {})",
        args.surface, args.iters, args.seed, args.seed
    );

    // Silence the per-panic backtrace spew; failures are recorded with
    // their inputs instead.
    std::panic::set_hook(Box::new(|_| {}));

    let mut session = Session {
        rng: StdRng::seed_from_u64(args.seed),
        seed: args.seed,
        failures: Vec::new(),
    };
    // One shared columns payload: real wrapper data, computed once.
    let table = TimeTable::new(&benchmarks::d695(), 16).expect("d695 table");
    let columns = CostColumns::from_table(&table);

    let run = |surface: &str| args.surface == "all" || args.surface == surface;
    if run("manifest") {
        fuzz_manifest(&mut session, args.iters);
    }
    if run("serve") {
        fuzz_serve(&mut session, args.iters);
    }
    if run("itc02") {
        fuzz_itc02(&mut session, args.iters);
    }
    if run("store") {
        fuzz_store(&mut session, args.iters, &columns);
    }
    if run("net") {
        fuzz_net(&mut session, args.iters);
    }
    if run("trace") {
        fuzz_trace(&mut session, args.iters);
    }
    let _ = std::panic::take_hook();

    if session.failures.is_empty() {
        println!("fuzz: all surfaces clean");
        return ExitCode::SUCCESS;
    }
    let dir = std::path::Path::new("fuzz-failures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("fuzz: cannot create {}: {e}", dir.display());
    }
    for failure in &session.failures {
        let name = format!(
            "{}-seed{}-case{}.bin",
            failure.surface, session.seed, failure.case
        );
        let path = dir.join(&name);
        match std::fs::write(&path, &failure.input) {
            Ok(()) => eprintln!("fuzz: {}: {} -> {}", failure.surface, failure.reason, name),
            Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "fuzz: {} failure(s); inputs under {} (reproduce with --seed {})",
        session.failures.len(),
        dir.display(),
        session.seed
    );
    ExitCode::FAILURE
}
