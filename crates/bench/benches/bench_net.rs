//! Throughput of the network front-end: full loopback sessions — N
//! concurrent TCP clients connecting, submitting a fixed workload and
//! draining their outcome streams — plus the pure line-framing layer.
//!
//! Before any timing, the bit-identity gate: with the warm cache off,
//! every request's result is independent of execution order, so the
//! per-client outcome streams (matched by client id — accept order is
//! scheduler-dependent) must be byte-identical across two runs. The
//! sockets add latency, never nondeterminism in content.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::benchmarks;
use tamopt::cli::parse_session_line;
use tamopt::service::{Frame, LineFramer, LineParser, LiveConfig, NetListener, NetServer};

/// Each client's workload: small requests, so the bench measures the
/// front-end and queue machinery rather than one long scan.
const SPECS: [(&str, u32, u32); 4] = [
    ("d695", 16, 2),
    ("p31108", 24, 3),
    ("d695", 24, 3),
    ("p31108", 16, 2),
];

/// The `tamopt serve` session grammar over the workload's SOCs.
fn parser() -> LineParser {
    let resolve = |name: &str| match name {
        "d695" => Ok(benchmarks::d695()),
        "p31108" => Ok(benchmarks::p31108()),
        other => Err(format!("unknown soc `{other}`")),
    };
    Arc::new(move |line: &str| parse_session_line(line, &resolve, None))
}

/// One full loopback session: `clients` concurrent connections each
/// submit the workload and drain their streams. Returns the per-client
/// outcome lines indexed by server-assigned client id.
fn session(clients: usize, threads: usize) -> Vec<Vec<String>> {
    let listener = NetListener::tcp("127.0.0.1:0").expect("binding a loopback port");
    let config = LiveConfig {
        warm_start: false,
        ..LiveConfig::with_threads(threads)
    };
    let server = NetServer::start(config, listener, parser());
    let addr = server.addr().to_owned();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connecting");
                let mut reader = BufReader::new(stream.try_clone().expect("cloning"));
                let mut greeting = String::new();
                reader.read_line(&mut greeting).expect("greeting");
                let id: usize = greeting
                    .rsplit("\"client\": ")
                    .next()
                    .and_then(|tail| tail.trim_end().trim_end_matches('}').parse().ok())
                    .expect("client id");
                let mut writer = stream;
                for (soc, width, max_tams) in SPECS {
                    writeln!(writer, "{soc} {width} {max_tams}").expect("submitting");
                }
                let lines = (0..SPECS.len())
                    .map(|_| {
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("outcome");
                        line
                    })
                    .collect::<Vec<String>>();
                (id, lines)
            })
        })
        .collect();
    let mut per_client: Vec<Vec<String>> = vec![Vec::new(); clients];
    for worker in workers {
        let (id, lines) = worker.join().expect("client thread");
        per_client[id] = lines;
    }
    server.shutdown();
    per_client
}

fn bench_net_loopback(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_loopback");
    group.sample_size(10);
    for clients in [1usize, 2, 4] {
        // Bit-identity gate: identical per-client streams across runs.
        let reference = session(clients, 2);
        assert_eq!(
            session(clients, 2),
            reference,
            "loopback streams must be run-invariant with the warm cache off ({clients} clients)"
        );
        group.bench_with_input(
            BenchmarkId::new("clients", clients),
            &clients,
            |b, &clients| b.iter(|| black_box(session(black_box(clients), 2))),
        );
    }
    group.finish();
}

fn bench_net_framing(c: &mut Criterion) {
    // A realistic line mix, repeated to a ~1 MiB stream.
    let chunk = b"d695 16 2\np31108 24 3\ncancel 0\nstats\r\nnot a request\n";
    let stream: Vec<u8> = chunk.iter().copied().cycle().take(1 << 20).collect();
    // Gate: framing is chunking-invariant before it is fast.
    let frame_all = |step: usize| {
        let mut framer = LineFramer::new();
        let mut frames: Vec<Frame> = Vec::new();
        for piece in stream.chunks(step) {
            frames.extend(framer.push(piece));
        }
        frames.extend(framer.finish());
        frames
    };
    let reference = frame_all(stream.len());
    assert_eq!(frame_all(1400), reference, "framing depends on chunking");
    assert_eq!(frame_all(7), reference, "framing depends on chunking");

    let mut group = c.benchmark_group("net_framing");
    for (name, step) in [("whole", stream.len()), ("mtu", 1400usize)] {
        group.bench_with_input(BenchmarkId::new("chunk", name), &step, |b, &step| {
            b.iter(|| black_box(frame_all(black_box(step))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_net_loopback, bench_net_framing);
criterion_main!(benches);
