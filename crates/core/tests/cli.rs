//! End-to-end tests of the `tamopt` command-line binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn tamopt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tamopt"))
}

/// Runs `tamopt serve` with `stdin` piped in and returns the output.
fn serve(stdin: &str, args: &[&str]) -> std::process::Output {
    let mut child = tamopt()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin accepts the trace");
    child.wait_with_output().expect("binary exits")
}

/// Drops the lines whose values legitimately vary run to run.
fn stable_lines(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw)
        .lines()
        .filter(|l| !l.contains("wall_clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn optimizes_a_named_benchmark() {
    let out = tamopt()
        .args(["--soc", "d695", "--width", "16", "--max-tams", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SOC d695"));
    assert!(stdout.contains("testing time"));
    assert!(stdout.contains("W = 16"));
}

#[test]
fn analyze_flag_extends_the_report() {
    let out = tamopt()
        .args([
            "--soc",
            "d695",
            "--width",
            "16",
            "--max-tams",
            "2",
            "--analyze",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wire-cycle utilization"));
}

#[test]
fn batch_subcommand_reports_every_request_in_submission_order() {
    let dir = std::env::temp_dir().join("tamopt-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("jobs.manifest");
    std::fs::write(
        &path,
        "d695 16 2 priority=0\n\
         d695 24 3 priority=5\n",
    )
    .expect("file written");
    let out = tamopt()
        .arg("batch")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"tamopt.batch-report/v1\""));
    assert!(stdout.contains("\"complete\": true"));
    // Submission order, not priority order.
    let first = stdout.find("\"width\": 16").expect("first request present");
    let second = stdout
        .find("\"width\": 24")
        .expect("second request present");
    assert!(first < second, "outcomes must be in submission order");
    assert_eq!(stdout.matches("\"status\": \"complete\"").count(), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_reports_are_thread_count_invariant_minus_wall_clock() {
    let dir = std::env::temp_dir().join("tamopt-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("determinism.manifest");
    std::fs::write(&path, "d695 16 2\nd695 24 3\n").expect("file written");
    let strip = |raw: &[u8]| -> String {
        String::from_utf8_lossy(raw)
            .lines()
            .filter(|l| !l.contains("wall_clock"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let run = |threads: &str| {
        let out = tamopt()
            .arg("batch")
            .arg(&path)
            .args(["--threads", threads])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        strip(&out.stdout)
    };
    assert_eq!(run("1"), run("4"), "threads must not change the report");
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_out_flag_writes_the_report_file() {
    let dir = std::env::temp_dir().join("tamopt-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("out.manifest");
    let report = dir.join("report.json");
    std::fs::write(&manifest, "d695 16 2\n").expect("file written");
    let out = tamopt()
        .arg("batch")
        .arg(&manifest)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.starts_with("{\n"));
    assert!(json.contains("\"soc\": \"d695\""));
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&report).ok();
}

#[test]
fn batch_bad_manifest_fails_cleanly() {
    let out = tamopt()
        .args(["batch", "/nonexistent/jobs.manifest"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let dir = std::env::temp_dir().join("tamopt-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken.manifest");
    std::fs::write(&path, "d695 16\n").expect("file written");
    let out = tamopt()
        .arg("batch")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_streams_outcomes_then_a_final_report() {
    // Equal priorities: ties dispatch in submission order, so the
    // stream order is deterministic even in live mode.
    let out = serve("d695 16 2\nd695 24 3\n", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // The protocol banner, then two compact outcome lines, then the
    // pretty report.
    assert_eq!(lines[0], "{\"protocol\": \"tamopt-serve\", \"v\": 1}");
    assert!(
        lines[1].starts_with("{\"v\": 1, \"id\": 0,"),
        "line: {}",
        lines[1]
    );
    assert!(
        lines[2].starts_with("{\"v\": 1, \"id\": 1,"),
        "line: {}",
        lines[2]
    );
    assert!(stdout.contains("\"schema\": \"tamopt.batch-report/v1\""));
    assert!(stdout.contains("\"complete\": true"));
    assert_eq!(stdout.matches("\"status\": \"complete\"").count(), 4);
}

#[test]
fn serve_trace_replay_is_thread_count_invariant() {
    let trace = "@0 d695 32 6\n\
                 @0 d695 16 2\n\
                 @0 p31108 24 3\n\
                 @1 d695 24 3 priority=9\n\
                 @1 cancel 1\n";
    let t1 = serve(trace, &["--threads", "1"]);
    let t4 = serve(trace, &["--threads", "4"]);
    assert!(t1.status.success() && t4.status.success());
    let (s1, s4) = (stable_lines(&t1.stdout), stable_lines(&t4.stdout));
    assert_eq!(s1, s4, "replayed serve output must not depend on threads");
    // The high-priority mid-run submission (id 3) streams before the
    // queued id 2…
    let id3 = s1.find("\"id\": 3,").expect("id 3 streamed");
    let id2 = s1.find("\"id\": 2,").expect("id 2 streamed");
    assert!(id3 < id2, "priority 9 preempts the queued backlog");
    // …and id 1 was cancelled at the same barrier, before dispatch.
    assert!(s1.contains(
        "{\"v\": 1, \"id\": 1, \"soc\": \"d695\", \"width\": 16, \
         \"min_tams\": 1, \"max_tams\": 2, \"priority\": 0, \
         \"kind\": \"point\", \"status\": \"cancelled\"}"
    ));
}

#[test]
fn serve_empty_input_reports_cleanly() {
    let out = serve("# nothing but comments\n\n", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"complete\": true"));
    assert!(stdout.contains("\"requests\": ["));
}

#[test]
fn serve_rejects_mixed_and_malformed_input() {
    // Untagged line in a trace: fatal before any work runs.
    let out = serve("@0 d695 16 2\nd695 24 3\n", &[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    // Malformed line in live mode: reported, skipped, exit code fails,
    // but the valid submission still ran.
    // The first line picks the mode but is not parsed to do it, so a
    // malformed first line is reported the same way.
    for (input, bad) in [("d695 16 2\nbogus!\n", 2), ("bogus!\nd695 16 2\n", 1)] {
        let out = serve(input, &[]);
        assert!(!out.status.success(), "{input:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("line {bad}")),
            "{input:?}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"status\": \"complete\""), "{input:?}");
    }
}

#[test]
fn serve_with_a_closed_stdout_fails_without_panicking() {
    let mut child = tamopt()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The reader of stdout goes away before any request is sent. The
    // child may already have exited on its banner, so a refused stdin
    // write is expected.
    drop(child.stdout.take());
    let _ = child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"d695 16 2\n");
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("tamopt: cannot write stdout"), "{stderr}");
}

#[test]
fn serve_stdin_session_ends_at_the_first_failed_stdout_write() {
    use std::io::BufRead as _;
    let mut child = tamopt()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut greeting = String::new();
    stdout.read_line(&mut greeting).expect("greeting");
    assert!(greeting.contains("tamopt-serve"), "{greeting}");
    // Now the reader of stdout goes away. A stdin `stats` is answered on
    // the session's own thread before the next line is read, so its
    // failed write must end the session: the malformed line 2 is never
    // read, noted or counted.
    drop(stdout);
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"stats\nbogus\n")
        .expect("the session reads its first line");
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("serve: line 2"), "{stderr}");
    assert!(!stderr.contains("invalid line"), "{stderr}");
    assert_eq!(
        stderr.matches("tamopt: cannot write stdout: ").count(),
        1,
        "{stderr}"
    );
}

#[test]
fn missing_required_flags_fail_with_usage() {
    let out = tamopt()
        .args(["--width", "16"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--soc is required"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = tamopt()
        .args(["--soc", "/nonexistent/chip.soc", "--width", "16"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn parses_a_soc_file_from_disk() {
    let dir = std::env::temp_dir().join("tamopt-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mini.soc");
    std::fs::write(
        &path,
        "soc mini\n\
         core cpu\n  inputs 8\n  outputs 8\n  scanchains 16 16\n  patterns 50\nend\n\
         core mem\n  inputs 12\n  outputs 10\n  patterns 200\nend\n",
    )
    .expect("file written");
    let out = tamopt()
        .arg("--soc")
        .arg(&path)
        .args(["--width", "8", "--max-tams", "2"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("SOC mini"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_listen_accepts_tcp_clients_and_reports_on_stdin_close() {
    use std::io::{BufRead as _, BufReader};
    use std::net::TcpStream;

    let mut child = tamopt()
        .args(["serve", "--listen", "127.0.0.1:0", "--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner line");
    assert_eq!(
        line.trim_end(),
        "{\"protocol\": \"tamopt-serve\", \"v\": 1}"
    );
    line.clear();
    reader.read_line(&mut line).expect("listening line");
    let addr = line
        .trim_end()
        .strip_prefix("{\"listening\": \"")
        .and_then(|tail| tail.strip_suffix("\"}"))
        .unwrap_or_else(|| panic!("unexpected listening line: {line}"))
        .to_owned();

    let stream = TcpStream::connect(&addr).expect("connecting to the server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("setting a read timeout");
    let mut socket = BufReader::new(stream.try_clone().expect("cloning the stream"));
    let mut net_line = String::new();
    socket.read_line(&mut net_line).expect("greeting");
    assert_eq!(
        net_line.trim_end(),
        "{\"protocol\": \"tamopt-serve\", \"v\": 1, \"client\": 0}"
    );

    let mut writer = stream;
    writeln!(writer, "d695 16 2").expect("submitting");
    net_line.clear();
    socket.read_line(&mut net_line).expect("outcome line");
    assert!(
        net_line.starts_with("{\"v\": 1, \"id\": 0, \"client\": 0, "),
        "outcome: {net_line}"
    );
    assert!(net_line.contains("\"status\": \"complete\""));

    // Generation tags are a trace-mode construct; over the network they
    // are a parse error, answered on the connection.
    writeln!(writer, "@0 d695 16 2").expect("submitting a tagged line");
    net_line.clear();
    socket.read_line(&mut net_line).expect("error line");
    assert!(
        net_line.starts_with("{\"v\": 1, \"client\": 0, \"error\": \"parse\", "),
        "tagged-line reply: {net_line}"
    );

    drop(writer);
    drop(socket);

    // Closing stdin is the shutdown signal: the server seals the queue
    // and prints the final report to its own stdout.
    drop(child.stdin.take());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("final report");
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "exit: {status:?}\nstdout tail: {rest}");
    assert!(rest.contains("\"schema\": \"tamopt.batch-report/v1\""));
    assert!(rest.contains("\"client\": 0,"), "report tail: {rest}");
    assert!(rest.contains("\"status\": \"complete\""));
}

#[test]
fn serve_live_stats_reply_is_not_blocked_by_the_outcome_printer() {
    use std::io::{BufRead as _, BufReader};
    use std::sync::mpsc;
    use std::time::Duration;

    let mut child = tamopt()
        .args(["serve", "--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let (tx, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            if tx.send(line.expect("stdout is utf-8")).is_err() {
                break;
            }
        }
    });
    let mut next_line = |what: &str| match lines.recv_timeout(Duration::from_secs(60)) {
        Ok(line) => line,
        Err(_) => {
            let _ = child.kill();
            panic!("no {what} line within 60 s");
        }
    };
    assert!(next_line("banner").starts_with("{\"protocol\": \"tamopt-serve\""));
    writeln!(stdin, "d695 16 2").expect("submitting");
    // Once the outcome has printed, the printer thread is parked waiting
    // for the next one; the `stats` reply must still get through.
    let outcome = next_line("outcome");
    assert!(
        outcome.starts_with("{\"v\": 1, \"id\": 0, "),
        "outcome: {outcome}"
    );
    writeln!(stdin, "stats").expect("asking for stats");
    let stats = next_line("stats");
    assert!(stats.starts_with("{\"generation\": "), "stats: {stats}");
    drop(stdin);
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "exit: {status:?}");
    reader.join().expect("stdout reader");
}

/// A live `tamopt serve` on stdin, driven one line at a time: every
/// stdout and stderr line is forwarded through a channel, so a reply
/// can be awaited with a timeout instead of hanging the suite.
struct Lockstep {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    stdout: std::sync::mpsc::Receiver<String>,
    stderr: std::sync::mpsc::Receiver<String>,
}

impl Lockstep {
    fn spawn(args: &[&str]) -> Lockstep {
        let mut child = tamopt()
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let forward = |stream: Box<dyn std::io::Read + Send>| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                use std::io::BufRead as _;
                for line in std::io::BufReader::new(stream).lines() {
                    if tx.send(line.expect("utf-8 output")).is_err() {
                        break;
                    }
                }
            });
            rx
        };
        let stdout = forward(Box::new(child.stdout.take().expect("stdout piped")));
        let stderr = forward(Box::new(child.stderr.take().expect("stderr piped")));
        let stdin = child.stdin.take();
        Lockstep {
            child,
            stdin,
            stdout,
            stderr,
        }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        writeln!(stdin, "{line}").expect("writing a serve line");
        stdin.flush().expect("flushing a serve line");
    }

    fn next(&mut self, stderr: bool, what: &str) -> String {
        let lines = if stderr { &self.stderr } else { &self.stdout };
        match lines.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(line) => line,
            Err(_) => {
                let _ = self.child.kill();
                panic!("no {what} line within 60 s");
            }
        }
    }

    /// Closes stdin and returns the remaining stdout and stderr lines
    /// with the exit status.
    fn finish(mut self) -> (Vec<String>, Vec<String>, std::process::ExitStatus) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("binary exits");
        (
            self.stdout.iter().collect(),
            self.stderr.iter().collect(),
            status,
        )
    }
}

#[test]
fn serve_live_stdin_bytes_are_pinned_in_lockstep() {
    // One line in, its reply out, for every kind of live line: accepted
    // submissions stream an outcome, `stats` answers on stdout, and
    // refused lines answer on stderr. The full stdout (minus
    // `wall_clock*` lines) is pinned to tests/golden/.
    let mut serve = Lockstep::spawn(&["--threads", "1"]);
    let mut stdout = vec![serve.next(false, "banner")];
    serve.send("d695 16 2");
    stdout.push(serve.next(false, "first outcome"));
    // The dispatcher reaches its next barrier just after the outcome
    // streams; the pause lets the `stats` generation settle on it.
    std::thread::sleep(std::time::Duration::from_millis(250));
    serve.send("stats");
    stdout.push(serve.next(false, "stats"));
    let mut stderr = Vec::new();
    for line in ["bogus!", "@0 d695 16 2", "cancel 7"] {
        serve.send(line);
        stderr.push(serve.next(true, line));
    }
    serve.send("d695 16 2");
    stdout.push(serve.next(false, "second outcome"));
    let (rest, stderr_rest, status) = serve.finish();
    stdout.extend(rest);
    stderr.extend(stderr_rest);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = std::fs::read_to_string(root.join("tests/golden/serve_live_lockstep.txt"))
        .expect("golden exists");
    let actual: Vec<&str> = stdout
        .iter()
        .map(String::as_str)
        .filter(|line| !line.contains("wall_clock"))
        .collect();
    assert_eq!(actual, golden.lines().collect::<Vec<_>>());
    assert_eq!(status.code(), Some(1), "three refused lines fail the run");
    let prefixes: Vec<&str> = stderr
        .iter()
        .filter(|line| line.starts_with("serve: line "))
        .map(|line| {
            let end = line
                .match_indices(':')
                .nth(1)
                .map_or(line.len(), |(i, _)| i + 1);
            &line[..end]
        })
        .collect();
    assert_eq!(
        prefixes,
        ["serve: line 3:", "serve: line 4:", "serve: line 5:"],
        "stderr: {stderr:?}"
    );
}

#[test]
fn serve_stdin_cancel_of_a_finished_request_is_a_silent_no_op() {
    // Like a socket client, the stdin session may cancel any id it
    // submitted; once the outcome has streamed there is nothing left to
    // cancel, which is not an error.
    let mut serve = Lockstep::spawn(&["--threads", "1"]);
    serve.next(false, "banner");
    serve.send("d695 16 2");
    let outcome = serve.next(false, "outcome");
    assert!(outcome.contains("\"status\": \"complete\""), "{outcome}");
    serve.send("cancel 0");
    let (_, stderr, status) = serve.finish();
    assert!(status.success(), "stderr: {stderr:?}");
    assert!(stderr.is_empty(), "stderr: {stderr:?}");
}

#[test]
fn serve_stdin_in_flight_quota_accounts_for_every_submission() {
    // `--max-inflight 1` holds the stdin session to the same quota as a
    // socket client. The heavy first request is still running when the
    // rest of the burst arrives, so some are refused: each refusal is a
    // stderr note that consumes no id and does not fail the run.
    let burst = [
        "p31108 32 4",
        "d695 16 2",
        "d695 24 3",
        "d695 16 2",
        "d695 24 3",
    ];
    let out = serve(
        &(burst.join("\n") + "\n"),
        &["--threads", "1", "--max-inflight", "1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let outcomes = stdout
        .lines()
        .filter(|line| line.starts_with("{\"v\": 1, \"id\": "))
        .count();
    let refused = stderr
        .lines()
        .filter(|line| line.contains("overloaded — request refused"))
        .count();
    assert_eq!(outcomes + refused, burst.len(), "{stdout}\n{stderr}");
    assert!(refused >= 1, "the quota refused nothing: {stderr}");
}

#[test]
fn serve_rejects_listen_and_socket_together() {
    let out = tamopt()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--socket",
            "/tmp/tamopt-never-bound.sock",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn serve_rejects_the_shards_flag_with_usage() {
    let out = tamopt()
        .args(["serve", "--shards", "2"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown argument `--shards`"), "{stderr}");
    assert!(stderr.contains("usage: tamopt serve"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "no work ran");
}

#[test]
fn serve_trace_rejects_a_generation_shard_tag() {
    let out = serve("@0 d695 16 2\n@0/1 d695 16 2\n", &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("serve: line 2: invalid generation tag `@0/1`"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
