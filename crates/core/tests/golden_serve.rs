//! Golden serve streams: `tamopt serve` over the example traces, pinned
//! byte for byte (minus `wall_clock*` lines) to the files in the
//! workspace's `tests/golden/`.
//!
//! `make determinism` diffs thread counts against each other within one
//! binary; these files pin the stream itself, so a change to how the
//! daemon dispatches, stamps or serializes anything fails here
//! even when every thread count agrees. Each expected file is the
//! command's stdout piped through `grep -v wall_clock`.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `tamopt serve <args> < examples/<trace>` and compares stdout,
/// with `wall_clock*` lines removed, against `tests/golden/<golden>`.
fn check(args: &[&str], trace: &str, golden: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let input = std::fs::read(root.join("examples").join(trace)).expect("example trace exists");
    let expected =
        std::fs::read_to_string(root.join("tests/golden").join(golden)).expect("golden exists");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tamopt"))
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
        .write_all(&input)
        .expect("stdin accepts the trace");
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "serve {args:?} < {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stream");
    let actual: Vec<&str> = stdout
        .lines()
        .filter(|line| !line.contains("wall_clock"))
        .collect();
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(actual, expected, "serve {args:?} < {trace} vs {golden}");
}

#[test]
fn flat_serve_trace_stream_is_pinned_at_one_thread() {
    check(
        &["--threads", "1"],
        "serve.trace",
        "serve_stream_threads1.txt",
    );
}

#[test]
fn flat_kinds_trace_stream_is_pinned_at_four_threads() {
    check(
        &["--threads", "4"],
        "kinds.trace",
        "kinds_stream_threads4.txt",
    );
}
