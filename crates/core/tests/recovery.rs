//! End-to-end crash recovery of the `tamopt serve` daemon.
//!
//! These tests SIGKILL a real `--journal --store`-backed daemon
//! mid-workload and restart it on the same files with `--break-locks`,
//! holding the pair of incarnations to the recovery contract: every
//! accepted (journaled) request is answered exactly once across the
//! crash, winners are byte-identical to an uninterrupted run, and a
//! clean recovery compacts the journal back to its empty header.
//!
//! The deterministic per-scenario chaos twin lives in
//! `examples/chaos.rs --mode crash`; these tests pin the fixed-workload
//! cases into the tier-1 suite. One more case builds its crash image
//! with the journal API instead of a kill: a journal written by an
//! older daemon that stamped each submission with a shard must still
//! recover. Two more pass each file kind where the other is expected
//! (a store as `--journal`, a journal as `--store`): the daemon must
//! refuse to start and leave the file byte-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use tamopt::store::journal::decode;
use tamopt::store::{Journal, JournalRecord, SyncPolicy};

/// A fixed mid-size workload: heavy enough that a 60 ms kill lands
/// mid-flight, varied enough that a mixed-up id mapping changes a
/// winner.
const WORKLOAD: &[&str] = &[
    "d695 32 4",
    "p31108 24 3 priority=7",
    "d695 16 2",
    "p21241 32 4 priority=2",
    "d695 24 3",
    "p31108 16 2 priority=9",
];

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tamopt-recovery-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

fn spawn_serve(dir: &Path, extra: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_tamopt"))
        .current_dir(dir)
        .args(["serve", "--threads", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the serve daemon")
}

/// `{"v": 1, "id": N, ...}` outcome lines only; the report tail is
/// filtered out, and so are torn tails from a kill landing mid-write
/// (a whole outcome line ends with the stats object's `}}`).
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

/// The winner fields of an outcome line: the prune-statistics tail is
/// stripped — a warm-started redo prunes more — but the winner itself
/// must be byte-identical.
fn winner(line: &str) -> String {
    line.split(", \"stats\": ")
        .next()
        .unwrap_or(line)
        .to_owned()
}

fn feed(child: &mut std::process::Child, script: &str) -> std::process::ChildStdin {
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(script.as_bytes())
        .expect("feeding the workload");
    stdin.flush().expect("flushing the workload");
    stdin
}

/// The winners of an uninterrupted, unjournaled run of [`WORKLOAD`],
/// by id.
fn reference_winners(dir: &Path) -> BTreeMap<usize, String> {
    let mut reference = spawn_serve(dir, &[]);
    drop(feed(&mut reference, &(WORKLOAD.join("\n") + "\n")));
    let output = reference
        .wait_with_output()
        .expect("reference daemon exits");
    assert!(
        output.status.success(),
        "reference daemon: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let expected: BTreeMap<usize, String> = outcome_lines(&output.stdout)
        .into_iter()
        .map(|(id, line)| (id, winner(&line)))
        .collect();
    assert_eq!(
        expected.len(),
        WORKLOAD.len(),
        "reference answered everything"
    );
    expected
}

#[test]
fn sigkill_mid_workload_recovers_every_accepted_request_flat() {
    let dir = temp_dir("flat");
    let script = WORKLOAD.join("\n") + "\n";
    let expected = reference_winners(&dir);

    // Journal-backed victim, SIGKILLed mid-workload. Stdin stays open
    // so the daemon keeps serving right up to the kill.
    let flags = ["--journal", "j.tamjrnl", "--store", "w.tamstore"];
    let mut victim = spawn_serve(&dir, &flags);
    let stdin = feed(&mut victim, &script);
    std::thread::sleep(Duration::from_millis(60));
    victim.kill().expect("killing the victim");
    let output = victim.wait_with_output().expect("victim reaped");
    drop(stdin);
    let before = outcome_lines(&output.stdout);

    // What the journal promised: every accepted submit.
    let journal = dir.join("j.tamjrnl");
    let bytes = std::fs::read(&journal).expect("reading the journal after the kill");
    let accepted: BTreeSet<usize> = decode(&bytes)
        .expect("journal decodes after the kill")
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Submit { id, .. } => usize::try_from(*id).ok(),
            _ => None,
        })
        .collect();

    // Restart on the same journal + store. The dead daemon's locks are
    // still on disk; `--break-locks` is the documented way through.
    let flags = [
        "--journal",
        "j.tamjrnl",
        "--store",
        "w.tamstore",
        "--break-locks",
    ];
    let mut recovery = spawn_serve(&dir, &flags);
    drop(recovery.stdin.take());
    let output = recovery.wait_with_output().expect("recovery daemon exits");
    assert!(
        output.status.success(),
        "recovery daemon: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let after = outcome_lines(&output.stdout);

    // Oracle 1: no accepted request lost, and recovery answers only
    // accepted ones. (The victim may additionally have answered a
    // request killed between queue accept and journal append — hence
    // subset, not equality.)
    let answered: BTreeSet<usize> = before.iter().chain(&after).map(|&(id, _)| id).collect();
    let lost: Vec<usize> = accepted.difference(&answered).copied().collect();
    assert!(
        lost.is_empty(),
        "accepted request(s) {lost:?} lost across the crash"
    );
    for (id, _) in &after {
        assert!(
            accepted.contains(id),
            "recovery invented request {id} the journal never accepted"
        );
    }

    // Oracle 2: winners byte-identical to the uninterrupted run.
    for (id, line) in before.iter().chain(&after) {
        let want = expected.get(id).expect("every answered id was submitted");
        assert_eq!(
            &winner(line),
            want,
            "request {id}: winner drifted across the crash"
        );
    }

    // Oracle 3: everything sealed → the journal is its empty header.
    let len = std::fs::metadata(&journal).expect("journal exists").len();
    assert_eq!(
        len, 12,
        "journal must compact to its empty header after a clean recovery"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_with_shard_stamps_recovers_every_accepted_request() {
    let dir = temp_dir("stamped");
    let expected = reference_winners(&dir);

    // The crash image a sharded daemon left behind: every submission
    // stamped with the shard that accepted it, id 0 already sealed, id
    // 3 cancelled before the crash, the rest unsealed.
    let journal = dir.join("j.tamjrnl");
    let mut writer = Journal::open(&journal, SyncPolicy::default())
        .expect("opening a fresh journal")
        .journal;
    for (id, line) in WORKLOAD.iter().enumerate() {
        writer
            .append(&JournalRecord::Submit {
                id: id as u64,
                client: None,
                shard: Some(1),
                line: (*line).to_owned(),
            })
            .expect("appending a stamped submit");
    }
    for record in [
        JournalRecord::Sealed { id: 0 },
        JournalRecord::Cancel { id: 3 },
    ] {
        writer.append(&record).expect("appending a record");
    }
    drop(writer);

    let mut recovery = spawn_serve(&dir, &["--journal", "j.tamjrnl"]);
    drop(recovery.stdin.take());
    let output = recovery.wait_with_output().expect("recovery daemon exits");
    assert!(
        output.status.success(),
        "recovery daemon: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // No kill, so no torn tails: every outcome line counts, including
    // the cancelled one, which has no `stats` object.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let recovered: BTreeMap<usize, &str> = stdout
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"v\": 1, \"id\": ")?;
            let end = rest.find(',')?;
            Some((rest[..end].parse().ok()?, line))
        })
        .collect();
    assert_eq!(
        recovered.keys().copied().collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5],
        "every unsealed request is answered once: {stdout}"
    );
    for (id, line) in &recovered {
        assert!(!line.contains("shard"), "the stamp is not echoed: {line}");
        if *id == 3 {
            assert!(line.contains("\"status\": \"cancelled\""), "{line}");
        } else {
            assert_eq!(
                &winner(line),
                &expected[id],
                "request {id}: winner drifted across recovery"
            );
        }
    }
    assert_eq!(
        std::fs::metadata(&journal).expect("journal exists").len(),
        12,
        "journal must compact to its empty header after a clean recovery"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_a_clean_shutdown_recovers_nothing() {
    let dir = temp_dir("clean");
    let script = "d695 16 2\n";

    let mut first = spawn_serve(&dir, &["--journal", "j.tamjrnl"]);
    drop(feed(&mut first, script));
    let output = first.wait_with_output().expect("first daemon exits");
    assert!(output.status.success());
    assert_eq!(outcome_lines(&output.stdout).len(), 1);
    let journal = dir.join("j.tamjrnl");
    assert_eq!(
        std::fs::metadata(&journal).expect("journal exists").len(),
        12,
        "a clean shutdown leaves the empty header"
    );

    // Nothing was left unsealed, so the restart has nothing to redo —
    // and needs no --break-locks: the clean shutdown released them.
    let mut second = spawn_serve(&dir, &["--journal", "j.tamjrnl"]);
    drop(second.stdin.take());
    let output = second.wait_with_output().expect("second daemon exits");
    assert!(
        output.status.success(),
        "restart: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        outcome_lines(&output.stdout).is_empty(),
        "nothing to recover after a clean shutdown"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("recovering"),
        "no recovery banner expected: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_flags_account_for_every_submission() {
    // `--max-pending 1` on a six-request burst: some requests are shed
    // at a barrier (a typed `shed` outcome), refused ones are noted on
    // stderr without consuming an id — and between outcomes and notes,
    // all six submissions are accounted for.
    let dir = temp_dir("overload");
    let script = WORKLOAD.join("\n") + "\n";
    let mut child = spawn_serve(&dir, &["--max-pending", "1"]);
    drop(feed(&mut child, &script));
    let output = child.wait_with_output().expect("daemon exits");
    assert!(
        output.status.success(),
        "overloaded daemon: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // No kill here, so no torn tails — but shed outcomes carry an
    // `error` note instead of a `stats` object and end with a single
    // brace, so the crash-tolerant `}}` filter would drop them.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let outcomes: Vec<(usize, &str)> = stdout
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"v\": 1, \"id\": ")?;
            let end = rest.find(',')?;
            Some((rest[..end].parse().ok()?, line))
        })
        .collect();
    let refused = String::from_utf8_lossy(&output.stderr)
        .lines()
        .filter(|line| line.contains("overloaded — request shed"))
        .count();
    assert_eq!(
        outcomes.len() + refused,
        WORKLOAD.len(),
        "outcomes + refusals must cover the whole burst\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Every shed outcome is self-describing on the wire.
    for (id, line) in &outcomes {
        if line.contains("\"status\": \"shed\"") {
            assert!(
                line.contains("shed by overload protection"),
                "shed outcome {id} lacks its note: {line}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `tamopt serve <flags>` in `dir` with `script` on stdin. A daemon
/// that refuses its files exits before reading stdin, so a failed
/// write is expected there and ignored.
fn serve_once(dir: &Path, flags: &[&str], script: &str) -> std::process::Output {
    let mut child = spawn_serve(dir, flags);
    let mut stdin = child.stdin.take().expect("piped stdin");
    let _ = stdin.write_all(script.as_bytes());
    drop(stdin);
    child.wait_with_output().expect("daemon exits")
}

#[test]
fn serve_refuses_a_store_file_as_its_journal_and_leaves_it_untouched() {
    let dir = temp_dir("store-as-journal");
    let output = serve_once(&dir, &["--store", "s.tamstore"], "d695 16 2\n");
    assert!(output.status.success(), "writing the store");
    let store = dir.join("s.tamstore");
    let before = std::fs::read(&store).expect("the daemon saved its store");

    let output = serve_once(&dir, &["--journal", "s.tamstore"], "d695 16 2\n");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot open journal `s.tamstore`"),
        "stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read(&store).expect("the store still exists"),
        before,
        "a store opened as a journal must be left byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_journal_file_as_its_store_and_leaves_it_untouched() {
    let dir = temp_dir("journal-as-store");
    // A crash image holding one accepted, unsealed request.
    let journal = dir.join("crash.jrnl");
    let mut writer = Journal::open(&journal, SyncPolicy::default())
        .expect("opening a fresh journal")
        .journal;
    writer
        .append(&JournalRecord::Submit {
            id: 0,
            client: None,
            shard: None,
            line: "d695 16 2".to_owned(),
        })
        .expect("appending a submit");
    drop(writer);
    let before = std::fs::read(&journal).expect("reading the journal");

    let output = serve_once(&dir, &["--store", "crash.jrnl"], "d695 16 2\n");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot open store `crash.jrnl`"),
        "stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read(&journal).expect("the journal still exists"),
        before,
        "a journal opened as a store must be left byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
