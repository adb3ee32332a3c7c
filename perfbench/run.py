#!/usr/bin/env python3
"""The tamopt benchmark command.

    python3 perfbench/run.py --workload npaw|paw|serve --seed N --seconds S --trace 0|1

Builds the `tamopt` binary and the `perfbench` harness from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload and prints
host metadata, the harness's report, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. Scratch files live under
`.bench_work/` in the checkout; a traced run keeps its spans there.
Exits non-zero without a result when the sources are missing or a step
fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def cargo_build(target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed", build.returncode)


def tree_digest():
    """Content hash of the sources, standing in for a commit id when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in names
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def metadata():
    def output(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    in_git = os.path.exists(os.path.join(ROOT, ".git"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": (in_git and output(["git", "rev-parse", "HEAD"])) or tree_digest(),
        "rustc": output(["rustc", "--version"]),
        "machine": os.uname().machine,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["npaw", "paw", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    for needed in ["Cargo.toml", "Cargo.lock", "crates/core/Cargo.toml", "perfbench/expected.txt"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"missing {needed}: run from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cargo_build(target, ["-p", "tamopt", "--bin", "tamopt"])
    cargo_build(target, ["--manifest-path", "perfbench/Cargo.toml"])

    work_root = os.path.join(ROOT, ".bench_work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(work_root, f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tamopt", os.path.join(target, "release", "tamopt"),
        # Relative, so the daemon's unix socket path stays short.
        "--work", os.path.relpath(work, ROOT),
        "--expected", os.path.join("perfbench", "expected.txt"),
    ]
    # Its own process group, so a timeout can stop the daemons it started.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(stdout)
        shutil.rmtree(work, ignore_errors=True)
        fail(f"perfbench exited with {child.returncode}", 1)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(f"perfbench printed no result line: {lines[-1]!r}", 1)

    if args.trace:
        spans = os.path.join(work_root, "spans", f"{tag}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        os.replace(os.path.join(work, "spans.jsonl"), spans)
        lines.insert(-1, f"spans kept in {os.path.relpath(spans, ROOT)}")
    shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("meta " + json.dumps(metadata()))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
