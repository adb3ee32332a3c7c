# Local entry points mirroring the CI jobs (.github/workflows/ci.yml) so
# local and CI runs stay identical. `make verify` is the tier-1 command
# from ROADMAP.md.

# The determinism target pipes the CLI through grep; without pipefail a
# crashing binary would leave the pipeline (and the diff) green.
SHELL := /bin/bash

.PHONY: all build test verify doc-gate determinism serve-determinism \
        store-determinism recovery-determinism fuzz-smoke \
        chaos-soak alloc-gate exact-gate msrv-check \
        lint fmt clean

all: build test lint

# --- CI job: test -----------------------------------------------------------

build:
	cargo build --release

test:
	cargo test -q --workspace

# Tier-1 verify (ROADMAP.md).
verify:
	cargo build --release && cargo test -q

doc-gate:
	cargo test --doc -p tamopt

# Counting-allocator proof (also part of `make test`): the scan hot path
# must be allocation-free after warm-up, and a whole scan allocates only
# per scan and per ranked candidate (no term per chunk or per partition),
# strictly less than the allocate-per-partition seed path.
alloc-gate:
	cargo test --release -p tamopt_alloctest

# Pinned slow rows: p93791 at W = 16/24/32/36, B <= 10, whose exact
# final step needs 4.9-32.8 M nodes to prove its answer (0.3-2.1 s per
# row in release mode on a 2-CPU host, so the test is ignored in `make
# test`). Any change that moves their winner, TAMs or work counts, or
# leaves a final step unproven, fails here.
exact-gate:
	cargo test --release --test golden_npaw -- --ignored

# MSRV drift guard: Cargo.toml's rust-version must match the CI matrix.
msrv-check:
	@msrv="$$(sed -n 's/^rust-version = "\(.*\)"$$/\1/p' Cargo.toml)"; \
	test -n "$$msrv" || { echo "no rust-version in Cargo.toml"; exit 1; }; \
	grep -qF -- "- \"$$msrv\" # MSRV" .github/workflows/ci.yml \
	  || { echo "MSRV drift: Cargo.toml says $$msrv but the ci.yml matrix disagrees"; exit 1; }; \
	echo "MSRV $$msrv in sync with CI"

# --- CI job: fuzz-smoke -----------------------------------------------------

# A deterministic slice of the continuous fuzzer (examples/fuzz.rs) over
# all five untrusted input surfaces: the batch-manifest grammar, the
# serve line protocol, the ITC'02 parser, the store file format and the
# network framing layer.
# Failing inputs land in fuzz-failures/. The nightly fuzzer workflow
# (.github/workflows/fuzzer.yml) runs the same harness at scale.
fuzz-smoke:
	cargo run --release --example fuzz -- --iters 500 --seed 1

# --- CI job: chaos-soak -----------------------------------------------------

# A deterministic slice of the multi-client chaos harness
# (examples/chaos.rs): seeded scenarios checked both as deterministic
# replays (byte-identical across threads {1,2,8})
# and over live loopback TCP sessions. Failing scenario scripts land in
# chaos-failures/. The nightly chaos workflow
# (.github/workflows/chaos.yml) runs the same harness at scale with
# seed = run id.
chaos-soak:
	cargo run --release --example chaos -- --seed 1 --scenarios 4

# --- CI job: determinism ----------------------------------------------------

determinism: serve-determinism store-determinism recovery-determinism
	cargo test --release -p tamopt_engine
	cargo test --release -p tamopt_assign --test kernel_equivalence
	cargo test --release -p tamopt_partition --test determinism
	cargo test --release -p tamopt_service --test batch
	cargo build --release -p tamopt
	set -o pipefail; \
	for soc in d695 p31108; do \
	  ./target/release/tamopt --soc $$soc --width 32 --max-tams 6 --threads 1 \
	    | grep -v 'wall clock' > /tmp/$${soc}_t1.txt; \
	  ./target/release/tamopt --soc $$soc --width 32 --max-tams 6 --threads 4 \
	    | grep -v 'wall clock' > /tmp/$${soc}_t4.txt; \
	  diff /tmp/$${soc}_t1.txt /tmp/$${soc}_t4.txt || exit 1; \
	done
	set -o pipefail; \
	for t in 1 4; do \
	  ./target/release/tamopt --soc d695 --width 24 --max-tams 3 --strategy exhaustive \
	    --threads $$t | grep -v 'wall clock' > /tmp/d695_exhaustive_t$$t.txt || exit 1; \
	done; \
	diff /tmp/d695_exhaustive_t1.txt /tmp/d695_exhaustive_t4.txt
	set -o pipefail; \
	for manifest in batch kinds; do \
	  ./target/release/tamopt batch examples/$${manifest}.manifest --threads 1 \
	    | grep -v wall_clock > /tmp/$${manifest}_t1.json; \
	  ./target/release/tamopt batch examples/$${manifest}.manifest --threads 4 \
	    | grep -v wall_clock > /tmp/$${manifest}_t4.json; \
	  diff /tmp/$${manifest}_t1.json /tmp/$${manifest}_t4.json || exit 1; \
	done

# One byte-level diff of the `tamopt serve` stream (outcome lines +
# final report, minus wall_clock* lines) at threads 1 vs 4:
# $(call serve_diff,<name>,<flags>,<trace>) runs `tamopt serve <flags>
# --threads T < examples/<trace>.trace` into /tmp/<name>_tT.txt for
# T = 1, 4 and diffs the two. `$$t` in <flags> is the thread count.
define serve_diff
	set -o pipefail; \
	for t in 1 4; do \
	  ./target/release/tamopt serve $(2) --threads $$t < examples/$(3).trace \
	    | grep -v wall_clock > /tmp/$(1)_t$$t.txt || exit 1; \
	done; \
	diff /tmp/$(1)_t1.txt /tmp/$(1)_t4.txt
endef

# Live-daemon gate: the trace-replay suite, the proportional pool-split
# property, and the serve stream diff over the example traces —
# serve.trace for the classic point workload, kinds.trace for the mixed
# point/topk/frontier one.
serve-determinism:
	cargo test --release -p tamopt_service --test live
	cargo test --release -p tamopt_service --test kinds
	cargo test --release -p tamopt_service --test proptest_split
	cargo build --release -p tamopt
	$(call serve_diff,serve,,serve)
	$(call serve_diff,kinds,,kinds)

# Warm-store gate: the store crate suite (the file envelope shared with
# the journal, crash safety, and the committed fixtures under
# crates/store/tests/fixtures/: v1.tamstore for the upgrade path,
# v2.tamstore and v1.tamjrnl pinning the current store and journal
# layouts byte for byte), the service-level store suite
# (identical winners + strictly fewer completed evaluations, restart
# resume, replay-grid byte-identity against a pre-populated store), and
# an end-to-end CLI diff: populate a store once, then replay the trace
# at threads 1 vs 4 against byte copies of it (each run mutates its own
# copy at shutdown) — byte-identical streams within the warm condition.
store-determinism:
	cargo test --release -p tamopt_store
	cargo test --release -p tamopt_service --test store
	cargo build --release -p tamopt
	./target/release/tamopt serve --threads 1 --store /tmp/seed.tamstore \
	  < examples/serve.trace > /dev/null
	cp /tmp/seed.tamstore /tmp/warm_t1.tamstore
	cp /tmp/seed.tamstore /tmp/warm_t4.tamstore
	$(call serve_diff,serve_warm,--store /tmp/warm_t$$t.tamstore,serve)

# Crash-safety gate: the service-level recovery suite (journal redo
# over threads {1,2,8}, torn-tail recovery,
# deterministic overload shedding, the network in-flight quota), the
# end-to-end suite that SIGKILLs a real `--journal --store` daemon
# mid-workload and restarts it with `--break-locks` (accepted ⊆
# answered, winners byte-identical to an uninterrupted run, journal
# compacted back to its empty header), and a seeded slice of the chaos
# harness's kill-restart mode (which needs the release `tamopt` binary
# built first).
recovery-determinism:
	cargo test --release -p tamopt_service --test recovery
	cargo build --release -p tamopt
	cargo test --release -p tamopt --test recovery
	cargo run --release --example chaos -- --mode crash --seed 1 --scenarios 3

# --- CI job: lint -----------------------------------------------------------

lint:
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --all

clean:
	cargo clean
