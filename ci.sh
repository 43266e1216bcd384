#!/usr/bin/env bash
# The full correctness gate, exactly as CI runs it.
set -euo pipefail
cd "$(dirname "$0")"

# Pass --offline (the default here) or nothing, for environments with a
# registry mirror.
CARGO_FLAGS=(--offline)

echo "== build (release) =="
cargo build --release "${CARGO_FLAGS[@]}" --workspace

echo "== tests =="
# Includes apio-trace's `flight_panic` binary (the panic-hook dump
# smoke of the flight recorder) — it is not run again below.
cargo test -q "${CARGO_FLAGS[@]}" --workspace

echo "== end-to-end benchmark, as the pipeline builds it (stand-alone package) =="
# The workspace build above only proves `--bin e2e` of apio-bench. The
# pipeline builds crates/bench/src/bin/e2e as a package of its own (own
# lock file, own lints) against these crates, so a change to a trait or
# type the benchmark uses has to be caught through that manifest.
E2E_MANIFEST=crates/bench/src/bin/e2e/Cargo.toml
CARGO_TARGET_DIR="$PWD/target/e2e-package" \
    cargo build --release "${CARGO_FLAGS[@]}" --manifest-path "$E2E_MANIFEST"
E2E_BIN="$PWD/target/e2e-package/release/e2e"
# The verifier must still reject a wrong stamp and a snapshot-less
# connector, and every workload must run and verify at smoke size.
"$E2E_BIN" --selftest
"$E2E_BIN" --smoke >/dev/null
# The package resolves the workspace crates through its own committed
# lock file, inside the directory a perf PR may not touch: a new crate or
# a new dependency edge among them makes cargo rewrite it. Fail here,
# not at measurement time.
git diff --exit-code -- crates/bench/src/bin/e2e/Cargo.lock

echo "== static analysis gate =="
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- lint
# The machine-readable report must round-trip through the in-tree JSON
# parser — downstream tooling consumes it verbatim.
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- lint --json \
    | cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- json-check
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- check-deps

echo "== runtime invariants (lock-order + task-DAG detectors) and schedule exploration =="
# All of argolite under the feature, once: its unit tests with the
# lock-order recorder on, and `tests/explore.rs` (seeded
# writer/reader/flush interleavings) at 64 schedules.
APIO_EXPLORE_SEEDS=64 cargo test -q "${CARGO_FLAGS[@]}" -p argolite --features debug-invariants
cargo test -q "${CARGO_FLAGS[@]}" -p asyncvol --features debug-invariants

echo "== root suites, once: lock-order recorder on, 64 explorer seeds =="
# Every test binary of the root package (14 in tests/, the lib's unit
# tests, the doc tests) under debug-invariants, with the seeded sweeps
# of ring, one_copy, sieve and consistency at 64 schedules:
#   ring              backpressure, ordering, fault plumbing; the explore
#                     sweep and the lock-order assertion need the feature
#   ring_lockfree     submit/complete takes zero argolite::sync locks,
#                     reaper threads included
#   ring_issue_locks  what a connector ring write locks on the issuer
#   one_copy          buffer ownership, recycling, stale bytes; seeded
#                     take/give schedule sweep
#   sieve             per-run equivalence, gate, faults, stale bytes, op
#                     counts; seeded write/flush/read orders with h5lite's
#                     named locks forwarded into the recorder
#   flush_lanes       read-back fan-out wall time against a 4- and a
#                     1-channel throttle; lane threads and the data
#                     barrier's thread hold no named lock
#   chaos, properties fault injection and resilience properties, incl.
#                     the row-plan/run-plan equivalence
#   consistency       Strong/Session/Commit visibility under explored
#                     interleavings (floor ⊆ observed ⊆ completed) plus
#                     scripted replays proving the models distinct
#   crashpoint        a cut after every backend mutation of a chaos
#                     workload, reopen, recover, no acked write lost;
#                     clean and torn cuts at all five mutations of a
#                     fan-out flush; bit-flip detection and WAL read-repair
#   trace_pipeline    span structure of the async epoch
#   critpath          straggler attribution as arithmetic on RunResult:
#                     exact tiling, Eq. 2 overlap, values pinned per config
#   telemetry         drift alarm -> refit -> advice flip, from report JSON
#   end_to_end        write/read pipelines, observer feeding the model
APIO_EXPLORE_SEEDS=64 cargo test -q "${CARGO_FLAGS[@]}" --features debug-invariants

echo "== h5lite in release (overflow, dataspace, read-back lanes) =="
# The debug run of all of h5lite is in `--workspace` above: XXH64 known
# answers, the container written at f78ece6 with FNV sums, the
# O(extents) record/span counts. These rerun in release because
# unchecked arithmetic panics in debug and wraps in release, so one
# profile alone would pass a half fix: the selection-overflow
# regressions, and the lanes' windows and job shares (`lane` selects the
# container's read-back and data-barrier tests and `tests/flush_lanes.rs`:
# the lanes' wall time, the barrier's overlap with them timed against a
# `sync` that costs one read-back, the op sequence either side of the
# floor; `flush_hashes` the windowed long extent).
cargo test -q "${CARGO_FLAGS[@]}" --release -p h5lite dataspace
cargo test -q "${CARGO_FLAGS[@]}" --release -p h5lite overflow
cargo test -q "${CARGO_FLAGS[@]}" --release -p h5lite lane
cargo test -q "${CARGO_FLAGS[@]}" --release -p h5lite flush_hashes

echo "== operator report smoke (drift demo must flip the advice) =="
report_json="$(cargo run -q "${CARGO_FLAGS[@]}" -p apio-apps --bin apio-report -- --json)"
echo "$report_json" | grep -q '"schema":"apio-report-v1"' \
    || { echo "apio-report: bad or missing JSON schema"; exit 1; }
echo "$report_json" | grep -q '"label":"pre-drift (fast device)","decision":"sync"' \
    || { echo "apio-report: pre-drift advice is not sync"; exit 1; }
echo "$report_json" | grep -q '"label":"post-drift (refit on degraded device)","decision":"async"' \
    || { echo "apio-report: post-drift advice did not flip to async"; exit 1; }
# The seeded 16-rank straggler demo (rank 7 slowed 4x) must attribute
# every post-warmup epoch to rank 7.
echo "$report_json" | grep -q '"stragglers"' \
    || { echo "apio-report: straggler section missing"; exit 1; }
echo "$report_json" | grep -q '"straggler_rank":7' \
    || { echo "apio-report: slowed rank 7 not named as straggler"; exit 1; }

echo "== one workload on both engines (real kernels, then the simulator) =="
cargo run -q "${CARGO_FLAGS[@]}" --release --example vpic_checkpoint

echo "== bench smoke (one iteration per benchmark) =="
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench connector -- --smoke \
    --trace-out "$PWD/target/trace_smoke.json"
test -s target/trace_smoke.json || { echo "trace smoke export missing"; exit 1; }
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench micro -- --smoke
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench multitenant -- --smoke

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
else
    echo "clippy unavailable; skipped"
fi

echo "ci: all gates passed"
