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
# One checker per invariant. clippy holds what a compiler table can
# express: no wall clock in desim/mpisim/platform and no raw std::sync
# lock in argolite/asyncvol, whose locks are h5lite::sync's (each
# crate's clippy.toml), no panics in h5lite/asyncvol/apio-core library
# code and no `let _ =` / statement `.ok();` discarding a Result in
# h5lite/asyncvol (their lib.rs `deny`s), no dbg!/todo!/unimplemented!
# anywhere ([workspace.lints.clippy]). So it is required, not optional.
# xtask lint holds the project-specific rest.
cargo clippy --version >/dev/null 2>&1 \
    || { echo "clippy is required (rustup component add clippy)"; exit 1; }
cargo clippy -q "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- lint
# The machine-readable report must round-trip through the in-tree JSON
# parser — downstream tooling consumes it verbatim.
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- lint --json \
    | cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- json-check
cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- check-deps

echo "== runtime invariants (lock-order detector) and schedule exploration =="
# All of argolite under the feature, once (without it the crate is
# empty): the recorder's unit tests on named h5lite::sync locks, and
# `tests/explore.rs` (seeded writer/reader/flush interleavings) at 64
# schedules. Then asyncvol's, whose named locks reach the recorder
# through one helper, with or without an AsyncVol.
APIO_EXPLORE_SEEDS=64 cargo test -q "${CARGO_FLAGS[@]}" -p argolite --features debug-invariants
cargo test -q "${CARGO_FLAGS[@]}" -p asyncvol --features debug-invariants

echo "== root suites, once: lock-order recorder on, 64 explorer seeds =="
# Every test binary of the root package (16 in tests/, the lib's unit
# tests, the doc tests) under debug-invariants, with the seeded sweeps
# of ring, one_copy, sieve and consistency at 64 schedules:
#   ring              a full ring blocking its submitters, the
#                     connector's ring path and its fault retries on the
#                     reaper, the transport-parity
#                     table (a write settles where it lands, whether raw
#                     segments on the attached ring or on the one the
#                     connector builds, or a WAL-staged job; two
#                     containers on the connector's one ring, each entry
#                     naming its device, keep
#                     their own bytes, prefetch slots and order; on four
#                     channels the later of two same-byte writes lands and
#                     a failed write call is retried or fails the write), writes
#                     queued on the built ring coalescing, a sieving
#                     write's device calls alike on both rings, and a
#                     closed container outliving its held writes, 16
#                     prefetches queued behind a held write holding no
#                     clone of the ring's backend (its Arc count), and
#                     a prefetch read that failed without a panic
#                     reported to the read that takes its slot, not by
#                     wait_all; the
#                     explore sweep needs the feature (per-key order,
#                     shutdown and a completion's verdict are
#                     h5lite::ring's unit tests, run above)
#   differential      seeded write/prefetch/read/wait_all scripts over two
#                     containers on one connector, {attached ring, own
#                     ring} x {DRAM, WAL}, against NativeVol
#   ring_lockfree     submit/complete takes zero named h5lite::sync
#                     locks, reaper threads included
#   ring_threads      16 open containers on a connector of 2 streams add
#                     at most 2 threads: one ring, not one per container;
#                     and the same dataset id of two containers keys two
#                     shards, so both devices hold a write at once
#   ring_issue_locks  what a connector ring write locks on the issuer
#                     (3 named locks), on the reaper (1) and in wait_all (1)
#   one_copy          buffer ownership, recycling, stale bytes; seeded
#                     take/give schedule sweep
#   sieve             per-run equivalence, gate, faults, stale bytes, op
#                     counts; seeded write/flush/read orders with h5lite's
#                     named locks forwarded into the recorder
#   flush_lanes       a flush's read-back and a verified read on the
#                     calling thread alone, and the data barrier's
#                     thread, take no named lock off that thread
#   chaos, properties fault injection and resilience properties, incl.
#                     the row-plan/run-plan equivalence; properties also
#                     holds mpisim::run to the pipeline's closed form
#                     (Eq. 2c, apio-core::epoch) on every field of every
#                     phase, and a collective phase to its
#                     processor-sharing flows on desim's engine
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
#   end_to_end        write/read pipelines, a real run fed to the model
APIO_EXPLORE_SEEDS=64 cargo test -q "${CARGO_FLAGS[@]}" --features debug-invariants

echo "== h5lite and asyncvol in release (overflow, dataspace, read-back windows, verified reads, promise wake-ups, decodes, cold reads) =="
# The debug run of all of h5lite is in `--workspace` above: XXH64 known
# answers, the container written at f78ece6 with FNV sums, the
# O(extents) record/span counts. These rerun in release because
# unchecked arithmetic panics in debug and wraps in release, so one
# profile alone would pass a half fix: the selection-overflow
# regressions; the read-back's windows (`window`: the container's
# window stamps, sums and failures, the long extent, calls of at most
# 1024 segments for 2500 chunks, and
# `crates/h5lite/tests/flush_lanes.rs`' barrier arriving while a window
# read is held by count and the read-back's wall time against a 4- and a
# 1-channel throttle, compiled only here, in release); the data barrier
# (`barrier`: a failed or panicking barrier, the op sequence either side
# of the 4 MiB floor, and its overlap with the read-back timed against a
# `sync` that costs one read-back, compiled only here); the read-back
# whole (`read_back`: a panicking read-back unwinding with every extent
# still dirty, scrub's one read-back and its repair, and the
# windows' wall time again); the read calls
# by count (`read_call`: sixteen 2 MiB extents flushed in four calls on
# the flushing thread, a 512 KiB verified read in one on the caller); the
# verified read (`verified`: its covering ranges in one call, whose
# offset arithmetic runs unchecked in release, a 512 KiB one spawning no
# thread, and a failed read serving nothing); `crates/h5lite/tests/write_lanes.rs` (`lane`: a 512 KiB ring
# pass and native `write_slab` on four channels are one write call on
# the writing thread, by count; a 512 KiB write costs at most 1.2 × a
# 128 KiB one, timed, compiled only here, in release; a one-channel
# device's exact calls); `flush_hashes` the windowed long extent;
# `block` the block sums: the hasher's boundaries, the tag-3 codec and
# its count check at open, a flip in any block naming that block, and
# the covering-block ranges of a verified read; `kernel` the strided
# copy kernels against their piece-by-piece reference, whose const-width
# loops compile differently with optimisation on; `promise` the one-shot
# slot's sleeper count: seeded waiter/fulfil races and two sleeping
# takers, each under a deadline, since a skipped wake-up hangs and shows
# more readily at release speed; `decode` the slice decoders, whose
# const-width loops compile differently with optimisation on:
# `decode_into` against `decode_slice` for all ten types, NaN payloads
# included, and `crates/h5lite/tests/decode_faults.rs`, decoding into
# written elements taking almost no page faults). Then asyncvol's
# `cold_read`: `crates/asyncvol/tests/cold_read.rs`, a cold read
# decoding into the elements an idle ring made while its device read was
# held, skipping a held prefetch of another selection, and not waiting
# on a busy ring, each under a deadline. A filter that matches nothing
# would pass, so a renamed test would drop out of the release run
# unseen: each filter must list at least one test of its package.
release_rerun() {
    local package="$1" filter="$2" listed
    listed="$(cargo test -q "${CARGO_FLAGS[@]}" --release -p "$package" "$filter" -- --list \
        | grep -c ': test$' || true)"
    if [ "$listed" -eq 0 ]; then
        echo "release rerun: filter '$filter' matches no $package test"
        exit 1
    fi
    echo "release rerun: $package '$filter' selects $listed test(s)"
    cargo test -q "${CARGO_FLAGS[@]}" --release -p "$package" "$filter"
}
for filter in dataspace overflow window barrier read_back read_call verified lane flush_hashes block kernel promise decode; do
    release_rerun h5lite "$filter"
done
release_rerun asyncvol cold_read

echo "== operator report smoke (drift demo must flip the advice) =="
report_json="$(cargo run -q "${CARGO_FLAGS[@]}" -p apio-apps --bin apio-report -- --json)"
echo "$report_json" | cargo run -q "${CARGO_FLAGS[@]}" -p xtask -- json-check
echo "$report_json" | grep -q '"schema":"apio-report-v1"' \
    || { echo "apio-report: bad or missing JSON schema"; exit 1; }
# The histograms section is computed from the flight recorder's retained
# span records: the connector's writes must be there, counted, and the
# 1024/shard ring must have kept the whole demo.
echo "$report_json" | grep -Eq '"histograms":\[[^]]*"name":"vol\.write","count":[1-9]' \
    || { echo "apio-report: no vol.write row with spans in histograms"; exit 1; }
echo "$report_json" | grep -q '"dropped":0' \
    || { echo "apio-report: the flight ring dropped records"; exit 1; }
# The flip must come from the alarm: one downward drift, one refit.
echo "$report_json" | grep -q '"direction":"down"' \
    || { echo "apio-report: no downward drift alarm"; exit 1; }
echo "$report_json" | grep -q '"refits":1' \
    || { echo "apio-report: drift alarm did not refit exactly once"; exit 1; }
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

# One `Workload` through `kernels::run_real` (sync, then async on the
# one-shard ring `make_file` builds, then the read direction with
# prefetch), then the same workload through the simulator at paper scale.
echo "== one workload on both engines (real kernels, then the simulator) =="
cargo run -q "${CARGO_FLAGS[@]}" --release --example vpic_checkpoint

echo "== the Fig. 2 loop fed from simulated runs =="
cargo run -q "${CARGO_FLAGS[@]}" --release --example adaptive

echo "== bench smoke (one iteration per benchmark) =="
# connector: visible_write_sync, visible_write_async, visible_read (cold
# read vs prefetch hit), epoch, chaos, ioplan_micro, strided_vpic, and
# the traced epoch's Chrome export.
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench connector -- --smoke \
    --trace-out "$PWD/target/trace_smoke.json"
test -s target/trace_smoke.json || { echo "trace smoke export missing"; exit 1; }
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench micro -- --smoke
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench multitenant -- --smoke
# model: fit designs, fit cost by history size, one advise on a warm loop.
cargo bench -q "${CARGO_FLAGS[@]}" -p apio-bench --bench model -- --smoke

echo "ci: all gates passed"
