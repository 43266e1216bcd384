//! `apio-report`: live telemetry demo + operator report (DESIGN.md §11).
//!
//! Drives real writes through the async VOL connector against a
//! bandwidth-throttled in-memory device, steps the device bandwidth down
//! 50x mid-run — the §V-C regime change peak-rate fitting is blind to —
//! and lets the drift loop fire, truncate the stale history, and refit
//! the advisor. The outcome is rendered as the operator text dashboard
//! plus the machine-readable JSON snapshot (`apio-report-v1`), with the
//! flight-recorder dump available on the side.
//!
//! Alongside the drift demo, a seeded 16-rank simulated run with rank 7
//! slowed 4× feeds the straggler attribution (DESIGN.md §16), which lands
//! in the report's straggler section.
//!
//! ```text
//! apio-report [--json] [--flight-dump=PATH]
//! ```
//!
//! `--json` prints only the JSON snapshot; `--flight-dump=PATH` writes
//! the flight recorder's retained records as JSONL to `PATH`.

use std::sync::Arc;
use std::time::Instant;

use apio_core::history::{Direction, IoMode, TransferRecord};
use apio_core::{AdaptiveRuntime, DriftAlarm, IntegritySummary, ReportBuilder};
use apio_trace::{export, Tracer};
use asyncvol::{AsyncVol, BreakerState};
use h5lite::container::ROOT_ID;
use h5lite::{
    Container, Dataspace, Datatype, Hyperslab, Layout, MemBackend, Selection, ThrottledBackend,
    Vol,
};

/// Device bandwidth before the mid-run step, bytes/s.
const FAST_BW: f64 = 4e8;
/// Device bandwidth after the step: a 50x degradation.
const SLOW_BW: f64 = 8e6;
/// Synthetic snapshot-copy rate fed as the async overhead evidence:
/// slower than the fast device's *effective* rate (sync wins by a clear
/// margin) but far faster than the degraded one (async wins), so a
/// correct refit flips the advice.
const SNAPSHOT_RATE: f64 = 5e7;
/// Synthetic compute phase per epoch, seconds (observed, not slept).
const COMPUTE_SECS: f64 = 0.05;
/// Epochs on the fast device (past the detector's warmup).
const FAST_EPOCHS: usize = 9;
/// Epoch cap on the degraded device (the alarm fires much earlier).
const SLOW_EPOCH_CAP: usize = 12;

/// Rank counts cycled per epoch so the rate models always have the
/// three distinct (ranks, size) points a fit with intercept requires.
const RANK_CYCLE: [u32; 3] = [4, 8, 16];
/// Bytes written per emulated rank each epoch.
const PER_RANK_BYTES: u64 = 64 * 1024;

fn breaker_tag(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// Epoch `i`: a real (throttled) collective-style write through the
/// connector, measured wall-clock, streamed into the feedback loop.
fn run_epoch(
    rt: &mut AdaptiveRuntime,
    vol: &AsyncVol,
    c: &Arc<Container>,
    ds: h5lite::ObjectId,
    i: usize,
) -> Option<DriftAlarm> {
    let ranks = RANK_CYCLE[i % 3];
    let bytes = ranks as u64 * PER_RANK_BYTES;
    let elems = bytes / 4;
    let data = vec![0x3Fu8; bytes as usize];
    let sel = Selection::Slab(Hyperslab::range1(0, elems));

    let t0 = Instant::now();
    let write = vol
        .dataset_write(c, ds, &sel, &data)
        .and_then(|req| vol.wait(req));
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = write {
        eprintln!("apio-report: epoch {i} write failed: {e}");
        return None;
    }

    let bytes = bytes as f64;
    let write = |mode, secs| TransferRecord::from_time(bytes, ranks, mode, Direction::Write, secs);
    rt.observe_compute(COMPUTE_SECS);
    rt.observe(write(IoMode::Sync, secs));
    rt.observe(write(IoMode::Async, bytes / SNAPSHOT_RATE));
    rt.end_epoch()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_only = args.iter().any(|a| a == "--json");
    let dump_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--flight-dump="))
        .map(std::path::PathBuf::from);
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--json" && !a.starts_with("--flight-dump="))
    {
        eprintln!("apio-report: unknown argument {bad}");
        eprintln!("usage: apio-report [--json] [--flight-dump=PATH]");
        std::process::exit(2);
    }

    // Black-box telemetry: the flight recorder stays on for the whole
    // run; full tracing is never enabled.
    let tracer = Tracer::flight(1024);
    let throttled = Arc::new(ThrottledBackend::new(
        Box::new(MemBackend::new()),
        FAST_BW,
        0.0,
    ));
    let c = Arc::new(Container::create(throttled.clone()));
    let max_elems = RANK_CYCLE[2] as u64 * PER_RANK_BYTES / 4;
    let ds = c
        .create_dataset(
            ROOT_ID,
            "telemetry",
            Datatype::F32,
            &Dataspace::d1(max_elems),
            Layout::Contiguous,
        )
        .expect("create dataset");
    let vol = AsyncVol::builder()
        .streams(1)
        .stage_to_device(Arc::new(MemBackend::new()))
        .tracer(tracer.clone())
        .build();

    // Warm the write path (chunk allocation, WAL, thread spin-up) so the
    // measured epochs see steady-state rates, not the cold-start ramp.
    for ranks in RANK_CYCLE {
        let elems = ranks as u64 * PER_RANK_BYTES / 4;
        let sel = Selection::Slab(Hyperslab::range1(0, elems));
        let data = vec![0u8; (elems * 4) as usize];
        let warm = vol
            .dataset_write(&c, ds, &sel, &data)
            .and_then(|req| vol.wait(req));
        warm.expect("warmup write");
    }

    let mut rt = AdaptiveRuntime::new();
    let mut epochs = 0..;
    for i in epochs.by_ref().take(FAST_EPOCHS) {
        run_epoch(&mut rt, &vol, &c, ds, i);
    }
    let probe_bytes = RANK_CYCLE[2] as f64 * PER_RANK_BYTES as f64;
    let before = rt.advise(Direction::Write, probe_bytes, RANK_CYCLE[2]);

    // The regime change: the device degrades 50x mid-run.
    throttled.set_bandwidth(SLOW_BW);
    let mut alarm_at = None;
    for (k, i) in epochs.by_ref().take(SLOW_EPOCH_CAP).enumerate() {
        if run_epoch(&mut rt, &vol, &c, ds, i).is_some() {
            alarm_at = Some(k);
            break;
        }
    }
    // Post-drift evidence for the refit: enough epochs to cover every
    // (ranks, size) configuration again.
    for i in epochs.take(3) {
        run_epoch(&mut rt, &vol, &c, ds, i);
    }
    let after = rt.advise(Direction::Write, probe_bytes, RANK_CYCLE[2]);
    vol.wait_all().expect("drain");

    // End-to-end integrity pass: flush checksums the written extents, a
    // verified read exercises the read path, and the scrub re-hashes
    // every extent at rest — all of it lands in the report's integrity
    // section.
    c.flush().expect("flush");
    let verify_sel = Selection::Slab(Hyperslab::range1(0, 16));
    c.read_selection(ds, &verify_sel).expect("verified read");
    let scrub = c.scrub().expect("scrub");
    let istats = c.integrity_stats();

    let sink = tracer.sink();
    if let Some(path) = &dump_path {
        std::fs::write(path, export::jsonl(sink.records())).expect("write flight dump");
    }

    // The cross-rank attribution demo: a seeded 16-rank checkpoint run
    // with rank 7's compute slowed 4x, attributed rank by rank.
    let straggler_job = mpisim::Job::new(platform::summit(), 16);
    let straggler_w = mpisim::Workload::checkpoint(16, 32 * platform::units::MIB, 5, 5.0)
        .with_straggler(7, 4.0);
    let straggler_cfg = mpisim::RunConfig::async_io();
    let stragglers = mpisim::straggler_report(
        &straggler_job,
        &straggler_w,
        &straggler_cfg,
        &mpisim::run(&straggler_job, &straggler_w, &straggler_cfg),
        1,
    );

    let mut report = ReportBuilder::new("apio live telemetry")
        .metrics(vol.metrics())
        .breaker(breaker_tag(vol.breaker_state()), vol.stats().degraded)
        .drift(&rt)
        .integrity(IntegritySummary {
            verified_extents: istats.verified_extents,
            checksum_failures: istats.checksum_failures,
            scrub_corrupt: scrub.corrupt,
            scrub_repaired: scrub.repaired,
            superblock_fallbacks: istats.superblock_fallbacks,
            crash_points: 0,
            crash_failures: 0,
        })
        .trace(&sink)
        .stragglers(stragglers);
    if let Ok(a) = before {
        report = report.advice("pre-drift (fast device)", a);
    }
    if let Ok(a) = after {
        report = report.advice("post-drift (refit on degraded device)", a);
    }

    if json_only {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
        match alarm_at {
            Some(i) => println!(
                "drift: alarm fired {} epoch(s) after the 50x bandwidth step; \
                 advisor refitted from post-drift history only",
                i + 1
            ),
            None => println!("drift: no alarm fired (unexpected for a 50x step)"),
        }
        if let Some(path) = &dump_path {
            println!("flight dump written to {}", path.display());
        }
    }
}
