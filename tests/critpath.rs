//! Cross-rank critical-path acceptance tests (DESIGN.md §16).
//!
//! A seeded 16-rank checkpoint run with one rank's compute slowed 4×
//! must be attributed correctly: the slowed rank is named the straggler
//! in every post-warmup epoch, the per-rank decomposition tiles each
//! epoch's wall time within 1%, and on unperturbed configurations the
//! trace-observed overlap efficiency lands within 10% of the Eq. 2
//! prediction. Jitter at any seed must never steal the straggler's
//! title.

use std::sync::Arc;

use apio::mpisim::{
    predicted_overlap_efficiency, run, straggler_report, trace_rank_streams, Job, RunConfig,
    Workload,
};
use apio::platform::summit;
use apio::platform::units::MIB;
use apio::trace::{critpath, export, Tracer, VirtualClock};

const RANKS: u32 = 16;
const EPOCHS: u32 = 5;
const SLOWED: u32 = 7;
const FACTOR: f64 = 4.0;

fn straggler_workload() -> Workload {
    Workload::checkpoint(RANKS, 32 * MIB, EPOCHS, 5.0).with_straggler(SLOWED, FACTOR)
}

/// Run `w` under `cfg` with the given executor, re-enact the per-rank
/// streams, and return the critical-path analysis.
fn analyze_with(
    exec: fn(&Job, &Workload, &RunConfig) -> apio::mpisim::RunResult,
    w: &Workload,
    cfg: &RunConfig,
) -> critpath::CritPathReport {
    let job = Job::new(summit(), w.ranks);
    let result = exec(&job, w, cfg);
    let clock = Arc::new(VirtualClock::new(0));
    let tracer = Tracer::with_clock(clock.clone());
    trace_rank_streams(0, &job, w, cfg, &result, &tracer, &clock);
    critpath::analyze_job(&tracer.sink(), 0)
}

#[test]
fn slowed_rank_is_named_by_both_executors() {
    let w = straggler_workload();
    for exec in [run as fn(&Job, &Workload, &RunConfig) -> apio::mpisim::RunResult] {
        for cfg in [RunConfig::async_io(), RunConfig::sync()] {
            let report = analyze_with(exec, &w, &cfg);
            assert_eq!(report.ranks, RANKS);
            assert_eq!(report.epochs.len(), EPOCHS as usize);
            // Warmup epoch 0 excluded: its wait/compute split can be
            // dominated by t_init placement, not by rank skew.
            for e in report.epochs.iter().filter(|e| e.epoch >= 1) {
                assert_eq!(
                    e.straggler, SLOWED,
                    "epoch {}: misattributed straggler",
                    e.epoch
                );
                assert!(e.skew_ratio() > 3.0, "4x skew must be visible");
            }
        }
    }
}

#[test]
fn attribution_tiles_every_epoch_wall_within_one_percent() {
    let w = straggler_workload();
    let report = analyze_with(run, &w, &RunConfig::async_io());
    for e in &report.epochs {
        let wall = e.wall_nanos();
        assert!(wall > 0);
        for slice in &e.ranks {
            let total =
                slice.compute_nanos + slice.write_nanos + slice.meta_nanos + slice.wait_nanos;
            let err = (total as f64 - wall as f64).abs() / wall as f64;
            assert!(
                err < 0.01,
                "epoch {} rank {}: decomposition off by {err}",
                e.epoch,
                slice.rank
            );
        }
    }
}

#[test]
fn jitter_never_steals_the_stragglers_title() {
    // Property: bounded jitter (< factor - 1 relative) at any seed must
    // not change which rank dominates the epoch. Four seeds, both
    // executors' shared compute model.
    for seed in [1u64, 7, 42, 12345] {
        let w = straggler_workload().with_jitter(0.5, seed);
        let report = analyze_with(run, &w, &RunConfig::async_io());
        for e in report.epochs.iter().filter(|e| e.epoch >= 1) {
            assert_eq!(
                e.straggler, SLOWED,
                "seed {seed} epoch {}: jitter stole the title",
                e.epoch
            );
        }
    }
}

#[test]
fn observed_efficiency_tracks_eq2_on_unperturbed_configs() {
    // Compute-dominated async checkpointing: Eq. 2 predicts full
    // overlap; the trace-side observation must agree within 10%.
    let job = Job::new(summit(), 96);
    let w = Workload::checkpoint(96, 32 * MIB, EPOCHS, 30.0);
    let cfg = RunConfig::async_io();
    let (report, _, _) = straggler_report(&job, &w, &cfg, 1);
    let predicted = predicted_overlap_efficiency(&job, &w, &cfg);
    assert_eq!(report.predicted_overlap_efficiency, predicted);
    assert!(
        (report.observed_overlap_efficiency - predicted).abs() <= 0.10 * predicted.max(1e-9),
        "observed {} vs predicted {predicted}",
        report.observed_overlap_efficiency
    );
}

#[test]
fn sync_runs_have_no_overlap_by_construction() {
    let job = Job::new(summit(), RANKS);
    let w = Workload::checkpoint(RANKS, 32 * MIB, 3, 5.0);
    let (report, _, _) = straggler_report(&job, &w, &RunConfig::sync(), 0);
    assert_eq!(report.predicted_overlap_efficiency, 0.0);
    assert_eq!(report.observed_overlap_efficiency, 0.0);
}

#[test]
fn rank_streams_export_to_distinct_chrome_rows() {
    let job = Job::new(summit(), RANKS);
    let w = straggler_workload();
    let (_, sink, _) = straggler_report(&job, &w, &RunConfig::async_io(), 1);
    let chrome = export::chrome_json(sink.records());
    // Every rank lands on its own viewer row under the job's pid; no
    // record falls back to the untagged pid 1.
    for rank in 0..RANKS {
        assert!(
            chrome.contains(&format!("\"pid\":2,\"tid\":{rank}")),
            "rank {rank} missing its viewer row"
        );
    }
    assert!(!chrome.contains("\"pid\":1,"), "untagged records leaked");
}
