//! Cross-rank straggler attribution acceptance tests (DESIGN.md §16).
//!
//! A seeded 16-rank checkpoint run with one rank's compute slowed 4×
//! must be attributed correctly: the slowed rank is named the straggler
//! in every post-warmup epoch, the attribution tiles each epoch's wall
//! time exactly, and on unperturbed configurations the observed overlap
//! efficiency lands within 10% of the Eq. 2 prediction. Jitter at any
//! seed must never steal the straggler's title.

use apio::model::StragglerReport;
use apio::mpisim::workload::StagingTier;
use apio::mpisim::{predicted_overlap_efficiency, run, straggler_report, Job, RunConfig, Workload};
use apio::platform::summit;
use apio::platform::units::MIB;

const RANKS: u32 = 16;
const EPOCHS: u32 = 5;
const SLOWED: u32 = 7;
const FACTOR: f64 = 4.0;

fn straggler_workload() -> Workload {
    Workload::checkpoint(RANKS, 32 * MIB, EPOCHS, 5.0).with_straggler(SLOWED, FACTOR)
}

/// Run `w` under `cfg` and attribute every epoch from `warmup` on.
fn report(w: &Workload, cfg: &RunConfig, warmup: u32) -> StragglerReport {
    let job = Job::new(summit(), w.ranks);
    straggler_report(&job, w, cfg, &run(&job, w, cfg), warmup)
}

#[test]
fn slowed_rank_is_named_by_both_executors() {
    let w = straggler_workload();
    for cfg in [RunConfig::async_io(), RunConfig::sync()] {
        let report = report(&w, &cfg, 0);
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

#[test]
fn attribution_tiles_every_epoch_wall_exactly() {
    let w = straggler_workload();
    for cfg in [RunConfig::async_io(), RunConfig::sync()] {
        for e in &report(&w, &cfg, 0).epochs {
            assert!(e.wall_nanos > 0);
            assert_eq!(
                e.compute_nanos + e.write_nanos + e.meta_nanos + e.wait_nanos,
                e.wall_nanos,
                "epoch {}: decomposition does not tile the wall",
                e.epoch
            );
        }
    }
}

#[test]
fn jitter_never_steals_the_stragglers_title() {
    // Property: bounded jitter (< factor - 1 relative) at any seed must
    // not change which rank dominates the epoch.
    for seed in [1u64, 7, 42, 12345] {
        let w = straggler_workload().with_jitter(0.5, seed);
        for e in report(&w, &RunConfig::async_io(), 1).epochs {
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
    // overlap; the observation must agree within 10%.
    let job = Job::new(summit(), 96);
    let w = Workload::checkpoint(96, 32 * MIB, EPOCHS, 30.0);
    let cfg = RunConfig::async_io();
    let report = report(&w, &cfg, 1);
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
    let w = Workload::checkpoint(RANKS, 32 * MIB, 3, 5.0);
    let report = report(&w, &RunConfig::sync(), 0);
    assert_eq!(report.predicted_overlap_efficiency, 0.0);
    assert_eq!(report.observed_overlap_efficiency, 0.0);
}

/// One epoch row: `[epoch, straggler, wall, compute, write, meta, wait,
/// skew p50, skew p99]`.
type Row = [u64; 9];

/// Four post-warmup epochs of a run whose epochs all attribute alike.
fn steady(row: [u64; 8]) -> Vec<Row> {
    (1..=4)
        .map(|e| {
            let mut r = [e; 9];
            r[1..].copy_from_slice(&row);
            r
        })
        .collect()
}

#[test]
#[rustfmt::skip]
fn reports_match_the_span_replay_they_replace() {
    // Captured from the span re-enactor and critical-path engine this
    // arithmetic replaced, on five configs that between them exercise
    // buffer waits, metadata, NVMe staging, the read path, and jitter.
    let short = |w: Workload| Workload { compute_secs: 0.01, ..w };
    let cases = [
        (
            "demo",
            straggler_workload(),
            RunConfig::async_io(),
            1.0,
            1.0,
            steady([7, 20020673980, 20000000000, 20673980, 0, 0, 5020673980, 20020673980]),
        ),
        (
            "sync",
            straggler_workload(),
            RunConfig::sync(),
            0.0,
            0.0,
            steady([
                7, 20079323990, 20000000000, 67323990, 12000000, 0, 5079323990, 20079323990,
            ]),
        ),
        (
            "nvme",
            short(straggler_workload()),
            RunConfig::async_io()
                .with_staging(StagingTier::Nvme)
                .with_buffer_depth(1),
            0.10236290213266103,
            0.08620033861384578,
            steady([7, 212458630, 40000000, 96449805, 0, 76008825, 106449805, 136449805]),
        ),
        (
            "read",
            Workload::analysis(RANKS, 32 * MIB, EPOCHS, 0.01).with_straggler(SLOWED, FACTOR),
            RunConfig::async_io(),
            0.21753228335063082,
            0.12606526707035776,
            [
                [1, 7, 99997970, 40000000, 20673980, 0, 39323990, 30673980, 60673980],
                [2, 7, 79323990, 40000000, 20673980, 0, 18650010, 30673980, 60673980],
                [3, 7, 79323990, 40000000, 20673980, 0, 18650010, 30673980, 60673980],
                [4, 7, 79323990, 40000000, 20673980, 0, 18650010, 30673980, 60673980],
            ]
            .to_vec(),
        ),
        (
            "jitter",
            straggler_workload().with_jitter(0.5, 42),
            RunConfig::async_io(),
            1.0,
            1.0,
            [
                [1, 7, 28108971190, 28088297210, 20673980, 0, 0, 6342271460, 28108971190],
                [2, 7, 20442574830, 20421900850, 20673980, 0, 0, 5967789423, 20442574830],
                [3, 7, 27726401633, 27705727653, 20673980, 0, 0, 5965409389, 27726401633],
                [4, 7, 26751196858, 26730522878, 20673980, 0, 0, 5952919628, 26751196858],
            ]
            .to_vec(),
        ),
    ];
    for (name, w, cfg, observed, predicted, rows) in cases {
        let r = report(&w, &cfg, 1);
        assert_eq!((r.ranks, r.warmup_epochs), (RANKS, 1), "{name}");
        assert!((r.observed_overlap_efficiency - observed).abs() < 1e-12, "{name}: {r:?}");
        assert!((r.predicted_overlap_efficiency - predicted).abs() < 1e-12, "{name}: {r:?}");
        let got: Vec<Row> = r
            .epochs
            .iter()
            .map(|e| {
                [
                    e.epoch,
                    u64::from(e.straggler),
                    e.wall_nanos,
                    e.compute_nanos,
                    e.write_nanos,
                    e.meta_nanos,
                    e.wait_nanos,
                    e.skew_p50_nanos,
                    e.skew_p99_nanos,
                ]
            })
            .collect();
        assert_eq!(got, rows, "{name}");
    }
}
