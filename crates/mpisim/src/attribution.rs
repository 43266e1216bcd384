//! Cross-rank straggler attribution: run a workload, emit its per-rank
//! span streams, and fold the critical-path analysis into the operator
//! report's [`StragglerReport`] section (DESIGN.md §16).
//!
//! This is the end-to-end path the acceptance scenario exercises: a
//! seeded 16-rank run with one rank slowed 4× must name that rank as the
//! per-epoch straggler in `apio-report --json`, with the per-rank
//! decomposition tiling each epoch's wall time and the observed overlap
//! efficiency matching the Eq. 2 prediction on unperturbed configs.

use std::sync::Arc;

use apio_core::history::IoMode;
use apio_core::report::{StragglerEpoch, StragglerReport};
use apio_trace::{critpath, TraceSink, Tracer, VirtualClock};

use crate::comm::Job;
use crate::runner::{run, trace_rank_streams};
use crate::workload::{RunConfig, RunResult, StagingTier, Workload};

/// Eq. 2's predicted overlap efficiency for this workload: of the
/// background I/O time `t_io`, the fraction `min(t_io, t_comp) / t_io`
/// can hide under the next epoch's compute. Synchronous runs overlap
/// nothing by construction.
pub fn predicted_overlap_efficiency(job: &Job, w: &Workload, cfg: &RunConfig) -> f64 {
    if cfg.mode == IoMode::Sync {
        return 0.0;
    }
    let bg_extra = match cfg.staging {
        StagingTier::Dram => 0.0,
        StagingTier::Nvme => job.staging_readback_time(w.per_rank_bytes),
    };
    let t_io = bg_extra + job.collective_io_time(w.per_rank_bytes, w.direction, cfg.contention);
    if t_io <= 0.0 {
        return 0.0;
    }
    w.compute_secs.min(t_io) / t_io
}

/// The full attribution pipeline for one run: execute `w` under `cfg`,
/// re-enact the per-rank streams on a fresh virtual clock, run the
/// critical-path analysis, and keep the epochs at and after `warmup`.
///
/// Returns the report section, the analysis' trace (for a Chrome/JSONL
/// export of the per-rank view), and the run result itself.
pub fn straggler_report(
    job: &Job,
    w: &Workload,
    cfg: &RunConfig,
    warmup: u32,
) -> (StragglerReport, TraceSink, RunResult) {
    let result = run(job, w, cfg);
    let clock = Arc::new(VirtualClock::new(0));
    let tracer = Tracer::with_clock(clock.clone());
    trace_rank_streams(0, job, w, cfg, &result, &tracer, &clock);
    let sink = tracer.sink();
    let analysis = critpath::analyze_job(&sink, 0);

    let epochs = analysis
        .epochs
        .iter()
        .filter(|e| e.epoch >= u64::from(warmup))
        .map(|e| {
            let slice = e
                .rank_slice(e.straggler)
                .copied()
                .unwrap_or_default();
            StragglerEpoch {
                epoch: e.epoch,
                straggler: e.straggler,
                wall_nanos: e.wall_nanos(),
                compute_nanos: slice.compute_nanos,
                write_nanos: slice.write_nanos,
                meta_nanos: slice.meta_nanos,
                wait_nanos: slice.wait_nanos,
                skew_p50_nanos: e.skew_p50_nanos,
                skew_p99_nanos: e.skew_p99_nanos,
            }
        })
        .collect();

    let report = StragglerReport {
        ranks: analysis.ranks,
        warmup_epochs: warmup,
        epochs,
        observed_overlap_efficiency: analysis.observed_overlap_efficiency,
        predicted_overlap_efficiency: predicted_overlap_efficiency(job, w, cfg),
    };
    (report, sink, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::summit;
    use platform::units::MIB;

    #[test]
    fn slowed_rank_is_named_every_post_warmup_epoch() {
        let job = Job::new(summit(), 16);
        let w = Workload::checkpoint(16, 32 * MIB, 5, 5.0).with_straggler(7, 4.0);
        let (report, _, _) = straggler_report(&job, &w, &RunConfig::async_io(), 1);
        assert_eq!(report.ranks, 16);
        assert_eq!(report.epochs.len(), 4, "warmup epoch excluded");
        for e in &report.epochs {
            assert!(e.epoch >= 1);
            assert_eq!(e.straggler, 7, "epoch {}: straggler misattributed", e.epoch);
            assert!(e.skew_ratio() > 3.0, "4x compute skew must show up");
            let attributed = e.compute_nanos + e.write_nanos + e.meta_nanos + e.wait_nanos;
            let err = (attributed as f64 - e.wall_nanos as f64).abs() / e.wall_nanos as f64;
            assert!(err < 0.01, "attribution must tile the wall: {err}");
        }
    }

    #[test]
    fn unperturbed_async_efficiency_matches_eq2_within_10pct() {
        // Compute-dominated: Eq. 2 predicts full overlap; the trace-side
        // measurement must agree within the acceptance tolerance.
        let job = Job::new(summit(), 96);
        let w = Workload::checkpoint(96, 32 * MIB, 5, 30.0);
        let cfg = RunConfig::async_io();
        let (report, _, _) = straggler_report(&job, &w, &cfg, 1);
        let predicted = report.predicted_overlap_efficiency;
        assert!((predicted - 1.0).abs() < 1e-9, "compute hides all I/O here");
        let observed = report.observed_overlap_efficiency;
        assert!(
            (observed - predicted).abs() <= 0.10 * predicted.max(1e-9),
            "observed {observed} vs predicted {predicted}"
        );
    }

    #[test]
    fn sync_runs_predict_and_observe_zero_overlap() {
        let job = Job::new(summit(), 16);
        let w = Workload::checkpoint(16, 32 * MIB, 3, 5.0);
        let (report, _, _) = straggler_report(&job, &w, &RunConfig::sync(), 0);
        assert_eq!(report.predicted_overlap_efficiency, 0.0);
        assert_eq!(report.observed_overlap_efficiency, 0.0);
        assert_eq!(report.epochs.len(), 3);
    }
}
