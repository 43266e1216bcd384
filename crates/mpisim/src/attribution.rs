//! Cross-rank straggler attribution: the operator report's
//! [`StragglerReport`] section, computed from a finished run
//! (DESIGN.md §16).
//!
//! An epoch of a [`RunResult`] is Eq. 1–2 arithmetic — the slowest
//! rank's compute, then visible I/O, then background I/O — and
//! [`Workload::rank_compute_secs`] gives every rank's share of the
//! compute, so attribution is integer-nanosecond arithmetic on those
//! numbers. The acceptance scenario: a seeded 16-rank run with one rank
//! slowed 4× names that rank the straggler of every post-warmup epoch in
//! `apio-report --json`, each row tiles its epoch's wall exactly, and the
//! observed overlap efficiency matches Eq. 2 on unperturbed configs.

use apio_core::history::{Direction, IoMode};
use apio_core::report::{StragglerEpoch, StragglerReport};
use platform::pfs::FileSystemModel;

use crate::comm::Job;
use crate::runner::staging_costs;
use crate::workload::{RunConfig, RunResult, Workload};

/// Eq. 2's predicted overlap efficiency for this workload: of the
/// background I/O time `t_io`, the fraction `min(t_io, t_comp) / t_io`
/// can hide under the next epoch's compute. Synchronous runs overlap
/// nothing by construction. Only writes pay a staging tier's read-back
/// in the background, as in the executor.
pub fn predicted_overlap_efficiency(job: &Job, w: &Workload, cfg: &RunConfig) -> f64 {
    if cfg.mode == IoMode::Sync {
        return 0.0;
    }
    let bg_extra = match w.direction {
        Direction::Write => staging_costs(job, w.per_rank_bytes, cfg.staging).1,
        Direction::Read => 0.0,
    };
    let t_io = bg_extra + job.collective_io_time(w.per_rank_bytes, w.direction, cfg.contention);
    if t_io <= 0.0 {
        return 0.0;
    }
    w.compute_secs.min(t_io) / t_io
}

/// Seconds → nanoseconds, clamped at zero.
fn secs_to_nanos(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

/// `values[⌈q·n⌉-1]` over an ascending-sorted slice (0 when empty).
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// Attribute `result` — the run of `w` under `cfg` on `job` — rank by
/// rank, keeping the epochs at and after `warmup`.
///
/// Every rank's epoch tiles the epoch wall (`max compute + visible I/O`)
/// as compute, wait, metadata, write: a rank that computes faster than
/// the slowest absorbs the gap in its wait, and visible I/O splits into a
/// buffer wait plus the snapshot when it overlaps, or metadata plus the
/// transfer when it blocks. The straggler is the rank with the most busy
/// (non-wait) time, ties going to the lowest rank; the skew percentiles
/// are over busy times.
pub fn straggler_report(
    job: &Job,
    w: &Workload,
    cfg: &RunConfig,
    result: &RunResult,
    warmup: u32,
) -> StragglerReport {
    let meta_nanos = secs_to_nanos(job.system().pfs.metadata_time(job.ranks()));
    // Epoch start times from the first epoch on, one past the last, and
    // each epoch's per-rank compute.
    let mut starts = vec![0u64];
    let mut compute: Vec<Vec<u64>> = Vec::with_capacity(result.phases.len());
    let mut epochs = Vec::new();
    for (e, p) in result.phases.iter().enumerate() {
        let c_max = secs_to_nanos(p.t_comp);
        let v = secs_to_nanos(p.visible_io_secs);
        let ov = secs_to_nanos(p.overhead_secs);
        let (buf_wait, meta) = if ov > 0 {
            (v.saturating_sub(ov), 0)
        } else {
            (0, meta_nanos.min(v))
        };
        let write = v - buf_wait - meta;
        let c: Vec<u64> = (0..w.ranks)
            .map(|r| secs_to_nanos(w.rank_compute_secs(r, e as u32)).min(c_max))
            .collect();
        if e as u32 >= warmup {
            let mut busy: Vec<u64> = c.iter().map(|c_r| c_r + meta + write).collect();
            let straggler = busy
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map_or(0, |(r, _)| r);
            let c_s = c.get(straggler).copied().unwrap_or(0);
            busy.sort_unstable();
            epochs.push(StragglerEpoch {
                epoch: e as u64,
                straggler: straggler as u32,
                wall_nanos: c_max + v,
                compute_nanos: c_s,
                write_nanos: write,
                meta_nanos: meta,
                wait_nanos: c_max - c_s + buf_wait,
                skew_p50_nanos: percentile_sorted(&busy, 0.50),
                skew_p99_nanos: percentile_sorted(&busy, 0.99),
            });
        }
        compute.push(c);
        starts.push(starts[e] + c_max + v);
    }

    let observed_overlap_efficiency = if cfg.mode == IoMode::Async {
        observed_overlap(result, &starts, &compute)
    } else {
        0.0
    };
    StragglerReport {
        ranks: w.ranks,
        warmup_epochs: warmup,
        epochs,
        observed_overlap_efficiency,
        predicted_overlap_efficiency: predicted_overlap_efficiency(job, w, cfg),
    }
}

/// Fraction of background I/O hidden under compute: each epoch's
/// `[handoff, handoff + background I/O]` interval, per rank, intersected
/// with that rank's compute intervals. The handoff is the end of the
/// epoch's visible I/O, and the background interval lasts at least 1 ns.
/// The final epoch is left out — no compute follows it to hide under —
/// unless it is the only one.
fn observed_overlap(result: &RunResult, starts: &[u64], compute: &[Vec<u64>]) -> f64 {
    let counted = result.phases.len().saturating_sub(1).max(1);
    let (mut total, mut hidden) = (0u64, 0u64);
    for (e, p) in result.phases.iter().enumerate().take(counted) {
        let handoff = starts[e + 1];
        let settle = handoff + secs_to_nanos(p.background_io_secs).max(1);
        for rank in 0..compute[e].len() {
            total += settle - handoff;
            for (start, c) in starts.iter().zip(compute) {
                let end = start + c[rank];
                hidden += end.min(settle).saturating_sub(handoff.max(*start));
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hidden as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use crate::workload::StagingTier;
    use platform::summit;
    use platform::units::MIB;

    fn report(job: &Job, w: &Workload, cfg: &RunConfig, warmup: u32) -> StragglerReport {
        straggler_report(job, w, cfg, &run(job, w, cfg), warmup)
    }

    #[test]
    fn slowed_rank_is_named_every_post_warmup_epoch() {
        let job = Job::new(summit(), 16);
        let w = Workload::checkpoint(16, 32 * MIB, 5, 5.0).with_straggler(7, 4.0);
        let report = report(&job, &w, &RunConfig::async_io(), 1);
        assert_eq!(report.ranks, 16);
        assert_eq!(report.epochs.len(), 4, "warmup epoch excluded");
        for e in &report.epochs {
            assert!(e.epoch >= 1);
            assert_eq!(e.straggler, 7, "epoch {}: straggler misattributed", e.epoch);
            assert!(e.skew_ratio() > 3.0, "4x compute skew must show up");
            let attributed = e.compute_nanos + e.write_nanos + e.meta_nanos + e.wait_nanos;
            assert_eq!(attributed, e.wall_nanos, "attribution must tile the wall");
        }
    }

    #[test]
    fn unperturbed_async_efficiency_matches_eq2_within_10pct() {
        // Compute-dominated: Eq. 2 predicts full overlap; the observed
        // overlap must agree within the acceptance tolerance.
        let job = Job::new(summit(), 96);
        let w = Workload::checkpoint(96, 32 * MIB, 5, 30.0);
        let report = report(&job, &w, &RunConfig::async_io(), 1);
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
        let report = report(&job, &w, &RunConfig::sync(), 0);
        assert_eq!(report.predicted_overlap_efficiency, 0.0);
        assert_eq!(report.observed_overlap_efficiency, 0.0);
        assert_eq!(report.epochs.len(), 3);
    }

    #[test]
    fn reads_pay_no_staging_read_back_in_the_prediction() {
        // The executor never charges an async read the NVMe read-back, so
        // neither may Eq. 2: compute shorter than the read keeps the
        // prediction below 1, where the extra term would show.
        let job = Job::new(summit(), 16);
        let w = Workload::analysis(16, 32 * MIB, 5, 0.01);
        let dram = predicted_overlap_efficiency(&job, &w, &RunConfig::async_io());
        let nvme = predicted_overlap_efficiency(
            &job,
            &w,
            &RunConfig::async_io().with_staging(StagingTier::Nvme),
        );
        assert!(dram < 1.0, "t_comp < t_io here: {dram}");
        assert_eq!(nvme, dram);
    }
}
