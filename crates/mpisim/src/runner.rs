//! The epoch-loop executor.
//!
//! [`run`] walks the paper's Eq. 1–2 epoch by epoch, with the two things
//! the equations leave out — the snapshot buffer pool's depth and the
//! prefetch chain — carried as a queue of completion times. It is the
//! only executor: every figure, example and report runs through it. Its
//! reference is Eq. 2c in `apio_core::epoch`, the same semantics solved
//! in closed form from their max-plus recurrences rather than walked:
//! the root package's `tests/properties.rs` holds the two to 1e-9 on
//! wall time and on every field of every phase, over a seeded grid and
//! six named configurations.
//!
//! ## Semantics (the executor's, and what Eq. 2c solves)
//!
//! **Synchronous** — every epoch is `compute; blocking collective I/O`.
//!
//! **Asynchronous write** — every epoch is `compute; [wait for a free
//! snapshot buffer]; snapshot`, with the collective writes running on a
//! single background stream that serializes queued snapshots (a
//! dataset's FIFO on the connector's ring). `buffer_depth` bounds
//! in-flight snapshots; the run drains outstanding writes before
//! terminating.
//!
//! **Asynchronous read** — the first time step is a blocking read (its
//! data gates the first compute, §V-A2); each completed read triggers the
//! background prefetch of the next step; later epochs wait only for the
//! prefetch remainder plus the node-local buffer-delivery copy. The chain
//! ignores `buffer_depth` and `staging`: the prefetch of step e starts
//! when step e − 1's lands, whatever the application has consumed, so a
//! reader with `t_comp ≫ t_io` may hold every remaining step at once.
//! The real engine (`kernels::run_real`) issues exactly one step ahead;
//! bounding the chain by the depth waits for ROADMAP item 16 (b).

use std::collections::VecDeque;

use apio_core::history::{Direction, IoMode};

use crate::comm::Job;
use crate::workload::{PhaseMeasure, RunConfig, RunResult, StagingTier, Workload};

/// Transactional-overhead and background-extra costs for a staging tier.
pub(crate) fn staging_costs(job: &Job, per_rank_bytes: u64, tier: StagingTier) -> (f64, f64) {
    match tier {
        StagingTier::Dram => (job.snapshot_time(per_rank_bytes), 0.0),
        StagingTier::Nvme => (
            job.snapshot_time_nvme(per_rank_bytes),
            job.staging_readback_time(per_rank_bytes),
        ),
    }
}

/// Execute `w` on `job` under `cfg`: the closed-form timeline.
pub fn run(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    assert!(w.epochs > 0, "need at least one epoch");
    assert!(cfg.buffer_depth >= 1, "need at least one buffer");
    match (cfg.mode, w.direction) {
        (IoMode::Sync, _) => sync_analytic(job, w, cfg),
        (IoMode::Async, Direction::Write) => async_write_analytic(job, w, cfg),
        (IoMode::Async, Direction::Read) => async_read_analytic(job, w, cfg),
    }
}

fn sync_analytic(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    let io = job.collective_io_time(w.per_rank_bytes, w.direction, cfg.contention);
    let mut phases = Vec::with_capacity(w.epochs as usize);
    let mut wall = w.t_init;
    for e in 0..w.epochs {
        let comp = w.effective_compute_secs(e);
        wall += comp + io;
        phases.push(PhaseMeasure {
            t_comp: comp,
            visible_io_secs: io,
            overhead_secs: 0.0,
            background_io_secs: io,
        });
    }
    RunResult {
        phases,
        wall_secs: wall + w.t_term,
        phase_bytes: job.total_bytes(w.per_rank_bytes),
    }
}

fn async_write_analytic(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    let (ov, bg_extra) = staging_costs(job, w.per_rank_bytes, cfg.staging);
    let io = bg_extra + job.collective_io_time(w.per_rank_bytes, w.direction, cfg.contention);
    let mut t = w.t_init;
    let mut bg_free = t;
    let mut in_flight: VecDeque<f64> = VecDeque::new();
    let mut phases = Vec::with_capacity(w.epochs as usize);

    for e in 0..w.epochs {
        let comp = w.effective_compute_secs(e);
        t += comp;
        while let Some(&done) = in_flight.front() {
            if done <= t {
                in_flight.pop_front();
            } else {
                break;
            }
        }
        let mut wait = 0.0;
        if in_flight.len() as u32 >= cfg.buffer_depth {
            let oldest = in_flight.pop_front().expect("nonempty");
            wait = (oldest - t).max(0.0);
            t += wait;
        }
        t += ov;
        let start = bg_free.max(t);
        let done = start + io;
        bg_free = done;
        in_flight.push_back(done);
        phases.push(PhaseMeasure {
            t_comp: comp,
            visible_io_secs: wait + ov,
            overhead_secs: ov,
            background_io_secs: done - t,
        });
    }
    t = t.max(bg_free);
    RunResult {
        phases,
        wall_secs: t + w.t_term,
        phase_bytes: job.total_bytes(w.per_rank_bytes),
    }
}

fn async_read_analytic(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    let io = job.collective_io_time(w.per_rank_bytes, w.direction, cfg.contention);
    let deliver = job.snapshot_time(w.per_rank_bytes);
    let mut phases = Vec::with_capacity(w.epochs as usize);

    // Epoch 0: blocking read, then compute; prefetch chain starts when the
    // blocking read finishes.
    let mut t = w.t_init + io;
    phases.push(PhaseMeasure {
        t_comp: w.effective_compute_secs(0),
        visible_io_secs: io,
        overhead_secs: 0.0,
        background_io_secs: io,
    });
    let mut bg_free = t;
    t += w.effective_compute_secs(0);

    for e in 1..w.epochs {
        let comp = w.effective_compute_secs(e);
        let pf_done = bg_free + io;
        bg_free = pf_done;
        let wait = (pf_done - t).max(0.0);
        let visible = wait + deliver;
        phases.push(PhaseMeasure {
            t_comp: comp,
            visible_io_secs: visible,
            overhead_secs: deliver,
            background_io_secs: wait + deliver,
        });
        t += visible + comp;
    }
    RunResult {
        phases,
        wall_secs: t + w.t_term,
        phase_bytes: job.total_bytes(w.per_rank_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::units::MIB;
    use platform::summit;

    #[test]
    fn async_beats_sync_when_compute_dominates() {
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 5, 30.0);
        let sync = run(&job, &w, &RunConfig::sync());
        let asyn = run(&job, &w, &RunConfig::async_io());
        assert!(asyn.wall_secs < sync.wall_secs);
        // Aggregate bandwidth: async is bounded by the snapshot, far above
        // the PFS-bound sync bandwidth at this scale.
        assert!(asyn.peak_bandwidth() > 2.0 * sync.peak_bandwidth());
    }

    #[test]
    fn async_loses_when_compute_is_negligible() {
        // Fig. 1c: nothing to overlap with; the snapshot is pure loss and
        // the buffer pool throttles the app to the background rate anyway.
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 5, 0.0);
        let sync = run(&job, &w, &RunConfig::sync());
        let asyn = run(&job, &w, &RunConfig::async_io());
        assert!(asyn.wall_secs >= sync.wall_secs * 0.99);
    }

    #[test]
    fn first_read_is_blocking_then_prefetch_kicks_in() {
        // Below the sync knee the gap is a few x; at scale (where sync is
        // server-bound) the prefetched steps are orders of magnitude up,
        // which is the §V-A2 observation.
        let job = Job::new(summit(), 384);
        let w = Workload::analysis(384, 32 * MIB, 4, 30.0);
        let r = run(&job, &w, &RunConfig::async_io());
        let bws = r.phase_bandwidths();
        assert!(
            bws[1] > 3.0 * bws[0],
            "prefetched reads must beat the blocking step: {bws:?}"
        );

        let job = Job::new(summit(), 6144);
        let w = Workload::analysis(6144, 32 * MIB, 4, 30.0);
        let r = run(&job, &w, &RunConfig::async_io());
        let bws = r.phase_bandwidths();
        assert!(
            bws[1] > 10.0 * bws[0],
            "at scale the gap is orders of magnitude: {bws:?}"
        );
    }

    #[test]
    fn wall_time_includes_drain() {
        // One epoch, zero compute: wall must include the background write.
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 1, 0.0);
        let r = run(&job, &w, &RunConfig::async_io());
        let io = job.collective_io_time(32 * MIB, Direction::Write, 1.0);
        assert!(r.wall_secs >= w.t_init + io + w.t_term - 1e-9);
    }

    #[test]
    #[should_panic(expected = "need at least one buffer")]
    fn a_public_config_without_buffers_is_rejected_on_entry() {
        let job = Job::new(summit(), 6);
        let w = Workload::checkpoint(6, MIB, 2, 0.0);
        let cfg = RunConfig {
            buffer_depth: 0,
            ..RunConfig::async_io()
        };
        run(&job, &w, &cfg);
    }

    #[test]
    fn buffer_depth_one_serializes_every_other_epoch() {
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 4, 0.0);
        let d1 = run(&job, &w, &RunConfig::async_io().with_buffer_depth(1));
        let d4 = run(&job, &w, &RunConfig::async_io().with_buffer_depth(4));
        assert!(d1.wall_secs >= d4.wall_secs - 1e-9);
        // With depth 1 every epoch after the first waits on the previous
        // write; visible I/O of later epochs includes that wait.
        assert!(d1.phases[1].visible_io_secs > d4.phases[1].visible_io_secs);
    }

    #[test]
    fn an_async_read_ignores_buffer_depth_and_staging() {
        // The prefetch chain runs one landed step after another, so the
        // depth bounds nothing a read holds and the tier stages nothing.
        let job = Job::new(summit(), 384);
        let w = Workload::analysis(384, 32 * MIB, 6, 0.5);
        let key = |r: &RunResult| {
            let p = |m: &PhaseMeasure| {
                [m.t_comp, m.visible_io_secs, m.overhead_secs, m.background_io_secs]
            };
            (r.wall_secs, r.phase_bytes, r.phases.iter().map(p).collect::<Vec<_>>())
        };
        let at = |depth, tier| {
            let cfg = RunConfig::async_io().with_buffer_depth(depth).with_staging(tier);
            run(&job, &w, &cfg)
        };
        let want = key(&at(1, StagingTier::Dram));
        for tier in [StagingTier::Dram, StagingTier::Nvme] {
            assert_eq!(key(&at(8, tier)), want, "{tier:?} at D = 8");
            assert_eq!(key(&at(1, tier)), want, "{tier:?} at D = 1");
        }
    }

    #[test]
    fn nvme_staging_costs_more_overhead_than_dram() {
        // The §II-C trade-off: device staging pays device bandwidth as
        // transactional overhead, DRAM staging pays memcpy bandwidth.
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 3, 30.0);
        let dram = run(&job, &w, &RunConfig::async_io());
        let nvme = run(
            &job,
            &w,
            &RunConfig::async_io().with_staging(crate::workload::StagingTier::Nvme),
        );
        assert!(
            nvme.phases[0].overhead_secs > 2.0 * dram.phases[0].overhead_secs,
            "nvme {} vs dram {}",
            nvme.phases[0].overhead_secs,
            dram.phases[0].overhead_secs
        );
        // But still far cheaper than synchronous I/O at this scale.
        let sync = run(&job, &w, &RunConfig::sync());
        assert!(nvme.peak_bandwidth() > sync.peak_bandwidth());
    }

    #[test]
    fn nvme_staging_slows_the_background_drain() {
        // One epoch, no compute: wall time includes the read-back.
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 1, 0.0);
        let dram = run(&job, &w, &RunConfig::async_io());
        let nvme = run(
            &job,
            &w,
            &RunConfig::async_io().with_staging(crate::workload::StagingTier::Nvme),
        );
        assert!(nvme.wall_secs > dram.wall_secs);
    }
}
