//! The epoch-loop executors.
//!
//! [`run_analytic`] computes the run timeline in closed form;
//! [`run_des`] executes the same semantics event-by-event on the
//! [`desim`] engine with the file system as a processor-sharing resource
//! and genuinely blocking waits (the application parks on a completion
//! callback, never reads future completion times). The two must agree on
//! uniform workloads — the cross-check tests assert it — which validates
//! both the closed form and the engine.
//!
//! ## Semantics (identical in both executors)
//!
//! **Synchronous** — every epoch is `compute; blocking collective I/O`.
//!
//! **Asynchronous write** — every epoch is `compute; [wait for a free
//! snapshot buffer]; snapshot`, with the collective writes running on a
//! single background stream that serializes queued snapshots (argolite's
//! FIFO pool). `buffer_depth` bounds in-flight snapshots; the run drains
//! outstanding writes before terminating.
//!
//! **Asynchronous read** — the first time step is a blocking read (its
//! data gates the first compute, §V-A2); each completed read triggers the
//! background prefetch of the next step; later epochs wait only for the
//! prefetch remainder plus the node-local buffer-delivery copy.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use apio_core::history::{Direction, IoMode};
use apio_trace::critpath::{SPAN_COMPUTE, SPAN_META, SPAN_WAIT, SPAN_WRITE};
use apio_trace::{Event, SpanContext, TraceClock, Tracer, VirtualClock};
use desim::{Engine, SharedResource, SimDuration, SimTime};
use platform::pfs::{FileSystemModel, IoPattern};

use crate::comm::Job;
use crate::workload::{PhaseMeasure, RunConfig, RunResult, StagingTier, Workload};

/// A parked application continuation, resumed by a completion event.
type Continuation = Box<dyn FnOnce(&mut Engine)>;

/// Transactional-overhead and background-extra costs for a staging tier.
fn staging_costs(job: &Job, per_rank_bytes: u64, tier: StagingTier) -> (f64, f64) {
    match tier {
        StagingTier::Dram => (job.snapshot_time(per_rank_bytes), 0.0),
        StagingTier::Nvme => (
            job.snapshot_time_nvme(per_rank_bytes),
            job.staging_readback_time(per_rank_bytes),
        ),
    }
}

/// Execute with the default (analytic) executor.
pub fn run(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    run_analytic(job, w, cfg)
}

/// Closed-form timeline execution.
pub fn run_analytic(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    assert!(w.epochs > 0, "need at least one epoch");
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

/// Seconds → nanoseconds for span accounting, clamped at zero.
fn secs_to_nanos(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

/// Re-enact a finished run as one span stream per rank, tagged with a
/// [`SpanContext`] so `apio_trace::critpath` can merge and attribute them
/// (DESIGN.md §16).
///
/// Each rank's epoch is tiled `rank.compute → rank.wait → rank.meta →
/// rank.write`, summing exactly to the epoch wall (`max compute +
/// visible I/O`): ranks that compute faster than the epoch's straggler
/// absorb the difference in their wait span, and an epoch's visible I/O
/// splits into a buffer-park wait plus the snapshot (async) or metadata
/// plus the transfer (blocking). Causal-edge instants mark the barrier
/// around the collective and — for asynchronous epochs — the handoff of
/// the snapshot to the background stream and the settle point where it
/// became durable.
pub fn trace_rank_streams(
    job_id: u32,
    job: &Job,
    w: &Workload,
    cfg: &RunConfig,
    result: &RunResult,
    tracer: &Tracer,
    clock: &VirtualClock,
) {
    let meta_secs = job.system().pfs.metadata_time(job.ranks());
    let mut epoch_start = clock.now_nanos() + secs_to_nanos(w.t_init);
    let mut settle_high = epoch_start;
    for (e, p) in result.phases.iter().enumerate() {
        let c_max = secs_to_nanos(p.t_comp);
        let v = secs_to_nanos(p.visible_io_secs);
        let ov = secs_to_nanos(p.overhead_secs);
        // Visible-I/O split: overlapped epochs are [buffer wait][snapshot];
        // blocking epochs are [metadata][transfer].
        let (buf_wait, meta) = if ov > 0 {
            (v.saturating_sub(ov), 0)
        } else {
            (0, secs_to_nanos(meta_secs).min(v))
        };
        let write = v - buf_wait - meta;
        for rank in 0..w.ranks {
            let ctx = SpanContext::new(job_id, rank, e as u64);
            let c_r = secs_to_nanos(w.rank_compute_secs(rank, e as u32)).min(c_max);
            clock.set(epoch_start);
            {
                let _g = tracer.span_ctx(SPAN_COMPUTE, ctx);
                clock.advance(c_r);
            }
            tracer.instant_ctx("barrier.enter", ctx, Event::BarrierEnter { epoch: e as u64 });
            {
                let _g = tracer.span_ctx(SPAN_WAIT, ctx);
                clock.advance((c_max - c_r) + buf_wait);
            }
            tracer.instant_ctx("barrier.exit", ctx, Event::BarrierExit { epoch: e as u64 });
            if meta > 0 {
                let _g = tracer.span_ctx(SPAN_META, ctx);
                clock.advance(meta);
            }
            {
                let _g = tracer.span_ctx(SPAN_WRITE, ctx);
                clock.advance(write);
            }
            if cfg.mode == IoMode::Async && p.background_io_secs.is_finite() {
                tracer.instant_ctx(
                    "handoff",
                    ctx,
                    Event::WriteHandoff {
                        epoch: e as u64,
                        bytes: w.per_rank_bytes,
                    },
                );
                let settle_at = clock.now_nanos() + secs_to_nanos(p.background_io_secs).max(1);
                clock.set(settle_at);
                tracer.instant_ctx("settle", ctx, Event::Settle { epoch: e as u64, requests: 1 });
                settle_high = settle_high.max(settle_at);
            }
        }
        epoch_start += c_max + v;
    }
    // Leave the clock past everything emitted, so later spans on the same
    // tracer do not travel back in time.
    clock.set(epoch_start.max(settle_high));
}

// ----- event-driven executor -------------------------------------------

type Shared<T> = Rc<RefCell<T>>;

struct DesOut {
    phases: Vec<PhaseMeasure>,
    wall: f64,
}

/// Execute one collective phase on the engine: metadata delay, one capped
/// flow per node on the PFS resource, then the closing barrier.
/// `on_done(engine, end_time)` fires when the phase completes.
fn des_collective(
    engine: &mut Engine,
    pfs: &SharedResource,
    job: &Job,
    per_rank_bytes: u64,
    on_done: impl FnOnce(&mut Engine, SimTime) + 'static,
) {
    let nodes = job.nodes();
    let meta = job.system().pfs.metadata_time(job.ranks());
    let barrier = job.barrier_time();
    let per_node_bytes = job.total_bytes(per_rank_bytes) as f64 / nodes as f64;
    let cap = job.system().pfs.client_term(1, per_rank_bytes);
    let pfs = pfs.clone();
    let remaining = Rc::new(RefCell::new(nodes));
    let done_cb = Rc::new(RefCell::new(Some(on_done)));

    engine.schedule(SimDuration::from_secs_f64(meta), move |engine| {
        let flows = (0..nodes).map(|_| {
            let remaining = remaining.clone();
            let done_cb = done_cb.clone();
            let complete = move |engine: &mut Engine| {
                let mut r = remaining.borrow_mut();
                *r -= 1;
                if *r == 0 {
                    drop(r);
                    let cb = done_cb.borrow_mut().take().expect("single completion");
                    engine.schedule(SimDuration::from_secs_f64(barrier), move |engine| {
                        let now = engine.now();
                        cb(engine, now);
                    });
                }
            };
            (per_node_bytes, Some(cap), complete)
        });
        pfs.start_flows(engine, flows.collect::<Vec<_>>());
    });
}

/// Event-driven execution on the `desim` engine. The PFS server term is a
/// processor-sharing resource; waits are real blocking continuations.
pub fn run_des(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
    assert!(w.epochs > 0, "need at least one epoch");
    let pattern = match w.direction {
        Direction::Write => IoPattern::Write,
        Direction::Read => IoPattern::Read,
    };
    let server = job
        .system()
        .pfs
        .server_term(w.per_rank_bytes, pattern, cfg.contention);
    let mut engine = Engine::new();
    let pfs = SharedResource::new("pfs", server);
    let out: Shared<DesOut> = Rc::new(RefCell::new(DesOut {
        phases: Vec::with_capacity(w.epochs as usize),
        wall: 0.0,
    }));

    match (cfg.mode, w.direction) {
        (IoMode::Sync, _) => des_sync(&mut engine, pfs, job.clone(), w.clone(), out.clone()),
        (IoMode::Async, Direction::Write) => des_async_write(
            &mut engine,
            pfs,
            job.clone(),
            w.clone(),
            cfg.buffer_depth,
            cfg.staging,
            out.clone(),
        ),
        (IoMode::Async, Direction::Read) => {
            des_async_read(&mut engine, pfs, job.clone(), w.clone(), out.clone())
        }
    }
    engine.run();
    let out = Rc::try_unwrap(out).ok().expect("all events done").into_inner();
    RunResult {
        phases: out.phases,
        wall_secs: out.wall + w.t_term,
        phase_bytes: job.total_bytes(w.per_rank_bytes),
    }
}

fn des_sync(engine: &mut Engine, pfs: SharedResource, job: Job, w: Workload, out: Shared<DesOut>) {
    fn epoch(
        engine: &mut Engine,
        pfs: SharedResource,
        job: Job,
        w: Workload,
        out: Shared<DesOut>,
        i: u32,
    ) {
        if i == w.epochs {
            out.borrow_mut().wall = engine.now().as_secs_f64();
            return;
        }
        let comp = w.effective_compute_secs(i);
        engine.schedule(SimDuration::from_secs_f64(comp), move |engine| {
            let io_start = engine.now();
            let pfs2 = pfs.clone();
            let job2 = job.clone();
            let w2 = w.clone();
            des_collective(engine, &pfs, &job, w.per_rank_bytes, move |engine, end| {
                let io = (end - io_start).as_secs_f64();
                out.borrow_mut().phases.push(PhaseMeasure {
                    t_comp: comp,
                    visible_io_secs: io,
                    overhead_secs: 0.0,
                    background_io_secs: io,
                });
                epoch(engine, pfs2, job2, w2, out, i + 1);
            });
        });
    }
    engine.schedule(SimDuration::from_secs_f64(w.t_init), {
        let w = w.clone();
        move |engine| epoch(engine, pfs, job, w, out, 0)
    });
}

/// Shared state of the async-write run.
struct AwState {
    /// Snapshots not yet durable.
    in_flight: u32,
    /// Continuation of an application thread parked on a full buffer pool.
    waiter: Option<Continuation>,
    /// Background stream status and queue of pending writes (a count —
    /// every queued write is identical in this workload).
    bg_busy: bool,
    bg_queued: u32,
    /// Set when the application finished its last epoch.
    app_done: Option<f64>,
}

#[allow(clippy::too_many_arguments)]
fn des_async_write(
    engine: &mut Engine,
    pfs: SharedResource,
    job: Job,
    w: Workload,
    depth: u32,
    staging: StagingTier,
    out: Shared<DesOut>,
) {
    let st: Shared<AwState> = Rc::new(RefCell::new(AwState {
        in_flight: 0,
        waiter: None,
        bg_busy: false,
        bg_queued: 0,
        app_done: None,
    }));

    /// Start the next queued background write, if any. NVMe staging
    /// charges the device read-back to the background stream before the
    /// collective file system write.
    fn bg_start(
        engine: &mut Engine,
        pfs: SharedResource,
        job: Job,
        w: Workload,
        staging: StagingTier,
        st: Shared<AwState>,
        out: Shared<DesOut>,
    ) {
        {
            let mut s = st.borrow_mut();
            debug_assert!(s.bg_queued > 0 && s.bg_busy);
            s.bg_queued -= 1;
        }
        let bg_extra = match staging {
            StagingTier::Dram => 0.0,
            StagingTier::Nvme => job.staging_readback_time(w.per_rank_bytes),
        };
        let pfs_outer = pfs.clone();
        let job_outer = job.clone();
        let w_outer = w.clone();
        engine.schedule(SimDuration::from_secs_f64(bg_extra), move |engine| {
        let pfs = pfs_outer;
        let job = job_outer;
        let w = w_outer;
        let pfs2 = pfs.clone();
        let job2 = job.clone();
        let w2 = w.clone();
        des_collective(engine, &pfs, &job, w.per_rank_bytes, move |engine, end| {
            let end_s = end.as_secs_f64();
            let (waiter, more, finished) = {
                let mut s = st.borrow_mut();
                s.in_flight -= 1;
                let waiter = s.waiter.take();
                let more = s.bg_queued > 0;
                if !more {
                    s.bg_busy = false;
                }
                let finished =
                    s.app_done.filter(|_| s.in_flight == 0 && s.bg_queued == 0 && !more);
                (waiter, more, finished)
            };
            if let Some(cont) = waiter {
                cont(engine);
            }
            if more {
                bg_start(engine, pfs2, job2, w2, staging, st, out);
            } else if let Some(app_done) = finished {
                out.borrow_mut().wall = app_done.max(end_s);
            }
        });
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn epoch(
        engine: &mut Engine,
        pfs: SharedResource,
        job: Job,
        w: Workload,
        depth: u32,
        staging: StagingTier,
        st: Shared<AwState>,
        out: Shared<DesOut>,
        i: u32,
    ) {
        if i == w.epochs {
            let now = engine.now().as_secs_f64();
            let mut s = st.borrow_mut();
            s.app_done = Some(now);
            if s.in_flight == 0 && s.bg_queued == 0 && !s.bg_busy {
                drop(s);
                out.borrow_mut().wall = now;
            }
            return;
        }
        let comp = w.effective_compute_secs(i);
        engine.schedule(SimDuration::from_secs_f64(comp), move |engine| {
            let after_compute = engine.now().as_secs_f64();
            // Park if the buffer pool is exhausted; otherwise continue.
            let must_wait = st.borrow().in_flight >= depth;
            let proceed = move |engine: &mut Engine,
                                pfs: SharedResource,
                                job: Job,
                                w: Workload,
                                st: Shared<AwState>,
                                out: Shared<DesOut>| {
                let resumed = engine.now().as_secs_f64();
                let wait = resumed - after_compute;
                let (ov, _) = staging_costs(&job, w.per_rank_bytes, staging);
                engine.schedule(SimDuration::from_secs_f64(ov), move |engine| {
                    {
                        let mut s = st.borrow_mut();
                        s.in_flight += 1;
                        s.bg_queued += 1;
                    }
                    out.borrow_mut().phases.push(PhaseMeasure {
                        t_comp: comp,
                        visible_io_secs: wait + ov,
                        overhead_secs: ov,
                        background_io_secs: f64::NAN, // DES leaves this to
                                                      // the analytic path
                    });
                    let start_bg = {
                        let mut s = st.borrow_mut();
                        if s.bg_busy {
                            false
                        } else {
                            s.bg_busy = true;
                            true
                        }
                    };
                    if start_bg {
                        bg_start(
                            engine,
                            pfs.clone(),
                            job.clone(),
                            w.clone(),
                            staging,
                            st.clone(),
                            out.clone(),
                        );
                    }
                    epoch(engine, pfs, job, w, depth, staging, st, out, i + 1);
                });
            };
            if must_wait {
                let pfs2 = pfs.clone();
                let job2 = job.clone();
                let w2 = w.clone();
                let st2 = st.clone();
                let out2 = out.clone();
                let st_for_wait = st.clone();
                st_for_wait.borrow_mut().waiter = Some(Box::new(move |engine| {
                    proceed(engine, pfs2, job2, w2, st2, out2);
                }));
            } else {
                proceed(engine, pfs, job, w, st, out);
            }
        });
    }

    engine.schedule(SimDuration::from_secs_f64(w.t_init), {
        let w2 = w.clone();
        move |engine| epoch(engine, pfs, job, w2, depth, staging, st, out, 0)
    });
}

/// Shared state of the async-read run.
struct ArState {
    /// Completion flag per step (true = prefetched data resident).
    ready: Vec<bool>,
    /// Application continuation parked on a specific step.
    waiter: Option<(u32, Continuation)>,
}

fn des_async_read(
    engine: &mut Engine,
    pfs: SharedResource,
    job: Job,
    w: Workload,
    out: Shared<DesOut>,
) {
    let st: Shared<ArState> = Rc::new(RefCell::new(ArState {
        ready: vec![false; w.epochs as usize],
        waiter: None,
    }));

    /// Background prefetch chain: fetch `step`, then `step + 1`, ...
    fn prefetch(
        engine: &mut Engine,
        pfs: SharedResource,
        job: Job,
        w: Workload,
        st: Shared<ArState>,
        step: u32,
    ) {
        if step >= w.epochs {
            return;
        }
        let pfs2 = pfs.clone();
        let job2 = job.clone();
        let w2 = w.clone();
        des_collective(engine, &pfs, &job, w.per_rank_bytes, move |engine, _end| {
            let waiter = {
                let mut s = st.borrow_mut();
                s.ready[step as usize] = true;
                match s.waiter.take() {
                    Some((wstep, cont)) if wstep == step => Some(cont),
                    other => {
                        s.waiter = other;
                        None
                    }
                }
            };
            if let Some(cont) = waiter {
                cont(engine);
            }
            prefetch(engine, pfs2, job2, w2, st, step + 1);
        });
    }

    /// Application epochs 1..: wait for prefetch, deliver, compute.
    fn epoch(
        engine: &mut Engine,
        job: Job,
        w: Workload,
        st: Shared<ArState>,
        out: Shared<DesOut>,
        step: u32,
        io_request_time: f64,
    ) {
        if step == w.epochs {
            out.borrow_mut().wall = engine.now().as_secs_f64();
            return;
        }
        let ready = st.borrow().ready[step as usize];
        let deliver = job.snapshot_time(w.per_rank_bytes);
        let comp = w.effective_compute_secs(step);
        let finish = move |engine: &mut Engine,
                           job: Job,
                           w: Workload,
                           st: Shared<ArState>,
                           out: Shared<DesOut>| {
            let resumed = engine.now().as_secs_f64();
            let wait = resumed - io_request_time;
            engine.schedule(SimDuration::from_secs_f64(deliver), move |engine| {
                out.borrow_mut().phases.push(PhaseMeasure {
                    t_comp: comp,
                    visible_io_secs: wait + deliver,
                    overhead_secs: deliver,
                    background_io_secs: wait + deliver,
                });
                engine.schedule(SimDuration::from_secs_f64(comp), move |engine| {
                    let now = engine.now().as_secs_f64();
                    epoch(engine, job, w, st, out, step + 1, now);
                });
            });
        };
        if ready {
            finish(engine, job, w, st, out);
        } else {
            let st2 = st.clone();
            st.borrow_mut().waiter = Some((
                step,
                Box::new(move |engine| finish(engine, job, w, st2, out)),
            ));
        }
    }

    engine.schedule(SimDuration::from_secs_f64(w.t_init), {
        let w2 = w.clone();
        move |engine| {
            let io_start = engine.now();
            let pfs2 = pfs.clone();
            let job2 = job.clone();
            let w3 = w2.clone();
            des_collective(engine, &pfs, &job, w2.per_rank_bytes, move |engine, end| {
                let io = (end - io_start).as_secs_f64();
                let comp0 = w3.effective_compute_secs(0);
                out.borrow_mut().phases.push(PhaseMeasure {
                    t_comp: comp0,
                    visible_io_secs: io,
                    overhead_secs: 0.0,
                    background_io_secs: io,
                });
                // Prefetch pipeline starts now; the application computes.
                prefetch(
                    engine,
                    pfs2.clone(),
                    job2.clone(),
                    w3.clone(),
                    st.clone(),
                    1,
                );
                engine.schedule(SimDuration::from_secs_f64(comp0), move |engine| {
                    let now = engine.now().as_secs_f64();
                    epoch(engine, job2, w3, st, out, 1, now);
                });
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::units::MIB;
    use platform::{cori_haswell, summit};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-9)
    }

    fn assert_runs_agree(job: &Job, w: &Workload, cfg: &RunConfig) {
        let a = run_analytic(job, w, cfg);
        let d = run_des(job, w, cfg);
        assert!(
            close(a.wall_secs, d.wall_secs, 1e-6),
            "wall: analytic {} vs des {}",
            a.wall_secs,
            d.wall_secs
        );
        assert_eq!(a.phases.len(), d.phases.len());
        for (i, (pa, pd)) in a.phases.iter().zip(&d.phases).enumerate() {
            assert!(
                close(pa.visible_io_secs, pd.visible_io_secs, 1e-6),
                "phase {i} visible: {} vs {}",
                pa.visible_io_secs,
                pd.visible_io_secs
            );
            assert!(close(pa.overhead_secs, pd.overhead_secs, 1e-6));
        }
    }

    #[test]
    fn sync_executors_agree_summit() {
        let job = Job::new(summit(), 96);
        let w = Workload::checkpoint(96, 32 * MIB, 4, 5.0);
        assert_runs_agree(&job, &w, &RunConfig::sync());
    }

    #[test]
    fn sync_executors_agree_cori_with_contention() {
        let job = Job::new(cori_haswell(), 1024);
        let w = Workload::checkpoint(1024, 32 * MIB, 3, 2.0);
        assert_runs_agree(&job, &w, &RunConfig::sync().with_contention(0.6));
    }

    #[test]
    fn async_write_executors_agree_long_compute() {
        // Ideal scenario: compute fully hides the background write.
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 5, 30.0);
        assert_runs_agree(&job, &w, &RunConfig::async_io());
    }

    #[test]
    fn async_write_executors_agree_short_compute() {
        // Buffer-limited: compute far shorter than the background write,
        // so the app must park on buffer availability.
        let job = Job::new(summit(), 6144);
        let w = Workload::checkpoint(6144, 32 * MIB, 6, 0.05);
        assert_runs_agree(&job, &w, &RunConfig::async_io());
        assert_runs_agree(&job, &w, &RunConfig::async_io().with_buffer_depth(1));
        assert_runs_agree(&job, &w, &RunConfig::async_io().with_buffer_depth(4));
    }

    #[test]
    fn async_read_executors_agree() {
        let job = Job::new(summit(), 384);
        let w = Workload::analysis(384, 32 * MIB, 5, 30.0);
        assert_runs_agree(&job, &w, &RunConfig::async_io());
        // Short compute: prefetch can't keep up; the app parks.
        let w = Workload::analysis(384, 32 * MIB, 5, 0.01);
        assert_runs_agree(&job, &w, &RunConfig::async_io());
    }

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
    fn nvme_staging_executors_agree() {
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 5, 30.0);
        let cfg = RunConfig::async_io().with_staging(crate::workload::StagingTier::Nvme);
        assert_runs_agree(&job, &w, &cfg);
        // And in the buffer-throttled regime.
        let w = Workload::checkpoint(768, 32 * MIB, 5, 0.01);
        assert_runs_agree(&job, &w, &cfg);
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
