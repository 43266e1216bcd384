//! The event-driven reference for [`crate::runner::run`].
//!
//! [`run_des`] executes the semantics listed in `runner`'s module doc
//! event by event on the [`desim`] engine: the file system's server term
//! is a processor-sharing resource, and the application genuinely blocks
//! (it parks on a completion callback and never reads a future
//! completion time). It is compiled for tests only. `figures all` under
//! it is byte-identical to the closed form's but takes 1.14 s against
//! 2 ms, so the closed form is the executor and this is what checks it:
//! the cross-check tests below hold the two to 1e-6 on wall time and on
//! every field of every phase.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use apio_core::history::{Direction, IoMode};
use desim::{Engine, SharedResource, SimDuration, SimTime};
use platform::pfs::{FileSystemModel, IoPattern};

use crate::comm::Job;
use crate::runner::{run, staging_costs};
use crate::workload::{PhaseMeasure, RunConfig, RunResult, StagingTier, Workload};

/// A parked application continuation, resumed by a completion event.
type Continuation = Box<dyn FnOnce(&mut Engine)>;

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
pub(crate) fn run_des(job: &Job, w: &Workload, cfg: &RunConfig) -> RunResult {
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
            cfg.clone(),
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
    /// Snapshots not yet durable, as `(epoch, snapshot-end time)`, oldest
    /// first: the background stream is FIFO, so a write that lands is
    /// the front's.
    in_flight: VecDeque<(usize, f64)>,
    /// Continuation of an application thread parked on a full buffer pool.
    waiter: Option<Continuation>,
    /// Background stream status and queue of pending writes (a count —
    /// every queued write is identical in this workload).
    bg_busy: bool,
    bg_queued: u32,
    /// Set when the application finished its last epoch.
    app_done: Option<f64>,
}

/// What every callback of the async-write run threads through.
#[derive(Clone)]
struct AwCtx {
    pfs: SharedResource,
    job: Job,
    w: Workload,
    cfg: RunConfig,
    st: Shared<AwState>,
    out: Shared<DesOut>,
}

fn des_async_write(
    engine: &mut Engine,
    pfs: SharedResource,
    job: Job,
    w: Workload,
    cfg: RunConfig,
    out: Shared<DesOut>,
) {
    let st: Shared<AwState> = Rc::new(RefCell::new(AwState {
        in_flight: VecDeque::new(),
        waiter: None,
        bg_busy: false,
        bg_queued: 0,
        app_done: None,
    }));
    let ctx = AwCtx {
        pfs,
        job,
        w,
        cfg,
        st,
        out,
    };

    /// Start the next queued background write, if any. NVMe staging
    /// charges the device read-back to the background stream before the
    /// collective file system write.
    fn bg_start(engine: &mut Engine, ctx: AwCtx) {
        {
            let mut s = ctx.st.borrow_mut();
            debug_assert!(s.bg_queued > 0 && s.bg_busy);
            s.bg_queued -= 1;
        }
        let bg_extra = match ctx.cfg.staging {
            StagingTier::Dram => 0.0,
            StagingTier::Nvme => ctx.job.staging_readback_time(ctx.w.per_rank_bytes),
        };
        engine.schedule(SimDuration::from_secs_f64(bg_extra), move |engine| {
            let (pfs, job) = (ctx.pfs.clone(), ctx.job.clone());
            des_collective(engine, &pfs, &job, ctx.w.per_rank_bytes, move |engine, end| {
                let end_s = end.as_secs_f64();
                let (waiter, more, finished) = {
                    let mut s = ctx.st.borrow_mut();
                    let (epoch, snapshot_end) = s.in_flight.pop_front().expect("one per write");
                    ctx.out.borrow_mut().phases[epoch].background_io_secs = end_s - snapshot_end;
                    let waiter = s.waiter.take();
                    let more = s.bg_queued > 0;
                    if !more {
                        s.bg_busy = false;
                    }
                    let finished =
                        s.app_done.filter(|_| s.in_flight.is_empty() && s.bg_queued == 0 && !more);
                    (waiter, more, finished)
                };
                if let Some(cont) = waiter {
                    cont(engine);
                }
                if more {
                    bg_start(engine, ctx);
                } else if let Some(app_done) = finished {
                    ctx.out.borrow_mut().wall = app_done.max(end_s);
                }
            });
        });
    }

    fn epoch(engine: &mut Engine, ctx: AwCtx, i: u32) {
        if i == ctx.w.epochs {
            let now = engine.now().as_secs_f64();
            let mut s = ctx.st.borrow_mut();
            s.app_done = Some(now);
            if s.in_flight.is_empty() && s.bg_queued == 0 && !s.bg_busy {
                drop(s);
                ctx.out.borrow_mut().wall = now;
            }
            return;
        }
        let comp = ctx.w.effective_compute_secs(i);
        engine.schedule(SimDuration::from_secs_f64(comp), move |engine| {
            let after_compute = engine.now().as_secs_f64();
            // Park if the buffer pool is exhausted; otherwise continue.
            let must_wait = ctx.st.borrow().in_flight.len() as u32 >= ctx.cfg.buffer_depth;
            let proceed = move |engine: &mut Engine, ctx: AwCtx| {
                let resumed = engine.now().as_secs_f64();
                let wait = resumed - after_compute;
                let (ov, _) = staging_costs(&ctx.job, ctx.w.per_rank_bytes, ctx.cfg.staging);
                engine.schedule(SimDuration::from_secs_f64(ov), move |engine| {
                    {
                        let mut s = ctx.st.borrow_mut();
                        s.bg_queued += 1;
                        s.in_flight.push_back((i as usize, engine.now().as_secs_f64()));
                    }
                    ctx.out.borrow_mut().phases.push(PhaseMeasure {
                        t_comp: comp,
                        visible_io_secs: wait + ov,
                        overhead_secs: ov,
                        // Set when this epoch's background write lands.
                        background_io_secs: f64::NAN,
                    });
                    let start_bg = {
                        let mut s = ctx.st.borrow_mut();
                        if s.bg_busy {
                            false
                        } else {
                            s.bg_busy = true;
                            true
                        }
                    };
                    if start_bg {
                        bg_start(engine, ctx.clone());
                    }
                    epoch(engine, ctx, i + 1);
                });
            };
            if must_wait {
                let st = ctx.st.clone();
                st.borrow_mut().waiter = Some(Box::new(move |engine| proceed(engine, ctx)));
            } else {
                proceed(engine, ctx);
            }
        });
    }

    engine.schedule(SimDuration::from_secs_f64(ctx.w.t_init), move |engine| {
        epoch(engine, ctx, 0)
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

mod tests {
    use super::*;
    use platform::units::MIB;
    use platform::{cori_haswell, summit};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-9)
    }

    fn assert_runs_agree(job: &Job, w: &Workload, cfg: &RunConfig) {
        let a = run(job, w, cfg);
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
            assert!(close(pa.t_comp, pd.t_comp, 1e-6));
            assert!(
                close(pa.background_io_secs, pd.background_io_secs, 1e-6),
                "phase {i} background: {} vs {}",
                pa.background_io_secs,
                pd.background_io_secs
            );
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
    fn nvme_staging_executors_agree() {
        let job = Job::new(summit(), 768);
        let w = Workload::checkpoint(768, 32 * MIB, 5, 30.0);
        let cfg = RunConfig::async_io().with_staging(StagingTier::Nvme);
        assert_runs_agree(&job, &w, &cfg);
        // And in the buffer-throttled regime.
        let w = Workload::checkpoint(768, 32 * MIB, 5, 0.01);
        assert_runs_agree(&job, &w, &cfg);
    }
}
