//! Schedule-exploration gate: the writer/reader/flush mix from the async
//! VOL connector, driven through seeded interleavings.
//!
//! Run with `--features debug-invariants`; `APIO_EXPLORE_SEEDS` overrides
//! the default 64-seed sweep (ci.sh relies on the default as its floor).

#![cfg(feature = "debug-invariants")]

use std::sync::Arc;

use argolite::explore::{explore, replay, ExploreStep, TaskGraph};
use argolite::lock_order;
use h5lite::sync::{order_hook, Mutex};

/// A named lock whose acquisitions reach the lock-order recorder.
fn named<T>(name: &'static str, value: T) -> Mutex<T> {
    order_hook::install(lock_order::acquire_class, lock_order::release_class);
    Mutex::new_named(name, value)
}

fn seed_count() -> u64 {
    std::env::var("APIO_EXPLORE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The connector's staging pipeline in miniature: writers append records
/// to a staging buffer, a flush drains staging to the device, a reader
/// verifies what landed. The only declared edges are the ones the real
/// connector has — flush waits on the *first* write of the batch, the
/// read waits on the flush — so writers 1 and 2 race both.
struct Pipeline {
    staging: Vec<u32>,
    device: Vec<u32>,
}

fn pipeline_graph(state: &Arc<Mutex<Pipeline>>) -> TaskGraph {
    let mut g = TaskGraph::new();
    let writer = |g: &mut TaskGraph, id: u32, state: &Arc<Mutex<Pipeline>>| {
        let state = state.clone();
        g.add_task(format!("write:{id}"), move || {
            state.lock().staging.push(id);
        })
    };
    let w0 = writer(&mut g, 0, state);
    let w1 = writer(&mut g, 1, state);
    let w2 = writer(&mut g, 2, state);
    let flush = {
        let state = state.clone();
        g.add_task("flush", move || {
            let mut p = state.lock();
            let drained = std::mem::take(&mut p.staging);
            p.device.extend(drained);
        })
    };
    let read = {
        let state = state.clone();
        g.add_task("read", move || {
            let p = state.lock();
            assert!(
                p.device.contains(&0),
                "flush ordered after write:0 must land record 0"
            );
        })
    };
    g.add_edge(w0, flush);
    g.add_edge(flush, read);
    let _ = (w1, w2);
    g
}

/// Records never vanish: staging + device always hold exactly the
/// records of the writers that have executed, and a completed flush has
/// landed record 0 on the device.
fn conservation(state: &Arc<Mutex<Pipeline>>, s: &ExploreStep<'_>) -> Result<(), String> {
    let p = state.lock();
    let writers_done = s
        .executed
        .iter()
        .filter(|l| l.starts_with("write:"))
        .count();
    if p.staging.len() + p.device.len() != writers_done {
        return Err(format!(
            "record conservation broken after `{}`: {} staged + {} landed != {} written",
            s.label,
            p.staging.len(),
            p.device.len(),
            writers_done
        ));
    }
    if s.executed.iter().any(|l| l == "flush") && !p.device.contains(&0) {
        return Err("flush completed without landing record 0".to_owned());
    }
    Ok(())
}

#[test]
fn writer_reader_flush_mix_holds_under_seeded_schedules() {
    let seeds = seed_count();
    let state = Arc::new(Mutex::new(Pipeline {
        staging: Vec::new(),
        device: Vec::new(),
    }));
    let report = explore(
        seeds,
        || {
            let mut p = state.lock();
            p.staging.clear();
            p.device.clear();
            drop(p);
            pipeline_graph(&state)
        },
        |s| conservation(&state, s),
    );
    assert!(report.ok(), "failure: {}", report.failure.unwrap());
    assert_eq!(report.seeds_run, seeds);
    assert_eq!(report.steps, seeds * 5, "every schedule runs all 5 tasks");
    assert!(
        report.distinct_orders >= 2,
        "a {seeds}-seed sweep must exercise schedule diversity, saw {}",
        report.distinct_orders
    );
}

#[test]
fn overconstrained_invariant_fails_and_replays_deterministically() {
    // A wrong mental model — "the flush always sees the whole batch" —
    // holds on the in-order schedule but not when the flush lands
    // between writers. The explorer finds the counterexample schedule
    // and replay() pins it down.
    let state = Arc::new(Mutex::new(Pipeline {
        staging: Vec::new(),
        device: Vec::new(),
    }));
    let build = || {
        let mut p = state.lock();
        p.staging.clear();
        p.device.clear();
        drop(p);
        pipeline_graph(&state)
    };
    let wrong = |s: &ExploreStep<'_>| {
        if s.label == "flush" && state.lock().device.len() != 3 {
            return Err("flush saw a partial batch".to_owned());
        }
        Ok(())
    };
    let report = explore(seed_count(), build, wrong);
    let f = report.failure.expect("some seed flushes a partial batch");
    assert_eq!(f.message, "flush saw a partial batch");
    assert_eq!(f.schedule.last().map(String::as_str), Some("flush"));

    // The same sweep is deterministic: same seed, same step, same order.
    let again = explore(seed_count(), build, wrong)
        .failure
        .expect("deterministic");
    assert_eq!(again.seed, f.seed);
    assert_eq!(again.step, f.step);
    assert_eq!(again.schedule, f.schedule);

    // And the recorded schedule replays to the same violation.
    let err = replay(build, &f.schedule, wrong).expect_err("replay reproduces");
    assert_eq!(err.message, f.message);
    assert_eq!(err.schedule, f.schedule);
}

#[test]
fn lock_order_inversion_between_tasks_is_caught() {
    // Class names unique to this test: the lock-order registry is
    // process-global, so shared names would couple tests.
    let build = || {
        let a = Arc::new(named("explore-test-meta", 0u32));
        let b = Arc::new(named("explore-test-data", 0u32));
        let mut g = TaskGraph::new();
        {
            let (a, b) = (a.clone(), b.clone());
            g.add_task("meta-then-data", move || {
                let _ga = a.lock();
                let _gb = b.lock();
            });
        }
        {
            let (a, b) = (a.clone(), b.clone());
            g.add_task("data-then-meta", move || {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        }
        g
    };
    let report = explore(4, build, |_| Ok(()));
    let f = report.failure.expect("inversion must be caught");
    assert!(
        f.message.contains("lock-order violation"),
        "got: {}",
        f.message
    );
    // Whichever task ran second closed the cycle, so the failing
    // schedule has both tasks in it.
    assert_eq!(f.schedule.len(), 2, "schedule: {:?}", f.schedule);
    // The panic unwound through the guards; nothing may leak across runs.
    assert_eq!(lock_order::held_depth(), 0);
}

#[test]
fn leaked_guard_is_a_schedule_failure() {
    let build = || {
        let m = Arc::new(named("explore-test-leak", 0u32));
        let mut g = TaskGraph::new();
        let m2 = m.clone();
        g.add_task("leaker", move || {
            std::mem::forget(m2.lock());
        });
        g
    };
    let report = explore(2, build, |_| Ok(()));
    let f = report.failure.expect("leaked guard must be caught");
    assert!(
        f.message.contains("still holding") && f.message.contains("explore-test-leak"),
        "got: {}",
        f.message
    );
    // clear_held() ran: the leak does not poison later explorations.
    assert_eq!(lock_order::held_depth(), 0);
    let healthy = explore(4, pipeline_smoke, |_| Ok(()));
    assert!(healthy.ok(), "failure: {}", healthy.failure.unwrap());
}

fn pipeline_smoke() -> TaskGraph {
    let mut g = TaskGraph::new();
    let a = g.add_task("a", || {});
    let b = g.add_task("b", || {});
    g.add_edge(a, b);
    g
}
