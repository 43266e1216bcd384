//! Integration gate for the ring transport: Block backpressure
//! under a genuinely full ring, the connector's ring path end to end —
//! fault resubmission from the wait side included (retry and breaker
//! semantics unchanged) — and a seeded `argolite::explore` sweep over
//! submit/drain interleavings. Poll backpressure, per-key completion
//! order and shutdown with operations in flight are `h5lite::ring`'s own
//! unit tests.

use std::sync::Arc;

use apio::asyncvol::{AsyncVol, RetryPolicy};
use apio::h5lite::ring::{Backpressure, Ring, RingConfig, RingOp};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, FaultInjector, FaultKind, FaultOp,
    FaultPlan, Hyperslab, Layout, MemBackend, Selection, StorageBackend, ThrottledBackend, Vol,
};

#[cfg(feature = "debug-invariants")]
fn seed_count() -> u64 {
    std::env::var("APIO_EXPLORE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// A tiny Block-policy ring in front of a slow device must absorb a
/// submission burst far deeper than its capacity: submitters park until
/// the reaper frees slots, and every byte still lands.
#[test]
fn block_backpressure_absorbs_a_burst_deeper_than_the_ring() {
    let backend: Arc<dyn StorageBackend> = Arc::new(ThrottledBackend::in_memory(1e9, 2e-4));
    let ring = Ring::new(
        backend.clone(),
        RingConfig {
            capacity: 4,
            backpressure: Backpressure::Block,
            ..RingConfig::default()
        },
    );
    let n = 32u64;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (_, promise) = ring
                .submit_keyed(0, RingOp::write_raw(i * 8, vec![i as u8; 8]))
                .accepted()
                .expect("Block policy never reports Full");
            promise
        })
        .collect();
    for p in handles {
        p.wait_cloned().into_result().expect("write completes");
    }
    for i in 0..n {
        let mut buf = [0u8; 8];
        backend.read_at(i * 8, &mut buf).expect("read back");
        assert_eq!(buf, [i as u8; 8], "op {i} landed intact");
    }
}

/// Seeded schedule exploration over the submit/drain mix: four writers
/// race each other and a flush, with only the real dependency edges
/// declared. After every step the ring's occupancy accounting must hold,
/// and a completed verify step must observe all four payloads.
/// (`argolite::explore` is compiled under `debug-invariants`, like the
/// connector's own exploration gate.)
#[cfg(feature = "debug-invariants")]
#[test]
fn seeded_submit_drain_interleavings_hold_ring_invariants() {
    use apio::argolite::explore::{explore, TaskGraph};
    use std::sync::Mutex;

    let seeds = seed_count();
    // Fresh ring per schedule, shared by the tasks of that run.
    let slot: Arc<Mutex<Option<Arc<Ring>>>> = Arc::new(Mutex::new(None));
    let build = || {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
        *slot.lock().unwrap() = Some(ring.clone());
        let mut g = TaskGraph::new();
        let writers: Vec<_> = (0..4u64)
            .map(|i| {
                let ring = ring.clone();
                g.add_task(format!("submit:{i}"), move || {
                    ring.submit_keyed(i, RingOp::write_raw(i * 32, vec![i as u8 + 1; 32]))
                        .accepted()
                        .expect("Block policy")
                        .1
                        .wait_cloned()
                        .into_result()
                        .expect("write completes");
                })
            })
            .collect();
        let drain = {
            let ring = ring.clone();
            g.add_task("drain", move || ring.drain())
        };
        let verify = g.add_task("verify", move || {
            for i in 0..4u64 {
                let mut buf = [0u8; 32];
                backend.read_at(i * 32, &mut buf).expect("read back");
                assert_eq!(buf, [i as u8 + 1; 32], "payload {i} landed");
            }
        });
        for w in writers {
            g.add_edge(w, drain);
        }
        g.add_edge(drain, verify);
        g
    };
    let report = explore(seeds, build, |s| {
        let guard = slot.lock().unwrap();
        let ring = guard.as_ref().expect("build ran");
        if ring.occupancy() > ring.capacity() {
            return Err(format!(
                "occupancy {} exceeds capacity {} after `{}`",
                ring.occupancy(),
                ring.capacity(),
                s.label
            ));
        }
        Ok(())
    });
    assert!(report.ok(), "failure: {}", report.failure.unwrap());
    assert_eq!(report.seeds_run, seeds);
    assert!(
        report.distinct_orders >= 2,
        "a {seeds}-seed sweep must exercise schedule diversity, saw {}",
        report.distinct_orders
    );
}

/// The connector's task-aware ring path end to end: builder-attached
/// ring, writes submitted as ring entries, per-request wait and
/// collective wait_all, and read-after-write settlement.
#[test]
fn connector_ring_path_roundtrip() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
    let vol = AsyncVol::builder().streams(1).ring(ring).build();
    let c = Arc::new(Container::create(backend));
    let n = 8u64 * 128;
    let ds = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &Dataspace::d1(n), Layout::Contiguous)
        .expect("create dataset");
    let expected: Vec<f32> = (0..n).map(|i| (i * 3) as f32).collect();
    let mut last = None;
    for step in 0..8u64 {
        let sel = Selection::Slab(Hyperslab::range1(step * 128, 128));
        let vals = &expected[(step * 128) as usize..((step + 1) * 128) as usize];
        let bytes = apio::h5lite::datatype::to_bytes(vals);
        last = Some(vol.dataset_write(&c, ds, &sel, &bytes).expect("submit"));
    }
    // Per-request wait settles that request's ring completion.
    vol.wait(last.expect("eight writes issued")).expect("wait");
    vol.wait_all().expect("wait_all settles the rest");
    assert_eq!(vol.stats().writes, 8, "every write settled through the ring path");

    // Read-after-write through the connector settles any ring traffic
    // for the dataset before reading.
    let sel = Selection::Slab(Hyperslab::range1(0, 128));
    let back = vol
        .dataset_read(&c, ds, &sel)
        .expect("read")
        .wait()
        .expect("read data arrives");
    assert_eq!(
        back,
        apio::h5lite::datatype::to_bytes(&expected[..128]),
        "read-after-write sees settled data"
    );
}

/// Transient faults under a connector-attached ring come back inside
/// their completions and are resubmitted from the wait side with the
/// connector's backoff policy — wait_all succeeds and the data lands.
#[test]
fn connector_ring_path_resubmits_faulted_ops() {
    let plan = FaultPlan::new(9)
        .random(FaultOp::Write, 0.4, FaultKind::Transient)
        .times(4);
    let injector = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
    injector.set_armed(false);
    let backend: Arc<dyn StorageBackend> = injector.clone();
    let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
    let vol = AsyncVol::builder()
        .streams(1)
        .ring(ring)
        .retry(RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        })
        .build();
    let c = Arc::new(Container::create(backend));
    let n = 8u64 * 64;
    let ds = c
        .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(n), Layout::Contiguous)
        .expect("create dataset");
    injector.set_armed(true);
    let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    for step in 0..8u64 {
        let sel = Selection::Slab(Hyperslab::range1(step * 64, 64));
        let bytes = &expected[(step * 64) as usize..((step + 1) * 64) as usize];
        // Drained collectively by wait_all below.
        let _ = vol.dataset_write(&c, ds, &sel, bytes).expect("submit");
    }
    vol.wait_all().expect("wait-side resubmission absorbs the faults");
    injector.set_armed(false);
    assert!(injector.injected() > 0, "the plan must actually fire");
    assert!(vol.stats().retries > 0, "faulted completions count as retries");
    let back = c.read_selection(ds, &Selection::All).expect("read back");
    assert_eq!(back, expected, "no write lost through the ring path");
}
