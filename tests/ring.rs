//! Integration gate for the ring transport: a genuinely full ring
//! blocking its submitters, the connector's ring path end to end —
//! a faulted write retried by its completion hook on the reaper, under
//! the connector's retry policy and circuit breaker — the three ways a
//! write reaches a ring side by side as one table (raw segments on the
//! attached ring, raw segments on the ring the connector builds, a
//! WAL-staged job; a write settles where it lands, on each; two
//! containers on the connector's one ring, each entry naming its
//! container's device, both with a dataset of id 2, keep their own
//! bytes, prefetch slots and order; and on a device of four channels,
//! which stripes a large write itself, the later of two writes to the
//! same bytes still lands last and a failed write call is retried or is
//! the write's failure), and a seeded `argolite::explore` sweep over submit/drain
//! interleavings. Per-key completion order and shutdown with operations
//! in flight are `h5lite::ring`'s own unit tests.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apio::asyncvol::{AsyncVol, BreakerConfig, BreakerState, RetryPolicy};
use apio::h5lite::ring::{Ring, RingConfig, RingOp};
use apio::h5lite::{
    container::ROOT_ID, Call, Container, CountingBackend, Dataspace, Datatype, FaultInjector,
    FaultKind, FaultOp, FaultPlan, H5Error, Hyperslab, Layout, MemBackend, ObjectId, Request,
    Selection, StorageBackend, ThrottledBackend, Vol,
};

#[cfg(feature = "debug-invariants")]
fn seed_count() -> u64 {
    std::env::var("APIO_EXPLORE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// A tiny ring in front of a slow device must absorb a submission
/// burst far deeper than its capacity: submitters park until the reaper
/// frees slots, and every byte still lands.
#[test]
fn block_backpressure_absorbs_a_burst_deeper_than_the_ring() {
    let backend: Arc<dyn StorageBackend> = Arc::new(ThrottledBackend::in_memory(1e9, 2e-4));
    let ring = Ring::new(
        backend.clone(),
        RingConfig {
            capacity: 4,
            ..RingConfig::default()
        },
    );
    let n = 32u64;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            ring.submit_keyed(0, RingOp::write_raw(i * 8, vec![i as u8; 8]))
                .accepted()
                .expect("a full shard blocks, it never reports Full")
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
                        .expect("a full shard blocks")
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

/// Transient faults under a connector-attached ring come back to the
/// write's completion hook, which retries them on the reaper with the
/// connector's backoff policy before the next op — wait_all succeeds and
/// the data lands.
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
    vol.wait_all().expect("the completion hook's retries absorb the faults");
    injector.set_armed(false);
    assert!(injector.injected() > 0, "the plan must actually fire");
    assert!(vol.stats().retries > 0, "faulted completions count as retries");
    let back = c.read_selection(ds, &Selection::All).expect("read back");
    assert_eq!(back, expected, "no write lost through the ring path");
}

/// How the connector puts a write on a ring, one row each of the parity
/// table below.
#[derive(Clone, Copy, Debug)]
enum Transport {
    /// Raw segments on the attached ring, settled in their completion
    /// hook.
    Ring,
    /// No ring attached: raw segments on the one-shard ring the
    /// connector builds, naming the container's device, settled in their
    /// completion hook.
    Own,
    /// The ring attached and snapshots staged to a device (a second
    /// `MemBackend`): a job on the attached ring that reads its payload
    /// back from the write-ahead log, lands it and settles it.
    Staged,
}

/// What the parity device does to a write: hold it at a closed gate,
/// fail it for good while `dead`, fail the next `transient_ones` writes
/// of a payload of `1`s with a transient fault, and hold every write of
/// `1`s for 20 ms while `slow_ones`.
#[derive(Default)]
struct Script {
    closed: AtomicBool,
    dead: AtomicBool,
    transient_ones: AtomicU32,
    slow_ones: AtomicBool,
}

/// One connector over a scripted, counted device, with a dataset of
/// `len` bytes every write covers whole.
struct Parity {
    vol: AsyncVol,
    c: Arc<Container>,
    ds: ObjectId,
    len: usize,
    device: Arc<CountingBackend>,
    script: Arc<Script>,
}

impl Parity {
    /// A 64-byte dataset on a `MemBackend`: one lane.
    fn new(transport: Transport, breaker: BreakerConfig) -> Parity {
        Parity::over(transport, breaker, Arc::new(MemBackend::new()), 64)
    }

    /// A 512 KiB dataset on four channels, under a disarmed
    /// `FaultInjector` running `plan`: a write of the whole dataset is one
    /// device call, which the device stripes over its four channels.
    fn on_four_lanes(transport: Transport, plan: FaultPlan) -> (Parity, Arc<FaultInjector>) {
        let lanes = Arc::new(ThrottledBackend::with_channels(1e12, 0.0, 4));
        let injector = Arc::new(FaultInjector::new(lanes, plan));
        injector.set_armed(false);
        let p = Parity::over(transport, BreakerConfig::default(), injector.clone(), 512 << 10);
        (p, injector)
    }

    fn over(
        transport: Transport,
        breaker: BreakerConfig,
        inner: Arc<dyn StorageBackend>,
        len: usize,
    ) -> Parity {
        let script = Arc::new(Script::default());
        let s = script.clone();
        let device = CountingBackend::new(inner).with_hook(move |call| {
            let Call::Write { segments, .. } = call else {
                return Ok(());
            };
            while s.closed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            if s.dead.load(Ordering::SeqCst) {
                return Err(H5Error::Storage("dead device".into()));
            }
            let ones = segments.iter().any(|seg| seg.data.first() == Some(&1));
            if ones && s.slow_ones.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
            }
            let left = &s.transient_ones;
            let fault = |n: u32| n.checked_sub(1);
            if ones && left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, fault).is_ok() {
                return Err(H5Error::Transient("one transient fault".into()));
            }
            Ok(())
        });
        let device = Arc::new(device);
        let backend: Arc<dyn StorageBackend> = device.clone();
        let c = Arc::new(Container::create(backend.clone()));
        let space = Dataspace::d1(len as u64);
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous)
            .expect("create dataset");
        let builder = AsyncVol::builder().breaker(breaker);
        let ring = || Arc::new(Ring::new(backend, RingConfig::default()));
        let vol = match transport {
            Transport::Ring => builder.ring(ring()),
            Transport::Own => builder,
            Transport::Staged => builder.ring(ring()).stage_to_device(Arc::new(MemBackend::new())),
        }
        .build();
        Parity { vol, c, ds, len, device, script }
    }

    /// Issue a write of `len` × `byte` over the whole dataset.
    fn write(&self, byte: u8) -> apio::h5lite::Result<Request> {
        self.vol.dataset_write(&self.c, self.ds, &Selection::All, &vec![byte; self.len])
    }

    /// Write calls the device has been asked, scalar and vectored.
    fn device_writes(&self) -> u64 {
        let n = self.device.counts();
        n.writes + n.write_batches
    }

    /// Issue a write of `byte` and return once it is inside the device,
    /// held at the closed gate.
    fn write_held(&self, byte: u8) -> Request {
        self.script.closed.store(true, Ordering::SeqCst);
        let before = self.device_writes();
        let req = self.write(byte).expect("issue");
        while self.device_writes() == before {
            std::thread::yield_now();
        }
        req
    }

    /// Spin until nothing is queued on the connector's rings — every
    /// write has landed — without waiting on any request.
    fn landed(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.vol.stats().queued != 0 {
            assert!(Instant::now() < deadline, "writes still queued after 10 s");
            std::thread::yield_now();
        }
    }

    fn contents(&self) -> Vec<u8> {
        self.c.read_selection(self.ds, &Selection::All).expect("read back")
    }
}

impl Drop for Parity {
    /// A cell that fails with the gate closed must not leave its writes
    /// parked in the device while the connector joins its threads.
    fn drop(&mut self) {
        self.script.closed.store(false, Ordering::SeqCst);
    }
}

/// Write A (all `1`s) is inside the device when B (all `2`s, the same
/// bytes) is issued; A then fails once with a transient fault. B was
/// issued last, so after `finish` B's bytes must be what the dataset
/// holds: A's retry has to land before B does, not behind it.
fn lost_update(t: Transport, finish: fn(&Parity, Request, Request) -> Vec<u8>) {
    let p = Parity::new(t, BreakerConfig::default());
    p.script.transient_ones.store(1, Ordering::SeqCst);
    a_retry_lands_before_b(&p, t, finish);
    assert_eq!(p.script.transient_ones.load(Ordering::SeqCst), 0, "the fault fired");
}

/// [`lost_update`]'s race on `p`, whose device fails A once.
fn a_retry_lands_before_b(p: &Parity, t: Transport, finish: fn(&Parity, Request, Request) -> Vec<u8>) {
    let a = p.write_held(1);
    let b = p.write(2).expect("issue B");
    p.script.closed.store(false, Ordering::SeqCst);
    assert_eq!(finish(p, a, b), vec![2u8; p.len], "{t:?}: A's retry overwrote the later B");
}

fn lost_update_wait_all(t: Transport) {
    lost_update(t, |p, _, _| {
        p.vol.wait_all().expect("A is retried, B lands");
        p.contents()
    });
}

fn lost_update_waits_in_reverse(t: Transport) {
    lost_update(t, |p, a, b| {
        p.vol.wait(b).expect("B lands");
        p.vol.wait(a).expect("A is retried");
        p.contents()
    });
}

fn lost_update_read_after_write(t: Transport) {
    lost_update(t, |p, _, _| {
        let back = p.vol.dataset_read(&p.c, p.ds, &Selection::All).expect("read");
        let back = back.wait().expect("read data arrives");
        p.vol.wait_all().expect("A is retried, B lands");
        back
    });
}

/// On four channels, a held write keeps the ring's reaper busy while A
/// (`1`s) and then B (`2`s, the same bytes) are queued, so one reaper
/// pass holds both. A call holding A takes 20 ms to land, one of B alone
/// none: if the pass's writes went to the device apart and together, A
/// would land last.
fn lanes_the_later_of_two_same_byte_writes_lands(t: Transport) {
    let (p, _) = Parity::on_four_lanes(t, FaultPlan::new(0));
    p.script.slow_ones.store(true, Ordering::SeqCst);
    let _ = p.write_held(3);
    let _ = p.write(1).expect("issue A");
    let _ = p.write(2).expect("issue B");
    p.script.closed.store(false, Ordering::SeqCst);
    p.vol.wait_all().expect("all three land");
    assert_eq!(p.contents(), vec![2u8; p.len], "{t:?}: A landed after the later B");
}

/// [`lost_update`] on four channels: A's write call fails once under a
/// `FaultInjector`; the write's retry lands A whole before B.
fn lanes_a_transient_write_fault_is_retried_before_the_next_write(t: Transport) {
    let plan = FaultPlan::new(0).fail_at(FaultOp::Write, 0, FaultKind::Transient);
    let (p, injector) = Parity::on_four_lanes(t, plan);
    injector.set_armed(true);
    a_retry_lands_before_b(&p, t, |p, _, _| {
        p.vol.wait_all().expect("A is retried, B lands");
        p.contents()
    });
    assert_eq!(injector.injected(), 1, "one write call failed");
}

/// On four channels, a write's call fails for good: the write fails,
/// and `wait_all` reports it.
fn lanes_a_persistent_write_failure_fails_the_write(t: Transport) {
    let plan = FaultPlan::new(0).fail_at(FaultOp::Write, 0, FaultKind::Persistent);
    let (p, injector) = Parity::on_four_lanes(t, plan);
    injector.set_armed(true);
    let _ = p.write(1).expect("issue");
    let err = p.vol.wait_all().expect_err("the failed call fails the write").to_string();
    assert!(err.contains("1 background operation(s) failed"), "{t:?}: {err}");
    assert_eq!(injector.injected(), 1, "one write call failed");
}

/// Two failures on a dead device open a `failure_threshold: 2` breaker as
/// they land, with no wait; the next write then runs degraded, on the
/// caller's thread, and fails at issue.
fn dead_device_trips_the_breaker(t: Transport) {
    let p = Parity::new(t, BreakerConfig { failure_threshold: 2, probe_after: 100 });
    p.script.dead.store(true, Ordering::SeqCst);
    for byte in [1, 2] {
        // Held, and reported, by wait_all below.
        let _ = p.write(byte).expect("issued while the breaker is closed");
    }
    p.landed();
    let state = p.vol.breaker_state();
    assert_eq!(state, BreakerState::Open, "{t:?}: the breaker missed two landed failures");
    assert!(p.write(3).is_err(), "{t:?}: a degraded write on a dead device fails at issue");
    let err = p.vol.wait_all().expect_err("both background failures are held").to_string();
    assert!(err.contains("2 background operation(s) failed"), "{err}");
}

/// A half-open probe that lands on a healed device closes the breaker as
/// it lands, with no wait: the next write is a background one again.
fn healed_probe_closes_the_breaker(t: Transport) {
    let p = Parity::new(t, BreakerConfig { failure_threshold: 1, probe_after: 1 });
    p.script.dead.store(true, Ordering::SeqCst);
    let req = p.write(1).expect("issue");
    assert!(p.vol.wait(req).is_err(), "the dead device fails the write");
    assert_eq!(p.vol.breaker_state(), BreakerState::Open);
    p.script.dead.store(false, Ordering::SeqCst);
    let probe = p.write(2).expect("the probe");
    assert!(!probe.is_sync(), "the probe runs in the background");
    p.landed();
    let state = p.vol.breaker_state();
    assert_eq!(state, BreakerState::Closed, "{t:?}: the landed probe did not close the breaker");
    let next = p.write(3).expect("issue");
    assert!(!next.is_sync(), "{t:?}: the write after the probe ran degraded");
    p.vol.wait_all().expect("every write lands");
    assert_eq!(p.vol.stats().degraded_writes, 0);
    assert_eq!(p.contents(), vec![3u8; 64]);
}

/// `stats().writes` counts a write when it lands, not when it is waited
/// for: zero while the write is held in the device, one once it has
/// landed, and the wait adds nothing.
fn a_write_counts_once_it_has_landed(t: Transport) {
    let p = Parity::new(t, BreakerConfig::default());
    let req = p.write_held(1);
    assert_eq!(p.vol.stats().writes, 0, "{t:?}: counted before it landed");
    p.script.closed.store(false, Ordering::SeqCst);
    p.landed();
    assert_eq!(p.vol.stats().writes, 1, "{t:?}: a landed write is not counted until its wait");
    p.vol.wait(req).expect("the write landed");
    assert_eq!(p.vol.stats().writes, 1, "the wait counts nothing more");
}

/// A second container beside `p`'s on the same connector, on its own
/// `MemBackend`, with a 64-byte dataset `x` — the same id as `p.ds`: an
/// `ObjectId` is unique only within its container.
fn second_tenant(p: &Parity) -> Arc<Container> {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let b = Arc::new(Container::create(backend));
    let ds = b
        .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(64), Layout::Contiguous)
        .expect("create dataset");
    assert_eq!(ds, p.ds, "both datasets are id {}", p.ds);
    b
}

/// Two containers write their id-2 datasets through one connector; after
/// `wait_all` each reads back its own bytes.
fn two_tenants_keep_their_own_bytes(t: Transport) {
    let p = Parity::new(t, BreakerConfig::default());
    let b = second_tenant(&p);
    // Both held, and reported, by wait_all below.
    let _ = p.write(1).expect("issue A");
    let _ = p.vol.dataset_write(&b, p.ds, &Selection::All, &[2; 64]).expect("issue B");
    p.vol.wait_all().expect("both land");
    assert_eq!(p.contents(), vec![1u8; 64], "{t:?}: A holds B's write");
    let back = b.read_selection(p.ds, &Selection::All).expect("read B");
    assert_eq!(back, vec![2u8; 64], "{t:?}: B's write landed elsewhere");
}

/// A prefetch of A's dataset is never B's hit: B's read of its own id-2
/// dataset returns B's bytes, cold.
fn a_prefetch_is_not_another_tenants_hit(t: Transport) {
    let p = Parity::new(t, BreakerConfig::default());
    let b = second_tenant(&p);
    let _ = p.write(1).expect("issue A");
    let _ = p.vol.dataset_write(&b, p.ds, &Selection::All, &[2; 64]).expect("issue B");
    p.vol.wait_all().expect("both land");
    let _ = p.vol.prefetch(&p.c, p.ds, &Selection::All);
    let back = p.vol.dataset_read(&b, p.ds, &Selection::All).expect("read B");
    assert_eq!(back.wait().expect("B's bytes"), vec![2u8; 64], "{t:?}: B read A's prefetch");
    assert_eq!(p.vol.stats().prefetch_hits, 0, "{t:?}: A's slot served B");
    p.vol.wait_all().expect("the prefetch lands");
}

/// While A's write is held in A's device, B's cold read of its own id-2
/// dataset has nothing to wait for: it returns within 2 s. A channel
/// with a deadline, so a read stuck behind A's write fails the cell.
fn a_cold_read_does_not_wait_for_another_tenant(t: Transport) {
    let p = Parity::new(t, BreakerConfig::default());
    let b = second_tenant(&p);
    let req = p.vol.dataset_write(&b, p.ds, &Selection::All, &[2; 64]).expect("issue B");
    p.vol.wait(req).expect("B lands");
    let _ = p.write_held(1);
    let (tx, rx) = std::sync::mpsc::channel();
    let read = std::thread::scope(|s| {
        s.spawn(|| {
            let back = p.vol.dataset_read(&b, p.ds, &Selection::All).and_then(|r| r.wait());
            let _ = tx.send(back);
        });
        let read = rx.recv_timeout(Duration::from_secs(2));
        p.script.closed.store(false, Ordering::SeqCst);
        read
    });
    let back = read.expect("B's cold read blocked behind A's held write");
    assert_eq!(back.expect("read B"), vec![2u8; 64]);
    p.vol.wait_all().expect("A lands");
}

/// One parity case, run once per transport.
type Case = fn(Transport);

/// Transport parity, as one table: every case is one row per transport,
/// and each must hold on all three — a write's retry, breaker outcome
/// and counters happen when it lands, on the reaper that landed it.
/// Every case applies to every row. Every cell runs, and the table is
/// printed, before the verdict.
#[test]
fn both_transports_settle_a_write_where_it_lands() {
    let cases: [(&str, Case); 12] = [
        ("lost update: wait_all", lost_update_wait_all),
        ("lost update: wait(B) then wait(A)", lost_update_waits_in_reverse),
        ("lost update: read after write", lost_update_read_after_write),
        ("dead device trips the breaker before any wait", dead_device_trips_the_breaker),
        ("healed probe closes the breaker before any wait", healed_probe_closes_the_breaker),
        ("stats().writes counts a write once it has landed", a_write_counts_once_it_has_landed),
        ("two tenants: each reads back its own bytes", two_tenants_keep_their_own_bytes),
        ("two tenants: A's prefetch is never B's hit", a_prefetch_is_not_another_tenants_hit),
        ("two tenants: B's cold read skips A's held write", a_cold_read_does_not_wait_for_another_tenant),
        ("lanes: the later of two same-byte writes lands", lanes_the_later_of_two_same_byte_writes_lands),
        ("lanes: a transient write fault, retried before B", lanes_a_transient_write_fault_is_retried_before_the_next_write),
        ("lanes: a failed write call fails the write", lanes_a_persistent_write_failure_fails_the_write),
    ];
    let mut failed = Vec::new();
    for (name, case) in cases {
        for t in [Transport::Ring, Transport::Own, Transport::Staged] {
            let ok = std::panic::catch_unwind(|| case(t)).is_ok();
            let row = format!("{t:?}");
            eprintln!("parity | {name:<48} | {row:<6} | {}", if ok { "ok" } else { "FAILED" });
            if !ok {
                failed.push(format!("{name} [{t:?}]"));
            }
        }
    }
    assert!(failed.is_empty(), "transport parity cells failed: {failed:?}");
}

/// 16 contiguous writes on the ring the connector builds, the first held inside
/// the device at a closed gate and the other 15 queued behind it: once
/// the gate opens, the reaper lands the 15 in one pass, so the 16 take
/// fewer than 16 write calls. A write is raw segments on any ring unless
/// its plan sieves.
#[test]
fn an_own_ring_coalesces_the_writes_queued_behind_a_held_one() {
    let p = Parity::new(Transport::Own, BreakerConfig::default());
    let before = p.device_writes();
    let _ = p.write_held(0);
    for byte in 1..16 {
        let _ = p.write(byte).expect("issue");
    }
    p.script.closed.store(false, Ordering::SeqCst);
    p.vol.wait_all().expect("all 16 land");
    let calls = p.device_writes() - before;
    assert!(calls < 16, "16 writes queued on an own ring took {calls} write calls");
    assert_eq!(p.contents(), vec![15u8; 64], "the last write issued landed last");
}

/// A strided write whose plan sieves is a job that lands it through the
/// container's sieved path, on the attached ring as on the one the
/// connector builds: the device sees the same reads, write calls and
/// segments.
#[test]
fn a_sieving_write_makes_the_same_device_calls_on_either_ring() {
    let calls = |attached: bool| {
        let device = Arc::new(CountingBackend::new(Arc::new(MemBackend::new())));
        let backend: Arc<dyn StorageBackend> = device.clone();
        let c = Arc::new(Container::create(backend.clone()));
        let space = Dataspace::d1(4096);
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous)
            .expect("create dataset");
        c.write_selection(ds, &Selection::All, &[0; 4096]).expect("prefill");
        let vol = match attached {
            true => AsyncVol::builder().ring(Arc::new(Ring::new(backend, RingConfig::default()))),
            false => AsyncVol::builder(),
        }
        .build();
        // One-byte runs 4 bytes apart: a sieve reads them as one span.
        let sel = Selection::Slab(Hyperslab::strided(&[0], &[512], &[4]));
        let before = device.counts();
        let _ = vol.dataset_write(&c, ds, &sel, &[7; 512]).expect("issue");
        vol.wait_all().expect("the write lands");
        let n = device.counts() - before;
        (n.reads + n.read_batches, n.writes + n.write_batches, n.segments)
    };
    let (own, attached) = (calls(false), calls(true));
    assert!(own.0 > 0, "the write sieved: (reads, write calls, segments) = {own:?}");
    assert_eq!(attached, own, "(reads, write calls, segments) on the attached ring vs an own one");
}

/// Container A is closed by its user while its raw writes are held at a
/// gated device. Each entry holds its container until it has settled, so
/// A stays open, and a tenant, until they land:
/// - on either ring, container B's first write — which retires the
///   records of closed containers — returns within 2 s: a record holds
///   no ring, so retiring one drains and joins nothing inside the
///   connector's lock, and B's entry only queues behind A's on the
///   shared shard;
/// - on either ring, A's close flushes after its writes have landed, so
///   the checksums it stamps cover them and the reopened file reads them
///   back verified.
fn a_closed_container_outlives_its_held_raw_writes(attached: bool) {
    let closed = Arc::new(AtomicBool::new(false));
    let gate = closed.clone();
    let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        if let Call::Write { .. } = call {
            while gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        Ok(())
    });
    let device = Arc::new(device);
    let backend: Arc<dyn StorageBackend> = device.clone();
    let a = Arc::new(Container::create(backend.clone()));
    let space = Dataspace::d1(64);
    let ds = a
        .create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous)
        .expect("create A's dataset");
    let vol = match attached {
        true => AsyncVol::builder().ring(Arc::new(Ring::new(backend, RingConfig::default()))),
        false => AsyncVol::builder(),
    }
    .build();
    closed.store(true, Ordering::SeqCst);
    let before = device.counts();
    for byte in 1..=4 {
        let _ = vol.dataset_write(&a, ds, &Selection::All, &[byte; 64]).expect("issue A");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while (device.counts() - before).write_batches == 0 {
        assert!(Instant::now() < deadline, "A's first write never reached the device");
        std::thread::yield_now();
    }

    let b = Arc::new(Container::create_mem());
    let ds_b = b
        .create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous)
        .expect("create B's dataset");
    let (tx, rx) = std::sync::mpsc::channel();
    let issued = std::thread::scope(|s| {
        // Closing A returns at once, or flushes A and blocks at the gate:
        // that flush's write is a second write call inside the device.
        let closer = s.spawn(move || drop(a));
        let calls = || {
            let n = device.counts() - before;
            n.writes + n.write_batches
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while !closer.is_finished() && calls() < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        s.spawn(|| {
            let _ = tx.send(vol.dataset_write(&b, ds_b, &Selection::All, &[9; 64]));
        });
        let issued = rx.recv_timeout(Duration::from_secs(2));
        closed.store(false, Ordering::SeqCst);
        issued
    });
    let _ = issued.expect("B's write blocked behind A's held writes").expect("issue B");
    vol.wait_all().expect("A's and B's writes land");
    let a = Container::open(device).expect("reopen A");
    assert_eq!(a.read_selection(ds, &Selection::All).expect("read A"), vec![4u8; 64]);
}

#[test]
fn a_closed_container_outlives_its_held_raw_writes_on_its_own_ring() {
    a_closed_container_outlives_its_held_raw_writes(false);
}

#[test]
fn a_closed_container_outlives_its_held_raw_writes_on_the_attached_ring() {
    a_closed_container_outlives_its_held_raw_writes(true);
}
