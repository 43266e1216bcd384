//! The prefetch slot: a hit hands over elements the background job
//! decoded, a write drops the dataset's slots, and faults in a prefetched
//! read reach the caller through the read that takes it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use asyncvol::{AsyncVol, BreakerConfig, BreakerState, RetryPolicy};
use h5lite::container::ROOT_ID;
use h5lite::datatype::{from_bytes, to_bytes};
use h5lite::ring::{Ring, RingConfig};
use h5lite::{
    Call, Container, CountingBackend, Dataspace, Datatype, FaultInjector, FaultKind, FaultOp,
    FaultPlan, File, H5Error, H5Type, Hyperslab, Layout, MemBackend, ObjectId, Selection,
    StorageBackend, Vol,
};

const LEN: u64 = 100;

/// Elements 5..85: a partial first and last chunk under `chunk_elems` 16.
fn slab() -> Hyperslab {
    Hyperslab::range1(5, 80)
}

/// One `T` dataset per layout holding every bit pattern the byte ramp
/// makes, NaNs included, written and flushed (so reads verify) through
/// the native connector.
fn native_file<T: H5Type>() -> File {
    let file = File::create_in_memory().unwrap();
    let bytes: Vec<u8> = (0..LEN as usize * T::DTYPE.size())
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let data = from_bytes::<T>(&bytes).unwrap();
    for (name, layout) in [
        ("contig", Layout::Contiguous),
        ("chunked", Layout::Chunked1D { chunk_elems: 16 }),
    ] {
        let ds = file
            .root()
            .create_dataset_with_layout::<T>(name, &Dataspace::d1(LEN), layout)
            .unwrap();
        ds.write(&data).unwrap();
    }
    file.flush().unwrap();
    file
}

/// A prefetch hit and a cold read through `AsyncVol`, on both layouts,
/// give what a `NativeVol` read gives — as `Vec<T>` through the typed
/// API, and as bytes through `ReadRequest::wait`.
fn hit_and_cold_read_match_native<T: H5Type>() {
    let native = native_file::<T>();
    let vol = Arc::new(AsyncVol::new());
    let file = File::from_parts(native.container().clone(), vol.clone());
    let sel = Selection::Slab(slab());
    for name in ["contig", "chunked"] {
        let what = format!("{} {name}", T::DTYPE.name());
        let want_ds = native.root().open_dataset(name).unwrap();
        let want = to_bytes(&want_ds.read_slab::<T>(&slab()).unwrap());
        assert_eq!(want, want_ds.read_async(&sel).unwrap().wait().unwrap());
        let ds = file.root().open_dataset(name).unwrap();

        let cold = ds.read_slab::<T>(&slab()).unwrap();
        assert_eq!(to_bytes(&cold), want, "{what}: cold read");

        let hits = vol.stats().prefetch_hits;
        let _ = vol.prefetch(file.container(), ds.id(), &sel);
        let hit = ds.read_slab::<T>(&slab()).unwrap();
        assert_eq!(to_bytes(&hit), want, "{what}: prefetch hit");

        let _ = vol.prefetch(file.container(), ds.id(), &sel);
        let as_bytes = ds.read_async(&sel).unwrap().wait().unwrap();
        assert_eq!(as_bytes, want, "{what}: prefetch hit taken as bytes");
        assert_eq!(vol.stats().prefetch_hits, hits + 2, "{what}");
    }
    assert_eq!(vol.stats().blocking_reads, 2);
}

#[test]
fn every_datatype_reads_the_same_through_a_hit_a_cold_read_and_native() {
    hit_and_cold_read_match_native::<u8>();
    hit_and_cold_read_match_native::<i8>();
    hit_and_cold_read_match_native::<u16>();
    hit_and_cold_read_match_native::<i16>();
    hit_and_cold_read_match_native::<u32>();
    hit_and_cold_read_match_native::<i32>();
    hit_and_cold_read_match_native::<u64>();
    hit_and_cold_read_match_native::<i64>();
    hit_and_cold_read_match_native::<f32>();
    hit_and_cold_read_match_native::<f64>();
}

/// A flushed `f64` dataset on a fault injector (disarmed), opened
/// through `vol`.
fn faulty_file(plan: FaultPlan, vol: Arc<AsyncVol>) -> (Arc<FaultInjector>, File) {
    let inj = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
    inj.set_armed(false);
    let file = File::from_parts(Arc::new(Container::create(inj.clone())), vol);
    let ds = file
        .root()
        .create_dataset::<f64>("x", &Dataspace::d1(LEN))
        .unwrap();
    ds.write(&(0..LEN).map(|i| i as f64).collect::<Vec<_>>())
        .unwrap();
    file.flush().unwrap();
    (inj, file)
}

#[test]
fn a_bit_flip_in_a_prefetched_extent_fails_the_read_as_corrupt() {
    let vol = Arc::new(AsyncVol::new());
    let plan = FaultPlan::new(0xF11B).fail_after(FaultOp::Read, 0, FaultKind::Corrupt);
    let (inj, file) = faulty_file(plan, vol.clone());
    let ds = file.root().open_dataset("x").unwrap();
    inj.set_armed(true);
    let _ = vol.prefetch(file.container(), ds.id(), &Selection::Slab(slab()));
    let err = ds.read_slab::<f64>(&slab()).unwrap_err();
    assert!(matches!(err, H5Error::Corrupt(_)), "{err:?}");
    assert_eq!(vol.stats().prefetch_hits, 1);
    assert!(file.container().integrity_stats().checksum_failures >= 1);
    assert!(inj.injected() >= 1);
}

#[test]
fn a_prefetch_out_of_retries_reports_on_the_read_once() {
    let vol = Arc::new(
        AsyncVol::builder()
            .retry(RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .build(),
    );
    // One transient fault per attempt, and no more.
    let plan = FaultPlan::new(7)
        .fail_after(FaultOp::Read, 0, FaultKind::Transient)
        .times(3);
    let (inj, file) = faulty_file(plan, vol.clone());
    let ds = file.root().open_dataset("x").unwrap();
    inj.set_armed(true);
    let _ = vol.prefetch(file.container(), ds.id(), &Selection::All);
    let err = ds.read::<f64>().unwrap_err();
    assert!(
        err.is_retryable(),
        "the last attempt's error, as it was: {err:?}"
    );
    assert_eq!(inj.injected(), 3);
    assert_eq!(vol.stats().retries, 2);
    // Reported once: neither the drain nor the next read sees it again.
    file.wait_all().unwrap();
    assert_eq!(
        ds.read::<f64>().unwrap(),
        (0..LEN).map(|i| i as f64).collect::<Vec<_>>()
    );
    let s = vol.stats();
    assert_eq!((s.prefetch_hits, s.blocking_reads), (1, 1));
}

// ----- a write drops the dataset's prefetch slots --------------------

/// How the second write of [`a_write_drops_the_prefetch_slot`] is issued.
#[derive(Clone, Copy, Debug)]
enum Regime {
    /// No ring attached: raw segments on the ring the connector builds,
    /// naming the container's device.
    Task,
    /// Raw segments on the attached ring.
    Ring,
    /// Inline, with the circuit breaker open.
    Degraded,
}

/// One `u8` dataset of 64 elements in memory, and a connector in
/// `regime`. Under `Degraded` a first write is made to hit a device
/// fault, which opens the breaker for good.
fn stack(regime: Regime) -> (AsyncVol, Arc<Container>, ObjectId) {
    let mem: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let plan = FaultPlan::new(1).fail_at(FaultOp::Write, 0, FaultKind::Persistent);
    let inj = Arc::new(FaultInjector::new(mem.clone(), plan));
    inj.set_armed(false);
    let vol = match regime {
        Regime::Task => AsyncVol::new(),
        Regime::Ring => AsyncVol::builder()
            .ring(Arc::new(Ring::new(mem.clone(), RingConfig::default())))
            .build(),
        Regime::Degraded => AsyncVol::builder()
            .retry(RetryPolicy::none())
            .breaker(BreakerConfig {
                failure_threshold: 1,
                probe_after: u32::MAX,
            })
            .build(),
    };
    let backend: Arc<dyn StorageBackend> = match regime {
        Regime::Degraded => inj.clone(),
        _ => mem,
    };
    let c = Arc::new(Container::create(backend));
    let ds = vol
        .dataset_create(
            &c,
            ROOT_ID,
            "x",
            Datatype::U8,
            &Dataspace::d1(64),
            Layout::Contiguous,
        )
        .unwrap();
    if let Regime::Degraded = regime {
        inj.set_armed(true);
        let req = vol
            .dataset_write(&c, ds, &Selection::All, &[0; 64])
            .unwrap();
        assert!(vol.wait(req).is_err());
        assert_eq!(vol.breaker_state(), BreakerState::Open);
    }
    (vol, c, ds)
}

/// Write 1s, prefetch, write 2s, read: the read sees the 2s, like a cold
/// read at the same point — first with the prefetch finished before the
/// second write, then with it possibly still in flight.
fn a_write_drops_the_prefetch_slot(regime: Regime) {
    let (vol, c, ds) = stack(regime);
    for (round, settle_prefetch) in [(1u8, true), (3, false)] {
        let first = vol
            .dataset_write(&c, ds, &Selection::All, &[round; 64])
            .unwrap();
        vol.wait(first).unwrap();
        let _ = vol.prefetch(&c, ds, &Selection::All);
        if settle_prefetch {
            vol.wait_all().unwrap();
        }
        let second = vol
            .dataset_write(&c, ds, &Selection::All, &[round + 1; 64])
            .unwrap();
        vol.wait(second).unwrap();
        let back = vol
            .dataset_read(&c, ds, &Selection::All)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            back,
            [round + 1; 64],
            "{regime:?}, round {round}: the slot predates the write"
        );
    }
    vol.wait_all().unwrap();
    let s = vol.stats();
    assert_eq!(
        (s.prefetches, s.prefetch_hits, s.blocking_reads),
        (2, 0, 2),
        "{regime:?}"
    );
    if let Regime::Degraded = regime {
        assert_eq!(s.degraded_writes, 4);
    }
}

#[test]
fn a_task_write_drops_the_prefetch_slot() {
    a_write_drops_the_prefetch_slot(Regime::Task);
}

#[test]
fn a_ring_write_drops_the_prefetch_slot() {
    a_write_drops_the_prefetch_slot(Regime::Ring);
}

#[test]
fn a_degraded_write_drops_the_prefetch_slot() {
    a_write_drops_the_prefetch_slot(Regime::Degraded);
}

/// A write to another dataset leaves the slot warm.
#[test]
fn a_write_elsewhere_keeps_the_prefetch_slot() {
    let (vol, c, ds) = stack(Regime::Task);
    let other = vol
        .dataset_create(
            &c,
            ROOT_ID,
            "y",
            Datatype::U8,
            &Dataspace::d1(64),
            Layout::Contiguous,
        )
        .unwrap();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[5; 64])
        .unwrap();
    vol.wait(req).unwrap();
    let _ = vol.prefetch(&c, ds, &Selection::All);
    let req = vol
        .dataset_write(&c, other, &Selection::All, &[6; 64])
        .unwrap();
    vol.wait(req).unwrap();
    assert_eq!(
        vol.dataset_read(&c, ds, &Selection::All)
            .unwrap()
            .wait()
            .unwrap(),
        [5; 64]
    );
    assert_eq!(vol.stats().prefetch_hits, 1);
}

/// A prefetch is a job in its dataset's ring FIFO, so the caller does not
/// wait out the writes queued before it. On a device holding every write
/// at a closed gate, 4 attached-ring writes to the dataset are in flight;
/// the prefetch call must return within 2 s (a channel with a deadline,
/// so a call stuck behind the writes fails the test rather than hanging
/// it), and once the gate opens its hit holds all 4 writes' bytes.
#[test]
fn a_prefetch_behind_held_ring_writes_returns_before_they_land() {
    const WRITES: u8 = 4;
    let closed = Arc::new(AtomicBool::new(true));
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
    let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
    let vol = AsyncVol::builder().ring(ring.clone()).build();
    let c = Arc::new(Container::create(backend));
    let len = 16 * u64::from(WRITES);
    let ds = c
        .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(len), Layout::Contiguous)
        .unwrap();
    for w in 1..=WRITES {
        let sel = Selection::Slab(Hyperslab::range1(16 * u64::from(w - 1), 16));
        let _ = vol.dataset_write(&c, ds, &sel, &[w; 16]).unwrap();
    }
    while device.counts().write_batches == 0 {
        std::thread::yield_now();
    }
    assert_eq!(ring.occupancy(), usize::from(WRITES), "all 4 writes are held");

    let (tx, rx) = std::sync::mpsc::channel();
    let returned = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = tx.send(vol.prefetch(&c, ds, &Selection::All));
        });
        let returned = rx.recv_timeout(Duration::from_secs(2));
        closed.store(false, Ordering::SeqCst);
        returned
    });
    let req = returned.expect("the prefetch call waited for the held ring writes");
    assert!(!req.is_sync(), "a background read was issued");
    let hit = vol.dataset_read(&c, ds, &Selection::All).unwrap().wait().unwrap();
    let after: Vec<u8> = (1..=WRITES).flat_map(|w| [w; 16]).collect();
    assert_eq!(hit, after, "the hit predates a write queued before it");
    assert_eq!(vol.stats().prefetch_hits, 1);
    vol.wait_all().unwrap();
}

/// A prefetch whose device read panics still fills its slot: `wait_all`
/// reports the panic once, and the read that takes the slot gets an
/// error within 2 s instead of blocking for ever (a channel with a
/// deadline, so a read stuck on an empty slot fails the test rather than
/// hanging it).
#[test]
fn a_panicked_prefetch_fails_the_read_that_takes_its_slot() {
    let panicking = Arc::new(AtomicBool::new(false));
    let armed = panicking.clone();
    let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        if matches!(call, Call::Read { .. }) && armed.load(Ordering::SeqCst) {
            panic!("device read panicked (expected by the test)");
        }
        Ok(())
    });
    let vol = Arc::new(AsyncVol::new());
    let file = File::from_parts(Arc::new(Container::create(Arc::new(device))), vol.clone());
    let ds = file
        .root()
        .create_dataset::<f64>("x", &Dataspace::d1(LEN))
        .unwrap();
    ds.write(&vec![1.0; LEN as usize]).unwrap();
    file.flush().unwrap();
    panicking.store(true, Ordering::SeqCst);
    let _ = vol.prefetch(file.container(), ds.id(), &Selection::All);
    let err = vol.wait_all().unwrap_err().to_string();
    assert_eq!(err.matches("prefetch panicked").count(), 1, "{err}");
    assert!(err.contains("device read panicked"), "{err}");
    panicking.store(false, Ordering::SeqCst);

    let (tx, rx) = std::sync::mpsc::channel();
    let (c, id) = (file.container().clone(), ds.id());
    let reader = vol.clone();
    let reading = std::thread::spawn(move || {
        let read = reader.dataset_read(&c, id, &Selection::All).and_then(|r| r.wait());
        let _ = tx.send(read);
    });
    let read = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the read that took the panicked prefetch's slot never returned");
    reading.join().unwrap();
    assert!(matches!(read, Err(H5Error::Async(_))), "{read:?}");
    assert_eq!(vol.stats().prefetch_hits, 1);
    vol.wait_all().unwrap();
}
