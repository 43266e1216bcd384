//! Thread bound and spread of the connector: its reaper threads are its
//! ring's shards, however many containers it serves — the process-wide
//! execution streams of the HDF5 async VOL, not a ring per open file —
//! and the containers' entries spread over those shards.
//!
//! A binary of its own: the thread count is the process's, so another
//! binary's rings, or the harness running this binary's two tests side by
//! side, would skew it. Each test therefore holds [`ALONE`] throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use apio::asyncvol::AsyncVol;
use apio::h5lite::{
    container::ROOT_ID, Call, Container, CountingBackend, Dataspace, Datatype, Layout, MemBackend,
    Selection, Vol,
};

/// Held by each test for its whole run, so one test's reapers are never
/// counted by the other.
static ALONE: Mutex<()> = Mutex::new(());

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// 16 open containers, each on its own device with one write waited for,
/// on a connector of 2 streams: at most 2 new threads.
#[test]
fn sixteen_open_containers_add_only_the_rings_reapers() {
    const STREAMS: usize = 2;
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let before = threads();
    let vol = AsyncVol::builder().streams(STREAMS).build();
    let open: Vec<Arc<Container>> = (0..16u8)
        .map(|i| {
            let c = Arc::new(Container::create(Arc::new(MemBackend::new())));
            let ds = c
                .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(64), Layout::Contiguous)
                .expect("create dataset");
            let req = vol.dataset_write(&c, ds, &Selection::All, &[i; 64]).expect("issue");
            vol.wait(req).expect("the write lands");
            c
        })
        .collect();
    let added = threads().saturating_sub(before);
    println!("{} open containers, streams({STREAMS}): {added} new thread(s)", open.len());
    assert!(added <= STREAMS, "{} open containers added {added} threads", open.len());
}

/// Two containers on a connector of 2 streams, each on its own device,
/// whose writes wait at one closed gate, and one write to each one's first
/// dataset — the same id in both. The two writes are keyed to different
/// shards, so both devices have a write in flight before the gate opens;
/// on one shard the second would wait behind the first.
#[test]
fn the_same_dataset_of_two_containers_writes_on_two_streams_at_once() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let vol = AsyncVol::builder().streams(2).build();
    let closed = Arc::new(AtomicBool::new(false));
    let tenants: Vec<_> = (1..=2u8)
        .map(|byte| {
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
            let c = Arc::new(Container::create(device.clone()));
            let ds = c
                .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(64), Layout::Contiguous)
                .expect("create dataset");
            (byte, device, c, ds)
        })
        .collect();
    assert_eq!(tenants[0].3, tenants[1].3, "both first datasets have one id");

    closed.store(true, Ordering::SeqCst);
    let issued: Vec<_> = tenants
        .iter()
        .map(|(byte, device, c, ds)| {
            let before = device.counts();
            let req = vol.dataset_write(c, *ds, &Selection::All, &[*byte; 64]).expect("issue");
            (device, before, req)
        })
        .collect();
    let in_flight = || {
        let calls = issued.iter().map(|(device, before, _)| device.counts() - *before);
        calls.filter(|n| n.writes + n.write_batches > 0).count()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while in_flight() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let seen = in_flight();
    closed.store(false, Ordering::SeqCst);
    for (_, _, req) in issued {
        vol.wait(req).expect("the write lands");
    }
    for (byte, _, c, ds) in &tenants {
        assert_eq!(c.read_selection(*ds, &Selection::All).expect("read back"), [*byte; 64]);
    }
    println!("streams(2): {seen} of 2 devices had a write in flight before the gate opened");
    assert_eq!(seen, 2, "{seen} of 2 devices had a write in flight before the gate opened");
}
