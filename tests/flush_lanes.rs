//! The flush's read-back lanes take no named lock (ISSUE 21): across a
//! flush that fans sixteen 2 MiB read-backs out over scoped threads, the
//! process-wide named-lock counter moves by exactly what the flushing
//! thread itself took. `hash_extent` and `recycle::lease` are lock-free;
//! this holds them to it, with h5lite's named locks (metadata shards,
//! allocator, write gates) forwarded into the recorder. The data barrier
//! (ISSUE 24) is one more such thread — these 32 MiB are over the floor —
//! and is held to the same count. So are the lanes of a verified read,
//! which read and check the pieces of one 2 MiB extent side by side.
//!
//! One test in the file: the process-wide counter is shared, and a
//! second test running beside it would move it mid-measurement.

#![cfg(feature = "debug-invariants")]

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apio::argolite::lock_order;
use apio::h5lite::sync::Mutex;
use apio::h5lite::{
    container::ROOT_ID, Call, Container, CountingBackend, Dataspace, Datatype, Layout, MemBackend,
    Selection,
};

#[test]
fn read_back_lanes_take_no_named_lock() {
    apio::h5lite::sync::order_hook::install(lock_order::acquire_class, lock_order::release_class);
    // Control: the recorder sees a named lock taken on a spawned thread.
    let before = lock_order::total_acquire_count();
    let control = Arc::new(Mutex::new_named("flush_lanes.control", 0u32));
    let spawned = control.clone();
    std::thread::spawn(move || *spawned.lock() += 1)
        .join()
        .expect("control thread");
    assert!(lock_order::total_acquire_count() > before);

    // Records which threads read, and holds the first reader until a
    // second has arrived, so the lanes are seen side by side rather than
    // hoped to overlap. Records which thread issued each `sync` as well.
    let readers = Arc::new(std::sync::Mutex::new(HashSet::new()));
    let syncers = Arc::new(std::sync::Mutex::new(Vec::new()));
    let arrived = Arc::new(AtomicUsize::new(0));
    let (threads, synced, first) = (readers.clone(), syncers.clone(), arrived.clone());
    let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        let me = std::thread::current().id();
        match call {
            Call::Read { .. } => {
                threads.lock().expect("no reader panics").insert(me);
                if first.fetch_add(1, Ordering::SeqCst) == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while first.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
            }
            Call::Sync => synced.lock().expect("no syncer panics").push(me),
            Call::Write { .. } => {}
        }
        Ok(())
    });
    let c = Container::create(Arc::new(backend));
    let data = vec![0x5Au8; 2 << 20];
    let ids: Vec<_> = (0..16)
        .map(|i| {
            let space = Dataspace::d1(data.len() as u64);
            let ds = c
                .create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &space, Layout::Contiguous)
                .expect("create dataset");
            c.write_selection(ds, &Selection::All, &data).expect("write");
            ds
        })
        .collect();

    let (all, own) = (lock_order::total_acquire_count(), lock_order::acquire_count());
    c.flush().expect("flush");
    let (all, own) = (
        lock_order::total_acquire_count() - all,
        lock_order::acquire_count() - own,
    );
    let lanes = readers.lock().expect("no reader panics").len();
    assert!(lanes >= 2, "the read-back ran on {lanes} thread(s)");
    assert!(own > 0, "the flush itself folds sums under the metadata shards");
    assert_eq!(all, own, "threads other than the flushing one took {} named lock(s)", all - own);
    // The count above covers the barrier thread too: the data barrier
    // came first and from a thread of its own, the two commit barriers
    // from the flushing thread.
    let me = std::thread::current().id();
    let syncers = syncers.lock().expect("no syncer panics");
    assert_eq!(syncers.len(), 3, "data, metadata, slot");
    assert_ne!(syncers[0], me, "the data barrier rides a thread of its own");
    assert_eq!(syncers[1..], [me, me]);

    drop(syncers);

    // A verified read of one clean 2 MiB extent: four pieces of 512 KiB
    // on the read lanes, held to the same count.
    readers.lock().expect("no reader panics").clear();
    arrived.store(0, Ordering::SeqCst);
    let (all, own) = (lock_order::total_acquire_count(), lock_order::acquire_count());
    let got = c.read_selection(ids[5], &Selection::All).expect("verified read");
    let (all, own) = (
        lock_order::total_acquire_count() - all,
        lock_order::acquire_count() - own,
    );
    assert_eq!(got, data);
    assert_eq!(c.integrity_stats().verified_extents, 1, "the read was verified");
    let lanes = readers.lock().expect("no reader panics").len();
    assert!(lanes >= 2, "the verified read ran on {lanes} thread(s)");
    assert_eq!(all, own, "threads other than the reading one took {} named lock(s)", all - own);
}
