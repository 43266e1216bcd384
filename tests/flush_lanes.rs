//! A flush's read-back and a verified read take no named lock off the
//! thread that called them: across a flush of sixteen dirty 2 MiB
//! extents, read back in four windows on the flushing thread — each
//! window hashed on a scoped thread beside the next one's read — with
//! the data barrier on a thread of its own (these 32 MiB are over the
//! floor), the process-wide named-lock counter moves by exactly what the
//! flushing thread itself took. `hash_extents` and `recycle::lease` are
//! lock-free; this holds them to it, with h5lite's named locks (metadata
//! shards, allocator, write gates) forwarded into the recorder. A
//! verified read of one clean 2 MiB extent is held to the same count,
//! and reads on the calling thread alone.
//!
//! One test in the file: the process-wide counter is shared, and a
//! second test running beside it would move it mid-measurement.

#![cfg(feature = "debug-invariants")]

use std::collections::HashSet;
use std::sync::Arc;

use apio::argolite::lock_order;
use apio::h5lite::sync::Mutex;
use apio::h5lite::{
    container::ROOT_ID, Call, Container, CountingBackend, Dataspace, Datatype, Layout, MemBackend,
    Selection,
};

#[test]
fn the_read_back_and_a_verified_read_take_no_named_lock_off_the_calling_thread() {
    apio::h5lite::sync::order_hook::install(lock_order::acquire_class, lock_order::release_class);
    // Control: the recorder sees a named lock taken on a spawned thread.
    let before = lock_order::total_acquire_count();
    let control = Arc::new(Mutex::new_named("flush_lanes.control", 0u32));
    let spawned = control.clone();
    std::thread::spawn(move || *spawned.lock() += 1)
        .join()
        .expect("control thread");
    assert!(lock_order::total_acquire_count() > before);

    // Records which threads read, and which issued each `sync`.
    let readers = Arc::new(std::sync::Mutex::new(HashSet::new()));
    let syncers = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (threads, synced) = (readers.clone(), syncers.clone());
    let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        let me = std::thread::current().id();
        match call {
            Call::Read { .. } => {
                threads.lock().expect("no reader panics").insert(me);
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
    let me = std::thread::current().id();
    let read_on = readers.lock().expect("no reader panics").clone();
    assert_eq!(read_on, HashSet::from([me]), "the read-back ran on the flushing thread alone");
    assert!(own > 0, "the flush itself folds sums under the metadata shards");
    assert_eq!(all, own, "threads other than the flushing one took {} named lock(s)", all - own);
    // The count above covers the barrier thread: the data barrier came
    // first and from a thread of its own, the two commit barriers from
    // the flushing thread.
    let syncers = syncers.lock().expect("no syncer panics");
    assert_eq!(syncers.len(), 3, "data, metadata, slot");
    assert_ne!(syncers[0], me, "the data barrier rides a thread of its own");
    assert_eq!(syncers[1..], [me, me]);

    drop(syncers);

    // A verified read of one clean 2 MiB extent: one read call, on the
    // reading thread, held to the same count.
    readers.lock().expect("no reader panics").clear();
    let (all, own) = (lock_order::total_acquire_count(), lock_order::acquire_count());
    let got = c.read_selection(ids[5], &Selection::All).expect("verified read");
    let (all, own) = (
        lock_order::total_acquire_count() - all,
        lock_order::acquire_count() - own,
    );
    assert_eq!(got, data);
    assert_eq!(c.integrity_stats().verified_extents, 1, "the read was verified");
    let read_on = readers.lock().expect("no reader panics").clone();
    assert_eq!(read_on, HashSet::from([me]), "the verified read ran on the reading thread alone");
    assert_eq!(all, own, "threads other than the reading one took {} named lock(s)", all - own);
}
