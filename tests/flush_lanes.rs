//! The flush's read-back lanes take no named lock (ISSUE 21): across a
//! flush that fans sixteen 2 MiB read-backs out over scoped threads, the
//! process-wide named-lock counter moves by exactly what the flushing
//! thread itself took. `hash_extent` and `recycle::lease` are lock-free;
//! this holds them to it, with h5lite's named locks (metadata shards,
//! allocator, write gates) forwarded into the recorder. The data barrier
//! (ISSUE 24) is one more such thread — these 32 MiB are over the floor —
//! and is held to the same count.
//!
//! One test in the file: the process-wide counter is shared, and a
//! second test running beside it would move it mid-measurement.

#![cfg(feature = "debug-invariants")]

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use apio::argolite::sync::{lock_order, Mutex};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, Layout, MemBackend, Result, Selection,
    StorageBackend,
};

/// Records which threads read, and holds the first reader until a second
/// has arrived, so the lanes are seen side by side rather than hoped to
/// overlap. Records which thread issued each `sync` as well.
struct Readers {
    inner: MemBackend,
    arrived: AtomicUsize,
    threads: std::sync::Mutex<HashSet<ThreadId>>,
    syncers: std::sync::Mutex<Vec<ThreadId>>,
}

impl StorageBackend for Readers {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(offset, data)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.threads
            .lock()
            .expect("no reader panics")
            .insert(std::thread::current().id());
        if self.arrived.fetch_add(1, Ordering::SeqCst) == 0 {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&self) -> Result<()> {
        self.syncers
            .lock()
            .expect("no syncer panics")
            .push(std::thread::current().id());
        self.inner.sync()
    }
}

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

    let backend = Arc::new(Readers {
        inner: MemBackend::new(),
        arrived: AtomicUsize::new(0),
        threads: std::sync::Mutex::new(HashSet::new()),
        syncers: std::sync::Mutex::new(Vec::new()),
    });
    let c = Container::create(backend.clone());
    let data = vec![0x5Au8; 2 << 20];
    for i in 0..16 {
        let space = Dataspace::d1(data.len() as u64);
        let ds = c
            .create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &space, Layout::Contiguous)
            .expect("create dataset");
        c.write_selection(ds, &Selection::All, &data).expect("write");
    }

    let (all, own) = (lock_order::total_acquire_count(), lock_order::acquire_count());
    c.flush().expect("flush");
    let (all, own) = (
        lock_order::total_acquire_count() - all,
        lock_order::acquire_count() - own,
    );
    let lanes = backend.threads.lock().expect("no reader panics").len();
    assert!(lanes >= 2, "the read-back ran on {lanes} thread(s)");
    assert!(own > 0, "the flush itself folds sums under the metadata shards");
    assert_eq!(all, own, "threads other than the flushing one took {} named lock(s)", all - own);
    // The count above covers the barrier thread too: the data barrier
    // came first and from a thread of its own, the two commit barriers
    // from the flushing thread.
    let me = std::thread::current().id();
    let syncers = backend.syncers.lock().expect("no syncer panics");
    assert_eq!(syncers.len(), 3, "data, metadata, slot");
    assert_ne!(syncers[0], me, "the data barrier rides a thread of its own");
    assert_eq!(syncers[1..], [me, me]);
}
