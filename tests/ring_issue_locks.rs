//! What a ring write locks: the per-thread count of named-lock
//! acquisitions across 64 `dataset_write` calls, with no wait in
//! between, pinned to its exact per-call value on the issuing thread —
//! the reaper cannot move that counter — and the process-wide count
//! across the whole run, the reaper's settlement and the closing
//! `wait_all` included. The process-wide counter is shared by every
//! thread in the binary, so both live in this file's one test.

#![cfg(feature = "debug-invariants")]

use std::sync::Arc;

use apio::argolite::lock_order;
use apio::asyncvol::AsyncVol;
use apio::h5lite::ring::{Ring, RingConfig};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, Hyperslab, Layout, MemBackend, Selection,
    StorageBackend, Vol,
};

/// Named-lock acquisitions per ring write on the issuing thread:
/// `asyncvol.breaker` (route), the one metadata-shard read lock
/// `plan_raw_write` takes in h5lite (forwarded through `order_hook`),
/// and `asyncvol.conn` (the table insert, and in the same section the
/// container's tenant record and the dataset's last ring completion).
/// A one-segment plan skips the sieve test, which takes no lock anyway.
const LOCKS_PER_RING_WRITE: u64 = 3;

/// Named-lock acquisitions per ring write on the reaper: one
/// `asyncvol.breaker`, where the completion hook's `settle` records the
/// landed write's outcome. The ring itself takes none
/// (`tests/ring_lockfree.rs`).
const LOCKS_PER_RING_SETTLE: u64 = 1;

/// Named-lock acquisitions of the `wait_all` after the writes: one
/// `asyncvol.conn`, which drains the request table and notes the open
/// containers to publish in the same section. Every write has settled on
/// the reaper by then or settles there meanwhile; the waits on the ring
/// completions, and publishing under the strong model, take no named
/// lock.
const LOCKS_PER_WAIT_ALL: u64 = 1;

/// Across the run, 64 × (3 + 1) + 1 = 257 acquisitions: 192 on the
/// issuing thread, 64 on the reaper, 1 in `wait_all`.
#[test]
fn a_ring_write_takes_a_pinned_number_of_locks_on_the_issuing_thread() {
    const WRITES: u64 = 64;
    const SLAB: u64 = 256;
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
    let vol = AsyncVol::builder().ring(ring).build();
    let c = Arc::new(Container::create(backend));
    let ds = c
        .create_dataset(
            ROOT_ID,
            "x",
            Datatype::U8,
            &Dataspace::d1((WRITES + 1) * SLAB),
            Layout::Contiguous,
        )
        .expect("create dataset");
    let sel = |w: u64| Selection::Slab(Hyperslab::range1(w * SLAB, SLAB));
    let data = vec![7u8; SLAB as usize];
    // Warm-up write: the first call allocates the dataset's extent and
    // makes the container's tenant record. It settles before the
    // counting starts.
    let warm = vol.dataset_write(&c, ds, &sel(WRITES), &data).expect("warm-up");
    vol.wait(warm).expect("warm-up lands");

    let before_all = lock_order::total_acquire_count();
    let before = lock_order::acquire_count();
    for w in 0..WRITES {
        // Drained collectively by wait_all below.
        let _ = vol.dataset_write(&c, ds, &sel(w), &data).expect("submit");
    }
    let taken = lock_order::acquire_count() - before;
    assert_eq!(
        taken,
        WRITES * LOCKS_PER_RING_WRITE,
        "{taken} named-lock acquisitions across {WRITES} ring writes"
    );
    vol.wait_all().expect("every write lands");
    let all = lock_order::total_acquire_count() - before_all;
    assert_eq!(
        all,
        WRITES * (LOCKS_PER_RING_WRITE + LOCKS_PER_RING_SETTLE) + LOCKS_PER_WAIT_ALL,
        "{all} named-lock acquisitions on every thread across {WRITES} ring writes and wait_all"
    );
}
