//! What a ring write locks on the issuing thread (ISSUE 16, constraint
//! 5): the per-thread count of named-lock acquisitions across 64
//! `dataset_write` calls, with no wait in between, pinned to its exact
//! per-call value. The counter is per thread, so the reaper and other
//! tests in the process cannot move it.

#![cfg(feature = "debug-invariants")]

use std::sync::Arc;

use apio::argolite::sync::lock_order;
use apio::asyncvol::AsyncVol;
use apio::h5lite::ring::{Ring, RingConfig};
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, Hyperslab, Layout, MemBackend, Selection,
    StorageBackend, Vol,
};

/// Named-lock acquisitions per ring write on the issuing thread:
/// `asyncvol.tenants` (register the container), `asyncvol.breaker`
/// (route), `asyncvol.conn` (table insert + FIFO push), and the one
/// metadata-shard read lock `plan_write_selection` takes in h5lite
/// (forwarded through `order_hook`). Before the depth governor was
/// removed the same call took 6: these four plus the runtime's stream
/// list and `argolite.pool` inside `Runtime::grow_streams`.
const LOCKS_PER_RING_WRITE: u64 = 4;

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
    // registers the tenant.
    let _ = vol.dataset_write(&c, ds, &sel(WRITES), &data).expect("warm-up");

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
}
