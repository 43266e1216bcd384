//! Lock-freedom gate for the ring hot path (ISSUE 8 acceptance): a
//! submit → reap → complete round trip must perform **zero** named
//! `h5lite::sync` lock acquisitions, on any thread. The lock-order
//! recorder's process-wide acquisition counter covers the reaper
//! threads too — background work bumps the same counter — so a flat
//! count across ring traffic proves the whole path (submitter *and*
//! reaper) runs on atomics alone.
//!
//! The control check and the measurement live in one test: they share
//! the process-wide counter, and a concurrently running control would
//! bump it mid-measurement.

#![cfg(feature = "debug-invariants")]

use std::sync::Arc;

use apio::argolite::lock_order;
use apio::h5lite::ring::{Ring, RingConfig, RingOp};
use apio::h5lite::sync::Mutex;
use apio::h5lite::MemBackend;

#[test]
fn ring_submit_and_complete_take_no_tracked_locks() {
    // Control first: the recorder must demonstrably see named-lock
    // acquisitions made on *other* threads — otherwise a flat counter
    // around ring traffic would prove nothing about the reapers.
    apio::h5lite::sync::order_hook::install(lock_order::acquire_class, lock_order::release_class);
    let before = lock_order::total_acquire_count();
    let control = Arc::new(Mutex::new_named("ring_lockfree.control", 0u32));
    let handle = {
        let control = control.clone();
        std::thread::spawn(move || {
            *control.lock() += 1;
        })
    };
    handle.join().expect("control thread");
    assert!(
        lock_order::total_acquire_count() > before,
        "a named lock taken on a spawned thread must bump the global counter"
    );

    let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
    // Warm-up lap: reaper startup (OnceLock set, first park/unpark) is
    // out of scope — the acceptance bar is the steady-state hot path.
    ring.submit_keyed(0, RingOp::write_raw(0, vec![0u8; 64]))
        .accepted()
        .expect("Block policy")
        .wait_cloned()
        .into_result()
        .expect("warm-up write");

    let before = lock_order::total_acquire_count();
    // A storm of promise round trips — the connector's path, and the
    // only one there is — across every key.
    for i in 0..64u64 {
        ring.submit_keyed(i, RingOp::write_raw(i * 64, vec![i as u8; 64]))
            .accepted()
            .expect("Block policy")
            .wait_cloned()
            .into_result()
            .expect("write completes");
    }
    // ...and a burst queued before anything is waited on, so the reaper
    // coalesces and completes several entries in one pass.
    let burst: Vec<_> = (0..48u64)
        .map(|i| {
            ring.submit_keyed(3, RingOp::write_raw(8192 + i * 32, vec![0xA5; 32]))
                .accepted()
                .expect("Block policy")
        })
        .collect();
    for p in burst {
        p.wait_cloned().into_result().expect("burst write completes");
    }
    let after = lock_order::total_acquire_count();
    assert_eq!(
        after - before,
        0,
        "ring submit/complete hot path acquired {} named lock(s); \
         it must run on atomics alone",
        after - before
    );
}
