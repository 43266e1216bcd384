//! The connector's named locks reach the lock-order recorder by
//! construction: a `StagingLog` opened and appended to with no `AsyncVol`
//! anywhere in the process still records its `asyncvol.wal` lock. One
//! test in a binary of its own, because a connector built earlier in the
//! same process would have installed the bridge already.

#![cfg(feature = "debug-invariants")]

use std::sync::Arc;

use argolite::lock_order;
use asyncvol::StagingLog;
use h5lite::{Hyperslab, MemBackend, Selection};

#[test]
fn a_staging_log_without_a_connector_records_its_lock() {
    let before = lock_order::total_acquire_count();
    let log = StagingLog::open(Arc::new(MemBackend::new()));
    log.append(1, &Selection::Slab(Hyperslab::range1(0, 4)), &[1, 2, 3, 4])
        .expect("append");
    assert!(
        lock_order::total_acquire_count() > before,
        "the WAL's tail lock never reached the recorder"
    );
}
