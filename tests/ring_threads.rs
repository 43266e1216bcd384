//! Thread bound of the connector: its reaper threads are its ring's
//! shards, however many containers it serves — the process-wide execution
//! streams of the HDF5 async VOL, not a ring per open file.
//!
//! A binary of its own, with one test: the count is the process's, so
//! another test's ring, or the test harness running tests side by side,
//! would skew it.

use std::sync::Arc;

use apio::asyncvol::AsyncVol;
use apio::h5lite::{
    container::ROOT_ID, Container, Dataspace, Datatype, Layout, MemBackend, Selection, Vol,
};

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
