//! Integration tests: the async connector against real containers,
//! exercised through both the raw VOL interface and the public h5lite API.

use std::sync::Arc;

use asyncvol::AsyncVol;
use h5lite::{
    Container, Dataspace, File, H5Error, Hyperslab, Selection, Vol,
};

fn to_bytes_f64(data: &[f64]) -> Vec<u8> {
    h5lite::datatype::to_bytes(data)
}

fn mem_container() -> Arc<Container> {
    Arc::new(Container::create_mem())
}

#[test]
fn async_write_then_wait_then_read() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::F64,
            &Dataspace::d1(64),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &to_bytes_f64(&data))
        .unwrap();
    assert!(!req.is_sync(), "async connector must defer");
    vol.wait(req).unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(h5lite::datatype::from_bytes::<f64>(&back).unwrap(), data);
}

#[test]
fn caller_buffer_can_be_reused_immediately() {
    // The defining property of the transactional snapshot: mutating the
    // caller's buffer after the call must not corrupt the write.
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(1 << 20),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let mut buf = vec![7u8; 1 << 20];
    let req = vol.dataset_write(&c, ds, &Selection::All, &buf).unwrap();
    // Clobber the buffer while the background write may still be running.
    buf.iter_mut().for_each(|b| *b = 0);
    vol.wait(req).unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert!(back.iter().all(|&b| b == 7), "snapshot must isolate caller");
}

#[test]
fn writes_to_same_dataset_apply_in_issue_order() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::I32,
            &Dataspace::d1(8),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    // Issue 20 overlapping full writes; the last one must win.
    for round in 0..20i32 {
        let data: Vec<i32> = vec![round; 8];
        let _ = vol.dataset_write(&c, ds, &Selection::All, &h5lite::datatype::to_bytes(&data))
            .unwrap();
    }
    vol.wait_all().unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        h5lite::datatype::from_bytes::<i32>(&back).unwrap(),
        vec![19; 8]
    );
}

#[test]
fn read_after_write_sees_the_write() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::I32,
            &Dataspace::d1(4),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let _ = vol.dataset_write(
        &c,
        ds,
        &Selection::All,
        &h5lite::datatype::to_bytes(&[1i32, 2, 3, 4]),
    )
    .unwrap();
    // No explicit wait: the cold read must order itself after the write.
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        h5lite::datatype::from_bytes::<i32>(&back).unwrap(),
        vec![1, 2, 3, 4]
    );
}

#[test]
fn background_error_surfaces_at_wait() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::F64,
            &Dataspace::d1(4),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    // Wrong buffer size: the shape check happens in the background job.
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[0u8; 3])
        .unwrap();
    let err = vol.wait(req).unwrap_err();
    assert!(matches!(err, H5Error::Async(_)), "got {err:?}");
}

#[test]
fn wait_all_reports_background_error() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::F64,
            &Dataspace::d1(4),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let _ = vol.dataset_write(&c, ds, &Selection::All, &[0u8; 3]).unwrap();
    assert!(vol.wait_all().is_err());
    // Second wait_all is clean: errors are reported exactly once.
    vol.wait_all().unwrap();
}

#[test]
fn prefetch_hit_serves_without_reading_again() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "ts1",
            h5lite::Datatype::F64,
            &Dataspace::d1(128),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let data: Vec<f64> = (0..128).map(|i| (i as f64).sin()).collect();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &to_bytes_f64(&data))
        .unwrap();
    vol.wait(req).unwrap();

    let _ = vol.prefetch(&c, ds, &Selection::All);
    vol.wait_all().unwrap();

    let rr = vol.dataset_read(&c, ds, &Selection::All).unwrap();
    assert!(rr.is_ready(), "warm prefetch slot must be ready");
    assert_eq!(
        h5lite::datatype::from_bytes::<f64>(&rr.wait().unwrap()).unwrap(),
        data
    );
    let stats = vol.stats();
    assert_eq!(stats.prefetch_hits, 1);
    assert_eq!(stats.prefetches, 1);
    assert_eq!(stats.blocking_reads, 0);
}

#[test]
fn prefetch_slab_keys_are_distinct() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::I32,
            &Dataspace::d1(100),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let all: Vec<i32> = (0..100).collect();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &h5lite::datatype::to_bytes(&all))
        .unwrap();
    vol.wait(req).unwrap();

    let sel_a = Selection::Slab(Hyperslab::range1(0, 10));
    let sel_b = Selection::Slab(Hyperslab::range1(10, 10));
    let _ = vol.prefetch(&c, ds, &sel_a);
    vol.wait_all().unwrap();

    // sel_b was not prefetched: cold read.
    let back_b = vol.dataset_read(&c, ds, &sel_b).unwrap().wait().unwrap();
    assert_eq!(
        h5lite::datatype::from_bytes::<i32>(&back_b).unwrap(),
        (10..20).collect::<Vec<i32>>()
    );
    // sel_a is warm.
    let rr = vol.dataset_read(&c, ds, &sel_a).unwrap();
    assert!(rr.is_ready());
    let stats = vol.stats();
    assert_eq!(stats.prefetch_hits, 1);
    assert_eq!(stats.blocking_reads, 1);
}

#[test]
fn double_prefetch_is_idempotent() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(10),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[1u8; 10])
        .unwrap();
    vol.wait(req).unwrap();
    let _ = vol.prefetch(&c, ds, &Selection::All);
    let second = vol.prefetch(&c, ds, &Selection::All);
    assert!(second.is_sync(), "second prefetch is a warm no-op");
    vol.wait_all().unwrap();
    assert_eq!(vol.stats().prefetches, 1);
}

/// A second prefetch of a key whose slot is already held returns
/// `Request::SYNC`, asks the device for nothing, and the one slot serves
/// the read.
#[test]
fn a_duplicate_prefetch_returns_sync_and_reads_nothing() {
    let device = Arc::new(h5lite::CountingBackend::new(Arc::new(h5lite::MemBackend::new())));
    let c = Arc::new(Container::create(device.clone()));
    let vol = AsyncVol::new();
    let ds = c
        .create_dataset(
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(10),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    c.write_selection(ds, &Selection::All, &[1u8; 10]).unwrap();
    let first = vol.prefetch(&c, ds, &Selection::All);
    assert!(!first.is_sync(), "the first prefetch is a background read");
    vol.wait_all().unwrap();

    let reads = |n: h5lite::CallCounts| (n.reads, n.read_batches, n.bytes_read);
    let before = device.counts();
    let second = vol.prefetch(&c, ds, &Selection::All);
    assert_eq!(second, h5lite::Request::SYNC);
    vol.wait_all().unwrap();
    assert_eq!(reads(device.counts() - before), (0, 0, 0), "the duplicate read nothing");

    let back = vol.dataset_read(&c, ds, &Selection::All).unwrap();
    assert!(back.is_ready(), "the one slot is warm");
    assert_eq!(back.wait().unwrap(), vec![1u8; 10]);
    assert_eq!(reads(device.counts() - before), (0, 0, 0), "the hit read nothing");
    let s = vol.stats();
    assert_eq!((s.prefetches, s.prefetch_hits, s.blocking_reads), (1, 1, 0));
}

#[test]
fn works_through_public_file_api() {
    let container = mem_container();
    let vol = Arc::new(AsyncVol::new());
    let file = File::from_parts(container, vol.clone());
    let ds = file
        .root()
        .create_dataset::<f32>("x", &Dataspace::d1(256))
        .unwrap();
    let data: Vec<f32> = (0..256).map(|i| i as f32 * 2.0).collect();
    let req = ds.write_async(&data).unwrap();
    assert!(!req.is_sync());
    file.wait_all().unwrap();
    assert_eq!(ds.read::<f32>().unwrap(), data);
    assert_eq!(vol.stats().writes, 1, "one background write, counted once");
    assert!(vol.stats().snapshot_bytes >= 1024);
}

#[test]
fn flush_drains_outstanding_writes() {
    let dir = std::env::temp_dir().join(format!("asyncvol-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drain.h5l");
    let data: Vec<u64> = (0..4096).collect();
    {
        let container = Arc::new(Container::create_file(&path).unwrap());
        let vol = Arc::new(AsyncVol::new());
        let file = File::from_parts(container, vol);
        let ds = file
            .root()
            .create_dataset::<u64>("seq", &Dataspace::d1(4096))
            .unwrap();
        let _ = ds.write_async(&data).unwrap();
        file.flush().unwrap(); // must wait for the background write
    }
    let file = File::open(&path).unwrap();
    assert_eq!(
        file.root().open_dataset("seq").unwrap().read::<u64>().unwrap(),
        data
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn many_datasets_in_flight_concurrently() {
    let container = mem_container();
    let vol = Arc::new(AsyncVol::builder().streams(4).build());
    let file = File::from_parts(container, vol);
    let n_ds = 32;
    let mut handles = Vec::new();
    for i in 0..n_ds {
        let ds = file
            .root()
            .create_dataset::<u32>(&format!("d{i}"), &Dataspace::d1(1024))
            .unwrap();
        let data: Vec<u32> = (0..1024).map(|j| j + i).collect();
        let _ = ds.write_async(&data).unwrap();
        handles.push((ds, data));
    }
    file.wait_all().unwrap();
    for (ds, data) in handles {
        assert_eq!(ds.read::<u32>().unwrap(), data);
    }
}

#[test]
fn stats_track_transactional_overhead() {
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(1 << 22),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let buf = vec![3u8; 1 << 22];
    let req = vol.dataset_write(&c, ds, &Selection::All, &buf).unwrap();
    vol.wait(req).unwrap();
    let s = vol.stats();
    assert_eq!(s.snapshot_bytes, 1 << 22);
    assert!(s.snapshot_secs > 0.0, "4 MiB memcpy takes measurable time");
    assert!(s.snapshot_bw().is_finite());
    assert!(s.write_io_secs > 0.0);
}

#[test]
fn device_staging_roundtrip_and_footprint() {
    let staging_device = Arc::new(h5lite::MemBackend::new());
    let vol = AsyncVol::builder()
        .stage_to_device(staging_device)
        .build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::F64,
            &Dataspace::d1(1024),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let data: Vec<f64> = (0..1024).map(|i| i as f64 * 0.25).collect();
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &to_bytes_f64(&data))
        .unwrap();
    assert!(
        vol.staging_bytes_used() >= 1024 * 8,
        "snapshot (plus WAL framing) lives on the staging device"
    );
    vol.wait(req).unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(h5lite::datatype::from_bytes::<f64>(&back).unwrap(), data);
    // Recycling after drain frees the log.
    vol.recycle_staging().unwrap();
    assert_eq!(vol.staging_bytes_used(), 0);
}

#[test]
fn device_staging_isolates_caller_buffer() {
    let vol = AsyncVol::builder()
        .stage_to_device(Arc::new(h5lite::MemBackend::new()))
        .build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(1 << 18),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let mut buf = vec![9u8; 1 << 18];
    let req = vol.dataset_write(&c, ds, &Selection::All, &buf).unwrap();
    buf.iter_mut().for_each(|b| *b = 0);
    vol.wait(req).unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert!(back.iter().all(|&b| b == 9));
}

#[test]
fn device_staging_write_order_preserved() {
    let vol = AsyncVol::builder()
        .stage_to_device(Arc::new(h5lite::MemBackend::new()))
        .build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::I32,
            &Dataspace::d1(16),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    for round in 0..10i32 {
        let _ = vol.dataset_write(
            &c,
            ds,
            &Selection::All,
            &h5lite::datatype::to_bytes(&[round; 16]),
        )
        .unwrap();
    }
    vol.wait_all().unwrap();
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        h5lite::datatype::from_bytes::<i32>(&back).unwrap(),
        vec![9; 16]
    );
}

#[test]
fn slow_staging_device_shows_in_overhead() {
    // A deliberately slow staging device of one channel (a write books
    // one per 128 KiB, up to the channel count): the transactional
    // overhead is now a device write, visible in the stats.
    let device = Arc::new(h5lite::ThrottledBackend::with_channels(50e6, 0.0, 1));
    let vol = AsyncVol::builder().stage_to_device(device).build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(1 << 20),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let buf = vec![1u8; 1 << 20];
    let req = vol.dataset_write(&c, ds, &Selection::All, &buf).unwrap();
    vol.wait(req).unwrap();
    let s = vol.stats();
    // 1 MiB at 50 MB/s ≈ 21 ms of staging time charged as overhead.
    assert!(s.snapshot_secs > 0.015, "staging write is the overhead: {s:?}");
}

#[test]
fn injected_device_failure_surfaces_as_deferred_async_error() {
    // The container lives on a device that dies after a few writes: the
    // async connector must keep accepting work and surface the failure at
    // wait time, without hanging or panicking the background stream.
    let backend = Arc::new(h5lite::FaultInjector::failing_after(
        Arc::new(h5lite::MemBackend::new()),
        4,
    ));
    let c = Arc::new(Container::create(backend));
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(64),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let mut requests = Vec::new();
    for _ in 0..8 {
        requests.push(
            vol.dataset_write(&c, ds, &Selection::All, &[1u8; 64])
                .unwrap(),
        );
        // Each write lands before the next is issued, so each is a device
        // write of its own: queued behind a busy reaper, they would share
        // one, and the device would not die mid-stream.
        while vol.stats().queued > 0 {
            std::thread::yield_now();
        }
    }
    let outcomes: Vec<bool> = requests
        .into_iter()
        .map(|r| vol.wait(r).is_ok())
        .collect();
    assert!(outcomes.iter().any(|ok| *ok), "early writes succeed");
    assert!(outcomes.iter().any(|ok| !*ok), "late writes report failure");
    // The connector is still usable for reads of whatever landed.
    let _ = vol.dataset_read(&c, ds, &Selection::All).unwrap().wait();
}

#[test]
fn wait_all_aggregates_all_background_errors() {
    // Three malformed writes plus one good one: wait_all must list every
    // failed request, not just the first.
    let c = mem_container();
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::F64,
            &Dataspace::d1(4),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let mut bad_reqs = Vec::new();
    for _ in 0..3 {
        bad_reqs.push(
            vol.dataset_write(&c, ds, &Selection::All, &[0u8; 3])
                .unwrap(),
        );
    }
    let _good = vol
        .dataset_write(&c, ds, &Selection::All, &[0u8; 32])
        .unwrap();
    let err = vol.wait_all().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("3 background operation(s) failed"),
        "must count every failure, got: {msg}"
    );
    for req in &bad_reqs {
        assert!(
            msg.contains(&format!("req {}", req.0)),
            "request {} missing from: {msg}",
            req.0
        );
    }
    // Exactly-once: a second wait_all is clean.
    vol.wait_all().unwrap();
}

#[test]
fn transient_faults_are_absorbed_by_retry() {
    // Two transient faults on the data-write path: the background job
    // retries with backoff and the operation succeeds — no error reaches
    // wait, and the retry counters record the absorption.
    let inner = Arc::new(h5lite::MemBackend::new());
    let plan = h5lite::FaultPlan::new(11)
        .fail_at(h5lite::FaultOp::Write, 0, h5lite::FaultKind::Transient)
        .fail_at(h5lite::FaultOp::Write, 1, h5lite::FaultKind::Transient);
    let injector = Arc::new(h5lite::FaultInjector::new(inner, plan));
    injector.set_armed(false);
    let c = Arc::new(Container::create(injector.clone()));
    let vol = AsyncVol::new();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(64),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    injector.set_armed(true);
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[5u8; 64])
        .unwrap();
    vol.wait(req).expect("transient faults must be absorbed");
    assert_eq!(injector.injected(), 2);
    let s = vol.stats();
    assert_eq!(s.retries, 2);
    assert_eq!(s.retry_successes, 1);
    let back = vol
        .dataset_read(&c, ds, &Selection::All)
        .unwrap()
        .wait()
        .unwrap();
    assert!(back.iter().all(|&b| b == 5));
}

#[test]
fn breaker_degrades_to_sync_passthrough_and_recovers() {
    // A persistent-fault window trips the breaker; writes degrade to
    // synchronous passthrough; the half-open probe restores async mode.
    let inner = Arc::new(h5lite::MemBackend::new());
    let plan = h5lite::FaultPlan::new(3)
        .fail_at(h5lite::FaultOp::Write, 0, h5lite::FaultKind::Persistent)
        .fail_at(h5lite::FaultOp::Write, 1, h5lite::FaultKind::Persistent);
    let injector = Arc::new(h5lite::FaultInjector::new(inner, plan));
    injector.set_armed(false);
    let c = Arc::new(Container::create(injector.clone()));
    let vol = AsyncVol::builder()
        .breaker(asyncvol::BreakerConfig {
            failure_threshold: 2,
            probe_after: 2,
        })
        .build();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(16),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    injector.set_armed(true);

    // Two async writes hit the dead device; their failures surface at
    // wait and trip the breaker.
    for _ in 0..2 {
        let req = vol
            .dataset_write(&c, ds, &Selection::All, &[1u8; 16])
            .unwrap();
        assert!(vol.wait(req).is_err());
    }
    assert_eq!(vol.breaker_state(), asyncvol::BreakerState::Open);
    assert!(vol.stats().degraded);
    assert_eq!(vol.stats().breaker_opens, 1);

    // Degraded issue #1: synchronous passthrough. The fault window has
    // passed, so it succeeds and is durable before the call returns.
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[2u8; 16])
        .unwrap();
    assert!(req.is_sync(), "degraded write completes synchronously");
    assert_eq!(
        c.read_selection(ds, &Selection::All).unwrap(),
        vec![2u8; 16],
        "acknowledged degraded write is already durable"
    );

    // Degraded issue #2 becomes the half-open probe; its success closes
    // the breaker.
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[3u8; 16])
        .unwrap();
    assert!(!req.is_sync(), "probe is dispatched asynchronously");
    vol.wait(req).unwrap();
    assert_eq!(vol.breaker_state(), asyncvol::BreakerState::Closed);

    // Async mode restored.
    let req = vol
        .dataset_write(&c, ds, &Selection::All, &[4u8; 16])
        .unwrap();
    assert!(!req.is_sync());
    vol.wait(req).unwrap();
    let s = vol.stats();
    assert!(!s.degraded);
    assert_eq!(s.degraded_writes, 1);
    assert_eq!(s.probes, 1);
    assert_eq!(s.breaker_closes, 1);
    assert_eq!(
        c.read_selection(ds, &Selection::All).unwrap(),
        vec![4u8; 16]
    );
}

#[test]
fn failed_probe_dispatch_reverts_breaker_to_open() {
    // If the half-open probe dies before it is even dispatched — its
    // staging append fails — the breaker must revert to Open so a later
    // issue can probe again, not sit in HalfOpen forever waiting for a
    // probe that was never spawned.
    let staging = Arc::new(h5lite::FaultInjector::new(
        Arc::new(h5lite::MemBackend::new()),
        h5lite::FaultPlan::new(5).fail_at(
            h5lite::FaultOp::Write,
            1,
            h5lite::FaultKind::Persistent,
        ),
    ));
    let data = Arc::new(h5lite::FaultInjector::new(
        Arc::new(h5lite::MemBackend::new()),
        h5lite::FaultPlan::new(7)
            .fail_after(h5lite::FaultOp::Write, 0, h5lite::FaultKind::Persistent)
            .times(1),
    ));
    data.set_armed(false);
    let c = Arc::new(Container::create(data.clone()));
    let vol = AsyncVol::builder()
        .stage_to_device(staging.clone())
        .retry(asyncvol::RetryPolicy::none())
        .breaker(asyncvol::BreakerConfig {
            failure_threshold: 1,
            probe_after: 1,
        })
        .build();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(8),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    data.set_armed(true);

    // Issue 1: staged fine, but the background container write hits the
    // persistent fault — the breaker opens.
    let req = vol.dataset_write(&c, ds, &Selection::All, &[1u8; 8]).unwrap();
    assert!(vol.wait(req).is_err());
    assert_eq!(vol.breaker_state(), asyncvol::BreakerState::Open);

    // Issue 2 becomes the half-open probe, but its staging append
    // fails: the error surfaces synchronously and the probe is never
    // dispatched. The breaker must revert to Open.
    let err = vol
        .dataset_write(&c, ds, &Selection::All, &[2u8; 8])
        .unwrap_err();
    assert!(err.is_device_fault());
    assert_eq!(
        vol.breaker_state(),
        asyncvol::BreakerState::Open,
        "aborted probe must not strand the breaker in HalfOpen"
    );

    // Issue 3: staging and container are healthy again; a fresh probe
    // is dispatched and its success closes the breaker.
    let req = vol.dataset_write(&c, ds, &Selection::All, &[3u8; 8]).unwrap();
    assert!(!req.is_sync(), "a fresh probe is dispatched asynchronously");
    vol.wait(req).unwrap();
    assert_eq!(vol.breaker_state(), asyncvol::BreakerState::Closed);
    assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), vec![3u8; 8]);
}

#[test]
fn staging_device_failure_fails_the_issue_not_the_background() {
    // When the *staging* device dies, the failure is synchronous (the
    // snapshot itself cannot be taken) — the paper's transactional copy
    // is on the caller's critical path.
    let staging = Arc::new(h5lite::FaultInjector::failing_after(
        Arc::new(h5lite::MemBackend::new()),
        1,
    ));
    let vol = AsyncVol::builder().stage_to_device(staging).build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(8),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    assert!(vol.dataset_write(&c, ds, &Selection::All, &[1u8; 8]).is_ok());
    let err = vol
        .dataset_write(&c, ds, &Selection::All, &[2u8; 8])
        .unwrap_err();
    assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    vol.wait_all().unwrap();
}

#[test]
fn failed_wal_mark_is_counted_not_swallowed() {
    // The staging append (device write 0) succeeds; the applied-flag
    // mark after the background write lands (device write 1) hits a
    // dead device. The write itself must still succeed — the data is in
    // the container, the unmarked record merely replays idempotently on
    // the next recovery — but the miss has to show up in the metrics.
    let staging = Arc::new(h5lite::FaultInjector::new(
        Arc::new(h5lite::MemBackend::new()),
        h5lite::FaultPlan::new(0).fail_after(
            h5lite::FaultOp::Write,
            1,
            h5lite::FaultKind::Persistent,
        ),
    ));
    let tracer = apio_trace::Tracer::new();
    let metrics = tracer.metrics().unwrap();
    let vol = AsyncVol::builder()
        .stage_to_device(staging)
        .tracer(tracer)
        .build();
    let c = mem_container();
    let ds = vol
        .dataset_create(
            &c,
            h5lite::container::ROOT_ID,
            "x",
            h5lite::Datatype::U8,
            &Dataspace::d1(8),
            h5lite::Layout::Contiguous,
        )
        .unwrap();
    let req = vol.dataset_write(&c, ds, &Selection::All, &[7u8; 8]).unwrap();
    vol.wait(req).unwrap();
    assert_eq!(
        metrics.counter_value("vol.wal_mark_failures"),
        1,
        "the swallowed flag write must be visible in the metrics"
    );
    assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), vec![7u8; 8]);
}
