//! Writes on the device's lanes, by count.
//!
//! On a device of four lanes, a large write keeps four requests in
//! flight on both write paths the engine has: a ring's reaper pass and
//! the container's window write. A device that holds each write until
//! four are inside it sees exactly four; each hold ends at a deadline,
//! so a write path that lost its lanes fails the count instead of
//! hanging.
//!
//! On a device of one lane nothing changes: a VPIC-shaped ring script
//! and a strided native script ask the device exactly what they asked
//! before writes had lanes, call for call.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use h5lite::container::ROOT_ID;
use h5lite::ring::{Ring, RingConfig, RingOp};
use h5lite::{
    Call, CallCounts, Container, CountingBackend, Dataspace, Datatype, File, Hyperslab, Layout,
    MemBackend, NativeVol, Selection, StorageBackend, ThrottledBackend,
};

const KIB: usize = 1 << 10;

/// A counted device of `lanes` service lanes over one whose every write,
/// once armed, waits for `lanes` writes to have arrived, for at most
/// 5 s: the writes of one operation are inside the counted device
/// together, or the count shows fewer.
fn gated(lanes: usize) -> (Arc<CountingBackend>, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(false));
    let (on, arrived) = (armed.clone(), AtomicUsize::new(0));
    let throttle = ThrottledBackend::with_channels(1e12, 0.0, lanes);
    let gate = CountingBackend::new(Arc::new(throttle)).with_hook(move |call| {
        if matches!(call, Call::Write { .. }) && on.load(Ordering::SeqCst) {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while arrived.load(Ordering::SeqCst) < lanes && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        Ok(())
    });
    (Arc::new(CountingBackend::new(Arc::new(gate))), armed)
}

fn bytes(salt: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 9) ^ (salt * 0x5B)) as u8).collect()
}

#[test]
fn a_512_kib_ring_pass_puts_four_writes_in_flight_on_four_lanes() {
    let (device, armed) = gated(4);
    assert_eq!(device.lanes(), 4);
    let ring = Ring::new(device.clone(), RingConfig::default());
    let payload = bytes(1, 512 * KIB);
    armed.store(true, Ordering::SeqCst);
    let promise = ring
        .submit_keyed(0, RingOp::write_raw(4096, payload.clone()))
        .accepted()
        .expect("a full shard blocks");
    promise.wait_cloned().into_result().expect("the pass lands");
    let moved = device.counts();
    assert_eq!(moved.most_writes_in_flight, 4, "{moved:?}");
    // Four pieces of 128 KiB, one vectored call each: the bytes of the
    // one call the pass used to be.
    assert_eq!((moved.writes, moved.write_batches, moved.segments), (0, 4, 4), "{moved:?}");
    assert_eq!(moved.bytes_written, 512 * KIB as u64);
    let mut back = vec![0u8; payload.len()];
    device.read_at(4096, &mut back).unwrap();
    assert!(back == payload, "the pieces tile the write");
}

#[test]
fn a_512_kib_native_write_slab_puts_four_writes_in_flight_on_four_lanes() {
    let (device, armed) = gated(4);
    let file = File::from_parts(Arc::new(Container::create(device.clone())), Arc::new(NativeVol));
    let n = 512 * KIB as u64;
    let ds = file.root().create_dataset::<u8>("x", &Dataspace::d1(2 * n)).unwrap();
    let payload = bytes(2, n as usize);
    armed.store(true, Ordering::SeqCst);
    let before = device.counts();
    ds.write_slab(&Hyperslab::range1(n, n), &payload).unwrap();
    let moved = device.counts() - before;
    assert_eq!(moved.most_writes_in_flight, 4, "{moved:?}");
    assert_eq!((moved.writes, moved.write_batches, moved.segments), (0, 4, 4), "{moved:?}");
    assert_eq!(moved.bytes_written, n);
    assert!(ds.read_slab::<u8>(&Hyperslab::range1(n, n)).unwrap() == payload);
}

/// The calls of `counts` without its peaks, which depend on thread
/// timing: a verified read's lanes are the container's, whatever the
/// device's.
fn calls(counts: CallCounts) -> CallCounts {
    CallCounts { most_reads_in_flight: 0, most_writes_in_flight: 0, ..counts }
}

#[test]
fn a_vpic_shaped_ring_script_on_one_lane_makes_the_same_calls() {
    // Eight properties × two ranks of 256 KiB per checkpoint: slot 0,
    // slot 1, then slot 0 again, the way a warm phase rotates slots. The
    // first write is held in the device until the other 47 are queued,
    // so the reaper's second pass holds them all, the rewrite of slot 0
    // included.
    const CALL: usize = 256 * KIB;
    let closed = Arc::new(AtomicBool::new(true));
    let held = closed.clone();
    let gate = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        if matches!(call, Call::Write { .. }) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while held.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        Ok(())
    });
    let gate = Arc::new(gate);
    let device = Arc::new(CountingBackend::new(gate.clone()));
    assert_eq!(device.lanes(), 1);
    let ring = Ring::new(device.clone(), RingConfig::default());
    let slot_bytes = (16 * CALL) as u64;
    let ops: Vec<(u64, Vec<u8>)> = [0u64, 1, 0]
        .iter()
        .enumerate()
        .flat_map(|(pass, &slot)| {
            (0..16).map(move |call| {
                let addr = slot * slot_bytes + (call * CALL) as u64;
                (addr, bytes(pass * 16 + call, CALL))
            })
        })
        .collect();
    let mut promises = Vec::new();
    for (i, (addr, data)) in ops.iter().enumerate() {
        let p = ring
            .submit_keyed(0, RingOp::write_raw(*addr, data.clone()))
            .accepted()
            .expect("a full shard blocks");
        promises.push(p);
        if i == 0 {
            while gate.counts().write_batches == 0 {
                std::thread::yield_now();
            }
        }
    }
    closed.store(false, Ordering::SeqCst);
    for p in promises {
        p.wait_cloned().into_result().expect("every write lands");
    }
    let want = CallCounts {
        write_batches: 2,
        segments: 48,
        bytes_written: 48 * CALL as u64,
        ..CallCounts::default()
    };
    assert_eq!(calls(device.counts()), want);
    // The rewrite of slot 0 is what slot 0 holds.
    for (addr, data) in &ops[16..] {
        let mut back = vec![0u8; CALL];
        device.read_at(*addr, &mut back).unwrap();
        assert!(&back == data, "the last write to {addr} lands last");
    }
}

#[test]
fn a_strided_native_script_on_one_lane_makes_the_same_calls() {
    // Two ranks interleaved one element apart over 128 Ki f32s, written
    // twice, flushed, and read back: strided_rw's shape.
    let device = Arc::new(CountingBackend::new(Arc::new(MemBackend::new())));
    let c = Container::create(device.clone());
    let n = 64 * KIB as u64;
    let space = Dataspace::d1(2 * n);
    let ds = c.create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous).unwrap();
    let before = device.counts();
    for pass in 0..2 {
        for rank in 0..2u64 {
            let sel = Selection::Slab(Hyperslab::strided(&[rank], &[n], &[2]));
            c.write_selection(ds, &sel, &bytes(pass * 2 + rank as usize, 4 * n as usize))
                .unwrap();
        }
    }
    c.flush().unwrap();
    for rank in 0..2u64 {
        let sel = Selection::Slab(Hyperslab::strided(&[rank], &[n], &[2]));
        let back = c.read_selection(ds, &sel).unwrap();
        assert!(back == bytes(2 + rank as usize, 4 * n as usize));
    }
    let moved = device.counts() - before;
    // What the script asked before writes had lanes: one sieved window
    // per write, the flush's read-back, metadata commit and two syncs,
    // and each read's verified pieces.
    let want = CallCounts {
        reads: 9,
        writes: 3,
        read_batches: 3,
        write_batches: 4,
        segments: 7,
        bytes_read: 3_145_712,
        bytes_written: 2_097_414,
        syncs: 2,
        ..CallCounts::default()
    };
    assert_eq!(calls(moved), want);
}
