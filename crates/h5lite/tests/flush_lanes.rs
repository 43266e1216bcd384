//! Wall time of the flush's checksum read-back against the device's
//! lanes (ISSUE 21). `ThrottledBackend` sleeps every read until its
//! booked completion, so Σ(latency + len / bandwidth) is a floor no
//! serial read-back can beat: a flush under half of it had at least two
//! reads in the throttle at once. The stamps themselves are held to the
//! hash of the bytes in `container.rs`'s unit tests; this file is alone
//! in its binary, and its tests take turns ([`turn`]), so that nothing
//! but the flush competes for the cores.
//!
//! The data barrier rides beside those lanes. [`paid_sync_device`]
//! makes a `sync` cost what it has to write back, so the barrier over
//! 32 MiB of dirty extents costs one four-lane read-back of them and
//! the two barriers after it next to nothing: a flush from the 4 MiB
//! floor up takes about one of the two, not both, and under the floor
//! the device sees the operations it always did, in the order it did.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use h5lite::container::ROOT_ID;
use h5lite::superblock::SUPERBLOCK_AREA;
use h5lite::{
    Call, Container, CountingBackend, Dataspace, Datatype, Layout, Selection, ThrottledBackend,
};

const MIB: usize = 1 << 20;
const RATE: f64 = 400e6;
const LATENCY: f64 = 2e-4;

fn bytes(salt: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 11) ^ (salt * 0x9E)) as u8).collect()
}

/// Flush sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks on a
/// device of `channels` lanes; returns the flush's wall time and what
/// the same read-backs cost one after another.
fn flush_wall(channels: usize) -> (f64, f64) {
    let device = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, channels));
    let c = Container::create(device.clone());
    let chunked = Layout::Chunked1D { chunk_elems: MIB as u64 };
    let shapes = (0..16).map(|_| (2 * MIB, Layout::Contiguous)).chain([(8 * MIB, chunked)]);
    for (i, (len, layout)) in shapes.enumerate() {
        let space = Dataspace::d1(len as u64);
        let ds = c.create_dataset(ROOT_ID, &format!("d{i}"), Datatype::U8, &space, layout).unwrap();
        c.write_selection(ds, &Selection::All, &bytes(i, len)).unwrap();
    }

    device.set_bandwidth(RATE);
    let t0 = Instant::now();
    c.flush().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    device.set_bandwidth(1e12);

    let report = c.scrub().unwrap();
    assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (24, 0, 0));
    let serial = 16.0 * (LATENCY + (2 * MIB) as f64 / RATE) + 8.0 * (LATENCY + MIB as f64 / RATE);
    (wall, serial)
}

/// The first of up to three flushes to come in under `factor × serial`
/// (else the fastest): the floor under a serial read-back holds on every
/// attempt, so one flush under the bound proves the overlap, while a
/// neighbour's burst on a shared machine can only slow an attempt down.
fn flush_within(channels: usize, factor: f64) -> (f64, f64) {
    let mut best = flush_wall(channels);
    for _ in 0..2 {
        if best.0 <= factor * best.1 {
            break;
        }
        let next = flush_wall(channels);
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// One test at a time: each of them times a flush.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn the_read_back_uses_every_lane_and_costs_nothing_where_there_is_one() {
    let _turn = turn();
    let (wall, serial) = flush_within(4, 0.5);
    assert!(wall <= 0.5 * serial, "four lanes: flush took {wall:.4} s of a serial {serial:.4} s");

    // Four lanes queueing on a one-lane device: the device's own time,
    // nothing added (the hashing hides under the next read's sleep).
    let (wall, serial) = flush_within(1, 1.1);
    assert!(wall >= serial, "the throttle sleeps {serial:.4} s, flush took {wall:.4} s");
    assert!(wall <= 1.1 * serial, "one lane: flush took {wall:.4} s of a serial {serial:.4} s");
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Op {
    Read,
    /// A scalar write, by where it starts.
    Write(u64),
    Sync,
}

/// The operations a device saw, in the order they arrived.
type OpLog = Arc<Mutex<Vec<Op>>>;

/// A four-lane throttle whose `sync` sleeps `sync_secs_per_byte` for
/// every byte written since the last one, and which logs every
/// operation, a batch segment by segment. Returns the device, its
/// throttle and its log.
fn paid_sync_device(sync_secs_per_byte: f64) -> (Arc<CountingBackend>, Arc<ThrottledBackend>, OpLog) {
    let throttle = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, 4));
    let ops = OpLog::default();
    let (log, unsynced) = (ops.clone(), AtomicU64::new(0));
    let note = move |op| log.lock().expect("no logger panics").push(op);
    let device = CountingBackend::new(throttle.clone()).with_hook(move |call| {
        match call {
            Call::Read { segments, .. } => segments.iter().for_each(|_| note(Op::Read)),
            Call::Write { segments, .. } => {
                for seg in segments {
                    note(Op::Write(seg.offset));
                    unsynced.fetch_add(seg.data.len() as u64, Ordering::SeqCst);
                }
            }
            Call::Sync => {
                note(Op::Sync);
                let dirty = unsynced.swap(0, Ordering::SeqCst);
                std::thread::sleep(Duration::from_secs_f64(dirty as f64 * sync_secs_per_byte));
            }
        }
        Ok(())
    });
    (Arc::new(device), throttle, ops)
}

fn take_ops(ops: &OpLog) -> Vec<Op> {
    std::mem::take(&mut *ops.lock().expect("no logger panics"))
}

/// Create (first call) and overwrite one contiguous dataset per entry
/// of `lens`.
fn dirty(c: &Container, lens: &[usize], salt: usize) {
    for (i, &len) in lens.iter().enumerate() {
        let name = format!("d{i}");
        let ds = c.lookup(ROOT_ID, &name).unwrap_or_else(|_| {
            let space = Dataspace::d1(len as u64);
            c.create_dataset(ROOT_ID, &name, Datatype::U8, &space, Layout::Contiguous).unwrap()
        });
        c.write_selection(ds, &Selection::All, &bytes(salt + i, len)).unwrap();
    }
}

#[test]
fn the_data_barrier_overlaps_the_lanes_instead_of_following_them() {
    let _turn = turn();
    // Sixteen 2 MiB read-backs on four lanes, and a barrier over the
    // same 32 MiB that costs as much: one after the other, twice that.
    // A quarter of the other test's rate, so that at any optimisation
    // level it is the sleeps that are timed and not the hashing.
    const RATE: f64 = 100e6;
    let read_back = 16.0 * (LATENCY + (2 * MIB) as f64 / RATE) / 4.0;
    let serial = 2.0 * read_back;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (device, throttle, _) = paid_sync_device(read_back / (32 * MIB) as f64);
        let c = Container::create(device);
        dirty(&c, &[2 * MIB; 16], 0);
        throttle.set_bandwidth(RATE);
        let t0 = Instant::now();
        c.flush().unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        throttle.set_bandwidth(1e12);
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (16, 0, 0));
        if best <= 0.65 * serial {
            break;
        }
    }
    assert!(best >= read_back, "the throttle sleeps {read_back:.4} s, flush took {best:.4} s");
    assert!(
        best <= 0.65 * serial,
        "flush took {best:.4} s; read-back then barrier is {serial:.4} s"
    );
}

#[test]
fn the_lane_floor_decides_which_barrier_sequence_the_device_sees() {
    let _turn = turn();
    let flush_ops = |lens: &[usize]| {
        let (device, _, ops) = paid_sync_device(0.0);
        let c = Container::create(device);
        dirty(&c, lens, 0);
        c.flush().unwrap();
        // Dirty again over a committed generation: one slot to write.
        dirty(&c, lens, 50);
        take_ops(&ops);
        let eof = c.allocated_bytes();
        c.flush().unwrap();
        (take_ops(&ops), eof)
    };

    // What every flush issued before the data had a barrier of its own:
    // the reads, the metadata extent at the old end of file, a barrier,
    // one slot, a barrier.
    let as_before = |ops: &[Op], reads: usize, eof: u64| {
        ops[..reads].iter().all(|op| *op == Op::Read)
            && matches!(ops[reads..], [Op::Write(meta), Op::Sync, Op::Write(slot), Op::Sync]
                if meta == eof && slot < SUPERBLOCK_AREA)
    };
    // 1 MiB dirty, and one byte short of the floor.
    let (ops, eof) = flush_ops(&[MIB / 4; 4]);
    assert!(as_before(&ops, 4, eof), "{ops:?}");
    let (ops, eof) = flush_ops(&[2 * MIB, 2 * MIB - 1]);
    assert!(as_before(&ops, 2, eof), "{ops:?}");

    // At the floor: the same two reads, and a barrier ahead of the rest.
    let (ops, eof) = flush_ops(&[2 * MIB; 2]);
    assert_eq!(ops.iter().filter(|op| **op == Op::Read).count(), 2, "{ops:?}");
    let rest: Vec<Op> = ops.iter().copied().filter(|op| *op != Op::Read).collect();
    assert!(
        matches!(rest[..], [Op::Sync, Op::Write(meta), Op::Sync, Op::Write(slot), Op::Sync]
            if meta == eof && slot < SUPERBLOCK_AREA),
        "{ops:?}"
    );
}
