//! The flush's checksum read-back against a device of several channels,
//! and the data barrier beside it, each proved twice.
//!
//! By count, in every build: sixteen dirty 2 MiB extents are read back
//! as four vectored calls of 8 MiB, one at a time, all on the flushing
//! thread — the device stripes each call over its channels itself
//! ([`ThrottledBackend`]), and each window is hashed beside the next
//! one's read — and a device that holds each read until a
//! `sync` arrives sees the data barrier arrive while a window read is
//! held. A 512 KiB verified read spawns no thread: while it is inside
//! the device the process has the threads it had before (Linux, from
//! `/proc/self/task`). Each call and each hold ends at a deadline, so a
//! lost overlap or a hang fails the test instead of hanging it.
//!
//! By wall time, in release builds only (`ci.sh` reruns `window` and
//! `barrier` there): a debug build's hashing is slow enough to be what
//! these bounds time.
//! `ThrottledBackend` sleeps every call until its booked completion, so
//! a window read costs `latency + window / (channels · rate)`, and the
//! read-back costs its windows' service times and the last window's
//! hashing: about a quarter of one call per extent on four channels,
//! and on one channel one latency per window, not per extent. [`paid_sync_device`] makes a `sync` cost what
//! it has to write back, so the barrier over 32 MiB of dirty extents
//! costs one read-back of them and the two barriers after it next to
//! nothing: a flush from the 4 MiB floor up takes about one of the two,
//! not both. Under the floor the device sees the operations it always
//! did, in the order it did.
//!
//! The stamps themselves are held to the hash of the bytes in
//! `integrity.rs`'s unit tests; this file is alone in its binary, and
//! its tests take turns ([`turn`]), so that nothing but the flush
//! competes for the cores.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use h5lite::container::ROOT_ID;
use h5lite::superblock::SUPERBLOCK_AREA;
use h5lite::{
    Call, Container, CountingBackend, Dataspace, Datatype, Layout, Selection, ThrottledBackend,
};

const MIB: usize = 1 << 20;
#[cfg(not(debug_assertions))]
const RATE: f64 = 400e6;
const LATENCY: f64 = 2e-4;

fn bytes(salt: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i ^ (i >> 11) ^ (salt * 0x9E)) as u8).collect()
}

/// Flush sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks, 40
/// MiB in five windows, on a device of `channels` channels and
/// `latency` a call; returns the flush's wall time.
#[cfg(not(debug_assertions))]
fn flush_wall(channels: usize, latency: f64) -> f64 {
    let device = Arc::new(ThrottledBackend::with_channels(1e12, latency, channels));
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
    wall
}

/// The fastest of up to three flushes, stopping at the first to come in
/// under `bound`: the device's floor holds on every attempt, so one
/// flush under the bound proves the shape, while a neighbour's burst on
/// a shared machine can only slow an attempt down.
#[cfg(not(debug_assertions))]
fn flush_within(channels: usize, latency: f64, bound: f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(flush_wall(channels, latency));
        if best <= bound {
            break;
        }
    }
    best
}

/// One test at a time: each of them times a flush.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How long a held read or barrier waits for the other side before it
/// gives up, and how long a flush may take, so that a lost overlap or a
/// hang fails instead of hanging.
const HOLD: Duration = Duration::from_secs(5);

/// Run `f` on a thread of its own; returns what it returned and that
/// thread's id, and fails the test if `f` is still running after twice
/// [`HOLD`].
fn by_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> (R, ThreadId) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || tx.send(f()).unwrap());
    let id = worker.thread().id();
    let out = rx.recv_timeout(2 * HOLD).expect("the call missed its deadline");
    worker.join().unwrap();
    (out, id)
}

/// Flush `c` by the deadline ([`by_deadline`]); returns the flushing
/// thread's id.
fn flush_by_deadline(c: &Arc<Container>) -> ThreadId {
    let flushing = c.clone();
    let (flushed, id) = by_deadline(move || flushing.flush());
    flushed.unwrap();
    id
}

#[test]
fn a_flush_of_sixteen_2_mib_extents_is_four_read_calls_on_the_flushing_thread() {
    let _turn = turn();
    // Every read call, once armed, logs the thread it is made on.
    let armed = Arc::new(AtomicBool::new(false));
    let readers = Arc::new(Mutex::new(Vec::new()));
    let (on, log) = (armed.clone(), readers.clone());
    let throttle = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, 4));
    let device = Arc::new(CountingBackend::new(throttle).with_hook(move |call| {
        if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
            log.lock().unwrap().push(thread::current().id());
        }
        Ok(())
    }));
    let c = Arc::new(Container::create(device.clone()));
    dirty(&c, &[2 * MIB; 16], 0);
    armed.store(true, Ordering::SeqCst);
    let before = device.counts();
    let flusher = flush_by_deadline(&c);
    let moved = device.counts() - before;
    assert_eq!(*readers.lock().unwrap(), [flusher; 4], "four calls, on the flushing thread");
    assert_eq!((moved.reads, moved.read_batches), (0, 4), "{moved:?}");
    assert_eq!(moved.most_reads_in_flight, 1, "{moved:?}");
    assert_eq!(moved.bytes_read, 32 * MIB as u64, "{moved:?}");
}

/// Threads of this process, as the kernel lists them.
#[cfg(target_os = "linux")]
fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

#[cfg(target_os = "linux")]
#[test]
fn a_512_kib_verified_read_spawns_no_thread() {
    let _turn = turn();
    // Every read, once armed, notes how many threads the process has
    // while it is inside the device; the other tests wait their turn.
    let armed = Arc::new(AtomicBool::new(false));
    let most = Arc::new(AtomicUsize::new(0));
    let (on, seen) = (armed.clone(), most.clone());
    let throttle = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, 4));
    let device = CountingBackend::new(throttle).with_hook(move |call| {
        if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
            seen.fetch_max(threads_now(), Ordering::SeqCst);
        }
        Ok(())
    });
    let c = Arc::new(Container::create(Arc::new(device)));
    dirty(&c, &[512 << 10], 7);
    c.flush().unwrap();
    let ds = c.lookup(ROOT_ID, "d0").unwrap();
    armed.store(true, Ordering::SeqCst);
    let reader = c.clone();
    let ((got, before), _) = by_deadline(move || {
        let before = threads_now();
        (reader.read_selection(ds, &Selection::All), before)
    });
    assert_eq!(got.unwrap(), bytes(7, 512 << 10));
    let during = most.load(Ordering::SeqCst);
    let more = during.saturating_sub(before);
    assert_eq!(during, before, "the read ran beside {more} more thread(s)");
}

#[test]
fn the_data_barrier_arrives_while_a_window_read_is_held() {
    let _turn = turn();
    // Every read of the flush is held until a `sync` has arrived, and
    // the first `sync` waits until a read is held before it records how
    // many are: a barrier that followed the read-back would find none.
    let armed = Arc::new(AtomicBool::new(false));
    let (held, synced) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicBool::new(false)));
    let held_at_barrier = Arc::new(AtomicUsize::new(usize::MAX));
    let readers = Arc::new(Mutex::new(Vec::new()));
    let (on, holding, seen, at_barrier, log) =
        (armed.clone(), held.clone(), synced.clone(), held_at_barrier.clone(), readers.clone());
    let throttle = Arc::new(ThrottledBackend::with_channels(1e12, LATENCY, 4));
    let device = CountingBackend::new(throttle).with_hook(move |call| {
        if !on.load(Ordering::SeqCst) {
            return Ok(());
        }
        let deadline = Instant::now() + HOLD;
        match call {
            Call::Read { .. } => {
                log.lock().unwrap().push(thread::current().id());
                holding.fetch_add(1, Ordering::SeqCst);
                while !seen.load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::yield_now();
                }
                holding.fetch_sub(1, Ordering::SeqCst);
            }
            Call::Sync if !seen.load(Ordering::SeqCst) => {
                while holding.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    thread::yield_now();
                }
                at_barrier.store(holding.load(Ordering::SeqCst), Ordering::SeqCst);
                seen.store(true, Ordering::SeqCst);
            }
            _ => {}
        }
        Ok(())
    });
    let c = Arc::new(Container::create(Arc::new(device)));
    dirty(&c, &[2 * MIB; 16], 0);
    armed.store(true, Ordering::SeqCst);
    let flusher = flush_by_deadline(&c);
    let held = held_at_barrier.load(Ordering::SeqCst);
    assert_eq!(held, 1, "the data barrier found {held} window reads held");
    assert_eq!(*readers.lock().unwrap(), [flusher; 4], "four calls, on the flushing thread");
    let report = c.scrub().unwrap();
    assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (16, 0, 0));
}

#[cfg(not(debug_assertions))]
#[test]
fn a_windowed_read_back_costs_the_service_time_of_its_windows() {
    let _turn = turn();
    // What the read-back did when it was one call per extent, 24 of
    // them, one channel each: their sum is what one channel gave it.
    let serial = 16.0 * (LATENCY + (2 * MIB) as f64 / RATE) + 8.0 * (LATENCY + MIB as f64 / RATE);
    let wall = flush_within(4, LATENCY, 0.5 * serial);
    assert!(wall <= 0.5 * serial, "four channels: flush took {wall:.4} s, serial {serial:.4} s");

    // One channel and a latency of 5 ms: five windows and the two
    // commit writes pay seven latencies, where a call per extent paid
    // 26. Nothing is added to the device's own time but the last
    // window's hash (the others hide under the next window's read).
    const SLOW: f64 = 5e-3;
    let floor = 7.0 * SLOW + (40 * MIB) as f64 / RATE;
    let bound = 1.1 * floor;
    let wall = flush_within(1, SLOW, bound);
    assert!(wall >= floor, "the throttle sleeps {floor:.4} s, flush took {wall:.4} s");
    assert!(wall <= bound, "one channel: flush took {wall:.4} s, over {bound:.4} s");
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Op {
    /// One segment of a read call.
    Read,
    /// A scalar write, by where it starts.
    Write(u64),
    Sync,
}

/// The operations a device saw, in the order they arrived.
type OpLog = Arc<Mutex<Vec<Op>>>;

/// A four-channel throttle whose `sync` sleeps `sync_secs_per_byte` for
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
                thread::sleep(Duration::from_secs_f64(dirty as f64 * sync_secs_per_byte));
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

#[cfg(not(debug_assertions))]
#[test]
fn the_data_barrier_overlaps_the_read_back_instead_of_following_it() {
    let _turn = turn();
    // Sixteen 2 MiB extents in four 8 MiB windows on four channels, and
    // a barrier over the same 32 MiB that costs as much: one after the
    // other, twice that. A quarter of the other test's rate, so that at
    // any optimisation level it is the sleeps that are timed and not
    // the hashing.
    const RATE: f64 = 100e6;
    let read_back = 4.0 * (LATENCY + (8 * MIB) as f64 / 4.0 / RATE);
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
fn the_barrier_floor_decides_which_barrier_sequence_the_device_sees() {
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
