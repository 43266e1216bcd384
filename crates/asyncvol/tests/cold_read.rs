//! A cold read: it waits on its dataset's last write and nothing else,
//! reads on the calling thread, and, when the connector's ring is idle,
//! decodes into elements a ring job made meanwhile.
//!
//! Every device read here can be held at a gate. A gate is a flag the
//! test opens; whatever must happen while it is closed is awaited with a
//! deadline, so a read stuck behind the wrong entry fails the test
//! rather than hanging it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncvol::AsyncVol;
use h5lite::container::ROOT_ID;
use h5lite::datatype::{from_bytes, to_bytes};
use h5lite::ring::{Ring, RingConfig};
use h5lite::{
    Call, Container, CountingBackend, Dataspace, Datatype, Hyperslab, Layout, MemBackend, ObjectId,
    Promise, ReadRequest, Result, Selection, StorageBackend, Vol,
};

const LEN: u64 = 4096;
const DEADLINE: Duration = Duration::from_secs(5);

/// Block until `done` holds, or fail the test naming `what` after
/// [`DEADLINE`].
fn within(what: &str, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < DEADLINE, "{what}: not within {DEADLINE:?}");
        std::thread::yield_now();
    }
}

/// What the device holds back: reads, writes, or neither, until `open`.
#[derive(Default)]
struct Gate {
    closed: AtomicBool,
    reads: AtomicBool,
    writes: AtomicBool,
    /// Device calls that arrived while the gate was closed.
    held: AtomicUsize,
}

impl Gate {
    fn hold(&self, reads: bool, writes: bool) {
        self.closed.store(true, Ordering::SeqCst);
        self.reads.store(reads, Ordering::SeqCst);
        self.writes.store(writes, Ordering::SeqCst);
    }

    fn open(&self) {
        self.closed.store(false, Ordering::SeqCst);
    }

    fn held(&self) -> usize {
        self.held.load(Ordering::SeqCst)
    }

    /// A memory device whose calls of the held kinds wait at the gate.
    fn device(self: &Arc<Gate>) -> Arc<dyn StorageBackend> {
        let gate = self.clone();
        Arc::new(CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let kind = match call {
                Call::Read { .. } => &gate.reads,
                Call::Write { .. } => &gate.writes,
                Call::Sync => return Ok(()),
            };
            if gate.closed.load(Ordering::SeqCst) && kind.load(Ordering::SeqCst) {
                gate.held.fetch_add(1, Ordering::SeqCst);
                while gate.closed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            Ok(())
        }))
    }
}

/// The `f32` elements the dataset holds: every bit pattern the ramp
/// makes, NaNs with payloads included.
fn data() -> Vec<f32> {
    (0..LEN as u32).map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9))).collect()
}

/// A container on `device` with one `f32` dataset holding [`data`],
/// flushed so reads verify.
fn container(device: Arc<dyn StorageBackend>) -> (Arc<Container>, ObjectId) {
    let c = Arc::new(Container::create(device));
    let ds = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &Dataspace::d1(LEN), Layout::Contiguous)
        .unwrap();
    c.write_selection(ds, &Selection::All, &to_bytes(&data())).unwrap();
    c.flush().unwrap();
    (c, ds)
}

fn half(which: u64) -> Selection {
    Selection::Slab(Hyperslab::range1(which * LEN / 2, LEN / 2))
}

/// The bytes of [`half`] `which` of [`data`].
fn half_bytes(which: u64) -> Vec<u8> {
    let data = data();
    let half = LEN as usize / 2;
    to_bytes(&data[which as usize * half..][..half])
}

/// A connector on a one-shard ring, attached so the test can queue a job
/// behind the connector's own.
fn connector() -> (AsyncVol, Arc<Ring>) {
    let ring = Arc::new(Ring::new(Arc::new(MemBackend::new()), RingConfig::default()));
    (AsyncVol::builder().ring(ring.clone()).build(), ring)
}

/// Issue a cold read of half 1 while every device read is held, and let
/// it finish only once the ring has run everything queued before it:
/// whatever the connector queued for the read has run, not raced it.
/// `take` gets the request on the reading thread.
fn held_cold_read<R: Send>(take: impl FnOnce(ReadRequest) -> R + Send) -> (R, AsyncVol) {
    let gate = Arc::new(Gate::default());
    let (c, ds) = container(gate.device());
    let (vol, ring) = connector();
    gate.hold(true, false);
    let taken = std::thread::scope(|s| {
        let reader = s.spawn(|| take(vol.dataset_read(&c, ds, &half(1)).unwrap()));
        within("the cold read reaches the device", || gate.held() > 0);
        // One shard: a job queued now runs after every earlier one.
        let marker: Promise<Result<()>> = Promise::new();
        ring.submit_job(0, marker.clone(), || Ok(()));
        within("the ring runs what the read queued", || marker.is_fulfilled());
        gate.open();
        reader.join().unwrap()
    });
    (taken, vol)
}

/// On an idle ring, a cold read's elements are made by a ring job while
/// the caller is held on the device, and the typed take decodes into
/// them: the prepared count is 1 (0 at the parent, which decoded every
/// cold read into fresh memory), and the elements are the dataset's.
#[test]
fn a_cold_read_on_an_idle_ring_decodes_into_elements_the_ring_made() {
    let (got, vol) = held_cold_read(|read| read.wait_as::<f32>().unwrap());
    assert_eq!(to_bytes(&got), half_bytes(1), "the elements read");
    let stats = vol.stats();
    assert_eq!((stats.blocking_reads, stats.prepared_reads), (1, 1), "blocking, prepared reads");
    vol.wait_all().unwrap();
}

/// A prepared cold read taken as bytes gives the bytes, and taken as
/// another type of the same width decodes them afresh, as before.
#[test]
fn a_prepared_cold_read_taken_as_bytes_or_another_type_reads_as_before() {
    let (bytes, vol) = held_cold_read(|read| read.wait().unwrap());
    assert_eq!(bytes, half_bytes(1), "taken as bytes");
    assert_eq!(vol.stats().prepared_reads, 1);
    let (ints, vol) = held_cold_read(|read| read.wait_as::<u32>().unwrap());
    assert_eq!(ints, from_bytes::<u32>(&half_bytes(1)).unwrap(), "taken as u32");
    assert_eq!(vol.stats().prepared_reads, 1);
}

/// A read after a read has no hazard: with a prefetch of half 0 held on
/// the device, a cold read of half 1 of the same dataset returns within
/// the deadline (at the parent it waited for the prefetch, as the
/// dataset's last entry), and the prefetch still serves its hit.
#[test]
fn a_cold_read_of_another_selection_skips_a_held_prefetch() {
    let gate = Arc::new(Gate::default());
    let (c, ds) = container(gate.device());
    let (vol, _ring) = connector();
    gate.hold(true, false);
    let _ = vol.prefetch(&c, ds, &half(0));
    within("the prefetch reaches the device", || gate.held() > 0);
    // Only the prefetch's read is held; the cold read's goes through.
    gate.reads.store(false, Ordering::SeqCst);
    let (tx, rx) = std::sync::mpsc::channel();
    let cold = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = tx.send(vol.dataset_read(&c, ds, &half(1)).and_then(ReadRequest::wait));
        });
        let cold = rx.recv_timeout(DEADLINE);
        gate.open();
        cold
    });
    let cold = cold.expect("the cold read waited for a held prefetch of another selection");
    assert_eq!(cold.unwrap(), half_bytes(1));
    let stats = vol.stats();
    assert_eq!((stats.blocking_reads, stats.prepared_reads), (1, 0), "the ring was busy");
    let hit = vol.dataset_read(&c, ds, &half(0)).unwrap().wait().unwrap();
    assert_eq!(hit, half_bytes(0), "the prefetch's hit");
    assert_eq!(vol.stats().prefetch_hits, 1);
    vol.wait_all().unwrap();
}

/// A cold read still waits for its dataset's last write: with a write to
/// half 1 held on the device, the cold read of half 1 is not back when
/// the write is released, and it returns the written bytes.
#[test]
fn a_cold_read_waits_for_its_datasets_held_write() {
    let gate = Arc::new(Gate::default());
    let (c, ds) = container(gate.device());
    let (vol, _ring) = connector();
    gate.hold(false, true);
    let written = vec![7u8; LEN as usize / 2 * 4];
    let _ = vol.dataset_write(&c, ds, &half(1), &written).unwrap();
    within("the write reaches the device", || gate.held() > 0);
    let (tx, rx) = std::sync::mpsc::channel();
    let cold = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = tx.send(vol.dataset_read(&c, ds, &half(1)).and_then(ReadRequest::wait));
        });
        let early = rx.recv_timeout(Duration::from_millis(50));
        assert!(early.is_err(), "the cold read returned before the held write landed");
        gate.open();
        rx.recv_timeout(DEADLINE)
    });
    assert_eq!(cold.expect("the cold read after the write").unwrap(), written);
    vol.wait_all().unwrap();
}

/// On a busy ring the cold read makes nothing there: with another
/// tenant's write held on the connector's one shard, B's cold read
/// returns within the deadline from fresh memory (prepared count 0), so
/// it never waits on the stream.
#[test]
fn a_cold_read_beside_another_tenants_held_write_uses_fresh_memory() {
    let gate = Arc::new(Gate::default());
    let (a, a_ds) = container(gate.device());
    let (b, b_ds) = container(Arc::new(MemBackend::new()));
    let (vol, ring) = connector();
    gate.hold(false, true);
    let _ = vol.dataset_write(&a, a_ds, &half(0), &[1; LEN as usize / 2 * 4]).unwrap();
    within("A's write reaches its device", || gate.held() > 0);
    assert_eq!(ring.occupancy(), 1, "A's write is in the ring");
    let (tx, rx) = std::sync::mpsc::channel();
    let cold = std::thread::scope(|s| {
        s.spawn(|| {
            let read = vol.dataset_read(&b, b_ds, &half(1));
            let _ = tx.send(read.and_then(ReadRequest::wait_as::<f32>));
        });
        let cold = rx.recv_timeout(DEADLINE);
        gate.open();
        cold
    });
    let cold = cold.expect("B's cold read waited on the stream behind A's held write");
    assert_eq!(to_bytes(&cold.unwrap()), half_bytes(1));
    let stats = vol.stats();
    assert_eq!((stats.blocking_reads, stats.prepared_reads), (1, 0), "blocking, prepared reads");
    vol.wait_all().unwrap();
}
