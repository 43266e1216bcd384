//! The one-copy write path (ISSUE 13, DESIGN.md §17): a deferred write
//! costs its caller one pass over the data into a recycled buffer, the
//! connector owns that buffer from issue to retirement, and the buffer
//! comes back to the recycler. A read's output is recycled memory too,
//! given back by whoever decodes it, and (f) holds the bytes no record
//! fills to zeros.
//!
//! The recycler is process-wide and first in, first out, so which buffer
//! a write gets depends on what every earlier test left behind and on
//! how the caller and the background threads interleave. The tests here
//! therefore take turns ([`pool_turn`]) and start from a known pool:
//! [`stock`] empties a size class and fills it with marked buffers of
//! the test's own. "Recycled" then has a deterministic meaning — every
//! payload the backend sees lies in one of those buffers and the
//! recycler allocated nothing — and the marks (`0xA5` in every byte)
//! double as the stale bytes that must never reach the backend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use apio::asyncvol::{AsyncVol, BreakerConfig, BreakerState, RetryPolicy};
use apio::h5lite::datatype::to_bytes;
use apio::h5lite::ring::{Ring, RingConfig};
use apio::h5lite::container::ROOT_ID;
use apio::h5lite::{
    recycle, Call, Container, CountingBackend, Dataspace, Datatype, File, H5Error, Hyperslab,
    Layout, MemBackend, ObjectId, ReadRequest, Request, Selection, Vol,
};

const STALE: u8 = 0xA5;
const EPOCHS: usize = 3;
const WRITES: usize = 8;

static POOL: Mutex<()> = Mutex::new(());

/// One test at a time touches the process-wide recycler.
fn pool_turn() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Empty the size class serving `len`-byte requests: take until the
/// recycler has to allocate, and let everything taken go to the
/// allocator. Returns how many pooled buffers that removed.
fn drain(len: usize) -> usize {
    let mut held = Vec::new();
    loop {
        let misses = recycle::stats().misses;
        held.push(recycle::take(len));
        if recycle::stats().misses > misses {
            return held.len() - 1;
        }
    }
}

/// Empty the class serving `len`, then give it `count` buffers full of
/// [`STALE`]. Returns the address range of each.
fn stock(len: usize, count: usize) -> Vec<(usize, usize)> {
    drain(len);
    let class = len.next_power_of_two();
    (0..count)
        .map(|_| {
            let buf = vec![STALE; class];
            let range = (buf.as_ptr() as usize, buf.as_ptr() as usize + class);
            recycle::give(buf);
            range
        })
        .collect()
}

/// What the device saw of payload-sized write segments: where each one
/// lives and whether one carried a stale byte. Such writes wait while
/// the gate is closed and fail while `failing` is set.
#[derive(Default)]
struct Payloads {
    seen: Mutex<Vec<usize>>,
    stale_seen: AtomicBool,
    closed: Mutex<bool>,
    opened: Condvar,
    failing: AtomicBool,
}

impl Payloads {
    fn set_gate(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }

    fn take_seen(&self) -> Vec<usize> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }

    fn note(&self, data: &[u8]) -> apio::h5lite::Result<()> {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            closed = self.opened.wait(closed).unwrap();
        }
        drop(closed);
        if self.failing.load(Ordering::SeqCst) {
            return Err(H5Error::Storage("injected payload write failure".into()));
        }
        self.seen.lock().unwrap().push(data.as_ptr() as usize);
        if data.contains(&STALE) {
            self.stale_seen.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// A counted [`MemBackend`] that puts every `payload_len`-byte write
/// segment through [`Payloads::note`]; shorter or longer ones are
/// metadata.
fn recording(payload_len: usize) -> (Arc<CountingBackend>, Arc<Payloads>) {
    let payloads = Arc::new(Payloads::default());
    let noted = payloads.clone();
    let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
        let Call::Write { segments, .. } = call else {
            return Ok(());
        };
        segments
            .iter()
            .filter(|seg| seg.data.len() == payload_len)
            .try_for_each(|seg| noted.note(seg.data))
    });
    (Arc::new(backend), payloads)
}

/// The four regimes `AsyncVol` routes a write through.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Regime {
    /// Raw segments on the attached ring.
    RingDram,
    /// No ring attached: raw segments on the ring the connector builds,
    /// naming the container's device.
    TaskDram,
    /// Snapshots staged to a device: a job on the ring the connector
    /// builds that reads its payload back from the log.
    TaskWal,
    /// Inline on the caller's thread, with the circuit breaker open.
    Degraded,
}

const REGIMES: [Regime; 4] = [
    Regime::RingDram,
    Regime::TaskDram,
    Regime::TaskWal,
    Regime::Degraded,
];

/// Which `Vol` entry point the writes use.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Entry {
    /// `Dataset::write_slab_async`: encode, then `dataset_write_owned`.
    Owned,
    /// `Vol::dataset_write(&[u8])`: the connector copies.
    Borrowed,
}

fn connector(regime: Regime, backend: &Arc<CountingBackend>) -> AsyncVol {
    let builder = AsyncVol::builder().streams(1).retry(RetryPolicy::none());
    match regime {
        Regime::RingDram => {
            let ring = Ring::new(backend.clone(), RingConfig::default());
            builder.ring(Arc::new(ring)).build()
        }
        Regime::TaskDram => builder.build(),
        Regime::TaskWal => builder.stage_to_device(Arc::new(MemBackend::new())).build(),
        // One failure opens the breaker, and it never probes again.
        Regime::Degraded => builder
            .breaker(BreakerConfig {
                failure_threshold: 1,
                probe_after: u32::MAX,
            })
            .build(),
    }
}

/// Element `i` of write `w` in `epoch`: neither byte is ever [`STALE`].
fn value(epoch: usize, w: usize, i: usize) -> u16 {
    let high = ((epoch * 31 + w * 7 + i) % 100) as u16;
    let low = (i % 90) as u16 + 1;
    high << 8 | low
}

/// Three epochs of [`WRITES`] writes of `elems` `u16`s through `regime`,
/// from a pool stocked with marked buffers.
fn run_regime(regime: Regime, entry: Entry, elems: usize) {
    let what = format!("{regime:?}/{entry:?}/{elems}");
    let payload_len = elems * 2;
    let (backend, payloads) = recording(payload_len);
    let container = Arc::new(Container::create(backend.clone()));
    let vol = Arc::new(connector(regime, &backend));
    let file = File::from_parts(container.clone(), vol.clone());
    let ds = file
        .root()
        .create_dataset::<u16>("x", &Dataspace::d1((WRITES * elems) as u64))
        .unwrap();
    let slab = |w: usize| Selection::Slab(Hyperslab::range1((w * elems) as u64, elems as u64));

    if regime == Regime::Degraded {
        payloads.failing.store(true, Ordering::SeqCst);
        let req = ds.write_slab_async(&slab(0), &vec![1u16; elems]).unwrap();
        assert!(vol.wait(req).is_err(), "{what}: the tripping write fails");
        payloads.failing.store(false, Ordering::SeqCst);
        assert_eq!(vol.breaker_state(), BreakerState::Open, "{what}");
    }

    // The WAL frame (payload plus a short header) has a buffer of its
    // own; when it shares the payload's class the second call restocks.
    stock(payload_len + 256, 2);
    let pool = stock(payload_len, WRITES + 2);
    let before = recycle::stats();

    let mut expect = Vec::new();
    for epoch in 0..EPOCHS {
        expect.clear();
        for w in 0..WRITES {
            let values: Vec<u16> = (0..elems).map(|i| value(epoch, w, i)).collect();
            let issued = match entry {
                Entry::Owned => ds.write_slab_async(&slab(w), &values),
                Entry::Borrowed => {
                    vol.dataset_write(&container, ds.id(), &slab(w), &to_bytes(&values))
                }
            };
            let req = issued.unwrap();
            assert_eq!(req.is_sync(), regime == Regime::Degraded, "{what}");
            // Staged, the background read-back takes a buffer too. A
            // take beside another take can find the head slot just
            // claimed and allocate, so the writes go one at a time.
            if regime == Regime::TaskWal {
                vol.wait(req).unwrap();
            }
            expect.extend(values);
        }
        file.wait_all().unwrap();
        let seen = payloads.take_seen();
        assert_eq!(
            seen.len(),
            WRITES,
            "{what}: epoch {epoch}, one payload per write"
        );
        for ptr in seen {
            assert!(
                pool.iter().any(|&(lo, hi)| (lo..hi).contains(&ptr)),
                "{what}: epoch {epoch} wrote from {ptr:#x}, which is not a recycled buffer"
            );
        }
    }
    let after = recycle::stats();
    assert_eq!(
        after.misses, before.misses,
        "{what}: the recycler allocated"
    );
    assert!(
        after.hits >= before.hits + (EPOCHS * WRITES) as u64,
        "{what}"
    );
    assert!(
        !payloads.stale_seen.load(Ordering::SeqCst),
        "{what}: a stale byte reached the backend"
    );
    assert_eq!(ds.read::<u16>().unwrap(), expect, "{what}: read-back");
}

/// (a) Every regime writes from recycled buffers and, in the steady
/// state, allocates none. The payload fills its size class exactly.
#[test]
fn snapshot_buffers_are_recycled_in_every_regime() {
    let _turn = pool_turn();
    for regime in REGIMES {
        run_regime(regime, Entry::Owned, 32_768);
    }
}

/// (b) A handed-out buffer holds stale bytes; both ways of filling one —
/// the slice encoder and the borrowed entry's `copy_from_slice` — leave
/// none, also when the request is smaller than its size class.
#[test]
fn stale_bytes_never_reach_the_backend() {
    let _turn = pool_turn();
    for regime in REGIMES {
        for entry in [Entry::Owned, Entry::Borrowed] {
            run_regime(regime, entry, 20_000);
        }
    }
}

/// (c) A write that fails for good gives its snapshot back like one
/// that lands, with nobody waiting on it, whether it ran as raw segments
/// on the attached ring or on the one the connector builds: 16
/// borrowed writes to a device that fails every payload write, each left
/// to settle and never waited on, and every take after the first finds
/// a buffer the one before it gave back.
#[test]
fn a_failed_write_gives_its_snapshot_back_without_a_wait() {
    let _turn = pool_turn();
    let len = 12_000usize;
    for regime in [Regime::RingDram, Regime::TaskDram] {
        let (backend, payloads) = recording(len);
        let container = Arc::new(Container::create(backend.clone()));
        let builder = AsyncVol::builder().retry(RetryPolicy::none()).breaker(BreakerConfig {
            failure_threshold: u32::MAX,
            probe_after: u32::MAX,
        });
        let vol = Arc::new(match regime {
            Regime::RingDram => {
                let ring = Ring::new(backend.clone(), RingConfig::default());
                builder.ring(Arc::new(ring)).build()
            }
            _ => builder.build(),
        });
        let file = File::from_parts(container.clone(), vol.clone());
        let ds = file
            .root()
            .create_dataset::<u8>("x", &Dataspace::d1(len as u64))
            .unwrap();
        payloads.failing.store(true, Ordering::SeqCst);
        drain(len);
        let mut hits = Vec::new();
        for w in 0..16u8 {
            let before = recycle::stats().hits;
            let req = vol
                .dataset_write(&container, ds.id(), &Selection::All, &vec![w; len])
                .unwrap();
            hits.push(recycle::stats().hits > before);
            assert!(!req.is_sync(), "{regime:?}: write {w} went to a ring");
            while vol.stats().queued > 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(
            hits[1..],
            [true; 15],
            "{regime:?}: which snapshot takes hit the recycler: {hits:?}"
        );
        assert!(vol.wait_all().is_err(), "{regime:?}: every write failed");
        assert_eq!(vol.breaker_state(), BreakerState::Closed, "{regime:?}");
    }
}

/// A connector written before `dataset_write_owned` existed.
struct BorrowedOnly(Arc<AsyncVol>);

impl Vol for BorrowedOnly {
    fn name(&self) -> &str {
        "borrowed-only"
    }

    fn dataset_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: &[u8],
    ) -> apio::h5lite::Result<Request> {
        self.0.dataset_write(c, ds, sel, data)
    }

    fn dataset_read(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
    ) -> apio::h5lite::Result<ReadRequest> {
        self.0.dataset_read(c, ds, sel)
    }

    fn wait(&self, req: Request) -> apio::h5lite::Result<()> {
        self.0.wait(req)
    }

    fn wait_all(&self) -> apio::h5lite::Result<()> {
        self.0.wait_all()
    }
}

/// (d) Through `Vol`'s default method a wrapper that only knows the
/// borrowed form still gets a snapshot: the API's encode buffer goes
/// back to the recycler the moment the call returns and the next write
/// scribbles over it, the caller scribbles over its own — and what
/// lands, once the device lets anything land, is what was written.
#[test]
fn a_borrowed_only_wrapper_still_gets_snapshot_semantics() {
    let _turn = pool_turn();
    let elems = 32_768usize;
    let (backend, payloads) = recording(elems * 2);
    let container = Arc::new(Container::create(backend.clone()));
    let ring = Arc::new(Ring::new(backend, RingConfig::default()));
    let wrapper = Arc::new(BorrowedOnly(Arc::new(
        AsyncVol::builder().ring(ring).build(),
    )));
    let file = File::from_parts(container.clone(), wrapper.clone());
    let ds = file
        .root()
        .create_dataset::<u16>("x", &Dataspace::d1(3 * elems as u64))
        .unwrap();
    let slab = |w: usize| Selection::Slab(Hyperslab::range1((w * elems) as u64, elems as u64));
    // One buffer in the class: the second write must reuse the first's.
    stock(elems * 2, 1);
    let before = recycle::stats();

    payloads.set_gate(true);
    let first = vec![0x1111u16; elems];
    let second = vec![0x2222u16; elems];
    let _ = ds.write_slab_async(&slab(0), &first).unwrap();
    let _ = ds.write_slab_async(&slab(1), &second).unwrap();
    let mut raw = to_bytes(&vec![0x3333u16; elems]);
    let _ = wrapper
        .dataset_write(&container, ds.id(), &slab(2), &raw)
        .unwrap();
    raw.fill(0xEE);
    assert!(
        payloads.take_seen().is_empty(),
        "nothing lands past the gate"
    );
    payloads.set_gate(false);
    file.wait_all().unwrap();

    let mut expect = first;
    expect.extend(second);
    expect.extend(vec![0x3333u16; elems]);
    assert_eq!(ds.read::<u16>().unwrap(), expect);
    assert!(
        recycle::stats().hits - before.hits >= 2,
        "the encode buffer was reused while the first write was still queued"
    );
}

/// (e) The cap is a constant: a full class frees what it is given.
#[test]
fn a_full_size_class_drops_the_excess() {
    let _turn = pool_turn();
    let len = 8_192usize; // a class of 64 slots no other test uses
    drain(len);
    let before = recycle::stats();
    for _ in 0..70 {
        recycle::give(vec![0u8; len]);
    }
    assert_eq!(recycle::stats().dropped - before.dropped, 6);
    assert_eq!(drain(len), 64, "exactly the class's slots were kept");
    // What the pool cannot hold at all is not its business.
    recycle::give(vec![0u8; recycle::MIN_CLASS_BYTES - 1]);
    recycle::give(Vec::with_capacity(3 * len));
    assert_eq!(recycle::stats().dropped - before.dropped, 6);
    const { assert!(recycle::CAP_BYTES < 1 << 30) };
}

/// (e) Four threads take, scribble, check and give: no buffer is ever
/// in two hands (a foreign scribble would break the check), and none is
/// lost — at the end the pool holds exactly what was ever allocated,
/// less what it counted as dropped. How many that is depends on how the
/// threads interleave, so the allocation bound is taken from rounds in
/// lockstep, where the test decides who holds what.
#[test]
fn concurrent_take_and_give_lose_and_duplicate_nothing() {
    let _turn = pool_turn();
    let len = 16_384usize;
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 2_000;

    // From an empty class, each round's takes one at a time, then all
    // its gives at once. No take meets a give's publication or another
    // take's claim of the head slot (either can make a take allocate),
    // so the pool allocates one buffer per simultaneous holder and
    // serves every later round.
    drain(len);
    let before = recycle::stats();
    let (step, one_taker) = (std::sync::Barrier::new(THREADS as usize), Mutex::new(()));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (step, one_taker) = (&step, &one_taker);
            scope.spawn(move || {
                for _ in 0..16 {
                    let buf = {
                        let _alone = one_taker.lock().unwrap();
                        recycle::take(len)
                    };
                    step.wait();
                    recycle::give(buf);
                    step.wait();
                }
            });
        }
    });
    let after = recycle::stats();
    let allocated = after.misses - before.misses;
    assert_eq!(allocated, THREADS, "{allocated} buffers for 4 holders");
    assert_eq!(after.dropped, before.dropped);

    drain(len);
    let before = recycle::stats();
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let tag = (t << 32 | round).to_le_bytes();
                    let mut buf = recycle::take(len);
                    assert_eq!(buf.len(), len);
                    buf[..8].copy_from_slice(&tag);
                    buf[len - 8..].copy_from_slice(&tag);
                    std::thread::yield_now();
                    assert_eq!(buf[..8], tag, "someone else holds this buffer");
                    assert_eq!(buf[len - 8..], tag, "someone else holds this buffer");
                    recycle::give(buf);
                }
            });
        }
    });
    let after = recycle::stats();
    let takes = (after.hits - before.hits) + (after.misses - before.misses);
    assert_eq!(takes, THREADS * ROUNDS);
    // At least one per simultaneous holder; a take that races a give's
    // publication allocates one more, which then joins the pool.
    let allocated = after.misses - before.misses;
    // A give can find its slot still claimed by a preempted taker and
    // free the buffer instead, as for a full class; that is counted.
    let freed = after.dropped - before.dropped;
    assert_eq!(drain(len) as u64 + freed, allocated, "every buffer came back");
}

/// (e) The same under `argolite::explore`: four workers' take and give
/// steps in seeded orders, checked after every step. Starting from an
/// empty class a take allocates exactly when every buffer so far is in
/// someone's hands, so allocations equal the peak number of holders; a
/// buffer handed to two holders would show as a repeated address.
#[cfg(feature = "debug-invariants")]
#[test]
fn explored_take_and_give_orders_keep_the_pool_exact() {
    use apio::argolite::explore::{explore, TaskGraph};
    use std::collections::HashSet;

    const WORKERS: usize = 4;
    const ROUNDS: usize = 3;
    let _turn = pool_turn();
    let len = 32_768usize;
    let seeds = std::env::var("APIO_EXPLORE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);

    #[derive(Default)]
    struct Hands {
        held: Vec<Option<Vec<u8>>>,
        peak: usize,
        misses_at_start: u64,
    }
    let hands = Arc::new(Mutex::new(Hands::default()));
    let build = || {
        drain(len);
        *hands.lock().unwrap() = Hands {
            held: (0..WORKERS).map(|_| None).collect(),
            peak: 0,
            misses_at_start: recycle::stats().misses,
        };
        let mut g = TaskGraph::new();
        for w in 0..WORKERS {
            let mut prev = None;
            for round in 0..ROUNDS {
                let h = hands.clone();
                let take = g.add_task(format!("take:{w}:{round}"), move || {
                    let buf = recycle::take(len);
                    let mut h = h.lock().unwrap();
                    h.held[w] = Some(buf);
                    h.peak = h.peak.max(h.held.iter().flatten().count());
                });
                let h = hands.clone();
                let give = g.add_task(format!("give:{w}:{round}"), move || {
                    let buf = h.lock().unwrap().held[w].take().expect("taken before");
                    recycle::give(buf);
                });
                if let Some(prev) = prev {
                    g.add_edge(prev, take);
                }
                g.add_edge(take, give);
                prev = Some(give);
            }
        }
        g
    };
    let report = explore(seeds, build, |step| {
        let h = hands.lock().unwrap();
        let ptrs: HashSet<usize> = h
            .held
            .iter()
            .flatten()
            .map(|b| b.as_ptr() as usize)
            .collect();
        if ptrs.len() != h.held.iter().flatten().count() {
            return Err(format!("one buffer in two hands after `{}`", step.label));
        }
        let allocated = recycle::stats().misses - h.misses_at_start;
        if allocated != h.peak as u64 {
            return Err(format!(
                "{allocated} allocations for a peak of {} holders after `{}`",
                h.peak, step.label
            ));
        }
        Ok(())
    });
    assert!(report.ok(), "failure: {}", report.failure.unwrap());
    assert_eq!(report.seeds_run, seeds);
    assert!(report.distinct_orders >= 2);
}

/// (f) A read fills recycled memory, and a hole in it reads as zeros:
/// a chunked dataset with a never-allocated chunk between written ones,
/// read right after its size class was stocked with buffers full of
/// `0xAA`, returns the written bytes and zeros in the hole — unflushed
/// (planned reads only) and flushed (verified reads) alike — and so does
/// the unwritten tail of an extent past the device's end.
#[test]
fn a_hole_in_a_read_into_recycled_memory_reads_as_zeros() {
    let _turn = pool_turn();
    const CHUNK: usize = 2048;
    let len = 5 * CHUNK; // a 16 KiB class
    let c = Container::create_mem();
    let layout = Layout::Chunked1D { chunk_elems: CHUNK as u64 };
    let ds = c
        .create_dataset(ROOT_ID, "holes", Datatype::U8, &Dataspace::d1(len as u64), layout)
        .unwrap();
    let mut want: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
    for chunk in [0, 1, 3, 4] {
        let sel = Selection::Slab(Hyperslab::range1((chunk * CHUNK) as u64, CHUNK as u64));
        c.write_selection(ds, &sel, &want[chunk * CHUNK..][..CHUNK]).unwrap();
    }
    want[2 * CHUNK..3 * CHUNK].fill(0);
    for flushed in [false, true] {
        if flushed {
            c.flush().unwrap();
        }
        drain(len);
        for _ in 0..4 {
            recycle::give(vec![0xAA; len.next_power_of_two()]);
        }
        let hits = recycle::stats().hits;
        let got = c.read_selection(ds, &Selection::All).unwrap();
        assert!(recycle::stats().hits > hits, "the read took a recycled buffer");
        let hole = &got[2 * CHUNK..3 * CHUNK];
        assert!(hole.iter().all(|&b| b == 0), "flushed {flushed}: a stale hole");
        assert_eq!(got, want, "flushed {flushed}");
    }
    assert_eq!(c.integrity_stats().verified_extents, 4, "the flushed read was verified");

    // A contiguous extent written only at its head, the last thing
    // allocated: its tail lies past the device's end, and reads as zeros.
    let space = Dataspace::d1(len as u64);
    let tail = c.create_dataset(ROOT_ID, "tail", Datatype::U8, &space, Layout::Contiguous).unwrap();
    let head = Selection::Slab(Hyperslab::range1(0, CHUNK as u64));
    c.write_selection(tail, &head, &want[..CHUNK]).unwrap();
    drain(len);
    for _ in 0..4 {
        recycle::give(vec![0xAA; len.next_power_of_two()]);
    }
    let got = c.read_selection(tail, &Selection::All).unwrap();
    assert_eq!(got[..CHUNK], want[..CHUNK]);
    assert!(got[CHUNK..].iter().all(|&b| b == 0), "a stale tail past the device's end");
}
