//! Acceptance tests for the I/O planner's lock and batch accounting: a
//! strided 1-D selection with well over 1k runs must reach the backend
//! as one sieved span per extent — one vectored read and one vectored
//! write per operation — with exactly one metadata-lock acquisition in
//! steady state and zero scalar data-path calls. Runs too far apart to
//! sieve still go out as `ceil(runs / COALESCE_WINDOW)` batches of one
//! segment per run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use h5lite::container::ROOT_ID;
use h5lite::{
    shard_of, sieve_spans, Container, Dataspace, Datatype, FileBackend, Hyperslab, IoPlan,
    IoSegment, IoVec, IoVecMut, Layout, MemBackend, MetaLockStats, Selection, StorageBackend,
    COALESCE_WINDOW, META_SHARDS, SIEVE_PAGE, SIEVE_SPAN_CAP,
};

/// Forwards to a [`MemBackend`] while counting scalar calls, vectored
/// batches, and total batched segments.
#[derive(Default)]
struct CountingBackend {
    inner: MemBackend,
    scalar_writes: AtomicU64,
    scalar_reads: AtomicU64,
    write_batches: AtomicU64,
    read_batches: AtomicU64,
    batch_segments: AtomicU64,
}

impl CountingBackend {
    fn count(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::SeqCst)
    }
}

impl StorageBackend for CountingBackend {
    fn write_at(&self, offset: u64, data: &[u8]) -> h5lite::Result<()> {
        self.scalar_writes.fetch_add(1, Ordering::SeqCst);
        self.inner.write_at(offset, data)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> h5lite::Result<()> {
        self.scalar_reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_at(offset, buf)
    }

    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> h5lite::Result<()> {
        self.write_batches.fetch_add(1, Ordering::SeqCst);
        self.batch_segments
            .fetch_add(batch.len() as u64, Ordering::SeqCst);
        self.inner.write_vectored_at(batch)
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> h5lite::Result<()> {
        self.read_batches.fetch_add(1, Ordering::SeqCst);
        self.batch_segments
            .fetch_add(batch.len() as u64, Ordering::SeqCst);
        self.inner.read_vectored_at(batch)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> h5lite::Result<()> {
        self.inner.sync()
    }
}

/// 1500 single-element runs: element 0, 3, 6, … over a 4500-element
/// dataset. `Selection::runs` cannot coalesce any pair, so the planner
/// sees the full per-run storm; the holes are 8 bytes, so the issuing
/// side folds every extent's runs into one span.
const RUNS: u64 = 1500;

fn strided_setup(layout: Layout) -> (Container, Arc<CountingBackend>, Selection, Vec<u8>) {
    let backend = Arc::new(CountingBackend::default());
    let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
    let space = Dataspace::d1(RUNS * 3);
    let id = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &space, layout)
        .unwrap();
    assert_eq!(id, 2);
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[RUNS], &[3]));
    let data: Vec<u8> = (0..RUNS * 4).map(|i| (i % 249) as u8 + 1).collect();
    (c, backend, sel, data)
}

/// `(read batches, write batches, batched segments)` so far.
fn batch_counts(backend: &CountingBackend) -> (u64, u64, u64) {
    (
        backend.count(&backend.read_batches),
        backend.count(&backend.write_batches),
        backend.count(&backend.batch_segments),
    )
}

fn delta(before: (u64, u64, u64), after: (u64, u64, u64)) -> (u64, u64, u64) {
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn contiguous_strided_write_is_one_lock_and_one_span() {
    let (c, backend, sel, data) = strided_setup(Layout::Contiguous);
    let id = 2;

    let locks0 = c.meta_lock_acquisitions();
    let counts0 = batch_counts(&backend);
    let scalars0 = backend.count(&backend.scalar_writes);

    c.write_selection(id, &sel, &data).unwrap();

    assert_eq!(
        c.meta_lock_acquisitions() - locks0,
        1,
        "contiguous strided write must resolve everything under one lock"
    );
    // Nothing is on the device yet, so the span's read is clamped away:
    // one write batch of one segment.
    assert_eq!(delta(counts0, batch_counts(&backend)), (0, 1, 1));

    // Steady state: the span is read whole and written back whole.
    let counts1 = batch_counts(&backend);
    c.write_selection(id, &sel, &data).unwrap();
    assert_eq!(delta(counts1, batch_counts(&backend)), (1, 1, 2));
    assert_eq!(
        backend.count(&backend.scalar_writes) - scalars0,
        0,
        "data path must not fall back to scalar write_at"
    );
    assert_eq!(backend.count(&backend.scalar_reads), 0);
    let stats = c.sieve_stats();
    assert_eq!((stats.spans, stats.segments), (2, 2 * RUNS));
    // 1500 elements and the 1499 two-element holes between them.
    assert_eq!(stats.span_bytes, 2 * (RUNS * 12 - 8));
    assert_eq!(stats.fill_bytes, 2 * (RUNS - 1) * 8);
}

#[test]
fn plan_size_follows_the_extents_not_the_elements() {
    // Stride-2 f32 selections of 1 024, 65 536 and 524 288 elements over
    // one contiguous extent: the plan holds one record whatever the
    // count, and the spans number one per MiB of extent — counts, not
    // times, so this holds on any machine.
    for pieces in [1u64 << 10, 1 << 16, 1 << 19] {
        let space = Dataspace::d1(2 * pieces);
        let sel = Selection::Slab(Hyperslab::strided(&[1], &[pieces], &[2]));
        let extent_bytes = 2 * pieces * 4;
        let plan = IoPlan::contiguous(128, 4, sel.rows(&space).unwrap()).unwrap();
        assert_eq!(plan.records().len(), 1, "{pieces} pieces");
        assert_eq!(plan.segment_count(), pieces);
        let spans = sieve_spans(plan.records(), [(128, extent_bytes)]);
        assert_eq!(spans.len() as u64, extent_bytes.div_ceil(SIEVE_SPAN_CAP), "{pieces} pieces");
        assert_eq!(spans.iter().map(|s| s.count).sum::<u64>(), pieces);

        // And through the container: one read and one write per span.
        let backend = Arc::new(CountingBackend::default());
        let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
            .unwrap();
        c.write_selection(id, &Selection::All, &vec![0u8; extent_bytes as usize])
            .unwrap();
        let data: Vec<u8> = (0..pieces * 4).map(|i| (i % 251) as u8 + 1).collect();
        let counts0 = batch_counts(&backend);
        c.write_selection(id, &sel, &data).unwrap();
        let n = spans.len() as u64;
        assert_eq!(delta(counts0, batch_counts(&backend)), (n, n, 2 * n), "{pieces} pieces");
        assert_eq!(c.read_selection(id, &sel).unwrap(), data);
        let stats = c.sieve_stats();
        assert_eq!((stats.spans, stats.segments), (2 * n, 2 * pieces));
    }
}

#[test]
fn plan_write_selection_expands_to_one_segment_per_piece() {
    // The ring path's surface: a one-run slab (every VPIC call) is
    // exactly one segment; a strided one is its pieces, spelled out.
    let c = Container::create_mem();
    let space = Dataspace::d1(4096);
    let id = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &space, Layout::Contiguous)
        .unwrap();
    let whole = c.plan_write_selection(id, &Selection::All, 4096 * 4).unwrap();
    let base = whole[0].addr;
    assert_eq!(whole, [IoSegment { addr: base, cursor: 0, len: 4096 * 4 }]);
    let half = Selection::Slab(Hyperslab::range1(2048, 2048));
    let segs = c.plan_write_selection(id, &half, 2048 * 4).unwrap();
    assert_eq!(segs, [IoSegment { addr: base + 2048 * 4, cursor: 0, len: 2048 * 4 }]);
    assert_eq!(segs.capacity(), 1);
    let odd = Selection::Slab(Hyperslab::strided(&[1], &[100], &[2]));
    let segs = c.plan_write_selection(id, &odd, 400).unwrap();
    let want: Vec<IoSegment> = (0..100)
        .map(|i| IoSegment { addr: base + 4 + 8 * i, cursor: 4 * i, len: 4 })
        .collect();
    assert_eq!(segs, want);
}

#[test]
fn runs_a_page_apart_stay_one_segment_per_run() {
    // Holes longer than a page: nothing sieves, and the write reaches
    // the backend exactly as planned — one segment per run, in
    // ceil(runs / COALESCE_WINDOW) batches, no read at all.
    const FAR_RUNS: u64 = 1500;
    let stride = SIEVE_PAGE / 4 + 2;
    let backend = Arc::new(CountingBackend::default());
    let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
    let space = Dataspace::d1(FAR_RUNS * stride);
    let id = c
        .create_dataset(ROOT_ID, "far", Datatype::F32, &space, Layout::Contiguous)
        .unwrap();
    let sel = Selection::Slab(Hyperslab::strided(&[0], &[FAR_RUNS], &[stride]));
    let data: Vec<u8> = (0..FAR_RUNS * 4).map(|i| (i % 249) as u8 + 1).collect();

    let counts0 = batch_counts(&backend);
    c.write_selection(id, &sel, &data).unwrap();
    let batches = FAR_RUNS.div_ceil(COALESCE_WINDOW as u64);
    assert_eq!(delta(counts0, batch_counts(&backend)), (0, batches, FAR_RUNS));

    let counts1 = batch_counts(&backend);
    assert_eq!(c.read_selection(id, &sel).unwrap(), data);
    assert_eq!(delta(counts1, batch_counts(&backend)), (batches, 0, FAR_RUNS));
    assert_eq!(c.sieve_stats().spans, 0);
}

#[test]
fn contiguous_strided_read_is_one_lock_and_one_span() {
    let (c, backend, sel, data) = strided_setup(Layout::Contiguous);
    let id = 2;
    c.write_selection(id, &sel, &data).unwrap();

    let locks0 = c.meta_lock_acquisitions();
    let counts0 = batch_counts(&backend);
    let scalars0 = backend.count(&backend.scalar_reads);

    let back = c.read_selection(id, &sel).unwrap();
    assert_eq!(back, data);

    assert_eq!(c.meta_lock_acquisitions() - locks0, 1);
    assert_eq!(backend.count(&backend.scalar_reads) - scalars0, 0);
    // The extent is unflushed, hence unverified: all 1500 runs reach
    // the backend as one batch of one segment, the span that holds them.
    assert_eq!(delta(counts0, batch_counts(&backend)), (1, 0, 1));
}

#[test]
fn chunked_steady_state_matches_contiguous_accounting() {
    let layout = Layout::Chunked1D { chunk_elems: 64 };
    let (c, backend, sel, data) = strided_setup(layout);
    let id = 2;

    // First write allocates every touched chunk: one read-locked
    // planning pass plus one write-locked allocation pass.
    let locks0 = c.meta_lock_acquisitions();
    c.write_selection(id, &sel, &data).unwrap();
    assert_eq!(
        c.meta_lock_acquisitions() - locks0,
        2,
        "first write = plan pass + allocation pass"
    );

    // Steady state: chunks exist, so back to one lock; every one of
    // the 71 chunks is an extent of its own and so a span of its own,
    // all in one read batch and one write batch.
    const CHUNKS: u64 = (RUNS * 3).div_ceil(64);
    let locks0 = c.meta_lock_acquisitions();
    let counts0 = batch_counts(&backend);
    let scalars0 = backend.count(&backend.scalar_writes);
    c.write_selection(id, &sel, &data).unwrap();
    assert_eq!(c.meta_lock_acquisitions() - locks0, 1);
    assert_eq!(delta(counts0, batch_counts(&backend)), (1, 1, 2 * CHUNKS));
    assert_eq!(backend.count(&backend.scalar_writes) - scalars0, 0);

    let locks0 = c.meta_lock_acquisitions();
    let counts0 = batch_counts(&backend);
    let back = c.read_selection(id, &sel).unwrap();
    assert_eq!(back, data);
    assert_eq!(c.meta_lock_acquisitions() - locks0, 1);
    assert_eq!(delta(counts0, batch_counts(&backend)), (1, 0, CHUNKS));
}

/// Per-shard delta between two [`MetaLockStats`] captures, as
/// `(shard, reads, writes)` triples for every shard that moved.
fn shard_delta(before: &MetaLockStats, after: &MetaLockStats) -> Vec<(usize, u64, u64)> {
    (0..META_SHARDS)
        .filter_map(|s| {
            let r = after.shard_reads[s] - before.shard_reads[s];
            let w = after.shard_writes[s] - before.shard_writes[s];
            (r + w > 0).then_some((s, r, w))
        })
        .collect()
}

#[test]
fn per_shard_breakdown_pins_steady_ops_to_the_dataset_shard() {
    // The aggregate one-lock-per-op counts above stay meaningful under
    // sharding only if the single acquisition is a *shard read* of the
    // dataset's own shard: no tree traffic, no stray shard, no write
    // acquisition on the read path.
    let (c, _backend, sel, data) = strided_setup(Layout::Chunked1D { chunk_elems: 64 });
    let id = 2;
    let home = shard_of(id);
    assert_eq!(home, 2, "sequential ids land on sequential shards");

    // First write = plan pass (shard read) + allocation pass (shard
    // write), both on the home shard.
    let s0 = c.meta_lock_stats();
    c.write_selection(id, &sel, &data).unwrap();
    let s1 = c.meta_lock_stats();
    assert_eq!(shard_delta(&s0, &s1), vec![(home, 1, 1)]);
    assert_eq!((s1.tree_reads, s1.tree_writes), (s0.tree_reads, s0.tree_writes));

    // Steady-state write: one read acquisition of the home shard only.
    let s1 = c.meta_lock_stats();
    c.write_selection(id, &sel, &data).unwrap();
    let s2 = c.meta_lock_stats();
    assert_eq!(shard_delta(&s1, &s2), vec![(home, 1, 0)]);

    // Steady-state read: same breakdown — readers never take a shard
    // write lock.
    let s2 = c.meta_lock_stats();
    let back = c.read_selection(id, &sel).unwrap();
    assert_eq!(back, data);
    let s3 = c.meta_lock_stats();
    assert_eq!(shard_delta(&s2, &s3), vec![(home, 1, 0)]);
    assert_eq!((s3.tree_reads, s3.tree_writes), (s2.tree_reads, s2.tree_writes));
}

#[test]
fn disjoint_datasets_touch_disjoint_shard_locks() {
    // Two tenants on consecutive dataset ids: every steady op moves
    // exactly one counter, and never the other tenant's.
    let backend = Arc::new(CountingBackend::default());
    let c = Container::create(backend as Arc<dyn StorageBackend>);
    let space = Dataspace::d1(64);
    let a = c
        .create_dataset(ROOT_ID, "a", Datatype::F32, &space, Layout::Contiguous)
        .unwrap();
    let b = c
        .create_dataset(ROOT_ID, "b", Datatype::F32, &space, Layout::Contiguous)
        .unwrap();
    assert_ne!(shard_of(a), shard_of(b), "consecutive ids must not collide");

    let sel = Selection::Slab(Hyperslab::range1(0, 64));
    let data = vec![9u8; 64 * 4];
    c.write_selection(a, &sel, &data).unwrap();

    let s0 = c.meta_lock_stats();
    c.write_selection(b, &sel, &data).unwrap();
    let s1 = c.meta_lock_stats();
    assert_eq!(shard_delta(&s0, &s1), vec![(shard_of(b), 1, 0)]);

    let s1 = c.meta_lock_stats();
    let back = c.read_selection(a, &sel).unwrap();
    assert_eq!(back, data);
    let s2 = c.meta_lock_stats();
    assert_eq!(shard_delta(&s1, &s2), vec![(shard_of(a), 1, 0)]);
}

#[test]
fn sixteen_tenants_on_sixteen_shards_load_every_shard_lock_equally() {
    // One writer thread per tenant on consecutive dataset ids: each
    // lands on a shard of its own, so after the same number of
    // steady-state writes every shard's read count has moved by exactly
    // that number — no hot lock, no shard left out, no write lock.
    const OPS: u64 = 8;
    let c = Container::create_mem();
    let space = Dataspace::d1(64);
    let data = vec![5u8; 64 * 4];
    let ids: Vec<u64> = (0..META_SHARDS)
        .map(|t| {
            let name = format!("tenant{t}");
            let id = c
                .create_dataset(ROOT_ID, &name, Datatype::F32, &space, Layout::Contiguous)
                .unwrap();
            c.write_selection(id, &Selection::All, &data).unwrap();
            id
        })
        .collect();

    let s0 = c.meta_lock_stats();
    std::thread::scope(|scope| {
        for &id in &ids {
            let (c, data) = (&c, &data);
            scope.spawn(move || {
                for _ in 0..OPS {
                    c.write_selection(id, &Selection::All, data).unwrap();
                }
            });
        }
    });
    let s1 = c.meta_lock_stats();
    let want: Vec<_> = (0..META_SHARDS).map(|s| (s, OPS, 0)).collect();
    assert_eq!(shard_delta(&s0, &s1), want);
    assert_eq!((s1.tree_reads, s1.tree_writes), (s0.tree_reads, s0.tree_writes));
}

#[test]
fn reads_past_the_watermark_return_fill_on_a_file_as_on_memory() {
    // A contiguous dataset's extent is allocated at create, but the
    // backend's watermark only moves when something is written: before
    // the first write the whole extent lies past it, after a partial
    // write its tail does. Either way a read returns what was written
    // and fill for the rest — through a one-segment span (a direct read)
    // and through a sieved one, on a file exactly as on memory.
    const N: u64 = 4096;
    let path = std::env::temp_dir().join(format!("apio-watermark-{}.h5l", std::process::id()));
    let backends: [(&str, Arc<dyn StorageBackend>); 2] = [
        ("mem", Arc::new(MemBackend::new())),
        ("file", Arc::new(FileBackend::create(&path).unwrap())),
    ];
    let shapes = [
        ("contiguous", Selection::All),
        ("strided", Selection::Slab(Hyperslab::strided(&[1], &[N / 2], &[2]))),
    ];
    for (backend_name, backend) in backends {
        let c = Container::create(backend.clone());
        let id = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(N), Layout::Contiguous)
            .unwrap();
        let mut want = vec![0u8; N as usize];
        for written in [0, N / 4] {
            if written > 0 {
                let head: Vec<u8> = (0..written).map(|i| (i % 251) as u8 + 1).collect();
                c.write_selection(id, &Selection::Slab(Hyperslab::range1(0, written)), &head)
                    .unwrap();
                want[..written as usize].copy_from_slice(&head);
            }
            let extent = c.plan_write_selection(id, &Selection::All, N).unwrap()[0];
            assert!(
                backend.len() < extent.addr + extent.len,
                "the extent's tail must lie past the watermark"
            );
            for (shape, sel) in &shapes {
                let got = c
                    .read_selection(id, sel)
                    .unwrap_or_else(|e| panic!("{backend_name}/{shape}/{written} written: {e}"));
                let expect: Vec<u8> = match sel {
                    Selection::All => want.clone(),
                    _ => want.iter().skip(1).step_by(2).copied().collect(),
                };
                assert_eq!(got, expect, "{backend_name}/{shape}/{written} written");
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn chunked_read_of_unallocated_holes_stays_zero_filled() {
    // Write only the strided selection, then read the *complement*:
    // untouched chunks must come back as zeros without ever hitting the
    // backend scalar path.
    let layout = Layout::Chunked1D { chunk_elems: 8 };
    let backend = Arc::new(CountingBackend::default());
    let c = Container::create(backend.clone() as Arc<dyn StorageBackend>);
    // 32 elements, chunks of 8; write elements 0..8 only (chunk 0).
    let space = Dataspace::d1(32);
    let id = c
        .create_dataset(ROOT_ID, "x", Datatype::F32, &space, layout)
        .unwrap();
    let head = vec![7u8; 8 * 4];
    c.write_selection(id, &Selection::Slab(Hyperslab::range1(0, 8)), &head)
        .unwrap();

    let scalars0 = backend.count(&backend.scalar_reads);
    let tail = c
        .read_selection(id, &Selection::Slab(Hyperslab::range1(8, 24)))
        .unwrap();
    assert_eq!(tail, vec![0u8; 24 * 4]);
    assert_eq!(backend.count(&backend.scalar_reads) - scalars0, 0);
}
