//! Multi-tenant metadata-plane contention: N writer threads on disjoint
//! chunked datasets plus M concurrent readers, run once against the
//! sharded MVCC plane and once under an emulated *single-lock*
//! discipline — one process-wide metadata lock held across plan +
//! device write, the coarse-grained regime of a metadata plane without
//! a working/published split (a writer must exclude readers and the
//! flusher for its whole operation because there is no immutable state
//! to read against). Disjoint tenants serialize there; the sharded
//! plane lets them overlap their device stalls instead.
//!
//! Readers run on a [`Container::snapshot`] in the sharded regime —
//! zero metadata-lock acquisitions per read, measured exactly by a
//! dedicated phase — and behind the global read lock in the baseline.
//!
//! Printed per run: per-regime aggregate timings, the sharded/single-lock
//! aggregate-throughput speedup, the measured metadata-lock acquisitions
//! per steady-state writer op with the per-shard breakdown, and the
//! snapshot readers' acquisition count. The deterministic ones (one shard
//! lock per op, balanced shards, zero reader locks) are asserted on live
//! code in `crates/h5lite/tests/planner.rs` and `tests/consistency.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use apio_bench::harness::{section, smoke_mode};
use h5lite::container::ROOT_ID;
use h5lite::{
    shard_of, Container, Dataspace, Datatype, Hyperslab, Layout, Selection, StorageBackend,
    ThrottledBackend, META_SHARDS,
};

/// Tenants (writer threads), one dataset each. 16 datasets with
/// consecutive ids land on all 16 shards exactly once.
const WRITERS: usize = 16;
/// Concurrent reader threads.
const READERS: usize = 4;
/// Chunks per tenant dataset; writers rotate over them.
const NCHUNKS: u64 = 8;
/// Elements per chunk (f32): 1 KiB per steady-state write op.
const CHUNK_ELEMS: u64 = 256;
/// Modelled device: per-op latency dominates 1 KiB transfers, and the
/// channel pool admits every writer at once — so the sharded regime's
/// win is pure lock-discipline, not device parallelism it invents.
const DEV_LATENCY: f64 = 500e-6;
const DEV_BANDWIDTH: f64 = 8e9;

/// One regime's outcome.
struct RegimeResult {
    /// Wall time of the writer workload.
    elapsed: f64,
    /// Total writer ops (WRITERS × ops_per_writer).
    writer_ops: u64,
    /// Total bytes the writers moved.
    bytes: u64,
    /// Reader iterations completed while the writers ran.
    reader_ops: u64,
    /// Metadata-lock acquisitions per writer op (readers contribute
    /// zero in the sharded regime — they resolve against the snapshot).
    locks_per_op: f64,
    /// Per-shard read-acquisition delta across the timed region.
    shard_reads_delta: [u64; META_SHARDS],
}

fn chunk_sel(chunk: u64) -> Selection {
    Selection::Slab(Hyperslab::range1(chunk * CHUNK_ELEMS, CHUNK_ELEMS))
}

/// Run the N×M workload. `single_lock` wraps every writer op in a global
/// exclusive lock (and every read in its shared side) held across the
/// device I/O — the emulated pre-shard discipline.
fn run_regime(single_lock: bool, ops_per_writer: u64) -> RegimeResult {
    let backend: Arc<dyn StorageBackend> = Arc::new(ThrottledBackend::with_channels(
        DEV_BANDWIDTH,
        DEV_LATENCY,
        WRITERS,
    ));
    let c = Arc::new(Container::create(backend));
    let space = Dataspace::d1(NCHUNKS * CHUNK_ELEMS);
    let ids: Vec<u64> = (0..WRITERS)
        .map(|w| {
            c.create_dataset(
                ROOT_ID,
                &format!("tenant{w}"),
                Datatype::F32,
                &space,
                Layout::Chunked1D {
                    chunk_elems: CHUNK_ELEMS,
                },
            )
            .expect("create tenant dataset")
        })
        .collect();
    // Pre-allocate every chunk so the timed region is steady state (one
    // shard-read acquisition per op, no allocation passes).
    // 16 consecutive ids must cover all 16 shards — the per-shard
    // deltas recorded below are only meaningful if no two tenants
    // share a lock.
    let homes: std::collections::BTreeSet<usize> = ids.iter().map(|&id| shard_of(id)).collect();
    assert_eq!(homes.len(), WRITERS, "tenants must land on distinct shards");
    let full = vec![0x55u8; (NCHUNKS * CHUNK_ELEMS * 4) as usize];
    for &id in &ids {
        c.write_selection(id, &Selection::All, &full).expect("prefill");
    }
    let snap = Arc::new(c.snapshot());
    let glock = Arc::new(RwLock::new(()));
    let stop = Arc::new(AtomicBool::new(false));
    let reader_count = Arc::new(AtomicU64::new(0));

    let stats0 = c.meta_lock_stats();
    let t0 = Instant::now();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (c, snap, glock, stop, count) = (
                c.clone(),
                snap.clone(),
                glock.clone(),
                stop.clone(),
                reader_count.clone(),
            );
            let id = ids[r % ids.len()];
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if single_lock {
                        let _g = glock.read().unwrap_or_else(|e| e.into_inner());
                        c.read_selection(id, &chunk_sel(0)).expect("baseline read");
                    } else {
                        c.read_snapshot(&snap, id, &chunk_sel(0)).expect("snapshot read");
                    }
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (c, glock) = (c.clone(), glock.clone());
            let id = ids[w];
            std::thread::spawn(move || {
                let payload: Vec<u8> = (0..CHUNK_ELEMS * 4).map(|i| (w as u64 + i) as u8 | 1).collect();
                for k in 0..ops_per_writer {
                    let sel = chunk_sel(k % NCHUNKS);
                    if single_lock {
                        let _g = glock.write().unwrap_or_else(|e| e.into_inner());
                        c.write_selection(id, &sel, &payload).expect("baseline write");
                    } else {
                        c.write_selection(id, &sel, &payload).expect("sharded write");
                    }
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().expect("reader thread");
    }
    let stats1 = c.meta_lock_stats();

    let writer_ops = (WRITERS as u64) * ops_per_writer;
    let mut shard_reads_delta = [0u64; META_SHARDS];
    for (s, d) in shard_reads_delta.iter_mut().enumerate() {
        *d = stats1.shard_reads[s] - stats0.shard_reads[s];
    }
    // In the sharded regime only the writers touch metadata locks
    // (readers resolve against the snapshot), so this is exactly the
    // per-writer-op cost. The baseline's container-level accounting is
    // polluted by its lock-crossing readers; it is not recorded.
    let locks_per_op = (stats1.total() - stats0.total()) as f64 / writer_ops as f64;
    RegimeResult {
        elapsed,
        writer_ops,
        bytes: writer_ops * CHUNK_ELEMS * 4,
        reader_ops: reader_count.load(Ordering::Relaxed),
        locks_per_op,
        shard_reads_delta,
    }
}

/// Dedicated zero-lock phase: a batch of snapshot reads with no writers
/// running, bracketed by [`Container::meta_lock_stats`] — the measured
/// acquisition count must be exactly zero.
fn snapshot_reader_phase(iters: u64) -> (u64, f64) {
    let c = Container::create_mem();
    let space = Dataspace::d1(NCHUNKS * CHUNK_ELEMS);
    let id = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &space,
            Layout::Chunked1D {
                chunk_elems: CHUNK_ELEMS,
            },
        )
        .expect("create");
    let full = vec![0xA7u8; (NCHUNKS * CHUNK_ELEMS * 4) as usize];
    c.write_selection(id, &Selection::All, &full).expect("prefill");
    let snap = c.snapshot();
    let s0 = c.meta_lock_stats();
    let t0 = Instant::now();
    for k in 0..iters {
        std::hint::black_box(
            c.read_snapshot(&snap, id, &chunk_sel(k % NCHUNKS))
                .expect("snapshot read"),
        );
    }
    let secs_per_iter = t0.elapsed().as_secs_f64() / iters as f64;
    let s1 = c.meta_lock_stats();
    (s1.total() - s0.total(), secs_per_iter)
}

fn main() {
    let ops_per_writer: u64 = if smoke_mode() { 2 } else { 24 };

    section("multitenant");
    let sharded = run_regime(false, ops_per_writer);
    let single = run_regime(true, ops_per_writer);
    let speedup = single.elapsed / sharded.elapsed;
    let (reader_locks, reader_secs) = snapshot_reader_phase(if smoke_mode() { 8 } else { 4096 });

    for (tag, r) in [("sharded", &sharded), ("single_lock", &single)] {
        println!(
            "{:<44} {:>8} ops  {:9.3} ms  {:8.2} MB/s  {:>7} reader ops",
            format!("multitenant/{tag}/writers{WRITERS}"),
            r.writer_ops,
            r.elapsed * 1e3,
            r.bytes as f64 / r.elapsed / 1e6,
            r.reader_ops,
        );
    }
    println!(
        "{:<44} {speedup:8.2}x",
        "multitenant/aggregate_speedup"
    );
    println!(
        "{:<44} {:8.4} /op  (shard deltas {:?})",
        "multitenant/sharded_meta_locks",
        sharded.locks_per_op,
        sharded.shard_reads_delta,
    );
    println!(
        "{:<44} {reader_locks:>8} acquisitions  {:9.3} µs/read",
        "multitenant/snapshot_reader_locks",
        reader_secs * 1e6,
    );
}
