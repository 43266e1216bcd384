//! The container: object tree, extent allocation, and the on-disk format.
//!
//! ## On-disk layout
//!
//! ```text
//! offset 0      superblock slot A (64 bytes, self-checksummed)
//! offset 64     superblock slot B (64 bytes, self-checksummed)
//! offset 128..  extents: dataset data, chunk data, metadata blocks
//! ```
//!
//! Extents come from a bump allocator. Metadata (the whole object tree) is
//! serialized with [`crate::codec`] and written as a fresh extent on every
//! flush; the superblock is then committed through the dual-slot protocol
//! in [`crate::superblock`] — write the metadata extent, sync, write ONE
//! slot carrying a generation number and self-checksum, sync. Open picks
//! the highest-generation valid slot, so no single torn or corrupted
//! superblock write can brick a container. Old metadata blocks become
//! garbage — the same append-only discipline HDF5 uses without free-space
//! tracking. A FNV-1a checksum over the metadata block is stored in the
//! superblock so a torn flush is detected at open.
//!
//! ## Data integrity
//!
//! Every data extent (a contiguous dataset's extent, or one chunk) can
//! carry a checksum in the metadata ([`crate::checksum`]: one XXH64 per
//! 64 KiB block, or the one whole-extent sum — XXH64 or FNV-1a — of
//! files written before it), refreshed at flush time for extents written
//! since the previous flush. A planned read of a clean checksummed
//! extent fetches the blocks its records reach in one read, verifies
//! each, and serves the records from them, failing with
//! [`H5Error::Corrupt`] on a mismatch: every byte it returns is
//! verified, and no block it does not return is fetched.
//! [`Container::scrub`] walks every checksummed extent whole, offline,
//! and [`Container::scrub_with`] read-repairs corrupt extents from a
//! durable copy (e.g. the staging WAL). The read-back, the verified read
//! and scrub live in the `integrity` submodule (`src/integrity.rs`). See
//! DESIGN.md §13.
//!
//! ## The metadata plane
//!
//! All methods take `&self`. Metadata is split across the sharded,
//! copy-on-write [`MetaPlane`] (see [`crate::meta`] and DESIGN.md §15):
//! the namespace tree behind one lock, dataset state behind
//! [`META_SHARDS`](crate::meta::META_SHARDS) per-object shard locks, and
//! the bump allocator behind its own (uncounted) mutex. Operations on
//! disjoint datasets never touch the same lock, and readers can capture
//! a [`MetaSnapshot`] and resolve chunk addresses without any lock at
//! all. The visibility of mutations to *published* readers is governed
//! by the open-time [`ConsistencyModel`].
//!
//! Selection I/O goes through the planner ([`crate::plan`]):
//! `write_selection`/`read_selection` resolve the whole selection — shape
//! checks, run decomposition, and every chunk address — under **one**
//! metadata-lock acquisition, then issue the plan's records as
//! vectored backend batches of *spans* — runs of small neighbouring
//! pieces travel as one read and one write per extent through a sieve
//! buffer (DESIGN.md §9, "Sieved spans"). See [`Container::plan_io`].

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use apio_trace::{Event, Tracer};

use crate::sync::{Mutex, RwLock};

use crate::checksum::{Algorithm, Checksum};
use crate::codec::{Reader, Writer};
use crate::dataspace::{Dataspace, Selection};
use crate::datatype::Datatype;
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::meta::{
    extent_bytes, shard_of, ChunkEntry, ConsistencyModel, DatasetState, MetaLockStats, MetaPlane,
    MetaSnapshot, NodeKind, Tree, TreeObject, META_SHARDS,
};
use crate::plan::{
    sieve_bytes, sieve_layout, sieve_spans, span_windows, IoPlan, IoRecord, IoSegment, Span,
    COALESCE_WINDOW,
};
use crate::recycle;
use crate::storage::{write_windowed, FileBackend, IoVec, IoVecMut, MemBackend, StorageBackend};
use crate::superblock::{self, fnv1a64, Superblock, FNV_BASIS, SUPERBLOCK_AREA};

#[path = "integrity.rs"]
mod integrity;

use integrity::{hash_bytes, serve_verified, HashJob, IntegrityCounters, VerifyExtent};
pub use integrity::{IntegrityStats, ScrubReport};

/// Identifier of an object (group or dataset) within a container.
pub type ObjectId = u64;

/// The root group always has id 1.
pub const ROOT_ID: ObjectId = 1;

/// Extent key standing in for "the contiguous data extent" in the dirty
/// set (chunk indices never reach this value: a chunk index is bounded
/// by `npoints / chunk_elems`, and an `u64::MAX`-element dataset cannot
/// be allocated).
const CONTIG_EXTENT: u64 = u64::MAX;

/// Dirty bytes from which a flush's data barrier runs beside its
/// read-back, on a thread of its own ([`Container::flush`]); below them
/// the barrier follows the metadata append, as one `sync` for both.
const OVERLAP_BARRIER_BYTES: u64 = 4 << 20;

/// An attribute value: small typed metadata attached to any object.
#[derive(Clone, PartialEq, Debug)]
pub struct AttrValue {
    /// Element type of the attribute.
    pub dtype: Datatype,
    /// Attribute dimensions.
    pub shape: Vec<u64>,
    /// Raw little-endian element bytes.
    pub bytes: Vec<u8>,
}

/// Kind of an object, for introspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObjectKind {
    /// A group (links to children).
    Group,
    /// A typed dataset.
    Dataset,
}

/// Static description of a dataset.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Element type.
    pub dtype: Datatype,
    /// Extent of the dataset.
    pub space: Dataspace,
    /// Storage layout.
    pub layout: Layout,
}

/// The bump allocator and commit-generation state. Deliberately **not**
/// part of the metadata plane: reserving address space is an allocator
/// concern, its mutex is not counted by
/// [`Container::meta_lock_acquisitions`], and the sanctioned nesting
/// order is metadata lock → allocator (never the reverse).
struct Alloc {
    /// Bump-allocation cursor.
    eof: u64,
    /// Superblock generation of the last durable commit (0 before the
    /// first flush); bumped only after a commit fully succeeds, so a
    /// failed commit retries into the same slot instead of overwriting
    /// the surviving fallback.
    generation: u64,
}

/// A single self-describing container over a storage backend.
pub struct Container {
    backend: Arc<dyn StorageBackend>,
    /// The sharded, versioned metadata plane (DESIGN.md §15). Every
    /// metadata-lock acquisition goes through it — the per-shard
    /// counters behind [`Container::meta_lock_stats`] are exhaustive.
    plane: MetaPlane,
    alloc: Mutex<Alloc>,
    /// Whether tree/state metadata changed since the last flush.
    meta_dirty: AtomicBool,
    /// Extents written since the last flush, keyed by
    /// `(dataset, chunk index | CONTIG_EXTENT)`. Their stored checksums
    /// are stale: flush recomputes them, reads skip verifying them.
    dirty_extents: Mutex<BTreeSet<(ObjectId, u64)>>,
    /// Whether per-extent checksums are maintained and verified.
    checksums: AtomicBool,
    integrity: IntegrityCounters,
    /// Per-dataset write gates, keyed like the metadata shards
    /// ([`shard_of`]): a write with a sieved span holds its gate
    /// exclusive across read → scatter → write-back, every other write
    /// holds it shared across its batches, so no `write_selection` can
    /// land in a hole between a span's read and its write-back. Taken
    /// after planning; no metadata, allocator or dirty-set lock is
    /// taken while one is held.
    sieve_gates: Vec<RwLock<()>>,
    sieve: SieveCounters,
    /// Trace sink for planner spans and backend-batch events; disabled
    /// unless installed via [`Container::set_tracer`]. Behind a lock only
    /// so it can be installed after construction — selection I/O takes a
    /// read guard once per operation and clones the (cheap) handle.
    tracer: RwLock<Tracer>,
}

// Statistics only: each publishes nothing but its own value.
#[derive(Default)]
struct SieveCounters {
    spans: AtomicU64,
    segments: AtomicU64,
    span_bytes: AtomicU64,
    fill_bytes: AtomicU64,
}

/// What sieving has moved so far ([`Container::sieve_stats`]), reads and
/// writes together. `span_bytes / (span_bytes - fill_bytes)` is the
/// amplification the sieved spans paid for their saved calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SieveStats {
    /// Sieved (multi-segment) spans issued.
    pub spans: u64,
    /// Plan segments folded into them.
    pub segments: u64,
    /// Bytes those spans cover — what the device moved per direction.
    pub span_bytes: u64,
    /// Hole bytes among them: moved, but not asked for by the caller.
    pub fill_bytes: u64,
}

/// One data extent a plan touches: `(key, addr, len, stored checksum)`,
/// the key being the chunk index or [`CONTIG_EXTENT`].
type Touched = (u64, u64, u64, Option<Checksum>);

/// What [`Container::plan_io`] hands the function that issues the plan.
struct Planned {
    /// The element type of the dataset state the plan was built from.
    dtype: Datatype,
    plan: IoPlan,
    /// Every data extent the plan touches: the bounds a span is
    /// confined to.
    touched: Vec<Touched>,
    /// Clean checksummed extents a read must verify (empty for writes).
    verify: Vec<VerifyExtent>,
}

fn new_sieve_gates() -> Vec<RwLock<()>> {
    (0..META_SHARDS)
        .map(|_| RwLock::new_named("h5lite.sieve_gate", ()))
        .collect()
}

/// The `(addr, len)` of each touched extent, for [`sieve_spans`].
fn extents_of(touched: &[Touched]) -> impl Iterator<Item = (u64, u64)> + '_ {
    touched.iter().map(|&(_, addr, len, _)| (addr, len))
}

/// Everything one planning pass learns from a dataset state, with no
/// lock held: the plan itself, the touched extents (for dirty marking /
/// verification) and the chunk indices the state could not resolve.
struct PlanParts {
    plan: IoPlan,
    /// Every extent the plan touches.
    touched: Vec<Touched>,
    missing: Vec<u64>,
}

impl Container {
    /// Create a fresh container on `backend` with the default
    /// [`ConsistencyModel::Strong`] visibility contract.
    pub fn create(backend: Arc<dyn StorageBackend>) -> Self {
        Self::create_with(backend, ConsistencyModel::Strong)
    }

    /// Create a fresh container on `backend` under `model` (see
    /// [`ConsistencyModel`] for the publication points).
    pub fn create_with(backend: Arc<dyn StorageBackend>, model: ConsistencyModel) -> Self {
        Container {
            backend,
            plane: MetaPlane::new(ROOT_ID, model),
            alloc: Mutex::new_named(
                "h5lite.alloc",
                Alloc {
                    eof: SUPERBLOCK_AREA,
                    generation: 0,
                },
            ),
            meta_dirty: AtomicBool::new(true),
            dirty_extents: Mutex::new(BTreeSet::new()),
            checksums: AtomicBool::new(true),
            integrity: IntegrityCounters::default(),
            sieve_gates: new_sieve_gates(),
            sieve: SieveCounters::default(),
            tracer: RwLock::new(Tracer::disabled()),
        }
    }

    /// Install (or replace) the container's tracer. Selection I/O then
    /// records `container.plan_io` spans (with a
    /// [`PlanBuilt`](apio_trace::Event::PlanBuilt) payload),
    /// `container.meta_lock` hold spans, one `backend.batch` span per
    /// vectored window issued to the backend, and a `container.sieve`
    /// span (with a [`Sieve`](apio_trace::Event::Sieve) payload) around
    /// each window that moves sieved spans; a flush that does work
    /// records `container.flush` ⊃ `container.flush_hash` (with a
    /// [`FlushHash`](apio_trace::Event::FlushHash) payload), then
    /// `container.flush_commit`.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.write() = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.read().clone()
    }

    /// The visibility contract this container enforces (fixed at
    /// create/open time).
    pub fn consistency_model(&self) -> ConsistencyModel {
        self.plane.model()
    }

    /// Total metadata-lock acquisitions so far — shard locks plus the
    /// namespace tree lock, reads and writes. A steady-state
    /// `write_selection`/`read_selection` takes exactly one (a shared
    /// shard acquisition); a first write into unallocated chunks takes
    /// two (resolve + allocate). The allocator mutex is not metadata and
    /// is not counted.
    ///
    /// Counter contract: increments are `Ordering::Relaxed` — exact only
    /// once the observer has synchronized with the counted threads
    /// (e.g. joined them); see [`crate::meta`] module docs.
    pub fn meta_lock_acquisitions(&self) -> u64 {
        self.plane.lock_stats().total()
    }

    /// Per-shard breakdown of [`Container::meta_lock_acquisitions`]:
    /// shared/exclusive counts per dataset-state shard plus the tree
    /// lock. Lets tests pin *which* lock an operation took — disjoint
    /// tenants must only ever move their own shard's counters, and
    /// snapshot readers must move no exclusive counter at all.
    pub fn meta_lock_stats(&self) -> MetaLockStats {
        self.plane.lock_stats()
    }

    /// Create a container on a fresh in-memory backend.
    pub fn create_mem() -> Self {
        Self::create(Arc::new(MemBackend::new()))
    }

    /// [`Container::create_mem`] under an explicit consistency model.
    pub fn create_mem_with(model: ConsistencyModel) -> Self {
        Self::create_with(Arc::new(MemBackend::new()), model)
    }

    /// Create a container in a new file at `path`.
    pub fn create_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(Self::create(Arc::new(FileBackend::create(path)?)))
    }

    /// Open an existing container from `backend` under the default
    /// [`ConsistencyModel::Strong`]. Reads both superblock slots and
    /// resumes from the highest-generation valid one; a torn or
    /// corrupted slot is survived (and counted in
    /// [`Container::integrity_stats`]) as long as the other validates.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<Self> {
        Self::open_with(backend, ConsistencyModel::Strong)
    }

    /// [`Container::open`] under an explicit consistency model. The
    /// model is a property of the open session, not of the file: the
    /// same container can be opened strong by one process and
    /// commit-consistent by another.
    pub fn open_with(backend: Arc<dyn StorageBackend>, model: ConsistencyModel) -> Result<Self> {
        let (sb, invalid_slots) = superblock::read_latest(&backend)?;
        if sb.root_id != ROOT_ID {
            return Err(H5Error::Corrupt(format!(
                "unexpected root id {}",
                sb.root_id
            )));
        }

        let mut meta_bytes = vec![0u8; sb.meta_len as usize];
        backend.read_at(sb.meta_addr, &mut meta_bytes)?; // xtask: allow(planned-io) metadata extent
        if fnv1a64(FNV_BASIS, &meta_bytes) != sb.meta_fnv {
            return Err(H5Error::Corrupt("metadata checksum mismatch".into()));
        }
        let (tree, states) = decode_meta(&meta_bytes)?;
        if !tree.objects.contains_key(&ROOT_ID) {
            return Err(H5Error::Corrupt("metadata lacks root group".into()));
        }
        let integrity = IntegrityCounters::default();
        integrity
            .superblock_fallbacks
            .store(invalid_slots, Ordering::Relaxed);
        Ok(Container {
            backend,
            plane: MetaPlane::from_parts(tree, states, model),
            alloc: Mutex::new_named(
                "h5lite.alloc",
                Alloc {
                    eof: sb.eof,
                    generation: sb.generation,
                },
            ),
            meta_dirty: AtomicBool::new(false),
            dirty_extents: Mutex::new(BTreeSet::new()),
            checksums: AtomicBool::new(true),
            integrity,
            sieve_gates: new_sieve_gates(),
            sieve: SieveCounters::default(),
            tracer: RwLock::new(Tracer::disabled()),
        })
    }

    /// Open a container from a file at `path`.
    pub fn open_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::open(Arc::new(FileBackend::open(path)?))
    }

    /// Reserve `bytes` of address space from the bump allocator,
    /// returning the extent's base address.
    fn reserve(&self, bytes: u64, what: &str) -> Result<u64> {
        let mut alloc = self.alloc.lock();
        let addr = alloc.eof;
        alloc.eof = addr.checked_add(bytes).ok_or_else(|| {
            H5Error::Storage(format!("{what} overflows the device address space"))
        })?;
        Ok(addr)
    }

    /// Persist metadata and sync the backend. Idempotent when clean.
    ///
    /// Flush refreshes the per-extent checksums of every extent written
    /// since the previous flush (reading the extent back and hashing
    /// it), serializes the metadata plane, and commits it through the
    /// dual-slot superblock protocol: metadata extent → sync → one slot
    /// → sync. The read-backs of all dirty extents of all datasets form
    /// one job list, read on the flushing thread in address order, in
    /// windows of at most [`HASH_WINDOW`](integrity::HASH_WINDOW) bytes,
    /// one vectored call per window, each hashed beside the next one's
    /// read ([`Container::hash_extents`]). If the read-back fails, the
    /// flush returns its error, stamps nothing and keeps every extent
    /// marked dirty; so does a flush that panics, on its way to the
    /// caller.
    ///
    /// The device sees one of two barrier sequences. Under 4 MiB of
    /// dirty bytes (`OVERLAP_BARRIER_BYTES`): `reads…, write(metadata),
    /// sync, write(slot), sync` — the first `sync` makes the data and
    /// the metadata extent durable together. From there up the data gets
    /// a barrier of its own, on a scoped thread beside the read-back and
    /// joined with it: `reads… ‖ sync, write(metadata), sync,
    /// write(slot), sync`, so the flush pays `max(read-back, data sync)`
    /// and the second `sync` covers the metadata extent alone. The early
    /// barrier is sound because every data write the flush covers
    /// completed before the flush was entered (the quiescence required
    /// below) and a read-back dirties nothing; the order the slot
    /// protocol needs — data durable → metadata durable → slot durable —
    /// is the same in both. A barrier that fails or panics fails the
    /// flush like a failed read-back does (a read-back error, if there
    /// is one too, is the one reported).
    ///
    /// Writers whose durability this flush must cover are
    /// expected to be quiesced (a write racing the flush could be hashed
    /// mid-flight or miss the commit) — but unlike the pre-shard design,
    /// flush holds **no metadata lock across its device I/O**:
    /// foreground writers on other data keep planning and allocating
    /// while a flush is on the wire.
    ///
    /// On success the working states publish under
    /// [`ConsistencyModel::Session`] and [`ConsistencyModel::Commit`]
    /// (flush is a publication point for both deferred models).
    pub fn flush(&self) -> Result<()> {
        let dirty_keys: Vec<(ObjectId, u64)> = {
            let mut d = self.dirty_extents.lock();
            let keys: Vec<_> = d.iter().copied().collect();
            d.clear();
            keys
        };
        if !self.meta_dirty.load(Ordering::Acquire) && dirty_keys.is_empty() {
            return Ok(());
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.flush_inner(&dirty_keys)));
        if let Ok(Ok(())) = result {
            self.plane.publish_flushed();
            return Ok(());
        }
        // The extents are still unchecksummed: put the marks back so a
        // later, successful flush hashes them.
        self.dirty_extents.lock().extend(dirty_keys);
        result.unwrap_or_else(|cause| panic::resume_unwind(cause))
    }

    fn flush_inner(&self, dirty_keys: &[(ObjectId, u64)]) -> Result<()> {
        let tracer = self.tracer();
        let _flush_span = tracer.span("container.flush");
        let enabled = self.checksums.load(Ordering::Relaxed);
        // Every dirty extent of every dataset, and the job that hashes
        // it unless its sum is to be cleared. `dirty_keys` is sorted, so
        // a dataset's keys are adjacent.
        let mut stamps: Vec<(ObjectId, u64, Option<usize>)> = Vec::new();
        let mut jobs: Vec<HashJob> = Vec::new();
        for keys in dirty_keys.chunk_by(|a, b| a.0 == b.0) {
            let id = keys[0].0;
            let Some(state) = self.plane.working(id) else {
                continue;
            };
            for &(_, key) in keys {
                let (addr, len) = if key == CONTIG_EXTENT {
                    (state.data_addr, extent_bytes(state.space.npoints(), state.dtype)?)
                } else if let Layout::Chunked1D { chunk_elems } = state.layout {
                    let chunk_bytes = extent_bytes(chunk_elems, state.dtype)?;
                    let Some(entry) = state.chunks.get(&key) else {
                        continue;
                    };
                    (entry.addr, chunk_bytes)
                } else {
                    continue;
                };
                let job = (enabled && len > 0).then(|| {
                    jobs.push(HashJob {
                        addr,
                        len,
                        algorithm: Algorithm::CURRENT,
                    });
                    jobs.len() - 1
                });
                stamps.push((id, key, job));
            }
        }
        // Hash first — these are device reads and must not run under
        // any metadata lock — and fold nothing unless the whole read-back
        // succeeded: a failed flush leaves every stored sum as it was.
        // Where the read-back is long enough, the barrier that makes the
        // same bytes durable rides beside it: they were all written
        // before this call, and reading them dirties nothing.
        let dirty_bytes = hash_bytes(&jobs);
        let overlapped = dirty_bytes >= OVERLAP_BARRIER_BYTES;
        let mut hash_span = tracer.span("container.flush_hash");
        let (read_back, barrier) = if overlapped {
            std::thread::scope(|scope| {
                let barrier = scope.spawn(|| self.backend.sync());
                let sums = self.hash_extents(&jobs);
                let panicked = |_| Err(H5Error::Storage("the data barrier panicked".into()));
                (sums, barrier.join().unwrap_or_else(panicked))
            })
        } else {
            (self.hash_extents(&jobs), Ok(()))
        };
        hash_span.set_event(Event::FlushHash {
            jobs: jobs.len() as u64,
            bytes: dirty_bytes,
            reads: read_back.as_ref().map_or(0, |&(_, reads)| reads),
            overlapped,
        });
        drop(hash_span);
        let (sums, _) = read_back?;
        barrier?;
        let _commit_span = tracer.span("container.flush_commit");
        // One copy-on-write mutation per dataset.
        for stamps in stamps.chunk_by(|a, b| a.0 == b.0) {
            self.plane.mutate(stamps[0].0, |st| {
                for &(_, key, job) in stamps {
                    let sum = job.map(|j| sums[j].clone());
                    if key == CONTIG_EXTENT {
                        st.data_sum = sum;
                    } else if let Some(entry) = st.chunks.get_mut(&key) {
                        entry.sum = sum;
                    }
                }
                Ok(())
            })?;
        }
        // Serialize the plane in the stable on-disk format. The tree
        // guard is held across the shard capture so the view cannot
        // contain a dataset whose state insert is still in flight
        // (creation nests tree → shard the same way); encoding is pure
        // CPU, so no device I/O happens under the guard.
        let bytes = {
            let tree = self.plane.tree_read();
            let states = self.plane.snapshot_working();
            encode_meta(&tree, &states)?
        };
        let addr = self.reserve(bytes.len() as u64, "metadata append")?;
        self.backend.write_at(addr, &bytes)?; // xtask: allow(planned-io) metadata extent
        // The new root's payload (and, under the fan-out floor, the
        // data it describes) must be durable before any slot points at
        // it.
        self.backend.sync()?;
        let (next_gen, eof_now) = {
            let alloc = self.alloc.lock();
            let next = alloc.generation.checked_add(1).ok_or_else(|| {
                H5Error::Storage("superblock generation counter overflow".into())
            })?;
            (next, alloc.eof)
        };
        superblock::commit(
            &self.backend,
            &Superblock {
                generation: next_gen,
                meta_addr: addr,
                meta_len: bytes.len() as u64,
                meta_fnv: fnv1a64(FNV_BASIS, &bytes),
                eof: eof_now,
                root_id: ROOT_ID,
            },
        )?;
        // Last barrier: the root switch itself. Only now is the commit
        // durable, so only now does the in-memory generation advance — a
        // failed commit retries into the same slot, never the fallback.
        self.backend.sync()?;
        self.alloc.lock().generation = next_gen;
        self.meta_dirty.store(false, Ordering::Release);
        Ok(())
    }

    /// Snapshot of the sieve counters: how many spans folded how many
    /// segments, and the hole bytes that rode along.
    pub fn sieve_stats(&self) -> SieveStats {
        SieveStats {
            spans: self.sieve.spans.load(Ordering::Relaxed),
            segments: self.sieve.segments.load(Ordering::Relaxed),
            span_bytes: self.sieve.span_bytes.load(Ordering::Relaxed),
            fill_bytes: self.sieve.fill_bytes.load(Ordering::Relaxed),
        }
    }

    /// Total bytes addressed in the backend (allocation high-water mark).
    pub fn allocated_bytes(&self) -> u64 {
        self.alloc.lock().eof
    }

    // ----- snapshots and publication ---------------------------------

    /// Capture the model-published view of every dataset as an immutable
    /// [`MetaSnapshot`]: one shared acquisition per shard now, zero lock
    /// acquisitions per [`Container::read_snapshot`] afterwards — no
    /// matter how many writers mutate the plane meanwhile.
    pub fn snapshot(&self) -> MetaSnapshot {
        self.plane.snapshot()
    }

    /// Settlement-point publication hook. The async connector calls this
    /// when requests settle (`wait`/`wait_all`): under
    /// [`ConsistencyModel::Session`] the working states publish; under
    /// the other models this is a no-op (Strong already published at
    /// mutation, Commit waits for flush).
    pub fn publish_settled(&self) {
        self.plane.publish_settled();
    }

    /// Read the selected elements through the model-published state: one
    /// shared shard acquisition to fetch the `Arc`, then a planned read.
    /// This is the visibility-governed read — under the deferred models
    /// it may lawfully return data older than
    /// [`Container::read_selection`] would (see [`ConsistencyModel`]).
    ///
    /// Published reads skip per-extent checksum verification: the
    /// published checksums can postdate the published chunk map (flush
    /// refreshes them on the working path), so verification belongs to
    /// the working-state read and to [`Container::scrub`].
    pub fn read_published(&self, id: ObjectId, sel: &Selection) -> Result<Vec<u8>> {
        let state = self
            .plane
            .published(id)
            .ok_or_else(|| self.missing_dataset(id))?;
        let parts = plan_from_state(&state, sel, None)?;
        self.read_planned(&parts.plan, &parts.touched, &[])
    }

    /// Read the selected elements of `id` as captured by `snap`. Takes
    /// **zero** metadata-lock acquisitions — the address resolution runs
    /// entirely against the snapshot's immutable state, which is the
    /// point: a long-lived reader never blocks, and is never blocked by,
    /// any writer. Addresses stay valid because extent allocation is
    /// append-only (nothing the snapshot resolves is ever reused).
    /// Unverified, like [`Container::read_published`].
    pub fn read_snapshot(
        &self,
        snap: &MetaSnapshot,
        id: ObjectId,
        sel: &Selection,
    ) -> Result<Vec<u8>> {
        let state = snap
            .get(id)
            .ok_or_else(|| H5Error::NotFound(format!("dataset {id} not captured in snapshot")))?;
        let parts = plan_from_state(state, sel, None)?;
        self.read_planned(&parts.plan, &parts.touched, &[])
    }

    // ----- object tree -----------------------------------------------

    fn with_group<R>(
        &self,
        id: ObjectId,
        f: impl FnOnce(&BTreeMap<String, ObjectId>) -> R,
    ) -> Result<R> {
        let tree = self.plane.tree_read();
        let obj = tree
            .objects
            .get(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        match &obj.kind {
            NodeKind::Group { links } => Ok(f(links)),
            NodeKind::Dataset => {
                Err(H5Error::WrongObjectKind(format!("object {id} is a dataset")))
            }
        }
    }

    /// Kind of an object.
    pub fn kind(&self, id: ObjectId) -> Result<ObjectKind> {
        let tree = self.plane.tree_read();
        let obj = tree
            .objects
            .get(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        Ok(match obj.kind {
            NodeKind::Group { .. } => ObjectKind::Group,
            NodeKind::Dataset => ObjectKind::Dataset,
        })
    }

    /// Classify a dataset-state miss (error path only — costs one tree
    /// read): the object may not exist at all, may be a group, or — an
    /// internal invariant violation — may be a dataset whose shard slot
    /// vanished.
    fn missing_dataset(&self, id: ObjectId) -> H5Error {
        let tree = self.plane.tree_read();
        match tree.objects.get(&id).map(|o| &o.kind) {
            None => H5Error::NotFound(format!("object {id}")),
            Some(NodeKind::Group { .. }) => {
                H5Error::WrongObjectKind(format!("object {id} is a group"))
            }
            Some(NodeKind::Dataset) => {
                H5Error::Corrupt(format!("dataset {id} lost its shard state"))
            }
        }
    }

    /// The working dataset state (one shared shard acquisition), with
    /// misses classified against the tree.
    fn dataset_state(&self, id: ObjectId) -> Result<Arc<DatasetState>> {
        self.plane
            .working(id)
            .ok_or_else(|| self.missing_dataset(id))
    }

    /// Create a group under `parent`.
    pub fn create_group(&self, parent: ObjectId, name: &str) -> Result<ObjectId> {
        validate_link_name(name)?;
        let mut tree = self.plane.tree_write();
        let id = tree.next_id;
        {
            let obj = tree
                .objects
                .get_mut(&parent)
                .ok_or_else(|| H5Error::NotFound(format!("object {parent}")))?;
            let links = match &mut obj.kind {
                NodeKind::Group { links } => links,
                NodeKind::Dataset => {
                    return Err(H5Error::WrongObjectKind(format!(
                        "object {parent} is a dataset"
                    )))
                }
            };
            if links.contains_key(name) {
                return Err(H5Error::AlreadyExists(name.to_owned()));
            }
            links.insert(name.to_owned(), id);
        }
        tree.next_id += 1;
        tree.objects.insert(
            id,
            TreeObject {
                kind: NodeKind::Group {
                    links: BTreeMap::new(),
                },
                attrs: BTreeMap::new(),
            },
        );
        self.meta_dirty.store(true, Ordering::Release);
        Ok(id)
    }

    /// Create a dataset under `parent`. Contiguous datasets get their full
    /// extent up front; chunked datasets allocate per chunk on first write.
    pub fn create_dataset(
        &self,
        parent: ObjectId,
        name: &str,
        dtype: Datatype,
        space: &Dataspace,
        layout: Layout,
    ) -> Result<ObjectId> {
        validate_link_name(name)?;
        layout.validate(space.rank())?;

        // The tree guard is held across the shard insert (tree → shard
        // nesting, same as flush's capture order): an id visible through
        // the tree always has its shard slot installed.
        let mut tree = self.plane.tree_write();
        let id = tree.next_id;
        {
            let obj = tree
                .objects
                .get_mut(&parent)
                .ok_or_else(|| H5Error::NotFound(format!("object {parent}")))?;
            let links = match &mut obj.kind {
                NodeKind::Group { links } => links,
                NodeKind::Dataset => {
                    return Err(H5Error::WrongObjectKind(format!(
                        "object {parent} is a dataset"
                    )))
                }
            };
            if links.contains_key(name) {
                return Err(H5Error::AlreadyExists(name.to_owned()));
            }
            // Only a contiguous extent is sized by the whole dataspace.
            let data_addr = match layout {
                Layout::Contiguous => {
                    let nbytes = extent_bytes(space.npoints(), dtype)?;
                    match nbytes {
                        0 => 0,
                        _ => self
                            .reserve(nbytes, &format!("contiguous dataset of {nbytes} bytes"))?,
                    }
                }
                Layout::Chunked1D { .. } => 0,
            };
            links.insert(name.to_owned(), id);
            tree.next_id += 1;
            self.plane.insert(
                id,
                DatasetState {
                    dtype,
                    space: space.clone(),
                    layout,
                    data_addr,
                    data_sum: None,
                    chunks: BTreeMap::new(),
                    generation: 0,
                },
            );
        }
        tree.objects.insert(
            id,
            TreeObject {
                kind: NodeKind::Dataset,
                attrs: BTreeMap::new(),
            },
        );
        self.meta_dirty.store(true, Ordering::Release);
        Ok(id)
    }

    /// Look up a link in a group.
    pub fn lookup(&self, parent: ObjectId, name: &str) -> Result<ObjectId> {
        self.with_group(parent, |links| links.get(name).copied())?
            .ok_or_else(|| H5Error::NotFound(name.to_owned()))
    }

    /// Names linked in a group, sorted.
    pub fn list_links(&self, group: ObjectId) -> Result<Vec<String>> {
        self.with_group(group, |links| links.keys().cloned().collect())
    }

    /// Static description of a dataset.
    pub fn dataset_info(&self, id: ObjectId) -> Result<DatasetInfo> {
        let state = self.dataset_state(id)?;
        Ok(DatasetInfo {
            dtype: state.dtype,
            space: state.space.clone(),
            layout: state.layout.clone(),
        })
    }

    /// Grow a chunked 1-D dataset to `new_len` elements (the `H5Dextend`
    /// analogue). New chunks allocate lazily on first write and read back
    /// as the fill value until then. Shrinking or extending a contiguous
    /// dataset is unsupported (contiguous extents are allocated at
    /// creation).
    pub fn extend_dataset(&self, id: ObjectId, new_len: u64) -> Result<()> {
        let result = self.plane.mutate(id, |st| {
            if !matches!(st.layout, Layout::Chunked1D { .. }) {
                return Err(H5Error::Unsupported(
                    "only chunked datasets are extendable".into(),
                ));
            }
            let current = st.space.npoints();
            if new_len < current {
                return Err(H5Error::Unsupported(format!(
                    "cannot shrink dataset from {current} to {new_len}"
                )));
            }
            st.space = Dataspace::d1(new_len);
            Ok(())
        });
        match result {
            Ok(_) => {
                self.meta_dirty.store(true, Ordering::Release);
                Ok(())
            }
            Err(H5Error::NotFound(_)) => Err(self.missing_dataset(id)),
            Err(e) => Err(e),
        }
    }

    // ----- attributes ------------------------------------------------

    /// Attach (or replace) an attribute.
    pub fn set_attr(&self, id: ObjectId, name: &str, value: AttrValue) -> Result<()> {
        validate_link_name(name)?;
        let expected = value.shape.iter().product::<u64>() * value.dtype.size() as u64;
        if expected != value.bytes.len() as u64 {
            return Err(H5Error::ShapeMismatch(format!(
                "attribute '{name}': shape wants {expected} bytes, got {}",
                value.bytes.len()
            )));
        }
        let mut tree = self.plane.tree_write();
        let obj = tree
            .objects
            .get_mut(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        obj.attrs.insert(name.to_owned(), value);
        self.meta_dirty.store(true, Ordering::Release);
        Ok(())
    }

    /// Read an attribute.
    pub fn get_attr(&self, id: ObjectId, name: &str) -> Result<AttrValue> {
        let tree = self.plane.tree_read();
        let obj = tree
            .objects
            .get(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        obj.attrs
            .get(name)
            .cloned()
            .ok_or_else(|| H5Error::NotFound(format!("attribute '{name}'")))
    }

    /// Attribute names on an object, sorted.
    pub fn list_attrs(&self, id: ObjectId) -> Result<Vec<String>> {
        let tree = self.plane.tree_read();
        let obj = tree
            .objects
            .get(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        Ok(obj.attrs.keys().cloned().collect())
    }

    // ----- dataset I/O -----------------------------------------------

    /// Write `data` (raw on-disk bytes) into the selected elements.
    ///
    /// A thin wrapper over [`Container::plan_io`]: one metadata-lock
    /// acquisition resolves the whole selection (two on a first write
    /// into unallocated chunks), then the plan's spans
    /// ([`sieve_spans`]) go to the backend one [`span_windows`] window
    /// at a time. A one-piece span is written from `data`; a sieved
    /// span is read whole into a recycled buffer, its pieces are
    /// scattered into it, and it is written back whole — one vectored
    /// read and one vectored write ([`write_windowed`]) per window, which
    /// a device of several channels stripes itself, under the dataset's write
    /// gate so the read-modify-write is atomic against every other
    /// `write_selection` (DESIGN.md §9).
    ///
    /// A failed span read fails the write before anything of that window
    /// is written. A failed or torn write leaves every selected element
    /// old or new and every unselected byte as it was: the hole bytes
    /// written are the bytes just read. Retrying the whole call is
    /// idempotent, because the retry reads again.
    pub fn write_selection(&self, id: ObjectId, sel: &Selection, data: &[u8]) -> Result<()> {
        let planned = self.plan_io(id, sel, Some(data.len() as u64), true)?;
        let records = planned.plan.records();
        let spans = sieve_spans(records, extents_of(&planned.touched));
        // Only now, with every planning lock released.
        let gate = &self.sieve_gates[shard_of(id)];
        let sieved = (spans.len() as u64) < planned.plan.segment_count();
        let _exclusive = sieved.then(|| gate.write());
        let _shared = (!sieved).then(|| gate.read());
        let tracer = self.tracer();
        for window in span_windows(&spans) {
            let _sieve_span = self.note_sieve(&tracer, records, window);
            let mut sieve = recycle::lease(sieve_bytes(window));
            self.read_window(&tracer, window, &mut sieve, Vec::new())?;
            for (span, range) in sieve_layout(window) {
                let Some(range) = range else { continue };
                let buf = &mut sieve[range];
                for part in span.parts(records) {
                    // A part's pieces are back to back in `data`.
                    let src = &data[part.cursor as usize..][..(part.len * part.count) as usize];
                    part.scatter(src, &mut buf[(part.addr - span.addr) as usize..]);
                }
            }
            let batch: Vec<IoVec<'_>> = sieve_layout(window)
                .map(|(span, range)| IoVec {
                    offset: span.addr,
                    data: match range {
                        Some(range) => &sieve[range],
                        None => &data[span.cursor as usize..][..span.len as usize],
                    },
                })
                .collect();
            let mut batch_span = tracer.span("backend.batch");
            batch_span.set_event(Event::BackendBatch {
                segments: batch.len() as u64,
                bytes: window.iter().map(|s| s.len).sum(),
            });
            write_windowed(self.backend.as_ref(), &batch)?;
        }
        Ok(())
    }

    /// Count a window's sieved spans and, if it has any, open the
    /// `container.sieve` span that brackets their read → scatter or
    /// gather (→ write-back).
    fn note_sieve(
        &self,
        tracer: &Tracer,
        records: &[IoRecord],
        window: &[Span],
    ) -> Option<apio_trace::SpanGuard> {
        let (mut spans, mut folded, mut span_bytes, mut asked) = (0u64, 0u64, 0u64, 0u64);
        for span in window.iter().filter(|s| s.is_sieved()) {
            spans += 1;
            folded += span.count;
            span_bytes += span.len;
            asked += span
                .parts(records)
                .map(|part| part.len * part.count)
                .sum::<u64>();
        }
        if spans == 0 {
            return None;
        }
        let fill_bytes = span_bytes - asked;
        self.sieve.spans.fetch_add(spans, Ordering::Relaxed);
        self.sieve.segments.fetch_add(folded, Ordering::Relaxed);
        self.sieve.span_bytes.fetch_add(span_bytes, Ordering::Relaxed);
        self.sieve.fill_bytes.fetch_add(fill_bytes, Ordering::Relaxed);
        Some(tracer.span_with(
            "container.sieve",
            Event::Sieve {
                segments: folded,
                span_bytes,
                fill_bytes,
            },
        ))
    }

    /// One vectored read for a window: `batch` (the caller's direct
    /// reads, possibly none) plus every sieved span of `window`, whole,
    /// into `sieve` — spans back to back in window order. Either shape's
    /// tail can lie past the backend's watermark (an allocated extent
    /// nothing has written to the end of yet); the read stops there and
    /// the rest is the fill value, exactly as [`Container::hash_extents`]
    /// sees it, zero-filled here in either shape. `sieve` and the
    /// destinations are recycled memory: on return every byte of them
    /// comes from the device or the zero fill.
    fn read_window<'a>(
        &self,
        tracer: &Tracer,
        window: &[Span],
        sieve: &'a mut [u8],
        mut batch: Vec<IoVecMut<'a>>,
    ) -> Result<()> {
        let watermark = self.backend.len();
        batch.retain_mut(|seg| {
            let readable = watermark.saturating_sub(seg.offset).min(seg.buf.len() as u64);
            let (device, past) = std::mem::take(&mut seg.buf).split_at_mut(readable as usize);
            past.fill(0);
            seg.buf = device;
            readable > 0
        });
        let mut rest = sieve;
        for span in window.iter().filter(|s| s.is_sieved()) {
            let (buf, tail) = rest.split_at_mut(span.len as usize);
            rest = tail;
            let readable = watermark.saturating_sub(span.addr).min(span.len) as usize;
            let (device, past) = buf.split_at_mut(readable);
            past.fill(0);
            if !device.is_empty() {
                batch.push(IoVecMut {
                    offset: span.addr,
                    buf: device,
                });
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch_span = tracer.span("backend.batch");
        batch_span.set_event(Event::BackendBatch {
            segments: batch.len() as u64,
            bytes: batch.iter().map(|seg| seg.buf.len() as u64).sum(),
        });
        self.backend.read_vectored_at(&mut batch)
    }

    /// Resolve a write selection to device segments without issuing any
    /// I/O: same planning (and chunk allocation) as
    /// [`Container::write_selection`], but the caller keeps the segments,
    /// one per piece: a strided plan costs its element count here.
    pub fn plan_write_selection(
        &self,
        id: ObjectId,
        sel: &Selection,
        data_len: u64,
    ) -> Result<Vec<IoSegment>> {
        let plan = self.plan_io(id, sel, Some(data_len), true)?.plan;
        let mut segments = Vec::with_capacity(plan.segment_count() as usize);
        segments.extend(plan.segments());
        Ok(segments)
    }

    /// [`Container::plan_write_selection`], or `None` ("sieve it") when
    /// [`Container::write_selection`] would fold some segments into spans;
    /// a one-segment plan cannot, and skips that test. A write that sieves
    /// lands through `write_selection`, which plans it again.
    ///
    /// Written raw, the segments skip the dataset's write gate. In
    /// `AsyncVol` no sieved read → scatter → write-back can straddle them:
    /// a sieved job on the dataset is an entry under the same key on the
    /// same ring; a job ends its reaper pass, so it starts once every entry
    /// before it has landed and none after it starts until it is done; and
    /// a degraded write waits out the dataset's last entry before it plans.
    pub fn plan_raw_write(
        &self,
        id: ObjectId,
        sel: &Selection,
        data_len: u64,
    ) -> Result<Option<Vec<IoSegment>>> {
        let Planned { plan, touched, .. } = self.plan_io(id, sel, Some(data_len), true)?;
        let count = plan.segment_count();
        let spans = || sieve_spans(plan.records(), extents_of(&touched)).len() as u64;
        Ok((count < 2 || spans() == count).then(|| plan.segments().collect()))
    }

    /// The storage backend this container runs on (shared handle).
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        self.backend.clone()
    }

    /// Read the selected elements as raw on-disk bytes.
    ///
    /// Planned like [`Container::write_selection`]; buffer ranges the
    /// plan leaves unmapped (never-allocated chunks) stay at the fill
    /// value (zero), like HDF5.
    ///
    /// Of each extent that carries a checksum and is clean (unwritten
    /// since the last flush), the blocks the selection reaches are read
    /// in one call (one per [`COALESCE_WINDOW`] extents) and verified;
    /// the selection's segments are then served from the verified
    /// bytes, so a bit-flip anywhere on the returned path surfaces as
    /// [`H5Error::Corrupt`] instead of silently reaching the caller.
    ///
    /// The bytes come from the buffer recycler ([`recycle::take`]), so
    /// the `Vec`'s capacity can be up to twice its length (the next
    /// power of two); a caller done with them can hand them back with
    /// [`recycle::give`] for the next read to reuse. The same holds for
    /// [`Container::read_published`] and [`Container::read_snapshot`].
    pub fn read_selection(&self, id: ObjectId, sel: &Selection) -> Result<Vec<u8>> {
        self.read_selection_tagged(id, sel).map(|(_, bytes)| bytes)
    }

    /// [`Container::read_selection`], plus the element type of the
    /// dataset state the read was planned against: what a reader that
    /// decodes on another thread needs, without a second metadata
    /// lookup.
    pub fn read_selection_tagged(
        &self,
        id: ObjectId,
        sel: &Selection,
    ) -> Result<(Datatype, Vec<u8>)> {
        let planned = self.plan_io(id, sel, None, false)?;
        let bytes = self.read_planned(&planned.plan, &planned.touched, &planned.verify)?;
        Ok((planned.dtype, bytes))
    }

    /// Issue a built read plan: fetch and verify the blocks of the clean
    /// checksummed extents its records reach and serve those records
    /// from them ([`Container::read_verified`]); group the rest
    /// into spans like a write does, read each window in one vectored
    /// batch — one-piece spans straight into the output, sieved spans
    /// whole into a recycled buffer — and gather. Bytes past the
    /// watermark read as the fill value in both shapes.
    ///
    /// The output is recycled memory ([`recycle::take`]), whoever
    /// decodes it gives it back: the bytes between records (never
    /// allocated chunks) are zeroed here, and every record's bytes are
    /// written by the read.
    fn read_planned(
        &self,
        plan: &IoPlan,
        touched: &[Touched],
        verify: &[VerifyExtent],
    ) -> Result<Vec<u8>> {
        let mut out = recycle::take(plan.total_bytes() as usize);
        // Records ascend in cursor space (planner invariant 1).
        let mut filled = 0usize;
        for r in plan.records() {
            out[filled..r.cursor as usize].fill(0);
            filled = (r.cursor + r.len * r.count) as usize;
        }
        out[filled..].fill(0);
        let tracer = self.tracer();
        let verified = self.read_verified(plan.records(), verify)?;
        let unserved;
        let records = if verified.is_empty() {
            plan.records()
        } else {
            unserved = serve_verified(plan.records(), &verified, &mut out);
            unserved.as_slice()
        };
        drop(verified);
        let spans = sieve_spans(records, extents_of(touched));
        for window in span_windows(&spans) {
            let _sieve_span = self.note_sieve(&tracer, records, window);
            let mut sieve = recycle::lease(sieve_bytes(window));
            // Carve the one-piece spans' destinations out of `out` in
            // one forward pass — sound because plan pieces ascend in
            // cursor space (planner invariant 1).
            let mut rest: &mut [u8] = &mut out;
            let mut consumed = 0u64;
            let mut batch: Vec<IoVecMut<'_>> = Vec::with_capacity(window.len());
            for span in window.iter().filter(|s| !s.is_sieved()) {
                let tail = std::mem::take(&mut rest);
                let (_gap, tail) = tail.split_at_mut((span.cursor - consumed) as usize);
                let (seg, tail) = tail.split_at_mut(span.len as usize);
                rest = tail;
                consumed = span.cursor + span.len;
                batch.push(IoVecMut {
                    offset: span.addr,
                    buf: seg,
                });
            }
            self.read_window(&tracer, window, &mut sieve, batch)?;
            for (span, range) in sieve_layout(window) {
                let Some(range) = range else { continue };
                let buf = &sieve[range];
                for part in span.parts(records) {
                    let dst = &mut out[part.cursor as usize..][..(part.len * part.count) as usize];
                    part.gather(&buf[(part.addr - span.addr) as usize..], dst);
                }
            }
        }
        Ok(out)
    }

    /// Resolve a selection into a coalesced [`IoPlan`].
    ///
    /// The fast path takes **one** shared shard-lock acquisition — just
    /// long enough to clone the dataset's state `Arc` — then does
    /// everything the old per-run path re-did per segment with no lock
    /// held at all: shape validation (against `expect_bytes` when
    /// given), run decomposition, and resolution of every chunk address.
    /// When `allocate` is set and some chunks are missing, one exclusive
    /// shard acquisition follows: the copy-on-write mutation claims all
    /// still-missing chunks in a single `eof` reservation (allocator
    /// mutex nested inside the shard lock) and the plan is rebuilt
    /// against the complete chunk map. The new chunks are zero-filled
    /// *outside* the locks from one reused buffer, as a vectored batch
    /// ordered before the caller's data batch.
    ///
    /// Publishing chunk addresses before the zero-fill means a concurrent
    /// first writer to the *same* chunk could interleave with the fill;
    /// the async connector's per-dataset op chaining serializes that case
    /// (see DESIGN.md §9). Concurrent writers to disjoint chunks are
    /// unaffected — each allocator zero-fills only the chunks it claimed
    /// under the exclusive lock.
    fn plan_io(
        &self,
        id: ObjectId,
        sel: &Selection,
        expect_bytes: Option<u64>,
        allocate: bool,
    ) -> Result<Planned> {
        let tracer = self.tracer();
        let mut plan_span = tracer.span("container.plan_io");
        let state = {
            let _lock_span = tracer.span("container.meta_lock");
            self.dataset_state(id)?
        };
        let mut parts = plan_from_state(&state, sel, expect_bytes)?;
        if !parts.missing.is_empty() && allocate {
            let state = self.allocate_chunks(id, &state, &parts.missing, &tracer)?;
            // Plan again, against the complete, immutable chunk map.
            parts = plan_from_state(&state, sel, expect_bytes)?;
        }
        plan_span.set_event(plan_built_event(id, &parts.plan));
        Ok(Planned {
            dtype: state.dtype,
            verify: self.note_touched(id, allocate, &parts.touched),
            touched: parts.touched,
            plan: parts.plan,
        })
    }

    /// The slow path of [`Container::plan_io`]: claim every still-missing
    /// chunk of `missing` with one copy-on-write mutation under one
    /// exclusive shard acquisition and a single eof reservation, then
    /// zero-fill what was claimed. Returns the state that holds them all.
    fn allocate_chunks(
        &self,
        id: ObjectId,
        state: &DatasetState,
        missing: &[u64],
        tracer: &Tracer,
    ) -> Result<Arc<DatasetState>> {
        let Layout::Chunked1D { chunk_elems } = state.layout else {
            return Err(H5Error::Corrupt(format!(
                "object {id} reported missing chunks without a chunked layout"
            )));
        };
        let chunk_bytes = extent_bytes(chunk_elems, state.dtype)?;
        let (state, fresh) = {
            let _lock_span = tracer.span("container.meta_lock");
            self.plane.mutate(id, |st| {
                // Re-check under the exclusive lock (another writer may
                // have won the race for some of these chunks).
                let still: Vec<u64> = missing
                    .iter()
                    .copied()
                    .filter(|idx| !st.chunks.contains_key(idx))
                    .collect();
                let mut fresh = Vec::with_capacity(still.len());
                if !still.is_empty() {
                    let grow = chunk_bytes
                        .checked_mul(still.len() as u64)
                        .ok_or_else(|| {
                            H5Error::Storage(
                                "chunk allocation overflows the device address space".into(),
                            )
                        })?;
                    let mut addr = self.reserve(grow, "chunk allocation")?;
                    for idx in still {
                        st.chunks.insert(idx, ChunkEntry { addr, sum: None });
                        fresh.push(addr);
                        // Bounded by the checked reservation above;
                        // saturating keeps the arithmetic wrap-free.
                        addr = addr.saturating_add(chunk_bytes);
                    }
                }
                Ok(fresh)
            })?
        };
        if !fresh.is_empty() {
            self.meta_dirty.store(true, Ordering::Release);
        }

        // Zero-fill the freshly claimed chunks outside the metadata lock
        // so partially written chunks read back as the fill value. One
        // reused zero buffer backs every segment of the batch.
        if !fresh.is_empty() {
            let zero = vec![0u8; chunk_bytes as usize];
            for window in fresh.chunks(COALESCE_WINDOW) {
                let batch: Vec<IoVec<'_>> = window
                    .iter()
                    .map(|&addr| IoVec {
                        offset: addr,
                        data: &zero,
                    })
                    .collect();
                self.backend.write_vectored_at(&batch)?;
            }
        }
        Ok(state)
    }

    /// Bookkeeping after a plan is built. For writes, mark every touched
    /// extent dirty (its stored checksum is about to go stale). For
    /// reads, return the clean checksummed extents to verify. A no-op
    /// returning no verification work while checksums are disabled.
    fn note_touched(
        &self,
        id: ObjectId,
        write: bool,
        touched: &[Touched],
    ) -> Vec<VerifyExtent> {
        if !self.checksums.load(Ordering::Relaxed) || touched.is_empty() {
            return Vec::new();
        }
        let mut dirty = self.dirty_extents.lock();
        if write {
            for &(key, _, _, _) in touched {
                dirty.insert((id, key));
            }
            return Vec::new();
        }
        touched
            .iter()
            .filter(|(key, ..)| !dirty.contains(&(id, *key)))
            .filter_map(|(_, addr, len, sum)| {
                Some(VerifyExtent {
                    addr: *addr,
                    len: *len,
                    sum: sum.clone()?,
                })
            })
            .collect()
    }
}

/// One lock-free planning pass over an immutable dataset state: shape
/// validation, lowering to rows, chunk-address resolution, and the
/// touched/missing bookkeeping — work that follows the rows and extents
/// a selection touches, not its elements. Shared by the live paths (which fetch
/// the state under one shard acquisition) and the snapshot paths (which
/// fetch it from a [`MetaSnapshot`] with no lock at all).
fn plan_from_state(
    state: &DatasetState,
    sel: &Selection,
    expect_bytes: Option<u64>,
) -> Result<PlanParts> {
    let elem = state.dtype.size() as u64;
    if let Some(got) = expect_bytes {
        let want = extent_bytes(sel.npoints(&state.space), state.dtype)?;
        if got != want {
            return Err(H5Error::ShapeMismatch(format!(
                "selection wants {want} bytes, buffer has {got}"
            )));
        }
    }
    // Validates the selection: the planner only ever sees rows that lie
    // inside the dataspace.
    let rows = sel.rows(&state.space)?;
    let mut touched: Vec<Touched> = Vec::new();
    let mut missing: Vec<u64> = Vec::new();
    match &state.layout {
        Layout::Contiguous => {
            let nbytes = extent_bytes(state.space.npoints(), state.dtype)?;
            if nbytes > 0 {
                touched.push((CONTIG_EXTENT, state.data_addr, nbytes, state.data_sum.clone()));
            }
            Ok(PlanParts {
                plan: IoPlan::contiguous(state.data_addr, elem, rows)?,
                touched,
                missing,
            })
        }
        Layout::Chunked1D { chunk_elems } => {
            let ce = *chunk_elems;
            let chunk_bytes = extent_bytes(ce, state.dtype)?;
            let mut seen = BTreeSet::new();
            let plan = IoPlan::chunked(ce, elem, rows, |idx| {
                let entry = state.chunks.get(&idx);
                if seen.insert(idx) {
                    match entry {
                        Some(e) => touched.push((idx, e.addr, chunk_bytes, e.sum.clone())),
                        None => missing.push(idx),
                    }
                }
                entry.map(|e| e.addr)
            })?;
            Ok(PlanParts {
                plan,
                touched,
                missing,
            })
        }
    }
}

/// The planner-result payload for a `container.plan_io` span: the plan's
/// piece count — from the records' counts, nothing is expanded — plus
/// the number of vectored windows those pieces become if none of them
/// sieve (exact then; the issuing side may fold them into fewer).
fn plan_built_event(id: ObjectId, plan: &IoPlan) -> Event {
    let segments = plan.segment_count();
    Event::PlanBuilt {
        dataset: id,
        segments,
        batches: segments.div_ceil(COALESCE_WINDOW as u64),
    }
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let objects = self.plane.tree_read().objects.len();
        f.debug_struct("Container")
            .field("objects", &objects)
            .field("eof", &self.alloc.lock().eof)
            .field("dirty", &self.meta_dirty.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for Container {
    fn drop(&mut self) {
        // Best-effort durability, mirroring H5Fclose semantics: Drop
        // cannot propagate; callers needing certainty call flush() first.
        #[allow(
            clippy::let_underscore_must_use,
            reason = "Drop cannot propagate the error"
        )]
        let _ = self.flush();
    }
}

fn validate_link_name(name: &str) -> Result<()> {
    if name.is_empty() || name.contains('/') {
        return Err(H5Error::InvalidSelection(format!(
            "invalid link name '{name}': must be non-empty and contain no '/'"
        )));
    }
    Ok(())
}

// ----- metadata (de)serialization -------------------------------------
//
// The byte format predates the sharded plane and is preserved exactly:
// a flush reassembles the old single-map object shape from the tree and
// the captured dataset states, and open splits it back apart. Files
// written before the split reopen byte-identically after it. The one
// byte that has since widened is each extent's checksum presence flag,
// now the algorithm tag (0 none, 1 FNV-1a — what the flag's `true` always
// meant — 2 XXH64, each followed by its one u64; 3 block sums, followed
// by a counted list of them that must hold one sum per block): old files
// decode unchanged, a reader from before the tag rejects a file carrying
// a 2 or a 3 as an invalid bool, and a reader from before tag 3 rejects
// it as an unknown tag — neither verifies it with the wrong function.

/// A tree object paired with its captured dataset state (when it is a
/// dataset) — the pre-validated encoding view.
enum EncodeNode<'a> {
    Group(&'a BTreeMap<String, ObjectId>),
    Dataset(&'a DatasetState),
}

fn encode_meta(tree: &Tree, states: &MetaSnapshot) -> Result<Vec<u8>> {
    // Validate before encoding: every tree dataset must have a captured
    // state (guaranteed by the tree → shard creation nesting).
    let mut entries: Vec<(ObjectId, &BTreeMap<String, AttrValue>, EncodeNode<'_>)> = Vec::new();
    for (&id, obj) in &tree.objects {
        let node = match &obj.kind {
            NodeKind::Group { links } => EncodeNode::Group(links),
            NodeKind::Dataset => EncodeNode::Dataset(
                states
                    .get(id)
                    .ok_or_else(|| {
                        H5Error::Corrupt(format!("dataset {id} lost its shard state"))
                    })?
                    .as_ref(),
            ),
        };
        entries.push((id, &obj.attrs, node));
    }
    let mut w = Writer::new();
    w.u64(tree.next_id);
    w.list(&entries, |w, (id, attrs, node)| {
        w.u64(*id);
        let attrs: Vec<(&String, &AttrValue)> = attrs.iter().collect();
        w.list(&attrs, |w, (name, a)| {
            w.str(name);
            w.u8(a.dtype.tag());
            w.list(&a.shape, |w, d| w.u64(*d));
            w.bytes(&a.bytes);
        });
        match node {
            EncodeNode::Group(links) => {
                w.u8(0);
                let links: Vec<(&String, &ObjectId)> = links.iter().collect();
                w.list(&links, |w, (name, id)| {
                    w.str(name);
                    w.u64(**id);
                });
            }
            EncodeNode::Dataset(state) => {
                w.u8(1);
                w.u8(state.dtype.tag());
                w.list(state.space.dims(), |w, d| w.u64(*d));
                w.u8(state.layout.tag());
                if let Layout::Chunked1D { chunk_elems } = state.layout {
                    w.u64(chunk_elems);
                }
                w.u64(state.data_addr);
                Checksum::encode(w, state.data_sum.as_ref());
                let chunks: Vec<(&u64, &ChunkEntry)> = state.chunks.iter().collect();
                w.list(&chunks, |w, (idx, entry)| {
                    w.u64(**idx);
                    w.u64(entry.addr);
                    Checksum::encode(w, entry.sum.as_ref());
                });
            }
        }
    });
    Ok(w.into_bytes())
}

fn decode_meta(bytes: &[u8]) -> Result<(Tree, Vec<(ObjectId, DatasetState)>)> {
    let mut r = Reader::new(bytes);
    let next_id = r.u64()?;
    let mut states: Vec<(ObjectId, DatasetState)> = Vec::new();
    let entries = r.list(|r| {
        let id = r.u64()?;
        let attrs_list = r.list(|r| {
            let name = r.str()?;
            let dtype = Datatype::from_tag(r.u8()?)?;
            let shape = r.list(|r| r.u64())?;
            let bytes = r.bytes()?.to_vec();
            Ok((name, AttrValue { dtype, shape, bytes }))
        })?;
        let attrs: BTreeMap<String, AttrValue> = attrs_list.into_iter().collect();
        let kind = r.u8()?;
        let kind = match kind {
            0 => {
                let links_list = r.list(|r| Ok((r.str()?, r.u64()?)))?;
                NodeKind::Group {
                    links: links_list.into_iter().collect(),
                }
            }
            1 => {
                let dtype = Datatype::from_tag(r.u8()?)?;
                let dims = r.list(|r| r.u64())?;
                if dims.is_empty() {
                    return Err(H5Error::Corrupt("dataset with empty rank".into()));
                }
                let layout_tag = r.u8()?;
                let layout = match layout_tag {
                    0 => Layout::Contiguous,
                    1 => Layout::Chunked1D {
                        chunk_elems: r.u64()?,
                    },
                    t => return Err(H5Error::Corrupt(format!("unknown layout tag {t}"))),
                };
                // The extent lengths a block list is checked against; an
                // overflowing one matches no count a file can hold.
                let space = Dataspace::new(&dims);
                let elem = dtype.size() as u64;
                let chunk_bytes = match layout {
                    Layout::Contiguous => 0,
                    Layout::Chunked1D { chunk_elems } => chunk_elems.saturating_mul(elem),
                };
                let data_addr = r.u64()?;
                let data_sum = Checksum::decode(r, space.npoints().saturating_mul(elem))?;
                let chunks_list = r.list(|r| {
                    let idx = r.u64()?;
                    let addr = r.u64()?;
                    let sum = Checksum::decode(r, chunk_bytes)?;
                    Ok((idx, ChunkEntry { addr, sum }))
                })?;
                states.push((
                    id,
                    DatasetState {
                        dtype,
                        space,
                        layout,
                        data_addr,
                        data_sum,
                        chunks: chunks_list.into_iter().collect(),
                        generation: 0,
                    },
                ));
                NodeKind::Dataset
            }
            t => return Err(H5Error::Corrupt(format!("unknown object kind {t}"))),
        };
        Ok((id, TreeObject { kind, attrs }))
    })?;
    if !r.is_exhausted() {
        return Err(H5Error::Corrupt("trailing bytes after metadata".into()));
    }
    Ok((
        Tree {
            objects: entries.into_iter().collect(),
            next_id,
        },
        states,
    ))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataspace::Hyperslab;
    use crate::datatype::{from_bytes, to_bytes};
    use crate::checksum::SUM_BLOCK;

    #[test]
    fn tree_construction_and_lookup() {
        let c = Container::create_mem();
        let g = c.create_group(ROOT_ID, "run0").unwrap();
        let ds = c
            .create_dataset(g, "x", Datatype::F64, &Dataspace::d1(10), Layout::Contiguous)
            .unwrap();
        assert_eq!(c.kind(g).unwrap(), ObjectKind::Group);
        assert_eq!(c.kind(ds).unwrap(), ObjectKind::Dataset);
        assert_eq!(c.lookup(ROOT_ID, "run0").unwrap(), g);
        assert_eq!(c.lookup(g, "x").unwrap(), ds);
        assert_eq!(c.list_links(ROOT_ID).unwrap(), vec!["run0".to_owned()]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let c = Container::create_mem();
        c.create_group(ROOT_ID, "g").unwrap();
        assert!(matches!(
            c.create_group(ROOT_ID, "g").unwrap_err(),
            H5Error::AlreadyExists(_)
        ));
        assert!(matches!(
            c.create_dataset(
                ROOT_ID,
                "g",
                Datatype::I32,
                &Dataspace::d1(1),
                Layout::Contiguous
            )
            .unwrap_err(),
            H5Error::AlreadyExists(_)
        ));
    }

    #[test]
    fn bad_link_names_rejected() {
        let c = Container::create_mem();
        assert!(c.create_group(ROOT_ID, "").is_err());
        assert!(c.create_group(ROOT_ID, "a/b").is_err());
    }

    #[test]
    fn dataset_under_dataset_rejected() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "d",
                Datatype::I32,
                &Dataspace::d1(4),
                Layout::Contiguous,
            )
            .unwrap();
        assert!(matches!(
            c.create_group(ds, "sub").unwrap_err(),
            H5Error::WrongObjectKind(_)
        ));
    }

    #[test]
    fn contiguous_write_read_roundtrip() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::F64,
                &Dataspace::d1(100),
                Layout::Contiguous,
            )
            .unwrap();
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        c.write_selection(ds, &Selection::All, &to_bytes(&data)).unwrap();
        let back = from_bytes::<f64>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn hyperslab_write_then_partial_read() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::I32,
                &Dataspace::d1(10),
                Layout::Contiguous,
            )
            .unwrap();
        // Whole dataset zero, then write 3 values at offset 4.
        c.write_selection(ds, &Selection::All, &to_bytes(&[0i32; 10]))
            .unwrap();
        c.write_selection(
            ds,
            &Selection::Slab(Hyperslab::range1(4, 3)),
            &to_bytes(&[7i32, 8, 9]),
        )
        .unwrap();
        let back =
            from_bytes::<i32>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
        assert_eq!(back, vec![0, 0, 0, 0, 7, 8, 9, 0, 0, 0]);
        let part = from_bytes::<i32>(
            &c.read_selection(ds, &Selection::Slab(Hyperslab::range1(3, 4)))
                .unwrap(),
        )
        .unwrap();
        assert_eq!(part, vec![0, 7, 8, 9]);
    }

    #[test]
    fn two_d_hyperslab_roundtrip() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "m",
                Datatype::I64,
                &Dataspace::d2(4, 4),
                Layout::Contiguous,
            )
            .unwrap();
        c.write_selection(ds, &Selection::All, &to_bytes(&(0..16).collect::<Vec<i64>>()))
            .unwrap();
        // Read the 2x2 block at (1,1): elements 5,6,9,10.
        let sel = Selection::Slab(Hyperslab::contiguous(&[1, 1], &[2, 2]));
        let block = from_bytes::<i64>(&c.read_selection(ds, &sel).unwrap()).unwrap();
        assert_eq!(block, vec![5, 6, 9, 10]);
        // Overwrite that block and check the full matrix.
        c.write_selection(ds, &sel, &to_bytes(&[-5i64, -6, -9, -10]))
            .unwrap();
        let all = from_bytes::<i64>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
        assert_eq!(
            all,
            vec![0, 1, 2, 3, 4, -5, -6, 7, 8, -9, -10, 11, 12, 13, 14, 15]
        );
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::F32,
                &Dataspace::d1(8),
                Layout::Contiguous,
            )
            .unwrap();
        let err = c
            .write_selection(ds, &Selection::All, &to_bytes(&[1.0f32; 7]))
            .unwrap_err();
        assert!(matches!(err, H5Error::ShapeMismatch(_)));
    }

    #[test]
    fn chunked_write_read_and_fill_value() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::I32,
                &Dataspace::d1(100),
                Layout::Chunked1D { chunk_elems: 16 },
            )
            .unwrap();
        // Write a range crossing chunk boundaries: elements 10..40.
        let vals: Vec<i32> = (10..40).collect();
        c.write_selection(ds, &Selection::Slab(Hyperslab::range1(10, 30)), &to_bytes(&vals))
            .unwrap();
        let all = from_bytes::<i32>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
        for (i, &got) in all.iter().enumerate() {
            let expect = if (10..40).contains(&i) { i as i32 } else { 0 };
            assert_eq!(got, expect, "element {i}");
        }
    }

    #[test]
    fn chunk_allocation_overflow_is_an_error_not_a_wrap() {
        // A chunk so large its byte size overflows u64: allocation must
        // fail with a Storage error instead of wrapping the eof and
        // handing out addresses that alias live data.
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::U64,
                &Dataspace::d1(16),
                Layout::Chunked1D { chunk_elems: 1 << 61 },
            )
            .unwrap();
        let err = c
            .write_selection(ds, &Selection::All, &to_bytes(&[1u64; 16]))
            .unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    #[test]
    fn selection_size_overflow_is_an_error_not_an_accepted_buffer() {
        // 2^61 eight-byte elements: the selection's byte size wraps to 0,
        // which an empty buffer used to match.
        let c = Container::create_mem();
        let space = Dataspace::d1(1 << 61);
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U64, &space, Layout::Chunked1D { chunk_elems: 4 })
            .unwrap();
        let err = c.write_selection(ds, &Selection::All, &[]).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
        // And a contiguous extent of that size cannot be reserved at all.
        let err = c
            .create_dataset(ROOT_ID, "y", Datatype::U64, &space, Layout::Contiguous)
            .unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "got {err:?}");
    }

    #[test]
    fn strided_index_overflow_is_an_error_not_a_write_at_a_wrapped_offset() {
        // (count - 1) * stride wraps to 0, so the slab used to validate;
        // with one-byte elements the address arithmetic did not overflow
        // either, and the second element went to offset 2^62.
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(10), Layout::Contiguous)
            .unwrap();
        c.write_selection(ds, &Selection::All, &[1u8; 10]).unwrap();
        let watermark = backend.len();
        let sel = Selection::Slab(Hyperslab::strided(&[1], &[5], &[1 << 62]));
        for err in [
            c.write_selection(ds, &sel, &[7u8; 5]).unwrap_err(),
            c.read_selection(ds, &sel).unwrap_err(),
            c.plan_write_selection(ds, &sel, 5).unwrap_err(),
        ] {
            assert!(matches!(err, H5Error::InvalidSelection(_)), "got {err:?}");
        }
        assert_eq!(backend.len(), watermark, "nothing may reach the device");
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), [1u8; 10]);
    }

    #[test]
    fn chunked_nd_rejected() {
        let c = Container::create_mem();
        let err = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::I32,
                &Dataspace::d2(4, 4),
                Layout::Chunked1D { chunk_elems: 4 },
            )
            .unwrap_err();
        assert!(matches!(err, H5Error::Unsupported(_)));
    }

    #[test]
    fn attributes_roundtrip() {
        let c = Container::create_mem();
        let g = c.create_group(ROOT_ID, "g").unwrap();
        c.set_attr(
            g,
            "timestep",
            AttrValue {
                dtype: Datatype::U64,
                shape: vec![1],
                bytes: to_bytes(&[42u64]),
            },
        )
        .unwrap();
        let a = c.get_attr(g, "timestep").unwrap();
        assert_eq!(from_bytes::<u64>(&a.bytes).unwrap(), vec![42]);
        assert_eq!(c.list_attrs(g).unwrap(), vec!["timestep".to_owned()]);
        assert!(matches!(
            c.get_attr(g, "missing").unwrap_err(),
            H5Error::NotFound(_)
        ));
    }

    #[test]
    fn attr_shape_mismatch_rejected() {
        let c = Container::create_mem();
        let err = c
            .set_attr(
                ROOT_ID,
                "bad",
                AttrValue {
                    dtype: Datatype::U64,
                    shape: vec![2],
                    bytes: vec![0u8; 8], // wants 16
                },
            )
            .unwrap_err();
        assert!(matches!(err, H5Error::ShapeMismatch(_)));
    }

    #[test]
    fn persistence_roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("h5lite-cont-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.h5l");
        let data: Vec<f64> = (0..256).map(|i| (i as f64).sqrt()).collect();
        {
            let c = Container::create_file(&path).unwrap();
            let g = c.create_group(ROOT_ID, "particles").unwrap();
            let ds = c
                .create_dataset(
                    g,
                    "energy",
                    Datatype::F64,
                    &Dataspace::d1(256),
                    Layout::Contiguous,
                )
                .unwrap();
            c.write_selection(ds, &Selection::All, &to_bytes(&data)).unwrap();
            c.set_attr(
                ds,
                "units",
                AttrValue {
                    dtype: Datatype::U8,
                    shape: vec![2],
                    bytes: b"eV".to_vec(),
                },
            )
            .unwrap();
            c.flush().unwrap();
        }
        {
            let c = Container::open_file(&path).unwrap();
            let g = c.lookup(ROOT_ID, "particles").unwrap();
            let ds = c.lookup(g, "energy").unwrap();
            let info = c.dataset_info(ds).unwrap();
            assert_eq!(info.dtype, Datatype::F64);
            assert_eq!(info.space.dims(), &[256]);
            let back =
                from_bytes::<f64>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
            assert_eq!(back, data);
            assert_eq!(c.get_attr(ds, "units").unwrap().bytes, b"eV".to_vec());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reflush_after_update_persists_new_state() {
        let dir = std::env::temp_dir().join(format!("h5lite-cont-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reflush.h5l");
        {
            let c = Container::create_file(&path).unwrap();
            c.create_group(ROOT_ID, "a").unwrap();
            c.flush().unwrap();
            c.create_group(ROOT_ID, "b").unwrap();
            c.flush().unwrap();
        }
        let c = Container::open_file(&path).unwrap();
        assert_eq!(
            c.list_links(ROOT_ID).unwrap(),
            vec!["a".to_owned(), "b".to_owned()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_garbage_is_corrupt() {
        let backend = Arc::new(MemBackend::new());
        backend.write_at(0, &[0u8; 64]).unwrap();
        assert!(matches!(
            Container::open(backend).unwrap_err(),
            H5Error::Corrupt(_)
        ));
        let empty = Arc::new(MemBackend::new());
        assert!(Container::open(empty).is_err());
    }

    #[test]
    fn checksum_detects_torn_metadata() {
        let dir = std::env::temp_dir().join(format!("h5lite-cont-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.h5l");
        {
            let c = Container::create_file(&path).unwrap();
            c.create_group(ROOT_ID, "g").unwrap();
            c.flush().unwrap();
        }
        // Corrupt one metadata byte (metadata lives after the superblock).
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let len = f.metadata().unwrap().len();
            f.write_all_at(&[0xAA], len - 1).unwrap();
        }
        assert!(matches!(
            Container::open_file(&path).unwrap_err(),
            H5Error::Corrupt(_)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_is_idempotent_when_clean() {
        let c = Container::create_mem();
        c.create_group(ROOT_ID, "g").unwrap();
        c.flush().unwrap();
        let eof1 = c.allocated_bytes();
        c.flush().unwrap();
        assert_eq!(c.allocated_bytes(), eof1, "clean flush must not allocate");
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "empty",
                Datatype::F32,
                &Dataspace::d1(0),
                Layout::Contiguous,
            )
            .unwrap();
        c.write_selection(ds, &Selection::All, &[]).unwrap();
        assert!(c.read_selection(ds, &Selection::All).unwrap().is_empty());
    }

    #[test]
    fn torn_superblock_commit_recovers_via_fallback_slot() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        {
            let c = Container::create(backend.clone());
            c.create_group(ROOT_ID, "a").unwrap();
            c.flush().unwrap(); // generation 1 seeds both slots
            c.create_group(ROOT_ID, "b").unwrap();
            c.flush().unwrap(); // generation 2 lands in slot 0
        }
        // Tear the generation-2 slot mid-write: open must fall back to
        // the generation-1 root instead of refusing the container.
        backend.write_at(0, &[0xAB; 32]).unwrap();
        let c = Container::open(backend).unwrap();
        assert_eq!(c.list_links(ROOT_ID).unwrap(), vec!["a".to_owned()]);
        assert_eq!(c.integrity_stats().superblock_fallbacks, 1);
    }

    #[test]
    fn flush_records_checksums_and_reads_verify() {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::F32,
                &Dataspace::d1(64),
                Layout::Contiguous,
            )
            .unwrap();
        c.write_selection(ds, &Selection::All, &to_bytes(&[1.5f32; 64]))
            .unwrap();
        // Dirty extent: not yet checksummed, so the read is unverified.
        c.read_selection(ds, &Selection::All).unwrap();
        assert_eq!(c.integrity_stats().verified_extents, 0);
        c.flush().unwrap();
        c.read_selection(ds, &Selection::All).unwrap();
        let stats = c.integrity_stats();
        assert_eq!(stats.verified_extents, 1);
        assert_eq!(stats.checksum_failures, 0);
    }

    #[test]
    fn verified_read_detects_an_injected_bit_flip() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let inj = Arc::new(FaultInjector::new(
            Arc::new(MemBackend::new()),
            FaultPlan::new(0xBADC0DE).fail_after(FaultOp::Read, 0, FaultKind::Corrupt),
        ));
        inj.set_armed(false);
        let c = Container::create(inj.clone());
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::F64,
                &Dataspace::d1(256),
                Layout::Contiguous,
            )
            .unwrap();
        let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
        c.write_selection(ds, &Selection::All, &to_bytes(&data)).unwrap();
        c.flush().unwrap();

        inj.set_armed(true);
        let err = c.read_selection(ds, &Selection::All).unwrap_err();
        assert!(matches!(err, H5Error::Corrupt(_)), "{err:?}");
        assert!(c.integrity_stats().checksum_failures >= 1);
        assert!(inj.injected() >= 1);
    }

    #[test]
    fn scrub_detects_and_read_repairs_corruption() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::I32,
                &Dataspace::d1(32),
                Layout::Contiguous,
            )
            .unwrap();
        let data: Vec<i32> = (0..32).collect();
        c.write_selection(ds, &Selection::All, &to_bytes(&data)).unwrap();
        c.flush().unwrap();
        assert!(c.scrub().unwrap().clean());

        // Flip a data byte behind the container's back. The first write
        // of a fresh container allocates right after the superblock area.
        backend.write_at(SUPERBLOCK_AREA, &[0xFF]).unwrap();
        let detect = c.scrub().unwrap();
        assert_eq!(detect.corrupt, 1);
        assert_eq!(detect.unrepaired, 1);
        assert!(!detect.clean());

        // Read-repair from a durable copy (here: the test's own buffer;
        // in production: WAL replay).
        let repaired = c
            .scrub_with(|id| {
                assert_eq!(id, ds);
                c.write_selection(ds, &Selection::All, &to_bytes(&data))?;
                Ok(true)
            })
            .unwrap();
        assert_eq!(repaired.corrupt, 1);
        assert_eq!(repaired.repaired, 1);
        assert_eq!(repaired.unrepaired, 0);
        assert!(c.scrub().unwrap().clean());
        let back = from_bytes::<i32>(&c.read_selection(ds, &Selection::All).unwrap()).unwrap();
        assert_eq!(back, data);
        let stats = c.integrity_stats();
        assert_eq!(stats.scrub_corrupt, 2, "detect pass + repair pass");
        assert_eq!(stats.scrub_repaired, 1);
    }

    #[test]
    fn disabled_checksums_skip_tracking_and_verification() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        c.set_checksums(false);
        let ds = c
            .create_dataset(
                ROOT_ID,
                "x",
                Datatype::I32,
                &Dataspace::d1(8),
                Layout::Contiguous,
            )
            .unwrap();
        c.write_selection(ds, &Selection::All, &to_bytes(&[3i32; 8]))
            .unwrap();
        c.flush().unwrap();
        // Corruption goes unnoticed: no checksums were recorded.
        backend.write_at(SUPERBLOCK_AREA, &[0xFF]).unwrap();
        c.read_selection(ds, &Selection::All).unwrap();
        let report = c.scrub().unwrap();
        assert_eq!(report.checked, 0);
        assert_eq!(c.integrity_stats().verified_extents, 0);
    }

    /// The stored checksums of a dataset: the contiguous extent's, then
    /// each chunk's by index.
    pub(super) fn stored_sums(c: &Container, id: ObjectId) -> (Option<Checksum>, Vec<(u64, Option<Checksum>)>) {
        let state = c.plane.working(id).unwrap();
        let chunks = state.chunks.iter().map(|(&idx, e)| (idx, e.sum.clone())).collect();
        (state.data_sum.clone(), chunks)
    }

    /// A 767-byte container written by this repository's code at commit
    /// `f78ece6`, the last one whose only data checksum was FNV-1a:
    /// group `legacy` holding `contig` (64 f32, `i * 0.5`, contiguous)
    /// and `chunked` (64 i32 in chunks of 16, elements 0..32 written as
    /// `100 + i`), flushed once. Its three data extents carry tag-1 sums.
    const LEGACY: &[u8] = include_bytes!("../tests/fixtures/written_by_f78ece6.h5l");

    fn legacy_backend() -> Arc<dyn StorageBackend> {
        let backend = Arc::new(MemBackend::new());
        backend.write_at(0, LEGACY).unwrap();
        backend
    }

    /// `(contig, chunked)` of the legacy container.
    fn legacy_datasets(c: &Container) -> (ObjectId, ObjectId) {
        let g = c.lookup(ROOT_ID, "legacy").unwrap();
        (c.lookup(g, "contig").unwrap(), c.lookup(g, "chunked").unwrap())
    }

    fn algorithms(c: &Container, id: ObjectId) -> Vec<Option<Algorithm>> {
        let (contig, chunks) = stored_sums(c, id);
        std::iter::once(contig)
            .chain(chunks.into_iter().map(|(_, sum)| sum))
            .map(|sum| sum.map(|s| s.algorithm))
            .collect()
    }

    #[test]
    fn a_file_stamped_with_fnv_opens_verifies_and_scrubs() {
        let c = Container::open(legacy_backend()).unwrap();
        let (contig, chunked) = legacy_datasets(&c);
        assert_eq!(algorithms(&c, contig), [Some(Algorithm::Fnv1a)]);
        assert_eq!(algorithms(&c, chunked), [None, Some(Algorithm::Fnv1a), Some(Algorithm::Fnv1a)]);

        let floats = from_bytes::<f32>(&c.read_selection(contig, &Selection::All).unwrap()).unwrap();
        assert_eq!(floats, (0..64).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
        // The strided read is served from the verified extents too.
        let odd = Selection::Slab(Hyperslab::strided(&[1], &[16], &[2]));
        let ints = from_bytes::<i32>(&c.read_selection(chunked, &odd).unwrap()).unwrap();
        assert_eq!(ints, (0..16).map(|i| 101 + 2 * i).collect::<Vec<_>>());
        let stats = c.integrity_stats();
        assert_eq!((stats.verified_extents, stats.checksum_failures), (3, 0));

        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (3, 0, 0));
        // Neither reading nor scrubbing re-stamps anything.
        assert_eq!(algorithms(&c, contig), [Some(Algorithm::Fnv1a)]);
    }

    #[test]
    fn a_dirtied_extent_is_restamped_and_its_untouched_neighbour_is_not() {
        let backend = legacy_backend();
        let c = Container::open(backend.clone()).unwrap();
        let (contig, chunked) = legacy_datasets(&c);
        let (_, before) = stored_sums(&c, chunked);
        let fresh: Vec<i32> = (0..16).map(|i| -i).collect();
        let second_chunk = Selection::Slab(Hyperslab::range1(16, 16));
        c.write_selection(chunked, &second_chunk, &to_bytes(&fresh)).unwrap();
        c.flush().unwrap();

        let (_, after) = stored_sums(&c, chunked);
        assert_eq!(after[0], before[0], "the untouched chunk keeps its FNV sum");
        let restamped = Checksum::blocks_of(&to_bytes(&fresh));
        assert_eq!(after[1], (1, Some(restamped)));
        assert_eq!(algorithms(&c, contig), [Some(Algorithm::Fnv1a)]);
        drop(c);

        // The mixed file round-trips through the metadata codec, and
        // every extent verifies under its own algorithm.
        let c = Container::open(backend).unwrap();
        assert_eq!(stored_sums(&c, chunked).1, after);
        let all = Selection::Slab(Hyperslab::range1(0, 32));
        let ints = from_bytes::<i32>(&c.read_selection(chunked, &all).unwrap()).unwrap();
        assert_eq!(ints[..16], (100..116).collect::<Vec<i32>>());
        assert_eq!(ints[16..], fresh);
        c.read_selection(contig, &Selection::All).unwrap();
        assert_eq!(c.integrity_stats().verified_extents, 3);
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt), (3, 0));
    }

    #[test]
    fn bit_rot_is_detected_under_either_algorithm() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let backend = legacy_backend();
        let inj = Arc::new(FaultInjector::new(
            backend.clone(),
            FaultPlan::new(0xB17).fail_after(FaultOp::Read, 0, FaultKind::Corrupt),
        ));
        inj.set_armed(false);
        let c = Container::open(inj.clone()).unwrap();
        let (_, chunked) = legacy_datasets(&c);
        let chunks = [
            Selection::Slab(Hyperslab::range1(0, 16)),
            Selection::Slab(Hyperslab::range1(16, 16)),
        ];
        c.write_selection(chunked, &chunks[1], &to_bytes(&[9i32; 16])).unwrap();
        c.flush().unwrap();
        assert_eq!(
            algorithms(&c, chunked),
            [None, Some(Algorithm::Fnv1a), Some(Algorithm::Xxh64Blocks)]
        );

        // On the read path: every device read comes back with a flipped bit.
        inj.set_armed(true);
        for sel in &chunks {
            let err = c.read_selection(chunked, sel).unwrap_err();
            assert!(matches!(err, H5Error::Corrupt(_)), "{err:?}");
        }
        assert_eq!(c.integrity_stats().checksum_failures, 2);
        inj.set_armed(false);

        // At rest: one byte of each chunk rewritten behind the container.
        let state = c.plane.working(chunked).unwrap();
        for entry in state.chunks.values() {
            backend.write_at(entry.addr + 5, &[0xFF]).unwrap();
        }
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.unrepaired), (3, 2, 2));
    }

    #[test]
    fn an_unknown_checksum_tag_is_corrupt_at_open_not_a_panic() {
        let backend = legacy_backend();
        let mut meta = latest_meta(&backend);
        // The tag is the byte before the sum it describes.
        let (_, states) = decode_meta(&meta).unwrap();
        let sum = states.iter().find_map(|(_, st)| st.data_sum.clone()).unwrap();
        let at = meta
            .windows(8)
            .position(|w| w == sum.sums[0].to_le_bytes())
            .unwrap();
        assert_eq!(meta[at - 1], Algorithm::Fnv1a as u8);
        // What a flush writes from now on is a byte the reader at
        // `f78ece6` — which decoded this position with `Reader::bool` —
        // refuses rather than verifies with the wrong function.
        assert!(Reader::new(&[Algorithm::Xxh64 as u8]).bool().is_err());

        meta[at - 1] = 4;
        assert!(matches!(decode_meta(&meta), Err(H5Error::Corrupt(_))));
        // Committed as the container's next generation, it fails the open.
        commit_meta(&backend, &meta);
        let err = Container::open(backend).unwrap_err();
        assert!(matches!(err, H5Error::Corrupt(ref m) if m.contains("tag 4")), "{err:?}");
    }

    // ----- block sums --------------------------------------------------

    /// The metadata extent the latest superblock slot names.
    fn latest_meta(backend: &Arc<dyn StorageBackend>) -> Vec<u8> {
        let (sb, _) = superblock::read_latest(backend).unwrap();
        let mut meta = vec![0u8; sb.meta_len as usize];
        backend.read_at(sb.meta_addr, &mut meta).unwrap();
        meta
    }

    /// Append `meta` and commit it as the container's next generation.
    fn commit_meta(backend: &Arc<dyn StorageBackend>, meta: &[u8]) {
        let (sb, _) = superblock::read_latest(backend).unwrap();
        backend.write_at(sb.eof, meta).unwrap();
        superblock::commit(
            backend,
            &Superblock {
                generation: sb.generation + 1,
                meta_addr: sb.eof,
                meta_len: meta.len() as u64,
                meta_fnv: fnv1a64(FNV_BASIS, meta),
                eof: sb.eof + meta.len() as u64,
                ..sb
            },
        )
        .unwrap();
    }

    /// A contiguous byte dataset of three blocks and a short fourth, and
    /// a chunked one whose chunks are two blocks and a short third, all
    /// written and flushed: every extent carries tag-3 block sums.
    fn blocked_container() -> (Arc<dyn StorageBackend>, ObjectId, ObjectId, Vec<u8>) {
        let block = SUM_BLOCK as usize;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let len = 3 * block + 1000;
        let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + i / 4099) as u8).collect();
        let space = Dataspace::d1(len as u64);
        let contig = c.create_dataset(ROOT_ID, "contig", Datatype::U8, &space, Layout::Contiguous).unwrap();
        let layout = Layout::Chunked1D { chunk_elems: 2 * SUM_BLOCK + 300 };
        let chunked = c.create_dataset(ROOT_ID, "chunked", Datatype::U8, &space, layout).unwrap();
        for ds in [contig, chunked] {
            c.write_selection(ds, &Selection::All, &bytes).unwrap();
        }
        c.flush().unwrap();
        (backend, contig, chunked, bytes)
    }

    #[test]
    fn block_sums_round_trip_through_the_metadata_codec() {
        let (backend, contig, chunked, bytes) = blocked_container();
        let c = Container::open(backend.clone()).unwrap();
        let (sum, none) = stored_sums(&c, contig);
        assert_eq!(none, vec![]);
        assert_eq!(sum, Some(Checksum::blocks_of(&bytes)));
        assert_eq!(sum.map(|s| s.sums.len()), Some(4));
        // Two chunks of 2 blocks + 300 bytes, the second holding the
        // dataset's last bytes and then the zero fill.
        let chunk = 2 * SUM_BLOCK as usize + 300;
        let mut filled = bytes.clone();
        filled.resize(2 * chunk, 0);
        let want: Vec<_> = filled
            .chunks(chunk)
            .enumerate()
            .map(|(i, b)| (i as u64, Some(Checksum::blocks_of(b))))
            .collect();
        assert_eq!(stored_sums(&c, chunked), (None, want));
        // Decoded and re-encoded, the metadata is the same bytes.
        let meta = latest_meta(&backend);
        let (tree, states) = decode_meta(&meta).unwrap();
        let snap = MetaPlane::from_parts(tree, states, ConsistencyModel::Strong);
        let again = encode_meta(&snap.tree_read(), &snap.snapshot_working()).unwrap();
        assert_eq!(again, meta);
        for ds in [contig, chunked] {
            assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), bytes);
        }
        assert_eq!(c.integrity_stats().verified_extents, 3);
        assert!(c.scrub().unwrap().clean());
    }

    #[test]
    fn a_block_list_one_sum_short_or_long_is_corrupt_at_open() {
        let (backend, contig, _, _) = blocked_container();
        let sums = {
            let c = Container::open(backend.clone()).unwrap();
            stored_sums(&c, contig).0.unwrap().sums
        };
        let meta = latest_meta(&backend);
        // Tag 3, the list's count, its first sum.
        let mut head = vec![Algorithm::Xxh64Blocks as u8];
        head.extend_from_slice(&(sums.len() as u32).to_le_bytes());
        head.extend_from_slice(&sums[0].to_le_bytes());
        let at = meta.windows(head.len()).position(|w| w == head).unwrap();
        let list_end = at + 5 + 8 * sums.len();
        for delta in [-1i64, 1] {
            let count = (sums.len() as i64 + delta) as u32;
            let mut bad = meta[..at + 1].to_vec();
            bad.extend_from_slice(&count.to_le_bytes());
            bad.extend_from_slice(&meta[at + 5..list_end - 8]);
            if delta > 0 {
                bad.extend_from_slice(&meta[list_end - 8..list_end]);
                bad.extend_from_slice(&7u64.to_le_bytes());
            }
            bad.extend_from_slice(&meta[list_end..]);
            let err = decode_meta(&bad).err().unwrap();
            assert!(matches!(err, H5Error::Corrupt(ref m) if m.contains("block sums")), "{err:?}");
            // Committed as the next generation of an identical file, it
            // fails the open rather than verify a short or phantom block.
            let (fresh, ..) = blocked_container();
            commit_meta(&fresh, &bad);
            let err = Container::open(fresh).unwrap_err();
            assert!(matches!(err, H5Error::Corrupt(ref m) if m.contains("block sums")), "{err:?}");
        }
        // The list as written opens.
        let (fresh, ..) = blocked_container();
        commit_meta(&fresh, &meta);
        Container::open(fresh).unwrap();
    }

    #[test]
    fn a_file_mixing_fnv_whole_xxh64_and_block_sums_opens_verifies_scrubs_and_round_trips() {
        let backend = legacy_backend();
        let (contig, chunked) = {
            let c = Container::open(backend.clone()).unwrap();
            legacy_datasets(&c)
        };
        // Re-tag the contiguous extent's FNV sum as a whole-extent XXH64
        // of the same bytes: the one stamp no flush writes any more.
        let contig_bytes: Vec<u8> = (0..64).flat_map(|i| (i as f32 * 0.5).to_le_bytes()).collect();
        let mut meta = latest_meta(&backend);
        let fnv = fnv1a64(FNV_BASIS, &contig_bytes).to_le_bytes();
        let at = meta.windows(8).position(|w| w == fnv).unwrap();
        assert_eq!(meta[at - 1], Algorithm::Fnv1a as u8);
        meta[at - 1] = Algorithm::Xxh64 as u8;
        meta[at..at + 8].copy_from_slice(&crate::checksum::xxh64(&contig_bytes).to_le_bytes());
        commit_meta(&backend, &meta);
        // Dirty the second chunk: the flush stamps it with block sums.
        {
            let c = Container::open(backend.clone()).unwrap();
            let second_chunk = Selection::Slab(Hyperslab::range1(16, 16));
            c.write_selection(chunked, &second_chunk, &to_bytes(&[5i32; 16])).unwrap();
            c.flush().unwrap();
        }
        let c = Container::open(backend.clone()).unwrap();
        assert_eq!(algorithms(&c, contig), [Some(Algorithm::Xxh64)]);
        assert_eq!(
            algorithms(&c, chunked),
            [None, Some(Algorithm::Fnv1a), Some(Algorithm::Xxh64Blocks)]
        );
        let floats = from_bytes::<f32>(&c.read_selection(contig, &Selection::All).unwrap()).unwrap();
        assert_eq!(floats, (0..64).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
        let all = Selection::Slab(Hyperslab::range1(0, 32));
        let ints = from_bytes::<i32>(&c.read_selection(chunked, &all).unwrap()).unwrap();
        assert_eq!(ints[..16], (100..116).collect::<Vec<i32>>());
        assert_eq!(ints[16..], [5; 16]);
        let stats = c.integrity_stats();
        assert_eq!((stats.verified_extents, stats.checksum_failures), (3, 0));
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (3, 0, 0));
        // A metadata-only flush re-encodes all three stamps as they are.
        let before = (stored_sums(&c, contig), stored_sums(&c, chunked));
        c.create_group(ROOT_ID, "touch").unwrap();
        c.flush().unwrap();
        drop(c);
        let c = Container::open(backend).unwrap();
        assert_eq!((stored_sums(&c, contig), stored_sums(&c, chunked)), before);
        assert!(c.scrub().unwrap().clean());
    }
}
