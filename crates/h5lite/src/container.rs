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
//! carry a checksum in the metadata ([`crate::checksum`]: XXH64, or the
//! FNV-1a of files written before it), refreshed at flush time for
//! extents written since the previous flush. Planned reads of clean
//! checksummed extents verify the bytes actually returned (whole-extent
//! reads served into the selection), failing with [`H5Error::Corrupt`]
//! on a mismatch; [`Container::scrub`] walks every checksummed extent
//! offline and [`Container::scrub_with`] read-repairs corrupt extents
//! from a durable copy (e.g. the staging WAL). See DESIGN.md §13.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use apio_trace::{Event, Tracer};

use crate::sync::{Mutex, RwLock};

use crate::checksum::{Algorithm, Checksum, Hasher};
use crate::codec::{Reader, Writer};
use crate::dataspace::{Dataspace, Selection};
use crate::datatype::Datatype;
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::meta::{
    shard_of, ChunkEntry, ConsistencyModel, DatasetState, MetaLockStats, MetaPlane, MetaSnapshot,
    NodeKind, Tree, TreeObject, META_SHARDS,
};
use crate::plan::{
    sieve_bytes, sieve_layout, sieve_spans, span_windows, IoPlan, IoRecord, IoSegment, Span,
    COALESCE_WINDOW,
};
use crate::recycle;
use crate::storage::{FileBackend, IoVec, IoVecMut, MemBackend, StorageBackend};
use crate::superblock::{self, fnv1a64, Superblock, FNV_BASIS, SUPERBLOCK_AREA};

/// Identifier of an object (group or dataset) within a container.
pub type ObjectId = u64;

/// The root group always has id 1.
pub const ROOT_ID: ObjectId = 1;

/// Extent key standing in for "the contiguous data extent" in the dirty
/// set (chunk indices never reach this value: a chunk index is bounded
/// by `npoints / chunk_elems`, and an `u64::MAX`-element dataset cannot
/// be allocated).
const CONTIG_EXTENT: u64 = u64::MAX;

/// Read-back lanes of [`Container::hash_extents`]: the service lanes one
/// client gets from a PFS or an NVMe namespace
/// ([`ThrottledBackend::DEFAULT_CHANNELS`](crate::storage::ThrottledBackend::DEFAULT_CHANNELS),
/// and the knee of the ring's depth-scaling curve). A constant of the
/// container, not a backend property: [`StorageBackend`] has no method
/// to ask, and a wrapper written against it must see the same fan-out.
const HASH_LANES: usize = 4;
/// Dirty bytes a lane must be worth: below two lanes' worth (4 MiB) the
/// read-back runs inline on the caller.
const HASH_LANE_MIN_BYTES: u64 = 2 << 20;
/// The longest read a hash issues, and the buffer a lane holds while it
/// does: read-back memory is at most `HASH_LANES × HASH_WINDOW`, 32 MiB.
const HASH_WINDOW: usize = 8 << 20;

/// One extent for [`Container::hash_extents`] to read back and hash.
struct HashJob {
    addr: u64,
    len: u64,
    algorithm: Algorithm,
}

/// Bytes a read-back of `jobs` moves.
fn hash_bytes(jobs: &[HashJob]) -> u64 {
    jobs.iter().fold(0u64, |sum, job| sum.saturating_add(job.len))
}

/// Threads [`Container::hash_extents`] shares `jobs` over, the caller
/// included.
fn hash_lanes(jobs: &[HashJob]) -> u64 {
    (hash_bytes(jobs) / HASH_LANE_MIN_BYTES).clamp(1, HASH_LANES.min(jobs.len()).max(1) as u64)
}

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

#[derive(Default)]
struct IntegrityCounters {
    verified_extents: AtomicU64,
    checksum_failures: AtomicU64,
    scrub_corrupt: AtomicU64,
    scrub_repaired: AtomicU64,
    superblock_fallbacks: AtomicU64,
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

/// Snapshot of the container's integrity counters
/// ([`Container::integrity_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Extents whose checksum was verified on a planned read.
    pub verified_extents: u64,
    /// Checksum mismatches detected on planned reads.
    pub checksum_failures: u64,
    /// Corrupt extents found by scrub walks.
    pub scrub_corrupt: u64,
    /// Corrupt extents repaired from a durable copy by scrub walks.
    pub scrub_repaired: u64,
    /// Invalid superblock slots seen when this container was opened
    /// (non-zero means open survived a torn commit via the other slot).
    pub superblock_fallbacks: u64,
}

/// Result of one [`Container::scrub`] / [`Container::scrub_with`] walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checksummed, clean extents whose bytes were re-hashed.
    pub checked: u64,
    /// Extents skipped because they were written since the last flush.
    pub skipped_dirty: u64,
    /// Extents whose bytes no longer match their stored checksum.
    pub corrupt: u64,
    /// Corrupt extents restored byte-identical from the repair source.
    pub repaired: u64,
    /// Corrupt extents the repair source could not restore.
    pub unrepaired: u64,
}

impl ScrubReport {
    /// True when every checked extent matched (or was repaired).
    pub fn clean(&self) -> bool {
        self.unrepaired == 0
    }
}

/// One extent a planned read must verify: where it lives, how long it
/// is, and the checksum recorded at the last flush.
struct VerifyExtent {
    addr: u64,
    len: u64,
    sum: Checksum,
}

/// One data extent a plan touches: `(key, addr, len, stored checksum)`,
/// the key being the chunk index or [`CONTIG_EXTENT`].
type Touched = (u64, u64, u64, Option<Checksum>);

/// What [`Container::plan_io`] hands the function that issues the plan.
struct Planned {
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
    /// one job list, in (dataset, extent) order, shared out over up to
    /// [`HASH_LANES`] lanes ([`Container::hash_extents`]; under 4 MiB of
    /// dirty bytes they run on the caller, one after another), each
    /// lane holding at most one [`HASH_WINDOW`] buffer. If any read-back
    /// fails, the flush returns the first error in job order, stamps
    /// nothing and keeps every extent marked dirty.
    ///
    /// The device sees one of two barrier sequences. Under 4 MiB of
    /// dirty bytes: `reads…, write(metadata), sync, write(slot), sync` —
    /// the first `sync` makes the data and the metadata extent durable
    /// together. From 4 MiB up the data gets a barrier of its own, on a
    /// scoped thread beside the read-back lanes and joined with them:
    /// `reads… ‖ sync, write(metadata), sync, write(slot), sync`, so the
    /// flush pays `max(read-back, data sync)` and the second `sync`
    /// covers the metadata extent alone. The early barrier is sound
    /// because every data write the flush covers completed before the
    /// flush was entered (the quiescence required below) and a read-back
    /// dirties nothing; the order the slot protocol needs — data
    /// durable → metadata durable → slot durable — is the same in both.
    /// A barrier that fails or panics fails the flush like a failed
    /// read-back does (a read-back error, if there is one too, is the
    /// one reported).
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
        let result = self.flush_inner(&dirty_keys);
        match result {
            Ok(()) => {
                self.plane.publish_flushed();
                Ok(())
            }
            Err(e) => {
                // The extents are still unchecksummed: put the marks
                // back so a later, successful flush hashes them.
                self.dirty_extents.lock().extend(dirty_keys);
                Err(e)
            }
        }
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
            let elem = state.dtype.size() as u64;
            for &(_, key) in keys {
                let (addr, len) = if key == CONTIG_EXTENT {
                    let len = state.space.npoints().checked_mul(elem).ok_or_else(|| {
                        H5Error::Storage("dataset byte size overflows the address space".into())
                    })?;
                    (state.data_addr, len)
                } else if let Layout::Chunked1D { chunk_elems } = state.layout {
                    let chunk_bytes = chunk_elems.checked_mul(elem).ok_or_else(|| {
                        H5Error::Storage("chunk byte size overflows the address space".into())
                    })?;
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
        // any metadata lock — and fold nothing unless every read-back
        // succeeded: a failed flush leaves every stored sum as it was.
        // Where the read-back is worth fanning out, the barrier that
        // makes the same bytes durable rides beside it: they were all
        // written before this call, and reading them dirties nothing.
        let dirty_bytes = hash_bytes(&jobs);
        let overlapped = dirty_bytes >= 2 * HASH_LANE_MIN_BYTES;
        let hash_span = tracer.span_with(
            "container.flush_hash",
            Event::FlushHash {
                jobs: jobs.len() as u64,
                bytes: dirty_bytes,
                lanes: hash_lanes(&jobs),
                overlapped,
            },
        );
        let (sums, barrier) = if overlapped {
            std::thread::scope(|scope| {
                let barrier = scope.spawn(|| self.backend.sync());
                let sums = self.hash_extents(&jobs);
                let panicked = |_| Err(H5Error::Storage("the data barrier panicked".into()));
                (sums, barrier.join().unwrap_or_else(panicked))
            })
        } else {
            (self.hash_extents(&jobs), Ok(()))
        };
        drop(hash_span);
        let sums = sums.into_iter().collect::<Result<Vec<Checksum>>>()?;
        barrier?;
        let _commit_span = tracer.span("container.flush_commit");
        // One copy-on-write mutation per dataset.
        for stamps in stamps.chunk_by(|a, b| a.0 == b.0) {
            self.plane.mutate(stamps[0].0, |st| {
                for &(_, key, job) in stamps {
                    let sum = job.map(|j| sums[j]);
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

    /// Hash every job's extent and return the sums in job order. The
    /// jobs are shared out over `min(HASH_LANES, jobs, bytes / 2 MiB)`
    /// lanes — scoped threads that live for this call, the caller being
    /// the first — each pulling the next unclaimed job and running
    /// [`Container::hash_extent`] on it, so a device with several
    /// service lanes serves several read-backs at once. With one lane
    /// or none (under 4 MiB in total, or a single extent however long)
    /// the same loop runs on the caller alone, in job order. One job's
    /// `Err` stops no other job; a lane that panicked leaves its job an
    /// [`H5Error::Storage`].
    fn hash_extents(&self, jobs: &[HashJob]) -> Vec<Result<Checksum>> {
        let lanes = hash_lanes(jobs);
        // Hands out job indices and nothing else: the jobs are shared
        // by the scope and the sums return through its join handles.
        let next = AtomicUsize::new(0);
        let lane = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    return done;
                };
                done.push((i, self.hash_extent(job.addr, job.len, job.algorithm)));
            }
        };
        let mut sums: Vec<Option<Result<Checksum>>> = jobs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
            let mut done = lane();
            // A lane that panicked returns nothing: its job stays `None`.
            done.extend(spawned.into_iter().flat_map(|h| h.join().unwrap_or_default()));
            for (i, sum) in done {
                sums[i] = Some(sum);
            }
        });
        sums.into_iter()
            .map(|sum| {
                sum.unwrap_or_else(|| {
                    Err(H5Error::Storage("a checksum read-back lane panicked".into()))
                })
            })
            .collect()
    }

    /// Hash `len` bytes at `addr` under `algorithm`, reading them back
    /// in windows of [`HASH_WINDOW`]: one pooled buffer whatever the
    /// extent's size, and one read for any extent up to 8 MiB. An extent
    /// is never split across lanes — one extent, however long, is read
    /// window after window by whoever took its job. Bytes past the
    /// backend's high-water mark hash as zeros without being held
    /// anywhere: an allocated-but-unwritten tail reads back as zeros
    /// once later appends raise the watermark, so the checksum stays
    /// stable either way.
    fn hash_extent(&self, addr: u64, len: u64, algorithm: Algorithm) -> Result<Checksum> {
        let end = addr.checked_add(len).ok_or_else(|| {
            H5Error::Storage("extent end overflows the device address space".into())
        })?;
        let readable = end.min(self.backend.len()).saturating_sub(addr);
        let mut hasher = Hasher::new(algorithm);
        let mut buf = recycle::lease(readable.min(HASH_WINDOW as u64) as usize);
        let mut done = 0u64;
        while done < readable {
            let window = &mut buf[..(readable - done).min(HASH_WINDOW as u64) as usize];
            self.backend
                .read_at(addr.saturating_add(done), window)?; // xtask: allow(planned-io) integrity hash read
            hasher.update(window);
            done += window.len() as u64;
        }
        hasher.update_zeros(len - readable);
        Ok(hasher.finish())
    }

    /// Enable or disable per-extent checksums (on by default). While
    /// disabled, writes skip dirty tracking, flush clears (rather than
    /// refreshes) the checksums of extents written meanwhile, and reads
    /// skip verification — the escape hatch for measuring the overhead.
    pub fn set_checksums(&self, enabled: bool) {
        self.checksums.store(enabled, Ordering::Relaxed);
    }

    /// Snapshot of the integrity counters: read verifications, checksum
    /// failures, scrub results, and superblock slot fallbacks.
    pub fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats {
            verified_extents: self.integrity.verified_extents.load(Ordering::Relaxed),
            checksum_failures: self.integrity.checksum_failures.load(Ordering::Relaxed),
            scrub_corrupt: self.integrity.scrub_corrupt.load(Ordering::Relaxed),
            scrub_repaired: self.integrity.scrub_repaired.load(Ordering::Relaxed),
            superblock_fallbacks: self
                .integrity
                .superblock_fallbacks
                .load(Ordering::Relaxed),
        }
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

    /// Walk every clean checksummed extent, re-hash its bytes, and
    /// report mismatches. Detection only — see [`Container::scrub_with`]
    /// for read-repair.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.scrub_with(|_| Ok(false))
    }

    /// [`Container::scrub`] with read-repair: for each corrupt extent,
    /// `repair(dataset)` is asked to rewrite the dataset's bytes from a
    /// durable copy (returning `true` if it had one — e.g. WAL replay);
    /// the extent is then re-hashed and counted repaired only if it now
    /// matches its stored checksum.
    ///
    /// The walk iterates a [`MetaSnapshot`] of the working state: after
    /// one shared acquisition per shard to capture the `Arc`s, the scrub
    /// holds **no metadata lock** — not while reading extents, not while
    /// hashing — so a background scrub never stalls foreground writers.
    /// Extents the snapshot misses (written after capture) are exactly
    /// the dirty extents the scrub would skip anyway. Repair correctness
    /// still requires the scrubbed datasets to be write-quiesced, like
    /// [`Container::flush`].
    ///
    /// Detection comes first and whole: every clean extent is re-hashed
    /// over the same lanes a flush uses ([`Container::hash_extents`]),
    /// and a failed read fails the scrub before anything is repaired.
    /// Repair and the re-hash after it then run one extent at a time in
    /// snapshot order, one replay per dataset. A replay re-marks the
    /// dataset's other extents dirty; the next flush re-stamps them.
    pub fn scrub_with(
        &self,
        mut repair: impl FnMut(ObjectId) -> Result<bool>,
    ) -> Result<ScrubReport> {
        let tracer = self.tracer();
        let _span = tracer.span("container.scrub");
        let mut report = ScrubReport::default();
        // Every checksummed extent, from a lock-free snapshot walk.
        let snap = self.plane.snapshot_working();
        let mut extents: Vec<(ObjectId, u64, u64, u64, Checksum)> = Vec::new();
        for (id, state) in snap.iter() {
            let elem = state.dtype.size() as u64;
            if let Some(sum) = state.data_sum {
                let len = state.space.npoints().checked_mul(elem).ok_or_else(|| {
                    H5Error::Storage("dataset byte size overflows the address space".into())
                })?;
                extents.push((id, CONTIG_EXTENT, state.data_addr, len, sum));
            }
            if let Layout::Chunked1D { chunk_elems } = state.layout {
                let chunk_bytes = chunk_elems.checked_mul(elem).ok_or_else(|| {
                    H5Error::Storage("chunk byte size overflows the address space".into())
                })?;
                for (&idx, entry) in &state.chunks {
                    if let Some(sum) = entry.sum {
                        extents.push((id, idx, entry.addr, chunk_bytes, sum));
                    }
                }
            }
        }
        let dirty: BTreeSet<(ObjectId, u64)> = self.dirty_extents.lock().clone();
        let before = extents.len();
        extents.retain(|&(id, key, ..)| !dirty.contains(&(id, key)));
        report.skipped_dirty = (before - extents.len()) as u64;
        report.checked = extents.len() as u64;
        // Detection: every clean extent, over the read-back lanes.
        let jobs: Vec<HashJob> = extents
            .iter()
            .map(|&(_, _, addr, len, sum)| HashJob {
                addr,
                len,
                algorithm: sum.algorithm,
            })
            .collect();
        let found = self
            .hash_extents(&jobs)
            .into_iter()
            .collect::<Result<Vec<Checksum>>>()?;
        // Repair replays a whole dataset at a time; remember the answer
        // so N corrupt chunks of one dataset replay once.
        let mut repair_ran: BTreeMap<ObjectId, bool> = BTreeMap::new();
        for ((id, key, addr, len, sum), found) in extents.into_iter().zip(found) {
            if found == sum {
                continue;
            }
            report.corrupt += 1;
            self.integrity.scrub_corrupt.fetch_add(1, Ordering::Relaxed);
            let had_copy = match repair_ran.get(&id) {
                Some(&ran) => ran,
                None => {
                    let ran = repair(id)?;
                    repair_ran.insert(id, ran);
                    ran
                }
            };
            if had_copy && self.hash_extent(addr, len, sum.algorithm)? == sum {
                report.repaired += 1;
                self.integrity.scrub_repaired.fetch_add(1, Ordering::Relaxed);
                self.dirty_extents.lock().remove(&(id, key));
            } else {
                report.unrepaired += 1;
            }
        }
        if let Some(m) = tracer.metrics() {
            m.counter("container.scrub_corrupt").add(report.corrupt);
            m.counter("container.scrub_repaired").add(report.repaired);
        }
        Ok(report)
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
                    let nbytes = space
                        .npoints()
                        .checked_mul(dtype.size() as u64)
                        .ok_or_else(|| {
                            H5Error::Storage(
                                "dataset byte size overflows the address space".into(),
                            )
                        })?;
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
    /// read and one vectored write per window, under the dataset's
    /// write gate so the read-modify-write is atomic against every other
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
                    scatter(src, &mut buf[(part.addr - span.addr) as usize..], &part);
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
            self.backend.write_vectored_at(&batch)?;
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
        if let Some(m) = tracer.metrics() {
            m.counter("container.sieve_spans").add(spans);
            m.counter("container.sieve_fill_bytes").add(fill_bytes);
        }
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
    /// the rest is the fill value, exactly as [`Container::hash_extent`]
    /// sees it: a direct read's destination is already zeroed by the
    /// caller, a span's is zero-filled here. `sieve` is recycled memory:
    /// on return every byte of it comes from the device or the zero fill.
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
            let buf = std::mem::take(&mut seg.buf);
            seg.buf = &mut buf[..readable as usize];
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
    /// [`Container::write_selection`], but the caller keeps the segments.
    /// The ring path plans here, then submits the plan expanded piece by
    /// piece plus the caller's snapshot as one ring entry — the reaper
    /// issues the vectored batches (DESIGN.md §14), segment by segment:
    /// the ring path does not sieve, and it does not take the write
    /// gate. A one-run plan (every VPIC call) expands to its one
    /// segment; a strided one costs its element count here, as it will
    /// on the device. What orders it
    /// against a sieved [`Container::write_selection`] on the same
    /// dataset is the connector's per-dataset chaining: `AsyncVol`
    /// settles the dataset's ring entries (`settle_ring_ds`) before any
    /// degraded or synchronous write to it.
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
    /// Extents that carry a checksum and are clean (unwritten since the
    /// last flush) are read whole and verified; the selection's segments
    /// are then served from the verified bytes, so a bit-flip anywhere
    /// on the returned path surfaces as [`H5Error::Corrupt`] instead of
    /// silently reaching the caller.
    pub fn read_selection(&self, id: ObjectId, sel: &Selection) -> Result<Vec<u8>> {
        let planned = self.plan_io(id, sel, None, false)?;
        self.read_planned(&planned.plan, &planned.touched, &planned.verify)
    }

    /// Issue a built read plan: verify the clean checksummed extents and
    /// serve their records from the whole-extent reads; group the rest
    /// into spans like a write does, read each window in one vectored
    /// batch — one-piece spans straight into the output, sieved spans
    /// whole into a recycled buffer — and gather. Bytes past the
    /// watermark read as the fill value in both shapes.
    fn read_planned(
        &self,
        plan: &IoPlan,
        touched: &[Touched],
        verify: &[VerifyExtent],
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; plan.total_bytes() as usize];
        let tracer = self.tracer();
        // Whole-extent verified reads, ascending by extent address.
        let mut verified: Vec<(u64, recycle::Lease)> = Vec::with_capacity(verify.len());
        for v in verify {
            let mut buf = recycle::lease(v.len as usize);
            self.backend
                .read_at(v.addr, &mut buf)?; // xtask: allow(planned-io) integrity verification read
            if !v.sum.matches(&buf) {
                self.integrity
                    .checksum_failures
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(m) = tracer.metrics() {
                    m.counter("container.checksum_failures").inc();
                }
                return Err(H5Error::Corrupt(format!(
                    "extent at {} ({} bytes) fails its checksum",
                    v.addr, v.len
                )));
            }
            self.integrity
                .verified_extents
                .fetch_add(1, Ordering::Relaxed);
            verified.push((v.addr, buf));
        }
        verified.sort_unstable_by_key(|&(addr, _)| addr);
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
                    gather(&buf[(part.addr - span.addr) as usize..], dst, &part);
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
        let chunk_bytes = chunk_elems
            .checked_mul(state.dtype.size() as u64)
            .ok_or_else(|| {
                H5Error::Storage("chunk byte size overflows the device address space".into())
            })?;
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
            .filter_map(|&(_, addr, len, sum)| Some(VerifyExtent { addr, len, sum: sum? }))
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
        let want = sel.npoints(&state.space).checked_mul(elem).ok_or_else(|| {
            H5Error::Storage("selection byte size overflows the address space".into())
        })?;
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
            let nbytes = state.space.npoints().checked_mul(elem).ok_or_else(|| {
                H5Error::Storage("dataset byte size overflows the address space".into())
            })?;
            if nbytes > 0 {
                touched.push((CONTIG_EXTENT, state.data_addr, nbytes, state.data_sum));
            }
            Ok(PlanParts {
                plan: IoPlan::contiguous(state.data_addr, elem, rows)?,
                touched,
                missing,
            })
        }
        Layout::Chunked1D { chunk_elems } => {
            let ce = *chunk_elems;
            let chunk_bytes = ce.checked_mul(elem).ok_or_else(|| {
                H5Error::Storage("chunk byte size overflows the device address space".into())
            })?;
            let mut seen = BTreeSet::new();
            let plan = IoPlan::chunked(ce, elem, rows, |idx| {
                let entry = state.chunks.get(&idx).copied();
                if seen.insert(idx) {
                    match entry {
                        Some(e) => touched.push((idx, e.addr, chunk_bytes, e.sum)),
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

/// Gather every record that lies inside a verified extent (`verified`
/// ascends by address) out of its bytes into `out`; return the records
/// no verified extent holds. A record never crosses an extent boundary
/// (planner invariant 2), so it is served whole or not at all.
fn serve_verified(
    records: &[IoRecord],
    verified: &[(u64, recycle::Lease)],
    out: &mut [u8],
) -> Vec<IoRecord> {
    let mut unserved = Vec::new();
    // The extent that served the previous record serves the next one
    // too, until the plan moves on to another chunk.
    let mut held = 0usize;
    for r in records {
        let within = |&(base, ref buf): &(u64, recycle::Lease)| {
            r.addr >= base && r.end() - base <= buf.len() as u64
        };
        if !verified.get(held).is_some_and(within) {
            held = verified
                .partition_point(|&(base, _)| base <= r.addr)
                .saturating_sub(1);
        }
        match verified.get(held).filter(|v| within(v)) {
            Some((base, buf)) => gather(
                &buf[(r.addr - base) as usize..],
                &mut out[r.cursor as usize..][..(r.len * r.count) as usize],
                r,
            ),
            None => unserved.push(*r),
        }
    }
    unserved
}

/// Copy a record's pieces from `packed`, where they lie back to back (the
/// caller's buffer from the record's cursor on), to `strided`, where they
/// lie as in the file (`strided[0]` is the first piece's first byte).
fn scatter(packed: &[u8], strided: &mut [u8], record: &IoRecord) {
    let (len, stride) = (record.len as usize, record.stride as usize);
    for (i, piece) in packed.chunks_exact(len).enumerate() {
        strided[i * stride..][..len].copy_from_slice(piece);
    }
}

/// The inverse of [`scatter`]: file layout to buffer layout.
fn gather(strided: &[u8], packed: &mut [u8], record: &IoRecord) {
    let (len, stride) = (record.len as usize, record.stride as usize);
    for (i, piece) in packed.chunks_exact_mut(len).enumerate() {
        piece.copy_from_slice(&strided[i * stride..][..len]);
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
        let _ = self.flush(); // xtask: allow(swallowed-result) Drop cannot propagate the error
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
// meant — 2 XXH64): old files decode unchanged, and a reader from before
// the tag rejects a file carrying a 2 as an invalid bool rather than
// verifying it with the wrong function.

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
                let (tag, sum) = Checksum::encode(state.data_sum);
                w.u8(tag);
                w.u64(sum);
                let chunks: Vec<(&u64, &ChunkEntry)> = state.chunks.iter().collect();
                w.list(&chunks, |w, (idx, entry)| {
                    w.u64(**idx);
                    w.u64(entry.addr);
                    let (tag, sum) = Checksum::encode(entry.sum);
                    w.u8(tag);
                    w.u64(sum);
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
                let data_addr = r.u64()?;
                let data_sum = Checksum::decode(r.u8()?, r.u64()?)?;
                let chunks_list = r.list(|r| {
                    let idx = r.u64()?;
                    let addr = r.u64()?;
                    let sum = Checksum::decode(r.u8()?, r.u64()?)?;
                    Ok((idx, ChunkEntry { addr, sum }))
                })?;
                states.push((
                    id,
                    DatasetState {
                        dtype,
                        space: Dataspace::new(&dims),
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
    fn stored_sums(c: &Container, id: ObjectId) -> (Option<Checksum>, Vec<(u64, Option<Checksum>)>) {
        let state = c.plane.working(id).unwrap();
        let chunks = state.chunks.iter().map(|(&idx, e)| (idx, e.sum)).collect();
        (state.data_sum, chunks)
    }

    #[test]
    fn flush_hashes_a_long_extent_in_windows_and_its_unwritten_tail_as_zeros() {
        // One byte-typed extent a little longer than the read-back
        // window, written short of its end: flush reads it back in two
        // windows and hashes the tail past the watermark by count.
        const WRITTEN: usize = HASH_WINDOW + 5;
        const TAIL: usize = 1000;
        let gauge = ReadGauge::over(Arc::new(MemBackend::new()));
        let c = Container::create(gauge.clone());
        let space = Dataspace::d1((WRITTEN + TAIL) as u64);
        let ds = c
            .create_dataset(ROOT_ID, "long", Datatype::U8, &space, Layout::Contiguous)
            .unwrap();
        let mut data: Vec<u8> = (0..WRITTEN).map(|i| (i ^ (i >> 11)) as u8).collect();
        let head = Selection::Slab(Hyperslab::range1(0, WRITTEN as u64));
        c.write_selection(ds, &head, &data).unwrap();
        assert!(c.backend.len() < c.allocated_bytes(), "the tail is past the watermark");
        c.flush().unwrap();
        assert_eq!(gauge.longest.load(Ordering::SeqCst), HASH_WINDOW, "a full window, then 5 bytes");
        data.resize(WRITTEN + TAIL, 0);
        let want = Checksum {
            algorithm: Algorithm::Xxh64,
            sum: crate::checksum::xxh64(&data),
        };
        assert_eq!(stored_sums(&c, ds), (Some(want), vec![]));
        // The flush's metadata append raised the watermark past the
        // tail: the same sum now comes from bytes actually read.
        assert!(c.scrub().unwrap().clean());
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
        assert_eq!(c.integrity_stats().verified_extents, 1);
    }

    // ----- read-back lanes -------------------------------------------

    const MIB: usize = 1 << 20;

    /// What the read-back asks of the device: the longest scalar read
    /// and the most of them in flight at once. A read at an address in
    /// `bad` fails, naming the address.
    struct ReadGauge {
        inner: Arc<dyn StorageBackend>,
        in_flight: AtomicUsize,
        most_in_flight: AtomicUsize,
        longest: AtomicUsize,
        bad: Mutex<Vec<u64>>,
    }

    impl ReadGauge {
        fn over(inner: Arc<dyn StorageBackend>) -> Arc<Self> {
            Arc::new(ReadGauge {
                inner,
                in_flight: AtomicUsize::new(0),
                most_in_flight: AtomicUsize::new(0),
                longest: AtomicUsize::new(0),
                bad: Mutex::new(Vec::new()),
            })
        }
    }

    impl StorageBackend for ReadGauge {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_in_flight.fetch_max(now, Ordering::SeqCst);
            self.longest.fetch_max(buf.len(), Ordering::SeqCst);
            let out = if self.bad.lock().contains(&offset) {
                Err(H5Error::Storage(format!("bad sector at {offset}")))
            } else {
                self.inner.read_at(offset, buf)
            };
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            out
        }
        fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
            self.inner.write_vectored_at(batch)
        }
        fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
            self.inner.read_vectored_at(batch)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    fn lane_bytes(salt: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i ^ (i >> 11) ^ (salt * 0x9E)) as u8).collect()
    }

    /// Create (first call) and overwrite `n` contiguous byte datasets of
    /// `len` bytes, dataset `i` holding `lane_bytes(salt + i, len)`.
    fn dirty_contiguous(c: &Container, n: usize, len: usize, salt: usize) -> Vec<ObjectId> {
        (0..n)
            .map(|i| {
                let name = format!("d{i}");
                let ds = c.lookup(ROOT_ID, &name).unwrap_or_else(|_| {
                    let space = Dataspace::d1(len as u64);
                    c.create_dataset(ROOT_ID, &name, Datatype::U8, &space, Layout::Contiguous)
                        .unwrap()
                });
                c.write_selection(ds, &Selection::All, &lane_bytes(salt + i, len)).unwrap();
                ds
            })
            .collect()
    }

    fn xxh(bytes: &[u8]) -> Option<Checksum> {
        Some(Checksum {
            algorithm: Algorithm::Xxh64,
            sum: crate::checksum::xxh64(bytes),
        })
    }

    #[test]
    fn lane_stamps_are_the_hash_of_the_bytes_read_back_within_the_bounds() {
        // Sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks on a
        // four-lane device at 400 MB/s and 0.2 ms a call, so the lanes
        // do overlap (`tests/flush_lanes.rs` holds the wall time).
        use crate::storage::ThrottledBackend;
        let device = Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, 4));
        let gauge = ReadGauge::over(device.clone());
        let c = Container::create(gauge.clone());
        let contiguous = dirty_contiguous(&c, 16, 2 * MIB, 0);
        let space = Dataspace::d1(8 * MIB as u64);
        let layout = Layout::Chunked1D { chunk_elems: MIB as u64 };
        let chunked = c.create_dataset(ROOT_ID, "chunked", Datatype::U8, &space, layout).unwrap();
        c.write_selection(chunked, &Selection::All, &lane_bytes(99, 8 * MIB)).unwrap();
        device.set_bandwidth(400e6);
        c.flush().unwrap();
        device.set_bandwidth(1e12);

        // The bounds on read-back memory and on device concurrency, as
        // the device saw them.
        assert!(gauge.longest.load(Ordering::SeqCst) <= HASH_WINDOW);
        assert!(gauge.most_in_flight.load(Ordering::SeqCst) <= HASH_LANES);
        for (i, &ds) in contiguous.iter().enumerate() {
            let bytes = c.read_selection(ds, &Selection::All).unwrap();
            assert_eq!(bytes, lane_bytes(i, 2 * MIB));
            assert_eq!(stored_sums(&c, ds), (xxh(&bytes), vec![]), "dataset {i}");
        }
        let bytes = c.read_selection(chunked, &Selection::All).unwrap();
        assert_eq!(bytes, lane_bytes(99, 8 * MIB));
        let want = bytes.chunks(MIB).enumerate().map(|(i, b)| (i as u64, xxh(b))).collect();
        assert_eq!(stored_sums(&c, chunked), (None, want));
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (24, 0, 0));
    }

    #[test]
    fn a_failed_lane_read_fails_the_flush_and_stamps_nothing_until_a_retry_reads_everything() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let plan = FaultPlan::new(21)
            .fail_after(FaultOp::Read, 5, FaultKind::Persistent)
            .times(1);
        let inj = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
        inj.set_armed(false);
        let c = Container::create(inj.clone());
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        c.flush().unwrap();
        let old: Vec<_> = ids.iter().map(|&ds| stored_sums(&c, ds)).collect();

        // All eight dirty again with new bytes; the sixth read-back any
        // lane issues fails.
        dirty_contiguous(&c, 8, 2 * MIB, 100);
        inj.set_armed(true);
        let err = c.flush().unwrap_err();
        assert!(matches!(err, H5Error::Storage(ref m) if m.contains("injected")), "{err:?}");
        assert_eq!(inj.injected(), 1);
        // Not one sum moved, the five datasets ahead of the failure
        // included, and every mark is back.
        let now: Vec<_> = ids.iter().map(|&ds| stored_sums(&c, ds)).collect();
        assert_eq!(now, old);
        let marks: Vec<_> = ids.iter().map(|&ds| (ds, CONTIG_EXTENT)).collect();
        assert_eq!(c.dirty_extents.lock().iter().copied().collect::<Vec<_>>(), marks);

        // The rule is spent: the retry reads all eight back.
        c.flush().unwrap();
        assert!(c.dirty_extents.lock().is_empty());
        for (i, &ds) in ids.iter().enumerate() {
            let bytes = c.read_selection(ds, &Selection::All).unwrap();
            assert_eq!(bytes, lane_bytes(100 + i, 2 * MIB));
            assert_eq!(stored_sums(&c, ds), (xxh(&bytes), vec![]));
        }
        assert_eq!(c.integrity_stats().checksum_failures, 0);
    }

    #[test]
    fn of_two_failed_lane_reads_the_flush_reports_the_first_in_job_order() {
        let gauge = ReadGauge::over(Arc::new(MemBackend::new()));
        let c = Container::create(gauge.clone());
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        let addr = |i: usize| c.plane.working(ids[i]).unwrap().data_addr;
        *gauge.bad.lock() = vec![addr(6), addr(2)];
        for _ in 0..8 {
            let err = c.flush().unwrap_err();
            let want = format!("bad sector at {}", addr(2));
            assert!(matches!(err, H5Error::Storage(ref m) if *m == want), "{err:?}");
        }
        gauge.bad.lock().clear();
        c.flush().unwrap();
        assert!(c.scrub().unwrap().clean());
    }

    /// Panics on every read from a thread other than the one that built
    /// it, and holds the builder's own first read until one has.
    struct PanicOffThread {
        inner: MemBackend,
        owner: std::thread::ThreadId,
        others: AtomicUsize,
        armed: AtomicBool,
    }

    impl StorageBackend for PanicOffThread {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            if self.armed.load(Ordering::SeqCst) {
                if std::thread::current().id() != self.owner {
                    self.others.fetch_add(1, Ordering::SeqCst);
                    panic!("read-back lane panics (expected by the test)");
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while self.others.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            self.inner.read_at(offset, buf)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_panicking_lane_is_a_storage_error_not_a_panic_or_a_hang() {
        let backend = Arc::new(PanicOffThread {
            inner: MemBackend::new(),
            owner: std::thread::current().id(),
            others: AtomicUsize::new(0),
            armed: AtomicBool::new(false),
        });
        let c = Container::create(backend.clone());
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        backend.armed.store(true, Ordering::SeqCst);
        let err = c.flush().unwrap_err();
        assert!(matches!(err, H5Error::Storage(ref m) if m.contains("lane panicked")), "{err:?}");
        assert!(backend.others.load(Ordering::SeqCst) >= 1);
        assert_eq!(c.dirty_extents.lock().len(), 8);
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds) == (None, vec![])));
        backend.armed.store(false, Ordering::SeqCst);
        c.flush().unwrap();
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds).0.is_some()));
    }

    /// Fails (`TRAP_FAIL`) or panics in (`TRAP_PANIC`) the next `sync`,
    /// once, then behaves.
    struct SyncTrap {
        inner: MemBackend,
        trap: AtomicUsize,
    }

    const TRAP_FAIL: usize = 1;
    const TRAP_PANIC: usize = 2;

    impl SyncTrap {
        fn new() -> Arc<Self> {
            Arc::new(SyncTrap {
                inner: MemBackend::new(),
                trap: AtomicUsize::new(0),
            })
        }
    }

    impl StorageBackend for SyncTrap {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            match self.trap.swap(0, Ordering::SeqCst) {
                TRAP_FAIL => Err(H5Error::Storage("barrier refused".into())),
                TRAP_PANIC => panic!("data barrier panics (expected by the test)"),
                _ => self.inner.sync(),
            }
        }
    }

    #[test]
    fn a_failed_or_panicked_lane_barrier_is_a_clean_failed_flush() {
        for (trap, want) in [(TRAP_FAIL, "barrier refused"), (TRAP_PANIC, "data barrier panicked")] {
            let backend = SyncTrap::new();
            let c = Container::create(backend.clone());
            let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
            c.flush().unwrap();
            let old: Vec<_> = ids.iter().map(|&ds| stored_sums(&c, ds)).collect();
            let generation = c.alloc.lock().generation;
            let eof = c.allocated_bytes();

            // 16 MiB dirty again: the flush's first sync is the data
            // barrier beside the read-back, and it is the one trapped.
            dirty_contiguous(&c, 8, 2 * MIB, 100);
            backend.trap.store(trap, Ordering::SeqCst);
            let err = c.flush().unwrap_err();
            assert!(matches!(err, H5Error::Storage(ref m) if m.contains(want)), "{err:?}");
            assert_eq!(backend.trap.load(Ordering::SeqCst), 0, "the trap was sprung");
            let now: Vec<_> = ids.iter().map(|&ds| stored_sums(&c, ds)).collect();
            assert_eq!(now, old, "no sum is folded behind a failed barrier");
            let marks: Vec<_> = ids.iter().map(|&ds| (ds, CONTIG_EXTENT)).collect();
            assert_eq!(c.dirty_extents.lock().iter().copied().collect::<Vec<_>>(), marks);
            assert_eq!(c.alloc.lock().generation, generation);
            assert_eq!(c.allocated_bytes(), eof, "and no metadata extent is appended");

            // The trap is spent: the next flush stamps and commits.
            c.flush().unwrap();
            assert!(c.dirty_extents.lock().is_empty());
            assert_eq!(c.alloc.lock().generation, generation + 1);
            for (i, &ds) in ids.iter().enumerate() {
                let bytes = c.read_selection(ds, &Selection::All).unwrap();
                assert_eq!(bytes, lane_bytes(100 + i, 2 * MIB));
                assert_eq!(stored_sums(&c, ds), (xxh(&bytes), vec![]));
            }
        }
    }

    #[test]
    fn a_failed_lane_read_is_reported_ahead_of_a_failed_barrier() {
        let trap = SyncTrap::new();
        let gauge = ReadGauge::over(trap.clone());
        let c = Container::create(gauge.clone());
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        let addr = |i: usize| c.plane.working(ids[i]).unwrap().data_addr;
        *gauge.bad.lock() = vec![addr(6), addr(2)];
        for _ in 0..8 {
            trap.trap.store(TRAP_FAIL, Ordering::SeqCst);
            let err = c.flush().unwrap_err();
            let want = format!("bad sector at {}", addr(2));
            assert!(matches!(err, H5Error::Storage(ref m) if *m == want), "{err:?}");
            assert_eq!(trap.trap.load(Ordering::SeqCst), 0, "the barrier failed as well");
        }
        // With the reads good again, the barrier's own error shows.
        gauge.bad.lock().clear();
        trap.trap.store(TRAP_FAIL, Ordering::SeqCst);
        let err = c.flush().unwrap_err();
        assert!(matches!(err, H5Error::Storage(ref m) if m == "barrier refused"), "{err:?}");
        c.flush().unwrap();
        assert!(c.scrub().unwrap().clean());
    }

    #[test]
    fn lane_sums_equal_the_direct_hash_over_seeded_dataset_mixes() {
        use crate::storage::Lcg;
        // Each salt: one to six datasets of 0…6 MiB, contiguous or in
        // chunks of 64 KiB…1 MiB, each written from its start to a
        // seeded point — so the last extent allocated straddles the
        // watermark — then one flush. Some mixes stay under the 4 MiB
        // floor and run inline, the rest fan out.
        for salt in 0..16u64 {
            let mut rng = Lcg::new(0x1A7E5 ^ salt);
            let c = Container::create_mem();
            let mut want = Vec::new();
            for d in 0..1 + rng.below(6) {
                let len = rng.below(6 * MIB as u64 + 1) as usize;
                let written = if len == 0 { 0 } else { 1 + rng.below(len as u64) as usize };
                let chunk = (64 << 10) << rng.below(5);
                let chunked = rng.below(2) == 1;
                let layout = if chunked {
                    Layout::Chunked1D { chunk_elems: chunk as u64 }
                } else {
                    Layout::Contiguous
                };
                let space = Dataspace::d1(len as u64);
                let ds = c.create_dataset(ROOT_ID, &format!("d{d}"), Datatype::U8, &space, layout).unwrap();
                let mut data = lane_bytes(salt as usize + d as usize, written);
                let head = if len == 0 {
                    Selection::All
                } else {
                    Selection::Slab(Hyperslab::range1(0, written as u64))
                };
                c.write_selection(ds, &head, &data).unwrap();
                // What each touched extent holds: the bytes written,
                // then the fill value to its end.
                want.push(if chunked {
                    data.resize(written.div_ceil(chunk) * chunk, 0);
                    let sums = data.chunks(chunk).enumerate().map(|(i, b)| (i as u64, xxh(b)));
                    (ds, (None, sums.collect()))
                } else {
                    data.resize(len, 0);
                    (ds, (if len == 0 { None } else { xxh(&data) }, vec![]))
                });
            }
            c.flush().unwrap();
            for (ds, want) in want {
                assert_eq!(stored_sums(&c, ds), want, "salt {salt} dataset {ds}");
            }
            assert!(c.scrub().unwrap().clean(), "salt {salt}");
        }
    }

    #[test]
    fn scrub_detects_on_the_lanes_and_repairs_one_dataset_once() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let space = Dataspace::d1(8 * MIB as u64);
        let layout = Layout::Chunked1D { chunk_elems: MIB as u64 };
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, layout).unwrap();
        let data = lane_bytes(7, 8 * MIB);
        c.write_selection(ds, &Selection::All, &data).unwrap();
        c.flush().unwrap();

        // Rot in the third and the sixth chunk, behind the container.
        let state = c.plane.working(ds).unwrap();
        for idx in [2, 5] {
            let at = state.chunks[&idx].addr + 4096;
            backend.write_at(at, &[!data[idx as usize * MIB + 4096]]).unwrap();
        }
        let found = c.scrub().unwrap();
        assert_eq!((found.checked, found.corrupt, found.unrepaired), (8, 2, 2));

        let mut replays = 0;
        let fixed = c
            .scrub_with(|id| {
                assert_eq!(id, ds);
                replays += 1;
                c.write_selection(ds, &Selection::All, &data)?;
                Ok(true)
            })
            .unwrap();
        assert_eq!((fixed.checked, fixed.corrupt, fixed.repaired, fixed.unrepaired), (8, 2, 2, 0));
        assert_eq!(replays, 1, "both chunks were found before the one replay ran");
        // The replay dirtied every chunk; the two re-hashed are clean
        // again, the next flush re-stamps the rest.
        assert_eq!(c.scrub().unwrap().skipped_dirty, 6);
        c.flush().unwrap();
        let after = c.scrub().unwrap();
        assert_eq!((after.checked, after.corrupt, after.skipped_dirty), (8, 0, 0));
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
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
        let restamped = Checksum {
            algorithm: Algorithm::Xxh64,
            sum: crate::checksum::xxh64(&to_bytes(&fresh)),
        };
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
            [None, Some(Algorithm::Fnv1a), Some(Algorithm::Xxh64)]
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
        let (sb, _) = superblock::read_latest(&backend).unwrap();
        let mut meta = vec![0u8; sb.meta_len as usize];
        backend.read_at(sb.meta_addr, &mut meta).unwrap();
        // The tag is the byte before the sum it describes.
        let (_, states) = decode_meta(&meta).unwrap();
        let sum = states.iter().find_map(|(_, st)| st.data_sum).unwrap();
        let at = meta
            .windows(8)
            .position(|w| w == sum.sum.to_le_bytes())
            .unwrap();
        assert_eq!(meta[at - 1], Algorithm::Fnv1a as u8);
        // What a flush writes from now on is a byte the reader at
        // `f78ece6` — which decoded this position with `Reader::bool` —
        // refuses rather than verifies with the wrong function.
        assert!(Reader::new(&[Algorithm::Xxh64 as u8]).bool().is_err());

        meta[at - 1] = 3;
        assert!(matches!(decode_meta(&meta), Err(H5Error::Corrupt(_))));
        // Committed as the container's next generation, it fails the open.
        backend.write_at(sb.eof, &meta).unwrap();
        superblock::commit(
            &backend,
            &Superblock {
                generation: sb.generation + 1,
                meta_addr: sb.eof,
                meta_fnv: fnv1a64(FNV_BASIS, &meta),
                eof: sb.eof + sb.meta_len,
                ..sb
            },
        )
        .unwrap();
        let err = Container::open(backend).unwrap_err();
        assert!(matches!(err, H5Error::Corrupt(ref m) if m.contains("tag 3")), "{err:?}");
    }
}
