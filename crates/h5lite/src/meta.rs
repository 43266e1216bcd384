//! The sharded, versioned metadata plane (DESIGN.md §15).
//!
//! PR 3 gave `Container::plan_io` its one-lock-per-operation discipline,
//! but the lock it took once was still *one* `RwLock` for the whole
//! file: thousands of tenants on disjoint datasets serialized on it, and
//! every reader could stall behind a writer. This module splits that
//! plane three ways:
//!
//! - **The tree** (`objects`, links, attributes, `next_id`): a single
//!   `RwLock<Tree>` — namespace operations are rare and cold.
//! - **Dataset state** (shape, layout, chunk map, checksums): sharded
//!   [`META_SHARDS`] ways by object id, the same 16-way split the PR 3
//!   `MemBackend` uses for pages. `plan_io` for datasets in different
//!   shards never touches the same lock.
//! - **The allocator** (the `eof` bump cursor) lives outside this module
//!   entirely (a `Mutex` in the container); it is an allocator, not
//!   metadata, and is deliberately *not* counted as a metadata-lock
//!   acquisition.
//!
//! ## Copy-on-write generations
//!
//! Each shard slot holds two `Arc<DatasetState>`s: the **working** state
//! (what writers and the planner see) and the **published** state (what
//! model-visible readers see). A mutation clones the working state,
//! applies the change, bumps the state's generation stamp, and swaps the
//! `Arc` — readers holding the old `Arc` keep a fully consistent view at
//! zero cost, which is what makes [`MetaSnapshot`] possible: capture the
//! published `Arc`s once, then resolve chunk addresses forever after
//! without taking any lock a writer could ever contend on.
//!
//! ## Consistency models
//!
//! *When* working state becomes published state is the container's
//! visibility contract, selected at open time as a [`ConsistencyModel`]
//! (vocabulary from Wang/Mohror/Snir, arXiv 2402.14105):
//!
//! | model      | publication point                                    |
//! |------------|------------------------------------------------------|
//! | `Strong`   | every mutation, immediately (POSIX-like)             |
//! | `Session`  | `wait`/`wait_all` settlement and flush (close-to-open) |
//! | `Commit`   | successful flush only (commit-on-flush)              |
//!
//! `tests/consistency.rs` machine-checks these rules against explored
//! concurrent schedules and proves the weaker models really are weaker.
//!
//! ## Lock accounting contract
//!
//! The per-shard acquisition counters use `Ordering::Relaxed`: each is a
//! monotone event counter with no ordering relationship to any other
//! memory. Reading one mid-flight gives a lower bound; reading after the
//! observing thread has joined (or otherwise synchronized with) every
//! worker gives the exact count, because the joins carry the
//! happens-before edge the counter itself does not. That is the same
//! contract PR 3's planner acceptance tests have always relied on —
//! they read the counter from the thread that issued the I/O.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::checksum::Checksum;
use crate::container::{AttrValue, ObjectId};
use crate::dataspace::Dataspace;
use crate::datatype::Datatype;
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of dataset-state shards, matching the PR 3 `MemBackend` page
/// sharding. Must stay a power of two (`shard_of` masks).
pub const META_SHARDS: usize = 16;

/// Lock-class names for the shard locks, registered with the cross-crate
/// order recorder when a bridge is installed (see
/// [`crate::sync::order_hook`]).
const SHARD_CLASSES: [&str; META_SHARDS] = [
    "h5lite.meta.shard00",
    "h5lite.meta.shard01",
    "h5lite.meta.shard02",
    "h5lite.meta.shard03",
    "h5lite.meta.shard04",
    "h5lite.meta.shard05",
    "h5lite.meta.shard06",
    "h5lite.meta.shard07",
    "h5lite.meta.shard08",
    "h5lite.meta.shard09",
    "h5lite.meta.shard10",
    "h5lite.meta.shard11",
    "h5lite.meta.shard12",
    "h5lite.meta.shard13",
    "h5lite.meta.shard14",
    "h5lite.meta.shard15",
];

/// The container's visibility contract: when do another client's
/// metadata mutations (new chunks, extended shapes) become visible to
/// model-governed readers ([`crate::Container::read_published`] and
/// [`crate::Container::snapshot`])?
///
/// The working state — what [`crate::Container::read_selection`] and the
/// planner use — always sees every completed mutation immediately; the
/// model only governs the *published* view. See the module docs for the
/// publication table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConsistencyModel {
    /// POSIX-like strong consistency: every mutation publishes
    /// immediately. Published reads linearize with writes.
    #[default]
    Strong,
    /// Session (close-to-open) consistency: mutations publish when the
    /// writing session settles — at `wait`/`wait_all` on the async
    /// connector — and at flush. Reads between a write's completion and
    /// its settlement may be stale.
    Session,
    /// Commit-on-flush consistency: mutations publish only after a
    /// successful [`crate::Container::flush`]. The published view is
    /// always a crash-durable state.
    Commit,
}

/// One chunk's storage: extent address plus the optional checksum
/// recorded at the last flush (`None` until the chunk has been flushed
/// after a write, or when checksumming is disabled).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkEntry {
    pub addr: u64,
    pub sum: Option<Checksum>,
}

/// The full I/O-relevant state of one dataset, immutable behind an
/// `Arc`: mutations copy, never patch in place.
#[derive(Clone, Debug)]
pub(crate) struct DatasetState {
    pub dtype: Datatype,
    pub space: Dataspace,
    pub layout: Layout,
    /// Extent address for contiguous layout (0 for empty datasets).
    pub data_addr: u64,
    /// Checksum of the contiguous extent, like [`ChunkEntry::sum`].
    pub data_sum: Option<Checksum>,
    /// chunk index → extent entry, for chunked layout.
    pub chunks: BTreeMap<u64, ChunkEntry>,
    /// Mutation stamp: bumped by every copy-on-write mutation. Strictly
    /// monotone per dataset; lets tests and tools tell two states apart
    /// without comparing chunk maps.
    pub generation: u64,
}

/// A shard slot: the writer-visible working state and the
/// model-published state readers resolve against.
struct Slot {
    working: Arc<DatasetState>,
    published: Arc<DatasetState>,
}

struct Shard {
    map: RwLock<BTreeMap<ObjectId, Slot>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Non-dataset object payload in the tree.
#[derive(Clone, Debug)]
pub(crate) enum NodeKind {
    Group { links: BTreeMap<String, ObjectId> },
    /// Marker only — the I/O state lives in the shard slot.
    Dataset,
}

#[derive(Clone, Debug)]
pub(crate) struct TreeObject {
    pub kind: NodeKind,
    pub attrs: BTreeMap<String, AttrValue>,
}

/// The namespace: groups, links, attributes, and the id allocator.
pub(crate) struct Tree {
    pub objects: BTreeMap<ObjectId, TreeObject>,
    pub next_id: ObjectId,
}

/// Per-shard breakdown of metadata-lock acquisitions
/// ([`crate::Container::meta_lock_stats`]). See the module docs for the
/// `Relaxed`-ordering observation contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaLockStats {
    /// Shared (read) acquisitions per dataset-state shard.
    pub shard_reads: [u64; META_SHARDS],
    /// Exclusive (write) acquisitions per dataset-state shard.
    pub shard_writes: [u64; META_SHARDS],
    /// Shared acquisitions of the namespace tree lock.
    pub tree_reads: u64,
    /// Exclusive acquisitions of the namespace tree lock.
    pub tree_writes: u64,
}

impl MetaLockStats {
    /// Every metadata-lock acquisition: shards + tree, reads + writes.
    /// This is what [`crate::Container::meta_lock_acquisitions`] returns.
    pub fn total(&self) -> u64 {
        self.shard_read_total() + self.shard_write_total() + self.tree_reads + self.tree_writes
    }

    /// Shared shard acquisitions across all shards.
    pub fn shard_read_total(&self) -> u64 {
        self.shard_reads.iter().sum()
    }

    /// Exclusive shard acquisitions across all shards — the
    /// "writer-visible" locks a snapshot reader must never take.
    pub fn shard_write_total(&self) -> u64 {
        self.shard_writes.iter().sum()
    }
}

/// An immutable, lock-free view of dataset metadata: the `Arc`'d states
/// captured at one instant. Resolving chunk addresses through a snapshot
/// takes **zero** lock acquisitions, no matter how many writers are
/// mutating the live plane meanwhile.
///
/// A snapshot pins old metadata generations (the `Arc`s keep them
/// alive), but not data extents: the allocator is append-only, so
/// addresses a snapshot resolves are never reused — a long-lived
/// snapshot keeps reading the bytes its generation addressed.
#[derive(Clone)]
pub struct MetaSnapshot {
    datasets: BTreeMap<ObjectId, Arc<DatasetState>>,
}

impl MetaSnapshot {
    /// Number of datasets captured.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when the snapshot captured no datasets.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Whether `id` was captured as a dataset.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.datasets.contains_key(&id)
    }

    /// The captured mutation stamp of dataset `id`.
    pub fn dataset_generation(&self, id: ObjectId) -> Option<u64> {
        self.datasets.get(&id).map(|s| s.generation)
    }

    pub(crate) fn get(&self, id: ObjectId) -> Option<&Arc<DatasetState>> {
        self.datasets.get(&id)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, &Arc<DatasetState>)> {
        self.datasets.iter().map(|(&id, s)| (id, s))
    }
}

impl std::fmt::Debug for MetaSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaSnapshot")
            .field("datasets", &self.datasets.len())
            .finish()
    }
}

/// The sharded metadata plane. **Every** shard/tree lock acquisition in
/// h5lite goes through this type — the xtask `snapshot-discipline` rule
/// rejects direct acquisitions elsewhere in the crate, so the counters
/// below are the whole truth about metadata locking.
pub(crate) struct MetaPlane {
    shards: Vec<Shard>,
    tree: RwLock<Tree>,
    tree_reads: AtomicU64,
    tree_writes: AtomicU64,
    model: ConsistencyModel,
    /// Set when a mutation under a deferred model leaves working ≠
    /// published somewhere; lets settlement-rate publication skip the
    /// shard sweep when there is nothing to publish.
    stale: AtomicBool,
}

impl MetaPlane {
    /// A fresh plane holding only the root group.
    pub fn new(root: ObjectId, model: ConsistencyModel) -> Self {
        let mut objects = BTreeMap::new();
        objects.insert(
            root,
            TreeObject {
                kind: NodeKind::Group {
                    links: BTreeMap::new(),
                },
                attrs: BTreeMap::new(),
            },
        );
        Self::from_parts(
            Tree {
                objects,
                next_id: root + 1,
            },
            Vec::new(),
            model,
        )
    }

    /// Assemble a plane from decoded parts (open path). Every dataset
    /// starts with working == published: a freshly opened container is
    /// fully published under every model.
    pub fn from_parts(
        tree: Tree,
        states: Vec<(ObjectId, DatasetState)>,
        model: ConsistencyModel,
    ) -> Self {
        let shards: Vec<Shard> = SHARD_CLASSES
            .iter()
            .map(|class| Shard {
                map: RwLock::new_named(class, BTreeMap::new()),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            })
            .collect();
        let plane = MetaPlane {
            shards,
            tree: RwLock::new_named("h5lite.meta.tree", tree),
            tree_reads: AtomicU64::new(0),
            tree_writes: AtomicU64::new(0),
            model,
            stale: AtomicBool::new(false),
        };
        for (id, state) in states {
            let arc = Arc::new(state);
            // Direct insert, uncounted: the plane is not shared yet.
            plane.shards[shard_of(id)].map.write().insert(
                id,
                Slot {
                    working: arc.clone(),
                    published: arc,
                },
            );
        }
        plane
    }

    /// The visibility contract this plane enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Per-shard + tree acquisition counters (see module docs for the
    /// `Relaxed` contract).
    pub fn lock_stats(&self) -> MetaLockStats {
        let mut stats = MetaLockStats {
            tree_reads: self.tree_reads.load(Ordering::Relaxed),
            tree_writes: self.tree_writes.load(Ordering::Relaxed),
            ..MetaLockStats::default()
        };
        for (i, shard) in self.shards.iter().enumerate() {
            stats.shard_reads[i] = shard.reads.load(Ordering::Relaxed);
            stats.shard_writes[i] = shard.writes.load(Ordering::Relaxed);
        }
        stats
    }

    // ----- tree ------------------------------------------------------

    /// Acquire the tree shared, counting the acquisition.
    pub fn tree_read(&self) -> RwLockReadGuard<'_, Tree> {
        self.tree_reads.fetch_add(1, Ordering::Relaxed);
        self.tree.read()
    }

    /// Acquire the tree exclusively, counting the acquisition.
    pub fn tree_write(&self) -> RwLockWriteGuard<'_, Tree> {
        self.tree_writes.fetch_add(1, Ordering::Relaxed);
        self.tree.write()
    }

    // ----- dataset state ---------------------------------------------

    fn shard(&self, id: ObjectId) -> &Shard {
        &self.shards[shard_of(id)]
    }

    /// The writer-visible working state of dataset `id` (one shard read
    /// acquisition), or `None` when no such dataset exists.
    pub fn working(&self, id: ObjectId) -> Option<Arc<DatasetState>> {
        let shard = self.shard(id);
        shard.reads.fetch_add(1, Ordering::Relaxed);
        shard.map.read().get(&id).map(|slot| slot.working.clone())
    }

    /// The model-published state of dataset `id` (one shard read
    /// acquisition — shared, never writer-exclusive).
    pub fn published(&self, id: ObjectId) -> Option<Arc<DatasetState>> {
        let shard = self.shard(id);
        shard.reads.fetch_add(1, Ordering::Relaxed);
        shard.map.read().get(&id).map(|slot| slot.published.clone())
    }

    /// Install a brand-new dataset (creation path; one shard write
    /// acquisition). The initial state publishes immediately under every
    /// model: an empty chunk map reads as the fill value either way, and
    /// the dataset's *existence* is governed by the tree, not the model.
    pub fn insert(&self, id: ObjectId, state: DatasetState) {
        let shard = self.shard(id);
        shard.writes.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(state);
        shard.map.write().insert(
            id,
            Slot {
                working: arc.clone(),
                published: arc,
            },
        );
    }

    /// Copy-on-write mutation of dataset `id` under one exclusive shard
    /// acquisition: clone the working state, run `f` on the clone, bump
    /// its generation stamp, swap the `Arc`, and publish it immediately
    /// when the model is [`ConsistencyModel::Strong`]. Returns the new
    /// working `Arc` alongside `f`'s result. Errors from `f` leave the
    /// slot untouched.
    ///
    /// `f` may acquire the container's allocator mutex; the sanctioned
    /// nesting order is shard → allocator (registered with the
    /// lock-order recorder under `debug-invariants`).
    pub fn mutate<R>(
        &self,
        id: ObjectId,
        f: impl FnOnce(&mut DatasetState) -> Result<R>,
    ) -> Result<(Arc<DatasetState>, R)> {
        let shard = self.shard(id);
        shard.writes.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.map.write();
        let slot = map
            .get_mut(&id)
            .ok_or_else(|| H5Error::NotFound(format!("object {id}")))?;
        let mut next = (*slot.working).clone();
        let out = f(&mut next)?;
        next.generation = next.generation.wrapping_add(1);
        let arc = Arc::new(next);
        slot.working = arc.clone();
        if self.model == ConsistencyModel::Strong {
            slot.published = arc.clone();
        } else {
            self.stale.store(true, Ordering::Release);
        }
        Ok((arc, out))
    }

    /// Publish every working state (one exclusive acquisition per shard
    /// that holds anything unpublished). No-op when nothing is stale —
    /// settlement points fire often and must stay cheap.
    fn publish_all(&self) {
        if !self.stale.swap(false, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            shard.writes.fetch_add(1, Ordering::Relaxed);
            let mut map = shard.map.write();
            for slot in map.values_mut() {
                if !Arc::ptr_eq(&slot.published, &slot.working) {
                    slot.published = slot.working.clone();
                }
            }
        }
    }

    /// Settlement-point publication (`wait`/`wait_all`): publishes under
    /// [`ConsistencyModel::Session`] only. Strong is already published;
    /// Commit waits for flush.
    pub fn publish_settled(&self) {
        if self.model == ConsistencyModel::Session {
            self.publish_all();
        }
    }

    /// Flush-point publication: a successful flush publishes under both
    /// deferred models (a flush is durably stronger than a settlement).
    pub fn publish_flushed(&self) {
        if self.model != ConsistencyModel::Strong {
            self.publish_all();
        }
    }

    /// Capture the published view of every dataset: one shared
    /// acquisition per shard, then lock-free reads forever after.
    pub fn snapshot(&self) -> MetaSnapshot {
        self.capture(|slot| slot.published.clone())
    }

    /// Capture the *working* view — the maintenance-path snapshot
    /// ([`crate::Container::scrub`], flush serialization) that must see
    /// unpublished mutations.
    pub fn snapshot_working(&self) -> MetaSnapshot {
        self.capture(|slot| slot.working.clone())
    }

    fn capture(&self, pick: impl Fn(&Slot) -> Arc<DatasetState>) -> MetaSnapshot {
        let mut datasets = BTreeMap::new();
        for shard in &self.shards {
            shard.reads.fetch_add(1, Ordering::Relaxed);
            let map = shard.map.read();
            for (&id, slot) in map.iter() {
                datasets.insert(id, pick(slot));
            }
        }
        MetaSnapshot { datasets }
    }
}

/// Shard index of an object id. Ids are assigned sequentially, so the
/// mask spreads consecutive datasets across consecutive shards — 16
/// tenants on 16 fresh datasets land on 16 different locks.
///
/// Public so tests and benchmarks can assert *which* entry of
/// [`MetaLockStats::shard_reads`]/[`MetaLockStats::shard_writes`] an
/// operation on a given dataset is allowed to move.
pub fn shard_of(id: ObjectId) -> usize {
    (id as usize) & (META_SHARDS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> DatasetState {
        DatasetState {
            dtype: Datatype::U8,
            space: Dataspace::d1(16),
            layout: Layout::Chunked1D { chunk_elems: 4 },
            data_addr: 0,
            data_sum: None,
            chunks: BTreeMap::new(),
            generation: 0,
        }
    }

    #[test]
    fn strong_publishes_at_mutation() {
        let plane = MetaPlane::new(1, ConsistencyModel::Strong);
        plane.insert(2, state());
        plane
            .mutate(2, |st| {
                st.chunks.insert(0, ChunkEntry { addr: 128, sum: None });
                Ok(())
            })
            .unwrap();
        let pub_state = plane.published(2).unwrap();
        assert_eq!(pub_state.chunks.get(&0).map(|e| e.addr), Some(128));
        assert_eq!(pub_state.generation, 1);
    }

    #[test]
    fn session_publishes_at_settlement_not_before() {
        let plane = MetaPlane::new(1, ConsistencyModel::Session);
        plane.insert(2, state());
        plane
            .mutate(2, |st| {
                st.chunks.insert(0, ChunkEntry { addr: 128, sum: None });
                Ok(())
            })
            .unwrap();
        assert!(plane.published(2).unwrap().chunks.is_empty());
        assert_eq!(plane.working(2).unwrap().chunks.len(), 1);
        plane.publish_settled();
        assert_eq!(plane.published(2).unwrap().chunks.len(), 1);
    }

    #[test]
    fn commit_publishes_only_at_flush() {
        let plane = MetaPlane::new(1, ConsistencyModel::Commit);
        plane.insert(2, state());
        plane
            .mutate(2, |st| {
                st.chunks.insert(0, ChunkEntry { addr: 128, sum: None });
                Ok(())
            })
            .unwrap();
        plane.publish_settled(); // settlement must NOT publish under Commit
        assert!(plane.published(2).unwrap().chunks.is_empty());
        plane.publish_flushed();
        assert_eq!(plane.published(2).unwrap().chunks.len(), 1);
    }

    #[test]
    fn snapshot_is_immutable_under_later_mutations() {
        let plane = MetaPlane::new(1, ConsistencyModel::Strong);
        plane.insert(2, state());
        plane
            .mutate(2, |st| {
                st.chunks.insert(0, ChunkEntry { addr: 128, sum: None });
                Ok(())
            })
            .unwrap();
        let snap = plane.snapshot();
        plane
            .mutate(2, |st| {
                st.chunks.insert(1, ChunkEntry { addr: 256, sum: None });
                Ok(())
            })
            .unwrap();
        assert_eq!(snap.get(2).unwrap().chunks.len(), 1);
        assert_eq!(plane.snapshot().get(2).unwrap().chunks.len(), 2);
    }

    #[test]
    fn failed_mutation_leaves_slot_untouched() {
        let plane = MetaPlane::new(1, ConsistencyModel::Strong);
        plane.insert(2, state());
        let err = plane.mutate(2, |st| {
            st.chunks.insert(0, ChunkEntry { addr: 1, sum: None });
            Err::<(), _>(H5Error::Storage("boom".into()))
        });
        assert!(err.is_err());
        assert!(plane.working(2).unwrap().chunks.is_empty());
        assert_eq!(plane.working(2).unwrap().generation, 0);
    }

    #[test]
    fn per_shard_counters_attribute_to_the_right_shard() {
        let plane = MetaPlane::new(1, ConsistencyModel::Strong);
        plane.insert(18, state()); // shard 2
        let before = plane.lock_stats();
        let _ = plane.working(18);
        let _ = plane.working(18);
        plane.mutate(18, |_| Ok(())).unwrap();
        let after = plane.lock_stats();
        assert_eq!(after.shard_reads[2] - before.shard_reads[2], 2);
        assert_eq!(after.shard_writes[2] - before.shard_writes[2], 1);
        for s in 0..META_SHARDS {
            if s == 2 {
                continue;
            }
            assert_eq!(after.shard_reads[s], before.shard_reads[s]);
            assert_eq!(after.shard_writes[s], before.shard_writes[s]);
        }
        assert_eq!(after.total() - before.total(), 3);
    }
}
