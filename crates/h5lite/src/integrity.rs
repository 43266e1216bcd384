//! Data integrity (DESIGN.md §13): the read-back that stamps each dirty
//! extent's checksum at flush, the verified read, and scrub.
//!
//! Every data extent (a contiguous dataset's extent, or one chunk) can
//! carry a checksum in the metadata ([`crate::checksum`]), refreshed at
//! flush time for extents written since the previous flush: one XXH64
//! per [`SUM_BLOCK`] of the extent, or — in files written before block
//! sums — one sum over the whole extent, which is the same thing with
//! one block. A planned read of clean checksummed extents
//! ([`Container::read_verified`]) fetches, per extent, the block-aligned
//! range its records reach into one buffer, verifies every block of it
//! and serves the records from it, failing with [`H5Error::Corrupt`] on
//! a mismatch: every byte returned is verified, and a block nothing is
//! read from is neither fetched nor checked. [`Container::scrub`] walks
//! every checksummed extent whole, offline, and
//! [`Container::scrub_with`] read-repairs corrupt extents from a
//! durable copy (e.g. the staging WAL).
//!
//! All three read on lanes ([`on_lanes`], up to [`HASH_LANES`] scoped
//! threads taking jobs off one lock-free queue), which also spread the
//! hashing; a read books one device channel, so its lanes are what keep
//! several in flight. A
//! flush's read-back and a scrub's detection pass share one job list of
//! whole extents, hashed in windows whose edges are block edges; the
//! hasher closes a sum at every block boundary. A verified read's jobs
//! are pieces of its covering ranges: each range is cut at block edges
//! into at most [`HASH_LANES`] pieces of at least
//! [`PIECE_BLOCKS`] blocks, each read and checked into its own
//! slice of the range's buffer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use super::{Container, ObjectId, CONTIG_EXTENT};
use crate::checksum::{Algorithm, Checksum, Hasher, SUM_BLOCK};
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::meta::extent_bytes;
use crate::plan::IoRecord;
use crate::recycle;
use crate::storage::{on_lanes, PIECE_BLOCKS};

/// Lanes of every integrity read — a flush's read-back, a scrub's
/// detection pass ([`Container::hash_extents`]) and a verified read
/// ([`Container::read_verified`]): the service lanes one client gets
/// from a PFS or an NVMe namespace
/// ([`ThrottledBackend::DEFAULT_CHANNELS`](crate::storage::ThrottledBackend::DEFAULT_CHANNELS),
/// and the knee of the ring's depth-scaling curve). A constant of the
/// container, not the device's [`lanes`](crate::storage::StorageBackend::lanes):
/// hashing and preads run in parallel from the page cache whatever the
/// device serves, where a write's lanes are the device's own count. A
/// verified read's covering range of fewer than two pieces' worth
/// ([`PIECE_BLOCKS`]: under 256 KiB of block sums, or any whole-extent
/// sum, which is one block) is read as one piece.
pub(super) const HASH_LANES: usize = 4;
/// Dirty bytes a lane must be worth: below two lanes' worth (4 MiB) the
/// read-back runs inline on the caller.
pub(super) const HASH_LANE_MIN_BYTES: u64 = 2 << 20;
/// The longest read a hash issues, and the buffer a lane holds while it
/// does: read-back memory is at most `HASH_LANES × HASH_WINDOW`, 32 MiB.
pub(super) const HASH_WINDOW: usize = 8 << 20;
// Windows end on block boundaries: a read-back's reads and the sums'
// blocks share their edges, whatever the extent.
const _: () = assert!((HASH_WINDOW as u64).is_multiple_of(SUM_BLOCK));

/// One extent for [`Container::hash_extents`] to read back and hash.
pub(super) struct HashJob {
    pub addr: u64,
    pub len: u64,
    pub algorithm: Algorithm,
}

/// Bytes a read-back of `jobs` moves.
pub(super) fn hash_bytes(jobs: &[HashJob]) -> u64 {
    jobs.iter().fold(0u64, |sum, job| sum.saturating_add(job.len))
}

/// Threads [`Container::hash_extents`] shares `jobs` over, the caller
/// included.
pub(super) fn hash_lanes(jobs: &[HashJob]) -> u64 {
    (hash_bytes(jobs) / HASH_LANE_MIN_BYTES).clamp(1, HASH_LANES.min(jobs.len()).max(1) as u64)
}

#[derive(Default)]
pub(super) struct IntegrityCounters {
    verified_extents: AtomicU64,
    checksum_failures: AtomicU64,
    scrub_corrupt: AtomicU64,
    scrub_repaired: AtomicU64,
    pub superblock_fallbacks: AtomicU64,
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
pub(super) struct VerifyExtent {
    pub addr: u64,
    pub len: u64,
    pub sum: Checksum,
}

impl Container {
    /// Hash every job's extent and return the sums in job order, over
    /// `min(HASH_LANES, jobs, bytes / 2 MiB)` lanes ([`on_lanes`]), so a
    /// device with several service lanes serves several read-backs at
    /// once. With one lane or none (under 4 MiB in total, or a single
    /// extent however long) the jobs run on the caller alone, in job
    /// order. One job's `Err` stops no other job; a lane that panicked
    /// leaves its jobs an [`H5Error::Storage`].
    pub(super) fn hash_extents(&self, jobs: &[HashJob]) -> Vec<Result<Checksum>> {
        on_lanes(hash_lanes(jobs) as usize, jobs.iter(), |job| {
            self.hash_extent(job.addr, job.len, job.algorithm)
        })
        .into_iter()
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

    /// Fetch and verify the blocks of each extent of `verify` that
    /// `records` reach: per extent, the block-aligned range from the
    /// block holding the first byte its records reach to the block
    /// holding the last, fetched into one buffer, and every block of it
    /// checked against its stored sum. A whole-extent sum is one block,
    /// so its range is the whole extent. Each range is cut at block
    /// edges into at most [`HASH_LANES`] pieces of at least
    /// [`PIECE_BLOCKS`] blocks, and the pieces of all ranges are
    /// shared out over `min(HASH_LANES, pieces, bytes / 128 KiB)` lanes
    /// ([`on_lanes`]), each piece one read into its own slice of its
    /// range's buffer, then checked there. Returns the ranges as
    /// `(address, bytes)`, ascending by address, for [`serve_verified`];
    /// an extent no record reaches is not read.
    ///
    /// Every piece runs; the read then fails, serving nothing, if any
    /// piece did, with the first failure in address order: the piece's
    /// read error, [`H5Error::Storage`] for a lane that panicked, or
    /// [`H5Error::Corrupt`] naming the mismatching piece's bytes in its
    /// extent, which counts one checksum failure for the read.
    pub(super) fn read_verified(
        &self,
        records: &[IoRecord],
        verify: &[VerifyExtent],
    ) -> Result<Vec<(u64, recycle::Lease)>> {
        // Each extent, ascending by address, with the lowest and highest
        // byte address its records reach.
        let mut reach: Vec<(&VerifyExtent, u64, u64)> =
            verify.iter().map(|v| (v, u64::MAX, 0)).collect();
        reach.sort_unstable_by_key(|&(v, ..)| v.addr);
        let mut held = 0usize;
        for r in records {
            if let Some(i) = holder(&reach, |&(v, ..)| (v.addr, v.len), r, held) {
                held = i;
                let (_, lo, hi) = &mut reach[i];
                (*lo, *hi) = ((*lo).min(r.addr), (*hi).max(r.end()));
            }
        }
        // Each reached extent's covering range, `start` bytes into it,
        // in a buffer of its own.
        let mut ranges: Vec<(&VerifyExtent, u64, recycle::Lease)> = Vec::with_capacity(reach.len());
        for (v, lo, hi) in reach {
            if lo >= hi {
                continue;
            }
            // Inside the extent (lo ≥ addr, hi ≤ addr + len, checked
            // above), so none of this can wrap.
            let block = v.sum.algorithm.block(v.len);
            let start = (lo - v.addr) / block * block;
            let end = ((hi - v.addr).div_ceil(block) * block).min(v.len);
            ranges.push((v, start, recycle::lease((end - start) as usize)));
        }
        // Piece `k` of `n` of a range of `blocks` blocks holds blocks
        // `k·blocks/n .. (k+1)·blocks/n` of it: at least
        // PIECE_BLOCKS each, the range's short last block in the
        // last piece.
        let mut pieces: Vec<Piece<'_>> = Vec::new();
        let mut bytes = 0u64;
        for (v, start, buf) in &mut ranges {
            let block = v.sum.algorithm.block(v.len);
            bytes += buf.len() as u64;
            let blocks = (buf.len() as u64).div_ceil(block);
            let n = (blocks / PIECE_BLOCKS).clamp(1, HASH_LANES as u64);
            let mut rest: &mut [u8] = buf;
            let mut taken = 0u64;
            for k in 1..=n {
                let upto = k * blocks / n;
                let len = ((upto - taken) * block).min(rest.len() as u64) as usize;
                let (buf, tail) = std::mem::take(&mut rest).split_at_mut(len);
                let first = *start / block + taken;
                pieces.push(Piece { extent: v, first, at: first * block, buf });
                rest = tail;
                taken = upto;
            }
        }
        let lanes = (bytes / (PIECE_BLOCKS * SUM_BLOCK))
            .clamp(1, HASH_LANES.min(pieces.len()).max(1) as u64);
        let checked = on_lanes(lanes as usize, pieces.into_iter(), |p| {
            let v = p.extent;
            self.backend
                .read_at(v.addr.saturating_add(p.at), p.buf)?; // xtask: allow(planned-io) integrity verification read
            if v.sum.verify(v.len, p.first as usize, p.buf) {
                return Ok(());
            }
            Err(H5Error::Corrupt(format!(
                "extent at {} ({} bytes) fails its checksum in bytes {}..{}",
                v.addr,
                v.len,
                p.at,
                p.at + p.buf.len() as u64
            )))
        });
        for outcome in checked {
            let err = match outcome {
                Some(Ok(())) => continue,
                Some(Err(e)) => e,
                None => H5Error::Storage("a verified-read lane panicked".into()),
            };
            if matches!(err, H5Error::Corrupt(_)) {
                self.integrity
                    .checksum_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Err(err);
        }
        self.integrity
            .verified_extents
            .fetch_add(ranges.len() as u64, Ordering::Relaxed);
        Ok(ranges
            .into_iter()
            .map(|(v, start, buf)| (v.addr.saturating_add(start), buf))
            .collect())
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
    /// The walk iterates a [`MetaSnapshot`](crate::meta::MetaSnapshot)
    /// of the working state: after one shared acquisition per shard to
    /// capture the `Arc`s, the scrub holds **no metadata lock** — not
    /// while reading extents, not while hashing — so a background scrub
    /// never stalls foreground writers. Extents the snapshot misses
    /// (written after capture) are exactly the dirty extents the scrub
    /// would skip anyway. Repair correctness still requires the scrubbed
    /// datasets to be write-quiesced, like [`Container::flush`].
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
            if let Some(sum) = state.data_sum.clone() {
                let len = extent_bytes(state.space.npoints(), state.dtype)?;
                extents.push((id, CONTIG_EXTENT, state.data_addr, len, sum));
            }
            if let Layout::Chunked1D { chunk_elems } = state.layout {
                let chunk_bytes = extent_bytes(chunk_elems, state.dtype)?;
                for (&idx, entry) in &state.chunks {
                    if let Some(sum) = entry.sum.clone() {
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
            .map(|&(_, _, addr, len, ref sum)| HashJob {
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
        Ok(report)
    }
}

/// One piece of a verified read's covering range: blocks `first…` of
/// `extent`, `at` bytes into it, read into `buf`, which is one slice of
/// the range's buffer.
struct Piece<'a> {
    extent: &'a VerifyExtent,
    first: u64,
    at: u64,
    buf: &'a mut [u8],
}

/// The index of the item of `items` — ascending, disjoint `(address,
/// length)` ranges by `range` — that holds all of `r`: `hint` first,
/// since the item that held the previous record holds the next one too
/// until the plan moves on to another chunk, then a binary search.
fn holder<T>(
    items: &[T],
    range: impl Fn(&T) -> (u64, u64),
    r: &IoRecord,
    hint: usize,
) -> Option<usize> {
    let holds = |i: usize| {
        items
            .get(i)
            .map(&range)
            .is_some_and(|(base, len)| r.addr >= base && r.end() - base <= len)
    };
    if holds(hint) {
        return Some(hint);
    }
    let i = items
        .partition_point(|t| range(t).0 <= r.addr)
        .saturating_sub(1);
    holds(i).then_some(i)
}

/// Gather every record that lies inside a verified range (`verified`
/// ascends by address) out of its bytes into `out`; return the records
/// no verified range holds. A record never crosses an extent boundary
/// (planner invariant 2), and a range covers every record of its extent
/// that was verified, so a record is served whole or not at all.
pub(super) fn serve_verified(
    records: &[IoRecord],
    verified: &[(u64, recycle::Lease)],
    out: &mut [u8],
) -> Vec<IoRecord> {
    let mut unserved = Vec::new();
    let mut held = 0usize;
    for r in records {
        match holder(verified, |(base, buf)| (*base, buf.len() as u64), r, held) {
            Some(i) => {
                held = i;
                let (base, buf) = &verified[i];
                r.gather(
                    &buf[(r.addr - base) as usize..],
                    &mut out[r.cursor as usize..][..(r.len * r.count) as usize],
                );
            }
            None => unserved.push(*r),
        }
    }
    unserved
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    use super::*;
    use crate::container::tests::stored_sums;
    use crate::container::ROOT_ID;
    use crate::dataspace::{Dataspace, Hyperslab, Selection};
    use crate::datatype::Datatype;
    use crate::storage::{Call, CountingBackend, MemBackend, StorageBackend};
    use crate::sync::Mutex;

    #[test]
    fn flush_hashes_a_long_extent_in_windows_and_its_unwritten_tail_as_zeros() {
        // One byte-typed extent a little longer than the read-back
        // window, written short of its end: flush reads it back in two
        // windows and hashes the tail past the watermark by count.
        const WRITTEN: usize = HASH_WINDOW + 5;
        const TAIL: usize = 1000;
        let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
        let c = Container::create(backend);
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
        assert_eq!(stored_sums(&c, ds), (stamp(&data), vec![]));
        // The flush's metadata append raised the watermark past the
        // tail: the same sum now comes from bytes actually read.
        assert!(c.scrub().unwrap().clean());
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
        assert_eq!(c.integrity_stats().verified_extents, 1);
    }

    // ----- read-back lanes -------------------------------------------

    const MIB: usize = 1 << 20;

    /// What the read-back asks of the device beyond the counts: the
    /// longest scalar read. A scalar read at an address in `bad` fails,
    /// naming the address; the next `sync` fails (`TRAP_FAIL`) or panics
    /// (`TRAP_PANIC`) as `trap` says, once, then behaves.
    #[derive(Default)]
    struct Gauge {
        longest: AtomicUsize,
        bad: Mutex<Vec<u64>>,
        trap: AtomicUsize,
    }

    const TRAP_FAIL: usize = 1;
    const TRAP_PANIC: usize = 2;

    fn gauged(inner: Arc<dyn StorageBackend>) -> (Arc<CountingBackend>, Arc<Gauge>) {
        let gauge = Arc::new(Gauge::default());
        let g = gauge.clone();
        let backend = CountingBackend::new(inner).with_hook(move |call| match call {
            Call::Read { segments: [seg], vectored: false } => {
                g.longest.fetch_max(seg.buf.len(), Ordering::SeqCst);
                if g.bad.lock().contains(&seg.offset) {
                    return Err(H5Error::Storage(format!("bad sector at {}", seg.offset)));
                }
                Ok(())
            }
            Call::Sync => match g.trap.swap(0, Ordering::SeqCst) {
                TRAP_FAIL => Err(H5Error::Storage("barrier refused".into())),
                TRAP_PANIC => panic!("data barrier panics (expected by the test)"),
                _ => Ok(()),
            },
            _ => Ok(()),
        });
        (Arc::new(backend), gauge)
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

    /// What a flush stamps over an extent holding `bytes`.
    fn stamp(bytes: &[u8]) -> Option<Checksum> {
        Some(Checksum::blocks_of(bytes))
    }

    #[test]
    fn lane_stamps_are_the_hash_of_the_bytes_read_back_within_the_bounds() {
        // Sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks on a
        // four-lane device at 400 MB/s and 0.2 ms a call, so the lanes
        // do overlap (`tests/flush_lanes.rs` holds the wall time).
        use crate::storage::ThrottledBackend;
        let device = Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, 4));
        let (backend, gauge) = gauged(device.clone());
        let c = Container::create(backend.clone());
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
        assert!(backend.counts().most_reads_in_flight <= HASH_LANES as u64);
        for (i, &ds) in contiguous.iter().enumerate() {
            let bytes = c.read_selection(ds, &Selection::All).unwrap();
            assert_eq!(bytes, lane_bytes(i, 2 * MIB));
            assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]), "dataset {i}");
        }
        let bytes = c.read_selection(chunked, &Selection::All).unwrap();
        assert_eq!(bytes, lane_bytes(99, 8 * MIB));
        let want = bytes.chunks(MIB).enumerate().map(|(i, b)| (i as u64, stamp(b))).collect();
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
            assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]));
        }
        assert_eq!(c.integrity_stats().checksum_failures, 0);
    }

    #[test]
    fn of_two_failed_lane_reads_the_flush_reports_the_first_in_job_order() {
        let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
        let c = Container::create(backend);
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

    #[test]
    fn a_panicking_lane_is_a_storage_error_not_a_panic_or_a_hang() {
        // Armed, every read from a thread other than this one panics, and
        // this thread's own first read waits until one has.
        let owner = std::thread::current().id();
        let others = Arc::new(AtomicUsize::new(0));
        let armed = Arc::new(AtomicBool::new(false));
        let (seen, on) = (others.clone(), armed.clone());
        let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
                if std::thread::current().id() != owner {
                    seen.fetch_add(1, Ordering::SeqCst);
                    panic!("read-back lane panics (expected by the test)");
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while seen.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            Ok(())
        });
        let c = Container::create(Arc::new(backend));
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        armed.store(true, Ordering::SeqCst);
        let err = c.flush().unwrap_err();
        assert!(matches!(err, H5Error::Storage(ref m) if m.contains("lane panicked")), "{err:?}");
        assert!(others.load(Ordering::SeqCst) >= 1);
        assert_eq!(c.dirty_extents.lock().len(), 8);
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds) == (None, vec![])));
        armed.store(false, Ordering::SeqCst);
        c.flush().unwrap();
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds).0.is_some()));
    }

    #[test]
    fn a_failed_or_panicked_lane_barrier_is_a_clean_failed_flush() {
        for (trap, want) in [(TRAP_FAIL, "barrier refused"), (TRAP_PANIC, "data barrier panicked")] {
            let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
            let c = Container::create(backend);
            let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
            c.flush().unwrap();
            let old: Vec<_> = ids.iter().map(|&ds| stored_sums(&c, ds)).collect();
            let generation = c.alloc.lock().generation;
            let eof = c.allocated_bytes();

            // 16 MiB dirty again: the flush's first sync is the data
            // barrier beside the read-back, and it is the one trapped.
            dirty_contiguous(&c, 8, 2 * MIB, 100);
            gauge.trap.store(trap, Ordering::SeqCst);
            let err = c.flush().unwrap_err();
            assert!(matches!(err, H5Error::Storage(ref m) if m.contains(want)), "{err:?}");
            assert_eq!(gauge.trap.load(Ordering::SeqCst), 0, "the trap was sprung");
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
                assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]));
            }
        }
    }

    #[test]
    fn a_failed_lane_read_is_reported_ahead_of_a_failed_barrier() {
        let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
        let c = Container::create(backend);
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        let addr = |i: usize| c.plane.working(ids[i]).unwrap().data_addr;
        *gauge.bad.lock() = vec![addr(6), addr(2)];
        for _ in 0..8 {
            gauge.trap.store(TRAP_FAIL, Ordering::SeqCst);
            let err = c.flush().unwrap_err();
            let want = format!("bad sector at {}", addr(2));
            assert!(matches!(err, H5Error::Storage(ref m) if *m == want), "{err:?}");
            assert_eq!(gauge.trap.load(Ordering::SeqCst), 0, "the barrier failed as well");
        }
        // With the reads good again, the barrier's own error shows.
        gauge.bad.lock().clear();
        gauge.trap.store(TRAP_FAIL, Ordering::SeqCst);
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
                    let sums = data.chunks(chunk).enumerate().map(|(i, b)| (i as u64, stamp(b)));
                    (ds, (None, sums.collect()))
                } else {
                    data.resize(len, 0);
                    (ds, (if len == 0 { None } else { stamp(&data) }, vec![]))
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

    // ----- block sums on the read path ---------------------------------

    const BLOCK: usize = SUM_BLOCK as usize;

    #[test]
    fn a_verified_read_fetches_the_blocks_its_records_reach_on_either_layout() {
        // Contiguous: three blocks and a short fourth of 1000 bytes.
        // Chunked: chunks of two blocks and a short third of 300 bytes.
        let len = 3 * BLOCK + 1000;
        let chunk = 2 * BLOCK + 300;
        let data: Vec<u8> = (0..len).map(|i| (i * 13 + i / 977) as u8).collect();
        let range = |start: usize, n: usize| Selection::Slab(Hyperslab::range1(start as u64, n as u64));
        let cases = [
            // (layout, selection start, length, bytes the device moves)
            (Layout::Contiguous, 0, len, len),
            (Layout::Contiguous, 10, 20, BLOCK),
            (Layout::Contiguous, BLOCK - 10, 20, 2 * BLOCK),
            (Layout::Contiguous, 2 * BLOCK, BLOCK, BLOCK),
            (Layout::Contiguous, 3 * BLOCK + 5, 20, 1000),
            (Layout::Contiguous, 3 * BLOCK - 1, 2, BLOCK + 1000),
            // The short last block of chunk 0, then block 0 of chunk 1.
            (Layout::Chunked1D { chunk_elems: chunk as u64 }, 2 * BLOCK + 250, 100, 300 + BLOCK),
            // Blocks 1 and 2 of chunk 0, blocks 0 and 1 of chunk 1.
            (Layout::Chunked1D { chunk_elems: chunk as u64 }, BLOCK + 1, chunk, 3 * BLOCK + 300),
            // The dataspace ends in block 1 of chunk 1: the chunk's fill
            // past it is not fetched.
            (Layout::Chunked1D { chunk_elems: chunk as u64 }, chunk, len - chunk, 2 * BLOCK),
        ];
        for (layout, start, n, want) in cases {
            let gauge = Arc::new(CountingBackend::new(Arc::new(MemBackend::new())));
            let c = Container::create(gauge.clone());
            let space = Dataspace::d1(len as u64);
            let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, layout.clone()).unwrap();
            c.write_selection(ds, &Selection::All, &data).unwrap();
            c.flush().unwrap();
            let before = gauge.counts().bytes_read;
            let got = c.read_selection(ds, &range(start, n)).unwrap();
            let moved = (gauge.counts().bytes_read - before) as usize;
            assert_eq!(got, data[start..start + n], "{layout:?} {start}+{n}");
            assert_eq!(moved, want, "{layout:?} {start}+{n}");
            assert_eq!(c.integrity_stats().checksum_failures, 0);
        }
    }

    #[test]
    fn every_corrupt_flip_on_a_half_extent_block_read_is_detected() {
        // Seeded one-bit flips on half the device reads; each read of
        // half the extent is one device read of its two blocks.
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let plan = FaultPlan::new(0xB10C).random(FaultOp::Read, 0.5, FaultKind::Corrupt);
        let inj = Arc::new(FaultInjector::new(Arc::new(MemBackend::new()), plan));
        inj.set_armed(false);
        let c = Container::create(inj.clone());
        let space = Dataspace::d1(4 * BLOCK as u64);
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous).unwrap();
        let data = lane_bytes(3, 4 * BLOCK);
        c.write_selection(ds, &Selection::All, &data).unwrap();
        c.flush().unwrap();

        inj.set_armed(true);
        let halves = [(0, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK)];
        let mut detected = 0;
        for i in 0..64 {
            let (start, n) = halves[i % 2];
            let sel = Selection::Slab(Hyperslab::range1(start as u64, n as u64));
            match c.read_selection(ds, &sel) {
                Ok(got) => assert_eq!(got, data[start..start + n]),
                Err(H5Error::Corrupt(_)) => detected += 1,
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
        inj.set_armed(false);
        assert!(inj.injected() > 0, "the plan must fire");
        assert_eq!(detected, inj.injected());
        assert_eq!(c.integrity_stats().checksum_failures, detected);
    }

    #[test]
    fn rot_in_an_unread_block_is_left_to_scrub_which_finds_and_repairs_it() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let space = Dataspace::d1(4 * BLOCK as u64);
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, Layout::Contiguous).unwrap();
        let data = lane_bytes(5, 4 * BLOCK);
        c.write_selection(ds, &Selection::All, &data).unwrap();
        c.flush().unwrap();
        let at = c.plane.working(ds).unwrap().data_addr + 3 * BLOCK as u64 + 17;
        backend.write_at(at, &[!data[3 * BLOCK + 17]]).unwrap();

        // The first half never touches the rotten block.
        let head = Selection::Slab(Hyperslab::range1(0, 2 * BLOCK as u64));
        assert_eq!(c.read_selection(ds, &head).unwrap(), data[..2 * BLOCK]);
        assert_eq!(c.integrity_stats().checksum_failures, 0);
        // The second half does.
        let tail = Selection::Slab(Hyperslab::range1(2 * BLOCK as u64, 2 * BLOCK as u64));
        assert!(matches!(c.read_selection(ds, &tail), Err(H5Error::Corrupt(_))));
        let found = c.scrub().unwrap();
        assert_eq!((found.checked, found.corrupt, found.unrepaired), (1, 1, 1));
        let fixed = c
            .scrub_with(|id| {
                c.write_selection(id, &Selection::All, &data)?;
                Ok(true)
            })
            .unwrap();
        assert_eq!((fixed.corrupt, fixed.repaired, fixed.unrepaired), (1, 1, 0));
        assert_eq!(c.read_selection(ds, &tail).unwrap(), data[2 * BLOCK..]);
    }

    // ----- verified-read lanes -------------------------------------------

    /// A byte-typed contiguous dataset of `len` bytes holding
    /// `lane_bytes(salt, len)`, flushed so its block sums are stamped,
    /// and its extent's address.
    fn stamped(c: &Container, len: usize, salt: usize) -> (ObjectId, u64) {
        let ds = dirty_contiguous(c, 1, len, salt)[0];
        c.flush().unwrap();
        (ds, c.plane.working(ds).unwrap().data_addr)
    }

    #[test]
    fn verified_read_lanes_put_four_pieces_in_flight_and_fetch_what_one_read_did() {
        // The counted device sits over one whose every read, once armed,
        // waits for HASH_LANES reads to have arrived: the four pieces of
        // a 512 KiB read are inside the counted device together, or the
        // test fails at the deadline instead of hanging.
        let armed = Arc::new(AtomicBool::new(false));
        let (on, arrived) = (armed.clone(), AtomicUsize::new(0));
        let gate = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < HASH_LANES
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
            Ok(())
        });
        let device = Arc::new(CountingBackend::new(Arc::new(gate)));
        let c = Container::create(device.clone());
        let (ds, _) = stamped(&c, 8 * BLOCK, 11);
        armed.store(true, Ordering::SeqCst);
        let before = device.counts();
        let got = c.read_selection(ds, &Selection::All).unwrap();
        let moved = device.counts() - before;
        assert_eq!(got, lane_bytes(11, 8 * BLOCK));
        assert_eq!(moved.most_reads_in_flight, HASH_LANES as u64);
        assert_eq!((moved.reads, moved.read_batches), (HASH_LANES as u64, 0));
        // Exactly the covering range's bytes: the pieces add none.
        assert_eq!(moved.bytes_read, 8 * SUM_BLOCK);
        let verified_one = IntegrityStats { verified_extents: 1, ..Default::default() };
        assert_eq!(c.integrity_stats(), verified_one);
    }

    #[test]
    fn verified_read_lane_pieces_tile_the_covering_range_at_block_edges() {
        // An extent of nine blocks and a short tenth of 1000 bytes. Each
        // case: a selection, then the pieces the device must see, as
        // (offset, length) in the extent — together exactly the one
        // covering read a single lane would issue.
        let len = 9 * BLOCK + 1000;
        let b = |n: usize| (n * BLOCK) as u64;
        type Pieces = Vec<(u64, usize)>;
        let cases: [(usize, usize, Pieces); 6] = [
            // Two blocks and under stay one read: strided_rw's shape.
            (0, 2 * BLOCK, vec![(0, 2 * BLOCK)]),
            (10, 20, vec![(0, BLOCK)]),
            (BLOCK - 10, 20, vec![(0, 2 * BLOCK)]),
            (2 * BLOCK + 5, 2 * BLOCK, vec![(b(2), 3 * BLOCK)]),
            // Six blocks: three pieces of two.
            (BLOCK + 1, 5 * BLOCK, vec![(b(1), 2 * BLOCK), (b(3), 2 * BLOCK), (b(5), 2 * BLOCK)]),
            // Ten blocks: four pieces, the short block in the last.
            (
                0,
                len,
                vec![(0, 2 * BLOCK), (b(2), 3 * BLOCK), (b(5), 2 * BLOCK), (b(7), 2 * BLOCK + 1000)],
            ),
        ];
        for (start, n, want) in cases {
            let log: Arc<Mutex<Pieces>> = Arc::default();
            let seen = log.clone();
            let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
                if let Call::Read { segments: [seg], vectored: false } = call {
                    seen.lock().push((seg.offset, seg.buf.len()));
                }
                Ok(())
            });
            let device = Arc::new(device);
            let c = Container::create(device.clone());
            let (ds, addr) = stamped(&c, len, 4);
            log.lock().clear();
            let before = device.counts();
            let sel = Selection::Slab(Hyperslab::range1(start as u64, n as u64));
            let got = c.read_selection(ds, &sel).unwrap();
            let moved = device.counts() - before;
            assert_eq!(got, lane_bytes(4, len)[start..start + n], "{start}+{n}");
            let mut pieces: Vec<(u64, usize)> =
                log.lock().iter().map(|&(offset, len)| (offset - addr, len)).collect();
            pieces.sort_unstable();
            assert_eq!(pieces, want, "{start}+{n}");
            assert_eq!(moved.reads, want.len() as u64, "{start}+{n}");
            let covering: u64 = want.iter().map(|p| p.1 as u64).sum();
            assert_eq!(moved.bytes_read, covering, "{start}+{n}");
            assert_eq!(c.integrity_stats().checksum_failures, 0);
        }
    }

    #[test]
    fn a_flip_in_the_third_lane_piece_fails_the_read_naming_its_bytes() {
        // Eight blocks read whole are four pieces of two; the third is
        // bytes 4·BLOCK..6·BLOCK of the extent. A second flip in the
        // fourth changes neither the error nor the count.
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let data = lane_bytes(8, 8 * BLOCK);
        let (ds, addr) = stamped(&c, 8 * BLOCK, 8);
        for flips in [vec![4 * BLOCK + 100], vec![4 * BLOCK + 100, 7 * BLOCK]] {
            for &at in &flips {
                backend.write_at(addr + at as u64, &[!data[at]]).unwrap();
            }
            let failures = c.integrity_stats().checksum_failures;
            let err = c.read_selection(ds, &Selection::All).unwrap_err();
            let want = format!("fails its checksum in bytes {}..{}", 4 * BLOCK, 6 * BLOCK);
            assert!(matches!(err, H5Error::Corrupt(ref m) if m.ends_with(&want)), "{err:?}");
            assert_eq!(c.integrity_stats().checksum_failures, failures + 1);
            assert_eq!(c.integrity_stats().verified_extents, 0, "nothing was served");
            for &at in &flips {
                backend.write_at(addr + at as u64, &data[at..at + 1]).unwrap();
            }
        }
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
    }

    #[test]
    fn a_failed_or_panicking_verified_read_lane_fails_the_whole_read() {
        // The second piece's read fails: the whole read does, with that
        // error, and no checksum failure is counted.
        let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
        let c = Container::create(backend);
        let (ds, addr) = stamped(&c, 8 * BLOCK, 2);
        gauge.bad.lock().push(addr + 2 * SUM_BLOCK);
        let err = c.read_selection(ds, &Selection::All).unwrap_err();
        let want = format!("bad sector at {}", addr + 2 * SUM_BLOCK);
        assert!(matches!(err, H5Error::Storage(ref m) if *m == want), "{err:?}");
        gauge.bad.lock().clear();
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), lane_bytes(2, 8 * BLOCK));

        // Armed, every read off this thread panics, and this thread's own
        // first read waits until one has: a Storage error, not a hang.
        let owner = std::thread::current().id();
        let others = Arc::new(AtomicUsize::new(0));
        let armed = Arc::new(AtomicBool::new(false));
        let (seen, on) = (others.clone(), armed.clone());
        let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
                if std::thread::current().id() != owner {
                    seen.fetch_add(1, Ordering::SeqCst);
                    panic!("verified-read lane panics (expected by the test)");
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while seen.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            Ok(())
        });
        let c = Container::create(Arc::new(backend));
        let (ds, _) = stamped(&c, 8 * BLOCK, 3);
        armed.store(true, Ordering::SeqCst);
        let err = c.read_selection(ds, &Selection::All).unwrap_err();
        assert!(matches!(err, H5Error::Storage(ref m) if m.contains("lane panicked")), "{err:?}");
        assert!(others.load(Ordering::SeqCst) >= 1);
        assert_eq!(c.integrity_stats(), IntegrityStats::default());
        armed.store(false, Ordering::SeqCst);
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), lane_bytes(3, 8 * BLOCK));
    }
}
