//! Data integrity (DESIGN.md §13): the read-back that stamps each dirty
//! extent's checksum at flush, the verified read, and scrub.
//!
//! Every data extent (a contiguous dataset's extent, or one chunk) can
//! carry a checksum in the metadata ([`crate::checksum`]), refreshed at
//! flush time for extents written since the previous flush: one XXH64
//! per [`SUM_BLOCK`](crate::checksum::SUM_BLOCK) of the extent, or — in
//! files written before block sums — one sum over the whole extent,
//! which is the same thing with one block. A planned read of clean checksummed extents
//! ([`Container::read_verified`]) fetches, per extent, the block-aligned
//! range its records reach into one buffer, verifies every block of it
//! and serves the records from it, failing with [`H5Error::Corrupt`] on
//! a mismatch: every byte returned is verified, and a block nothing is
//! read from is neither fetched nor checked. [`Container::scrub`] walks
//! every checksummed extent whole, offline, and
//! [`Container::scrub_with`] read-repairs corrupt extents from a
//! durable copy (e.g. the staging WAL).
//!
//! All three read on the calling thread, one vectored call at a time:
//! a device of several channels stripes a call over them itself
//! ([`ThrottledBackend`](crate::storage::ThrottledBackend)), so no read
//! is fanned out to reach its aggregate rate. A flush's read-back and a
//! scrub's detection pass share one job list of whole extents, read in
//! address order in windows of at most [`HASH_WINDOW`] bytes and
//! [`COALESCE_WINDOW`] extents, one call per window, each window hashed
//! on a scoped thread while the caller reads the next; the hasher
//! closes a sum at every block boundary, wherever a window ends. A
//! verified read fetches the covering ranges of all its extents in one
//! call (one per [`COALESCE_WINDOW`] ranges, as a write is cut) and
//! checks them block by block.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use super::{Container, ObjectId, CONTIG_EXTENT};
use crate::checksum::{Algorithm, Checksum, Hasher};
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::meta::extent_bytes;
use crate::plan::{IoRecord, COALESCE_WINDOW};
use crate::recycle;
use crate::storage::{read_windowed, IoVecMut};

/// The most bytes one read-back call moves: a read-back holds two such
/// buffers, the one being read and the one being hashed.
pub(super) const HASH_WINDOW: usize = 8 << 20;

/// One extent for [`Container::hash_extents`] to read back and hash.
pub(super) struct HashJob {
    pub addr: u64,
    pub len: u64,
    pub algorithm: Algorithm,
}

/// Bytes a read-back of `jobs` hashes.
pub(super) fn hash_bytes(jobs: &[HashJob]) -> u64 {
    jobs.iter().fold(0u64, |sum, job| sum.saturating_add(job.len))
}

/// One piece of a read-back window: a job's index, the device address
/// of its next bytes, and how many of them the window holds.
type Piece = (usize, u64, usize);

/// The read-back of `jobs` on a device whose high-water mark is
/// `watermark`: each job's bytes below it, which are read (the rest
/// hashes as zeros), and the windows they are read in — in address
/// order, each at most [`HASH_WINDOW`] bytes of pieces end to end and
/// at most [`COALESCE_WINDOW`] pieces, so that a window is one call.
fn read_back_windows(jobs: &[HashJob], watermark: u64) -> (Vec<u64>, Vec<Vec<Piece>>) {
    let readable: Vec<u64> = jobs
        .iter()
        .map(|job| job.addr.saturating_add(job.len).min(watermark).saturating_sub(job.addr))
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_unstable_by_key(|&i| jobs[i].addr);
    let (mut windows, mut window) = (Vec::new(), Vec::new());
    let mut held = 0usize;
    for i in order {
        let mut done = 0u64;
        while done < readable[i] {
            let take = (readable[i] - done).min((HASH_WINDOW - held) as u64) as usize;
            window.push((i, jobs[i].addr.saturating_add(done), take));
            held += take;
            done += take as u64;
            if held == HASH_WINDOW || window.len() == COALESCE_WINDOW {
                windows.push(std::mem::take(&mut window));
                held = 0;
            }
        }
    }
    if !window.is_empty() {
        windows.push(window);
    }
    (readable, windows)
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
    /// Hash every job's extent and return the sums in job order, with
    /// the number of read calls made. The extents are read on the caller
    /// in address order, in windows of at most [`HASH_WINDOW`] bytes and
    /// [`COALESCE_WINDOW`] extent pieces, one vectored call per window: a
    /// window holds the next bytes of as many extents as fit, so one
    /// extent longer than a window spans several and sixteen of 2 MiB
    /// take four. While the caller reads a window, the one before it is
    /// hashed on a scoped thread beside it, so the hashing hides under
    /// the device's time; the two alternate between two pooled buffers.
    /// Bytes past the backend's high-water mark hash as zeros without
    /// being read or held: an allocated-but-unwritten tail reads back as
    /// zeros once later appends raise the watermark, so the checksum
    /// stays stable either way. The first window whose read fails fails
    /// the whole read-back.
    pub(super) fn hash_extents(&self, jobs: &[HashJob]) -> Result<(Vec<Checksum>, u64)> {
        if jobs.iter().any(|job| job.addr.checked_add(job.len).is_none()) {
            return Err(H5Error::Storage("extent end overflows the device address space".into()));
        }
        let (readable, windows) = read_back_windows(jobs, self.backend.len());
        let size = windows
            .iter()
            .map(|w| w.iter().map(|&(.., len)| len).sum())
            .max()
            .unwrap_or(0);
        let second = if windows.len() > 1 { size } else { 0 };
        let mut bufs = [recycle::lease(size), recycle::lease(second)];
        let mut hashers: Vec<Hasher> = jobs.iter().map(|job| Hasher::new(job.algorithm)).collect();
        for (k, window) in windows.iter().enumerate() {
            let [even, odd] = &mut bufs;
            let (fill, full) = if k % 2 == 0 { (even, odd) } else { (odd, even) };
            let hashers = &mut hashers;
            std::thread::scope(|scope| {
                if let Some(before) = k.checked_sub(1).map(|k| &windows[k]) {
                    scope.spawn(move || hash_window(full, before, hashers));
                }
                self.read_back_window(fill, window)
            })?;
        }
        if let Some(last) = windows.last() {
            hash_window(&bufs[(windows.len() - 1) % 2], last, &mut hashers);
        }
        let sums = hashers
            .into_iter()
            .zip(jobs.iter().zip(readable))
            .map(|(mut hasher, (job, read))| {
                hasher.update_zeros(job.len - read);
                hasher.finish()
            })
            .collect();
        Ok((sums, windows.len() as u64))
    }

    /// Read one window's pieces into `buf`, end to end, in one vectored
    /// call.
    fn read_back_window(&self, buf: &mut [u8], window: &[Piece]) -> Result<()> {
        let mut rest: &mut [u8] = buf;
        let mut batch = Vec::with_capacity(window.len());
        for &(_, offset, len) in window {
            let (seg, tail) = std::mem::take(&mut rest).split_at_mut(len);
            batch.push(IoVecMut { offset, buf: seg });
            rest = tail;
        }
        self.backend.read_vectored_at(&mut batch)
    }

    /// Fetch and verify the blocks of each extent of `verify` that
    /// `records` reach: per extent, the block-aligned range from the
    /// block holding the first byte its records reach to the block
    /// holding the last, each range in a buffer of its own and all of
    /// them in one vectored call on the caller (one per
    /// [`COALESCE_WINDOW`] ranges), then every block of
    /// every range checked against its stored sum. A whole-extent sum is
    /// one block, so its range is the whole extent. Returns the ranges
    /// as `(address, bytes)`, ascending by address, for
    /// [`serve_verified`]; an extent no record reaches is not read.
    ///
    /// A failed read fails the whole read, serving nothing, with the
    /// device's error. So does a mismatch, with [`H5Error::Corrupt`]
    /// naming the first mismatching block's bytes in its extent (in
    /// address order), which counts one checksum failure for the read.
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
        if ranges.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch: Vec<IoVecMut<'_>> = ranges
            .iter_mut()
            .map(|(v, start, buf)| IoVecMut { offset: v.addr.saturating_add(*start), buf })
            .collect();
        read_windowed(self.backend.as_ref(), &mut batch)?;
        for (v, start, buf) in &ranges {
            let block = v.sum.algorithm.block(v.len);
            let first = (start / block) as usize;
            let Some(k) = buf
                .chunks(block as usize)
                .zip(first..)
                .position(|(bytes, i)| !v.sum.verify(v.len, i, bytes))
            else {
                continue;
            };
            self.integrity
                .checksum_failures
                .fetch_add(1, Ordering::Relaxed);
            let at = start + k as u64 * block;
            return Err(H5Error::Corrupt(format!(
                "extent at {} ({} bytes) fails its checksum in bytes {}..{}",
                v.addr,
                v.len,
                at,
                (at + block).min(v.len)
            )));
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
    /// in the windows a flush uses ([`Container::hash_extents`]), and a
    /// failed read fails the scrub before anything is repaired.
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
        // Detection: every clean extent, in one read-back.
        let jobs: Vec<HashJob> = extents
            .iter()
            .map(|&(_, _, addr, len, ref sum)| HashJob {
                addr,
                len,
                algorithm: sum.algorithm,
            })
            .collect();
        let (found, _) = self.hash_extents(&jobs)?;
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
            let job = HashJob { addr, len, algorithm: sum.algorithm };
            if had_copy && self.hash_extents(&[job])?.0.pop().as_ref() == Some(&sum) {
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

/// Feed each of a window's pieces, laid end to end in `buf`, to its
/// job's hasher.
fn hash_window(buf: &[u8], window: &[Piece], hashers: &mut [Hasher]) {
    let mut rest = buf;
    for &(job, _, len) in window {
        let (bytes, tail) = rest.split_at(len);
        hashers[job].update(bytes);
        rest = tail;
    }
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
    use std::thread::ThreadId;
    use std::time::Duration;

    use super::*;
    use crate::container::tests::stored_sums;
    use crate::container::ROOT_ID;
    use crate::dataspace::{Dataspace, Hyperslab, Selection};
    use crate::datatype::Datatype;
    use crate::checksum::SUM_BLOCK;
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

    // ----- read-back windows -----------------------------------------

    const MIB: usize = 1 << 20;

    /// What the read-back asks of the device beyond the counts: the
    /// longest read call, in bytes. A read call with a segment at an
    /// address in `bad` fails, naming the first such address; the next
    /// `sync` fails (`TRAP_FAIL`) or panics (`TRAP_PANIC`) as `trap`
    /// says, once, then behaves.
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
            Call::Read { segments, .. } => {
                let bytes = segments.iter().map(|seg| seg.buf.len()).sum();
                g.longest.fetch_max(bytes, Ordering::SeqCst);
                let bad = g.bad.lock();
                match segments.iter().find(|seg| bad.contains(&seg.offset)) {
                    Some(seg) => Err(H5Error::Storage(format!("bad sector at {}", seg.offset))),
                    None => Ok(()),
                }
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

    fn salted(salt: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i ^ (i >> 11) ^ (salt * 0x9E)) as u8).collect()
    }

    /// Create (first call) and overwrite `n` contiguous byte datasets of
    /// `len` bytes, dataset `i` holding `salted(salt + i, len)`.
    fn dirty_contiguous(c: &Container, n: usize, len: usize, salt: usize) -> Vec<ObjectId> {
        (0..n)
            .map(|i| {
                let name = format!("d{i}");
                let ds = c.lookup(ROOT_ID, &name).unwrap_or_else(|_| {
                    let space = Dataspace::d1(len as u64);
                    c.create_dataset(ROOT_ID, &name, Datatype::U8, &space, Layout::Contiguous)
                        .unwrap()
                });
                c.write_selection(ds, &Selection::All, &salted(salt + i, len)).unwrap();
                ds
            })
            .collect()
    }

    /// What a flush stamps over an extent holding `bytes`.
    fn stamp(bytes: &[u8]) -> Option<Checksum> {
        Some(Checksum::blocks_of(bytes))
    }

    #[test]
    fn window_stamps_are_the_hash_of_the_bytes_read_back_within_the_bounds() {
        // Sixteen dirty 2 MiB extents and eight dirty 1 MiB chunks, 40
        // MiB, on a four-channel device at 400 MB/s and 0.2 ms a call:
        // five windows of at most 8 MiB, one call each, one at a time
        // (`tests/flush_lanes.rs` holds the wall time).
        use crate::storage::ThrottledBackend;
        let device = Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, 4));
        let (backend, gauge) = gauged(device.clone());
        let c = Container::create(backend.clone());
        let contiguous = dirty_contiguous(&c, 16, 2 * MIB, 0);
        let space = Dataspace::d1(8 * MIB as u64);
        let layout = Layout::Chunked1D { chunk_elems: MIB as u64 };
        let chunked = c.create_dataset(ROOT_ID, "chunked", Datatype::U8, &space, layout).unwrap();
        c.write_selection(chunked, &Selection::All, &salted(99, 8 * MIB)).unwrap();
        device.set_bandwidth(400e6);
        let before = backend.counts();
        c.flush().unwrap();
        let moved = backend.counts() - before;
        device.set_bandwidth(1e12);

        // The bounds on read-back memory and on device concurrency, as
        // the device saw them.
        assert_eq!(gauge.longest.load(Ordering::SeqCst), HASH_WINDOW);
        assert_eq!((moved.reads, moved.read_batches), (0, 5), "{moved:?}");
        assert_eq!(moved.most_reads_in_flight, 1, "{moved:?}");
        assert_eq!(moved.bytes_read, 40 * MIB as u64, "{moved:?}");
        for (i, &ds) in contiguous.iter().enumerate() {
            let bytes = c.read_selection(ds, &Selection::All).unwrap();
            assert_eq!(bytes, salted(i, 2 * MIB));
            assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]), "dataset {i}");
        }
        let bytes = c.read_selection(chunked, &Selection::All).unwrap();
        assert_eq!(bytes, salted(99, 8 * MIB));
        let want = bytes.chunks(MIB).enumerate().map(|(i, b)| (i as u64, stamp(b))).collect();
        assert_eq!(stored_sums(&c, chunked), (None, want));
        let report = c.scrub().unwrap();
        assert_eq!((report.checked, report.corrupt, report.skipped_dirty), (24, 0, 0));
    }

    #[test]
    fn a_failed_window_read_fails_the_flush_and_stamps_nothing_until_a_retry_reads_everything() {
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

        // All eight dirty again with new bytes; the sixth extent's
        // segment, in the second window, fails.
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
            assert_eq!(bytes, salted(100 + i, 2 * MIB));
            assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]));
        }
        assert_eq!(c.integrity_stats().checksum_failures, 0);
    }

    #[test]
    fn of_two_failed_window_reads_the_flush_reports_the_first_in_address_order() {
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
    fn a_panicking_read_back_unwinds_to_the_caller_and_keeps_every_extent_dirty() {
        // Armed, every read panics: on the flushing thread, the one that
        // reads, so the panic reaches the caller of `flush` — with every
        // mark put back and no sum folded.
        let armed = Arc::new(AtomicBool::new(false));
        let on = armed.clone();
        let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
                panic!("read-back panics (expected by the test)");
            }
            Ok(())
        });
        let c = Container::create(Arc::new(backend));
        let ids = dirty_contiguous(&c, 8, 2 * MIB, 0);
        armed.store(true, Ordering::SeqCst);
        let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.flush()));
        assert!(flushed.is_err(), "the panic unwound out of the flush");
        assert_eq!(c.dirty_extents.lock().len(), 8);
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds) == (None, vec![])));
        armed.store(false, Ordering::SeqCst);
        c.flush().unwrap();
        assert!(ids.iter().all(|&ds| stored_sums(&c, ds).0.is_some()));
    }

    #[test]
    fn a_failed_or_panicked_data_barrier_is_a_clean_failed_flush() {
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
                assert_eq!(bytes, salted(100 + i, 2 * MIB));
                assert_eq!(stored_sums(&c, ds), (stamp(&bytes), vec![]));
            }
        }
    }

    #[test]
    fn a_failed_read_back_is_reported_ahead_of_a_failed_barrier() {
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
    fn window_sums_equal_the_direct_hash_over_seeded_dataset_mixes() {
        use crate::storage::Lcg;
        // Each salt: one to six datasets of 0…6 MiB, contiguous or in
        // chunks of 64 KiB…1 MiB, each written from its start to a
        // seeded point — so the last extent allocated straddles the
        // watermark — then one flush. Some mixes fit one window, the
        // rest span several, with window edges inside blocks.
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
                let mut data = salted(salt as usize + d as usize, written);
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
    fn scrub_detects_in_one_read_back_and_repairs_one_dataset_once() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let space = Dataspace::d1(8 * MIB as u64);
        let layout = Layout::Chunked1D { chunk_elems: MIB as u64 };
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, layout).unwrap();
        let data = salted(7, 8 * MIB);
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
        let data = salted(3, 4 * BLOCK);
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
        let data = salted(5, 4 * BLOCK);
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

    // ----- a verified read is one call ----------------------------------

    /// A byte-typed contiguous dataset of `len` bytes holding
    /// `salted(salt, len)`, flushed so its block sums are stamped,
    /// and its extent's address.
    fn stamped(c: &Container, len: usize, salt: usize) -> (ObjectId, u64) {
        let ds = dirty_contiguous(c, 1, len, salt)[0];
        c.flush().unwrap();
        (ds, c.plane.working(ds).unwrap().data_addr)
    }

    /// Run `f` on a thread of its own and return what it returned, and
    /// that thread's id; a call still running after ten seconds fails
    /// the test instead of hanging it.
    fn within<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> (R, ThreadId) {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()).unwrap());
        let id = worker.thread().id();
        let out = rx.recv_timeout(Duration::from_secs(10)).expect("the call missed its deadline");
        worker.join().unwrap();
        (out, id)
    }

    /// Every read call a [`logged`] device saw: the thread that made it
    /// and its segments, as (offset, bytes).
    type CallLog = Mutex<Vec<(ThreadId, Vec<(u64, usize)>)>>;

    /// A device that logs every read call in a [`CallLog`].
    fn logged(inner: Arc<dyn StorageBackend>) -> (Arc<CountingBackend>, Arc<CallLog>) {
        let log: Arc<CallLog> = Arc::default();
        let seen = log.clone();
        let device = CountingBackend::new(inner).with_hook(move |call| {
            if let Call::Read { segments, .. } = call {
                let segments = segments.iter().map(|seg| (seg.offset, seg.buf.len())).collect();
                seen.lock().push((std::thread::current().id(), segments));
            }
            Ok(())
        });
        (Arc::new(device), log)
    }

    #[test]
    fn a_512_kib_verified_read_on_four_channels_is_one_read_call_on_the_caller() {
        use crate::storage::ThrottledBackend;
        let (device, log) = logged(Arc::new(ThrottledBackend::with_channels(1e12, 2e-4, 4)));
        let c = Arc::new(Container::create(device.clone()));
        let (ds, addr) = stamped(&c, 8 * BLOCK, 11);
        log.lock().clear();
        let before = device.counts();
        let reader = c.clone();
        let (got, caller) = within(move || reader.read_selection(ds, &Selection::All).unwrap());
        let moved = device.counts() - before;
        assert_eq!(got, salted(11, 8 * BLOCK));
        assert_eq!(*log.lock(), [(caller, vec![(addr, 8 * BLOCK)])], "one call, on the caller");
        assert_eq!((moved.reads, moved.read_batches, moved.most_reads_in_flight), (0, 1, 1));
        assert_eq!(moved.bytes_read, 8 * SUM_BLOCK);
        let verified_one = IntegrityStats { verified_extents: 1, ..Default::default() };
        assert_eq!(c.integrity_stats(), verified_one);
    }

    #[test]
    fn a_verified_read_is_one_call_of_its_covering_ranges_at_block_edges() {
        // An extent of nine blocks and a short tenth of 1000 bytes. Each
        // case: a selection, then the covering range the one call
        // fetches, as (offset, length) in the extent.
        let len = 9 * BLOCK + 1000;
        let b = |n: usize| (n * BLOCK) as u64;
        let cases: [(usize, usize, (u64, usize)); 6] = [
            (0, 2 * BLOCK, (0, 2 * BLOCK)),
            (10, 20, (0, BLOCK)),
            (BLOCK - 10, 20, (0, 2 * BLOCK)),
            (2 * BLOCK + 5, 2 * BLOCK, (b(2), 3 * BLOCK)),
            (BLOCK + 1, 5 * BLOCK, (b(1), 6 * BLOCK)),
            (0, len, (0, len)),
        ];
        for (start, n, (at, bytes)) in cases {
            let (device, log) = logged(Arc::new(MemBackend::new()));
            let c = Container::create(device.clone());
            let (ds, addr) = stamped(&c, len, 4);
            log.lock().clear();
            let before = device.counts();
            let sel = Selection::Slab(Hyperslab::range1(start as u64, n as u64));
            let got = c.read_selection(ds, &sel).unwrap();
            let moved = device.counts() - before;
            assert_eq!(got, salted(4, len)[start..start + n], "{start}+{n}");
            let me = std::thread::current().id();
            assert_eq!(*log.lock(), [(me, vec![(addr + at, bytes)])], "{start}+{n}");
            assert_eq!((moved.reads, moved.read_batches), (0, 1), "{start}+{n}");
            assert_eq!(c.integrity_stats().checksum_failures, 0);
        }
        // Chunks of three blocks: a selection from block 2 of chunk 1 into
        // block 0 of chunk 2 fetches one block of each, in one call.
        let (device, log) = logged(Arc::new(MemBackend::new()));
        let c = Container::create(device.clone());
        let chunk = 3 * BLOCK;
        let layout = Layout::Chunked1D { chunk_elems: chunk as u64 };
        let space = Dataspace::d1(4 * chunk as u64);
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, layout).unwrap();
        let data = salted(6, 4 * chunk);
        c.write_selection(ds, &Selection::All, &data).unwrap();
        c.flush().unwrap();
        let chunk_at = |i: u64| c.plane.working(ds).unwrap().chunks[&i].addr;
        log.lock().clear();
        let start = chunk + 2 * BLOCK + 7;
        let sel = Selection::Slab(Hyperslab::range1(start as u64, BLOCK as u64));
        assert_eq!(c.read_selection(ds, &sel).unwrap(), data[start..start + BLOCK]);
        let me = std::thread::current().id();
        let want = vec![(chunk_at(1) + b(2), BLOCK), (chunk_at(2), BLOCK)];
        assert_eq!(*log.lock(), [(me, want)]);
        assert_eq!(c.integrity_stats().verified_extents, 2);
    }

    #[test]
    fn a_read_back_and_a_verified_read_of_2500_chunks_are_windows_of_1024_segments() {
        // 2500 chunks of 64 bytes: the flush reads them back, and a read
        // of them all verifies them, each in calls of at most
        // `COALESCE_WINDOW` segments, in address order, on the caller.
        let (device, log) = logged(Arc::new(MemBackend::new()));
        let c = Container::create(device.clone());
        let layout = Layout::Chunked1D { chunk_elems: 64 };
        let space = Dataspace::d1(2500 * 64);
        let ds = c.create_dataset(ROOT_ID, "x", Datatype::U8, &space, layout).unwrap();
        let data = salted(5, 2500 * 64);
        c.write_selection(ds, &Selection::All, &data).unwrap();
        let me = std::thread::current().id();
        let calls = |log: &CallLog| -> Vec<usize> {
            let log = std::mem::take(&mut *log.lock());
            assert!(log.iter().all(|(on, _)| *on == me), "every call on the caller");
            let offsets: Vec<u64> = log.iter().flat_map(|(_, s)| s.iter().map(|&(at, _)| at)).collect();
            assert!(offsets.is_sorted(), "in address order");
            log.iter().map(|(_, segments)| segments.len()).collect()
        };
        log.lock().clear();
        c.flush().unwrap();
        assert_eq!(calls(&log), [COALESCE_WINDOW, COALESCE_WINDOW, 452], "the read-back");
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
        assert_eq!(calls(&log), [COALESCE_WINDOW, COALESCE_WINDOW, 452], "the verified read");
        assert_eq!(c.integrity_stats().verified_extents, 2500);
    }

    #[test]
    fn a_flip_anywhere_in_the_range_fails_the_read_naming_its_block() {
        // Eight blocks and a short ninth of 1000 bytes, read whole. Each
        // case: the flipped bytes, then the block the error names — the
        // first flipped one.
        let len = 8 * BLOCK + 1000;
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let data = salted(8, len);
        let (ds, addr) = stamped(&c, len, 8);
        let cases: [(&[usize], usize); 5] = [
            (&[0], 0),
            (&[5 * BLOCK + 100], 5),
            (&[6 * BLOCK - 1], 5),
            (&[len - 1], 8),
            (&[3 * BLOCK + 1, 7 * BLOCK], 3),
        ];
        for (flips, block) in cases {
            for &at in flips {
                backend.write_at(addr + at as u64, &[!data[at]]).unwrap();
            }
            let failures = c.integrity_stats().checksum_failures;
            let err = c.read_selection(ds, &Selection::All).unwrap_err();
            let (lo, hi) = (block * BLOCK, ((block + 1) * BLOCK).min(len));
            let want = format!("fails its checksum in bytes {lo}..{hi}");
            let named = matches!(err, H5Error::Corrupt(ref m) if m.ends_with(&want));
            assert!(named, "{flips:?}: {err:?}");
            assert_eq!(c.integrity_stats().checksum_failures, failures + 1);
            assert_eq!(c.integrity_stats().verified_extents, 0, "nothing was served");
            for &at in flips {
                backend.write_at(addr + at as u64, &data[at..at + 1]).unwrap();
            }
        }
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), data);
    }

    #[test]
    fn a_failed_verified_read_serves_nothing() {
        // The one read call fails: the whole read does, with its error,
        // and no checksum failure is counted.
        let (backend, gauge) = gauged(Arc::new(MemBackend::new()));
        let c = Container::create(backend.clone());
        let (ds, addr) = stamped(&c, 8 * BLOCK, 2);
        gauge.bad.lock().push(addr);
        let before = backend.counts();
        let err = c.read_selection(ds, &Selection::All).unwrap_err();
        let moved = backend.counts() - before;
        let want = format!("bad sector at {addr}");
        assert!(matches!(err, H5Error::Storage(ref m) if *m == want), "{err:?}");
        assert_eq!((moved.reads, moved.read_batches), (0, 1), "{moved:?}");
        assert_eq!(c.integrity_stats(), IntegrityStats::default());
        gauge.bad.lock().clear();
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), salted(2, 8 * BLOCK));

        // Armed, every read panics, on the reading thread: the panic
        // reaches the caller, and nothing was served or counted.
        let armed = Arc::new(AtomicBool::new(false));
        let on = armed.clone();
        let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if matches!(call, Call::Read { .. }) && on.load(Ordering::SeqCst) {
                panic!("verified read panics (expected by the test)");
            }
            Ok(())
        });
        let c = Container::create(Arc::new(backend));
        let (ds, _) = stamped(&c, 8 * BLOCK, 3);
        armed.store(true, Ordering::SeqCst);
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.read_selection(ds, &Selection::All)
        }));
        assert!(read.is_err(), "the panic unwound out of the read");
        assert_eq!(c.integrity_stats(), IntegrityStats::default());
        armed.store(false, Ordering::SeqCst);
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), salted(3, 8 * BLOCK));
    }
}
