//! Snapshot staging tiers, with the device tier as a recoverable
//! write-ahead log.
//!
//! The HDF5 async VOL caches write data "either to a memory buffer on the
//! same node where a process is running or to a node-local SSD" (paper
//! §II-C). This module implements both:
//!
//! - [`Staging::Dram`] — the default: the snapshot is a heap buffer. The
//!   transactional overhead is one memcpy; the buffer is freed when the
//!   background write lands.
//! - [`Staging::Device`] — the snapshot is appended to a log on a
//!   node-local device (any [`h5lite::StorageBackend`], typically a
//!   [`h5lite::FileBackend`] on an NVMe mount or a throttled backend in
//!   tests). The transactional overhead becomes a device write — slower
//!   than memcpy but with bounded DRAM footprint, the trade-off systems
//!   like DataElevator and Cori's burst buffer exploit.
//!
//! ## The log is a WAL
//!
//! Each staged snapshot is a self-describing record: framed, checksummed,
//! and carrying the *destination* of the write (dataset id + selection),
//! not just the payload. That turns the staging tier into a write-ahead
//! log: if the process dies after a write was acknowledged (snapshot
//! durable on the staging device) but before the background stream landed
//! it in the container, [`StagingLog::open`] + [`StagingLog::recover_into`]
//! replay the staged-but-unflushed records into the container — the
//! log-structured recovery shape of burst-buffer staging systems.
//!
//! A one-byte `applied` flag trailing each record is set when the
//! background write completes, so recovery only replays what never landed.
//! Replay is idempotent (re-writing the same extent with the same bytes),
//! so a crash *during* recovery is also safe.
//!
//! Appends are serialized and the append cursor advances past a record
//! only once its device write has succeeded, making the log hole-free by
//! construction: every acknowledged record sits in an unbroken,
//! seq-chained prefix, and the only invalid frame a scan can meet is the
//! torn tail of the one record that was in flight at the crash. Stopping
//! the scan at the first invalid frame therefore never abandons an
//! acknowledged write.
//!
//! Recovery replays data records only; it assumes the container's
//! *metadata* (the datasets the records point into) was flushed before the
//! crash window. Writers get this by creating datasets up front and
//! calling `file_flush` once before the I/O phase — the checkpoint
//! protocol described in DESIGN.md. Records whose dataset is missing from
//! the reopened container are counted as `orphaned`, not replayed.
//!
//! Space is recycled wholesale via [`StagingLog::reset`] when the
//! connector is drained (the same coarse-grained recycling burst buffers
//! use between checkpoint epochs).

use std::sync::Arc;

use apio_trace::{Event, Tracer};
use argolite::sync::Mutex;
use h5lite::codec::{Reader, Writer};
use h5lite::superblock::{fnv1a64, FNV_BASIS};
use h5lite::{
    recycle, Container, H5Error, Hyperslab, IoVec, ObjectId, Result, Selection, StorageBackend,
};

/// Where write snapshots live until the background write lands.
#[derive(Clone)]
pub enum Staging {
    /// Heap buffers (one memcpy of transactional overhead).
    Dram,
    /// A write-ahead log on a node-local device.
    Device(Arc<StagingLog>),
}

impl std::fmt::Debug for Staging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Staging::Dram => write!(f, "Staging::Dram"),
            Staging::Device(log) => {
                write!(f, "Staging::Device(used: {} bytes)", log.bytes_used())
            }
        }
    }
}

/// Record framing: `magic(4) | body_len(8) | body | fnv64(8) | applied(1)`
/// where `body = seq(8) | ds(8) | selection | payload_len(8) | payload`.
const REC_MAGIC: u32 = 0x5741_4C31; // "WAL1"
/// Bytes before the body: magic + body_len.
const REC_PREFIX: u64 = 12;
/// Bytes after the body: fnv64 + applied flag.
const REC_SUFFIX: u64 = 9;

fn encode_selection(w: &mut Writer, sel: &Selection) {
    match sel {
        Selection::All => w.u8(0),
        Selection::Slab(h) => {
            w.u8(1);
            w.list(&h.start, |w, v| w.u64(*v));
            w.list(&h.count, |w, v| w.u64(*v));
            match &h.stride {
                None => w.bool(false),
                Some(s) => {
                    w.bool(true);
                    w.list(s, |w, v| w.u64(*v));
                }
            }
        }
    }
}

fn decode_selection(r: &mut Reader<'_>) -> Result<Selection> {
    match r.u8()? {
        0 => Ok(Selection::All),
        1 => {
            let start = r.list(|r| r.u64())?;
            let count = r.list(|r| r.u64())?;
            let stride = if r.bool()? {
                Some(r.list(|r| r.u64())?)
            } else {
                None
            };
            Ok(Selection::Slab(Hyperslab {
                start,
                count,
                stride,
            }))
        }
        t => Err(H5Error::Corrupt(format!("bad selection tag {t} in WAL"))),
    }
}

/// Append position and next sequence number. Advanced only *after* the
/// record at `cursor` is durable on the device, so the log never holds a
/// hole (an invalid frame with valid records beyond it) — which is what
/// lets [`StagingLog::scan`] treat the first invalid frame as the end of
/// the log without ever skipping an acknowledged record.
struct Tail {
    cursor: u64,
    seq: u64,
}

/// Append-only write-ahead staging log over a storage backend.
pub struct StagingLog {
    device: Arc<dyn StorageBackend>,
    tail: Mutex<Tail>,
}

/// A staged snapshot: where the payload (and its record) live on the
/// staging device.
#[derive(Clone, Copy, Debug)]
pub struct StagedExtent {
    /// Byte offset of the raw payload on the staging device.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Log sequence number of the record holding the payload.
    pub seq: u64,
    /// Offset of the record's `applied` flag byte.
    flag_off: u64,
}

/// One fully parsed WAL record, produced while scanning the log.
struct WalRecord {
    ds: ObjectId,
    sel: Selection,
    payload: Vec<u8>,
    applied: bool,
    flag_off: u64,
    /// Offset of the record's first byte (frame start).
    rec_off: u64,
}

/// What [`StagingLog::recover_into`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records found in the log.
    pub scanned: u64,
    /// Staged-but-unflushed records replayed into the container.
    pub replayed: u64,
    /// Records already marked applied (skipped).
    pub already_applied: u64,
    /// Unapplied records whose dataset no longer exists in the container
    /// (metadata was never flushed); skipped, not replayed.
    pub orphaned: u64,
    /// Payload bytes written during replay.
    pub bytes_replayed: u64,
    /// Replayed records whose applied-flag write-back failed. Their data
    /// landed (replay is idempotent, so a second recovery redoes them
    /// harmlessly), but a non-zero count means the staging device
    /// rejected writes *during* recovery — operators should not clear
    /// the log until this is zero.
    pub flag_update_failed: u64,
    /// Extents checked by the post-recovery scrub (0 when recovery ran
    /// without a scrub pass).
    pub scrub_checked: u64,
    /// Extents the scrub found failing their checksum.
    pub scrub_corrupt: u64,
    /// Corrupt extents rebuilt by WAL replay during the scrub.
    pub scrub_repaired: u64,
    /// Invalid superblock slots the container open skipped past — a
    /// non-zero count means the container survived a torn or corrupted
    /// superblock commit by falling back to the other slot.
    pub superblock_fallback: u64,
}

impl StagingLog {
    /// Wrap a device as an empty staging log (ignores any prior content —
    /// use [`open`](Self::open) to resume an existing log).
    pub fn new(device: Arc<dyn StorageBackend>) -> Self {
        StagingLog {
            device,
            tail: Mutex::new_named("asyncvol.wal", Tail { cursor: 0, seq: 0 }),
        }
    }

    /// Open a device that may already hold WAL records (e.g. after a
    /// crash): scans the log, positions the append cursor after the last
    /// valid record, and leaves the records available for
    /// [`recover_into`](Self::recover_into). A torn tail (truncated or
    /// checksum-failing record) ends the scan — everything before it is
    /// preserved, everything after is dead space that will be overwritten.
    pub fn open(device: Arc<dyn StorageBackend>) -> Self {
        let records = Self::scan(&device);
        let (end, count) = records
            .last()
            .map(|r| (r.rec_off + Self::record_span(r), records.len() as u64))
            .unwrap_or((0, 0));
        StagingLog {
            device,
            tail: Mutex::new_named(
                "asyncvol.wal",
                Tail {
                    cursor: end,
                    seq: count,
                },
            ),
        }
    }

    fn record_span(r: &WalRecord) -> u64 {
        // flag_off is the last byte of the record.
        r.flag_off + 1 - r.rec_off
    }

    /// Parse every valid record from the start of the device, stopping at
    /// the first frame that is absent, truncated, or fails its checksum.
    fn scan(device: &Arc<dyn StorageBackend>) -> Vec<WalRecord> {
        let mut records = Vec::new();
        let len = device.len();
        let mut pos = 0u64;
        loop {
            if pos + REC_PREFIX > len {
                break;
            }
            let mut prefix = [0u8; REC_PREFIX as usize];
            if device.read_at(pos, &mut prefix).is_err() {
                break;
            }
            let magic = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
            if magic != REC_MAGIC {
                break;
            }
            let body_len = u64::from_le_bytes([
                prefix[4], prefix[5], prefix[6], prefix[7], prefix[8], prefix[9], prefix[10],
                prefix[11],
            ]);
            // body_len is untrusted (read back from the device): a
            // corrupt length field must read as a torn tail, not wrap
            // the arithmetic and panic the recovery path.
            let total = match body_len.checked_add(REC_PREFIX + REC_SUFFIX) {
                Some(t) => t,
                None => break,
            };
            match pos.checked_add(total) {
                Some(end) if end <= len => {}
                _ => break, // torn tail
            }
            let mut rest = vec![0u8; (total - REC_PREFIX) as usize];
            if device.read_at(pos + REC_PREFIX, &mut rest).is_err() {
                break;
            }
            let body = &rest[..body_len as usize];
            let stored_fnv = u64::from_le_bytes(
                match rest[body_len as usize..body_len as usize + 8].try_into() {
                    Ok(a) => a,
                    Err(_) => break,
                },
            );
            if fnv1a64(FNV_BASIS, body) != stored_fnv {
                break; // torn or corrupt record ends the log
            }
            let applied = rest[(body_len + 8) as usize] != 0;
            let expected_seq = records.len() as u64;
            let parsed = (|| -> Result<WalRecord> {
                let mut r = Reader::new(body);
                // Appends are serialized, so valid records carry
                // consecutive seq numbers from 0. A checksum-valid frame
                // that does not chain is not part of this log — stale
                // bytes from a previous log generation, or payload bytes
                // masquerading as a frame — and ends the scan.
                if r.u64()? != expected_seq {
                    return Err(H5Error::Corrupt("WAL seq chain broken".into()));
                }
                let ds = ObjectId::from(r.u64()?);
                let sel = decode_selection(&mut r)?;
                let payload_len = r.u64()? as usize;
                if r.remaining() != payload_len {
                    return Err(H5Error::Corrupt("WAL payload length mismatch".into()));
                }
                let mut payload = vec![0u8; payload_len];
                let payload_off = body_len as usize - payload_len;
                payload.copy_from_slice(&body[payload_off..]);
                Ok(WalRecord {
                    ds,
                    sel,
                    payload,
                    applied,
                    flag_off: pos + REC_PREFIX + body_len + 8,
                    rec_off: pos,
                })
            })();
            match parsed {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            pos += total;
        }
        records
    }

    /// Append a snapshot of `data` destined for `(ds, sel)`, returning its
    /// extent. This is the transactional overhead of device staging: the
    /// caller blocks for the device write, then may reuse its buffer. Once
    /// this returns, the write is recoverable — a crash before the
    /// background flush can replay it from the log.
    ///
    /// Appends serialize: the cursor advances past a record only after
    /// the device write succeeded, so a failed append leaves no hole
    /// (the next append rewrites the same slot) and a crash can only
    /// tear the *last* record — never strand acknowledged records
    /// behind an invalid frame.
    pub fn append(&self, ds: ObjectId, sel: &Selection, data: &[u8]) -> Result<StagedExtent> {
        let mut tail = self.tail.lock();
        let mut header = Writer::new();
        header.u64(tail.seq);
        header.u64(ds);
        encode_selection(&mut header, sel);
        header.u64(data.len() as u64);
        let header = header.into_bytes();

        let body_len = header.len() as u64 + data.len() as u64;
        let total = REC_PREFIX + body_len + REC_SUFFIX;
        // Assemble the frame in a recycled buffer: emptied first, so no
        // stale byte survives, and never reallocated (capacity ≥ total).
        let mut rec = recycle::take(total as usize);
        rec.clear();
        rec.extend_from_slice(&REC_MAGIC.to_le_bytes());
        rec.extend_from_slice(&body_len.to_le_bytes());
        rec.extend_from_slice(&header);
        rec.extend_from_slice(data);
        let fnv = fnv1a64(fnv1a64(FNV_BASIS, &header), data);
        rec.extend_from_slice(&fnv.to_le_bytes());
        rec.push(0); // applied = false

        let offset = tail.cursor;
        let written = self.device.write_at(offset, &rec);
        recycle::give(rec);
        written?;
        let seq = tail.seq;
        tail.seq += 1;
        tail.cursor = offset + total;
        Ok(StagedExtent {
            offset: offset + REC_PREFIX + header.len() as u64,
            len: data.len() as u64,
            seq,
            flag_off: offset + REC_PREFIX + body_len + 8,
        })
    }

    /// Read a staged snapshot back (the background task's first step)
    /// into a recycled buffer, which the task returns once it has landed.
    pub fn read(&self, extent: StagedExtent) -> Result<Vec<u8>> {
        let mut buf = recycle::take(extent.len as usize);
        self.device.read_at(extent.offset, &mut buf)?;
        Ok(buf)
    }

    /// Mark a record as landed in the container, so a later recovery will
    /// not replay it. Failure to set the flag is benign (replay is
    /// idempotent), so callers may ignore the result.
    pub fn mark_applied(&self, extent: StagedExtent) -> Result<()> {
        self.device.write_at(extent.flag_off, &[1])
    }

    /// Replay every staged-but-unapplied record into `c`, in log order,
    /// marking each applied as it lands. Call on a log [`open`](Self::open)ed
    /// after a crash, against the reopened container. Idempotent: a second
    /// call (or a crash mid-recovery) finds the applied flags set and
    /// replays nothing twice. Records for datasets missing from `c` are
    /// counted as orphaned and skipped; device errors during replay
    /// propagate (the caller may retry — nothing is lost).
    ///
    /// Replay is coalesced end to end: each record's payload lands through
    /// the container's planned `write_selection` (one metadata-lock
    /// acquisition, vectored extents), and the applied flags of every
    /// replayed record are set in one vectored batch on the staging device
    /// instead of a one-byte write per record.
    pub fn recover_into(&self, c: &Container) -> Result<RecoveryReport> {
        self.recover_into_traced(c, &Tracer::disabled())
    }

    /// [`recover_into`](Self::recover_into) with trace output: each
    /// replayed record becomes a `wal.replay` span carrying its log seq
    /// and payload size, and dead bytes past the last valid record (a torn
    /// tail, or stale space from an earlier log generation) emit exactly
    /// one `wal.torn_tail` instant with the offset where the valid prefix
    /// ends.
    pub fn recover_into_traced(&self, c: &Container, tracer: &Tracer) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let mut landed_flags: Vec<u64> = Vec::new();
        let records = Self::scan(&self.device);
        let valid_end = records
            .last()
            .map(|r| r.rec_off + Self::record_span(r))
            .unwrap_or(0);
        if self.device.len() > valid_end {
            tracer.instant("wal.torn_tail", Event::WalTruncated { offset: valid_end });
        }
        let result = (|| {
            for (seq, rec) in records.into_iter().enumerate() {
                report.scanned += 1;
                if rec.applied {
                    report.already_applied += 1;
                    continue;
                }
                let mut span = tracer.span("wal.replay");
                span.set_event(Event::WalReplay {
                    seq: seq as u64,
                    bytes: rec.payload.len() as u64,
                });
                match c.write_selection(rec.ds, &rec.sel, &rec.payload) {
                    Ok(()) => {
                        report.replayed += 1;
                        report.bytes_replayed += rec.payload.len() as u64;
                        landed_flags.push(rec.flag_off);
                    }
                    Err(H5Error::NotFound(_)) => report.orphaned += 1,
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })();
        // Flag whatever landed — also on the error path, so a retried
        // recovery does not re-replay records that already made it.
        // Replay is idempotent, so a failed flag write-back is not a
        // correctness problem, but the report must say it happened: the
        // unflagged records will replay again next recovery.
        if !landed_flags.is_empty() {
            let one = [1u8];
            let batch: Vec<IoVec<'_>> = landed_flags
                .iter()
                .map(|&off| IoVec {
                    offset: off,
                    data: &one,
                })
                .collect();
            if self.device.write_vectored_at(&batch).is_err() {
                report.flag_update_failed = landed_flags.len() as u64;
            }
        }
        result.map(|()| report)
    }

    /// Replay every record destined for `ds` — applied or not — into
    /// `c`, in log order. This is the read-repair source for
    /// `Container::scrub_with`: a corrupt extent of `ds` is rebuilt by
    /// re-applying the dataset's full staged write history, which is
    /// exactly the sequence of payloads the connector acknowledged.
    /// Returns how many records were replayed; 0 means the log holds no
    /// durable copy for this dataset and the extent cannot be repaired
    /// from here.
    pub fn replay_dataset(&self, c: &Container, ds: ObjectId) -> Result<u64> {
        let mut replayed = 0u64;
        for rec in Self::scan(&self.device) {
            if rec.ds != ds {
                continue;
            }
            c.write_selection(rec.ds, &rec.sel, &rec.payload)?;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Bytes appended (records *and* framing) since creation, open, or the
    /// last [`reset`](Self::reset).
    pub fn bytes_used(&self) -> u64 {
        self.tail.lock().cursor
    }

    /// Recycle the log. Callers must ensure no staged extent is still
    /// referenced and nothing unflushed remains (the connector drains
    /// first). Stamps out the first record's magic so a later
    /// [`open`](Self::open) of the same device sees an empty log instead
    /// of replaying stale records. If stamping fails, the log is left
    /// unchanged (still consistent) and the error propagates.
    pub fn reset(&self) -> Result<()> {
        let mut tail = self.tail.lock();
        if tail.cursor > 0 {
            self.device.write_at(0, &[0u8; REC_PREFIX as usize])?;
        }
        tail.cursor = 0;
        tail.seq = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::{Dataspace, Datatype, Layout, MemBackend};

    fn wal() -> (Arc<MemBackend>, StagingLog) {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        (dev, log)
    }

    fn container_with_ds(n: u64) -> (Container, ObjectId) {
        let c = Container::create_mem();
        let ds = c
            .create_dataset(
                h5lite::container::ROOT_ID,
                "x",
                Datatype::U8,
                &Dataspace::d1(n),
                Layout::Contiguous,
            )
            .unwrap();
        (c, ds)
    }

    #[test]
    fn append_read_roundtrip() {
        let (dev, log) = wal();
        let (_, ds) = container_with_ds(16);
        let a = log.append(ds, &Selection::All, b"hello").unwrap();
        let b = log.append(ds, &Selection::All, b"world!").unwrap();
        assert_eq!(log.read(a).unwrap(), b"hello");
        assert_eq!(log.read(b).unwrap(), b"world!");
        assert!(log.bytes_used() > 11, "framing counts toward usage");
        // The frame checksum is on-device format: this is what the build
        // before the FNV moved to h5lite stamped on the same frame.
        let c = log.append(7, &Selection::All, b"checksum me").unwrap();
        let mut sum = [0u8; 8];
        dev.read_at(c.flag_off - 8, &mut sum).unwrap();
        assert_eq!(u64::from_le_bytes(sum), 0xca68_3fbe_70f0_f876);
    }

    #[test]
    fn extents_do_not_overlap_under_concurrency() {
        let dev = Arc::new(MemBackend::new());
        let log = Arc::new(StagingLog::new(dev));
        let (_, ds) = container_with_ds(8000);
        let mut joins = Vec::new();
        for t in 0..8u8 {
            let log = log.clone();
            joins.push(std::thread::spawn(move || {
                let data = vec![t; 1000];
                log.append(ds, &Selection::All, &data).unwrap()
            }));
        }
        let extents: Vec<StagedExtent> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let mut sorted = extents.clone();
        sorted.sort_by_key(|e| e.offset);
        for w in sorted.windows(2) {
            assert!(w[0].offset + w[0].len <= w[1].offset);
        }
        // Each extent reads back its own fill byte.
        for e in extents {
            let data = log.read(e).unwrap();
            assert!(data.iter().all(|&b| b == data[0]));
        }
    }

    #[test]
    fn reset_recycles_space_and_empties_the_log() {
        let (dev, log) = wal();
        let (_, ds) = container_with_ds(100);
        log.append(ds, &Selection::All, &[0u8; 100]).unwrap();
        log.reset().unwrap();
        assert_eq!(log.bytes_used(), 0);
        let e = log
            .append(ds, &Selection::Slab(Hyperslab::range1(0, 2)), b"xy")
            .unwrap();
        assert!(e.offset < 100);
        // A fresh open of the device sees only the post-reset record —
        // the pre-reset 100-byte record is gone.
        let reopened = StagingLog::open(dev);
        let (c, _) = container_with_ds(100);
        let report = reopened.recover_into(&c).unwrap();
        assert_eq!(report.scanned, 1);
        assert_eq!(report.bytes_replayed + 2 * report.orphaned, 2);
    }

    #[test]
    fn recovery_replays_only_unapplied_records() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (c, ds) = container_with_ds(8);

        let applied = log
            .append(ds, &Selection::Slab(Hyperslab::range1(0, 4)), &[1u8; 4])
            .unwrap();
        let _unapplied = log
            .append(ds, &Selection::Slab(Hyperslab::range1(4, 4)), &[2u8; 4])
            .unwrap();
        // First record landed in the container; second did not (crash).
        c.write_selection(ds, &Selection::Slab(Hyperslab::range1(0, 4)), &[1u8; 4])
            .unwrap();
        log.mark_applied(applied).unwrap();

        let recovered = StagingLog::open(dev);
        assert_eq!(recovered.bytes_used(), log.bytes_used());
        let report = recovered.recover_into(&c).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.already_applied, 1);
        assert_eq!(report.bytes_replayed, 4);
        assert_eq!(
            c.read_selection(ds, &Selection::All).unwrap(),
            [1, 1, 1, 1, 2, 2, 2, 2]
        );

        // Idempotent: a second recovery replays nothing.
        let again = recovered.recover_into(&c).unwrap();
        assert_eq!(again.replayed, 0);
        assert_eq!(again.already_applied, 2);
    }

    #[test]
    fn replay_dataset_rebuilds_a_corrupt_extent() {
        let (_, log) = wal();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let c = Container::create(backend.clone());
        let ds = c
            .create_dataset(
                h5lite::container::ROOT_ID,
                "x",
                Datatype::U8,
                &Dataspace::d1(8),
                Layout::Contiguous,
            )
            .unwrap();
        // Two overlapping staged writes, both applied — the dataset's
        // acked history. Applied records still count for read-repair.
        for (sel, data) in [
            (Selection::All, vec![7u8; 8]),
            (Selection::Slab(Hyperslab::range1(2, 3)), vec![9u8; 3]),
        ] {
            let e = log.append(ds, &sel, &data).unwrap();
            c.write_selection(ds, &sel, &data).unwrap();
            log.mark_applied(e).unwrap();
        }
        c.flush().unwrap();
        assert!(c.scrub().unwrap().clean());

        // Corrupt the extent behind the container's back, then repair it
        // by replaying the dataset's staged history in log order.
        backend
            .write_at(h5lite::superblock::SUPERBLOCK_AREA, &[0xFF])
            .unwrap();
        let report = c
            .scrub_with(|id| log.replay_dataset(&c, id).map(|n| n > 0))
            .unwrap();
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(
            c.read_selection(ds, &Selection::All).unwrap(),
            [7, 7, 9, 9, 9, 7, 7, 7]
        );
        // An empty log holds no durable copy to repair from.
        let (_, empty_log) = wal();
        assert_eq!(empty_log.replay_dataset(&c, ds).unwrap(), 0);
    }

    #[test]
    fn recovery_reports_failed_flag_writeback() {
        // The record replays into the container fine, but the staging
        // device rejects the applied-flag write-back. Recovery must
        // still report success (the data landed) while flagging the
        // miss: the unmarked record will replay again next time, and
        // operators must not recycle the log until the count is zero.
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (c, ds) = container_with_ds(4);
        log.append(ds, &Selection::All, &[5u8; 4]).unwrap();

        // Reopen through an injector that kills every write: scans
        // (reads) pass, the flag write-back cannot.
        let faulty: Arc<dyn StorageBackend> = Arc::new(h5lite::FaultInjector::new(
            dev.clone(),
            h5lite::FaultPlan::new(0).fail_after(
                h5lite::FaultOp::Write,
                0,
                h5lite::FaultKind::Persistent,
            ),
        ));
        let report = StagingLog::open(faulty).recover_into(&c).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.flag_update_failed, 1);
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), [5u8; 4]);

        // A retried recovery on a healed device replays the same record
        // again (idempotent) and gets the flag down this time.
        let again = StagingLog::open(dev.clone()).recover_into(&c).unwrap();
        assert_eq!(again.replayed, 1);
        assert_eq!(again.flag_update_failed, 0);
        let third = StagingLog::open(dev).recover_into(&c).unwrap();
        assert_eq!(third.replayed, 0);
        assert_eq!(third.already_applied, 1);
    }

    #[test]
    fn recovery_stops_at_torn_tail() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (c, ds) = container_with_ds(8);
        log.append(ds, &Selection::Slab(Hyperslab::range1(0, 4)), &[7u8; 4])
            .unwrap();
        let torn = log
            .append(ds, &Selection::Slab(Hyperslab::range1(4, 4)), &[9u8; 4])
            .unwrap();
        // Corrupt one payload byte of the second record: checksum fails.
        dev.write_at(torn.offset, &[0xFF]).unwrap();

        let recovered = StagingLog::open(dev);
        let report = recovered.recover_into(&c).unwrap();
        assert_eq!(report.scanned, 1, "torn record ends the log");
        assert_eq!(report.replayed, 1);
        assert_eq!(
            c.read_selection(ds, &Selection::Slab(Hyperslab::range1(0, 4)))
                .unwrap(),
            [7u8; 4]
        );
        // The cursor sits after the last valid record: new appends reuse
        // the torn region.
        let e = recovered
            .append(ds, &Selection::Slab(Hyperslab::range1(4, 4)), &[3u8; 4])
            .unwrap();
        assert!(e.offset < torn.offset + torn.len + 64);
    }

    #[test]
    fn recovery_counts_orphans_without_failing() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (c, ds) = container_with_ds(4);
        // A record aimed at a dataset id that does not exist.
        let bogus = ds + 999;
        log.append(bogus, &Selection::All, &[1u8; 4]).unwrap();
        log.append(ds, &Selection::All, &[2u8; 4]).unwrap();
        let report = StagingLog::open(dev).recover_into(&c).unwrap();
        assert_eq!(report.orphaned, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(c.read_selection(ds, &Selection::All).unwrap(), [2u8; 4]);
    }

    /// Frame `data` exactly as `append` would, but with a caller-chosen
    /// seq — for forging checksum-valid frames that must not chain.
    fn raw_frame(seq: u64, ds: ObjectId, data: &[u8]) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(seq);
        body.u64(ds);
        encode_selection(&mut body, &Selection::All);
        body.u64(data.len() as u64);
        let mut body = body.into_bytes();
        body.extend_from_slice(data);
        let mut rec = Vec::new();
        rec.extend_from_slice(&REC_MAGIC.to_le_bytes());
        rec.extend_from_slice(&(body.len() as u64).to_le_bytes());
        rec.extend_from_slice(&body);
        rec.extend_from_slice(&fnv1a64(FNV_BASIS, &body).to_le_bytes());
        rec.push(0);
        rec
    }

    #[test]
    fn failed_append_leaves_no_hole_in_the_log() {
        // The second append's device write fails: the cursor must not
        // advance past the failed slot, so the third (acknowledged)
        // append rewrites it and the whole log stays recoverable.
        let plan = h5lite::FaultPlan::new(1).fail_at(
            h5lite::FaultOp::Write,
            1,
            h5lite::FaultKind::Persistent,
        );
        let dev: Arc<dyn StorageBackend> = Arc::new(h5lite::FaultInjector::new(
            Arc::new(MemBackend::new()),
            plan,
        ));
        let log = StagingLog::new(dev.clone());
        let (c, ds) = container_with_ds(8);
        log.append(ds, &Selection::Slab(Hyperslab::range1(0, 4)), &[1u8; 4])
            .unwrap();
        let before = log.bytes_used();
        let err = log
            .append(ds, &Selection::Slab(Hyperslab::range1(4, 4)), &[2u8; 4])
            .unwrap_err();
        assert!(err.is_device_fault());
        assert_eq!(
            log.bytes_used(),
            before,
            "failed append must not advance the cursor"
        );
        log.append(ds, &Selection::Slab(Hyperslab::range1(4, 4)), &[3u8; 4])
            .unwrap();

        let report = StagingLog::open(dev).recover_into(&c).unwrap();
        assert_eq!(report.scanned, 2, "no hole: both acked records found");
        assert_eq!(report.replayed, 2);
        assert_eq!(
            c.read_selection(ds, &Selection::All).unwrap(),
            [1, 1, 1, 1, 3, 3, 3, 3]
        );
    }

    #[test]
    fn scan_treats_corrupt_length_fields_as_torn_tail() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (_, ds) = container_with_ds(8);
        log.append(ds, &Selection::All, &[1u8; 4]).unwrap();
        // A frame whose length field overflows the span arithmetic —
        // must end the scan, not panic the recovery path.
        let mut evil = Vec::new();
        evil.extend_from_slice(&REC_MAGIC.to_le_bytes());
        evil.extend_from_slice(&(u64::MAX - 4).to_le_bytes());
        dev.write_at(log.bytes_used(), &evil).unwrap();
        let reopened = StagingLog::open(dev.clone());
        assert_eq!(reopened.bytes_used(), log.bytes_used());
        // And one that survives checked_add but overflows pos + total.
        let mut evil2 = Vec::new();
        evil2.extend_from_slice(&REC_MAGIC.to_le_bytes());
        evil2.extend_from_slice(&(u64::MAX - 64).to_le_bytes());
        dev.write_at(log.bytes_used(), &evil2).unwrap();
        let reopened = StagingLog::open(dev);
        assert_eq!(reopened.bytes_used(), log.bytes_used());
    }

    #[test]
    fn scan_rejects_checksum_valid_frames_with_broken_seq_chain() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let (_, ds) = container_with_ds(8);
        log.append(ds, &Selection::All, &[1u8; 4]).unwrap(); // seq 0
        // A stale frame (say, from a previous log generation) right
        // after the tail: checksum-valid, but seq 7 does not chain.
        let stale = raw_frame(7, ds, &[9u8; 4]);
        dev.write_at(log.bytes_used(), &stale).unwrap();
        let recs = StagingLog::scan(&(dev.clone() as Arc<dyn StorageBackend>));
        assert_eq!(recs.len(), 1, "non-chaining seq ends the scan");
        // The same frame with the chaining seq is accepted.
        let next = raw_frame(1, ds, &[9u8; 4]);
        dev.write_at(log.bytes_used(), &next).unwrap();
        let recs = StagingLog::scan(&(dev as Arc<dyn StorageBackend>));
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn selection_roundtrips_through_the_wal() {
        let dev = Arc::new(MemBackend::new());
        let log = StagingLog::new(dev.clone());
        let sel = Selection::Slab(Hyperslab {
            start: vec![2, 0],
            count: vec![2, 3],
            stride: Some(vec![2, 1]),
        });
        let (_, ds) = container_with_ds(64);
        log.append(ds, &sel, &[5u8; 6]).unwrap();
        let recs = StagingLog::scan(&(dev as Arc<dyn StorageBackend>));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].sel, sel);
        assert_eq!(recs[0].payload, vec![5u8; 6]);
        assert!(!recs[0].applied);
    }
}
