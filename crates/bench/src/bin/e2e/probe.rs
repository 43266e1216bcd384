//! Benchmark-owned wrappers that measure a layer from outside: the
//! program under test is not edited, so the only places to stand are its
//! public traits. [`ProbeVol`] sits between `h5lite::api` and the
//! connector, [`ProbeBackend`] between the container/ring and the
//! device. Both forward every method (the vectored ones as vectored
//! calls, never re-expressed as scalar ones) and record spans through
//! the `apio_trace` guard API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apio_trace::Tracer;
use h5lite::container::DatasetInfo;
use h5lite::storage::{IoVec, IoVecMut};
use h5lite::superblock::SUPERBLOCK_AREA;
use h5lite::{
    Container, Dataspace, Datatype, Layout, ObjectId, ReadRequest, Request, Result, Selection,
    StorageBackend, Vol,
};

/// Which connector entry point a [`VolCall`] timed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VolOp {
    Write,
    Read,
    Wait,
    WaitAll,
    Flush,
}

/// One timed call into the wrapped connector.
#[derive(Clone, Copy, Debug)]
pub struct VolCall {
    pub op: VolOp,
    pub secs: f64,
}

/// Times every data-path call into the wrapped [`Vol`].
pub struct ProbeVol {
    inner: Arc<dyn Vol>,
    tracer: Tracer,
    calls: Mutex<Vec<VolCall>>,
}

impl ProbeVol {
    pub fn new(inner: Arc<dyn Vol>, tracer: Tracer) -> Self {
        ProbeVol {
            inner,
            tracer,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Drain the calls recorded since the previous drain.
    pub fn take_calls(&self) -> Vec<VolCall> {
        std::mem::take(&mut *self.calls.lock().expect("probe call log poisoned"))
    }

    fn timed<R>(&self, op: VolOp, f: impl FnOnce() -> R) -> R {
        let _span = self.tracer.span("bench.vol_call");
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("probe call log poisoned")
            .push(VolCall { op, secs });
        out
    }
}

impl Vol for ProbeVol {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dataset_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: &[u8],
    ) -> Result<Request> {
        self.timed(VolOp::Write, || self.inner.dataset_write(c, ds, sel, data))
    }

    fn dataset_read(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
    ) -> Result<ReadRequest> {
        self.timed(VolOp::Read, || self.inner.dataset_read(c, ds, sel))
    }

    fn wait(&self, req: Request) -> Result<()> {
        self.timed(VolOp::Wait, || self.inner.wait(req))
    }

    fn wait_all(&self) -> Result<()> {
        self.timed(VolOp::WaitAll, || self.inner.wait_all())
    }

    fn file_flush(&self, c: &Arc<Container>) -> Result<()> {
        self.timed(VolOp::Flush, || self.inner.file_flush(c))
    }

    fn group_create(&self, c: &Arc<Container>, parent: ObjectId, name: &str) -> Result<ObjectId> {
        self.inner.group_create(c, parent, name)
    }

    fn dataset_create(
        &self,
        c: &Arc<Container>,
        parent: ObjectId,
        name: &str,
        dtype: Datatype,
        space: &Dataspace,
        layout: Layout,
    ) -> Result<ObjectId> {
        self.inner
            .dataset_create(c, parent, name, dtype, space, layout)
    }

    fn link_lookup(&self, c: &Arc<Container>, parent: ObjectId, name: &str) -> Result<ObjectId> {
        self.inner.link_lookup(c, parent, name)
    }

    fn dataset_info(&self, c: &Arc<Container>, ds: ObjectId) -> Result<DatasetInfo> {
        self.inner.dataset_info(c, ds)
    }
}

/// What a [`ProbeBackend`] has seen. A scalar call counts as a batch of
/// one segment, so batches and segments are comparable across paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounts {
    pub write_batches: u64,
    pub write_segments: u64,
    pub bytes_written: u64,
    pub write_nanos: u64,
    pub read_calls: u64,
    pub bytes_read: u64,
    pub read_nanos: u64,
    pub sync_calls: u64,
    pub sync_nanos: u64,
    /// Writes that start inside the dual-slot superblock area.
    pub superblock_writes: u64,
}

impl BackendCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &BackendCounts) -> BackendCounts {
        BackendCounts {
            write_batches: self.write_batches - earlier.write_batches,
            write_segments: self.write_segments - earlier.write_segments,
            bytes_written: self.bytes_written - earlier.bytes_written,
            write_nanos: self.write_nanos - earlier.write_nanos,
            read_calls: self.read_calls - earlier.read_calls,
            bytes_read: self.bytes_read - earlier.bytes_read,
            read_nanos: self.read_nanos - earlier.read_nanos,
            sync_calls: self.sync_calls - earlier.sync_calls,
            sync_nanos: self.sync_nanos - earlier.sync_nanos,
            superblock_writes: self.superblock_writes - earlier.superblock_writes,
        }
    }
}

// Statistics only: each cell publishes nothing but its own value, and
// they are read after the threads that bump them have been drained.
#[derive(Default)]
struct Cells {
    write_batches: AtomicU64,
    write_segments: AtomicU64,
    bytes_written: AtomicU64,
    write_nanos: AtomicU64,
    read_calls: AtomicU64,
    bytes_read: AtomicU64,
    read_nanos: AtomicU64,
    sync_calls: AtomicU64,
    sync_nanos: AtomicU64,
    superblock_writes: AtomicU64,
}

/// Counts and times every call into the wrapped [`StorageBackend`].
pub struct ProbeBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Tracer,
    cells: Cells,
}

impl ProbeBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Tracer) -> Self {
        ProbeBackend {
            inner,
            tracer,
            cells: Cells::default(),
        }
    }

    pub fn counts(&self) -> BackendCounts {
        let c = &self.cells;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        BackendCounts {
            write_batches: get(&c.write_batches),
            write_segments: get(&c.write_segments),
            bytes_written: get(&c.bytes_written),
            write_nanos: get(&c.write_nanos),
            read_calls: get(&c.read_calls),
            bytes_read: get(&c.bytes_read),
            read_nanos: get(&c.read_nanos),
            sync_calls: get(&c.sync_calls),
            sync_nanos: get(&c.sync_nanos),
            superblock_writes: get(&c.superblock_writes),
        }
    }

    fn note_write(&self, segments: u64, bytes: u64, superblock: u64, t0: Instant) {
        let c = &self.cells;
        c.write_batches.fetch_add(1, Ordering::Relaxed);
        c.write_segments.fetch_add(segments, Ordering::Relaxed);
        c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        c.superblock_writes.fetch_add(superblock, Ordering::Relaxed);
        c.write_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn note_read(&self, bytes: u64, t0: Instant) {
        let c = &self.cells;
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        c.read_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl StorageBackend for ProbeBackend {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _span = self.tracer.span("bench.backend_batch");
        let t0 = Instant::now();
        let out = self.inner.write_at(offset, data);
        self.note_write(
            1,
            data.len() as u64,
            u64::from(offset < SUPERBLOCK_AREA),
            t0,
        );
        out
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _span = self.tracer.span("bench.backend_batch");
        let t0 = Instant::now();
        let out = self.inner.read_at(offset, buf);
        self.note_read(buf.len() as u64, t0);
        out
    }

    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        let _span = self.tracer.span("bench.backend_batch");
        let t0 = Instant::now();
        let out = self.inner.write_vectored_at(batch);
        let bytes = batch.iter().map(|s| s.data.len() as u64).sum();
        let superblock = batch.iter().filter(|s| s.offset < SUPERBLOCK_AREA).count();
        self.note_write(batch.len() as u64, bytes, superblock as u64, t0);
        out
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        let _span = self.tracer.span("bench.backend_batch");
        let t0 = Instant::now();
        let out = self.inner.read_vectored_at(batch);
        self.note_read(batch.iter().map(|s| s.buf.len() as u64).sum(), t0);
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sync(&self) -> Result<()> {
        let _span = self.tracer.span("bench.backend_sync");
        let t0 = Instant::now();
        let out = self.inner.sync();
        self.cells.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.cells
            .sync_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::{File, Hyperslab, MemBackend, NativeVol};

    /// One strided + one contiguous write, a flush and a read-back
    /// through the public API; returns the device image and the data
    /// read.
    fn drive(backend: Arc<dyn StorageBackend>, vol: Arc<dyn Vol>) -> (Vec<u8>, Vec<f32>) {
        let file = File::from_parts(Arc::new(Container::create(backend.clone())), vol);
        let ds = file
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1(64))
            .unwrap();
        let even: Vec<f32> = (0..32).map(|i| i as f32).collect();
        ds.write_slab(&Hyperslab::strided(&[0], &[32], &[2]), &even)
            .unwrap();
        ds.write_slab(&Hyperslab::range1(1, 1), &[0.5f32]).unwrap();
        file.flush().unwrap();
        let back = ds.read::<f32>().unwrap();
        let mut image = vec![0u8; backend.len() as usize];
        backend.read_at(0, &mut image).unwrap();
        (image, back)
    }

    #[test]
    fn probed_run_is_byte_identical_to_unprobed() {
        let plain = drive(Arc::new(MemBackend::new()), Arc::new(NativeVol::new()));
        let tracer = Tracer::new();
        let probed_backend = Arc::new(ProbeBackend::new(
            Arc::new(MemBackend::new()),
            tracer.clone(),
        ));
        let probed_vol = Arc::new(ProbeVol::new(Arc::new(NativeVol::new()), tracer));
        let probed = drive(probed_backend.clone(), probed_vol.clone());
        assert_eq!(plain.1, probed.1, "data read back");
        assert_eq!(plain.0, probed.0, "device image");
        let ops: Vec<VolOp> = probed_vol.take_calls().iter().map(|c| c.op).collect();
        assert_eq!(
            ops,
            [
                VolOp::Write,
                VolOp::Wait,
                VolOp::Write,
                VolOp::Wait,
                VolOp::Flush,
                VolOp::Read
            ]
        );
        assert!(probed_vol.take_calls().is_empty(), "take drains the log");
        assert!(probed_backend.counts().bytes_written > 0);
    }

    #[test]
    fn backend_counts_are_exact_for_a_hand_built_plan() {
        let probe = ProbeBackend::new(Arc::new(MemBackend::new()), Tracer::disabled());
        let (a, b, c) = ([1u8; 10], [2u8; 20], [3u8; 30]);
        probe
            .write_vectored_at(&[
                IoVec {
                    offset: 0,
                    data: &a,
                },
                IoVec {
                    offset: 100,
                    data: &b,
                },
                IoVec {
                    offset: 1000,
                    data: &c,
                },
            ])
            .unwrap();
        probe.write_at(SUPERBLOCK_AREA, &[9u8; 5]).unwrap();
        probe.write_at(SUPERBLOCK_AREA - 1, &[9u8; 1]).unwrap();
        let before_reads = probe.counts();
        assert_eq!(
            (
                before_reads.write_batches,
                before_reads.write_segments,
                before_reads.bytes_written,
                before_reads.superblock_writes
            ),
            (3, 5, 66, 3),
            "offsets 0, 100 and 127 lie inside the 128-byte superblock area"
        );
        let (mut x, mut y) = ([0u8; 10], [0u8; 30]);
        probe
            .read_vectored_at(&mut [
                IoVecMut {
                    offset: 0,
                    buf: &mut x,
                },
                IoVecMut {
                    offset: 1000,
                    buf: &mut y,
                },
            ])
            .unwrap();
        let mut z = [0u8; 20];
        probe.read_at(100, &mut z).unwrap();
        probe.sync().unwrap();
        assert_eq!((x, z, y), (a, b, c), "vectored calls are forwarded intact");
        let delta = probe.counts().since(&before_reads);
        assert_eq!(
            (
                delta.read_calls,
                delta.bytes_read,
                delta.sync_calls,
                delta.write_batches
            ),
            (2, 60, 1, 0)
        );
        assert_eq!(probe.len(), 1030);
    }
}
