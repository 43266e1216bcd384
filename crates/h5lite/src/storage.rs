//! Storage backends: the flat address space under a container.
//!
//! A backend is a sparse, growable array of bytes addressed by `u64`
//! offsets. All methods take `&self` — the async VOL's background streams
//! read and write concurrently with the application thread, so interior
//! synchronization is part of the contract. The file backend uses
//! positional I/O (`pread`/`pwrite`), which the OS serializes per-range;
//! the memory backend is sharded into fixed-size pages, each shard behind
//! its own `RwLock`, so concurrent background streams touching disjoint
//! extents proceed in parallel instead of serializing on one lock.
//!
//! A backend has one body per direction: it writes and reads *vectored*
//! batches ([`StorageBackend::write_vectored_at`] /
//! [`StorageBackend::read_vectored_at`]) of `(offset, bytes)` segments,
//! and a scalar `write_at`/`read_at` is the trait's batch of one segment,
//! so a device call is one request whatever its shape. Batches are the
//! unit the I/O planner ([`crate::plan`]) emits: a backend charges
//! per-request costs (latency, fault-plan bookkeeping, crash points) once
//! per *segment* where the semantics require it ([`FaultInjector`],
//! [`CrashBackend`]) and once per *call* where a real device would
//! amortise them ([`ThrottledBackend`]). Segments are processed in order;
//! on error, segments before the failing one may already be applied —
//! exactly the partial state the same segments, one call each, would
//! leave.
//!
//! A device that serves several requests at once spreads a call over
//! them itself, as a parallel file system stripes a request over its
//! targets: a [`ThrottledBackend`] books one channel per
//! [`PIECE_BLOCKS`] blocks of a call, read or write, all at one
//! instant. So a client makes each read and each write one call, on its
//! own thread ([`write_windowed`]), and spawns nothing to reach the
//! device's aggregate rate.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::checksum::SUM_BLOCK;
use crate::error::{H5Error, Result};
use crate::plan::COALESCE_WINDOW;
use crate::sync::{Mutex, RwLock};

/// One segment of a vectored write: `data` destined for `offset`.
#[derive(Debug)]
pub struct IoVec<'a> {
    /// Backend byte offset the segment lands at.
    pub offset: u64,
    /// Payload bytes.
    pub data: &'a [u8],
}

/// One segment of a vectored read: fill `buf` from `offset`.
#[derive(Debug)]
pub struct IoVecMut<'a> {
    /// Backend byte offset the segment starts at.
    pub offset: u64,
    /// Destination buffer; exactly `buf.len()` bytes are read.
    pub buf: &'a mut [u8],
}

/// A flat, concurrently accessible byte address space.
pub trait StorageBackend: Send + Sync {
    /// Write every segment of `batch`, in order, growing the space as
    /// needed. On error, segments before the failing one may already be
    /// applied; a backend may amortise per-request costs across the batch.
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()>;

    /// Fill every segment of `batch` exactly, in order. Reading past the
    /// end is an error (the container never does it on valid metadata).
    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()>;

    /// Write `data` at `offset`: a batch of one segment.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_vectored_at(&[IoVec { offset, data }])
    }

    /// Read exactly `buf.len()` bytes at `offset`: a batch of one segment.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_vectored_at(&mut [IoVecMut { offset, buf }])
    }

    /// One past the highest byte ever written.
    fn len(&self) -> u64;

    /// Whether nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush to durable storage (no-op for memory).
    fn sync(&self) -> Result<()>;
}

/// Blocks a share of a device call holds at least: two [`SUM_BLOCK`]s,
/// 128 KiB. A [`ThrottledBackend`] call books one channel per share;
/// below two shares' worth, the call is one share.
pub(crate) const PIECE_BLOCKS: u64 = 2;

/// Write `batch` in order, as vectored calls of at most
/// [`COALESCE_WINDOW`] segments: the one write body of a ring's reaper
/// pass and a container's window write. A device that serves several
/// requests at once spreads a call over them itself
/// ([`ThrottledBackend`]), so the call is made whole, on the caller.
pub(crate) fn write_windowed(backend: &dyn StorageBackend, batch: &[IoVec<'_>]) -> Result<()> {
    batch
        .chunks(COALESCE_WINDOW)
        .try_for_each(|window| backend.write_vectored_at(window))
}

/// Read `batch` as vectored calls of at most [`COALESCE_WINDOW`]
/// segments, in order, on the caller: the read twin of
/// [`write_windowed`], so a device charges a read of many segments as
/// many calls as the same write.
pub(crate) fn read_windowed(backend: &dyn StorageBackend, batch: &mut [IoVecMut<'_>]) -> Result<()> {
    batch
        .chunks_mut(COALESCE_WINDOW)
        .try_for_each(|window| backend.read_vectored_at(window))
}

/// Bytes per page of the sharded memory backend.
const PAGE_BYTES: usize = 64 * 1024;

/// Number of lock shards; pages map to shards round-robin by page index,
/// so neighbouring pages land on different shards and a large sequential
/// write still spreads across locks.
const SHARD_COUNT: usize = 16;

/// In-memory backend for tests and simulation-backed containers.
///
/// Storage is a sparse map of fixed-size pages ([`PAGE_BYTES`]) sharded
/// across [`SHARD_COUNT`] independent `RwLock`s; the logical length is a
/// lock-free high-water mark. Pages inside the length that were never
/// written read as zeros (the backends' gap-fill contract).
pub struct MemBackend {
    shards: Vec<RwLock<BTreeMap<u64, Box<[u8]>>>>,
    len: AtomicU64,
}

impl Default for MemBackend {
    fn default() -> Self {
        MemBackend::new()
    }
}

impl MemBackend {
    /// An empty in-memory space.
    pub fn new() -> Self {
        MemBackend {
            shards: (0..SHARD_COUNT).map(|_| RwLock::new(BTreeMap::new())).collect(),
            len: AtomicU64::new(0),
        }
    }

    /// Validate `offset + len` and return the exclusive end offset.
    fn span_end(offset: u64, len: usize, what: &str) -> Result<u64> {
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| H5Error::Storage(format!("{what} offset overflow")))?;
        usize::try_from(end)
            .map_err(|_| H5Error::Storage(format!("{what} beyond addressable memory")))?;
        Ok(end)
    }

    /// Copy `data` into the page map without touching the length
    /// high-water mark (the caller publishes the new length).
    fn copy_in(&self, offset: u64, data: &[u8]) {
        let mut pos = offset;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let page = pos / PAGE_BYTES as u64;
            let within = (pos % PAGE_BYTES as u64) as usize;
            let take = (PAGE_BYTES - within).min(data.len() - cursor);
            let mut shard = self.shards[(page % SHARD_COUNT as u64) as usize].write();
            let buf = shard
                .entry(page)
                .or_insert_with(|| vec![0u8; PAGE_BYTES].into_boxed_slice());
            buf[within..within + take].copy_from_slice(&data[cursor..cursor + take]);
            drop(shard);
            pos += take as u64;
            cursor += take;
        }
    }

    /// Copy bytes out of the page map; absent pages read as zeros. The
    /// caller has already bounds-checked against the logical length.
    fn copy_out(&self, offset: u64, out: &mut [u8]) {
        let mut pos = offset;
        let mut cursor = 0usize;
        while cursor < out.len() {
            let page = pos / PAGE_BYTES as u64;
            let within = (pos % PAGE_BYTES as u64) as usize;
            let take = (PAGE_BYTES - within).min(out.len() - cursor);
            let shard = self.shards[(page % SHARD_COUNT as u64) as usize].read();
            match shard.get(&page) {
                Some(buf) => out[cursor..cursor + take].copy_from_slice(&buf[within..within + take]),
                None => out[cursor..cursor + take].fill(0),
            }
            drop(shard);
            pos += take as u64;
            cursor += take;
        }
    }
}

impl StorageBackend for MemBackend {
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        // Validate every segment up front so a malformed batch writes
        // nothing, then copy, then publish the new length once.
        let mut max_end = 0u64;
        for seg in batch {
            max_end = max_end.max(Self::span_end(seg.offset, seg.data.len(), "write")?);
        }
        for seg in batch {
            self.copy_in(seg.offset, seg.data);
        }
        self.len.fetch_max(max_end, Ordering::AcqRel);
        Ok(())
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        // Bounds-check the whole batch against one length snapshot, then
        // copy; each page copy still takes only its own shard lock.
        let len = self.len.load(Ordering::Acquire);
        for seg in batch.iter() {
            let end = Self::span_end(seg.offset, seg.buf.len(), "read")?;
            if end > len {
                return Err(H5Error::Storage(format!(
                    "short read: wanted {}..{end}, backend has {len}",
                    seg.offset
                )));
            }
        }
        for seg in batch.iter_mut() {
            self.copy_out(seg.offset, seg.buf);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// File-backed storage using positional I/O, safe for concurrent use by
/// background I/O threads.
pub struct FileBackend {
    file: std::fs::File,
    /// Highest end-of-write seen; kept locally because `metadata()` is a
    /// syscall and the container asks for `len` on every allocation.
    len: AtomicU64,
}

impl FileBackend {
    /// Create (or truncate) a file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileBackend {
            file,
            len: AtomicU64::new(0),
        })
    }

    /// Open an existing file read-write.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBackend {
            file,
            len: AtomicU64::new(len),
        })
    }
}

impl StorageBackend for FileBackend {
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        // Single pass of positional writes, one length update for the
        // whole batch.
        let mut max_end = 0u64;
        for seg in batch {
            self.file.write_all_at(seg.data, seg.offset)?;
            max_end = max_end.max(seg.offset.saturating_add(seg.data.len() as u64));
        }
        self.len.fetch_max(max_end, Ordering::AcqRel);
        Ok(())
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        for seg in batch.iter_mut() {
            self.file.read_exact_at(seg.buf, seg.offset)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// A backend that throttles another backend to a fixed bandwidth and
/// per-operation latency — a stand-in for a parallel file system when
/// demonstrating asynchronous I/O on a machine whose real storage is as
/// fast as memory. The throttle burns wall-clock time on the *calling*
/// thread, so a synchronous write blocks the application while the async
/// VOL's background stream absorbs the delay.
///
/// The bandwidth can be stepped mid-run ([`set_bandwidth`]
/// (ThrottledBackend::set_bandwidth)) to emulate a storage regime change
/// — the stimulus the drift-detection tests use to exercise the model's
/// stale-fit invalidation.
///
/// Concurrency is modelled with a fixed pool of *channels* (think PFS
/// stripes / NVMe queue pairs) booked in virtual time. A call of `bytes`
/// is striped by the device, as a PFS stripes a file over its targets:
/// it books `n` channels at one instant, the earliest-free ones, one per
/// [`PIECE_BLOCKS`] blocks of payload and at most all of them, each for
/// `latency + (bytes/n)/bandwidth`, whether it reads or writes. So one
/// large call reaches the device's aggregate rate with no client
/// threads. A call books, runs the inner call, then sleeps until its
/// latest booked end: it costs its modelled service time, with the inner
/// call's own time inside it, and a failed inner call still costs its
/// booking. Up to `channels` requests overlap their stalls; beyond that,
/// requests queue behind the busiest-free channel. Depth 1 pays one
/// latency per op; depth
/// `<= channels` overlaps them; only *coalescing* (one vectored batch,
/// one latency) keeps winning past the cap — which is exactly the regime
/// a queue-depth sweep needs to measure.
pub struct ThrottledBackend {
    inner: Box<dyn StorageBackend>,
    /// Sustained bandwidth, bytes/s, stored as `f64` bits so concurrent
    /// I/O threads see a mid-run step without locking.
    bandwidth_bits: AtomicU64,
    /// Per-operation latency, seconds.
    latency: f64,
    /// Virtual-time channel bookings; the lock is held only to book the
    /// channels — the inner call and the sleep happen outside it.
    channels: Mutex<Channels>,
}

/// Per-channel virtual-time bookkeeping for [`ThrottledBackend`].
struct Channels {
    /// Zero point of the virtual clock.
    epoch: std::time::Instant,
    /// Seconds-since-epoch at which each channel is next free. Channels
    /// are interchangeable, so their order carries no meaning.
    free_at: Vec<f64>,
}

impl ThrottledBackend {
    /// Default concurrency cap: matches the handful of service lanes a
    /// single client typically gets from a PFS or an NVMe namespace.
    pub const DEFAULT_CHANNELS: usize = 4;

    /// Throttle `inner` to `bandwidth` bytes/s plus `latency` per op,
    /// with [`DEFAULT_CHANNELS`](Self::DEFAULT_CHANNELS) in-flight lanes.
    pub fn new(inner: Box<dyn StorageBackend>, bandwidth: f64, latency: f64) -> Self {
        Self::with_channel_count(inner, bandwidth, latency, Self::DEFAULT_CHANNELS)
    }

    /// Throttle `inner` with an explicit in-flight concurrency cap.
    pub fn with_channel_count(
        inner: Box<dyn StorageBackend>,
        bandwidth: f64,
        latency: f64,
        channels: usize,
    ) -> Self {
        assert!(bandwidth > 0.0 && latency >= 0.0 && channels >= 1);
        ThrottledBackend {
            inner,
            bandwidth_bits: AtomicU64::new(bandwidth.to_bits()),
            latency,
            channels: Mutex::new(Channels {
                epoch: std::time::Instant::now(),
                free_at: vec![0.0; channels],
            }),
        }
    }

    /// Throttle a fresh in-memory backend.
    pub fn in_memory(bandwidth: f64, latency: f64) -> Self {
        Self::new(Box::new(MemBackend::new()), bandwidth, latency)
    }

    /// Throttle a fresh in-memory backend with an explicit channel cap.
    pub fn with_channels(bandwidth: f64, latency: f64, channels: usize) -> Self {
        Self::with_channel_count(Box::new(MemBackend::new()), bandwidth, latency, channels)
    }

    /// The current sustained bandwidth, bytes/s.
    pub fn bandwidth(&self) -> f64 {
        f64::from_bits(self.bandwidth_bits.load(Ordering::Relaxed))
    }

    /// Step the sustained bandwidth mid-run (must stay positive).
    /// Operations already in their stall finish at the old rate; every
    /// subsequent operation pays the new one.
    pub fn set_bandwidth(&self, bandwidth: f64) {
        assert!(bandwidth > 0.0);
        self.bandwidth_bits
            .store(bandwidth.to_bits(), Ordering::Relaxed);
    }

    /// Book a call of `bytes` payload arriving at `now` (virtual seconds)
    /// on `ch` and return the latest booked end: a read or a write over
    /// `n = clamp(bytes / (PIECE_BLOCKS·SUM_BLOCK), 1, channels)`
    /// channels, each the earliest free and each for `latency +
    /// (bytes/n)/bandwidth`. Per-batch accounting falls out of this — a
    /// vectored call is *one* booking for its total bytes.
    fn book(&self, ch: &mut Channels, now: f64, bytes: usize) -> f64 {
        let shares = bytes as u64 / (PIECE_BLOCKS * SUM_BLOCK);
        let n = shares.clamp(1, ch.free_at.len() as u64) as usize;
        let service = self.latency + bytes as f64 / n as f64 / self.bandwidth();
        ch.free_at.sort_unstable_by(f64::total_cmp);
        ch.free_at[..n].iter_mut().fold(now, |end, free| {
            *free = free.max(now) + service;
            end.max(*free)
        })
    }

    /// Run `call`, the inner half of a call of `bytes` payload, inside its
    /// booking ([`book`](Self::book)): book, call, then sleep until the
    /// latest booked end, whatever the call returned.
    fn serve(&self, bytes: usize, call: impl FnOnce() -> Result<()>) -> Result<()> {
        let deadline = {
            let mut ch = self.channels.lock();
            let now = ch.epoch.elapsed().as_secs_f64();
            let end = self.book(&mut ch, now, bytes);
            ch.epoch + std::time::Duration::from_secs_f64(end)
        };
        let out = call();
        let now = std::time::Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        out
    }
}

impl StorageBackend for ThrottledBackend {
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        // One latency charge per batch, bandwidth on the total bytes —
        // the way a PFS amortises request latency across a large
        // scatter-gather request. This is the modelled payoff of
        // coalescing: N calls pay N latencies, one batch pays one.
        let total: usize = batch.iter().map(|seg| seg.data.len()).sum();
        self.serve(total, || self.inner.write_vectored_at(batch))
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        let total: usize = batch.iter().map(|seg| seg.buf.len()).sum();
        self.serve(total, || self.inner.read_vectored_at(batch))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

/// Which backend operation a [`FaultRule`] applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultOp {
    /// One read segment.
    Read,
    /// One write segment.
    Write,
    /// `sync` (flush to durable storage).
    Flush,
}

/// What happens when a fault rule fires.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Fail with [`H5Error::Transient`]: a retry of the same operation
    /// may succeed (the rule may be budget-limited via
    /// [`FaultPlan::times`]).
    Transient,
    /// Fail with [`H5Error::Storage`]: the device is gone; retrying the
    /// same operation cannot help.
    Persistent,
    /// Torn write: persist only the leading `fraction` of the payload,
    /// then fail with [`H5Error::Transient`]. A full rewrite (the retry
    /// path) repairs the tear, which is why it classifies as transient.
    /// Applies to writes only; on other ops it degrades to `Transient`.
    Torn {
        /// Fraction of the payload (0.0..=1.0) written before the error.
        fraction: f64,
    },
    /// Latency spike: stall the calling thread for `secs`, then let the
    /// operation through untouched.
    Delay {
        /// Stall duration in seconds.
        secs: f64,
    },
    /// Silent corruption: the read succeeds, but one seeded bit of the
    /// returned payload is flipped — the backend itself is untouched, so
    /// only checksum verification can notice. Applies to reads only; on
    /// other ops it degrades to `Transient`.
    Corrupt,
}

#[derive(Clone, Debug)]
enum Trigger {
    /// Fire on exactly the `n`-th operation of the class (0-based).
    At(u64),
    /// Fire on every operation of the class with index >= `n`.
    After(u64),
    /// Fire on each operation of the class independently with
    /// probability `rate`, drawn from the plan's seeded generator.
    Random(f64),
}

#[derive(Clone, Debug)]
struct FaultRule {
    op: FaultOp,
    trigger: Trigger,
    kind: FaultKind,
    /// Remaining firings (`None` = unlimited).
    budget: Option<u64>,
}

/// A deterministic, seeded schedule of storage faults.
///
/// A plan is a list of rules; each backend operation is classified
/// ([`FaultOp`]), its per-class index taken, and the first matching rule
/// with budget left fires. Random triggers draw from one LCG seeded at
/// construction, so the same plan against the same operation sequence
/// injects the same faults — chaos tests replay exactly.
///
/// Determinism holds per operation *sequence*: concurrent callers that
/// race their operations will interleave class indices
/// nondeterministically, so deterministic tests should drive the backend
/// from one stream (e.g. a single-stream async connector).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Fire `kind` on exactly the `index`-th operation of class `op`.
    pub fn fail_at(mut self, op: FaultOp, index: u64, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            op,
            trigger: Trigger::At(index),
            kind,
            budget: None,
        });
        self
    }

    /// Fire `kind` on every operation of class `op` from `index` onward.
    pub fn fail_after(mut self, op: FaultOp, index: u64, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            op,
            trigger: Trigger::After(index),
            kind,
            budget: None,
        });
        self
    }

    /// Fire `kind` on each operation of class `op` with probability
    /// `rate` (seeded, deterministic per operation sequence).
    pub fn random(mut self, op: FaultOp, rate: f64, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            op,
            trigger: Trigger::Random(rate.clamp(0.0, 1.0)),
            kind,
            budget: None,
        });
        self
    }

    /// Cap the most recently added rule to fire at most `n` times — e.g.
    /// a persistent-error *window* that heals after `n` failures.
    pub fn times(mut self, n: u64) -> Self {
        if let Some(rule) = self.rules.last_mut() {
            rule.budget = Some(n);
        }
        self
    }
}

/// Deterministic 64-bit LCG (MMIX constants), upper bits as output: the
/// plan's random triggers here, the connector's backoff jitter in
/// `asyncvol::retry`.
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose sequence is a function of `seed` alone.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// The next draw, uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / (1u64 << 31) as f64
    }

    /// Seeded integer in `0..n` (`n` must be non-zero).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((self.unit() * n as f64) as u64).min(n.saturating_sub(1))
    }
}

struct InjectorState {
    /// Per-class operation counters, indexed Read/Write/Flush.
    counts: [u64; 3],
    /// Remaining budget per rule (mirrors `FaultPlan::rules`).
    budgets: Vec<Option<u64>>,
    rng: Lcg,
}

/// A [`StorageBackend`] wrapper executing a [`FaultPlan`] against an
/// inner backend — the fault-injection stage for exercising error paths:
/// deferred async errors, retry/backoff absorption, circuit-breaker
/// degradation, torn-flush detection, staging-log recovery.
pub struct FaultInjector {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    state: Mutex<InjectorState>,
    /// Faults injected so far (delays excluded).
    injected: AtomicU64,
    /// When disarmed, operations pass through untouched (and are not
    /// counted) — lets tests set up metadata cleanly before the chaos.
    armed: AtomicBool,
}

impl FaultInjector {
    /// Wrap `inner` under `plan`, armed.
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Self {
        let budgets = plan.rules.iter().map(|r| r.budget).collect();
        let seed = plan.seed;
        FaultInjector {
            inner,
            plan,
            state: Mutex::new(InjectorState {
                counts: [0; 3],
                budgets,
                rng: Lcg::new(seed),
            }),
            injected: AtomicU64::new(0),
            armed: AtomicBool::new(true),
        }
    }

    /// Convenience: every write after the first `writes_allowed` fails
    /// permanently.
    pub fn failing_after(inner: Arc<dyn StorageBackend>, writes_allowed: u64) -> Self {
        Self::new(
            inner,
            FaultPlan::new(0).fail_after(FaultOp::Write, writes_allowed, FaultKind::Persistent),
        )
    }

    /// Enable or disable injection. Disarmed, the wrapper is transparent
    /// and operations do not advance the plan's counters.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Total faults injected so far (delays are not counted).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// The wrapped backend (e.g. to reopen a container after a simulated
    /// crash without the injector in the path).
    pub fn into_inner(self) -> Arc<dyn StorageBackend> {
        self.inner
    }

    /// Decide the fault (if any) for the next operation of class `op`.
    /// A `Delay` is served here — the calling thread stalls, outside the
    /// plan's lock — and the operation goes through: it returns `None`.
    fn decide(&self, op: FaultOp) -> Option<FaultKind> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        match self.fire(op) {
            Some(FaultKind::Delay { secs }) => {
                std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
                None
            }
            kind => kind,
        }
    }

    /// Advance `op`'s class counter and pick the first matching rule with
    /// budget left.
    fn fire(&self, op: FaultOp) -> Option<FaultKind> {
        let mut st = self.state.lock();
        let idx = st.counts[op as usize];
        st.counts[op as usize] += 1;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.op != op {
                continue;
            }
            if st.budgets[i] == Some(0) {
                continue;
            }
            let fires = match rule.trigger {
                Trigger::At(n) => idx == n,
                Trigger::After(n) => idx >= n,
                Trigger::Random(rate) => st.rng.unit() < rate,
            };
            if fires {
                if let Some(b) = st.budgets[i].as_mut() {
                    *b -= 1;
                }
                return Some(rule.kind.clone());
            }
        }
        None
    }

    /// Build the error for a decided non-delay fault. `Torn` on a
    /// payload-free path (read/flush) degrades to a plain transient.
    fn fault_error(&self, kind: &FaultKind, what: &str) -> H5Error {
        self.injected.fetch_add(1, Ordering::SeqCst);
        match kind {
            FaultKind::Persistent => H5Error::Storage(format!("injected persistent {what} fault")),
            _ => H5Error::Transient(format!("injected transient {what} fault")),
        }
    }
}

impl StorageBackend for FaultInjector {
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        // Deliberately NOT a pass-through to the inner batch: each segment
        // consumes one fault-plan index of its class and reaches the inner
        // backend alone, so a mid-batch fault leaves segments before it
        // applied and segments after it untouched and uncounted.
        for seg in batch {
            match self.decide(FaultOp::Write) {
                None => self.inner.write_vectored_at(std::slice::from_ref(seg))?,
                Some(FaultKind::Torn { fraction }) => {
                    self.injected.fetch_add(1, Ordering::SeqCst);
                    let keep = ((seg.data.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
                    let data = &seg.data[..keep.min(seg.data.len())];
                    // Persist the tear, then report a retryable failure.
                    self.inner.write_vectored_at(&[IoVec { offset: seg.offset, data }])?;
                    return Err(H5Error::Transient(format!(
                        "injected torn write: {keep} of {} bytes persisted",
                        seg.data.len()
                    )));
                }
                Some(kind) => return Err(self.fault_error(&kind, "write")),
            }
        }
        Ok(())
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        // Same per-segment fault accounting as the write path.
        for seg in batch.iter_mut() {
            match self.decide(FaultOp::Read) {
                None => self.inner.read_vectored_at(std::slice::from_mut(seg))?,
                Some(FaultKind::Corrupt) => {
                    self.inner.read_vectored_at(std::slice::from_mut(seg))?;
                    if !seg.buf.is_empty() {
                        self.injected.fetch_add(1, Ordering::SeqCst);
                        let (byte, bit) = {
                            let mut st = self.state.lock();
                            (st.rng.below(seg.buf.len() as u64), st.rng.below(8))
                        };
                        seg.buf[byte as usize] ^= 1u8 << bit;
                    }
                }
                Some(kind) => return Err(self.fault_error(&kind, "read")),
            }
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        match self.decide(FaultOp::Flush) {
            None => self.inner.sync(),
            Some(kind) => Err(self.fault_error(&kind, "flush")),
        }
    }
}

/// A shared mutation budget with a cut point: the clock of the
/// crash-point exploration harness. Every mutation boundary — each
/// write segment, whatever the shape of its call, and each sync — asks
/// the clock for admission; once `cut_after` mutations have been
/// admitted, every later mutation is refused forever, modelling the
/// device vanishing at one deterministic instant. Share one clock
/// across several [`CrashBackend`] wrappers (container backend plus
/// staging device) and the cut lands at a single global boundary in
/// the whole stack's mutation order.
pub struct CrashClock {
    /// Mutations attempted so far (admitted or refused).
    mutations: AtomicU64,
    /// Admissions granted before the cut.
    cut_after: u64,
    /// Bytes of the boundary write (mutation index `cut_after`) that
    /// still reach the device — the torn-write mode. `None` cuts clean.
    torn_prefix: Option<u64>,
}

impl CrashClock {
    /// A clock that never cuts — the recording pass that learns how
    /// many mutation boundaries a workload has (read it back with
    /// [`CrashClock::mutations`]).
    pub fn unlimited() -> Arc<Self> {
        Self::cut_after(u64::MAX)
    }

    /// Cut persistence after the first `k` mutations: mutation indices
    /// `0..k` are admitted, everything after fails with a storage
    /// error. `k = 0` refuses the very first mutation.
    pub fn cut_after(k: u64) -> Arc<Self> {
        Arc::new(CrashClock {
            mutations: AtomicU64::new(0),
            cut_after: k,
            torn_prefix: None,
        })
    }

    /// Like [`CrashClock::cut_after`], but the boundary mutation itself
    /// *tears*: if it is a write, its first `keep_bytes` bytes (clamped
    /// to the write's length) reach the device before the error is
    /// returned — modelling the in-flight sector train a power cut
    /// chops mid-write. The caller still never gets an ack for the torn
    /// write; what the harness checks is that recovery disowns the
    /// partial bytes. A boundary `sync` cannot tear and is refused
    /// whole.
    pub fn cut_torn(k: u64, keep_bytes: u64) -> Arc<Self> {
        Arc::new(CrashClock {
            mutations: AtomicU64::new(0),
            cut_after: k,
            torn_prefix: Some(keep_bytes),
        })
    }

    /// Mutations attempted so far, admitted or refused.
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// Whether any mutation has been refused yet (the cut has fired).
    pub fn cut(&self) -> bool {
        self.mutations.load(Ordering::SeqCst) > self.cut_after
    }

    fn admit(&self) -> bool {
        self.mutations.fetch_add(1, Ordering::SeqCst) < self.cut_after
    }

    /// Admission decision for a write, distinguishing the torn
    /// boundary: `Full` before the cut, `Torn(keep)` exactly at a torn
    /// boundary, `Refused` after (and at a clean boundary).
    fn admit_write(&self) -> Admission {
        let idx = self.mutations.fetch_add(1, Ordering::SeqCst);
        if idx < self.cut_after {
            Admission::Full
        } else if idx == self.cut_after {
            match self.torn_prefix {
                Some(keep) => Admission::Torn(keep),
                None => Admission::Refused,
            }
        } else {
            Admission::Refused
        }
    }
}

enum Admission {
    Full,
    Torn(u64),
    Refused,
}

/// A [`StorageBackend`] wrapper that deterministically kills persistence
/// after the k-th mutation of its [`CrashClock`]. Refused mutations
/// return [`H5Error::Storage`] without touching the inner backend, so
/// the application never gets an ack for data past the cut. Reads pass
/// through untouched (the process's view survives until it exits; what
/// matters for durability is what the *inner* backend holds when the
/// harness reopens it). A write admits each segment separately: every
/// write segment is one mutation boundary, its own crash point, so a
/// batch cuts exactly where the same segments sent one call each would.
pub struct CrashBackend {
    inner: Arc<dyn StorageBackend>,
    clock: Arc<CrashClock>,
}

impl CrashBackend {
    /// Wrap `inner` under `clock`.
    pub fn new(inner: Arc<dyn StorageBackend>, clock: Arc<CrashClock>) -> Self {
        CrashBackend { inner, clock }
    }

    /// The wrapped backend — what the harness reopens after the
    /// simulated crash: it holds exactly the admitted mutations.
    pub fn inner(&self) -> Arc<dyn StorageBackend> {
        self.inner.clone()
    }

    fn refuse(&self, what: &str) -> H5Error {
        H5Error::Storage(format!("crash point: {what} dropped after the persistence cut"))
    }
}

impl StorageBackend for CrashBackend {
    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        // Each segment is one mutation boundary, forwarded alone.
        for seg in batch {
            match self.clock.admit_write() {
                Admission::Full => self.inner.write_vectored_at(std::slice::from_ref(seg))?,
                Admission::Torn(keep) => {
                    // The prefix lands on the device; the caller still sees
                    // the crash error — an unacked, torn in-flight write.
                    let keep = (keep as usize).min(seg.data.len());
                    if keep > 0 {
                        let data = &seg.data[..keep];
                        self.inner.write_vectored_at(&[IoVec { offset: seg.offset, data }])?;
                    }
                    return Err(self.refuse("write (torn mid-flight)"));
                }
                Admission::Refused => return Err(self.refuse("write")),
            }
        }
        Ok(())
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        self.inner.read_vectored_at(batch)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        if !self.clock.admit() {
            return Err(self.refuse("sync"));
        }
        self.inner.sync()
    }
}

/// One backend call as a [`CountingBackend`]'s hook sees it. A scalar
/// call arrives as a batch of one segment with `vectored: false`.
pub enum Call<'a, 'b> {
    /// A write, before it is forwarded.
    Write {
        /// The segments to be written, in order.
        segments: &'a [IoVec<'b>],
        /// `write_vectored_at` rather than `write_at`.
        vectored: bool,
    },
    /// A read, after the inner backend filled every segment; the hook
    /// may alter the bytes.
    Read {
        /// The segments read, in order.
        segments: &'a mut [IoVecMut<'b>],
        /// `read_vectored_at` rather than `read_at`.
        vectored: bool,
    },
    /// A sync, before it is forwarded.
    Sync,
}

/// Everything a [`CountingBackend`] has been asked, as one comparable
/// value. Each call counts as it arrives, whether or not it succeeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallCounts {
    /// `read_at` calls.
    pub reads: u64,
    /// `write_at` calls.
    pub writes: u64,
    /// `read_vectored_at` calls.
    pub read_batches: u64,
    /// `write_vectored_at` calls.
    pub write_batches: u64,
    /// Segments of every batch, read and write.
    pub segments: u64,
    /// Bytes asked of every read, scalar and vectored.
    pub bytes_read: u64,
    /// Bytes handed to every write, scalar and vectored.
    pub bytes_written: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// The most reads that were inside the inner backend at once.
    pub most_reads_in_flight: u64,
    /// The most writes that were inside the inner backend at once.
    pub most_writes_in_flight: u64,
}

/// Every count of `self` less `earlier`'s; the high-water marks are
/// `self`'s, since a peak has no difference.
impl std::ops::Sub for CallCounts {
    type Output = CallCounts;

    fn sub(self, earlier: CallCounts) -> CallCounts {
        CallCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_batches: self.read_batches - earlier.read_batches,
            write_batches: self.write_batches - earlier.write_batches,
            segments: self.segments - earlier.segments,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            most_reads_in_flight: self.most_reads_in_flight,
            most_writes_in_flight: self.most_writes_in_flight,
        }
    }
}

type Hook = dyn Fn(Call<'_, '_>) -> Result<()> + Send + Sync;

/// A [`StorageBackend`] wrapper that counts what reaches the device —
/// calls by kind, segments, bytes, syncs, and the peaks of concurrent
/// reads and writes — for tests and benchmarks that assert the work an operation
/// does rather than its time. An optional hook sees each call once:
/// writes and syncs before they are forwarded, where an `Err` forwards
/// nothing, and reads after the inner read, with the fetched bytes. The
/// hook may block, fail or panic; whatever a test needs beyond counting
/// (a gate, a thread log, an injected failure) lives there. It is the one
/// backend that overrides `write_at` / `read_at`: it reports the shape
/// the caller asked for, and forwards it unchanged.
pub struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    hook: Option<Box<Hook>>,
    reads: AtomicU64,
    writes: AtomicU64,
    read_batches: AtomicU64,
    write_batches: AtomicU64,
    segments: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
    reads_in_flight: AtomicU64,
    most_reads_in_flight: AtomicU64,
    writes_in_flight: AtomicU64,
    most_writes_in_flight: AtomicU64,
}

impl CountingBackend {
    /// Count every call to `inner`, with no hook.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        CountingBackend {
            inner,
            hook: None,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            read_batches: AtomicU64::new(0),
            write_batches: AtomicU64::new(0),
            segments: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            reads_in_flight: AtomicU64::new(0),
            most_reads_in_flight: AtomicU64::new(0),
            writes_in_flight: AtomicU64::new(0),
            most_writes_in_flight: AtomicU64::new(0),
        }
    }

    /// Run `hook` on every call (see [`Call`] for when).
    pub fn with_hook(
        mut self,
        hook: impl Fn(Call<'_, '_>) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        self.hook = Some(Box::new(hook));
        self
    }

    /// The counts so far.
    pub fn counts(&self) -> CallCounts {
        let get = |c: &AtomicU64| c.load(Ordering::SeqCst);
        CallCounts {
            reads: get(&self.reads),
            writes: get(&self.writes),
            read_batches: get(&self.read_batches),
            write_batches: get(&self.write_batches),
            segments: get(&self.segments),
            bytes_read: get(&self.bytes_read),
            bytes_written: get(&self.bytes_written),
            syncs: get(&self.syncs),
            most_reads_in_flight: get(&self.most_reads_in_flight),
            most_writes_in_flight: get(&self.most_writes_in_flight),
        }
    }

    fn hook(&self, call: Call<'_, '_>) -> Result<()> {
        self.hook.as_ref().map_or(Ok(()), |hook| hook(call))
    }

    fn count(counter: &AtomicU64, n: usize) {
        counter.fetch_add(n as u64, Ordering::SeqCst);
    }

    /// Run an inner call, tracking how many of its kind are in flight
    /// (`now`) and the most there have been (`most`).
    fn in_flight(
        now: &AtomicU64,
        most: &AtomicU64,
        call: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        most.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        let out = call();
        now.fetch_sub(1, Ordering::SeqCst);
        out
    }

    fn reading(&self, read: impl FnOnce() -> Result<()>) -> Result<()> {
        Self::in_flight(&self.reads_in_flight, &self.most_reads_in_flight, read)
    }

    fn writing(&self, write: impl FnOnce() -> Result<()>) -> Result<()> {
        Self::in_flight(&self.writes_in_flight, &self.most_writes_in_flight, write)
    }
}

impl StorageBackend for CountingBackend {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        Self::count(&self.writes, 1);
        Self::count(&self.bytes_written, data.len());
        self.hook(Call::Write { segments: &[IoVec { offset, data }], vectored: false })?;
        self.writing(|| self.inner.write_at(offset, data))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        Self::count(&self.reads, 1);
        Self::count(&self.bytes_read, buf.len());
        self.reading(|| self.inner.read_at(offset, buf))?;
        self.hook(Call::Read { segments: &mut [IoVecMut { offset, buf }], vectored: false })
    }

    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        Self::count(&self.write_batches, 1);
        Self::count(&self.segments, batch.len());
        Self::count(&self.bytes_written, batch.iter().map(|seg| seg.data.len()).sum());
        self.hook(Call::Write { segments: batch, vectored: true })?;
        self.writing(|| self.inner.write_vectored_at(batch))
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        Self::count(&self.read_batches, 1);
        Self::count(&self.segments, batch.len());
        Self::count(&self.bytes_read, batch.iter().map(|seg| seg.buf.len()).sum());
        self.reading(|| self.inner.read_vectored_at(batch))?;
        self.hook(Call::Read { segments: batch, vectored: true })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        Self::count(&self.syncs, 1);
        self.hook(Call::Sync)?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(backend: &dyn StorageBackend) {
        assert!(backend.is_empty());
        backend.write_at(0, b"hello").unwrap();
        backend.write_at(10, b"world").unwrap();
        assert_eq!(backend.len(), 15);

        let mut buf = [0u8; 5];
        backend.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        backend.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"world");

        // The gap reads as zeros.
        let mut gap = [9u8; 5];
        backend.read_at(5, &mut gap).unwrap();
        assert_eq!(gap, [0u8; 5]);

        // Overwrite in place.
        backend.write_at(0, b"HELLO").unwrap();
        backend.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"HELLO");
        assert_eq!(backend.len(), 15);

        // Reading past the end fails.
        let mut big = [0u8; 32];
        assert!(backend.read_at(0, &mut big).is_err());
        backend.sync().unwrap();
    }

    #[test]
    fn file_backend_reopen_preserves_data() {
        let dir = std::env::temp_dir().join(format!("h5lite-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.bin");
        {
            let b = FileBackend::create(&path).unwrap();
            b.write_at(100, b"persist").unwrap();
            b.sync().unwrap();
        }
        {
            let b = FileBackend::open(&path).unwrap();
            assert_eq!(b.len(), 107);
            let mut buf = [0u8; 7];
            b.read_at(100, &mut buf).unwrap();
            assert_eq!(&buf, b"persist");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let backend = Arc::new(MemBackend::new());
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let b = backend.clone();
            joins.push(std::thread::spawn(move || {
                let data = vec![t as u8 + 1; 1000];
                b.write_at(t * 1000, &data).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(backend.len(), 8000);
        for t in 0..8u64 {
            let mut buf = vec![0u8; 1000];
            backend.read_at(t * 1000, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn empty_read_at_any_offset_succeeds() {
        let b = MemBackend::new();
        let mut empty: [u8; 0] = [];
        b.read_at(0, &mut empty).unwrap();
    }

    #[test]
    fn mem_read_at_overflow_errors_instead_of_panicking() {
        // Regression: `offset as usize + out.len()` used to overflow and
        // panic in debug builds; it must be a Storage error like write_at.
        let b = MemBackend::new();
        b.write_at(0, b"x").unwrap();
        let mut buf = [0u8; 2];
        let err = b.read_at(u64::MAX, &mut buf).unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "{err:?}");
        let err = b.write_at(u64::MAX, b"yz").unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "{err:?}");
    }

    fn exercise_vectored(backend: &dyn StorageBackend) {
        // Disjoint, unordered-in-memory-but-ordered-in-batch segments.
        let a = [1u8; 10];
        let b = [2u8; 10];
        let c = [3u8; 4];
        backend
            .write_vectored_at(&[
                IoVec { offset: 0, data: &a },
                IoVec { offset: 20, data: &b },
                IoVec { offset: 40, data: &c },
            ])
            .unwrap();
        assert_eq!(backend.len(), 44);

        let mut r0 = [0u8; 10];
        let mut r1 = [9u8; 10]; // covers the 10..20 gap: must read zeros
        let mut r2 = [0u8; 4];
        backend
            .read_vectored_at(&mut [
                IoVecMut { offset: 0, buf: &mut r0 },
                IoVecMut { offset: 10, buf: &mut r1 },
                IoVecMut { offset: 40, buf: &mut r2 },
            ])
            .unwrap();
        assert_eq!(r0, [1u8; 10]);
        assert_eq!(r1, [0u8; 10]);
        assert_eq!(r2, [3u8; 4]);

        // A past-the-end segment fails the batch.
        let mut past = [0u8; 8];
        assert!(backend
            .read_vectored_at(&mut [IoVecMut { offset: 40, buf: &mut past }])
            .is_err());
    }

    #[test]
    fn every_backend_keeps_the_contract_scalar_and_vectored() {
        let dir = std::env::temp_dir().join(format!("h5lite-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contract.bin");
        let mem = || -> Arc<dyn StorageBackend> { Arc::new(MemBackend::new()) };
        type Make<'a> = &'a dyn Fn() -> Box<dyn StorageBackend>;
        let rows: [(&str, Make<'_>); 6] = [
            ("mem", &|| Box::new(MemBackend::new())),
            ("file", &|| Box::new(FileBackend::create(&path).unwrap())),
            ("throttled", &|| Box::new(ThrottledBackend::in_memory(1e12, 0.0))),
            ("counting", &|| Box::new(CountingBackend::new(mem()))),
            ("fault injector", &|| Box::new(FaultInjector::new(mem(), FaultPlan::new(0)))),
            ("crash", &|| Box::new(CrashBackend::new(mem(), CrashClock::unlimited()))),
        ];
        for (name, make) in rows {
            eprintln!("contract: {name}");
            exercise(&*make());
            exercise_vectored(&*make());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_scalar_call_is_a_batch_of_one_by_count() {
        // Four calls, scalar and one-segment batches alternating, call i
        // writing 8 bytes of `i + 1` at `8 i`; `scalar_first` picks which
        // shape the even calls have, so the third call is tried as both.
        fn call(b: &dyn StorageBackend, i: u64, scalar_first: bool) -> Result<()> {
            let data = [i as u8 + 1; 8];
            if i.is_multiple_of(2) == scalar_first {
                b.write_at(8 * i, &data)
            } else {
                b.write_vectored_at(&[IoVec { offset: 8 * i, data: &data }])
            }
        }
        for scalar_first in [true, false] {
            // The fault plan's third write fires on the third call.
            let inner = Arc::new(MemBackend::new());
            let plan = FaultPlan::new(3).fail_at(FaultOp::Write, 2, FaultKind::Transient);
            let b = FaultInjector::new(inner.clone(), plan);
            let outcomes: Vec<bool> = (0..4).map(|i| call(&b, i, scalar_first).is_ok()).collect();
            assert_eq!(outcomes, [true, true, false, true], "scalar first: {scalar_first}");
            assert_eq!(b.injected(), 1);

            // The crash clock admits exactly two calls, and the device
            // holds only their bytes.
            let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let clock = CrashClock::cut_after(2);
            let b = CrashBackend::new(inner.clone(), clock.clone());
            let outcomes: Vec<bool> = (0..4).map(|i| call(&b, i, scalar_first).is_ok()).collect();
            assert_eq!(outcomes, [true, true, false, false], "scalar first: {scalar_first}");
            assert_eq!((clock.mutations(), inner.len()), (4, 16));
            let mut back = [0u8; 16];
            inner.read_at(0, &mut back).unwrap();
            assert_eq!(back, [[1u8; 8], [2u8; 8]].concat()[..]);

            // The throttle books one channel per call: four calls of 8
            // bytes on eight channels leave four booked and four free.
            let b = ThrottledBackend::with_channels(1e12, 1e-4, 8);
            (0..4).for_each(|i| call(&b, i, scalar_first).unwrap());
            let booked = b.channels.lock().free_at.iter().filter(|&&end| end > 0.0).count();
            assert_eq!(booked, 4, "scalar first: {scalar_first}");
        }
    }

    #[test]
    fn counting_backend_counts_every_call_by_kind() {
        let b = CountingBackend::new(Arc::new(MemBackend::new()));
        b.write_at(0, b"abcd").unwrap();
        b.write_vectored_at(&[
            IoVec { offset: 4, data: b"ef" },
            IoVec { offset: 8, data: b"ghi" },
        ])
        .unwrap();
        b.read_at(1, &mut [0u8; 3]).unwrap();
        let (mut x, mut y) = ([0u8; 2], [0u8; 4]);
        b.read_vectored_at(&mut [
            IoVecMut { offset: 0, buf: &mut x },
            IoVecMut { offset: 7, buf: &mut y },
        ])
        .unwrap();
        // Past the end: it fails, and it counts all the same.
        assert!(b.read_at(10, &mut [0u8; 8]).is_err());
        b.sync().unwrap();
        b.sync().unwrap();
        let all = CallCounts {
            reads: 2,
            writes: 1,
            read_batches: 1,
            write_batches: 1,
            segments: 4,
            bytes_read: 3 + 6 + 8,
            bytes_written: 9,
            syncs: 2,
            most_reads_in_flight: 1,
            most_writes_in_flight: 1,
        };
        assert_eq!(b.counts(), all);

        let before = b.counts();
        b.write_at(11, b"j").unwrap();
        let one_write = CallCounts {
            writes: 1,
            bytes_written: 1,
            most_reads_in_flight: 1,
            most_writes_in_flight: 1,
            ..CallCounts::default()
        };
        assert_eq!(b.counts() - before, one_write, "the peak is the later snapshot's");
    }

    #[test]
    fn counting_hook_runs_before_writes_and_syncs_and_after_reads() {
        // The crash clock counts what reaches the inner device: every
        // write segment and sync forwarded.
        let clock = CrashClock::unlimited();
        let device: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let inner = Arc::new(CrashBackend::new(device.clone(), clock.clone()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let b = CountingBackend::new(inner).with_hook(move |call| {
            let refuse = |what: &str| Err(H5Error::Storage(format!("hook refused {what}")));
            match call {
                Call::Write { segments, vectored } => {
                    log.lock().push(("write", vectored, segments.len()));
                    if segments.iter().any(|seg| seg.data == b"no") {
                        return refuse("write");
                    }
                }
                Call::Read { segments, vectored } => {
                    log.lock().push(("read", vectored, segments.len()));
                    for seg in segments.iter_mut() {
                        seg.buf.reverse();
                    }
                }
                Call::Sync => {
                    log.lock().push(("sync", false, 0));
                    return refuse("sync");
                }
            }
            Ok(())
        });

        b.write_at(0, b"ok").unwrap();
        assert!(b.write_at(2, b"no").is_err());
        let batch = [IoVec { offset: 2, data: b"go" }, IoVec { offset: 4, data: b"no" }];
        assert!(b.write_vectored_at(&batch).is_err());
        assert!(b.sync().is_err());
        assert_eq!(clock.mutations(), 1, "a refused call forwards nothing, not even half a batch");
        assert_eq!(device.len(), 2);

        let mut buf = [0u8; 2];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ko", "the read hook saw the fetched bytes and turned them round");
        let (mut x, mut y) = ([0u8; 1], [0u8; 2]);
        b.read_vectored_at(&mut [
            IoVecMut { offset: 1, buf: &mut x },
            IoVecMut { offset: 0, buf: &mut y },
        ])
        .unwrap();
        assert_eq!((&x, &y), (b"k", b"ko"));

        let want = [
            ("write", false, 1),
            ("write", false, 1),
            ("write", true, 2),
            ("sync", false, 0),
            ("read", false, 1),
            ("read", true, 2),
        ];
        assert_eq!(*seen.lock(), want, "once per call, in call order");
        let c = b.counts();
        assert_eq!((c.writes, c.write_batches, c.segments, c.syncs), (2, 1, 4, 1));
    }

    #[test]
    fn mem_backend_spans_pages_and_shards() {
        // Writes and reads crossing page boundaries and landing on pages
        // far apart (different shards) must behave like one flat array.
        let b = MemBackend::new();
        let pattern: Vec<u8> = (0..3 * PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        let base = (PAGE_BYTES as u64 * 7) + 13; // misaligned, mid-page
        b.write_at(base, &pattern).unwrap();
        assert_eq!(b.len(), base + pattern.len() as u64);

        let mut out = vec![0u8; pattern.len()];
        b.read_at(base, &mut out).unwrap();
        assert_eq!(out, pattern);

        // A read straddling written and never-written pages within len.
        b.write_at(PAGE_BYTES as u64 * 40, &[7u8; 4]).unwrap();
        let mut gap = vec![1u8; PAGE_BYTES + 8];
        b.read_at(PAGE_BYTES as u64 * 20, &mut gap).unwrap();
        assert!(gap.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_concurrent_writers_across_shards() {
        let backend = Arc::new(MemBackend::new());
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let b = backend.clone();
            joins.push(std::thread::spawn(move || {
                // Each thread owns a distinct page-sized extent.
                let data = vec![t as u8 + 1; PAGE_BYTES];
                b.write_at(t * PAGE_BYTES as u64, &data).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(backend.len(), 8 * PAGE_BYTES as u64);
        for t in 0..8u64 {
            let mut buf = vec![0u8; PAGE_BYTES];
            backend.read_at(t * PAGE_BYTES as u64, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn throttled_batch_pays_one_latency() {
        // 2 segments through the scalar path: 2 × 30 ms of latency.
        // The same segments as one batch: a single 30 ms charge.
        let lat = 0.03;
        let b = ThrottledBackend::in_memory(1e12, lat);
        let seg = [0u8; 64];

        let t0 = std::time::Instant::now();
        b.write_vectored_at(&[
            IoVec { offset: 0, data: &seg },
            IoVec { offset: 64, data: &seg },
        ])
        .unwrap();
        let batched = t0.elapsed().as_secs_f64();
        assert!(batched >= lat * 0.9, "batch must pay latency, took {batched}");
        assert!(
            batched < lat * 1.9,
            "batch must pay latency ONCE, took {batched}"
        );

        let t0 = std::time::Instant::now();
        b.write_at(128, &seg).unwrap();
        b.write_at(192, &seg).unwrap();
        let scalar = t0.elapsed().as_secs_f64();
        assert!(scalar >= 2.0 * lat * 0.9, "scalar pays per op, took {scalar}");
    }

    #[test]
    fn throttled_channels_cap_in_flight_concurrency() {
        // 6 concurrent scalar writes over 2 channels: three serialized
        // waves of two, so wall time is ~3 latencies — not the single
        // shared latency the old unbounded model would charge.
        let lat = 0.03;
        let b = Arc::new(ThrottledBackend::with_channels(1e12, lat, 2));
        let t0 = std::time::Instant::now();
        let threads: Vec<_> = (0..6u64)
            .map(|i| {
                let b = b.clone();
                std::thread::spawn(move || b.write_at(i * 64, &[3u8; 64]).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            elapsed >= 3.0 * lat * 0.9,
            "depth beyond the channel cap must serialize, took {elapsed}"
        );
        assert!(
            elapsed < 5.0 * lat,
            "ops within the cap must overlap, took {elapsed}"
        );
    }

    #[test]
    fn injector_vectored_advances_one_index_per_segment() {
        let inner = Arc::new(MemBackend::new());
        let plan = FaultPlan::new(0).fail_at(FaultOp::Write, 2, FaultKind::Transient);
        let b = FaultInjector::new(inner.clone(), plan);

        let seg = [5u8; 8];
        let batch: Vec<IoVec<'_>> = (0..4)
            .map(|i| IoVec { offset: i * 8, data: &seg })
            .collect();
        let err = b.write_vectored_at(&batch).unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        assert_eq!(b.injected(), 1);
        // Segments 0 and 1 landed; the faulted segment 2 and the
        // never-attempted segment 3 did not.
        assert_eq!(inner.len(), 16);

        // The next scalar write consumes index 3 (segment 3 was never
        // attempted, so it did not advance the counter).
        b.write_at(100, &seg).unwrap();
        let mut buf = [0u8; 8];
        b.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, seg);
    }
    #[test]
    fn throttled_backend_delegates_and_delays() {
        let b = ThrottledBackend::in_memory(1e6, 0.0); // 1 MB/s
        let t0 = std::time::Instant::now();
        b.write_at(0, &[1u8; 50_000]).unwrap(); // ~50 ms
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed >= 0.045, "throttle must stall, took {elapsed}");
        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 1, 1]);
        assert_eq!(b.len(), 50_000);
    }

    #[test]
    fn injector_fails_writes_after_budget() {
        let b = FaultInjector::failing_after(Arc::new(MemBackend::new()), 2);
        b.write_at(0, b"one").unwrap();
        b.write_at(10, b"two").unwrap();
        let err = b.write_at(20, b"three").unwrap_err();
        assert!(matches!(err, H5Error::Storage(m) if m.contains("injected")));
        assert_eq!(b.injected(), 1);
        // Reads keep working; earlier data intact.
        let mut buf = [0u8; 3];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one");
    }

    #[test]
    fn injector_covers_reads_and_flushes_too() {
        // Regression for the old FaultyBackend asymmetry: plans must be
        // able to fault the read and flush paths, not just writes.
        let plan = FaultPlan::new(7)
            .fail_at(FaultOp::Read, 1, FaultKind::Transient)
            .fail_at(FaultOp::Flush, 0, FaultKind::Persistent);
        let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        b.write_at(0, b"data").unwrap();

        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).unwrap(); // read #0 passes
        let err = b.read_at(0, &mut buf).unwrap_err(); // read #1 faults
        assert!(err.is_retryable(), "read fault should be transient: {err:?}");
        b.read_at(0, &mut buf).unwrap(); // read #2 passes again
        assert_eq!(&buf, b"data");

        let err = b.sync().unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)), "{err:?}");
        b.sync().unwrap(); // flush #1 passes (At(0) already fired)
        assert_eq!(b.injected(), 2);
    }

    #[test]
    fn torn_write_persists_prefix_and_is_retryable() {
        let inner = Arc::new(MemBackend::new());
        let plan = FaultPlan::new(1).fail_at(FaultOp::Write, 0, FaultKind::Torn { fraction: 0.5 });
        let b = FaultInjector::new(inner.clone(), plan);

        let err = b.write_at(0, b"ABCDEFGH").unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        // Half the payload reached the device.
        assert_eq!(inner.len(), 4);
        let mut torn = [0u8; 4];
        inner.read_at(0, &mut torn).unwrap();
        assert_eq!(&torn, b"ABCD");

        // The retry (write #1, no rule) repairs the tear.
        b.write_at(0, b"ABCDEFGH").unwrap();
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ABCDEFGH");
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let faults_for = |seed: u64| {
            let plan = FaultPlan::new(seed).random(FaultOp::Write, 0.3, FaultKind::Transient);
            let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
            (0..64u64)
                .map(|i| u8::from(b.write_at(i * 8, &[0u8; 8]).is_err()))
                .collect::<Vec<_>>()
        };
        let a = faults_for(42);
        assert_eq!(a, faults_for(42), "same seed must replay identically");
        assert_ne!(a, faults_for(43), "different seed should differ");
        let hits = a.iter().map(|&x| x as usize).sum::<usize>();
        assert!(hits > 5 && hits < 40, "rate 0.3 over 64 ops, got {hits}");
    }

    #[test]
    fn times_budget_caps_a_rule() {
        // A persistent-error *window*: fails twice, then heals.
        let plan = FaultPlan::new(0)
            .fail_after(FaultOp::Write, 0, FaultKind::Persistent)
            .times(2);
        let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        assert!(b.write_at(0, b"x").is_err());
        assert!(b.write_at(0, b"x").is_err());
        b.write_at(0, b"x").unwrap();
        b.write_at(1, b"y").unwrap();
        assert_eq!(b.injected(), 2);
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let plan = FaultPlan::new(0).fail_after(FaultOp::Write, 0, FaultKind::Persistent);
        let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        b.set_armed(false);
        for i in 0..4 {
            b.write_at(i * 4, b"pass").unwrap();
        }
        b.set_armed(true);
        assert!(b.write_at(0, b"now").is_err());
        assert_eq!(b.injected(), 1);
    }

    #[test]
    fn delay_faults_stall_but_succeed() {
        let plan = FaultPlan::new(0).fail_at(FaultOp::Write, 0, FaultKind::Delay { secs: 0.02 });
        let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        let t0 = std::time::Instant::now();
        b.write_at(0, b"slow").unwrap();
        assert!(t0.elapsed().as_secs_f64() >= 0.015);
        assert_eq!(b.injected(), 0, "delays are not counted as faults");
        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"slow");
    }

    #[test]
    fn corrupt_fault_flips_one_bit_of_the_payload_only() {
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        inner.write_at(0, &[0u8; 64]).unwrap();
        let b = FaultInjector::new(
            inner.clone(),
            FaultPlan::new(0xC0FFEE).fail_at(FaultOp::Read, 1, FaultKind::Corrupt),
        );

        let mut clean = [0u8; 64];
        b.read_at(0, &mut clean).unwrap(); // read #0: untouched
        assert_eq!(clean, [0u8; 64]);

        let mut hit = [0u8; 64];
        b.read_at(0, &mut hit).unwrap(); // read #1: silently corrupted
        let flipped: u32 = hit.iter().map(|x| x.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one seeded bit flip");
        assert_eq!(b.injected(), 1);

        // The device itself is untouched — only the returned payload lies.
        let mut again = [0u8; 64];
        inner.read_at(0, &mut again).unwrap();
        assert_eq!(again, [0u8; 64]);
    }

    #[test]
    fn corrupt_faults_are_deterministic_per_seed() {
        let payload_for = |seed: u64| {
            let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            inner.write_at(0, &[0u8; 32]).unwrap();
            let b = FaultInjector::new(
                inner,
                FaultPlan::new(seed).fail_after(FaultOp::Read, 0, FaultKind::Corrupt),
            );
            let mut buf = [0u8; 32];
            b.read_at(0, &mut buf).unwrap();
            buf
        };
        assert_eq!(payload_for(11), payload_for(11));
        assert_ne!(payload_for(11), payload_for(12));
    }

    #[test]
    fn corrupt_on_non_read_degrades_to_transient() {
        let plan = FaultPlan::new(1)
            .fail_at(FaultOp::Write, 0, FaultKind::Corrupt)
            .fail_at(FaultOp::Flush, 0, FaultKind::Corrupt);
        let b = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        assert!(matches!(
            b.write_at(0, b"x").unwrap_err(),
            H5Error::Transient(_)
        ));
        assert!(matches!(b.sync().unwrap_err(), H5Error::Transient(_)));
    }

    #[test]
    fn crash_backend_cuts_after_k_mutations() {
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let clock = CrashClock::cut_after(2);
        let b = CrashBackend::new(inner.clone(), clock.clone());
        b.write_at(0, b"aa").unwrap();
        b.sync().unwrap();
        assert!(!clock.cut());
        assert!(matches!(
            b.write_at(2, b"bb").unwrap_err(),
            H5Error::Storage(_)
        ));
        assert!(b.sync().is_err());
        assert!(clock.cut());
        // Reads survive the cut; the inner device holds only what was
        // admitted before it.
        let mut buf = [0u8; 2];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"aa");
        assert_eq!(inner.len(), 2);
    }

    #[test]
    fn crash_backend_counts_each_vectored_segment_as_a_boundary() {
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let b = CrashBackend::new(inner.clone(), CrashClock::cut_after(1));
        let err = b
            .write_vectored_at(&[
                IoVec { offset: 0, data: b"aa" },
                IoVec { offset: 2, data: b"bb" },
            ])
            .unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)));
        assert_eq!(inner.len(), 2, "only the admitted first segment landed");
    }

    #[test]
    fn crash_clock_record_pass_counts_every_mutation() {
        let clock = CrashClock::unlimited();
        let b = CrashBackend::new(Arc::new(MemBackend::new()), clock.clone());
        b.write_at(0, b"a").unwrap();
        b.write_vectored_at(&[
            IoVec { offset: 1, data: b"b" },
            IoVec { offset: 2, data: b"c" },
        ])
        .unwrap();
        b.sync().unwrap();
        assert_eq!(clock.mutations(), 4, "scalar + 2 segments + sync");
        assert!(!clock.cut());
    }

    #[test]
    fn one_clock_orders_mutations_across_two_backends() {
        // Container backend and staging device share the clock: the cut
        // lands at one global boundary across both.
        let c_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let s_inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let clock = CrashClock::cut_after(3);
        let c = CrashBackend::new(c_inner.clone(), clock.clone());
        let s = CrashBackend::new(s_inner.clone(), clock);
        c.write_at(0, b"c0").unwrap(); // mutation 0
        s.write_at(0, b"s0").unwrap(); // mutation 1
        c.write_at(2, b"c1").unwrap(); // mutation 2
        assert!(s.write_at(2, b"s1").is_err()); // mutation 3: refused
        assert_eq!(c_inner.len(), 4);
        assert_eq!(s_inner.len(), 2);
    }

    // ----- the throttle's channel bookings and the write body -------------

    #[test]
    fn a_throttled_call_books_a_channel_per_piece_at_one_instant_read_or_write() {
        const KIB: usize = 1 << 10;
        let (bw, lat) = (400e6, 2e-4);
        let service = |bytes: usize| lat + bytes as f64 / bw;
        // (calls by bytes, each channel's end after them, sorted).
        let cases: [(&[usize], [f64; 4]); 4] = [
            (&[512 * KIB], [service(128 * KIB); 4]),
            (&[64 * KIB], [0.0, 0.0, 0.0, service(64 * KIB)]),
            (&[256 * KIB - 1], [0.0, 0.0, 0.0, service(256 * KIB - 1)]),
            // The second call starts where the first one ends.
            (&[512 * KIB, 512 * KIB], [2.0 * service(128 * KIB); 4]),
        ];
        for (calls, want) in cases {
            let device = ThrottledBackend::with_channels(bw, lat, 4);
            let mut ch = device.channels.lock();
            let ends: Vec<f64> =
                calls.iter().map(|&bytes| device.book(&mut ch, 0.0, bytes)).collect();
            let mut free_at = ch.free_at.clone();
            free_at.sort_unstable_by(f64::total_cmp);
            let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
            assert!(free_at.iter().zip(want).all(|(&a, b)| close(a, b)), "{calls:?}: {free_at:?}");
            assert!(close(ends[ends.len() - 1], want[3]), "{calls:?} ends at {ends:?}");
        }
        // A call arriving after every channel is free starts when it
        // arrives, on the earliest free channel.
        let device = ThrottledBackend::with_channels(bw, lat, 2);
        let mut ch = device.channels.lock();
        device.book(&mut ch, 0.0, 64 * KIB);
        assert_eq!(device.book(&mut ch, 1.0, 64 * KIB), 1.0 + service(64 * KIB));
        let mut free_at = ch.free_at.clone();
        free_at.sort_unstable_by(f64::total_cmp);
        assert_eq!(free_at, [service(64 * KIB), 1.0 + service(64 * KIB)]);
        drop(ch);
        // Through the trait: a 512 KiB read, scalar or vectored, books all
        // four channels, each past its arrival by a quarter's service.
        for vectored in [false, true] {
            let device = ThrottledBackend::with_channels(1e12, lat, 4);
            device.write_at(0, &vec![3u8; 512 * KIB]).unwrap();
            device.set_bandwidth(bw);
            let mut buf = vec![0u8; 512 * KIB];
            let t0 = device.channels.lock().epoch.elapsed().as_secs_f64();
            if vectored {
                device.read_vectored_at(&mut [IoVecMut { offset: 0, buf: &mut buf }]).unwrap();
            } else {
                device.read_at(0, &mut buf).unwrap();
            }
            let ch = device.channels.lock();
            let busy: Vec<f64> = ch.free_at.iter().map(|&end| end - t0).collect();
            assert!(busy.iter().all(|&b| b >= service(128 * KIB) - 1e-9), "{busy:?}");
            assert!(buf.iter().all(|&b| b == 3));
        }
    }

    #[test]
    fn a_throttled_call_costs_its_booking_even_when_it_fails() {
        // 30 ms of latency on a device whose inner writes fail: the
        // failure comes back after the booking, not at once.
        let lat = 0.03;
        let plan = FaultPlan::new(0).fail_after(FaultOp::Write, 0, FaultKind::Persistent);
        let inner = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        let device = ThrottledBackend::with_channel_count(Box::new(inner), 1e12, lat, 4);
        let t0 = std::time::Instant::now();
        assert!(device.write_vectored_at(&[IoVec { offset: 0, data: &[1u8; 64] }]).is_err());
        let took = t0.elapsed().as_secs_f64();
        assert!(took >= lat * 0.9, "a failed call skipped its booking: {took}");
    }

    #[test]
    fn write_windowed_is_one_vectored_call_per_window_in_order_on_the_caller() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = log.clone();
        let device = CountingBackend::new(Arc::new(ThrottledBackend::with_channels(1e12, 0.0, 4)))
            .with_hook(move |call| {
                if let Call::Write { segments, .. } = call {
                    seen.lock().push((segments[0].offset, segments.len(), std::thread::current().id()));
                }
                Ok(())
            });
        let n = 2 * COALESCE_WINDOW + 452;
        let bytes = vec![7u8; 64 << 10];
        let batch: Vec<IoVec<'_>> = (0..n as u64)
            .map(|i| IoVec { offset: i * (64 << 10), data: &bytes })
            .collect();
        write_windowed(&device, &batch).unwrap();
        let (me, w) = (std::thread::current().id(), COALESCE_WINDOW as u64);
        let want = [(0, w as usize, me), (w << 16, w as usize, me), ((2 * w) << 16, 452, me)];
        assert_eq!(*log.lock(), want, "in order, on the caller");
        assert_eq!(device.counts().most_writes_in_flight, 1);
    }
}

