#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! # asyncvol — the asynchronous VOL connector
//!
//! A Rust counterpart of the HDF5 Asynchronous I/O VOL connector
//! ([Tang et al., TPDS 2021]) that the paper evaluates. It plugs into
//! `h5lite`'s Virtual Object Layer and moves all data operations onto
//! background threads — the reapers of an [`h5lite::ring::Ring`] — so
//! the application thread returns as soon as the operation is
//! *scheduled*:
//!
//! - **Writes** leave the call with a connector-owned snapshot of the
//!   caller's data — the non-zero-copy the paper calls *transactional
//!   overhead* (`t_transact_overhead` in Eq. 2b). The snapshot is what
//!   prevents data races between the application's next compute phase and
//!   the background write. It costs one pass over the data into a
//!   recycled buffer: the typed API's encode, whose buffer the connector
//!   takes over ([`h5lite::Vol::dataset_write_owned`]), or a copy when a
//!   caller hands in borrowed bytes (DESIGN.md §17). The actual container
//!   write runs in the background, ordered after every earlier operation
//!   on the same dataset. Every write goes `stage → dispatch → land →
//!   settle`, each written once (DESIGN.md §14): snapshot or WAL append,
//!   choice of ring entry, container write, completion bookkeeping.
//! - **One executor**: the connector has one ring — the attached one, or
//!   one it builds with [`AsyncVolBuilder::streams`] shards — and every
//!   container's writes and prefetches are entries in its FIFO under a
//!   key of (container, dataset): the dataset's id offset by a serial the
//!   container's record gets when it is made, so the same dataset of two
//!   containers goes to different shards of a multi-stream ring. That is
//!   the process-wide execution streams of the HDF5 async VOL. A DRAM
//!   write whose plan does not sieve is raw segments that name the
//!   container's device; the rest are *jobs* ([`Ring::submit_job`]).
//!   Every entry holds its container until it settles. That one order
//!   covers WAW, RAW and WAR.
//! - **Reads** are blocking unless a prefetch is in flight or complete for
//!   the same `(dataset, selection)`: [`AsyncVol::prefetch`] schedules
//!   background reads of future time steps, and a later `dataset_read`
//!   with the same key is served from the prefetch slot — the mechanism
//!   behind BD-CATS-IO's "first read blocking, the rest overlapped"
//!   behaviour (§V-A2). A prefetch is one ring job and one promise: the
//!   slot's. The ring fulfils it once the job has run — with the
//!   elements the job read and decoded
//!   ([`h5lite::ReadPayload::Elements`]), or with the job's panic — so
//!   the slot is also what [`h5lite::Vol::wait_all`] joins. The slot's
//!   key holds the selection inline and the job carries a copy of its
//!   own, so a hit that finds its slot filled hashes and compares the
//!   map's own words, touches of what the reaper wrote only the slot,
//!   and takes it without a wake-up ([`h5lite::Promise`] wakes only
//!   sleepers). A write issued to the dataset drops its slots, so no
//!   read is served bytes that predate it. A cold read waits on its
//!   dataset's last write only — a read after a read has no hazard —
//!   then reads, verifies and gathers on the caller's thread. If the
//!   ring is idle, one ring job meanwhile allocates the read's elements
//!   and writes every one, so their pages are faulted in on the reaper
//!   rather than by the decode; the read takes them if the job has
//!   finished by then, and the typed API decodes into them
//!   ([`h5lite::ReadRequest::resolved_into`]). Otherwise it decodes
//!   into fresh memory, as every cold read did before.
//! - **Synchronization** mirrors the HDF5 async VOL's event sets:
//!   [`h5lite::Vol::wait`] on one request token, or
//!   [`h5lite::Vol::wait_all`] to drain the connector.
//! - **Tenants**: one connector serves many containers, and an
//!   [`ObjectId`] is unique only within one, so what the connector keeps
//!   about a dataset (its order, its prefetch slots) is one record per
//!   (container, dataset). A record holds no thread: its reaper threads
//!   are the ring's, however many containers are open.
//! - **Coalescing**: every background data path — the write stream, the
//!   staged read-back, prefetch, cold reads, and WAL recovery replay —
//!   lands selections through the container's I/O planner
//!   ([`h5lite::plan`]): one metadata-lock acquisition per operation and
//!   vectored scatter-gather batches to the backend, so a strided
//!   VPIC/BD-CATS selection costs a handful of device requests instead of
//!   one per hyperslab run.
//! - **Instrumentation** ([`stats::AsyncVolStats`], from
//!   [`AsyncVol::stats`]) counts every measured quantity the paper's model
//!   consumes: snapshot (transactional) time, background I/O time, bytes
//!   moved, prefetch hits/misses. The model's feedback loop (Fig. 2) is
//!   fed from the run record the kernels return, not from a callback
//!   here.
//!
//! Background failures are held per request and surface at wait time as
//! [`H5Error::Async`], matching the deferred error reporting of the real
//! connector. Only the report waits: a write settles — its retries, its
//! circuit-breaker outcome, its counters — the moment it lands, on the
//! reaper that landed it (in the op's completion hook, or in its job).
//! Before an error is ever held, the resilience layer tries to make it
//! not exist: background storage operations retry transient
//! faults with capped, jittered exponential backoff ([`retry`]); repeated
//! device failures trip a circuit breaker that degrades the connector to
//! synchronous passthrough with half-open probing to restore async mode
//! ([`breaker`]); and device staging is a write-ahead log whose
//! staged-but-unflushed records replay into the container after a crash
//! ([`staging`], [`AsyncVol::recover_staging`]).

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Weak};
use std::time::Instant;

use apio_trace::{Event, Tracer};
use h5lite::ring::{Completion, Ring, RingConfig, RingOp};
use h5lite::sync::Mutex;
use h5lite::{
    recycle, Container, Elements, H5Error, Hyperslab, MemBackend, ObjectId, Promise, ReadPayload,
    ReadRequest, Request, Result, Selection, Vol,
};

pub mod breaker;
pub mod retry;
pub mod staging;
pub mod stats;
pub use breaker::{BreakerConfig, BreakerState};
pub use retry::RetryPolicy;
pub use staging::{RecoveryReport, Staging, StagingLog};
pub use stats::AsyncVolStats;

use breaker::{CircuitBreaker, ProbeGuard, Route};
use retry::with_backoff;
use stats::StatsCells;

/// Request-table size above which issue drops the entries that settled
/// clean.
const PENDING_GC_THRESHOLD: usize = 1024;

/// How one write's snapshot travels from `stage` to `land`.
enum Payload {
    Dram(Vec<u8>),
    Staged(Arc<StagingLog>, staging::StagedExtent),
}

/// What `settle` reports about a write that reached the device.
struct Ran {
    /// Inline on the caller's thread while the breaker has the connector
    /// degraded, rather than in the background.
    degraded: bool,
    bytes: u64,
    /// Start of the reported io_secs: the submission instant for raw
    /// segments (queue time included), else the start of `land`.
    since: Instant,
}

/// Builder for [`AsyncVol`].
pub struct AsyncVolBuilder {
    streams: usize,
    ring: Option<Arc<Ring>>,
    staging: Staging,
    retry: RetryPolicy,
    breaker: BreakerConfig,
    tracer: Tracer,
}

impl Default for AsyncVolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncVolBuilder {
    /// Defaults: a one-shard ring, no attached ring, DRAM staging, default
    /// retry policy and breaker thresholds, no tracing.
    pub fn new() -> Self {
        AsyncVolBuilder {
            streams: 1,
            ring: None,
            staging: Staging::Dram,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Shards, one reaper thread each, of the ring the connector builds
    /// when none is attached (default 1, like the HDF5 async VOL's one
    /// background execution stream, which belongs to the process and
    /// serves every open file). Ignored when a ring is attached.
    pub fn streams(mut self, n: usize) -> Self {
        self.streams = n;
        self
    }

    /// Serve every container through `ring` rather than through a ring the
    /// connector builds (DESIGN.md §14); a write takes the same path on
    /// either. Each entry names its container's device, so the backend
    /// `ring` was built over is never written by the connector, and
    /// containers on any device share it.
    pub fn ring(mut self, ring: Arc<Ring>) -> Self {
        self.ring = Some(ring);
        self
    }

    /// Stage write snapshots on a node-local device instead of DRAM
    /// (paper §II-C: "caching data either to a memory buffer on the same
    /// node ... or to a node-local SSD"). The device is opened as a
    /// write-ahead log: if it already holds records from a crashed run,
    /// the append cursor resumes after them and
    /// [`AsyncVol::recover_staging`] can replay them.
    pub fn stage_to_device(mut self, device: Arc<dyn h5lite::StorageBackend>) -> Self {
        self.staging = Staging::Device(Arc::new(StagingLog::open(device)));
        self
    }

    /// Retry policy for background storage operations (default: 5
    /// attempts, 500 µs base backoff capped at 50 ms, 2 s deadline).
    /// [`RetryPolicy::none`] restores fail-fast behaviour.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Circuit-breaker thresholds for async→sync degradation.
    pub fn breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = cfg;
        self
    }

    /// Attach a tracer: every pipeline stage (issue, snapshot, WAL
    /// append, background execute, retries, breaker transitions,
    /// degraded writes, recovery replay) records spans and events
    /// through it. Default is [`Tracer::disabled`], which costs one
    /// branch per call site.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Assemble the connector, building its ring unless one is attached.
    pub fn build(self) -> AsyncVol {
        // Every entry the connector queues names its container's device
        // (or is a job, which writes none), so the backend this ring is
        // built over is never written.
        let config = RingConfig { shards: self.streams, ..RingConfig::default() };
        let built = || Arc::new(Ring::new(Arc::new(MemBackend::new()), config));
        let ring = self.ring.unwrap_or_else(built);
        AsyncVol {
            staging: self.staging,
            ring,
            inner: named_lock("asyncvol.conn", ConnInner {
                next_req: 1,
                next_serial: 0,
                requests: HashMap::new(),
                tenants: Vec::new(),
                stale_prefetches: Vec::new(),
            }),
            sh: Arc::new(Shared {
                stats: StatsCells::traced(self.tracer),
                retry: self.retry,
                breaker: CircuitBreaker::new(self.breaker),
            }),
        }
    }
}

/// A prefetch's one promise: the ring fulfils it once the job has run,
/// with what the job read, or with the job's panic.
type Slot = Promise<Result<ReadPayload>>;

/// Block until a prefetch's job has run; the panic it ended in, if it
/// did. The job's own failures are [`Container`] reads and decodes, none
/// of which is an [`H5Error::Async`], so a slot holds one only as the
/// ring's verdict on a job that unwound. A failed read is the slot's, for
/// the read that takes it, and a slot already taken was reported there.
fn panic_of(slot: &Slot) -> Option<String> {
    slot.wait_settled(|read| match read {
        Some(Err(e @ H5Error::Async(_))) => Some(e.to_string()),
        _ => None,
    })
}

/// One of the connector's named locks. With invariants on, this first
/// forwards every named `h5lite::sync` lock — these, and the container's
/// metadata shard, tree and allocator locks — into argolite's lock-order
/// graph, so a cycle between a connector lock and a container lock is
/// caught wherever a connector lock exists, with or without an
/// [`AsyncVol`].
pub(crate) fn named_lock<T>(name: &'static str, value: T) -> Mutex<T> {
    #[cfg(feature = "debug-invariants")]
    h5lite::sync::order_hook::install(
        argolite::lock_order::acquire_class,
        argolite::lock_order::release_class,
    );
    Mutex::new_named(name, value)
}

/// Block until a request's entry has settled; what failed, if anything.
fn failure(done: &Promise<Completion>) -> Option<String> {
    done.wait_with(|c| c.result.as_ref().err().map(H5Error::to_string))
}

/// The promise of a dataset's last ring entry.
#[derive(Clone)]
enum Last {
    /// A write's completion.
    Write(Promise<Completion>),
    /// A prefetch's slot, which a hit may have taken since.
    Prefetch(Slot),
}

impl Last {
    /// Block until the entry has run, without taking what it produced.
    fn wait(&self) {
        match self {
            Last::Write(done) => done.wait_settled(|_| ()),
            Last::Prefetch(slot) => slot.wait_settled(|_| ()),
        }
    }

    fn is_settled(&self) -> bool {
        match self {
            Last::Write(done) => done.is_settled(),
            Last::Prefetch(slot) => slot.is_settled(),
        }
    }
}

/// The hash of a tenant's dataset records and prefetch slots: one
/// multiply-rotate step per word (FxHash's). Their keys are dataset ids
/// and selections the application made, not untrusted input, so
/// SipHash's flood resistance buys nothing there, while a prefetch issue
/// and a hit each hash a dataset id and a slot key under the connector
/// lock (DESIGN.md §17).
#[derive(Clone, Copy, Default)]
struct WordHash;

impl BuildHasher for WordHash {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(0)
    }
}

struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Dimensions a prefetch slot's key holds inline.
const KEY_RANK: usize = 3;

/// A prefetch slot's key: its selection, held inline when it is the
/// whole dataset or a hyperslab of at most [`KEY_RANK`] dimensions. A
/// hit then hashes and compares words in the slot map's own memory, and
/// the job carries a copy of its own in its closure and builds the
/// selection on the reaper, so neither touches the other's memory, and
/// the job's frees stay in the reaper's heap (DESIGN.md §14, "The slot
/// key goes inline"). Any other selection is shared with the job.
#[derive(Clone, PartialEq, Eq, Hash)]
enum SlotKey {
    All,
    Slab {
        rank: usize,
        start: [u64; KEY_RANK],
        count: [u64; KEY_RANK],
        stride: Option<[u64; KEY_RANK]>,
    },
    Shared(Arc<Selection>),
}

impl SlotKey {
    fn new(sel: &Selection) -> SlotKey {
        let inline = |words: &[u64]| {
            let mut key = [0; KEY_RANK];
            key[..words.len()].copy_from_slice(words);
            key
        };
        match sel {
            Selection::All => SlotKey::All,
            Selection::Slab(h)
                if h.start.len() <= KEY_RANK
                    && h.count.len() == h.start.len()
                    && h.stride.as_ref().is_none_or(|s| s.len() == h.start.len()) =>
            {
                SlotKey::Slab {
                    rank: h.start.len(),
                    start: inline(&h.start),
                    count: inline(&h.count),
                    stride: h.stride.as_deref().map(inline),
                }
            }
            sel => SlotKey::Shared(Arc::new(sel.clone())),
        }
    }

    /// The selection the key stands for.
    fn selection(&self) -> Cow<'_, Selection> {
        match self {
            SlotKey::All => Cow::Owned(Selection::All),
            SlotKey::Slab { rank, start, count, stride } => Cow::Owned(Selection::Slab(Hyperslab {
                start: start[..*rank].to_vec(),
                count: count[..*rank].to_vec(),
                stride: stride.map(|s| s[..*rank].to_vec()),
            })),
            SlotKey::Shared(sel) => Cow::Borrowed(sel),
        }
    }
}

/// Everything the connector keeps about one dataset of one container.
#[derive(Default)]
struct DsOrder {
    /// The dataset's last write or prefetch. It implies every earlier
    /// one: they are all entries under the dataset's key in the
    /// connector's ring, and same-key entries settle in FIFO order.
    last: Option<Last>,
    /// The dataset's last write, which implies every earlier write: what
    /// a cold read waits on. A read after a read has no hazard, so a
    /// prefetch of another selection does not hold a cold read up.
    last_write: Option<Promise<Completion>>,
    /// Completed or in-flight prefetches, by selection.
    prefetched: HashMap<SlotKey, Slot, WordHash>,
}

impl DsOrder {
    /// Whether a write or prefetch is in flight, or a slot is held.
    fn busy(&self) -> bool {
        self.last.as_ref().is_some_and(|l| !l.is_settled()) || !self.prefetched.is_empty()
    }

    /// The record with its prefetch slots dropped (they go to `stale`),
    /// because a write to the dataset is being issued: what they fetched
    /// predates it, so the next read must be a cold one.
    fn written(&mut self, stale: &mut Vec<Slot>) -> &mut DsOrder {
        if !self.prefetched.is_empty() {
            stale.retain(|slot| !slot.is_fulfilled());
            stale.extend(self.prefetched.drain().map(|(_, slot)| slot));
        }
        self
    }
}

/// One container the connector serves, weakly held (the connector must
/// not keep a closed file alive), with its datasets' records.
struct Tenant {
    container: Weak<Container>,
    /// Given when the record is made; it spreads ring keys ([`Tenant::key`]).
    serial: u64,
    datasets: HashMap<ObjectId, DsOrder, WordHash>,
}

impl Tenant {
    /// The ring key of dataset `ds`. Every container numbers its datasets
    /// from the same ids; offset by the serial, consecutive tenants'
    /// same-id datasets go to different shards (why the key is stable:
    /// `dispatch`).
    fn key(&self, ds: ObjectId) -> u64 {
        ds.wrapping_add(self.serial)
    }
}

/// `c`'s tenant record, made on first use with the next serial. `c`
/// becomes a tenant at its first write or prefetch; the records of closed
/// containers go then.
fn tenant<'a>(
    tenants: &'a mut Vec<Tenant>,
    next_serial: &mut u64,
    c: &Arc<Container>,
) -> &'a mut Tenant {
    let at = match tenants.iter().position(|t| t.container.as_ptr() == Arc::as_ptr(c)) {
        Some(at) => at,
        None => {
            tenants.retain(|t| t.container.strong_count() > 0);
            let serial = *next_serial;
            *next_serial += 1;
            tenants.push(Tenant { container: Arc::downgrade(c), serial, datasets: HashMap::default() });
            tenants.len() - 1
        }
    };
    &mut tenants[at]
}

/// `c`'s record of `ds`, if it has one.
fn record<'a>(tenants: &'a mut [Tenant], c: &Container, ds: ObjectId) -> Option<&'a mut DsOrder> {
    let tenant = tenants.iter_mut().find(|t| std::ptr::eq(t.container.as_ptr(), c))?;
    tenant.datasets.get_mut(&ds)
}

struct ConnInner {
    next_req: u64,
    /// The next tenant record's serial.
    next_serial: u64,
    /// Every request that has not been reported to its caller yet.
    requests: HashMap<u64, Promise<Completion>>,
    /// One record per container, each keyed by dataset within it.
    tenants: Vec<Tenant>,
    /// Slots a later write made stale: nobody reads what they fetch, but
    /// `wait_all` still joins them.
    stale_prefetches: Vec<Slot>,
}

impl ConnInner {
    /// Once the table or the dataset records hold more than
    /// [`PENDING_GC_THRESHOLD`] entries, drop every request that settled
    /// clean and every record with nothing left in it, so a producer
    /// that never waits per request grows neither without bound. A
    /// failed request stays for its `wait` or `wait_all` to report.
    /// Nothing here blocks: only finished requests are looked at.
    fn drop_settled(&mut self) {
        let records: usize = self.tenants.iter().map(|t| t.datasets.len()).sum();
        if self.requests.len().max(records) <= PENDING_GC_THRESHOLD {
            return;
        }
        self.requests.retain(|_, done| !done.is_fulfilled() || failure(done).is_some());
        for t in &mut self.tenants {
            t.datasets.retain(|_, o| o.busy());
        }
    }

    /// The containers still open, for `wait` and `wait_all` to publish
    /// once the lock is released; the records of closed ones go.
    fn open_tenants(&mut self) -> Vec<Arc<Container>> {
        let mut open = Vec::with_capacity(self.tenants.len());
        self.tenants.retain(|t| t.container.upgrade().map(|c| open.push(c)).is_some());
        open
    }
}

/// What a write still needs once the call that issued it has returned:
/// `land` and `settle` run on this, on the caller's thread or shared
/// with a job or a ring op's completion hook — one reference count per
/// write, not one per counter.
struct Shared {
    stats: StatsCells,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
}

impl Shared {
    /// Turn a payload into bytes in the container. One deadline, anchored
    /// at `started`, covers the staged read-back and the container write;
    /// transient faults in either are retried with backoff. The buffer is
    /// recycled on every exit.
    fn land(
        &self,
        c: &Container,
        ds: ObjectId,
        sel: &Selection,
        payload: Payload,
        salt: u64,
        started: Instant,
    ) -> Result<()> {
        let (buf, write_salt, staged) = match payload {
            Payload::Dram(buf) => (buf, salt, None),
            Payload::Staged(log, extent) => {
                let buf = with_backoff(&self.retry, salt, started, &self.stats, || log.read(extent))?;
                (buf, !salt, Some((log, extent)))
            }
        };
        let landed = with_backoff(&self.retry, write_salt, started, &self.stats, || {
            c.write_selection(ds, sel, &buf)
        });
        recycle::give(buf);
        if let (Ok(()), Some((log, extent))) = (&landed, staged) {
            // Replay is idempotent, so a failed flag write is not a
            // correctness problem — but it is a signal the staging device
            // is degrading, so count it.
            if log.mark_applied(extent).is_err() {
                self.stats.record_wal_mark_failure();
            }
        }
        landed
    }

    /// The `vol.execute` span that brackets a background write's landing.
    fn execute_span(&self, ds: ObjectId, bytes: u64) -> apio_trace::SpanGuard {
        let call = Event::VolCall { op: "execute", dataset: ds, bytes };
        self.stats.tracer().span_with("vol.execute", call)
    }

    /// The one completion path: resolve the breaker (and the probe riding
    /// on the write), count the write, and hand the outcome back for the
    /// caller to return or stow. `ran` is `None` when the write failed on
    /// the caller's thread before anything was dispatched (a WAL append).
    ///
    /// A background write was acknowledged at issue, so it is counted
    /// whatever its outcome; an inline (degraded) one only when it
    /// succeeded — its failure goes straight back to the caller, like a
    /// failed issue.
    fn settle(&self, outcome: Result<()>, probe: Option<ProbeGuard>, ran: Option<Ran>) -> Result<()> {
        self.breaker.resolve(&outcome, probe, ran.is_some(), &self.stats);
        if let Some(Ran { degraded, bytes, since }) = ran {
            let io_secs = since.elapsed().as_secs_f64();
            if !degraded {
                self.stats.record_write(bytes, io_secs);
            } else if outcome.is_ok() {
                self.stats.record_degraded_write(bytes, io_secs);
            }
        }
        outcome
    }
}

/// The asynchronous VOL connector. See the crate docs.
pub struct AsyncVol {
    /// The one ring every container's entries go through.
    ring: Arc<Ring>,
    inner: Mutex<ConnInner>,
    sh: Arc<Shared>,
    staging: Staging,
}

impl AsyncVol {
    /// Connector with default settings: one one-shard ring serves every
    /// container.
    pub fn new() -> Self {
        AsyncVolBuilder::new().build()
    }

    /// Builder with custom settings.
    pub fn builder() -> AsyncVolBuilder {
        AsyncVolBuilder::new()
    }

    /// Snapshot of the instrumentation counters, including whether the
    /// circuit breaker currently has writes degraded to synchronous
    /// passthrough. `queued` is what the connector's ring holds right
    /// now: a write or prefetch stops being queued once it has landed and
    /// settled.
    pub fn stats(&self) -> AsyncVolStats {
        let mut s = self.sh.stats.snapshot();
        s.degraded = self.sh.breaker.is_degraded();
        s.queued = self.ring.occupancy() as u64;
        s
    }

    /// Current circuit-breaker state (async→sync degradation machine).
    pub fn breaker_state(&self) -> BreakerState {
        self.sh.breaker.state()
    }

    /// The metrics registry the connector's counters live in — the
    /// tracer's registry when one was installed, otherwise a private one.
    /// Reports read `vol.*` counters from here; [`stats`](Self::stats)
    /// is the typed view over the same atomics.
    pub fn metrics(&self) -> apio_trace::Metrics {
        self.sh.stats.metrics().clone()
    }

    /// Replay staged-but-unflushed write-ahead records into `c` — the
    /// crash-recovery step. Call after reopening a container whose
    /// connector died mid-epoch, with the connector built via
    /// [`AsyncVolBuilder::stage_to_device`] on the *same* staging device.
    /// A no-op under DRAM staging (DRAM snapshots die with the process).
    pub fn recover_staging(&self, c: &Arc<Container>) -> Result<RecoveryReport> {
        match &self.staging {
            Staging::Dram => Ok(RecoveryReport::default()),
            Staging::Device(log) => {
                let _span = self.sh.stats.tracer().span("wal.recover");
                log.recover_into_traced(c, self.sh.stats.tracer())
            }
        }
    }

    /// [`recover_staging`](Self::recover_staging) followed by an
    /// integrity scrub with WAL read-repair: every checksummed extent of
    /// `c` is re-hashed, and a corrupt extent whose dataset has records
    /// in the staging log is rebuilt by replaying them
    /// ([`StagingLog::replay_dataset`]). The report carries the recovery
    /// counters plus the scrub outcome and any superblock slot fallback
    /// the reopen survived. Under DRAM staging the scrub still runs
    /// (detection only — DRAM snapshots hold no durable copy to repair
    /// from).
    pub fn recover_and_scrub(&self, c: &Arc<Container>) -> Result<RecoveryReport> {
        let mut report = self.recover_staging(c)?;
        let scrub = match &self.staging {
            Staging::Dram => c.scrub()?,
            Staging::Device(log) => {
                c.scrub_with(|ds| log.replay_dataset(c, ds).map(|n| n > 0))?
            }
        };
        report.scrub_checked = scrub.checked;
        report.scrub_corrupt = scrub.corrupt;
        report.scrub_repaired = scrub.repaired;
        report.superblock_fallback = c.integrity_stats().superblock_fallbacks;
        Ok(report)
    }

    /// Drain every outstanding operation, then recycle the device staging
    /// log (a no-op under DRAM staging). Call between checkpoint epochs —
    /// the coarse-grained space recycling burst buffers use. The caller
    /// must not issue writes concurrently with this call: a write racing
    /// the reset could land its snapshot in recycled space.
    pub fn recycle_staging(&self) -> Result<()> {
        self.wait_all()?;
        if let Staging::Device(log) = &self.staging {
            log.reset()?;
        }
        Ok(())
    }

    /// Bytes currently appended to the device staging log (0 under DRAM
    /// staging).
    pub fn staging_bytes_used(&self) -> u64 {
        match &self.staging {
            Staging::Dram => 0,
            Staging::Device(log) => log.bytes_used(),
        }
    }

    /// Schedule a background read of `(c, ds, sel)` so a later
    /// `dataset_read` with the same key completes without blocking: a job
    /// on the ring behind every earlier write to `ds`, not waiting them out.
    ///
    /// The returned token names the background read but is not in the
    /// request table, so [`Vol::wait`] on it returns at once. The read's
    /// outcome reaches the caller through the `dataset_read` that takes
    /// the slot, and [`Vol::wait_all`] joins the read.
    ///
    /// Prefetching a key whose slot is already held is a no-op returning
    /// [`Request::SYNC`]: no second read is issued, and the one slot
    /// serves the read.
    pub fn prefetch(&self, c: &Arc<Container>, ds: ObjectId, sel: &Selection) -> Request {
        let sel = SlotKey::new(sel);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let tenant = tenant(&mut inner.tenants, &mut inner.next_serial, c);
        let key = tenant.key(ds);
        let order = tenant.datasets.entry(ds).or_default();
        let Entry::Vacant(vacant) = order.prefetched.entry(sel.clone()) else {
            return Request::SYNC;
        };
        let req = inner.next_req;
        inner.next_req += 1;

        let slot = Slot::new();
        let (c, sh) = (c.clone(), self.sh.clone());
        self.ring.submit_job(key, slot.clone(), move || {
            let mut span = sh.stats.tracer().span("vol.prefetch");
            let sel = sel.selection();
            let t0 = Instant::now();
            let result = with_backoff(&sh.retry, req, t0, &sh.stats, || {
                c.read_selection_tagged(ds, &sel)
            });
            let io_secs = t0.elapsed().as_secs_f64();
            let bytes = result.as_ref().map(|(_, d)| d.len() as u64).unwrap_or(0);
            span.set_event(Event::VolCall {
                op: "prefetch",
                dataset: ds,
                bytes,
            });
            drop(span);
            sh.stats.record_read(bytes, io_secs, true);
            // Decode here, on the reaper and during the caller's compute,
            // with the datatype the read was planned against: a hit then
            // hands the caller its elements (DESIGN.md §17), and the bytes
            // go back to the recycler they were read into. Not device
            // time, so after `io_secs`. A failed read is the slot's, for
            // the read that takes it.
            result.and_then(|(dtype, data)| {
                let elems = Elements::decode(dtype, &data);
                recycle::give(data);
                elems.map(ReadPayload::Elements)
            })
        });

        vacant.insert(slot.clone());
        order.last = Some(Last::Prefetch(slot));
        Request(req)
    }

    /// Enter one request in the table: under the connector lock, assign
    /// its id, let `launch` put it on the ring under the (container,
    /// dataset) key it is given, and note it as the dataset's last, so
    /// per-dataset order is request order (the ring's per-key FIFO).
    /// Neither the reaper, nor a completion hook, nor a job ever takes
    /// this lock, so a full-ring block inside `launch` still makes
    /// progress. Every request admitted is a write, so `c`
    /// becomes a tenant here if it is not one yet, and the dataset's
    /// prefetch slots go stale.
    fn admit(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        launch: impl FnOnce(u64, u64) -> Promise<Completion>,
    ) -> Request {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.drop_settled();
        let req = inner.next_req;
        inner.next_req += 1;
        let tenant = tenant(&mut inner.tenants, &mut inner.next_serial, c);
        let key = tenant.key(ds);
        let order = tenant.datasets.entry(ds).or_default().written(&mut inner.stale_prefetches);
        let done = launch(req, key);
        order.last = Some(Last::Write(done.clone()));
        order.last_write = Some(done.clone());
        inner.requests.insert(req, done);
        Request(req)
    }

    /// The one write body. `snapshot` yields the connector-owned buffer —
    /// the caller's own (owned entry) or a recycled copy of it (borrowed
    /// entry). From there the buffer belongs to exactly one holder at a
    /// time and is recycled by the last: the ring reaper, `land`, or this
    /// thread (after a WAL append or a failed issue).
    fn issue_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        bytes: u64,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<Request> {
        let _vol_span = self.sh.stats.tracer().span_with(
            "vol.write",
            Event::VolCall {
                op: "write",
                dataset: ds,
                bytes,
            },
        );
        // The circuit breaker decides the regime first: degraded issues
        // run synchronously on the caller's thread and are acknowledged
        // only once durable. A dispatched probe must always resolve: the
        // guard reports the outcome, and reverts HalfOpen → Open if
        // dropped unresolved (a failed issue, or a panicking probe job).
        let probe = match self.sh.breaker.route(&self.sh.stats) {
            Route::Degraded => return self.degraded_write(c, ds, sel, snapshot()),
            Route::Async { probe } => probe.then(|| self.sh.breaker.probe_guard(&self.sh.stats)),
        };
        let t0 = Instant::now();
        match self.stage(ds, sel, bytes, snapshot) {
            Ok(payload) => Ok(self.dispatch(c, ds, sel, bytes, payload, probe, t0)),
            // Nothing was dispatched. A dead staging device still counts
            // toward the breaker — degraded mode bypasses staging
            // entirely, which is the remedy.
            Err(e) => self.sh.settle(Err(e), probe, None).map(|()| Request::SYNC),
        }
    }

    /// Take the snapshot and, under device staging, append it to the
    /// write-ahead log; the buffer is done with once the log has it.
    fn stage(
        &self,
        ds: ObjectId,
        sel: &Selection,
        bytes: u64,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<Payload> {
        let mut snap_span = self.sh.stats.tracer().span("vol.snapshot");
        let data = snapshot();
        let payload = match &self.staging {
            Staging::Dram => Payload::Dram(data),
            Staging::Device(log) => {
                let mut wal_span = self.sh.stats.tracer().span("wal.append");
                let appended = log.append(ds, sel, &data);
                recycle::give(data);
                let extent = appended?;
                wal_span.set_event(Event::WalAppend {
                    seq: extent.seq,
                    bytes: extent.len,
                });
                Payload::Staged(log.clone(), extent)
            }
        };
        let staged = matches!(payload, Payload::Staged(..));
        snap_span.set_event(Event::Snapshot { bytes, staged });
        Ok(payload)
    }

    /// Put a staged write on the ring under its (container, dataset) key
    /// ([`Tenant::key`]): raw segments (DESIGN.md §14) on `c`'s device
    /// when the snapshot is in DRAM and its plan, made here, does not
    /// sieve; else one job that lands and settles it (the reaper writes
    /// raw segments: it cannot read a snapshot back from the WAL or sieve
    /// a selection). Either entry holds `c` until it has settled, so no
    /// tenant with work queued is retired: its serial, and with it the
    /// key, stays the same while anything of it is queued, and one
    /// (container, dataset) keeps one FIFO. `t0` is when the snapshot
    /// began: the overhead covers copy and plan.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        bytes: u64,
        payload: Payload,
        probe: Option<ProbeGuard>,
        t0: Instant,
    ) -> Request {
        // A write that fails to plan is a job too: it plans again and holds
        // the error for the wait, like any background failure.
        let segs = match &payload {
            Payload::Dram(_) => c.plan_raw_write(ds, sel, bytes).ok().flatten(),
            Payload::Staged(..) => None,
        };
        self.sh.stats.record_snapshot(bytes, t0.elapsed().as_secs_f64());
        let (tenant, sh) = (c.clone(), self.sh.clone());
        self.admit(c, ds, |req, key| match (payload, segs) {
            (Payload::Dram(data), Some(segs)) => {
                let since = Instant::now();
                // Settled on the reaper the moment the write lands, before
                // the next op on the shard: a retry lands in the write's
                // FIFO position.
                let op = RingOp::Write { data, segs };
                self.ring.submit_with(key, c.backend(), op, Box::new(move |first, replayed, again| {
                    // Traced only when there is a retry to bracket. A
                    // replay's failed pass was the write's first attempt,
                    // and the replay that gave `first` its retry.
                    let retried = replayed || first.is_err();
                    let _exec_span = retried.then(|| sh.execute_span(ds, bytes));
                    if replayed {
                        sh.stats.record_retry_attempt(1, 0);
                        if first.is_ok() {
                            sh.stats.record_retry_success();
                        }
                    }
                    let mut first = Some(first);
                    // The deadline anchors at the first attempt, not at
                    // submission: queue time under a deep ring is the
                    // workload's choice, not a fault.
                    let outcome = with_backoff(&sh.retry, req, Instant::now(), &sh.stats, || {
                        first.take().unwrap_or_else(&mut *again)
                    });
                    let _held = &tenant; // dropped as the hook returns: before the promise
                    sh.settle(outcome, probe, Some(Ran { degraded: false, bytes, since }))
                }))
            }
            (payload, _) => {
                let (sel, done) = (sel.clone(), Promise::new());
                self.ring.submit_job(key, done.clone(), move || {
                    let _exec_span = sh.execute_span(ds, bytes);
                    let since = Instant::now();
                    let outcome = sh.land(&tenant, ds, &sel, payload, req, since);
                    // Settled the moment the write lands, not when somebody
                    // waits: the breaker counts consecutive failures as
                    // writes finish.
                    let ran = Ran { degraded: false, bytes, since };
                    Completion { result: sh.settle(outcome, probe, Some(ran)) }
                });
                done
            }
        })
    }

    /// The elements a cold read of `(c, ds, sel)` will decode into, made
    /// by one job on the ring if the ring is idle: the job allocates them
    /// and writes every one, so their pages are faulted in on the reaper
    /// while the caller waits on the device (DESIGN.md §17). `None` when
    /// the ring holds anything — the job would queue behind it — or the
    /// selection does not fit the dataset, which the read then reports.
    fn prepare(
        &self,
        c: &Container,
        ds: ObjectId,
        sel: &Selection,
    ) -> Option<Promise<Result<Elements>>> {
        if self.ring.occupancy() != 0 {
            return None;
        }
        let info = c.dataset_info(ds).ok()?;
        sel.validate(&info.space).ok()?;
        let len = usize::try_from(sel.npoints(&info.space)).ok()?;
        let dst = Promise::new();
        // Every shard is idle, so the key only picks one.
        self.ring.submit_job(ds, dst.clone(), move || Ok(Elements::written(info.dtype, len)));
        Some(dst)
    }

    /// Synchronous passthrough write, used while the circuit breaker has
    /// the connector degraded. Runs on the caller's thread: the result is
    /// known before returning, so an `Ok` here is as durable as the
    /// container itself — no acknowledged write can be lost to a dead
    /// background pipeline. Per-dataset ordering is preserved by waiting
    /// out the dataset's last background op first.
    fn degraded_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: Vec<u8>,
    ) -> Result<Request> {
        let bytes = data.len() as u64;
        let _span = self.sh.stats.tracer().span_with(
            "vol.degraded_write",
            Event::VolCall {
                op: "degraded_write",
                dataset: ds,
                bytes,
            },
        );
        self.sh
            .stats
            .tracer()
            .instant("degrade", Event::Degrade { dataset: ds, bytes });
        let (salt, last) = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let salt = inner.next_req;
            inner.next_req += 1; // consumed as jitter salt only
            // A container that is not a tenant yet has nothing in flight
            // and no slots, and the inline write needs no ring.
            let order = record(&mut inner.tenants, c, ds);
            (salt, order.and_then(|o| o.written(&mut inner.stale_prefetches).last.clone()))
        };
        if let Some(last) = last {
            last.wait();
        }
        let since = Instant::now();
        let outcome = self.sh.land(c, ds, sel, Payload::Dram(data), salt, since);
        let ran = Ran { degraded: true, bytes, since };
        self.sh.settle(outcome, None, Some(ran)).map(|()| Request::SYNC)
    }
}

impl Default for AsyncVol {
    fn default() -> Self {
        Self::new()
    }
}

impl Vol for AsyncVol {
    fn name(&self) -> &str {
        "async"
    }

    fn dataset_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: &[u8],
    ) -> Result<Request> {
        // The transactional overhead (Eq. 2b's t_transact_overhead) of a
        // borrowed buffer: one copy into warm memory, after which the
        // caller may reuse or mutate its own.
        self.issue_write(c, ds, sel, data.len() as u64, || {
            let mut snapshot = recycle::take(data.len());
            snapshot.copy_from_slice(data);
            snapshot
        })
    }

    fn dataset_write_owned(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: Vec<u8>,
    ) -> Result<Request> {
        // The caller's buffer *is* the snapshot: nothing is copied.
        self.issue_write(c, ds, sel, data.len() as u64, move || data)
    }

    fn dataset_read(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
    ) -> Result<ReadRequest> {
        // Serve from the prefetch slot when warm; else note, in the same
        // section, the dataset's last write.
        let last_write = match record(&mut self.inner.lock().tenants, c, ds) {
            Some(order) => match order.prefetched.remove(&SlotKey::new(sel)) {
                Some(slot) => {
                    self.sh.stats.record_prefetch_hit();
                    return Ok(ReadRequest::pending(slot));
                }
                None => order.last_write.clone(),
            },
            None => None,
        };

        // Cold read: block on the dataset's last write (RAW ordering),
        // then read on the calling thread — the first-time-step behaviour
        // of the paper's connector — while an idle ring makes the
        // elements the read decodes into.
        let mut read_span = self.sh.stats.tracer().span("vol.read");
        let dst = self.prepare(c, ds, sel);
        if let Some(done) = last_write {
            done.wait_settled(|_| ());
        }
        let t0 = Instant::now();
        let salt = ds.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let result = with_backoff(&self.sh.retry, salt, t0, &self.sh.stats, || {
            c.read_selection(ds, sel)
        });
        let io_secs = t0.elapsed().as_secs_f64();
        let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        read_span.set_event(Event::VolCall {
            op: "read",
            dataset: ds,
            bytes,
        });
        drop(read_span);
        self.sh.stats.record_read(bytes, io_secs, false);
        // Taken only if the job has run: waiting for it could mean
        // waiting behind whatever was queued on its shard since.
        let dst = dst.filter(Promise::is_fulfilled).map(|dst| dst.take());
        Ok(match (result, dst) {
            (Ok(bytes), Some(Ok(dst))) => {
                self.sh.stats.record_prepared_read();
                ReadRequest::resolved_into(bytes, dst)
            }
            (result, _) => ReadRequest::resolved(result),
        })
    }

    fn wait(&self, req: Request) -> Result<()> {
        // Not in the table: a sync request, one waited for before, or
        // one dropped clean by `drop_settled`. Each failure is surfaced
        // exactly once.
        let (done, tenants) = {
            let mut inner = self.inner.lock();
            (inner.requests.remove(&req.0), inner.open_tenants())
        };
        let failure = done.and_then(|done| failure(&done));
        // Request settlement is the session model's publication point —
        // even for sync (degraded-path) requests, which settled on issue.
        tenants.iter().for_each(|c| c.publish_settled());
        failure.map_or(Ok(()), |msg| Err(H5Error::Async(msg)))
    }

    fn wait_all(&self) -> Result<()> {
        // Drain the request table and the stale slots, note the live
        // ones and the open tenants, in one section.
        let (mut requests, slots, tenants) = {
            let mut inner = self.inner.lock();
            let tenants = inner.open_tenants();
            let mut slots = std::mem::take(&mut inner.stale_prefetches);
            let records = inner.tenants.iter().flat_map(|t| t.datasets.values());
            slots.extend(records.flat_map(|o| o.prefetched.values()).cloned());
            (inner.requests.drain().collect::<Vec<_>>(), slots, tenants)
        };
        // Request order, not map order: the report must not depend on the
        // hasher.
        requests.sort_by_key(|(req, _)| *req);
        // Aggregate EVERY failure — first-error-wins would silently drop
        // the rest, and a checkpoint writer deciding what to re-drive
        // needs the full list of failed requests.
        let mut failures: Vec<String> = Vec::new();
        for (req, done) in requests {
            if let Some(msg) = failure(&done) {
                failures.push(format!("req {req}: {msg}"));
            }
        }
        for slot in slots {
            if let Some(msg) = panic_of(&slot) {
                failures.push(format!("prefetch panicked: {msg}"));
            }
        }
        tenants.iter().for_each(|c| c.publish_settled());
        if failures.is_empty() {
            return Ok(());
        }
        Err(H5Error::Async(format!(
            "{} background operation(s) failed: [{}]",
            failures.len(),
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::ring::RingConfig;
    use h5lite::{
        container::ROOT_ID, Call, CountingBackend, Dataspace, Datatype, Hyperslab, Layout,
        MemBackend, COALESCE_WINDOW,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    const SLAB: u64 = 16;

    fn slab(w: u64) -> Selection {
        Selection::Slab(Hyperslab::range1(w * SLAB, SLAB))
    }

    /// A device with one bad block, at the address in the returned cell
    /// (nothing bad yet): any write touching it fails for good, however
    /// it is batched or replayed. Then a container on it with one
    /// `writes`-slab dataset, and a ring over the same device.
    fn bad_block_stack(writes: u64) -> (Arc<AtomicU64>, Arc<Container>, ObjectId, Arc<Ring>) {
        let bad = Arc::new(AtomicU64::new(u64::MAX));
        let at = bad.clone();
        let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let Call::Write { segments, .. } = call else {
                return Ok(());
            };
            match segments.iter().find(|seg| seg.offset == at.load(Ordering::SeqCst)) {
                Some(seg) => Err(H5Error::Storage(format!("bad block at {}", seg.offset))),
                None => Ok(()),
            }
        });
        let backend = Arc::new(device);
        let c = Arc::new(Container::create(backend.clone()));
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(writes * SLAB), Layout::Contiguous)
            .unwrap();
        let ring = Arc::new(Ring::new(backend, RingConfig::default()));
        (bad, c, ds, ring)
    }

    /// Table entries and tenant records, right now. Every entry is a
    /// completion on the connector's one ring.
    fn table_sizes(vol: &AsyncVol) -> (usize, usize) {
        let inner = vol.inner.lock();
        (inner.requests.len(), inner.tenants.len())
    }

    /// A producer that never waits per request: the request table stays
    /// bounded (it used to grow by one entry per ring write until the
    /// next wait), `queued` stays bounded, and a failure retired at issue
    /// time is still reported by `wait_all` — once. `in_flight_cap` is
    /// how many unfinished requests a ring admits: the attached one and
    /// the one the connector builds have the same default geometry.
    fn requests_are_retired_without_a_wait(use_ring: bool) {
        const WRITES: u64 = 5_000;
        let (bad, c, ds, ring) = bad_block_stack(WRITES);
        let in_flight_cap = ring.capacity() + COALESCE_WINDOW;
        let vol = match use_ring {
            true => AsyncVol::builder().ring(ring).build(),
            false => AsyncVol::new(),
        };
        // Write 10 lands on the bad block.
        let segs = c.plan_write_selection(ds, &slab(10), SLAB).unwrap();
        bad.store(segs[0].addr, Ordering::SeqCst);

        // Unfinished requests are bounded by what the transport holds;
        // finished ones by the threshold.
        let bound = PENDING_GC_THRESHOLD + in_flight_cap + 1;
        let mut peak = 0;
        for w in 0..WRITES {
            let _ = vol
                .dataset_write(&c, ds, &slab(w), &[w as u8; SLAB as usize])
                .unwrap();
            let (table, ..) = table_sizes(&vol);
            peak = peak.max(table);
        }
        assert!(peak > PENDING_GC_THRESHOLD, "the threshold was reached: {peak}");
        assert!(peak <= bound, "{peak} table entries, bound {bound}");
        assert!(vol.stats().queued <= bound as u64);

        let err = vol.wait_all().unwrap_err().to_string();
        assert!(err.contains("1 background operation(s) failed: [req 11:"), "{err}");
        assert!(err.contains("bad block"), "{err}");
        vol.wait_all().unwrap();
        assert_eq!(vol.stats().queued, 0);
        assert_eq!(table_sizes(&vol), (0, 1), "the failure was reported exactly once");
        assert_eq!(
            c.read_selection(ds, &slab(4_999)).unwrap(),
            vec![(4_999 % 256) as u8; SLAB as usize]
        );
    }

    #[test]
    fn ring_requests_are_retired_without_a_wait() {
        requests_are_retired_without_a_wait(true);
    }

    #[test]
    fn task_requests_are_retired_without_a_wait() {
        requests_are_retired_without_a_wait(false);
    }

    /// `queued` is what has not completed, not what has not been waited
    /// for: once the reaper has drained the ring it reads zero, with
    /// every request still in the table, unwaited — and every write
    /// already settled and counted.
    #[test]
    fn queued_counts_ring_occupancy_not_unsettled_requests() {
        const WRITES: u64 = 64;
        let (_, c, ds, ring) = bad_block_stack(WRITES);
        let vol = AsyncVol::builder().ring(ring.clone()).build();
        for w in 0..WRITES {
            let _ = vol
                .dataset_write(&c, ds, &slab(w), &[w as u8; SLAB as usize])
                .unwrap();
        }
        while ring.occupancy() != 0 {
            std::thread::yield_now();
        }
        assert_eq!(vol.stats().queued, 0);
        assert_eq!(table_sizes(&vol), (64, 1), "nothing was waited for");
        assert_eq!(vol.stats().writes, WRITES, "every write settled as it landed");
        vol.wait_all().unwrap();
        assert_eq!(vol.stats().writes, WRITES);
        assert_eq!(table_sizes(&vol), (0, 1));
    }

    /// A connector outlives the containers it serves: 2 000 of them, each
    /// created on the one device, written once, waited for and dropped,
    /// leave at most 2 tenant records behind at any round — the records
    /// of closed containers go, and hold no ring. On either ring every
    /// write is raw segments, whose hook holds its container until the
    /// write has settled.
    fn tenant_records_stay_bounded(use_ring: bool) {
        let device: Arc<dyn h5lite::StorageBackend> = Arc::new(MemBackend::new());
        let attached = Arc::new(Ring::new(device.clone(), RingConfig::default()));
        let vol = match use_ring {
            true => AsyncVol::builder().ring(attached.clone()).build(),
            false => AsyncVol::new(),
        };
        for round in 0..2_000u64 {
            let c = Arc::new(Container::create(device.clone()));
            let ds = c
                .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(SLAB), Layout::Contiguous)
                .unwrap();
            let req = vol.dataset_write(&c, ds, &slab(0), &[round as u8; SLAB as usize]).unwrap();
            assert_eq!(Arc::ptr_eq(&vol.ring, &attached), use_ring, "round {round}: transport");
            vol.wait(req).unwrap();
            drop(c);
            let (_, tenants) = table_sizes(&vol);
            assert!(tenants <= 2, "round {round}: {tenants} tenant records");
        }
        assert_eq!(vol.stats().writes, 2_000);
    }

    #[test]
    fn ring_tenant_records_stay_bounded() {
        tenant_records_stay_bounded(true);
    }

    #[test]
    fn task_tenant_records_stay_bounded() {
        tenant_records_stay_bounded(false);
    }

    /// A slot key stands for exactly its selection, held inline or
    /// shared: it gives the selection back, and two keys are equal only
    /// when their selections are.
    #[test]
    fn a_slot_key_gives_back_exactly_its_selection() {
        let slab = |start: &[u64], count: &[u64], stride: Option<&[u64]>| {
            Selection::Slab(Hyperslab {
                start: start.to_vec(),
                count: count.to_vec(),
                stride: stride.map(<[u64]>::to_vec),
            })
        };
        let sels = [
            Selection::All,
            slab(&[], &[], None),
            slab(&[5], &[80], None),
            slab(&[5], &[80], Some(&[1])),
            slab(&[5], &[81], None),
            slab(&[1, 2, 3], &[4, 5, 6], Some(&[2, 2, 2])),
            // Past KEY_RANK, and a malformed one: both shared.
            slab(&[1, 2, 3, 4], &[1, 1, 1, 1], None),
            slab(&[1, 2], &[3], None),
        ];
        for (i, a) in sels.iter().enumerate() {
            let key = SlotKey::new(a);
            assert_eq!(*key.selection(), *a, "selection {i}");
            for (j, b) in sels.iter().enumerate() {
                assert_eq!(key == SlotKey::new(b), i == j, "the keys of selections {i} and {j}");
            }
        }
    }

    /// A degraded write runs inline on the caller's thread: to a container
    /// that is not a tenant yet, it makes no tenant record.
    #[test]
    fn a_degraded_write_to_a_fresh_container_makes_no_tenant() {
        let (bad, c, ds, _) = bad_block_stack(1);
        let vol = AsyncVol::builder()
            .retry(RetryPolicy::none())
            .breaker(BreakerConfig { failure_threshold: 1, probe_after: u32::MAX })
            .build();
        bad.store(c.plan_write_selection(ds, &slab(0), SLAB).unwrap()[0].addr, Ordering::SeqCst);
        let _ = vol.dataset_write(&c, ds, &slab(0), &[1; SLAB as usize]).unwrap();
        assert!(vol.wait_all().is_err(), "the bad block fails the write");
        assert_eq!(vol.breaker_state(), BreakerState::Open);
        drop(c);
        vol.wait_all().unwrap();
        assert_eq!(table_sizes(&vol), (0, 0), "the closed container's record went");

        let fresh = Arc::new(Container::create_mem());
        let ds = fresh
            .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(SLAB), Layout::Contiguous)
            .unwrap();
        let req = vol.dataset_write(&fresh, ds, &slab(0), &[2; SLAB as usize]).unwrap();
        assert!(req.is_sync(), "the write ran degraded");
        assert_eq!(fresh.read_selection(ds, &slab(0)).unwrap(), vec![2; SLAB as usize]);
        let (_, tenants) = table_sizes(&vol);
        assert_eq!(tenants, 0, "a degraded write made {tenants} tenant record(s)");
    }
}
