#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
//! # asyncvol — the asynchronous VOL connector
//!
//! A Rust counterpart of the HDF5 Asynchronous I/O VOL connector
//! ([Tang et al., TPDS 2021]) that the paper evaluates. It plugs into
//! `h5lite`'s Virtual Object Layer and moves all data operations onto
//! `argolite` execution streams (background threads), so the application
//! thread returns as soon as the operation is *scheduled*:
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
//!   choice of transport, container write, completion bookkeeping.
//! - **Reads** are blocking unless a prefetch is in flight or complete for
//!   the same `(dataset, selection)`: [`AsyncVol::prefetch`] schedules
//!   background reads of future time steps, and a later `dataset_read`
//!   with the same key is served from the prefetch slot — the mechanism
//!   behind BD-CATS-IO's "first read blocking, the rest overlapped"
//!   behaviour (§V-A2).
//! - **Synchronization** mirrors the HDF5 async VOL's event sets:
//!   [`h5lite::Vol::wait`] on one request token, or
//!   [`h5lite::Vol::wait_all`] to drain the connector.
//! - **Coalescing**: every background data path — the write stream, the
//!   staged read-back, prefetch, cold reads, and WAL recovery replay —
//!   lands selections through the container's I/O planner
//!   ([`h5lite::plan`]): one metadata-lock acquisition per operation and
//!   vectored scatter-gather batches to the backend, so a strided
//!   VPIC/BD-CATS selection costs a handful of device requests instead of
//!   one per hyperslab run.
//! - **Instrumentation** ([`stats::AsyncVolStats`], [`OpRecord`]) exposes
//!   every measured quantity the paper's model consumes: snapshot
//!   (transactional) time, background I/O time, bytes moved, prefetch
//!   hits/misses. The model crate's feedback loop (Fig. 2) subscribes via
//!   [`AsyncVol::set_observer`].
//!
//! Background failures are held per request and surface at wait time as
//! [`H5Error::Async`], matching the deferred error reporting of the real
//! connector. Before an error is ever held, the resilience layer tries to
//! make it not exist: background storage operations retry transient
//! faults with capped, jittered exponential backoff ([`retry`]); repeated
//! device failures trip a circuit breaker that degrades the connector to
//! synchronous passthrough with half-open probing to restore async mode
//! ([`breaker`]); and device staging is a write-ahead log whose
//! staged-but-unflushed records replay into the container after a crash
//! ([`staging`], [`AsyncVol::recover_staging`]).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::Instant;

use apio_trace::{Event, Tracer};
use argolite::sync::Mutex;
use argolite::{Runtime, TaskHandle};
use h5lite::ring::{Completion, CqeErr, Ring, RingOp, Submitted};
use h5lite::{
    recycle, Container, H5Error, ObjectId, Promise, ReadRequest, Request, Result, Selection, Vol,
};

pub mod breaker;
pub mod retry;
pub mod staging;
pub mod stats;
pub use breaker::{BreakerConfig, BreakerState};
pub use retry::RetryPolicy;
pub use staging::{RecoveryReport, Staging, StagingLog};
pub use stats::{AsyncVolStats, OpKind, OpRecord};

use breaker::{CircuitBreaker, ProbeGuard, Route};
use retry::with_backoff;
use stats::StatsCells;

/// Request-table size above which issue retires finished entries, on
/// either transport.
const PENDING_GC_THRESHOLD: usize = 1024;

/// How one write's snapshot travels from `stage` to `land`.
enum Payload {
    Dram(Vec<u8>),
    Staged(Arc<StagingLog>, staging::StagedExtent),
}

/// What `settle` reports about a write that reached the device.
struct Ran {
    /// [`OpKind::Write`] in the background, [`OpKind::DegradedWrite`] inline.
    kind: OpKind,
    bytes: u64,
    /// Start of the reported io_secs: the submission instant on the ring
    /// (queue time included), the start of `land` elsewhere.
    since: Instant,
    /// Snapshot + planning time on the caller's thread (Eq. 2b).
    overhead_secs: f64,
}

/// Observer callback invoked after every completed background operation.
pub type Observer = Arc<dyn Fn(&OpRecord) + Send + Sync>;

/// Builder for [`AsyncVol`].
pub struct AsyncVolBuilder {
    streams: usize,
    ring: Option<Arc<Ring>>,
    observer: Option<Observer>,
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
    /// Defaults: one stream, no observer, DRAM staging, default retry
    /// policy and breaker thresholds.
    pub fn new() -> Self {
        AsyncVolBuilder {
            streams: 1,
            ring: None,
            observer: None,
            staging: Staging::Dram,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Number of background execution streams (default 1, like the HDF5
    /// async VOL's single background thread per file).
    pub fn streams(mut self, n: usize) -> Self {
        self.streams = n;
        self
    }

    /// Route DRAM-staged background writes through `ring` instead of
    /// spawning a container-write task per request (DESIGN.md §14): the
    /// caller's thread plans the selection, then submits the snapshot +
    /// segments as one ring entry keyed by dataset id; the reaper
    /// coalesces queued entries into vectored batches, and the request's
    /// `wait` completes the promise — retrying retryable completions by
    /// resubmission under the connector's [`RetryPolicy`], with
    /// unchanged circuit-breaker semantics.
    ///
    /// The ring must wrap the **same backend** the container uses;
    /// device staging bypasses the ring (the WAL already decouples the
    /// caller from the device).
    pub fn ring(mut self, ring: Arc<Ring>) -> Self {
        self.ring = Some(ring);
        self
    }

    /// Attach an operation observer at construction.
    pub fn observer(mut self, obs: Observer) -> Self {
        self.observer = Some(obs);
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

    /// Spin up the execution streams and assemble the connector.
    pub fn build(self) -> AsyncVol {
        // With invariants on, forward h5lite's named metadata-plane
        // locks (shard, tree, and allocator classes) into argolite's
        // lock-order graph: the bridge is how cross-crate deadlock
        // cycles (connector lock vs. container shard) get caught even
        // though h5lite itself cannot depend on argolite.
        #[cfg(feature = "debug-invariants")]
        h5lite::sync::order_hook::install(
            argolite::sync::lock_order::acquire_class,
            argolite::sync::lock_order::release_class,
        );
        AsyncVol {
            staging: self.staging,
            rt: Runtime::new(self.streams),
            ring: self.ring,
            inner: Mutex::new_named("asyncvol.conn", ConnInner {
                next_req: 1,
                requests: HashMap::new(),
                order: HashMap::new(),
                prefetched: HashMap::new(),
            }),
            sh: Shared {
                stats: StatsCells::traced(self.tracer),
                retry: self.retry,
                breaker: CircuitBreaker::new(self.breaker),
                observer: Arc::new(Mutex::new_named("asyncvol.observer", self.observer)),
            },
            tenants: Mutex::new_named("asyncvol.tenants", Vec::new()),
        }
    }
}

struct PrefetchSlot {
    promise: Promise<Result<Vec<u8>>>,
    handle: TaskHandle,
}

type ErrorCell = Arc<Mutex<Option<H5Error>>>;

/// A ring-submitted write awaiting `settle` — run by whichever caller
/// gets there first: the request's own `wait`, `wait_all`, an ordering
/// wait from a read/prefetch/degraded-write on the same dataset, or a
/// later issue retiring finished requests.
struct RingFlight {
    promise: Promise<Completion>,
    ds: ObjectId,
    ran: Ran,
    /// Unresolved half-open probe riding on this request, if any.
    probe: Option<Box<ProbeGuard>>,
}

/// One request-table entry: where the request is.
enum Flight {
    /// On an execution stream. The task settles itself the moment the
    /// write lands and leaves a failure in `error`.
    Task { handle: TaskHandle, error: ErrorCell },
    /// On the ring, not yet settled.
    Ring(RingFlight),
    /// Settled and failed; held for the request's `wait` or `wait_all`.
    Failed(String),
}

impl Flight {
    /// Whether settling this entry would return without blocking.
    fn finished(&self) -> bool {
        match self {
            Flight::Task { handle, .. } => handle.is_terminal(),
            Flight::Ring(flight) => flight.promise.is_fulfilled(),
            Flight::Failed(_) => false, // nothing left to do but report it
        }
    }
}

/// Per-dataset ordering. Every task on the dataset (write or prefetch)
/// depends on `last_task`, a total order covering WAW, RAW and WAR; ring
/// writes are ordered by the ring's own per-key FIFO, which `ring`
/// mirrors so they settle in submission order. An id in `ring` with no
/// table entry was settled by its own `wait` and is skipped.
#[derive(Default)]
struct DsOrder {
    last_task: Option<TaskHandle>,
    ring: VecDeque<u64>,
}

struct ConnInner {
    next_req: u64,
    /// Every request that has not been reported to its caller yet.
    requests: HashMap<u64, Flight>,
    order: HashMap<ObjectId, DsOrder>,
    /// Completed or in-flight prefetches keyed by (dataset, selection).
    prefetched: HashMap<(ObjectId, Selection), PrefetchSlot>,
}

/// What a write still needs once the call that issued it has returned:
/// `land` and `settle` run on this, on the caller's thread or cloned
/// into a background task.
#[derive(Clone)]
struct Shared {
    stats: StatsCells,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    observer: Arc<Mutex<Option<Observer>>>,
}

impl Shared {
    fn notify(&self, record: OpRecord) {
        let obs = self.observer.lock().clone();
        if let Some(obs) = obs {
            obs(&record);
        }
    }

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

    /// The one completion path: resolve the breaker (and the probe riding
    /// on the write), count the write, tell the observer, and hand the
    /// outcome back for the caller to return or stow. `ran` is `None`
    /// when the write failed on the caller's thread before anything was
    /// dispatched (planning, WAL append).
    ///
    /// A background write was acknowledged at issue, so it is counted and
    /// observed whatever its outcome; an inline (degraded) one only when
    /// it succeeded — its failure goes straight back to the caller, like
    /// a failed issue.
    fn settle(&self, outcome: Result<()>, probe: Option<ProbeGuard>, ran: Option<Ran>) -> Result<()> {
        // Breaker before observer, so a panicking observer cannot leave a
        // probe unresolved.
        self.breaker.resolve(&outcome, probe, ran.is_some(), &self.stats);
        if let Some(Ran { kind, bytes, since, overhead_secs }) = ran {
            let io_secs = since.elapsed().as_secs_f64();
            let degraded = kind == OpKind::DegradedWrite;
            if !degraded || outcome.is_ok() {
                if degraded {
                    self.stats.record_degraded_write(bytes, io_secs);
                } else {
                    self.stats.record_write(bytes, io_secs);
                }
                self.notify(OpRecord { kind, bytes, io_secs, overhead_secs });
            }
        }
        outcome
    }
}

/// The asynchronous VOL connector. See the crate docs.
pub struct AsyncVol {
    rt: Runtime,
    ring: Option<Arc<Ring>>,
    inner: Mutex<ConnInner>,
    sh: Shared,
    staging: Staging,
    /// Containers this connector has written to, weakly held (the
    /// connector must not keep a closed file alive). Settlement
    /// (`wait`/`wait_all`) forwards to every live tenant's
    /// [`Container::publish_settled`] — the session model's
    /// visibility boundary.
    tenants: Mutex<Vec<Weak<Container>>>,
}

impl AsyncVol {
    /// Connector with one background stream.
    pub fn new() -> Self {
        AsyncVolBuilder::new().build()
    }

    /// Builder with custom settings.
    pub fn builder() -> AsyncVolBuilder {
        AsyncVolBuilder::new()
    }

    /// Snapshot of the instrumentation counters, including whether the
    /// circuit breaker currently has writes degraded to synchronous
    /// passthrough. `queued` counts background tasks not yet completed
    /// plus what the ring holds right now: a ring write stops being
    /// queued when the reaper finishes it, not when somebody settles it.
    pub fn stats(&self) -> AsyncVolStats {
        let mut s = self.sh.stats.snapshot();
        s.degraded = self.sh.breaker.is_degraded();
        s.queued += self.ring.as_ref().map_or(0, |ring| ring.occupancy() as u64);
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
        self.sh
            .stats
            .record_scrub(scrub.corrupt, scrub.repaired, report.superblock_fallback);
        Ok(report)
    }

    /// Install (or replace) the per-operation observer.
    pub fn set_observer(&self, obs: Observer) {
        *self.sh.observer.lock() = Some(obs);
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

    /// Submit to the ring with Block semantics regardless of the ring's
    /// own policy: a Poll-policy ring hands a full-ring op back, and the
    /// connector's contract is that an issued write is queued.
    fn ring_submit_blocking(ring: &Ring, ds: ObjectId, op: RingOp) -> Promise<Completion> {
        let mut op = op;
        loop {
            match ring.submit_keyed(ds, op) {
                Submitted::Accepted { promise, .. } => return promise,
                Submitted::Full(back) => {
                    op = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Remember `c` as a tenant of this connector (idempotent per
    /// container identity). Called on every write issue; the list is
    /// weak and self-pruning, so a dropped container costs one retain
    /// pass, never a leak.
    fn register_tenant(&self, c: &Arc<Container>) {
        let mut tenants = self.tenants.lock();
        tenants.retain(|w| w.strong_count() > 0);
        if !tenants.iter().any(|w| w.as_ptr() == Arc::as_ptr(c)) {
            tenants.push(Arc::downgrade(c));
        }
    }

    /// Settlement is a publication point: under
    /// [`ConsistencyModel::Session`](h5lite::ConsistencyModel) the
    /// working metadata of every tenant becomes the published view the
    /// moment its requests settle. A no-op under the strong model
    /// (already published at mutation) and the commit model (waits for
    /// flush). The tenant list is cloned out first so no connector lock
    /// is held across the containers' shard acquisitions.
    fn publish_settled_tenants(&self) {
        let tenants: Vec<Weak<Container>> = {
            let mut t = self.tenants.lock();
            t.retain(|w| w.strong_count() > 0);
            t.clone()
        };
        for w in tenants {
            if let Some(c) = w.upgrade() {
                c.publish_settled();
            }
        }
    }

    /// Take `req` out of the table for its own `wait`. A ring write
    /// leaves its id behind in the dataset's FIFO; ids no longer in the
    /// table are dropped as they reach the front.
    fn take_request(&self, req: u64) -> Option<Flight> {
        let mut inner = self.inner.lock();
        let ConnInner { requests, order, .. } = &mut *inner;
        let flight = requests.remove(&req)?;
        if let Flight::Ring(ring) = &flight {
            if let Some(order) = order.get_mut(&ring.ds) {
                while order.ring.front().is_some_and(|r| !requests.contains_key(r)) {
                    order.ring.pop_front();
                }
            }
        }
        Some(flight)
    }

    /// Settle one request already taken out of the table, wherever it is:
    /// a task settled itself when its write landed, so wait for it and
    /// collect what it left; a ring write is settled here. Returns the
    /// failure to report, if any.
    fn settle_request(&self, req: u64, flight: Flight) -> Option<String> {
        match flight {
            Flight::Task { handle, error } => match handle.wait() {
                Err(p) => Some(format!("background task panicked: {}", p.message)),
                Ok(()) => error.lock().take().map(|e| e.to_string()),
            },
            // A ring flight exists only on a connector built with a ring.
            Flight::Ring(flight) => self
                .ring
                .as_ref()
                .and_then(|ring| self.finish_ring(ring, req, flight))
                .map(|e| e.to_string()),
            Flight::Failed(msg) => Some(msg),
        }
    }

    /// [`settle_request`](Self::settle_request) on behalf of somebody
    /// other than the request's waiter: a failure goes back into the
    /// table for the request's own `wait` (or `wait_all`) to surface.
    fn retire(&self, req: u64, flight: Flight) {
        if let Some(msg) = self.settle_request(req, flight) {
            self.inner.lock().requests.insert(req, Flight::Failed(msg));
        }
    }

    /// Wait for one ring write's completion, resubmitting retryable
    /// failures under the connector's retry policy, then settle it.
    fn finish_ring(&self, ring: &Ring, req: u64, flight: RingFlight) -> Option<H5Error> {
        let RingFlight { promise: mut current, ds, ran, probe } = flight;
        let mut resubmit: Option<RingOp> = None;
        // The deadline anchors at settlement, not submission: queue time
        // under a deep ring is the workload's choice, not a fault.
        let outcome = with_backoff(&self.sh.retry, req, Instant::now(), &self.sh.stats, || {
            if let Some(op) = resubmit.take() {
                current = Self::ring_submit_blocking(ring, ds, op);
            }
            current.wait_cloned().result.map_err(|CqeErr { error, op }| {
                resubmit = Some(op);
                error
            })
        });
        if let Some(RingOp::Write { data, .. }) = resubmit {
            recycle::give(data); // gave up: the snapshot will not be resubmitted
        }
        self.sh.settle(outcome, probe.map(|g| *g), Some(ran)).err()
    }

    /// Settle every ring write pending on `ds`, in submission order —
    /// the ring path's RAW/WAR ordering for reads, prefetches, and
    /// degraded writes.
    fn settle_ring_ds(&self, ds: ObjectId) {
        if self.ring.is_none() {
            return;
        }
        let mut settled = 0u64;
        loop {
            let next = {
                let mut inner = self.inner.lock();
                let ConnInner { requests, order, .. } = &mut *inner;
                let Some(req) = order.get_mut(&ds).and_then(|o| o.ring.pop_front()) else {
                    break;
                };
                requests.remove(&req).map(|flight| (req, flight))
            };
            if let Some((req, flight)) = next {
                settled += 1;
                self.retire(req, flight);
            }
        }
        if settled > 0 {
            // Causal edge closing the vol.handoff instants this dataset's
            // ring writes opened; the connector spans epochs, so 0 marks
            // "epoch unknown".
            self.sh.stats.tracer().instant(
                "vol.settle",
                Event::Settle {
                    epoch: 0,
                    requests: settled,
                },
            );
        }
    }

    /// Wait out the last task scheduled on `ds`, which every earlier
    /// task on the dataset precedes.
    fn wait_last_task(&self, ds: ObjectId) -> Result<()> {
        let dep = { self.inner.lock().order.get(&ds).and_then(|o| o.last_task.clone()) };
        let Some(dep) = dep else { return Ok(()) };
        dep.wait()
            .map_err(|p| H5Error::Async(format!("dependency panicked: {}", p.message)))
    }

    /// Schedule a background read of `(ds, sel)` so a later `dataset_read`
    /// with the same key completes without blocking. Returns the request
    /// token of the background read.
    ///
    /// Prefetching the same key twice is a no-op returning the original
    /// token's id 0 sentinel — the slot is already warm.
    pub fn prefetch(&self, c: &Arc<Container>, ds: ObjectId, sel: &Selection) -> Request {
        // Ring writes are not task handles, so the dependency list below
        // cannot order the background read after them — settle them now.
        self.settle_ring_ds(ds);
        let mut inner = self.inner.lock();
        let key = (ds, sel.clone());
        if inner.prefetched.contains_key(&key) {
            return Request::SYNC;
        }
        let req = inner.next_req;
        inner.next_req += 1;

        let promise: Promise<Result<Vec<u8>>> = Promise::new();
        let order = inner.order.entry(ds).or_default();
        let deps: Vec<TaskHandle> = order.last_task.iter().cloned().collect();

        let c = c.clone();
        let sel_task = sel.clone();
        let p = promise.clone();
        let sh = self.sh.clone();
        sh.stats.record_queue_submitted();
        let handle = self.rt.spawn_dependent(&deps, move || {
            let mut span = sh.stats.tracer().span("vol.prefetch");
            let t0 = Instant::now();
            let result =
                with_backoff(&sh.retry, req, t0, &sh.stats, || c.read_selection(ds, &sel_task));
            let io_secs = t0.elapsed().as_secs_f64();
            let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
            span.set_event(Event::VolCall {
                op: "prefetch",
                dataset: ds,
                bytes,
            });
            drop(span);
            sh.stats.record_read(bytes, io_secs, true);
            sh.notify(OpRecord {
                kind: OpKind::Prefetch,
                bytes,
                io_secs,
                overhead_secs: 0.0,
            });
            p.fulfill(result);
            sh.stats.record_queue_completed();
        });

        order.last_task = Some(handle.clone());
        inner.prefetched.insert(key, PrefetchSlot { promise, handle });
        Request(req)
    }

    /// Requests that have **already finished**, taken out of the table in
    /// request order once it (or the ordering map) holds more than
    /// [`PENDING_GC_THRESHOLD`] entries, so a producer that never waits
    /// per request grows neither without bound. The caller retires them
    /// after releasing the connector lock; nothing here waits. Per dataset
    /// the ring walk stops at the first unfinished request: settlement
    /// order is request order.
    fn take_finished_locked(inner: &mut ConnInner) -> Vec<(u64, Flight)> {
        let ConnInner { requests, order, .. } = inner;
        if requests.len().max(order.len()) <= PENDING_GC_THRESHOLD {
            return Vec::new();
        }
        let mut done: Vec<u64> = requests
            .iter()
            .filter(|(_, flight)| matches!(flight, Flight::Task { .. }) && flight.finished())
            .map(|(req, _)| *req)
            .collect();
        for o in order.values_mut() {
            while let Some(&req) = o.ring.front() {
                if requests.get(&req).is_some_and(|flight| !flight.finished()) {
                    break;
                }
                o.ring.pop_front();
                done.push(req);
            }
        }
        order.retain(|_, o| {
            !o.ring.is_empty() || o.last_task.as_ref().is_some_and(|h| !h.is_terminal())
        });
        done.sort_unstable();
        done.into_iter()
            .filter_map(|req| requests.remove(&req).map(|flight| (req, flight)))
            .collect()
    }

    /// Enter one request in the table: under the connector lock, assign
    /// its id and let `launch` put it in flight and note it in the
    /// dataset's ordering record, so per-dataset order is request order
    /// (the ring's per-key FIFO, the task dependency chain). Neither the
    /// reaper nor a task ever takes this lock, so a full-ring block
    /// inside `launch` still makes progress. Finished requests found on
    /// the way are retired after the lock is released.
    fn admit(&self, ds: ObjectId, launch: impl FnOnce(u64, &mut DsOrder) -> Flight) -> Request {
        let mut inner = self.inner.lock();
        let finished = Self::take_finished_locked(&mut inner);
        let req = inner.next_req;
        inner.next_req += 1;
        let flight = launch(req, inner.order.entry(ds).or_default());
        inner.requests.insert(req, flight);
        drop(inner);
        for (done, flight) in finished {
            self.retire(done, flight);
        }
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
        // Registered before routing so every regime (ring, staged,
        // degraded) publishes at this connector's settlement points.
        self.register_tenant(c);
        // The circuit breaker decides the regime first: degraded issues
        // run synchronously on the caller's thread and are acknowledged
        // only once durable. A dispatched probe must always resolve: the
        // guard reports the outcome, and reverts HalfOpen → Open if
        // dropped unresolved (a failed issue, or a panicking probe task).
        let probe = match self.sh.breaker.route(&self.sh.stats) {
            Route::Degraded => return self.degraded_write(c, ds, sel, snapshot()),
            Route::Async { probe } => probe.then(|| self.sh.breaker.probe_guard(&self.sh.stats)),
        };
        let t0 = Instant::now();
        match self.stage(ds, sel, bytes, snapshot) {
            Ok(payload) => self.dispatch(c, ds, sel, bytes, payload, probe, t0),
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

    /// Put a staged write in flight on one of the two transports: a ring
    /// entry (DESIGN.md §14) when a ring is attached and the snapshot is
    /// in DRAM, else a task ordered after the dataset's last one. Device
    /// staging keeps the task transport: the reaper executes raw segments
    /// and cannot read a snapshot back from the log. `t0` is when the
    /// snapshot began, so the recorded overhead covers copy and plan.
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
    ) -> Result<Request> {
        let stats = &self.sh.stats;
        match (&self.ring, payload) {
            (Some(ring), Payload::Dram(data)) => {
                // Metadata-only planning on the caller's thread; the data
                // path (the vectored writes) runs on the reaper, which
                // recycles the snapshot once it has landed.
                let segs = match c.plan_write_selection(ds, sel, bytes) {
                    Ok(segs) => segs,
                    Err(e) => {
                        recycle::give(data);
                        return self.sh.settle(Err(e), probe, None).map(|()| Request::SYNC);
                    }
                };
                let overhead_secs = t0.elapsed().as_secs_f64();
                stats.record_snapshot(bytes, overhead_secs);
                stats.tracer().instant(
                    "ring.submit",
                    Event::VolCall {
                        op: "ring_submit",
                        dataset: ds,
                        bytes,
                    },
                );
                // Causal edge: the snapshot leaves the application thread
                // here; the matching vol.settle fires when settle_ring_ds
                // drains it.
                stats
                    .tracer()
                    .instant("vol.handoff", Event::WriteHandoff { epoch: 0, bytes });
                Ok(self.admit(ds, |req, order| {
                    let op = RingOp::Write { data, segs };
                    let promise = Self::ring_submit_blocking(ring, ds, op);
                    order.ring.push_back(req);
                    let ran = Ran { kind: OpKind::Write, bytes, since: Instant::now(), overhead_secs };
                    Flight::Ring(RingFlight { promise, ds, ran, probe: probe.map(Box::new) })
                }))
            }
            (_, payload) => {
                let overhead_secs = t0.elapsed().as_secs_f64();
                stats.record_snapshot(bytes, overhead_secs);
                let (c, sel, sh) = (c.clone(), sel.clone(), self.sh.clone());
                Ok(self.admit(ds, |req, order| {
                    let error: ErrorCell = Arc::new(Mutex::new_named("asyncvol.error_cell", None));
                    let stow = error.clone();
                    let deps: Vec<TaskHandle> = order.last_task.iter().cloned().collect();
                    sh.stats.record_queue_submitted();
                    let handle = self.rt.spawn_dependent(&deps, move || {
                        let _exec_span = sh.stats.tracer().span_with(
                            "vol.execute",
                            Event::VolCall {
                                op: "execute",
                                dataset: ds,
                                bytes,
                            },
                        );
                        let since = Instant::now();
                        let outcome = sh.land(&c, ds, &sel, payload, req, since);
                        let ran = Ran { kind: OpKind::Write, bytes, since, overhead_secs };
                        // Settled the moment the write lands, not when
                        // somebody waits: the breaker counts consecutive
                        // failures, and the observer feeds the model, as
                        // writes finish.
                        if let Err(e) = sh.settle(outcome, probe, Some(ran)) {
                            *stow.lock() = Some(e);
                        }
                        sh.stats.record_queue_completed();
                    });
                    order.last_task = Some(handle.clone());
                    Flight::Task { handle, error }
                }))
            }
        }
    }

    /// Synchronous passthrough write, used while the circuit breaker has
    /// the connector degraded. Runs on the caller's thread: the result is
    /// known before returning, so an `Ok` here is as durable as the
    /// container itself — no acknowledged write can be lost to a dead
    /// background pipeline. Per-dataset ordering is preserved by waiting
    /// out any in-flight background op on the same dataset first.
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
        self.settle_ring_ds(ds); // order after any in-flight ring writes
        let salt = {
            let mut inner = self.inner.lock();
            let salt = inner.next_req;
            inner.next_req += 1; // consumed as jitter salt only
            salt
        };
        if let Err(e) = self.wait_last_task(ds) {
            recycle::give(data);
            return Err(e);
        }
        let since = Instant::now();
        let outcome = self.sh.land(c, ds, sel, Payload::Dram(data), salt, since);
        let ran = Ran { kind: OpKind::DegradedWrite, bytes, since, overhead_secs: 0.0 };
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
        // Serve from the prefetch slot when warm.
        {
            let mut inner = self.inner.lock();
            let key = (ds, sel.clone());
            if let Some(slot) = inner.prefetched.remove(&key) {
                self.sh.stats.record_prefetch_hit();
                return Ok(ReadRequest::pending(slot.promise));
            }
        }

        // Cold read: block on any outstanding op on this dataset (RAW
        // ordering), then read on the calling thread — the first-time-step
        // behaviour of the paper's connector. Ring writes order the same
        // way: settle them before reading.
        self.settle_ring_ds(ds);
        let mut read_span = self.sh.stats.tracer().span("vol.read");
        self.wait_last_task(ds)?;
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
        self.sh.notify(OpRecord {
            kind: OpKind::Read,
            bytes,
            io_secs,
            overhead_secs: 0.0,
        });
        Ok(ReadRequest::resolved(result))
    }

    fn wait(&self, req: Request) -> Result<()> {
        let result = self.wait_inner(req);
        // Request settlement is the session model's publication point —
        // even for sync (degraded-path) requests, which settled on issue.
        self.publish_settled_tenants();
        result
    }

    fn wait_all(&self) -> Result<()> {
        let result = self.wait_all_inner();
        self.publish_settled_tenants();
        result
    }
}

impl AsyncVol {
    fn wait_inner(&self, req: Request) -> Result<()> {
        if req.is_sync() {
            return Ok(());
        }
        // Not in the table: waited for before. Each failure is surfaced
        // exactly once.
        let Some(flight) = self.take_request(req.0) else {
            return Ok(());
        };
        match self.settle_request(req.0, flight) {
            Some(msg) => Err(H5Error::Async(msg)),
            None => Ok(()),
        }
    }

    fn wait_all_inner(&self) -> Result<()> {
        // Drain the request table and any in-flight prefetches.
        let (mut flights, prefetch_handles) = {
            let mut inner = self.inner.lock();
            inner.order.retain(|_, o| {
                o.ring.clear();
                o.last_task.is_some()
            });
            let flights: Vec<(u64, Flight)> = inner.requests.drain().collect();
            let pf: Vec<TaskHandle> = inner
                .prefetched
                .values()
                .map(|s| s.handle.clone())
                .collect();
            (flights, pf)
        };
        // Request order, not map order: observer records and retries
        // must not depend on the hasher.
        flights.sort_by_key(|(req, _)| *req);
        // Aggregate EVERY failure — first-error-wins would silently drop
        // the rest, and a checkpoint writer deciding what to re-drive
        // needs the full list of failed requests.
        let mut failures: Vec<String> = Vec::new();
        for (req, flight) in flights {
            if let Some(msg) = self.settle_request(req, flight) {
                failures.push(format!("req {req}: {msg}"));
            }
        }
        for handle in prefetch_handles {
            if let Err(p) = handle.wait() {
                failures.push(format!("prefetch panicked: {}", p.message));
            }
        }
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
        container::ROOT_ID, Dataspace, Datatype, Hyperslab, IoVec, IoVecMut, Layout, MemBackend,
        StorageBackend, COALESCE_WINDOW,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A device with one bad block: any write touching `bad` fails for
    /// good, however it is batched or replayed.
    struct BadBlock {
        inner: MemBackend,
        bad: AtomicU64,
    }

    impl BadBlock {
        fn check(&self, offset: u64) -> Result<()> {
            if offset == self.bad.load(Ordering::SeqCst) {
                return Err(H5Error::Storage(format!("bad block at {offset}")));
            }
            Ok(())
        }
    }

    impl StorageBackend for BadBlock {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.check(offset)?;
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
            batch.iter().try_for_each(|seg| self.check(seg.offset))?;
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

    const SLAB: u64 = 16;

    fn slab(w: u64) -> Selection {
        Selection::Slab(Hyperslab::range1(w * SLAB, SLAB))
    }

    /// A `BadBlock` device (nothing bad yet), a container on it with one
    /// `writes`-slab dataset, and a ring over the same device.
    fn bad_block_stack(writes: u64) -> (Arc<BadBlock>, Arc<Container>, ObjectId, Arc<Ring>) {
        let backend = Arc::new(BadBlock {
            inner: MemBackend::new(),
            bad: AtomicU64::new(u64::MAX),
        });
        let c = Arc::new(Container::create(backend.clone()));
        let ds = c
            .create_dataset(ROOT_ID, "x", Datatype::U8, &Dataspace::d1(writes * SLAB), Layout::Contiguous)
            .unwrap();
        let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
        (backend, c, ds, ring)
    }

    /// Table entries and ring-FIFO slots right now.
    fn table_sizes(vol: &AsyncVol) -> (usize, usize, usize) {
        let inner = vol.inner.lock();
        let on_ring = inner.requests.values().filter(|f| matches!(f, Flight::Ring(_))).count();
        let ordered = inner.order.values().map(|o| o.ring.len()).sum();
        (inner.requests.len(), on_ring, ordered)
    }

    /// A producer that never waits per request: the request table stays
    /// bounded (it used to grow by one entry per ring write until the
    /// next wait), `queued` stays bounded, and a failure retired at issue
    /// time is still reported by `wait_all` — once. `in_flight_cap` is
    /// how many unfinished requests the transport admits: the ring
    /// enforces its own, the task transport has no admission control, so
    /// there the producer paces itself on the `queued` gauge.
    fn requests_are_retired_without_a_wait(use_ring: bool) {
        const WRITES: u64 = 5_000;
        let (backend, c, ds, ring) = bad_block_stack(WRITES);
        let (vol, in_flight_cap) = if use_ring {
            let cap = ring.capacity() + COALESCE_WINDOW;
            (AsyncVol::builder().ring(ring).build(), cap)
        } else {
            (AsyncVol::new(), 64)
        };
        // Write 10 lands on the bad block.
        let segs = c.plan_write_selection(ds, &slab(10), SLAB).unwrap();
        backend.bad.store(segs[0].addr, Ordering::SeqCst);

        // Unfinished requests are bounded by what the transport holds;
        // finished ones by the threshold.
        let bound = PENDING_GC_THRESHOLD + in_flight_cap + 1;
        let mut peak = 0;
        for w in 0..WRITES {
            while !use_ring && vol.stats().queued >= in_flight_cap as u64 {
                std::thread::yield_now();
            }
            let _ = vol
                .dataset_write(&c, ds, &slab(w), &[w as u8; SLAB as usize])
                .unwrap();
            let (table, on_ring, ordered) = table_sizes(&vol);
            peak = peak.max(table);
            assert_eq!(ordered, on_ring, "table and ring FIFO move together");
        }
        assert!(peak > PENDING_GC_THRESHOLD, "the threshold was reached: {peak}");
        assert!(peak <= bound, "{peak} table entries, bound {bound}");
        assert!(vol.stats().queued <= bound as u64);

        let err = vol.wait_all().unwrap_err().to_string();
        assert!(err.contains("1 background operation(s) failed: [req 11:"), "{err}");
        assert!(err.contains("bad block"), "{err}");
        vol.wait_all().unwrap();
        assert_eq!(vol.stats().queued, 0);
        assert_eq!(table_sizes(&vol), (0, 0, 0), "the failure was reported exactly once");
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
    /// every request still unsettled in the table.
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
        assert_eq!(table_sizes(&vol), (64, 64, 64), "nothing was settled");
        assert_eq!(vol.stats().writes, 0, "nothing was settled");
        vol.wait_all().unwrap();
        assert_eq!(vol.stats().writes, WRITES);
        assert_eq!(table_sizes(&vol), (0, 0, 0));
    }
}
