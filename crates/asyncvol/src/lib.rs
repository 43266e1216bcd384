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
//!   on the same dataset.
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

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;

use apio_trace::{Event, Tracer};
use argolite::sync::Mutex;
use argolite::{Runtime, TaskHandle};
use h5lite::ring::{Completion, CqeErr, Ring, RingOp, Submitted, WaitMode};
use h5lite::{
    recycle, Container, H5Error, ObjectId, Promise, ReadRequest, Request, Result, Selection, Vol,
};

pub mod batch;
pub mod breaker;
pub mod governor;
pub mod retry;
pub mod staging;
pub mod stats;
pub use batch::{BatchOpId, WriteBatch};
pub use breaker::{BreakerConfig, BreakerState};
pub use governor::DepthGovernor;
pub use retry::RetryPolicy;
pub use staging::{RecoveryReport, Staging, StagingLog};
pub use stats::{AsyncVolStats, OpKind, OpRecord};

use breaker::{CircuitBreaker, ProbeGuard, Route};
use retry::with_backoff;

/// Pending-request count above which issue reaps finished entries, for
/// both the task path's handles and the ring path's completions.
const PENDING_GC_THRESHOLD: usize = 1024;

/// How one write's snapshot travels to the background stream.
enum Payload {
    Dram(Vec<u8>),
    Staged(Arc<StagingLog>, staging::StagedExtent),
}

/// Observer callback invoked after every completed background operation.
pub type Observer = Arc<dyn Fn(&OpRecord) + Send + Sync>;

/// Builder for [`AsyncVol`].
pub struct AsyncVolBuilder {
    streams: usize,
    max_streams: Option<usize>,
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
            max_streams: None,
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

    /// Growth ceiling for depth-adaptive stream scaling (default: the
    /// configured stream count, i.e. no growth). Effective only together
    /// with [`ring`](Self::ring): the depth governor grows the stream
    /// pool toward this ceiling as ring occupancy rises. Growth-only —
    /// streams are never reclaimed.
    pub fn adaptive_streams(mut self, max: usize) -> Self {
        self.max_streams = Some(max);
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
        let max_streams = self.max_streams.unwrap_or(self.streams);
        AsyncVol {
            staging: self.staging,
            rt: Runtime::new(self.streams),
            ring: self.ring.map(|ring| RingCtl {
                ring,
                governor: DepthGovernor::new(self.streams, max_streams),
            }),
            inner: Mutex::new_named("asyncvol.conn", ConnInner {
                next_req: 1,
                pending: HashMap::new(),
                last_op: HashMap::new(),
                errors: HashMap::new(),
                prefetched: HashMap::new(),
                ring_pending: HashMap::new(),
                ring_by_ds: HashMap::new(),
            }),
            stats: stats::StatsCells::traced(self.tracer),
            observer: Mutex::new_named("asyncvol.observer", self.observer),
            retry: self.retry,
            breaker: CircuitBreaker::new(self.breaker),
            tenants: Mutex::new_named("asyncvol.tenants", Vec::new()),
        }
    }
}

struct PrefetchSlot {
    promise: Promise<Result<Vec<u8>>>,
    handle: TaskHandle,
}

type ErrorCell = Arc<Mutex<Option<H5Error>>>;

/// The ring and its depth governor (present when the builder attached a
/// ring).
struct RingCtl {
    ring: Arc<Ring>,
    governor: DepthGovernor,
}

/// A ring-submitted write awaiting its completion bookkeeping (breaker,
/// stats, observer, retries) — performed by whichever caller settles it
/// first: the request's own `wait`, `wait_all`, or an ordering wait from
/// a read/prefetch/degraded-write on the same dataset.
struct RingPending {
    promise: Promise<Completion>,
    ds: ObjectId,
    bytes: u64,
    /// Snapshot + planning time on the caller's thread (Eq. 2b).
    overhead_secs: f64,
    /// Submission instant — anchors the reported io_secs (queue time
    /// included, like the spawned task's measurement window).
    submitted: Instant,
    /// Wait strategy the governor advised at submit time.
    wait: WaitMode,
    /// Unresolved half-open probe riding on this request, if any.
    probe: Option<ProbeGuard>,
}

struct ConnInner {
    next_req: u64,
    /// In-flight (or unreaped) write/read tasks by request id.
    pending: HashMap<u64, TaskHandle>,
    /// Last operation per dataset: every new op on the dataset depends on
    /// it, giving a total order per dataset (covers WAW, RAW, and WAR).
    last_op: HashMap<ObjectId, TaskHandle>,
    /// Deferred background failures awaiting their `wait` call.
    errors: HashMap<u64, ErrorCell>,
    /// Completed or in-flight prefetches keyed by (dataset, selection).
    prefetched: HashMap<(ObjectId, Selection), PrefetchSlot>,
    /// Ring-submitted writes awaiting settlement, by request id.
    ring_pending: HashMap<u64, RingPending>,
    /// Settlement order per dataset for the ring path (mirrors the ring's
    /// per-key FIFO; replaces `last_op` chaining for ring writes).
    ring_by_ds: HashMap<ObjectId, Vec<u64>>,
}

/// The asynchronous VOL connector. See the crate docs.
pub struct AsyncVol {
    rt: Runtime,
    ring: Option<RingCtl>,
    inner: Mutex<ConnInner>,
    stats: stats::StatsCells,
    observer: Mutex<Option<Observer>>,
    staging: Staging,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
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
    /// passthrough.
    pub fn stats(&self) -> AsyncVolStats {
        let mut s = self.stats.snapshot();
        s.degraded = self.breaker.is_degraded();
        s
    }

    /// Current circuit-breaker state (async→sync degradation machine).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// The metrics registry the connector's counters live in — the
    /// tracer's registry when one was installed, otherwise a private one.
    /// Reports read `vol.*` counters from here; [`stats`](Self::stats)
    /// is the typed view over the same atomics.
    pub fn metrics(&self) -> apio_trace::Metrics {
        self.stats.metrics().clone()
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
                let _span = self.stats.tracer().span("wal.recover");
                log.recover_into_traced(c, self.stats.tracer())
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
        self.stats
            .record_scrub(scrub.corrupt, scrub.repaired, report.superblock_fallback);
        Ok(report)
    }

    /// Install (or replace) the per-operation observer.
    pub fn set_observer(&self, obs: Observer) {
        *self.observer.lock() = Some(obs);
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

    fn notify(&self, record: OpRecord) {
        let obs = self.observer.lock().clone();
        if let Some(obs) = obs {
            obs(&record);
        }
    }

    /// The attached submission/completion ring, when the connector runs
    /// the ring path.
    pub fn ring(&self) -> Option<&Arc<Ring>> {
        self.ring.as_ref().map(|ctl| &ctl.ring)
    }

    /// The depth governor steering the ring path's scheduling, when one
    /// is attached.
    pub fn governor(&self) -> Option<&DepthGovernor> {
        self.ring.as_ref().map(|ctl| &ctl.governor)
    }

    /// Feed the telemetry pipeline's queue-depth series into the depth
    /// governor and apply its advice (growth-only stream scaling). The
    /// closed loop: flight recorder → [`apio_trace::SeriesAggregator`] →
    /// governor → [`argolite::Runtime::grow_streams`]. Returns the
    /// advice, or `None` when no ring is attached.
    pub fn govern_from_series(
        &self,
        series: &apio_trace::SeriesAggregator,
    ) -> Option<h5lite::ring::DepthAdvice> {
        let ctl = self.ring.as_ref()?;
        ctl.governor.observe_series(series);
        let advice = ctl.governor.advise(&ctl.ring);
        self.rt.grow_streams(advice.streams);
        Some(advice)
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

    /// Remove a ring-pending entry (and its settlement-order slot).
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

    fn take_ring_pending(&self, req: u64) -> Option<RingPending> {
        let mut inner = self.inner.lock();
        let pending = inner.ring_pending.remove(&req)?;
        if let Some(order) = inner.ring_by_ds.get_mut(&pending.ds) {
            order.retain(|r| *r != req);
            if order.is_empty() {
                inner.ring_by_ds.remove(&pending.ds);
            }
        }
        Some(pending)
    }

    /// Settle one ring write: wait for its completion (polling first
    /// when the governor advised it), resubmitting retryable failures
    /// under the connector's retry policy, then run the same breaker /
    /// stats / observer bookkeeping the spawned-task path runs in its
    /// closure. Returns the final error, if any.
    fn finish_ring(&self, ctl: &RingCtl, req: u64, pending: RingPending) -> Option<H5Error> {
        let RingPending {
            promise,
            ds,
            bytes,
            overhead_secs,
            submitted,
            wait,
            probe,
        } = pending;
        let stats = &self.stats;
        let mut current = promise;
        let mut resubmit: Option<RingOp> = None;
        // The deadline anchors at settlement, not submission: queue time
        // under a deep ring is the workload's choice, not a fault.
        let outcome: Result<()> = with_backoff(&self.retry, req, Instant::now(), stats, || {
            if let Some(op) = resubmit.take() {
                current = Self::ring_submit_blocking(&ctl.ring, ds, op);
            }
            if wait == WaitMode::Poll {
                // Shallow-ring advice: the completion is imminent, spin
                // briefly before paying the blocking wait.
                for _ in 0..4096 {
                    if current.is_fulfilled() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            match current.wait_cloned().result {
                Ok(_) => Ok(()),
                Err(CqeErr { error, op }) => {
                    resubmit = Some(op);
                    Err(error)
                }
            }
        });
        if let Some(RingOp::Write { data, .. }) = resubmit {
            recycle::give(data); // gave up: the snapshot will not be resubmitted
        }
        let io_secs = submitted.elapsed().as_secs_f64();
        stats.record_write(bytes, io_secs);
        // Same breaker resolution as the spawned-task path: only device
        // faults move the machine; a probe guard always resolves.
        match (&outcome, probe) {
            (Ok(()), Some(g)) => g.success(),
            (Err(e), Some(g)) if e.is_device_fault() => g.device_fault(),
            (Err(_), Some(g)) => g.success(),
            (Ok(()), None) => self.breaker.on_success(false, stats),
            (Err(e), None) if e.is_device_fault() => self.breaker.on_device_failure(false, stats),
            (Err(_), None) => self.breaker.on_success(false, stats),
        }
        self.notify(OpRecord {
            kind: OpKind::Write,
            bytes,
            io_secs,
            overhead_secs,
        });
        stats.record_queue_completed();
        outcome.err()
    }

    /// Settle every ring write pending on `ds`, in submission order —
    /// the ring path's RAW/WAR ordering for reads, prefetches, and
    /// degraded writes. Failures are stowed as deferred errors so the
    /// request's own `wait` still surfaces them.
    fn settle_ring_ds(&self, ds: ObjectId) {
        let Some(ctl) = &self.ring else { return };
        let mut settled = 0u64;
        loop {
            let next = {
                let mut inner = self.inner.lock();
                let Some(order) = inner.ring_by_ds.get_mut(&ds) else {
                    break;
                };
                if order.is_empty() {
                    inner.ring_by_ds.remove(&ds);
                    break;
                }
                let req = order.remove(0);
                if order.is_empty() {
                    inner.ring_by_ds.remove(&ds);
                }
                inner.ring_pending.remove(&req).map(|p| (req, p))
            };
            if let Some((req, pending)) = next {
                settled += 1;
                self.finish_and_stow(ctl, req, pending);
            }
        }
        if settled > 0 {
            // Causal edge closing the vol.handoff instants this dataset's
            // ring writes opened; the connector spans epochs, so 0 marks
            // "epoch unknown".
            self.stats.tracer().instant(
                "vol.settle",
                Event::Settle {
                    epoch: 0,
                    requests: settled,
                },
            );
        }
    }

    /// A write failed on the caller's thread before anything was
    /// dispatched (planning, WAL append): resolve the probe riding on it
    /// and count a device fault toward the breaker.
    fn issue_failed(&self, probe_guard: Option<ProbeGuard>, e: &H5Error) {
        match probe_guard {
            Some(g) if e.is_device_fault() => g.device_fault(),
            Some(g) => drop(g), // revert HalfOpen → Open
            None if e.is_device_fault() => self.breaker.on_device_failure(false, &self.stats),
            None => {}
        }
    }

    /// The ring write path (DESIGN.md §14): plan on the caller's thread,
    /// move the snapshot into one keyed ring entry, settle at wait time.
    /// The reaper recycles the snapshot once it has landed. `t0` is when
    /// the snapshot began, so the recorded overhead covers copy and plan.
    #[allow(clippy::too_many_arguments)]
    fn ring_write(
        &self,
        ctl: &RingCtl,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        snapshot: Vec<u8>,
        probe_guard: Option<ProbeGuard>,
        t0: Instant,
    ) -> Result<Request> {
        let bytes = snapshot.len() as u64;
        // Metadata-only planning on the caller's thread; the data path
        // (the vectored writes) runs on the reaper.
        let segs = match c.plan_write_selection(ds, sel, bytes) {
            Ok(segs) => segs,
            Err(e) => {
                recycle::give(snapshot);
                self.issue_failed(probe_guard, &e);
                return Err(e);
            }
        };
        let overhead_secs = t0.elapsed().as_secs_f64();
        self.stats.record_snapshot(bytes, overhead_secs);

        // Depth-adaptive scheduling: sample occupancy, take the
        // governor's advice, and grow the stream pool toward its target.
        ctl.governor.observe(ctl.ring.occupancy() as u64);
        let advice = ctl.governor.advise(&ctl.ring);
        self.rt.grow_streams(advice.streams);
        self.stats.tracer().instant(
            "ring.submit",
            Event::VolCall {
                op: "ring_submit",
                dataset: ds,
                bytes,
            },
        );
        // Causal edge: the snapshot leaves the application thread here;
        // the matching vol.settle fires when settle_ring_ds drains it.
        self.stats
            .tracer()
            .instant("vol.handoff", Event::WriteHandoff { epoch: 0, bytes });

        let mut inner = self.inner.lock();
        Self::gc_locked(&mut inner);
        // A producer that never waits must not grow the ring's pending
        // maps without bound either.
        let finished = Self::take_fulfilled_ring_locked(&mut inner);
        let req = inner.next_req;
        inner.next_req += 1;
        self.stats.record_queue_submitted();
        // Submission happens under the connector lock so the ring's
        // per-key FIFO matches request order; the reaper drains without
        // ever taking this lock, so a full-ring block here still makes
        // progress.
        let op = RingOp::Write {
            data: snapshot,
            segs,
        };
        let promise = Self::ring_submit_blocking(&ctl.ring, ds, op);
        inner.ring_pending.insert(req, RingPending {
            promise,
            ds,
            bytes,
            overhead_secs,
            submitted: Instant::now(),
            wait: advice.wait,
            probe: probe_guard,
        });
        inner.ring_by_ds.entry(ds).or_default().push(req);
        drop(inner);
        // Failures are stowed as deferred errors, as `settle_ring_ds`
        // stows them, for the request's own `wait` or `wait_all`.
        for (done, pending) in finished {
            self.finish_and_stow(ctl, done, pending);
        }
        Ok(Request(req))
    }

    /// Ring writes whose completion has **already arrived**, removed from
    /// the pending maps in request order, once more than
    /// [`PENDING_GC_THRESHOLD`] are pending; the caller settles them after
    /// releasing the connector lock. Nothing here waits for the reaper,
    /// so issue stays non-blocking. Per dataset the walk stops at the
    /// first unfinished request: settlement order is request order.
    fn take_fulfilled_ring_locked(inner: &mut ConnInner) -> Vec<(u64, RingPending)> {
        let mut done = Vec::new();
        if inner.ring_pending.len() <= PENDING_GC_THRESHOLD {
            return done;
        }
        for order in inner.ring_by_ds.values_mut() {
            let fulfilled = order
                .iter()
                .take_while(|req| {
                    inner
                        .ring_pending
                        .get(req)
                        .is_none_or(|p| p.promise.is_fulfilled())
                })
                .count();
            for req in order.drain(..fulfilled) {
                if let Some(pending) = inner.ring_pending.remove(&req) {
                    done.push((req, pending));
                }
            }
        }
        inner.ring_by_ds.retain(|_, order| !order.is_empty());
        done.sort_by_key(|(req, _)| *req);
        done
    }

    /// [`finish_ring`](Self::finish_ring), holding a failure for the
    /// request's own `wait` (or `wait_all`) to surface.
    fn finish_and_stow(&self, ctl: &RingCtl, req: u64, pending: RingPending) {
        if let Some(err) = self.finish_ring(ctl, req, pending) {
            let cell: ErrorCell = Arc::new(Mutex::new_named("asyncvol.error_cell", Some(err)));
            self.inner.lock().errors.insert(req, cell);
        }
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
        let deps: Vec<TaskHandle> = inner.last_op.get(&ds).cloned().into_iter().collect();

        let c = c.clone();
        let sel_task = sel.clone();
        let p = promise.clone();
        let stats = self.stats.clone();
        let observer = self.observer.lock().clone();
        let policy = self.retry;
        stats.record_queue_submitted();
        let handle = self.rt.spawn_dependent(&deps, move || {
            let mut span = stats.tracer().span("vol.prefetch");
            let t0 = Instant::now();
            let result = with_backoff(&policy, req, t0, &stats, || c.read_selection(ds, &sel_task));
            let io_secs = t0.elapsed().as_secs_f64();
            let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
            span.set_event(Event::VolCall {
                op: "prefetch",
                dataset: ds,
                bytes,
            });
            drop(span);
            stats.record_read(bytes, io_secs, true);
            if let Some(obs) = observer {
                obs(&OpRecord {
                    kind: OpKind::Prefetch,
                    bytes,
                    io_secs,
                    overhead_secs: 0.0,
                });
            }
            p.fulfill(result);
            stats.record_queue_completed();
        });

        inner.last_op.insert(ds, handle.clone());
        inner.prefetched.insert(key, PrefetchSlot { promise, handle });
        Request(req)
    }

    /// Reap terminal entries so long-running applications that never call
    /// per-request `wait` don't grow the pending map without bound.
    fn gc_locked(inner: &mut ConnInner) {
        if inner.pending.len() > PENDING_GC_THRESHOLD {
            inner.pending.retain(|_, h| !h.is_terminal());
            // Keep error cells that still have a pending handle or a
            // deferred failure to report; drop the clean, reaped ones.
            let pending = &inner.pending;
            inner
                .errors
                .retain(|req, cell| pending.contains_key(req) || cell.lock().is_some());
        }
        inner.last_op.retain(|_, h| !h.is_terminal());
    }

    /// The one write body. `snapshot` yields the connector-owned buffer —
    /// the caller's own (owned entry) or a recycled copy of it (borrowed
    /// entry) — inside the `vol.snapshot` span. From there the buffer
    /// belongs to exactly one holder at a time and is recycled by the
    /// last: the ring reaper, the background task, or this thread (after
    /// a WAL append, a degraded write, or a failed issue).
    fn issue_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        bytes: u64,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<Request> {
        let _vol_span = self.stats.tracer().span_with(
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
        // only once durable.
        let probe = match self.breaker.route(&self.stats) {
            Route::Degraded => {
                let data = snapshot();
                let issued = self.degraded_write(c, ds, sel, &data);
                recycle::give(data);
                return issued;
            }
            Route::Async { probe } => probe,
        };
        // A dispatched probe must always resolve: the guard reports the
        // outcome, and reverts HalfOpen → Open if dropped unresolved
        // (a failed issue below, or a panicking probe task).
        let probe_guard = probe.then(|| self.breaker.probe_guard(&self.stats));

        let t0 = Instant::now();
        let mut snap_span = self.stats.tracer().span("vol.snapshot");
        let data = snapshot();
        let staged = matches!(&self.staging, Staging::Device(_));
        let payload = match &self.staging {
            Staging::Dram => Payload::Dram(data),
            Staging::Device(log) => {
                // Onto the node-local staging device; the buffer is done
                // with once the log has it.
                let mut wal_span = self.stats.tracer().span("wal.append");
                let appended = log.append(ds, sel, &data);
                recycle::give(data);
                match appended {
                    Ok(extent) => {
                        wal_span.set_event(Event::WalAppend {
                            seq: extent.seq,
                            bytes: extent.len,
                        });
                        Payload::Staged(log.clone(), extent)
                    }
                    Err(e) => {
                        // Nothing was dispatched. A dead staging device
                        // still counts toward the breaker — degraded mode
                        // bypasses staging entirely, which is the remedy.
                        self.issue_failed(probe_guard, &e);
                        return Err(e);
                    }
                }
            }
        };
        snap_span.set_event(Event::Snapshot { bytes, staged });
        drop(snap_span);

        // The ring path handles DRAM-staged writes when a ring is
        // attached; device staging keeps the WAL pipeline (the log
        // already decouples the caller from the device).
        let payload = match (&self.ring, payload) {
            (Some(ctl), Payload::Dram(data)) => {
                return self.ring_write(ctl, c, ds, sel, data, probe_guard, t0)
            }
            (_, payload) => payload,
        };
        let overhead_secs = t0.elapsed().as_secs_f64();
        self.stats.record_snapshot(bytes, overhead_secs);

        let mut inner = self.inner.lock();
        Self::gc_locked(&mut inner);
        let req = inner.next_req;
        inner.next_req += 1;
        let deps: Vec<TaskHandle> = inner.last_op.get(&ds).cloned().into_iter().collect();

        let c = c.clone();
        let sel_task = sel.clone();
        let stats = self.stats.clone();
        let observer = self.observer.lock().clone();
        let error_cell: ErrorCell = Arc::new(Mutex::new_named("asyncvol.error_cell", None));
        let errors_task = error_cell.clone();
        let policy = self.retry;
        let breaker = self.breaker.clone();
        stats.record_queue_submitted();
        let handle = self.rt.spawn_dependent(&deps, move || {
            let _exec_span = stats.tracer().span_with(
                "vol.execute",
                Event::VolCall {
                    op: "execute",
                    dataset: ds,
                    bytes,
                },
            );
            // One deadline covers the staged read-back and the container
            // write; transient faults in either are retried with backoff.
            let started = Instant::now();
            let land = |salt: u64, buf: Vec<u8>| {
                let landed = with_backoff(&policy, salt, started, &stats, || {
                    c.write_selection(ds, &sel_task, &buf)
                });
                recycle::give(buf);
                landed
            };
            let outcome: Result<()> = match payload {
                Payload::Dram(buf) => land(req, buf),
                Payload::Staged(log, extent) => {
                    let landed = with_backoff(&policy, req, started, &stats, || log.read(extent))
                        .and_then(|buf| land(!req, buf));
                    // Replay is idempotent, so a failed flag write is not
                    // a correctness problem — but it is a signal the
                    // staging device is degrading, so count it.
                    if landed.is_ok() && log.mark_applied(extent).is_err() {
                        stats.record_wal_mark_failure();
                    }
                    landed
                }
            };
            let io_secs = started.elapsed().as_secs_f64();
            stats.record_write(bytes, io_secs);
            // Resolve the breaker before notifying the observer, so a
            // panicking observer cannot leave a probe unresolved. Only
            // device faults move the breaker: a malformed request
            // (shape/type mismatch) must not degrade the pipeline.
            match (&outcome, probe_guard) {
                (Ok(()), Some(g)) => g.success(),
                (Err(e), Some(g)) if e.is_device_fault() => g.device_fault(),
                (Err(_), Some(g)) => g.success(),
                (Ok(()), None) => breaker.on_success(false, &stats),
                (Err(e), None) if e.is_device_fault() => {
                    breaker.on_device_failure(false, &stats)
                }
                (Err(_), None) => breaker.on_success(false, &stats),
            }
            if let Some(obs) = observer {
                obs(&OpRecord {
                    kind: OpKind::Write,
                    bytes,
                    io_secs,
                    overhead_secs,
                });
            }
            if let Err(e) = outcome {
                *errors_task.lock() = Some(e);
            }
            stats.record_queue_completed();
        });

        inner.pending.insert(req, handle.clone());
        inner.last_op.insert(ds, handle);
        inner.errors.insert(req, error_cell);
        Ok(Request(req))
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
        data: &[u8],
    ) -> Result<Request> {
        let _span = self.stats.tracer().span_with(
            "vol.degraded_write",
            Event::VolCall {
                op: "degraded_write",
                dataset: ds,
                bytes: data.len() as u64,
            },
        );
        self.stats.tracer().instant(
            "degrade",
            Event::Degrade {
                dataset: ds,
                bytes: data.len() as u64,
            },
        );
        self.settle_ring_ds(ds); // order after any in-flight ring writes
        let (salt, dep) = {
            let mut inner = self.inner.lock();
            let salt = inner.next_req;
            inner.next_req += 1; // consumed as jitter salt only
            (salt, inner.last_op.get(&ds).cloned())
        };
        if let Some(dep) = dep {
            dep.wait()
                .map_err(|p| H5Error::Async(format!("dependency panicked: {}", p.message)))?;
        }
        let started = Instant::now();
        let result = with_backoff(&self.retry, salt, started, &self.stats, || {
            c.write_selection(ds, sel, data)
        });
        let io_secs = started.elapsed().as_secs_f64();
        match result {
            Ok(()) => {
                self.stats.record_degraded_write(data.len() as u64, io_secs);
                self.breaker.on_success(false, &self.stats);
                self.notify(OpRecord {
                    kind: OpKind::DegradedWrite,
                    bytes: data.len() as u64,
                    io_secs,
                    overhead_secs: 0.0,
                });
                Ok(Request::SYNC)
            }
            Err(e) => {
                if e.is_device_fault() {
                    self.breaker.on_device_failure(false, &self.stats);
                }
                Err(e)
            }
        }
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
                self.stats.record_prefetch_hit();
                return Ok(ReadRequest::pending(slot.promise));
            }
        }

        // Cold read: block on any outstanding op on this dataset (RAW
        // ordering), then read on the calling thread — the first-time-step
        // behaviour of the paper's connector. Ring writes order the same
        // way: settle them before reading.
        self.settle_ring_ds(ds);
        let mut read_span = self.stats.tracer().span("vol.read");
        let dep = { self.inner.lock().last_op.get(&ds).cloned() };
        if let Some(dep) = dep {
            dep.wait()
                .map_err(|p| H5Error::Async(format!("dependency panicked: {}", p.message)))?;
        }
        let t0 = Instant::now();
        let result = with_backoff(&self.retry, ds.wrapping_mul(0x9E37_79B9_7F4A_7C15), t0, &self.stats, || {
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
        self.stats.record_read(bytes, io_secs, false);
        self.notify(OpRecord {
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
        // Ring-path request: settle its completion here (an ordering
        // wait may already have settled it and stowed any error in the
        // deferred-error map, which the shared path below surfaces).
        if let Some(ctl) = &self.ring {
            if let Some(pending) = self.take_ring_pending(req.0) {
                return match self.finish_ring(ctl, req.0, pending) {
                    Some(err) => Err(H5Error::Async(err.to_string())),
                    None => Ok(()),
                };
            }
        }
        let (handle, error_cell) = {
            let mut inner = self.inner.lock();
            (inner.pending.remove(&req.0), inner.errors.remove(&req.0))
        };
        if let Some(handle) = handle {
            handle
                .wait()
                .map_err(|p| H5Error::Async(format!("background task panicked: {}", p.message)))?;
        }
        // Surface any deferred storage error exactly once.
        if let Some(cell) = error_cell {
            if let Some(err) = cell.lock().take() {
                return Err(H5Error::Async(err.to_string()));
            }
        }
        Ok(())
    }

    fn wait_all_inner(&self) -> Result<()> {
        // Drain pending writes and any in-flight prefetches.
        let (handles, error_cells, prefetch_handles) = {
            let mut inner = self.inner.lock();
            let handles: Vec<(u64, TaskHandle)> = inner.pending.drain().collect();
            let cells: HashMap<u64, ErrorCell> = inner.errors.drain().collect();
            let pf: Vec<TaskHandle> = inner
                .prefetched
                .values()
                .map(|s| s.handle.clone())
                .collect();
            (handles, cells, pf)
        };
        // Aggregate EVERY failure — first-error-wins would silently drop
        // the rest, and a checkpoint writer deciding what to re-drive
        // needs the full list of failed requests.
        let mut failures: Vec<(u64, String)> = Vec::new();
        if let Some(ctl) = &self.ring {
            let mut ring_drained: Vec<(u64, RingPending)> = {
                let mut inner = self.inner.lock();
                inner.ring_by_ds.clear();
                inner.ring_pending.drain().collect()
            };
            // Request order, not map order: observer records and retries
            // must not depend on the hasher.
            ring_drained.sort_by_key(|(req, _)| *req);
            for (req, pending) in ring_drained {
                if let Some(err) = self.finish_ring(ctl, req, pending) {
                    failures.push((req, err.to_string()));
                }
            }
        }
        for (req, handle) in handles {
            if let Err(p) = handle.wait() {
                failures.push((req, format!("background task panicked: {}", p.message)));
            }
        }
        // Walk all drained cells, not just those with a live handle: a
        // task reaped by gc may still hold an unreported deferred error.
        for (req, cell) in &error_cells {
            if let Some(err) = cell.lock().take() {
                failures.push((*req, err.to_string()));
            }
        }
        for handle in prefetch_handles {
            if let Err(p) = handle.wait() {
                failures.push((u64::MAX, format!("prefetch panicked: {}", p.message)));
            }
        }
        if failures.is_empty() {
            return Ok(());
        }
        failures.sort();
        let parts: Vec<String> = failures
            .iter()
            .map(|(req, msg)| {
                if *req == u64::MAX {
                    msg.clone()
                } else {
                    format!("req {req}: {msg}")
                }
            })
            .collect();
        Err(H5Error::Async(format!(
            "{} background operation(s) failed: [{}]",
            failures.len(),
            parts.join("; ")
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

    /// A producer that never waits per request: the ring path's pending
    /// maps stay bounded (they used to grow by one entry per write until
    /// the next wait), `queued` falls as completions are retired, and a
    /// failure retired at issue time is still reported by `wait_all` —
    /// once.
    #[test]
    fn ring_requests_are_retired_without_a_wait() {
        const WRITES: u64 = 5_000;
        const SLAB: u64 = 16;
        let backend = Arc::new(BadBlock {
            inner: MemBackend::new(),
            bad: AtomicU64::new(u64::MAX),
        });
        let c = Arc::new(Container::create(backend.clone()));
        let ring = Arc::new(Ring::new(backend.clone(), RingConfig::default()));
        let vol = AsyncVol::builder().ring(ring.clone()).build();
        let ds = vol
            .dataset_create(
                &c,
                ROOT_ID,
                "x",
                Datatype::U8,
                &Dataspace::d1(WRITES * SLAB),
                Layout::Contiguous,
            )
            .unwrap();
        let sel = |w: u64| Selection::Slab(Hyperslab::range1(w * SLAB, SLAB));
        // Write 10 lands on the bad block.
        let segs = c.plan_write_selection(ds, &sel(10), SLAB).unwrap();
        backend.bad.store(segs[0].addr, Ordering::SeqCst);

        // Unfinished requests are bounded by what the ring and one
        // reaper pass can hold; finished ones by the threshold.
        let bound = PENDING_GC_THRESHOLD + ring.capacity() + COALESCE_WINDOW + 1;
        let mut peak = 0;
        for w in 0..WRITES {
            let _ = vol
                .dataset_write(&c, ds, &sel(w), &[w as u8; SLAB as usize])
                .unwrap();
            let inner = vol.inner.lock();
            peak = peak.max(inner.ring_pending.len());
            let ordered: usize = inner.ring_by_ds.values().map(Vec::len).sum();
            assert_eq!(ordered, inner.ring_pending.len(), "the two maps move together");
        }
        assert!(peak > PENDING_GC_THRESHOLD, "the threshold was reached: {peak}");
        assert!(peak <= bound, "{peak} pending entries, bound {bound}");
        assert!(vol.stats().queued <= bound as u64);

        let err = vol.wait_all().unwrap_err().to_string();
        assert!(err.contains("1 background operation(s) failed: [req 11:"), "{err}");
        assert!(err.contains("bad block"), "{err}");
        vol.wait_all().unwrap();
        assert_eq!(vol.stats().queued, 0);
        let inner = vol.inner.lock();
        assert!(inner.ring_pending.is_empty() && inner.ring_by_ds.is_empty());
        assert!(inner.errors.is_empty(), "the failure was reported exactly once");
        drop(inner);
        assert_eq!(
            c.read_selection(ds, &sel(4_999)).unwrap(),
            vec![(4_999 % 256) as u8; SLAB as usize]
        );
    }
}
