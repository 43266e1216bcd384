//! io_uring-shaped asynchronous boundary over [`StorageBackend`]
//! (DESIGN.md §14).
//!
//! Every backend call in the stack used to be a synchronous function
//! call: concurrency scaled with thread count, never with queue depth —
//! exactly the wall the paper's async-VOL evaluation hits once device
//! latency dominates. This module moves the backend boundary behind a
//! pair of fixed-capacity lock-free rings, the way `io_uring` moves the
//! kernel boundary:
//!
//! - **Submission**: callers push [`Sqe`]-shaped entries (an operation
//!   plus a completion sink) onto a per-shard submission ring. The hot
//!   path is atomics only — no `argolite::sync` (or any other) lock is
//!   ever acquired on submit or complete; a `debug-invariants` test
//!   asserts this against the lock-order recorder's acquisition counter.
//! - **Reaping**: one reaper thread per shard drains its submission
//!   ring and executes entries against the wrapped backend. A reaper
//!   pass is *depth-aware*: every write queued at that moment (bounded
//!   by [`COALESCE_WINDOW`] segments per call) is issued as a single
//!   `write_vectored_at`, so a deeper ring buys fewer, larger device
//!   requests — small-op throughput scales with queue depth at a fixed
//!   thread count.
//! - **Completion**: each entry resolves either a [`Promise`] (the
//!   TASIO-style task-aware path `asyncvol` uses) or posts to a shared
//!   completion ring (`submit_to_cq`, used by ordering tests and
//!   pollers). A failed operation travels back *inside* its completion
//!   ([`CqeErr`] carries the [`RingOp`]), so the waiter can resubmit it
//!   — retry policy and circuit-breaker semantics stay at the task
//!   layer, unchanged.
//!
//! Sharding is by caller-provided key (the connector uses the dataset
//! id), and each shard is FIFO end to end: completions of same-key
//! submissions arrive in submission order, which is what replaces the
//! connector's per-dataset dependency chaining on the ring path.
//!
//! Backpressure on a full submission ring follows [`Backpressure`]:
//! `Block` (spin-park until the reaper frees a slot) or `Poll` (hand the
//! operation straight back to the caller). The completion ring applies
//! backpressure to the *reaper*: when pollers fall behind, the reaper
//! stalls, the submission ring fills, and submitters feel it — bounded
//! memory end to end.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crate::error::{H5Error, Result};
use crate::mpmc::RingQueue;
use crate::plan::{IoSegment, COALESCE_WINDOW};
use crate::promise::Promise;
use crate::recycle;
use crate::storage::{IoVec, IoVecMut, StorageBackend};

/// What a submitter does when the submission ring is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Spin-park until the reaper frees a slot (the connector default:
    /// a full ring throttles the application to device speed).
    Block,
    /// Hand the operation straight back ([`Submitted::Full`]) so the
    /// caller can do something else and resubmit later.
    Poll,
}

/// Ring geometry and policy.
#[derive(Clone, Debug)]
pub struct RingConfig {
    /// Per-shard submission-ring capacity (power of two ≥ 2).
    pub capacity: usize,
    /// Submission shards, one reaper thread each. Same-key submissions
    /// land on the same shard and complete in FIFO order.
    pub shards: usize,
    /// Full-ring policy.
    pub backpressure: Backpressure,
    /// How long an idle reaper parks between queue checks. Submissions
    /// unpark it immediately; this only bounds shutdown latency.
    pub idle_park: Duration,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 256,
            shards: 1,
            backpressure: Backpressure::Block,
            idle_park: Duration::from_millis(1),
        }
    }
}

/// One contiguous device extent of a gather read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadExtent {
    /// Backend byte address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// One ring operation. Data is owned (the submitter's snapshot moves
/// in), so entries outlive the caller's stack frame the way `io_uring`
/// SQEs outlive `io_uring_enter`.
#[derive(Clone)]
pub enum RingOp {
    /// Scatter-write: segment `i` writes
    /// `data[cursor..cursor + len]` to device offset `addr` — the shape
    /// [`crate::Container`]'s planner emits.
    Write {
        /// The caller's flat snapshot buffer.
        data: Vec<u8>,
        /// Planned device extents into `data`.
        segs: Vec<IoSegment>,
    },
    /// Gather-read the extents into one buffer, concatenated in extent
    /// order ([`CqeOk::Bytes`]).
    Read {
        /// Device extents to read, in output order.
        extents: Vec<ReadExtent>,
    },
    /// Durability barrier: `sync` the wrapped backend. Per-shard FIFO
    /// means it covers every earlier same-key submission; callers that
    /// need a global barrier drain the ring first (see
    /// [`RingBackend::sync`]).
    Flush,
}

impl RingOp {
    /// A contiguous write at `offset` — one segment covering `data`.
    pub fn write_raw(offset: u64, data: Vec<u8>) -> RingOp {
        let len = data.len() as u64;
        RingOp::Write {
            data,
            segs: vec![IoSegment {
                addr: offset,
                cursor: 0,
                len,
            }],
        }
    }

    /// Payload bytes this operation moves.
    pub fn total_bytes(&self) -> u64 {
        match self {
            RingOp::Write { segs, .. } => segs.iter().map(|s| s.len).sum(),
            RingOp::Read { extents } => extents.iter().map(|e| e.len).sum(),
            RingOp::Flush => 0,
        }
    }

    /// Device segments this operation contributes to a reaper pass.
    fn seg_count(&self) -> usize {
        match self {
            RingOp::Write { segs, .. } => segs.len(),
            RingOp::Read { extents } => extents.len(),
            RingOp::Flush => 1,
        }
    }
}

impl std::fmt::Debug for RingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingOp::Write { data, segs } => f
                .debug_struct("Write")
                .field("bytes", &data.len())
                .field("segs", &segs.len())
                .finish(),
            RingOp::Read { extents } => f
                .debug_struct("Read")
                .field("extents", &extents.len())
                .finish(),
            RingOp::Flush => f.write_str("Flush"),
        }
    }
}

/// Successful completion payload.
#[derive(Clone)]
pub enum CqeOk {
    /// Write or flush applied.
    Done,
    /// Gather-read result, extents concatenated in submission order.
    Bytes(Vec<u8>),
}

impl std::fmt::Debug for CqeOk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CqeOk::Done => f.write_str("Done"),
            CqeOk::Bytes(b) => f.debug_tuple("Bytes").field(&b.len()).finish(),
        }
    }
}

/// Failed completion: the error *and the operation itself*, so the
/// waiter can resubmit — task-aware retries without the ring ever
/// knowing the retry policy.
#[derive(Clone, Debug)]
pub struct CqeErr {
    /// What the backend reported (identical to the synchronous error —
    /// fault classification, retry and breaker semantics are unchanged).
    pub error: H5Error,
    /// The operation, returned for resubmission.
    pub op: RingOp,
}

/// One completion-queue entry.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The id `submit` returned for this operation.
    pub id: u64,
    /// Outcome; errors carry the operation back.
    pub result: std::result::Result<CqeOk, CqeErr>,
}

impl Completion {
    /// Collapse into a plain result, discarding the returned op.
    pub fn into_result(self) -> Result<CqeOk> {
        self.result.map_err(|e| e.error)
    }
}

/// Where a completion goes.
enum Sink {
    /// Fulfil a promise the submitter holds (the task-aware path).
    Promise(Promise<Completion>),
    /// Post to the shared completion ring for polling.
    Queue,
}

/// Submission-queue entry: operation plus completion sink.
struct Sqe {
    id: u64,
    op: RingOp,
    sink: Sink,
}

/// Outcome of a submission attempt.
#[must_use = "a Full submission hands the operation back; dropping it loses the write"]
pub enum Submitted {
    /// Queued; the promise resolves with the completion.
    Accepted {
        /// Completion id.
        id: u64,
        /// Resolves when the reaper finishes the operation.
        promise: Promise<Completion>,
    },
    /// Ring full under [`Backpressure::Poll`]; the operation comes back.
    Full(RingOp),
}

impl Submitted {
    /// Unwrap the accepted case; a full ring surfaces as a retryable
    /// [`H5Error::Transient`] (the op is dropped — callers that want it
    /// back match on [`Submitted::Full`] instead).
    pub fn accepted(self) -> Result<(u64, Promise<Completion>)> {
        match self {
            Submitted::Accepted { id, promise } => Ok((id, promise)),
            Submitted::Full(_) => Err(H5Error::Transient(
                "submission ring full (Poll backpressure)".into(),
            )),
        }
    }
}

struct Shard {
    sq: RingQueue<Sqe>,
    /// The reaper's thread handle, for wakeups; set once at startup.
    reaper: OnceLock<thread::Thread>,
}

struct RingShared {
    shards: Vec<Shard>,
    cq: RingQueue<Completion>,
    backend: Arc<dyn StorageBackend>,
    /// Submitted and not yet completed (promise fulfilled / CQE posted).
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    idle_park: Duration,
}

/// The submission/completion ring pair over a wrapped backend. See the
/// module docs for the protocol; dropping the ring drains every queued
/// operation, then joins the reapers.
pub struct Ring {
    shared: Arc<RingShared>,
    next_id: AtomicU64,
    rr: AtomicUsize,
    backpressure: Backpressure,
    reapers: Vec<thread::JoinHandle<()>>,
}

/// Backoff while blocked on a full submission ring. Short: the reaper
/// frees slots at device speed, and we are unparked-by-timeout only.
const SUBMIT_BACKOFF: Duration = Duration::from_micros(20);

impl Ring {
    /// Spin up `config.shards` reaper threads over `backend`.
    pub fn new(backend: Arc<dyn StorageBackend>, config: RingConfig) -> Ring {
        assert!(config.shards >= 1, "ring needs at least one shard");
        let shards: Vec<Shard> = (0..config.shards)
            .map(|_| Shard {
                sq: RingQueue::new(config.capacity),
                reaper: OnceLock::new(),
            })
            .collect();
        // Sized so every slot of every SQ can complete without a poller:
        // the reaper never deadlocks against a slow completion consumer
        // unless the CQ already holds two full laps of entries.
        let cq_capacity = (config.capacity * config.shards * 2).next_power_of_two();
        let shared = Arc::new(RingShared {
            shards,
            cq: RingQueue::new(cq_capacity),
            backend,
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle_park: config.idle_park,
        });
        let reapers = (0..config.shards)
            .map(|i| {
                let shared = shared.clone();
                thread::spawn(move || reaper_main(shared, i))
            })
            .collect();
        Ring {
            shared,
            next_id: AtomicU64::new(1),
            rr: AtomicUsize::new(0),
            backpressure: config.backpressure,
            reapers,
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.shared.backend
    }

    /// Operations submitted and not yet completed.
    pub fn occupancy(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Total submission-slot capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shared.shards.iter().map(|s| s.sq.capacity()).sum()
    }

    /// Number of submission shards (reaper threads).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    fn shard_for(&self, key: u64) -> usize {
        (key % self.shared.shards.len() as u64) as usize
    }

    fn unpark(&self, shard_idx: usize) {
        if let Some(t) = self.shared.shards[shard_idx].reaper.get() {
            t.unpark();
        }
    }

    /// Submit to the round-robin shard with a promise completion.
    pub fn submit(&self, op: RingOp) -> Submitted {
        let shard = self.rr.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        self.submit_promise(shard, op)
    }

    /// Submit with a promise completion; same-key operations share a
    /// shard and therefore complete in submission order.
    pub fn submit_keyed(&self, key: u64, op: RingOp) -> Submitted {
        self.submit_promise(self.shard_for(key), op)
    }

    fn submit_promise(&self, shard_idx: usize, op: RingOp) -> Submitted {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let promise = Promise::new();
        match self.push_sqe(
            shard_idx,
            Sqe {
                id,
                op,
                sink: Sink::Promise(promise.clone()),
            },
            self.backpressure,
        ) {
            Ok(()) => Submitted::Accepted { id, promise },
            Err(op) => Submitted::Full(op),
        }
    }

    /// Submit with the completion posted to the shared completion ring
    /// (drain with [`Ring::pop_completion`]). Returns the completion id,
    /// or the operation itself when full under [`Backpressure::Poll`].
    pub fn submit_to_cq(&self, key: u64, op: RingOp) -> std::result::Result<u64, RingOp> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push_sqe(
            self.shard_for(key),
            Sqe {
                id,
                op,
                sink: Sink::Queue,
            },
            self.backpressure,
        )
        .map(|()| id)
    }

    /// TASIO-style plan-batch submission: push the whole batch, then
    /// wake the reaper once, so a single reaper pass sees — and
    /// coalesces — every operation of the plan. Always blocks on a full
    /// ring (a task batch is all-or-nothing); mid-batch wakeups happen
    /// only when the batch itself overflows a shard.
    pub fn submit_batch_keyed(
        &self,
        key: u64,
        ops: Vec<RingOp>,
    ) -> Vec<(u64, Promise<Completion>)> {
        let shard_idx = self.shard_for(key);
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let promise = Promise::new();
            let sqe = Sqe {
                id,
                op,
                sink: Sink::Promise(promise.clone()),
            };
            // Infallible under Block semantics.
            if self.push_sqe_quiet(shard_idx, sqe).is_ok() {
                out.push((id, promise));
            }
        }
        self.unpark(shard_idx);
        out
    }

    /// Push with the given backpressure policy, waking the reaper on
    /// success. `Err` hands the operation back (Poll policy only).
    fn push_sqe(
        &self,
        shard_idx: usize,
        sqe: Sqe,
        backpressure: Backpressure,
    ) -> std::result::Result<(), RingOp> {
        let shard = &self.shared.shards[shard_idx];
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let mut sqe = sqe;
        loop {
            match shard.sq.push(sqe) {
                Ok(()) => {
                    self.unpark(shard_idx);
                    return Ok(());
                }
                Err(back) => match backpressure {
                    Backpressure::Poll => {
                        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                        return Err(back.op);
                    }
                    Backpressure::Block => {
                        sqe = back;
                        self.unpark(shard_idx);
                        thread::park_timeout(SUBMIT_BACKOFF);
                    }
                },
            }
        }
    }

    /// Block-push without waking the reaper on success (batch path).
    fn push_sqe_quiet(&self, shard_idx: usize, sqe: Sqe) -> std::result::Result<(), ()> {
        let shard = &self.shared.shards[shard_idx];
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let mut sqe = sqe;
        loop {
            match shard.sq.push(sqe) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    sqe = back;
                    // Overflowing the shard mid-batch: the reaper must
                    // make space, so this wakeup is unavoidable.
                    self.unpark(shard_idx);
                    thread::park_timeout(SUBMIT_BACKOFF);
                }
            }
        }
    }

    /// Pop the oldest unclaimed completion (CQ-sink submissions only).
    pub fn pop_completion(&self) -> Option<Completion> {
        self.shared.cq.pop()
    }

    /// Block until every submitted operation has completed. Promise
    /// completions are fulfilled; CQ completions are posted (but may
    /// still be waiting in the completion ring for a `pop_completion`).
    pub fn drain(&self) {
        while self.shared.in_flight.load(Ordering::Acquire) != 0 {
            for i in 0..self.shared.shards.len() {
                self.unpark(i);
            }
            thread::park_timeout(SUBMIT_BACKOFF);
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            if let Some(t) = shard.reaper.get() {
                t.unpark();
            }
        }
        for h in self.reapers.drain(..) {
            let _ = h.join(); // xtask: allow(swallowed-result) Drop cannot propagate a reaper panic
        }
    }
}

/// Reaper loop: drain the shard, execute depth-aware batches, park when
/// idle. On shutdown, finishes everything still queued before exiting —
/// drop-while-in-flight resolves every promise.
fn reaper_main(shared: Arc<RingShared>, shard_idx: usize) {
    let _ = shared.shards[shard_idx].reaper.set(thread::current()); // xtask: allow(swallowed-result) set once per shard; a second set is impossible
    loop {
        let batch = drain_shard(&shared, shard_idx);
        if !batch.is_empty() {
            execute_batch(&shared, batch);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            // A submitter may have pushed between our empty pop and the
            // shutdown flag; one more drain closes the race.
            let last = drain_shard(&shared, shard_idx);
            if last.is_empty() {
                break;
            }
            execute_batch(&shared, last);
            continue;
        }
        thread::park_timeout(shared.idle_park);
    }
}

/// Pop up to a coalescing window's worth of segments in one pass.
fn drain_shard(shared: &RingShared, shard_idx: usize) -> Vec<Sqe> {
    let mut batch = Vec::new();
    let mut segments = 0usize;
    while segments < COALESCE_WINDOW {
        match shared.shards[shard_idx].sq.pop() {
            Some(sqe) => {
                segments += sqe.op.seg_count().max(1);
                batch.push(sqe);
            }
            None => break,
        }
    }
    batch
}

/// Execute one reaper pass: maximal runs of writes go to the backend as
/// single vectored calls; reads and flushes execute individually.
fn execute_batch(shared: &RingShared, batch: Vec<Sqe>) {
    let mut run: Vec<Sqe> = Vec::new();
    for sqe in batch {
        if matches!(sqe.op, RingOp::Write { .. }) {
            run.push(sqe);
            continue;
        }
        flush_write_run(shared, &mut run);
        execute_single(shared, sqe);
    }
    flush_write_run(shared, &mut run);
}

/// Issue a queued run of writes as one vectored call (windowed at
/// [`COALESCE_WINDOW`] segments). On a batch error, replay the run one
/// SQE at a time so each completion carries a precise per-operation
/// verdict — replays are idempotent (same bytes, same offsets).
fn flush_write_run(shared: &RingShared, run: &mut Vec<Sqe>) {
    if run.is_empty() {
        return;
    }
    if run.len() == 1 {
        if let Some(sqe) = run.pop() {
            execute_single(shared, sqe);
        }
        return;
    }
    let batch_result = {
        let iovecs: Vec<IoVec<'_>> = run.iter().flat_map(|sqe| write_iovecs(&sqe.op)).collect();
        iovecs
            .chunks(COALESCE_WINDOW)
            .try_for_each(|window| shared.backend.write_vectored_at(window))
    };
    match batch_result {
        Ok(()) => {
            for sqe in run.drain(..) {
                retire(sqe.op);
                post(
                    shared,
                    sqe.sink,
                    Completion {
                        id: sqe.id,
                        result: Ok(CqeOk::Done),
                    },
                );
            }
        }
        Err(_) => {
            for sqe in run.drain(..) {
                execute_single(shared, sqe);
            }
        }
    }
}

fn write_iovecs(op: &RingOp) -> Vec<IoVec<'_>> {
    match op {
        RingOp::Write { data, segs } => segs
            .iter()
            .map(|s| IoVec {
                offset: s.addr,
                data: &data[s.cursor as usize..(s.cursor + s.len) as usize],
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn execute_single(shared: &RingShared, sqe: Sqe) {
    let Sqe { id, op, sink } = sqe;
    let result = match run_op(shared.backend.as_ref(), &op) {
        Ok(ok) => {
            retire(op);
            Ok(ok)
        }
        Err(error) => Err(CqeErr { error, op }),
    };
    post(shared, sink, Completion { id, result });
}

/// A write that has landed gives its snapshot buffer back for the next
/// one (lock-free, and before the completion is posted, so a waiter that
/// wakes finds the buffer already reusable).
fn retire(op: RingOp) {
    if let RingOp::Write { data, .. } = op {
        recycle::give(data);
    }
}

fn run_op(backend: &dyn StorageBackend, op: &RingOp) -> Result<CqeOk> {
    match op {
        RingOp::Write { .. } => {
            let iovecs = write_iovecs(op);
            iovecs
                .chunks(COALESCE_WINDOW)
                .try_for_each(|window| backend.write_vectored_at(window))?;
            Ok(CqeOk::Done)
        }
        RingOp::Read { extents } => {
            let total: u64 = extents.iter().map(|e| e.len).sum();
            let mut buf = vec![0u8; total as usize];
            let mut rest: &mut [u8] = &mut buf;
            let mut iovecs: Vec<IoVecMut<'_>> = Vec::with_capacity(extents.len());
            for e in extents {
                let (head, tail) = rest.split_at_mut(e.len as usize);
                iovecs.push(IoVecMut {
                    offset: e.addr,
                    buf: head,
                });
                rest = tail;
            }
            iovecs
                .chunks_mut(COALESCE_WINDOW)
                .try_for_each(|window| backend.read_vectored_at(window))?;
            drop(iovecs);
            Ok(CqeOk::Bytes(buf))
        }
        RingOp::Flush => {
            backend.sync()?;
            Ok(CqeOk::Done)
        }
    }
}

/// Deliver a completion, then retire it from the in-flight count. The
/// CQ applies backpressure to the reaper: a full completion ring stalls
/// reaping until a poller catches up (or shutdown abandons the entry —
/// there is no consumer left to read it).
fn post(shared: &RingShared, sink: Sink, completion: Completion) {
    match sink {
        Sink::Promise(p) => p.fulfill(completion),
        Sink::Queue => {
            let mut entry = completion;
            loop {
                match shared.cq.push(entry) {
                    Ok(()) => break,
                    Err(back) => {
                        if shared.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        entry = back;
                        thread::park_timeout(SUBMIT_BACKOFF);
                    }
                }
            }
        }
    }
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
}

/// A [`StorageBackend`] adapter over a [`Ring`]: every call submits and
/// waits, so existing consumers (the container, the chaos harness) get
/// the asynchronous boundary — cross-thread coalescing included —
/// without code changes. Errors surface with the exact same
/// [`H5Error`] values the wrapped backend produced, so fault
/// classification, retry, and breaker semantics are unchanged.
pub struct RingBackend {
    ring: Ring,
}

impl RingBackend {
    /// Ring-wrap `inner` with `config`.
    pub fn new(inner: Arc<dyn StorageBackend>, config: RingConfig) -> Self {
        RingBackend {
            ring: Ring::new(inner, config),
        }
    }

    /// Ring-wrap `inner` with the default config.
    pub fn with_defaults(inner: Arc<dyn StorageBackend>) -> Self {
        Self::new(inner, RingConfig::default())
    }

    /// The underlying ring (occupancy, advice, direct submission).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    fn wait(&self, submitted: Submitted) -> Result<CqeOk> {
        let (_, promise) = submitted.accepted()?;
        promise.take().result.map_err(|CqeErr { error, op }| {
            retire(op);
            error
        })
    }
}

impl StorageBackend for RingBackend {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        // Ring entries must outlive the caller's stack frame: stage into
        // a recycled buffer, which the reaper returns.
        let mut staged = recycle::take(data.len());
        staged.copy_from_slice(data);
        self.wait(self.ring.submit(RingOp::write_raw(offset, staged)))
            .map(|_| ())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let op = RingOp::Read {
            extents: vec![ReadExtent {
                addr: offset,
                len: buf.len() as u64,
            }],
        };
        match self.wait(self.ring.submit(op))? {
            CqeOk::Bytes(bytes) if bytes.len() == buf.len() => {
                buf.copy_from_slice(&bytes);
                Ok(())
            }
            _ => Err(H5Error::Storage("ring read returned wrong shape".into())),
        }
    }

    fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
        // Stage the borrowed batch in one recycled buffer + segment list.
        let total: usize = batch.iter().map(|v| v.data.len()).sum();
        let mut data = recycle::take(total);
        let mut segs = Vec::with_capacity(batch.len());
        let mut cursor = 0usize;
        for v in batch {
            let end = cursor + v.data.len();
            data[cursor..end].copy_from_slice(v.data);
            segs.push(IoSegment {
                addr: v.offset,
                cursor: cursor as u64,
                len: v.data.len() as u64,
            });
            cursor = end;
        }
        self.wait(self.ring.submit(RingOp::Write { data, segs }))
            .map(|_| ())
    }

    fn read_vectored_at(&self, batch: &mut [IoVecMut<'_>]) -> Result<()> {
        let op = RingOp::Read {
            extents: batch
                .iter()
                .map(|v| ReadExtent {
                    addr: v.offset,
                    len: v.buf.len() as u64,
                })
                .collect(),
        };
        match self.wait(self.ring.submit(op))? {
            CqeOk::Bytes(bytes) => {
                let mut cursor = 0usize;
                for v in batch.iter_mut() {
                    let end = cursor + v.buf.len();
                    let Some(chunk) = bytes.get(cursor..end) else {
                        return Err(H5Error::Storage("ring read returned wrong shape".into()));
                    };
                    v.buf.copy_from_slice(chunk);
                    cursor = end;
                }
                Ok(())
            }
            CqeOk::Done => Err(H5Error::Storage("ring read returned wrong shape".into())),
        }
    }

    fn len(&self) -> u64 {
        // Quiesce first so in-flight extensions are visible — `len` is
        // an allocation high-water mark, not a hot-path call.
        self.ring.drain();
        self.ring.backend().len()
    }

    fn sync(&self) -> Result<()> {
        // Global barrier: drain every shard, then flush the device.
        self.ring.drain();
        self.wait(self.ring.submit(RingOp::Flush)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemBackend;
    use std::sync::atomic::AtomicUsize;

    /// MemBackend that counts vectored write calls — proof of
    /// depth-aware coalescing.
    struct CountingBackend {
        inner: MemBackend,
        vectored_writes: AtomicUsize,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                inner: MemBackend::new(),
                vectored_writes: AtomicUsize::new(0),
            }
        }
    }

    impl StorageBackend for CountingBackend {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
            self.vectored_writes.fetch_add(1, Ordering::Relaxed);
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

    #[test]
    fn write_read_roundtrip_through_ring() {
        let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
        let (_, p) = ring
            .submit(RingOp::write_raw(100, vec![7u8; 64]))
            .accepted()
            .unwrap();
        assert!(matches!(p.wait_cloned().result, Ok(CqeOk::Done)));
        let (_, p) = ring
            .submit(RingOp::Read {
                extents: vec![ReadExtent { addr: 100, len: 64 }],
            })
            .accepted()
            .unwrap();
        match p.wait_cloned().result {
            Ok(CqeOk::Bytes(b)) => assert_eq!(b, vec![7u8; 64]),
            other => panic!("unexpected completion: {other:?}"),
        }
    }

    #[test]
    fn batch_submission_coalesces_into_one_vectored_call() {
        let backend = Arc::new(CountingBackend::new());
        let ring = Ring::new(backend.clone(), RingConfig {
            // Long idle park: the reaper sleeps until the batch's single
            // wakeup, so the whole batch lands in one pass.
            idle_park: Duration::from_millis(200),
            ..RingConfig::default()
        });
        // Let the reaper reach its park before submitting.
        thread::sleep(Duration::from_millis(20));
        let ops: Vec<RingOp> = (0..16u64)
            .map(|i| RingOp::write_raw(i * 64, vec![i as u8; 64]))
            .collect();
        let promises = ring.submit_batch_keyed(0, ops);
        assert_eq!(promises.len(), 16);
        for (_, p) in &promises {
            assert!(matches!(p.wait_cloned().result, Ok(CqeOk::Done)));
        }
        assert_eq!(
            backend.vectored_writes.load(Ordering::Relaxed),
            1,
            "16 queued writes must coalesce into one vectored call"
        );
    }

    #[test]
    fn poll_backpressure_hands_the_op_back() {
        // A deliberately wedged ring: throttled so slow the reaper can't
        // drain while we overfill a capacity-2 shard.
        let slow = crate::storage::ThrottledBackend::in_memory(1e3, 0.05);
        let ring = Ring::new(Arc::new(slow), RingConfig {
            capacity: 2,
            backpressure: Backpressure::Poll,
            ..RingConfig::default()
        });
        let mut accepted = 0;
        let mut bounced = 0;
        for i in 0..16u64 {
            match ring.submit(RingOp::write_raw(i * 8, vec![1u8; 8])) {
                Submitted::Accepted { .. } => accepted += 1,
                Submitted::Full(op) => {
                    assert!(matches!(op, RingOp::Write { .. }), "op comes back intact");
                    bounced += 1;
                }
            }
        }
        assert!(accepted >= 2, "the first slots must be accepted");
        assert!(bounced > 0, "a full Poll ring must bounce");
        ring.drain();
    }

    #[test]
    fn faults_surface_through_completions_with_the_op() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let plan = FaultPlan::new(7).fail_after(FaultOp::Write, 0, FaultKind::Transient);
        let faulty = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        let ring = Ring::new(Arc::new(faulty), RingConfig::default());
        let (_, p) = ring
            .submit(RingOp::write_raw(0, vec![1u8; 8]))
            .accepted()
            .unwrap();
        match p.wait_cloned().result {
            Err(CqeErr { error, op }) => {
                assert!(error.is_retryable(), "transient class preserved: {error}");
                // The op comes back: resubmit it (the injector faults
                // every write, so it fails again — same op, same class).
                let (_, p2) = ring.submit(op).accepted().unwrap();
                assert!(p2.wait_cloned().result.is_err());
            }
            other => panic!("expected injected fault, got {other:?}"),
        }
    }

    #[test]
    fn completion_order_matches_submission_order_per_shard() {
        let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
        let ids: Vec<u64> = (0..32u64)
            .map(|i| {
                ring.submit_to_cq(0, RingOp::write_raw(i * 8, vec![0u8; 8]))
                    .unwrap_or_else(|_| panic!("Block ring never bounces"))
            })
            .collect();
        let mut seen = Vec::new();
        while seen.len() < ids.len() {
            if let Some(c) = ring.pop_completion() {
                assert!(c.result.is_ok());
                seen.push(c.id);
            } else {
                thread::yield_now();
            }
        }
        assert_eq!(seen, ids, "single-shard completions are FIFO");
    }

    #[test]
    fn drop_while_in_flight_resolves_every_promise() {
        let slow = crate::storage::ThrottledBackend::in_memory(1e9, 2e-3);
        let ring = Ring::new(Arc::new(slow), RingConfig::default());
        let promises: Vec<_> = (0..8u64)
            .map(|i| {
                ring.submit_keyed(0, RingOp::write_raw(i * 8, vec![2u8; 8]))
                    .accepted()
                    .unwrap()
                    .1
            })
            .collect();
        drop(ring); // shutdown drains the queue before joining reapers
        for p in promises {
            assert!(
                matches!(p.wait_cloned().result, Ok(CqeOk::Done)),
                "queued ops complete during shutdown"
            );
        }
    }

    #[test]
    fn ring_backend_is_a_storage_backend() {
        let rb = RingBackend::with_defaults(Arc::new(MemBackend::new()));
        rb.write_at(10, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        rb.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        let payload = [9u8; 12];
        rb.write_vectored_at(&[
            IoVec {
                offset: 100,
                data: &payload[..6],
            },
            IoVec {
                offset: 200,
                data: &payload[6..],
            },
        ])
        .unwrap();
        let mut a = [0u8; 6];
        let mut b = [0u8; 6];
        rb.read_vectored_at(&mut [
            IoVecMut {
                offset: 100,
                buf: &mut a,
            },
            IoVecMut {
                offset: 200,
                buf: &mut b,
            },
        ])
        .unwrap();
        assert_eq!(a, [9u8; 6]);
        assert_eq!(b, [9u8; 6]);
        rb.sync().unwrap();
        assert!(rb.len() >= 206);
    }
}
