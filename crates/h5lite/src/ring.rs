//! The queued-write boundary over [`StorageBackend`] (DESIGN.md §14).
//!
//! A backend call made directly is a synchronous function call:
//! concurrency scales with thread count, never with queue depth —
//! exactly the wall the paper's async-VOL evaluation hits once device
//! latency dominates. This module puts the connector's background
//! writes behind fixed-capacity lock-free submission queues, the way
//! `io_uring` queues work for the kernel:
//!
//! - **Submission**: [`Ring::submit_keyed`] pushes an owned write (the
//!   operation plus the promise its waiter holds) onto a per-shard
//!   submission queue; [`Ring::submit_with`] adds a completion hook to
//!   the entry before it is queued. The hot path is atomics only — no
//!   `argolite::sync` (or any other named) lock is ever acquired on
//!   submit or complete; a `debug-invariants` test asserts this against
//!   the lock-order recorder's acquisition counter.
//! - **Reaping**: one reaper thread per shard drains its queue and
//!   executes the entries against the wrapped backend. A reaper pass is
//!   *depth-aware*: every write queued at that moment (up to
//!   [`COALESCE_WINDOW`] segments) is issued as one striped write
//!   ([`write_striped`](crate::storage::write_striped)), so a deeper ring
//!   buys fewer, larger device requests — small-op throughput scales
//!   with queue depth at a fixed thread count. On a device of one lane
//!   that is a single `write_vectored_at`; on a device of several
//!   ([`StorageBackend::lanes`]) a large pass is cut into pieces written
//!   at once, one per lane, after being cut into runs of disjoint
//!   segments that are written in queue order.
//! - **Completion**: the reaper runs the entry's completion hook — the
//!   connector's settlement: retries, breaker, counters — in the op's
//!   FIFO position, then fulfils its [`Promise`], which resolves the
//!   waiting task directly (the TASIO-style task-aware sink — there is
//!   no completion queue to poll). A failed operation travels back
//!   *inside* its completion ([`CqeErr`] carries the [`RingOp`]).
//!
//! Sharding is by caller-provided key (the connector uses the dataset
//! id), and each shard is FIFO end to end: same-key writes reach the
//! backend, and their promises are fulfilled, in submission order —
//! which is what replaces the connector's per-dataset dependency
//! chaining on the ring path.
//!
//! Backpressure on a full submission queue follows [`Backpressure`]:
//! `Block` (spin-park until the reaper frees a slot) or `Poll` (hand the
//! operation straight back to the caller). Either way the memory the
//! ring holds is bounded by its capacity.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crate::error::{H5Error, Result};
use crate::mpmc::RingQueue;
use crate::plan::{IoSegment, COALESCE_WINDOW};
use crate::promise::Promise;
use crate::recycle;
use crate::storage::{write_striped, IoVec, StorageBackend};

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
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 256,
            shards: 1,
            backpressure: Backpressure::Block,
        }
    }
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
        self.segs().iter().map(|s| s.len).sum()
    }

    fn segs(&self) -> &[IoSegment] {
        let RingOp::Write { segs, .. } = self;
        segs
    }

    /// Append this operation's segments to `iovecs`. A segment outside
    /// the buffer is an error, not a slice panic: the fields are public,
    /// and a reaper that panicked would strand its shard's promises.
    fn push_iovecs<'a>(&'a self, iovecs: &mut Vec<IoVec<'a>>) -> Result<()> {
        let RingOp::Write { data, segs } = self;
        for s in segs {
            let bytes = s
                .cursor
                .checked_add(s.len)
                .and_then(|end| data.get(s.cursor as usize..end as usize))
                .ok_or_else(|| {
                    H5Error::InvalidSelection(format!(
                        "ring write segment at {} of {} bytes lies outside its {}-byte buffer",
                        s.cursor,
                        s.len,
                        data.len()
                    ))
                })?;
            iovecs.push(IoVec {
                offset: s.addr,
                data: bytes,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for RingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let RingOp::Write { data, segs } = self;
        f.debug_struct("Write")
            .field("bytes", &data.len())
            .field("segs", &segs.len())
            .finish()
    }
}

/// Failed completion: the error *and the operation itself*, so a
/// submitter without a completion hook can resubmit it. With a hook, the
/// error is the hook's verdict, its retries spent.
#[derive(Clone, Debug)]
pub struct CqeErr {
    /// What the backend reported (identical to the synchronous error —
    /// fault classification, retry and breaker semantics are unchanged).
    pub error: H5Error,
    /// The operation, returned for resubmission.
    pub op: RingOp,
}

/// What a submission's promise resolves to.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The id `submit_keyed` returned for this operation.
    pub id: u64,
    /// Outcome; errors carry the operation back.
    pub result: std::result::Result<(), CqeErr>,
}

impl Completion {
    /// Collapse into a plain result, discarding the returned op.
    pub fn into_result(self) -> Result<()> {
        self.result.map_err(|e| e.error)
    }
}

/// A completion hook ([`Ring::submit_with`]): the reaper calls it with the
/// operation's first outcome and a way to write it again, before it
/// publishes the promise or takes the next operation. Its return, or its
/// panic, is the completion's verdict.
pub type OnComplete =
    Box<dyn FnOnce(Result<()>, &mut dyn FnMut() -> Result<()>) -> Result<()> + Send>;

/// Submission-queue entry: the operation, the promise its completion
/// fulfils, and the hook that runs first.
struct Sqe {
    id: u64,
    op: RingOp,
    promise: Promise<Completion>,
    on_complete: Option<OnComplete>,
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
    backend: Arc<dyn StorageBackend>,
    /// Submitted and not yet completed (promise fulfilled).
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
}

/// The sharded submission queues over a wrapped backend. See the module
/// docs for the protocol; dropping the ring drains every queued
/// operation, then joins the reapers.
pub struct Ring {
    shared: Arc<RingShared>,
    next_id: AtomicU64,
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
        let shared = Arc::new(RingShared {
            shards,
            backend,
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
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
            backpressure: config.backpressure,
            reapers,
        }
    }

    /// Operations submitted and not yet completed.
    pub fn occupancy(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Total submission-slot capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shared.shards.iter().map(|s| s.sq.capacity()).sum()
    }

    /// Whether the ring writes to `backend` itself: the same object, not
    /// merely one over the same device.
    pub fn wraps(&self, backend: &dyn StorageBackend) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.shared.backend), backend)
    }

    fn unpark(&self, shard_idx: usize) {
        if let Some(t) = self.shared.shards[shard_idx].reaper.get() {
            t.unpark();
        }
    }

    /// Queue `op` on `key`'s shard and wake its reaper. Same-key
    /// operations share a shard and therefore complete in submission
    /// order. A full shard blocks the caller or hands the operation
    /// back, per the ring's [`Backpressure`].
    pub fn submit_keyed(&self, key: u64, op: RingOp) -> Submitted {
        let poll = self.backpressure == Backpressure::Poll;
        match self.push(key, op, None, |back| if poll { Err(back.op) } else { Ok(back) }) {
            Ok((id, promise)) => Submitted::Accepted { id, promise },
            Err(op) => Submitted::Full(op),
        }
    }

    /// [`submit_keyed`](Self::submit_keyed) with a completion hook,
    /// attached before the operation is queued, so it never runs on the
    /// submitting thread. A full shard blocks whatever the ring's
    /// [`Backpressure`]: a [`Submitted::Full`] could not hand the hook back.
    pub fn submit_with(&self, key: u64, op: RingOp, hook: OnComplete) -> Promise<Completion> {
        let Ok((_, promise)) = self.push(key, op, Some(hook), Ok::<Sqe, Infallible>);
        promise
    }

    /// The one push loop. While `key`'s shard is full, `when_full` gives
    /// the entry back to wait for a slot, or ends the submission (`Err`).
    fn push<E>(
        &self,
        key: u64,
        op: RingOp,
        on_complete: Option<OnComplete>,
        when_full: impl Fn(Sqe) -> std::result::Result<Sqe, E>,
    ) -> std::result::Result<(u64, Promise<Completion>), E> {
        let shard_idx = (key % self.shared.shards.len() as u64) as usize;
        let shard = &self.shared.shards[shard_idx];
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let promise = Promise::new();
        let mut sqe = Sqe {
            id,
            op,
            promise: promise.clone(),
            on_complete,
        };
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        loop {
            match shard.sq.push(sqe) {
                Ok(()) => {
                    self.unpark(shard_idx);
                    return Ok((id, promise));
                }
                Err(back) => match when_full(back) {
                    Ok(back) => {
                        sqe = back;
                        self.unpark(shard_idx);
                        thread::park_timeout(SUBMIT_BACKOFF);
                    }
                    Err(handed_back) => {
                        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                        return Err(handed_back);
                    }
                },
            }
        }
    }

    /// Block until every submitted operation has completed (its promise
    /// is fulfilled).
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
            #[allow(
                clippy::let_underscore_must_use,
                reason = "Drop cannot propagate a reaper panic"
            )]
            let _ = h.join();
        }
    }
}

/// Reaper loop: drain the shard, execute depth-aware batches, park when
/// idle. On shutdown, finishes everything still queued before exiting —
/// drop-while-in-flight resolves every promise.
fn reaper_main(shared: Arc<RingShared>, shard_idx: usize) {
    #[allow(
        clippy::let_underscore_must_use,
        reason = "set once per shard; a second set is impossible"
    )]
    let _ = shared.shards[shard_idx].reaper.set(thread::current());
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
        // No timeout: `submit_keyed` pushes and `Drop` sets the shutdown
        // flag before unparking this thread (`drain` unparks it while
        // work is in flight). The loop above has drained and checked the
        // flag since, and an unpark that lands before this park leaves
        // the token that makes it return at once, so no wakeup is lost.
        thread::park();
    }
}

/// Pop up to a coalescing window's worth of segments in one pass.
fn drain_shard(shared: &RingShared, shard_idx: usize) -> Vec<Sqe> {
    let mut batch = Vec::new();
    let mut segments = 0usize;
    while segments < COALESCE_WINDOW {
        match shared.shards[shard_idx].sq.pop() {
            Some(sqe) => {
                segments += sqe.op.segs().len().max(1);
                batch.push(sqe);
            }
            None => break,
        }
    }
    batch
}

/// Execute one reaper pass: everything queued goes to the backend as one
/// [`write_run`]. A lone operation, or a pass that failed (a batch error
/// names no operation), executes one operation at a time so each
/// completion carries its own verdict — replays are idempotent (same
/// bytes, same offsets). Completions are delivered in queue order.
fn execute_batch(shared: &RingShared, batch: Vec<Sqe>) {
    let backend = shared.backend.as_ref();
    if batch.len() > 1 && write_run(backend, batch.iter().map(|sqe| &sqe.op)).is_ok() {
        for sqe in batch {
            complete(shared, sqe, Ok(()));
        }
        return;
    }
    for sqe in batch {
        let result = write_run(backend, std::iter::once(&sqe.op));
        complete(shared, sqe, result);
    }
}

/// The one write body, for a reaper pass and a hook's retry alike: `run`'s
/// segments, failed before anything reaches the backend if an op is
/// malformed, as striped writes ([`write_striped`]). On a device of one
/// lane that is one vectored call per [`COALESCE_WINDOW`] segments. On
/// more, whose pieces land in no defined order, the segments are first
/// cut into runs of disjoint ones ([`disjoint_runs`]), written in queue
/// order: of two writes to the same bytes, the later lands last.
fn write_run<'a>(
    backend: &dyn StorageBackend,
    run: impl Iterator<Item = &'a RingOp> + Clone,
) -> Result<()> {
    let mut iovecs = Vec::with_capacity(run.clone().map(|op| op.segs().len()).sum());
    for op in run {
        op.push_iovecs(&mut iovecs)?;
    }
    if backend.lanes() == 1 {
        return write_striped(backend, &iovecs);
    }
    for disjoint in disjoint_runs(&iovecs) {
        write_striped(backend, disjoint)?;
    }
    Ok(())
}

/// `iovecs`, in order, cut into runs of disjoint segments: each run ends
/// before the first segment that overlaps one already in it.
fn disjoint_runs<'s, 'a>(iovecs: &'s [IoVec<'a>]) -> impl Iterator<Item = &'s [IoVec<'a>]> {
    let mut rest = iovecs;
    std::iter::from_fn(move || {
        // The run's segments so far, start → end; they are disjoint, so
        // the last one starting before a segment's end is the only one
        // that can reach past its start.
        let mut held = BTreeMap::new();
        let take = rest
            .iter()
            .position(|seg| {
                if seg.data.is_empty() {
                    return false;
                }
                let end = seg.offset.saturating_add(seg.data.len() as u64);
                if held.range(..end).next_back().is_some_and(|(_, &e)| e > seg.offset) {
                    return true;
                }
                held.insert(seg.offset, end);
                false
            })
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(take);
        rest = tail;
        (!run.is_empty()).then_some(run)
    })
}

/// Run `sqe`'s completion hook, if any, then fulfil its promise, then
/// retire it from the in-flight count — so whoever sees the promise, or
/// an empty ring, sees the hook's work done. A write that has landed
/// first gives its snapshot buffer back for the next one (lock-free), so
/// a waiter that wakes finds the buffer already reusable; a failed one
/// travels back to the waiter inside the error.
fn complete(shared: &RingShared, sqe: Sqe, result: Result<()>) {
    let Sqe { id, op, promise, on_complete } = sqe;
    let result = match on_complete {
        None => result,
        // A panicking hook must not kill the reaper, which would strand
        // every promise of its shard: the panic is the op's error.
        Some(hook) => {
            let mut again = || write_run(shared.backend.as_ref(), std::iter::once(&op));
            panic::catch_unwind(AssertUnwindSafe(|| hook(result, &mut again))).unwrap_or_else(|p| {
                let msg = p.downcast_ref::<&str>().map(|s| s.to_string());
                let msg = msg.or_else(|| p.downcast_ref::<String>().cloned()).unwrap_or_default();
                Err(H5Error::Async(format!("ring completion hook panicked: {msg}")))
            })
        }
    };
    let result = match result {
        Ok(()) => {
            let RingOp::Write { data, .. } = op;
            recycle::give(data);
            Ok(())
        }
        Err(error) => Err(CqeErr { error, op }),
    };
    promise.fulfill(Completion { id, result });
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Call, CountingBackend, MemBackend};
    use std::time::Instant;

    /// The offsets of every vectored write call the device saw — proof
    /// of per-key FIFO and of depth-aware coalescing — and the gate that
    /// holds a call open until the test lets it go.
    #[derive(Default)]
    struct Log {
        calls: crate::sync::Mutex<Vec<Vec<u64>>>,
        /// Open: calls run straight through.
        gate: AtomicBool,
    }

    /// A counted MemBackend whose vectored writes wait at `Log::gate`,
    /// then log their offsets. A write call has started once the counts
    /// show a write batch.
    fn recording(gate_open: bool) -> (Arc<CountingBackend>, Arc<Log>) {
        let log = Arc::new(Log::default());
        log.gate.store(gate_open, Ordering::SeqCst);
        let seen = log.clone();
        let backend = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            if let Call::Write { segments, vectored: true } = call {
                while !seen.gate.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                seen.calls.lock().push(segments.iter().map(|v| v.offset).collect());
            }
            Ok(())
        });
        (Arc::new(backend), log)
    }

    fn submit(ring: &Ring, key: u64, op: RingOp) -> Promise<Completion> {
        ring.submit_keyed(key, op).accepted().unwrap().1
    }

    /// Poll (never park on a promise a dead reaper would leave empty).
    fn fulfilled_within(promises: &[Promise<Completion>], limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while !promises.iter().all(Promise::is_fulfilled) {
            if Instant::now() > deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn a_write_lands_through_the_ring() {
        let backend = Arc::new(MemBackend::new());
        let ring = Ring::new(backend.clone(), RingConfig::default());
        let p = submit(&ring, 0, RingOp::write_raw(100, vec![7u8; 64]));
        assert!(p.wait_cloned().result.is_ok());
        let mut back = [0u8; 64];
        backend.read_at(100, &mut back).unwrap();
        assert_eq!(back, [7u8; 64]);
    }

    /// Depth-aware coalescing, deterministically: while the reaper is
    /// held inside its first backend call, `d` more writes queue up
    /// behind it; the next call carries exactly those `d` segments.
    #[test]
    fn writes_queued_behind_a_busy_reaper_coalesce_into_one_vectored_call() {
        let (backend, log) = recording(false);
        let ring = Ring::new(backend.clone(), RingConfig::default());
        let mut promises = vec![submit(&ring, 0, RingOp::write_raw(0, vec![0u8; 64]))];
        while backend.counts().write_batches == 0 {
            thread::yield_now();
        }
        let d = 16u64;
        for i in 1..=d {
            promises.push(submit(&ring, 0, RingOp::write_raw(i * 64, vec![i as u8; 64])));
        }
        log.gate.store(true, Ordering::SeqCst);
        for p in &promises {
            assert!(p.wait_cloned().result.is_ok());
        }
        let calls = log.calls.lock();
        assert_eq!(calls.len(), 2, "the op in flight, then everything behind it");
        assert_eq!(calls[0], [0]);
        assert_eq!(calls[1], (1..=d).map(|i| i * 64).collect::<Vec<_>>());
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
        let mut accepted = Vec::new();
        let mut bounced = Vec::new();
        for i in 0..16u64 {
            match ring.submit_keyed(0, RingOp::write_raw(i * 16, vec![1u8; 16])) {
                Submitted::Accepted { promise, .. } => accepted.push(promise),
                Submitted::Full(op) => {
                    assert_eq!(op.total_bytes(), 16, "op comes back intact");
                    bounced.push(op);
                }
            }
        }
        assert!(accepted.len() >= 2, "the first slots must be accepted");
        assert!(!bounced.is_empty(), "a full Poll ring must bounce");
        for p in accepted {
            assert!(p.wait_cloned().result.is_ok(), "accepted ops complete");
        }
        ring.drain();
        // After the backlog drains, the very same op resubmits.
        let p = submit(&ring, 0, bounced.swap_remove(0));
        assert!(p.wait_cloned().result.is_ok(), "resubmission completes");
    }

    #[test]
    fn faults_surface_through_completions_with_the_op() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let plan = FaultPlan::new(7).fail_after(FaultOp::Write, 0, FaultKind::Transient);
        let faulty = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        let ring = Ring::new(Arc::new(faulty), RingConfig::default());
        let p = submit(&ring, 0, RingOp::write_raw(0, vec![1u8; 8]));
        match p.wait_cloned().result {
            Err(CqeErr { error, op }) => {
                assert!(error.is_retryable(), "transient class preserved: {error}");
                // The op comes back: resubmit it (the injector faults
                // every write, so it fails again — same op, same class).
                let p2 = submit(&ring, 0, op);
                assert!(p2.wait_cloned().result.is_err());
            }
            other => panic!("expected injected fault, got {other:?}"),
        }
    }

    /// The order the connector's wait on a dataset's last ring write
    /// depends on: same-key writes reach the
    /// backend in submission order, and promise `i` is fulfilled before
    /// promise `i + 1` is.
    #[test]
    fn completions_arrive_in_submission_order_per_key() {
        let (backend, log) = recording(true);
        let ring = Ring::new(backend, RingConfig::default());
        let promises: Vec<_> = (0..32u64)
            .map(|i| submit(&ring, 0, RingOp::write_raw(i * 4, vec![i as u8; 4])))
            .collect();
        // Fulfilment only ever goes forward, so walking from the newest
        // promise to the oldest, nothing older than a fulfilled promise
        // may still be pending.
        while !promises.iter().all(Promise::is_fulfilled) {
            let mut newer_done = false;
            for (i, p) in promises.iter().enumerate().rev() {
                let done = p.is_fulfilled();
                assert!(done || !newer_done, "promise {i} pending behind a fulfilled successor");
                newer_done |= done;
            }
            thread::yield_now();
        }
        for p in &promises {
            assert!(p.wait_cloned().result.is_ok(), "write succeeds");
        }
        let seen: Vec<u64> = log.calls.lock().concat();
        assert_eq!(seen, (0..32u64).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn drop_while_in_flight_resolves_every_promise() {
        let slow = crate::storage::ThrottledBackend::in_memory(1e9, 2e-3);
        let ring = Ring::new(Arc::new(slow), RingConfig::default());
        // One key per op, so every shard's reaper has work at shutdown.
        let promises: Vec<_> = (0..16u64)
            .map(|i| submit(&ring, i, RingOp::write_raw(i * 8, vec![2u8; 8])))
            .collect();
        drop(ring); // shutdown drains the queue before joining reapers
        for (i, p) in promises.into_iter().enumerate() {
            assert!(p.is_fulfilled(), "promise {i} left unresolved after drop");
            assert!(
                p.wait_cloned().result.is_ok(),
                "queued ops complete during shutdown"
            );
        }
    }

    /// The completion hook runs on the reaper, not the submitter, and
    /// while it runs the op is neither published nor out of the ring's
    /// occupancy; its verdict is the completion's.
    #[test]
    fn a_hook_runs_on_the_reaper_before_the_promise_is_published() {
        let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
        let ran_on = Arc::new(crate::sync::Mutex::new(None));
        let release = Arc::new(AtomicBool::new(false));
        let (seen, go) = (ran_on.clone(), release.clone());
        let p = ring.submit_with(0, RingOp::write_raw(0, vec![1u8; 8]), Box::new(move |first, _| {
            *seen.lock() = Some(thread::current().id());
            while !go.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            first.and(Err(H5Error::Storage("the hook's verdict".into())))
        }));
        while ran_on.lock().is_none() {
            thread::yield_now();
        }
        assert_ne!(*ran_on.lock(), Some(thread::current().id()), "the hook ran on the submitter");
        assert!(!p.is_fulfilled(), "published while the hook runs");
        assert_eq!(ring.occupancy(), 1, "out of the ring while the hook runs");
        release.store(true, Ordering::SeqCst);
        let verdict = p.wait_cloned().into_result();
        assert!(matches!(verdict, Err(H5Error::Storage(m)) if m == "the hook's verdict"));
        ring.drain();
    }

    /// A hook's retry goes through the reaper's own write body and lands
    /// before the reaper touches the op queued behind it.
    #[test]
    fn a_hooks_retry_lands_before_the_next_op() {
        let gate = Arc::new(AtomicBool::new(false));
        let calls = Arc::new(crate::sync::Mutex::new(Vec::<u64>::new()));
        let (open, log) = (gate.clone(), calls.clone());
        let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let Call::Write { segments, .. } = call else { return Ok(()) };
            while !open.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            let mut log = log.lock();
            log.push(segments[0].offset);
            match log.len() {
                1 => Err(H5Error::Transient("first call".into())),
                _ => Ok(()),
            }
        });
        let device = Arc::new(device);
        let ring = Ring::new(device.clone(), RingConfig::default());
        let a = ring.submit_with(0, RingOp::write_raw(0, vec![1u8; 8]), Box::new(|first, again| {
            assert!(first.as_ref().is_err_and(H5Error::is_retryable), "{first:?}");
            again()
        }));
        while device.counts().write_batches == 0 {
            thread::yield_now();
        }
        let b = submit(&ring, 0, RingOp::write_raw(64, vec![2u8; 8]));
        gate.store(true, Ordering::SeqCst);
        assert!(a.wait_cloned().result.is_ok(), "the retry landed");
        assert!(b.wait_cloned().result.is_ok());
        assert_eq!(*calls.lock(), [0, 0, 64], "A, A's retry, then B");
    }

    /// A panicking hook must not kill the reaper: its op completes with
    /// the panic as its error, and the op behind it still lands.
    #[test]
    fn a_panicking_hook_is_the_ops_error_not_a_dead_reaper() {
        let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
        let a = ring.submit_with(0, RingOp::write_raw(0, vec![1u8; 8]), Box::new(|_, _| {
            panic!("hook panics (expected by the test)")
        }));
        let b = submit(&ring, 0, RingOp::write_raw(64, vec![2u8; 8]));
        assert!(
            fulfilled_within(&[a.clone(), b.clone()], Duration::from_secs(3)),
            "a panicking hook left promises unfulfilled: the reaper is dead"
        );
        match a.wait_cloned().into_result() {
            Err(H5Error::Async(m)) => assert!(m.contains("hook panics (expected"), "{m}"),
            other => panic!("expected the panic as the op's error, got {other:?}"),
        }
        assert!(b.wait_cloned().result.is_ok());
    }

    /// `RingOp::Write`'s fields are public: a segment reaching past its
    /// buffer must come back as that operation's error, not panic the
    /// reaper and strand every promise queued on the shard.
    #[test]
    fn a_segment_past_its_buffer_is_an_error_not_a_dead_reaper() {
        let (backend, log) = recording(true);
        let ring = Ring::new(backend.clone(), RingConfig::default());
        let bad = |cursor, len| RingOp::Write {
            data: vec![0u8; 8],
            segs: vec![IoSegment { addr: 0, cursor, len }],
        };
        let promises = [
            submit(&ring, 0, bad(4, 8)),
            submit(&ring, 0, RingOp::write_raw(64, vec![9u8; 8])),
            submit(&ring, 0, bad(u64::MAX, 2)),
            submit(&ring, 0, RingOp::write_raw(128, vec![5u8; 8])),
        ];
        assert!(
            fulfilled_within(&promises, Duration::from_secs(3)),
            "a malformed op left promises unfulfilled: the reaper is dead"
        );
        for (i, len) in [(0, 8), (2, 2)] {
            match promises[i].wait_cloned().result {
                Err(CqeErr { error, op }) => {
                    assert!(matches!(error, H5Error::InvalidSelection(_)), "got {error}");
                    assert!(!error.is_retryable());
                    assert_eq!(op.total_bytes(), len, "the op comes back");
                }
                Ok(()) => panic!("op {i} must fail"),
            }
        }
        let seen: Vec<u64> = log.calls.lock().concat();
        assert_eq!(seen, [64, 128], "the bad ops never reached the backend");
        for (addr, byte) in [(64, 9u8), (128, 5u8)] {
            let mut back = [0u8; 8];
            backend.read_at(addr, &mut back).unwrap();
            assert_eq!(back, [byte; 8], "the good op behind a bad one landed");
        }
    }
}
