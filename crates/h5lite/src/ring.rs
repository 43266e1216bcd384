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
//!   submission queue. The hot path is atomics only — no
//!   `argolite::sync` (or any other named) lock is ever acquired on
//!   submit or complete; a `debug-invariants` test asserts this against
//!   the lock-order recorder's acquisition counter.
//! - **Reaping**: one reaper thread per shard drains its queue and
//!   executes the entries against the wrapped backend. A reaper pass is
//!   *depth-aware*: every write queued at that moment (bounded by
//!   [`COALESCE_WINDOW`] segments per call) is issued as a single
//!   `write_vectored_at`, so a deeper ring buys fewer, larger device
//!   requests — small-op throughput scales with queue depth at a fixed
//!   thread count.
//! - **Completion**: the reaper fulfils the entry's [`Promise`], which
//!   resolves the waiting task directly (the TASIO-style task-aware
//!   sink — there is no completion queue to poll). A failed operation
//!   travels back *inside* its completion ([`CqeErr`] carries the
//!   [`RingOp`]), so the waiter can resubmit it — retry policy and
//!   circuit-breaker semantics stay at the task layer, unchanged.
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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crate::error::{H5Error, Result};
use crate::mpmc::RingQueue;
use crate::plan::{IoSegment, COALESCE_WINDOW};
use crate::promise::Promise;
use crate::recycle;
use crate::storage::{IoVec, StorageBackend};

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

/// Submission-queue entry: the operation plus the promise its
/// completion fulfils.
struct Sqe {
    id: u64,
    op: RingOp,
    promise: Promise<Completion>,
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
    idle_park: Duration,
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
        let shard_idx = (key % self.shared.shards.len() as u64) as usize;
        let shard = &self.shared.shards[shard_idx];
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let promise = Promise::new();
        let mut sqe = Sqe {
            id,
            op,
            promise: promise.clone(),
        };
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        loop {
            match shard.sq.push(sqe) {
                Ok(()) => {
                    self.unpark(shard_idx);
                    return Submitted::Accepted { id, promise };
                }
                Err(back) => match self.backpressure {
                    Backpressure::Poll => {
                        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                        return Submitted::Full(back.op);
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
                segments += sqe.op.segs().len().max(1);
                batch.push(sqe);
            }
            None => break,
        }
    }
    batch
}

/// Execute one reaper pass: everything queued goes to the backend as a
/// single vectored call. A lone operation, or a run that failed (a batch
/// error names no operation), executes one operation at a time so each
/// completion carries its own verdict — replays are idempotent (same
/// bytes, same offsets). Completions are delivered in queue order.
fn execute_batch(shared: &RingShared, batch: Vec<Sqe>) {
    let backend = shared.backend.as_ref();
    if batch.len() > 1 && write_run(backend, &batch).is_ok() {
        for sqe in batch {
            complete(shared, sqe, Ok(()));
        }
        return;
    }
    for sqe in batch {
        let result = write_run(backend, std::slice::from_ref(&sqe));
        complete(shared, sqe, result);
    }
}

/// Issue `run`'s segments as one vectored write (windowed at
/// [`COALESCE_WINDOW`] segments). A segment that does not lie inside its
/// operation's buffer fails the run before anything reaches the backend
/// — the fields of [`RingOp::Write`] are public, and a reaper that
/// panicked on a slice index would leave every promise of its shard
/// unfulfilled for good.
fn write_run(backend: &dyn StorageBackend, run: &[Sqe]) -> Result<()> {
    let segments = run.iter().map(|sqe| sqe.op.segs().len()).sum();
    let mut iovecs: Vec<IoVec<'_>> = Vec::with_capacity(segments);
    for sqe in run {
        let RingOp::Write { data, segs } = &sqe.op;
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
    }
    iovecs
        .chunks(COALESCE_WINDOW)
        .try_for_each(|window| backend.write_vectored_at(window))
}

/// Fulfil `sqe`'s promise, then retire it from the in-flight count. A
/// write that has landed first gives its snapshot buffer back for the
/// next one (lock-free), so a waiter that wakes finds the buffer already
/// reusable; a failed one travels back to the waiter inside the error.
fn complete(shared: &RingShared, sqe: Sqe, result: Result<()>) {
    let Sqe { id, op, promise } = sqe;
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
    use crate::storage::MemBackend;
    use std::time::Instant;

    /// MemBackend that records the offsets of every vectored write call
    /// — proof of per-key FIFO and of depth-aware coalescing — and whose
    /// first call can be held open until the test lets it go.
    struct RecordingBackend {
        inner: MemBackend,
        calls: crate::sync::Mutex<Vec<Vec<u64>>>,
        /// A write call has started (and is waiting on `gate` if shut).
        entered: AtomicBool,
        /// Open: calls run straight through.
        gate: AtomicBool,
    }

    impl RecordingBackend {
        fn new(gate_open: bool) -> Self {
            RecordingBackend {
                inner: MemBackend::new(),
                calls: crate::sync::Mutex::new(Vec::new()),
                entered: AtomicBool::new(false),
                gate: AtomicBool::new(gate_open),
            }
        }
    }

    impl StorageBackend for RecordingBackend {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_vectored_at(&self, batch: &[IoVec<'_>]) -> Result<()> {
            self.entered.store(true, Ordering::SeqCst);
            while !self.gate.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            self.calls.lock().push(batch.iter().map(|v| v.offset).collect());
            self.inner.write_vectored_at(batch)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
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
        let backend = Arc::new(RecordingBackend::new(false));
        let ring = Ring::new(backend.clone(), RingConfig::default());
        let mut promises = vec![submit(&ring, 0, RingOp::write_raw(0, vec![0u8; 64]))];
        while !backend.entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        let d = 16u64;
        for i in 1..=d {
            promises.push(submit(&ring, 0, RingOp::write_raw(i * 64, vec![i as u8; 64])));
        }
        backend.gate.store(true, Ordering::SeqCst);
        for p in &promises {
            assert!(p.wait_cloned().result.is_ok());
        }
        let calls = backend.calls.lock();
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
        let mut accepted = 0;
        let mut bounced = 0;
        for i in 0..16u64 {
            match ring.submit_keyed(0, RingOp::write_raw(i * 8, vec![1u8; 8])) {
                Submitted::Accepted { .. } => accepted += 1,
                Submitted::Full(op) => {
                    assert_eq!(op.total_bytes(), 8, "op comes back intact");
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

    /// The order `settle_ring_ds` depends on: same-key writes reach the
    /// backend in submission order, and promise `i` is fulfilled before
    /// promise `i + 1` is.
    #[test]
    fn completions_arrive_in_submission_order_per_key() {
        let backend = Arc::new(RecordingBackend::new(true));
        let ring = Ring::new(backend.clone(), RingConfig::default());
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
        let seen: Vec<u64> = backend.calls.lock().concat();
        assert_eq!(seen, (0..32u64).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn drop_while_in_flight_resolves_every_promise() {
        let slow = crate::storage::ThrottledBackend::in_memory(1e9, 2e-3);
        let ring = Ring::new(Arc::new(slow), RingConfig::default());
        let promises: Vec<_> = (0..8u64)
            .map(|i| submit(&ring, 0, RingOp::write_raw(i * 8, vec![2u8; 8])))
            .collect();
        drop(ring); // shutdown drains the queue before joining reapers
        for p in promises {
            assert!(
                p.wait_cloned().result.is_ok(),
                "queued ops complete during shutdown"
            );
        }
    }

    /// `RingOp::Write`'s fields are public: a segment reaching past its
    /// buffer must come back as that operation's error, not panic the
    /// reaper and strand every promise queued on the shard.
    #[test]
    fn a_segment_past_its_buffer_is_an_error_not_a_dead_reaper() {
        let backend = Arc::new(RecordingBackend::new(true));
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
        let seen: Vec<u64> = backend.calls.lock().concat();
        assert_eq!(seen, [64, 128], "the bad ops never reached the backend");
        for (addr, byte) in [(64, 9u8), (128, 5u8)] {
            let mut back = [0u8; 8];
            backend.read_at(addr, &mut back).unwrap();
            assert_eq!(back, [byte; 8], "the good op behind a bad one landed");
        }
    }
}
