//! The queued-write boundary over [`StorageBackend`] (DESIGN.md §14).
//!
//! A backend call made directly is a synchronous function call:
//! concurrency scales with thread count, never with queue depth —
//! exactly the wall the paper's async-VOL evaluation hits once device
//! latency dominates. This module puts the connector's background
//! writes behind fixed-capacity lock-free submission queues, the way
//! `io_uring` queues work for the kernel:
//!
//! - **Submission**: [`Ring::submit_with`] pushes an owned write (the
//!   operation, its device — named per entry, like an `io_uring` entry's
//!   file descriptor, so one ring serves many devices — a completion hook
//!   and the promise its waiter holds) onto a per-shard submission queue.
//!   The hot path is atomics only — no named `sync` lock is ever acquired
//!   on submit or complete; a `debug-invariants` test asserts this
//!   against the lock-order recorder's acquisition counter.
//! - **Reaping**: one reaper thread per shard drains its queue and
//!   executes the entries against their devices. A reaper pass is
//!   *depth-aware*: every write queued at that moment (up to
//!   [`COALESCE_WINDOW`] segments) is issued as one `write_vectored_at`
//!   per run of entries on one device, its segments in queue order, so a
//!   deeper ring buys fewer, larger device requests — small-op throughput
//!   scales with queue depth at a fixed thread count. A device that serves
//!   several requests at once spreads the call over them itself (a
//!   [`ThrottledBackend`](crate::storage::ThrottledBackend) stripes a
//!   write over its channels): the reaper makes it whole, on its own
//!   thread. A device call that panics is the pass's error, not a dead
//!   reaper.
//! - **Completion**: the reaper runs the entry's completion hook — the
//!   connector's settlement: retries, breaker, counters — in the op's
//!   FIFO position, gives the op's buffer back to the recycler whether
//!   it landed or failed, then fulfils its [`Promise`] with the verdict
//!   alone ([`Completion`]), which resolves the waiting task directly
//!   (the TASIO-style task-aware sink — there is no completion queue to
//!   poll, and no operation comes back). The fulfil wakes a thread only
//!   if one sleeps on the promise: a completion nobody waits on yet costs
//!   the reaper a lock, not a `futex_wake`.
//! - **Jobs**: [`Ring::submit_job`] queues work that is not a write — an
//!   entry with no segments whose completion hook is the work, boxed
//!   once, as that hook. A job
//!   ends its reaper pass: when it starts, everything queued before it
//!   on the shard has landed and settled, and nothing queued after it
//!   has started. So one FIFO orders a dataset's writes, reads and
//!   anything else its owner runs in the background.
//!
//! Sharding is by caller-provided key (the connector uses the dataset id
//! offset by its container's serial, so one container's entries and
//! another's spread over the shards), and each shard is FIFO end to end: same-key writes and jobs
//! reach their devices, and their promises are fulfilled, in submission
//! order — which is the connector's whole per-dataset order.
//!
//! A full shard blocks its submitter until the reaper frees a slot, so
//! the memory the ring holds is bounded by its capacity and a full ring
//! throttles the application to device speed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crate::error::{H5Error, Result};
use crate::mpmc::RingQueue;
use crate::plan::{IoSegment, COALESCE_WINDOW};
use crate::promise::Promise;
use crate::recycle;
use crate::storage::{write_windowed, IoVec, StorageBackend};

/// Ring geometry.
#[derive(Clone, Debug)]
pub struct RingConfig {
    /// Per-shard submission-ring capacity (power of two ≥ 2).
    pub capacity: usize,
    /// Submission shards, one reaper thread each. Same-key submissions
    /// land on the same shard and complete in FIFO order.
    pub shards: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 256,
            shards: 1,
        }
    }
}

/// One ring operation. Data is owned (the submitter's snapshot moves
/// in), so entries outlive the caller's stack frame the way `io_uring`
/// SQEs outlive `io_uring_enter`.
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

/// What a submission's promise resolves to: the operation's verdict.
#[derive(Clone, Debug)]
pub struct Completion {
    /// What the backend reported (identical to the synchronous error —
    /// fault classification is unchanged), or with a completion hook the
    /// hook's verdict, its retries spent.
    pub result: Result<()>,
}

impl Completion {
    /// The verdict as a plain result.
    pub fn into_result(self) -> Result<()> {
        self.result
    }
}

/// A completion hook ([`Ring::submit_with`]): the reaper calls it with the
/// operation's outcome, whether that is a replay (the pass it was
/// coalesced into failed, so it was written again alone), and a way to
/// write it again to its device, before it publishes the promise or takes
/// the next operation. Its return, or its panic, is the verdict.
pub type OnComplete =
    Box<dyn FnOnce(Result<()>, bool, &mut dyn FnMut() -> Result<()>) -> Result<()> + Send>;

/// Submission-queue entry: the device it writes, the operation, the
/// promise its completion fulfils, and the hook that runs first.
struct Sqe {
    device: Arc<dyn StorageBackend>,
    op: RingOp,
    promise: Promise<Completion>,
    hook: OnComplete,
}

/// Outcome of a submission: always [`Submitted::Accepted`], since a full
/// shard blocks.
#[must_use = "the promise is the only way to learn the write's verdict"]
pub enum Submitted {
    /// Queued; the promise resolves with the completion.
    Accepted {
        /// Resolves when the reaper finishes the operation.
        promise: Promise<Completion>,
    },
    /// Never returned. It stays only because the e2e benchmark's
    /// `let … else` names it: without it that pattern is irrefutable,
    /// which `clippy -D warnings` rejects. It goes when that code does.
    Full(RingOp),
}

impl Submitted {
    /// The accepted submission's promise.
    pub fn accepted(self) -> Result<Promise<Completion>> {
        match self {
            Submitted::Accepted { promise } => Ok(promise),
            Submitted::Full(_) => Err(H5Error::Transient("submission ring full".into())),
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
    /// Submitted and not yet completed (landed, its hook run).
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
}

/// The sharded submission queues, each entry naming its device. See the
/// module docs for the protocol; dropping the ring drains every queued
/// operation, then joins the reapers.
pub struct Ring {
    shared: Arc<RingShared>,
    reapers: Vec<thread::JoinHandle<()>>,
}

/// Backoff while blocked on a full submission ring. Short: the reaper
/// frees slots at device speed, and we are unparked-by-timeout only.
const SUBMIT_BACKOFF: Duration = Duration::from_micros(20);

impl Ring {
    /// Spin up `config.shards` reaper threads; `submit_keyed` writes to `backend`.
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
        Ring { shared, reapers }
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

    /// [`submit_with`](Self::submit_with) to the backend the ring was
    /// built over, with no hook: the write's outcome is its verdict.
    pub fn submit_keyed(&self, key: u64, op: RingOp) -> Submitted {
        let promise = self.submit_with(key, self.shared.backend.clone(), op, Box::new(|r, _, _| r));
        Submitted::Accepted { promise }
    }

    /// Queue `job` on `key`'s shard: the reaper runs it at its FIFO
    /// position, as a pass of its own (see the module docs), and its
    /// return value, or its panic, is the completion's verdict. The job is
    /// boxed once, as the entry's hook.
    pub fn submit_job(
        &self,
        key: u64,
        job: impl FnOnce() -> Result<()> + Send + 'static,
    ) -> Promise<Completion> {
        // No segments, so the device is never written.
        let op = RingOp::Write { data: Vec::new(), segs: Vec::new() };
        self.submit_with(key, self.shared.backend.clone(), op, Box::new(move |_, _, _| job()))
    }

    /// Queue `op`, a write to `device`, on `key`'s shard and wake its
    /// reaper, with a completion hook attached before the operation is
    /// queued, so it never runs on the submitting thread. Same-key
    /// operations share a shard and therefore complete in submission
    /// order. The one push loop: a full shard blocks the caller until it
    /// has a slot.
    pub fn submit_with(
        &self,
        key: u64,
        device: Arc<dyn StorageBackend>,
        op: RingOp,
        hook: OnComplete,
    ) -> Promise<Completion> {
        let shard_idx = (key % self.shared.shards.len() as u64) as usize;
        let shard = &self.shared.shards[shard_idx];
        let promise = Promise::new();
        let mut sqe = Sqe { device, op, promise: promise.clone(), hook };
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        while let Err(back) = shard.sq.push(sqe) {
            sqe = back;
            self.unpark(shard_idx);
            thread::park_timeout(SUBMIT_BACKOFF);
        }
        self.unpark(shard_idx);
        promise
    }

    /// Block until every submitted operation has completed: landed, its
    /// hook run. Its promise is fulfilled right after.
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
        // No timeout: `submit_with` pushes and `Drop` sets the shutdown
        // flag before unparking this thread (`drain` unparks it while
        // work is in flight). The loop above has drained and checked the
        // flag since, and an unpark that lands before this park leaves
        // the token that makes it return at once, so no wakeup is lost.
        thread::park();
    }
}

/// Pop up to a coalescing window's worth of segments in one pass, or up
/// to and including the first job: a job ends its pass.
fn drain_shard(shared: &RingShared, shard_idx: usize) -> Vec<Sqe> {
    let mut batch = Vec::new();
    let mut segments = 0usize;
    while segments < COALESCE_WINDOW {
        let Some(sqe) = shared.shards[shard_idx].sq.pop() else { break };
        let job = sqe.op.segs().is_empty();
        segments += sqe.op.segs().len().max(1);
        batch.push(sqe);
        if job {
            break;
        }
    }
    batch
}

/// Execute one reaper pass: each run of consecutive entries on the same
/// device goes to it as one [`write_run`]. A lone operation, or a run
/// that failed (a batch error names no operation), executes one operation
/// at a time so each completion carries its own verdict — replays are
/// idempotent (same bytes, same offsets) — and a replay's hook is told it
/// is one. Completions are delivered in queue order, and a job, which can
/// only be last, runs once every write before it has landed and settled.
fn execute_batch(shared: &RingShared, mut batch: Vec<Sqe>) {
    let job = batch.pop_if(|sqe| sqe.op.segs().is_empty());
    while let Some(first) = batch.first() {
        let n = batch.iter().take_while(|sqe| Arc::ptr_eq(&sqe.device, &first.device)).count();
        let run = batch[..n].iter().map(|sqe| &sqe.op);
        let pass = (n > 1).then(|| write_run(&*first.device, run));
        let replayed = matches!(pass, Some(Err(_)));
        for sqe in batch.drain(..n) {
            let result = match pass {
                Some(Ok(())) => Ok(()),
                _ => write_run(&*sqe.device, std::iter::once(&sqe.op)),
            };
            complete(shared, sqe, result, replayed);
        }
    }
    if let Some(job) = job {
        complete(shared, job, Ok(()), false);
    }
}

/// The one write body, for a reaper pass and a hook's retry alike: `run`'s
/// segments, failed before anything reaches the backend if an op is
/// malformed, as one vectored call per [`COALESCE_WINDOW`] segments, in
/// queue order ([`write_windowed`]): of two writes to the same bytes, the
/// later lands last. A device call that panics is an
/// [`H5Error::Storage`], so the reaper lives to complete the entries.
fn write_run<'a>(
    backend: &dyn StorageBackend,
    run: impl Iterator<Item = &'a RingOp> + Clone,
) -> Result<()> {
    let mut iovecs = Vec::with_capacity(run.clone().map(|op| op.segs().len()).sum());
    for op in run {
        op.push_iovecs(&mut iovecs)?;
    }
    panic::catch_unwind(AssertUnwindSafe(|| write_windowed(backend, &iovecs)))
        .unwrap_or_else(|p| Err(H5Error::Storage(format!("a device write panicked: {}", message(&*p)))))
}

/// A caught panic's message, if it carried one.
fn message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| panic.downcast_ref::<String>().cloned()).unwrap_or_default()
}

/// Run `sqe`'s completion hook, then retire it from the in-flight
/// count, then fulfil its promise — so whoever sees an empty
/// ring sees the hook's work done, and whoever sees the promise also sees
/// the op out of [`Ring::occupancy`]. The write first gives its snapshot
/// buffer back for the next one (lock-free), landed or failed: nothing
/// holds it after its hook, so a waiter that wakes finds it reusable and
/// a failure nobody waits for pins no memory.
fn complete(shared: &RingShared, sqe: Sqe, result: Result<()>, replayed: bool) {
    let Sqe { device, op, promise, hook } = sqe;
    // A panicking hook must not kill the reaper, which would strand every
    // promise of its shard: the panic is the op's error.
    let mut again = || write_run(&*device, std::iter::once(&op));
    let run = AssertUnwindSafe(|| hook(result, replayed, &mut again));
    let result = panic::catch_unwind(run).unwrap_or_else(|p| {
        Err(H5Error::Async(format!("ring completion hook panicked: {}", message(&*p))))
    });
    let RingOp::Write { data, .. } = op;
    recycle::give(data);
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    promise.fulfill(Completion { result });
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
        ring.submit_keyed(key, op).accepted().unwrap()
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
    fn faults_surface_through_completions() {
        use crate::storage::{FaultInjector, FaultKind, FaultOp, FaultPlan};
        let plan = FaultPlan::new(7).fail_after(FaultOp::Write, 0, FaultKind::Transient);
        let faulty = FaultInjector::new(Arc::new(MemBackend::new()), plan);
        let ring = Ring::new(Arc::new(faulty), RingConfig::default());
        let p = submit(&ring, 0, RingOp::write_raw(0, vec![1u8; 8]));
        match p.wait_cloned().result {
            Err(error) => assert!(error.is_retryable(), "transient class preserved: {error}"),
            Ok(()) => panic!("expected the injected fault"),
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
        let op = RingOp::write_raw(0, vec![1u8; 8]);
        let p = ring.submit_with(0, Arc::new(MemBackend::new()), op, Box::new(move |first, _, _| {
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
        let op = RingOp::write_raw(0, vec![1u8; 8]);
        let a = ring.submit_with(0, device.clone(), op, Box::new(|first, _, again| {
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

    /// One shard, two devices: entries for A and B queued interleaved
    /// behind an A write held at A's gate. Each device gets only its own
    /// segments, in queue order; A's consecutive entries still coalesce;
    /// and a hook's retry after a transient fault on B writes to B.
    #[test]
    fn entries_for_two_devices_on_one_shard_each_reach_their_own() {
        let (a, log_a) = recording(false);
        let calls_b = Arc::new(crate::sync::Mutex::new(Vec::<Vec<u64>>::new()));
        let log_b = calls_b.clone();
        let b = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let Call::Write { segments, .. } = call else { return Ok(()) };
            let mut log = log_b.lock();
            log.push(segments.iter().map(|v| v.offset).collect());
            match log.len() {
                1 => Err(H5Error::Transient("B's first call".into())),
                _ => Ok(()),
            }
        });
        let b = Arc::new(b);
        let own = Arc::new(CountingBackend::new(Arc::new(MemBackend::new())));
        let ring = Ring::new(own.clone(), RingConfig::default());
        let plain = |device: &Arc<CountingBackend>, addr: u64, byte: u8| {
            let op = RingOp::write_raw(addr, vec![byte; 8]);
            ring.submit_with(0, device.clone(), op, Box::new(|first, _, _| first))
        };
        let mut promises = vec![plain(&a, 0, 1)];
        while a.counts().write_batches == 0 {
            thread::yield_now();
        }
        promises.extend([plain(&a, 64, 2), plain(&a, 128, 3)]);
        let op = RingOp::write_raw(1000, vec![4u8; 8]);
        promises.push(ring.submit_with(0, b.clone(), op, Box::new(|first, _, again| {
            assert!(first.as_ref().is_err_and(H5Error::is_retryable), "{first:?}");
            again()
        })));
        promises.extend([plain(&a, 192, 5), plain(&a, 256, 6)]);
        promises.extend([plain(&b, 2000, 7), plain(&b, 3000, 8)]);
        log_a.gate.store(true, Ordering::SeqCst);
        for p in &promises {
            assert!(p.wait_cloned().result.is_ok(), "every entry landed");
        }
        assert_eq!(*log_a.calls.lock(), [vec![0], vec![64, 128], vec![192, 256]]);
        let b_calls = [vec![1000], vec![1000], vec![2000, 3000]];
        assert_eq!(*calls_b.lock(), b_calls, "B's retry wrote B");
        assert!(a.counts().write_batches < 5, "A's 5 entries took {:?}", a.counts());
        let c = own.counts();
        assert_eq!(c.writes + c.write_batches, 0, "the ring's own backend was written");
        for (device, addr, byte) in [(&a, 128, 3u8), (&b, 1000, 4), (&a, 256, 6), (&b, 3000, 8)] {
            let mut back = [0u8; 8];
            device.read_at(addr, &mut back).unwrap();
            assert_eq!(back, [byte; 8], "the bytes at {addr}");
        }
        assert_eq!((a.len(), b.len()), (264, 3008), "a device holds the other's bytes");
    }

    /// A pass that fails names no op: each of its ops is written again
    /// alone, and its hook is told it is a replay. A lone op's is not.
    #[test]
    fn a_failed_pass_is_replayed_op_by_op_and_each_hook_is_told() {
        let gate = Arc::new(AtomicBool::new(false));
        let calls = Arc::new(AtomicUsize::new(0));
        let (open, n) = (gate.clone(), calls.clone());
        let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let Call::Write { .. } = call else { return Ok(()) };
            while !open.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            match n.fetch_add(1, Ordering::SeqCst) {
                1 => Err(H5Error::Transient("the pass".into())),
                _ => Ok(()),
            }
        });
        let device = Arc::new(device);
        let ring = Ring::new(device.clone(), RingConfig::default());
        let told = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let hooked = |offset: u64| {
            let told = told.clone();
            let op = RingOp::write_raw(offset, vec![1u8; 8]);
            ring.submit_with(0, device.clone(), op, Box::new(move |first, replayed, _| {
                told.lock().push((offset, replayed));
                first
            }))
        };
        let a = hooked(0);
        while device.counts().write_batches == 0 {
            thread::yield_now();
        }
        let (b, c) = (hooked(64), hooked(128));
        gate.store(true, Ordering::SeqCst);
        for p in [a, b, c] {
            assert!(p.wait_cloned().result.is_ok(), "every op landed");
        }
        assert_eq!(*told.lock(), [(0, false), (64, true), (128, true)]);
        assert_eq!(calls.load(Ordering::SeqCst), 4, "A, the failed pass, then B and C alone");
    }

    /// A panicking hook, or a panicking job, must not kill the reaper:
    /// its op completes with the panic as its error, and the op behind it
    /// still lands.
    #[test]
    fn a_panicking_hook_is_the_ops_error_not_a_dead_reaper() {
        type Panicking = fn(&Ring) -> Promise<Completion>;
        let inputs: [(&str, Panicking); 2] = [
            ("hook", |ring| {
                let op = RingOp::write_raw(0, vec![1u8; 8]);
                ring.submit_with(0, Arc::new(MemBackend::new()), op, Box::new(|_, _, _| {
                    panic!("hook panics (expected by the test)")
                }))
            }),
            ("job", |ring| ring.submit_job(0, || panic!("job panics (expected by the test)"))),
        ];
        for (what, submit_panicking) in inputs {
            let ring = Ring::new(Arc::new(MemBackend::new()), RingConfig::default());
            let a = submit_panicking(&ring);
            let b = submit(&ring, 0, RingOp::write_raw(64, vec![2u8; 8]));
            assert!(
                fulfilled_within(&[a.clone(), b.clone()], Duration::from_secs(3)),
                "a panicking {what} left promises unfulfilled: the reaper is dead"
            );
            match a.wait_cloned().into_result() {
                Err(H5Error::Async(m)) => assert!(m.contains(&format!("{what} panics (expected")), "{m}"),
                other => panic!("expected the {what}'s panic as the op's error, got {other:?}"),
            }
            assert!(b.wait_cloned().result.is_ok(), "the write behind the {what}");
        }
    }

    /// A device write that panics on the reaper — a lone op's, a pass's,
    /// or an op's replay — must not kill it: the op completes with an
    /// [`H5Error::Storage`], and the writes beside it still land.
    #[test]
    fn a_panicking_device_write_is_the_ops_error_not_a_dead_reaper() {
        let gate = Arc::new(AtomicBool::new(false));
        let open = gate.clone();
        let device = CountingBackend::new(Arc::new(MemBackend::new())).with_hook(move |call| {
            let Call::Write { segments, .. } = call else { return Ok(()) };
            while !open.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            if segments.iter().any(|seg| seg.offset == 64) {
                panic!("device write panics (expected by the test)");
            }
            Ok(())
        });
        let device = Arc::new(device);
        let ring = Ring::new(device.clone(), RingConfig::default());
        // A lone write that panics, then a pass of three whose replay
        // panics on the middle op.
        let lone = submit(&ring, 0, RingOp::write_raw(64, vec![1u8; 8]));
        gate.store(true, Ordering::SeqCst);
        assert!(
            fulfilled_within(std::slice::from_ref(&lone), Duration::from_secs(5)),
            "a panicking device write left its promise unfulfilled: the reaper is dead"
        );
        gate.store(false, Ordering::SeqCst);
        let held = submit(&ring, 0, RingOp::write_raw(0, vec![2u8; 8]));
        while device.counts().write_batches < 2 {
            thread::yield_now();
        }
        let pass = [0u64, 64, 128].map(|addr| submit(&ring, 0, RingOp::write_raw(addr, vec![3u8; 8])));
        gate.store(true, Ordering::SeqCst);
        let mut all = pass.to_vec();
        all.extend([lone, held]);
        assert!(
            fulfilled_within(&all, Duration::from_secs(5)),
            "a panicking device write left promises unfulfilled: the reaper is dead"
        );
        for (what, p) in [("the lone write", &all[3]), ("the pass's middle write", &all[1])] {
            match p.wait_cloned().into_result() {
                Err(H5Error::Storage(m)) => assert!(m.contains("device write panics (expected"), "{m}"),
                other => panic!("{what}: expected the panic as a Storage error, got {other:?}"),
            }
        }
        for p in [&all[0], &all[2], &all[4]] {
            assert!(p.wait_cloned().result.is_ok(), "a write beside the panicking one");
        }
        ring.drain();
        let mut back = [0u8; 8];
        device.read_at(128, &mut back).unwrap();
        assert_eq!(back, [3u8; 8]);
    }

    /// A job ends its reaper pass: queued between two writes to the same
    /// bytes, behind a write held in the device, it sees the first
    /// write's bytes and not the second's, though all three were queued
    /// when the reaper took its next pass.
    #[test]
    fn a_job_between_two_writes_sees_the_first_and_not_the_second() {
        let (backend, log) = recording(false);
        let ring = Ring::new(backend.clone(), RingConfig::default());
        let held = submit(&ring, 0, RingOp::write_raw(64, vec![9u8; 8]));
        while backend.counts().write_batches == 0 {
            thread::yield_now();
        }
        let first = submit(&ring, 0, RingOp::write_raw(0, vec![1u8; 8]));
        let seen = Arc::new(crate::sync::Mutex::new(None));
        let (device, saw) = (backend.clone(), seen.clone());
        let job = ring.submit_job(0, move || {
            let mut back = [0u8; 8];
            device.read_at(0, &mut back)?;
            *saw.lock() = Some(back);
            Ok(())
        });
        let second = submit(&ring, 0, RingOp::write_raw(0, vec![2u8; 8]));
        log.gate.store(true, Ordering::SeqCst);
        for p in [held, first, job, second] {
            assert!(p.wait_cloned().result.is_ok());
        }
        assert_eq!(*seen.lock(), Some([1u8; 8]), "the job saw the bytes of the write after it");
        let mut back = [0u8; 8];
        backend.read_at(0, &mut back).unwrap();
        assert_eq!(back, [2u8; 8], "the second write landed after the job");
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
        for i in [0, 2] {
            match promises[i].wait_cloned().result {
                Err(error) => {
                    assert!(matches!(error, H5Error::InvalidSelection(_)), "got {error}");
                    assert!(!error.is_retryable());
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
