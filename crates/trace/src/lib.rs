#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]
//! # apio-trace — structured tracing + metrics for the I/O pipeline
//!
//! The paper's Fig. 2 feedback loop consumes a *history of observed
//! transfers*; aggregate counters cannot say where an epoch's time went
//! (snapshot → stage → retry → backend batch → ack). This crate provides
//! that decomposition as a zero-dependency library the whole workspace
//! shares:
//!
//! - [`Tracer`] — cheap RAII spans ([`SpanGuard`]) and instant events over
//!   a pluggable [`TraceClock`] ([`WallClock`] by default,
//!   [`VirtualClock`] for deterministic tests),
//!   buffered into lock-sharded in-memory sinks.
//! - [`Event`] — typed payloads for every stage of the pipeline: VOL
//!   calls, snapshot copies, WAL appends/replays, retry attempts, breaker
//!   transitions, I/O plans, backend batches, degraded writes, epoch
//!   marks.
//! - [`Metrics`] — a registry of monotonic counters and fixed-bucket log2
//!   histograms (p50/p95/p99), all atomics, allocation-free on the hot
//!   path. Span durations feed per-name histograms automatically.
//! - [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and compact JSONL.
//! - [`TraceSink`] — an in-memory snapshot with structural queries
//!   (parent chains, event filters) for trace-assertion tests.
//! - [`flight`] — the always-on flight recorder ([`Tracer::flight`]):
//!   fixed-capacity ring shards retaining the last N records, dumpable on
//!   demand and from a panic hook through the exporters (DESIGN.md §11).
//! - [`series`] — streaming per-epoch telemetry: windowed I/O-rate /
//!   retry / breaker / queue-depth series with EWMA smoothing and a
//!   Page–Hinkley drift detector on the aggregate I/O rate — the runtime
//!   half of the paper's Fig. 2 feedback loop.
//!
//! A **disabled** tracer ([`Tracer::disabled`], the default everywhere it
//! is embedded) reduces every call to one branch on an `Option` — the
//! overhead budget is "unmeasurable against a microsecond I/O op"
//! (measured in `benches/micro.rs`; see DESIGN.md §10).
//!
//! Span creation goes through the guard API: [`Tracer::span`] /
//! [`Tracer::span_with`] return a [`SpanGuard`] that closes the span on
//! drop, so a panic or early return can never leave a span open. The
//! manual open/close pair underneath is private to this crate.

pub mod clock;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod series;

pub use clock::{TraceClock, VirtualClock, WallClock};
pub use flight::{install_panic_dump, FlightDump};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Metrics};
pub use series::{DriftAlarm, DriftDirection, EpochPoint, SeriesAggregator, SeriesConfig};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Typed payload attached to a span or instant event — one variant per
/// stage of the async-I/O pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A VOL entry point (`op` is `"write"`, `"read"`, `"execute"`, …).
    VolCall {
        /// Operation name.
        op: &'static str,
        /// Target dataset id.
        dataset: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A transactional snapshot copy (DRAM `to_vec` or device staging).
    Snapshot {
        /// Snapshot bytes.
        bytes: u64,
        /// Whether the snapshot went to a staging device (WAL) rather
        /// than DRAM.
        staged: bool,
    },
    /// A write-ahead-log append.
    WalAppend {
        /// Log sequence number of the record.
        seq: u64,
        /// Payload bytes appended.
        bytes: u64,
    },
    /// A WAL record replayed into the container during recovery.
    WalReplay {
        /// Log sequence number (scan order) of the replayed record.
        seq: u64,
        /// Payload bytes replayed.
        bytes: u64,
    },
    /// Torn-tail truncation during a WAL scan: bytes beyond `offset` were
    /// discarded as dead space.
    WalTruncated {
        /// End of the last valid record; the new append cursor.
        offset: u64,
    },
    /// One retry attempt inside a backoff loop, just before its sleep.
    RetryAttempt {
        /// 1-based attempt index that just failed.
        attempt: u32,
        /// Backoff sleep chosen before the next attempt.
        delay_nanos: u64,
    },
    /// A circuit-breaker state change.
    BreakerTransition {
        /// State left (`"closed"`, `"open"`, `"half-open"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// An I/O plan was built for a selection.
    PlanBuilt {
        /// Target dataset id.
        dataset: u64,
        /// Coalesced segments in the plan: the pieces the device is
        /// asked for — exact where no span sieves, an upper bound where
        /// one does (a sieved span moves its pieces as one; see
        /// [`Event::Sieve`] for what was folded).
        segments: u64,
        /// Vectored batches the segments need: exact where no span
        /// sieves, an upper bound where one does. Exact would mean
        /// computing spans while planning, which the ring's issue path
        /// cannot afford.
        batches: u64,
    },
    /// One vectored batch issued to a storage backend.
    BackendBatch {
        /// Segments in the batch.
        segments: u64,
        /// Total payload bytes.
        bytes: u64,
    },
    /// Sieved spans of one issue window: neighbouring small segments
    /// moved as whole spans through a sieve buffer (DESIGN.md §9).
    Sieve {
        /// Plan segments folded into the window's sieved spans.
        segments: u64,
        /// Bytes the sieved spans cover (what the device moves).
        span_bytes: u64,
        /// Hole bytes among them (moved, but not asked for).
        fill_bytes: u64,
    },
    /// The checksum read-back of one container flush.
    FlushHash {
        /// Dirty extents read back and hashed.
        jobs: u64,
        /// Bytes they hold.
        bytes: u64,
        /// Threads the read-back ran on, the flushing one included.
        lanes: u64,
        /// Whether the data barrier ran beside the read-back (at or
        /// above the fan-out floor) instead of after the metadata append.
        overlapped: bool,
    },
    /// A write served synchronously because the breaker degraded the
    /// async path.
    Degrade {
        /// Target dataset id.
        dataset: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// One application epoch (compute + I/O phase), the paper's unit of
    /// analysis.
    EpochMark {
        /// 0-based epoch index.
        epoch: u64,
        /// Compute-phase nanoseconds.
        comp_nanos: u64,
        /// Visible (blocking) I/O nanoseconds.
        io_nanos: u64,
        /// Bytes moved this epoch.
        bytes: u64,
    },
    /// Causal edge: the application thread handed a snapshot to the
    /// background I/O stream (async) or entered a blocking collective
    /// write (sync). The matching [`Event::Settle`] closes the edge.
    WriteHandoff {
        /// 0-based epoch index of the write.
        epoch: u64,
        /// Payload bytes handed off.
        bytes: u64,
    },
    /// Causal edge: background settlement — the data handed off at the
    /// matching [`Event::WriteHandoff`] became durable (requests settled,
    /// ring drained, or the simulated background stream went idle).
    Settle {
        /// 0-based epoch index settled (0 when unknown, e.g. connector
        /// drains that span epochs).
        epoch: u64,
        /// Requests (or simulated collectives) settled by this edge.
        requests: u64,
    },
}

/// Whether a record is a duration span or a point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span with a duration.
    Span,
    /// An instant event.
    Instant,
}

/// One finished trace record (a closed span or an instant event).
#[derive(Clone, Debug)]
pub struct Record {
    /// Global emission order (spans take theirs when they *close*).
    pub seq: u64,
    /// Span or instant.
    pub kind: RecordKind,
    /// Record name (span taxonomy — see DESIGN.md §10).
    pub name: &'static str,
    /// Span id (0 for instants).
    pub id: u64,
    /// Id of the enclosing span on the emitting thread (0 = root).
    pub parent: u64,
    /// Trace thread id (stable small integers per tracer).
    pub tid: u64,
    /// Start timestamp, nanoseconds on the tracer's clock.
    pub start_nanos: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_nanos: u64,
    /// Typed payload, if any.
    pub event: Option<Event>,
}

/// Record-buffer shards; threads map to shards by trace tid.
const SHARDS: usize = 8;

struct Inner {
    /// Distinguishes tracers on the thread-local span stack.
    tracer_id: u64,
    clock: Arc<dyn TraceClock>,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    next_tid: AtomicU64,
    shards: Vec<Mutex<flight::Shard>>,
    /// Per-shard ring capacity; `None` = unbounded (full tracing).
    flight_cap: Option<usize>,
    metrics: Metrics,
}

static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread stack of open spans: (tracer_id, span_id).
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread cache of assigned trace tids: (tracer_id, tid).
    static TIDS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread cache of span-duration histogram handles, keyed by
    /// (tracer_id, name address). Span names are `&'static str`, so the
    /// pointer identifies the name without a byte compare, and the handle
    /// shares the registry's atomics — this turns the per-span-close
    /// registry lookup (RwLock + string scan) into a short linear scan,
    /// which is what keeps always-on flight recording inside its ≤ 2%
    /// budget. Bounded FIFO so pathological name churn can't grow it.
    static HISTO_CACHE: RefCell<Vec<(u64, usize, metrics::Histogram)>> =
        const { RefCell::new(Vec::new()) };
}

/// Read a possibly poisoned mutex; shard pushes are single whole-record
/// writes so a panicking holder cannot leave them inconsistent. The panic
/// hook relies on this: a dump taken mid-panic still sees every record.
fn lock_shard(m: &Mutex<flight::Shard>) -> std::sync::MutexGuard<'_, flight::Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Inner {
    fn tid(&self) -> u64 {
        TIDS.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(&(_, tid)) = t.iter().find(|(tr, _)| *tr == self.tracer_id) {
                return tid;
            }
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            t.push((self.tracer_id, tid));
            tid
        })
    }

    fn parent(&self) -> u64 {
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(tr, _)| *tr == self.tracer_id)
                .map(|&(_, id)| id)
                .unwrap_or(0)
        })
    }

    fn push_record(&self, rec: Record) {
        let shard = (rec.tid as usize) % SHARDS;
        lock_shard(&self.shards[shard]).push(rec);
    }
}

/// An open span returned by [`Tracer::begin_span`]; closed by
/// [`Tracer::end_span`]. Carries everything the closing side needs, so no
/// open-span table is consulted.
#[must_use = "an unclosed span token leaks an entry on the span stack"]
struct SpanToken {
    id: u64,
    parent: u64,
    tid: u64,
    name: &'static str,
    start_nanos: u64,
    event: Option<Event>,
}

/// RAII span: created by [`Tracer::span`] / [`Tracer::span_with`], closes
/// the span (recording its duration) when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: Option<(Tracer, SpanToken)>,
}

impl SpanGuard {
    /// Attach (or replace) the span's event payload before it closes.
    pub fn set_event(&mut self, event: Event) {
        if let Some((_, token)) = self.open.as_mut() {
            token.event = Some(event);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, token)) = self.open.take() {
            tracer.end_span(token);
        }
    }
}

/// The tracing front end. Cheap to clone (an `Option<Arc>`); a
/// [`disabled`](Tracer::disabled) tracer reduces every call to one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing (the default everywhere a tracer is
    /// embedded).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer on wall-clock time.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled tracer reading timestamps from `clock`.
    pub fn with_clock(clock: Arc<dyn TraceClock>) -> Self {
        Self::build(clock, None)
    }

    /// An always-on flight recorder on wall-clock time: each record shard
    /// becomes a fixed ring retaining its last `capacity_per_shard`
    /// records (see [`flight`]). Span, event, and metrics behaviour is
    /// identical to [`Tracer::new`]; only retention differs.
    pub fn flight(capacity_per_shard: usize) -> Self {
        Self::build(Arc::new(WallClock::new()), Some(capacity_per_shard))
    }

    /// A flight recorder reading timestamps from `clock`.
    pub fn flight_with_clock(capacity_per_shard: usize, clock: Arc<dyn TraceClock>) -> Self {
        Self::build(clock, Some(capacity_per_shard))
    }

    fn build(clock: Arc<dyn TraceClock>, flight_cap: Option<usize>) -> Self {
        let cap = flight_cap.map(|c| c.max(1));
        Tracer {
            inner: Some(Arc::new(Inner {
                tracer_id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                clock,
                next_span: AtomicU64::new(1),
                next_seq: AtomicU64::new(0),
                next_tid: AtomicU64::new(1),
                shards: (0..SHARDS)
                    .map(|_| {
                        Mutex::new(match cap {
                            Some(c) => flight::Shard::ring(c),
                            None => flight::Shard::unbounded(),
                        })
                    })
                    .collect(),
                flight_cap: cap,
                metrics: Metrics::new(),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this tracer is a fixed-capacity flight recorder.
    pub fn is_flight(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.flight_cap.is_some())
    }

    /// The tracer's metrics registry (`None` when disabled). Span
    /// durations are recorded into a histogram per span name
    /// automatically.
    pub fn metrics(&self) -> Option<Metrics> {
        self.inner.as_ref().map(|i| i.metrics.clone())
    }

    /// Open a span; it closes (and records) when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_inner(name, None)
    }

    /// Open a span carrying an event payload.
    pub fn span_with(&self, name: &'static str, event: Event) -> SpanGuard {
        self.span_inner(name, Some(event))
    }

    fn span_inner(&self, name: &'static str, event: Option<Event>) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard { open: None };
        }
        SpanGuard {
            open: Some((self.clone(), self.begin_span(name, event))),
        }
    }

    /// Manually open a span; only [`SpanGuard`] calls this, so every exit
    /// path closes what it opens.
    fn begin_span(&self, name: &'static str, event: Option<Event>) -> SpanToken {
        let Some(inner) = self.inner.as_ref() else {
            return SpanToken {
                id: 0,
                parent: 0,
                tid: 0,
                name,
                start_nanos: 0,
                event,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = inner.parent();
        SPAN_STACK.with(|s| s.borrow_mut().push((inner.tracer_id, id)));
        SpanToken {
            id,
            parent,
            tid: inner.tid(),
            name,
            start_nanos: inner.clock.now_nanos(),
            event,
        }
    }

    /// Close a span opened with [`begin_span`](Self::begin_span).
    fn end_span(&self, token: SpanToken) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if token.id == 0 {
            return; // token from a disabled tracer
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s
                .iter()
                .rposition(|&(tr, id)| tr == inner.tracer_id && id == token.id)
            {
                s.remove(pos);
            }
        });
        let end = inner.clock.now_nanos();
        let dur = end.saturating_sub(token.start_nanos);
        let name_key = token.name.as_ptr() as usize;
        HISTO_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            match c
                .iter()
                .find(|(tr, n, _)| *tr == inner.tracer_id && *n == name_key)
            {
                Some((_, _, h)) => h.record(dur),
                None => {
                    let h = inner.metrics.histogram(token.name);
                    h.record(dur);
                    if c.len() >= 64 {
                        c.remove(0);
                    }
                    c.push((inner.tracer_id, name_key, h));
                }
            }
        });
        inner.push_record(Record {
            seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: RecordKind::Span,
            name: token.name,
            id: token.id,
            parent: token.parent,
            tid: token.tid,
            start_nanos: token.start_nanos,
            dur_nanos: dur,
            event: token.event,
        });
    }

    /// Emit an instant event, parented under the innermost open span on
    /// this thread.
    pub fn instant(&self, name: &'static str, event: Event) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let now = inner.clock.now_nanos();
        inner.push_record(Record {
            seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
            kind: RecordKind::Instant,
            name,
            id: 0,
            parent: inner.parent(),
            tid: inner.tid(),
            start_nanos: now,
            dur_nanos: 0,
            event: Some(event),
        });
    }

    /// Snapshot every retained record, in emission (`seq`) order. On a
    /// flight recorder this is the ring contents — the last N per shard.
    pub fn sink(&self) -> TraceSink {
        TraceSink {
            records: self.collect_records(),
        }
    }

    /// Dump the retained records (ring contents on a flight recorder,
    /// everything on a full tracer) for export — see [`FlightDump`].
    pub fn flight_dump(&self) -> FlightDump {
        let (capacity, dropped) = match self.inner.as_ref() {
            Some(inner) => (
                inner.flight_cap.map(|c| c * SHARDS).unwrap_or(0),
                inner
                    .shards
                    .iter()
                    .map(|s| lock_shard(s).dropped())
                    .sum(),
            ),
            None => (0, 0),
        };
        FlightDump::new(self.sink(), capacity, dropped)
    }

    fn collect_records(&self) -> Vec<Record> {
        let mut records = Vec::new();
        if let Some(inner) = self.inner.as_ref() {
            for shard in &inner.shards {
                records.extend(lock_shard(shard).records().iter().cloned());
            }
        }
        records.sort_by_key(|r| r.seq);
        records
    }
}

/// An in-memory snapshot of a trace with structural queries — the test
/// substrate for trace-assertion suites.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    records: Vec<Record>,
}

impl TraceSink {
    /// All records in emission order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// All closed spans named `name`, in emission order.
    pub fn spans(&self, name: &str) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.kind == RecordKind::Span && r.name == name)
            .collect()
    }

    /// Records whose event matches `pred`, in emission order.
    pub fn events_where(&self, pred: impl Fn(&Event) -> bool) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| r.event.as_ref().is_some_and(&pred))
            .collect()
    }

    /// The span record with id `id`.
    pub fn by_id(&self, id: u64) -> Option<&Record> {
        self.records
            .iter()
            .find(|r| r.kind == RecordKind::Span && r.id == id)
    }

    /// Whether `rec` sits (transitively) inside a span named `name` on
    /// its thread.
    pub fn within_span_named(&self, rec: &Record, name: &str) -> bool {
        let mut parent = rec.parent;
        let mut hops = 0;
        while parent != 0 && hops < 64 {
            match self.by_id(parent) {
                Some(p) if p.name == name => return true,
                Some(p) => parent = p.parent,
                None => return false,
            }
            hops += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virt() -> (Tracer, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new(0));
        (Tracer::with_clock(clock.clone()), clock)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let _g = t.span("noop");
            t.instant(
                "e",
                Event::Snapshot {
                    bytes: 1,
                    staged: false,
                },
            );
        }
        assert!(t.sink().records().is_empty());
        assert!(t.metrics().is_none());
    }

    #[test]
    fn guard_records_duration_and_nesting() {
        let (t, clock) = virt();
        {
            let _outer = t.span("outer");
            clock.advance(100);
            {
                let _inner = t.span_with(
                    "inner",
                    Event::Snapshot {
                        bytes: 42,
                        staged: true,
                    },
                );
                clock.advance(50);
                t.instant(
                    "mark",
                    Event::RetryAttempt {
                        attempt: 1,
                        delay_nanos: 5,
                    },
                );
            }
            clock.advance(25);
        }
        let sink = t.sink();
        let outer = sink.spans("outer")[0];
        let inner = sink.spans("inner")[0];
        assert_eq!(outer.start_nanos, 0);
        assert_eq!(outer.dur_nanos, 175);
        assert_eq!(inner.start_nanos, 100);
        assert_eq!(inner.dur_nanos, 50);
        assert_eq!(inner.parent, outer.id);
        let mark = &sink.events_where(|e| matches!(e, Event::RetryAttempt { .. }))[0];
        assert_eq!(mark.parent, inner.id);
        assert!(sink.within_span_named(mark, "outer"));
        assert!(sink.within_span_named(mark, "inner"));
        assert!(!sink.within_span_named(mark, "absent"));
        // The inner span closed first, so it carries the earlier seq.
        assert!(inner.seq < outer.seq);
    }

    #[test]
    fn span_durations_feed_metrics() {
        let (t, clock) = virt();
        for _ in 0..10 {
            let _g = t.span("op");
            clock.advance(1_000);
        }
        let m = t.metrics().unwrap();
        let h = m.histogram("op");
        assert_eq!(h.count(), 10);
        assert!(h.p50() >= 1_000 && h.p50() < 2_048);
    }

    #[test]
    fn spans_cross_threads_without_mixing_stacks() {
        let (t, clock) = virt();
        clock.advance(10);
        let app = t.span("app");
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _bg = t2.span("background");
            t2.instant(
                "retry",
                Event::RetryAttempt {
                    attempt: 1,
                    delay_nanos: 0,
                },
            );
        })
        .join()
        .unwrap();
        drop(app);
        let sink = t.sink();
        let bg = sink.spans("background")[0];
        assert_eq!(bg.parent, 0, "worker thread has its own stack");
        let retry = sink.events_where(|e| matches!(e, Event::RetryAttempt { .. }))[0];
        assert!(sink.within_span_named(retry, "background"));
        assert!(!sink.within_span_named(retry, "app"));
        assert_ne!(bg.tid, sink.spans("app")[0].tid);
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_parent() {
        let (a, _) = virt();
        let (b, _) = virt();
        let _ga = a.span("a_outer");
        {
            let _gb = b.span("b_span");
            b.instant(
                "b_mark",
                Event::Degrade {
                    dataset: 1,
                    bytes: 2,
                },
            );
        }
        let sb = b.sink();
        let mark = sb.events_where(|e| matches!(e, Event::Degrade { .. }))[0];
        assert!(sb.within_span_named(mark, "b_span"));
        assert!(!sb.within_span_named(mark, "a_outer"));
        assert_eq!(sb.spans("b_span")[0].parent, 0);
    }

    #[test]
    fn manual_begin_end_matches_guard_semantics() {
        let (t, clock) = virt();
        let token = t.begin_span("manual", None);
        clock.advance(30);
        t.instant(
            "in_manual",
            Event::WalTruncated { offset: 9 },
        );
        t.end_span(token);
        let sink = t.sink();
        assert_eq!(sink.spans("manual")[0].dur_nanos, 30);
        let e = sink.events_where(|e| matches!(e, Event::WalTruncated { .. }))[0];
        assert!(sink.within_span_named(e, "manual"));
    }
}
