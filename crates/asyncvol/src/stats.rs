//! Instrumentation: the measurements the paper's model consumes.
//!
//! The connector's counters live in the `apio_trace::Metrics` registry —
//! one counter substrate for the whole pipeline. [`StatsCells`] is a
//! typed view over named registry handles (`vol.writes`, `vol.retries`,
//! …): the connector bumps its handles lock-free, and any consumer of
//! the tracer's registry (the operator report) sees the same numbers
//! under the same names with no duplicated atomics. Times are accumulated
//! as integer nanoseconds so the counters stay atomic.

use apio_trace::{Counter, Event, Metrics, Tracer};

/// Registry names for every connector counter, in snapshot order.
/// Reports iterate the registry, so the names are the public contract.
const COUNTER_NAMES: [&str; 18] = [
    "vol.writes",
    "vol.reads_blocking",
    "vol.prefetches",
    "vol.prefetch_hits",
    "vol.snapshot_bytes",
    "vol.snapshot_nanos",
    "vol.write_bytes",
    "vol.write_io_nanos",
    "vol.read_bytes",
    "vol.read_io_nanos",
    "vol.retries",
    "vol.retry_successes",
    "vol.degraded_writes",
    "vol.breaker_opens",
    "vol.breaker_closes",
    "vol.probes",
    "vol.queue_submitted",
    "vol.queue_completed",
];

/// Typed handles into the metrics registry, one per counter name.
#[derive(Clone)]
struct Handles {
    writes: Counter,
    reads_blocking: Counter,
    prefetches: Counter,
    prefetch_hits: Counter,
    snapshot_bytes: Counter,
    snapshot_nanos: Counter,
    write_bytes: Counter,
    write_io_nanos: Counter,
    read_bytes: Counter,
    read_io_nanos: Counter,
    retries: Counter,
    retry_successes: Counter,
    degraded_writes: Counter,
    breaker_opens: Counter,
    breaker_closes: Counter,
    probes: Counter,
    queue_submitted: Counter,
    queue_completed: Counter,
}

impl Handles {
    fn register(metrics: &Metrics) -> Self {
        let [writes, reads_blocking, prefetches, prefetch_hits, snapshot_bytes, snapshot_nanos, write_bytes, write_io_nanos, read_bytes, read_io_nanos, retries, retry_successes, degraded_writes, breaker_opens, breaker_closes, probes, queue_submitted, queue_completed] =
            COUNTER_NAMES.map(|name| metrics.counter(name));
        Handles {
            writes,
            reads_blocking,
            prefetches,
            prefetch_hits,
            snapshot_bytes,
            snapshot_nanos,
            write_bytes,
            write_io_nanos,
            read_bytes,
            read_io_nanos,
            retries,
            retry_successes,
            degraded_writes,
            breaker_opens,
            breaker_closes,
            probes,
            queue_submitted,
            queue_completed,
        }
    }
}

/// Shared view over the connector's registry counters, plus the
/// connector's tracer. Bundling the tracer here lets deep call sites
/// (the retry loop, the breaker state machine) emit trace events without
/// threading an extra parameter through every signature — both already
/// receive the stats handle. The counters themselves live in the
/// tracer's [`Metrics`] registry (or a private registry when the tracer
/// is disabled), so reports reading the registry and `AsyncVolStats`
/// snapshots are two views of the same atomics.
#[derive(Clone)]
pub(crate) struct StatsCells {
    handles: Handles,
    metrics: Metrics,
    tracer: Tracer,
}

impl Default for StatsCells {
    fn default() -> Self {
        StatsCells::traced(Tracer::disabled())
    }
}

fn to_nanos(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

impl StatsCells {
    /// Counters with a disabled tracer (unit tests; the connector builds
    /// its cells via [`traced`](Self::traced)).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        StatsCells::default()
    }

    /// Registry-backed counters bundled with an (possibly disabled)
    /// tracer. A disabled tracer has no registry, so the cells carry a
    /// private one — the counters work either way.
    pub(crate) fn traced(tracer: Tracer) -> Self {
        let metrics = tracer.metrics().unwrap_or_default();
        StatsCells {
            handles: Handles::register(&metrics),
            metrics,
            tracer,
        }
    }

    /// The connector's tracer (disabled unless installed at build time).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The registry the counters live in (the tracer's, when enabled).
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// One retry attempt: bump the counter and trace the attempt that
    /// just failed together with the backoff chosen before the next one.
    pub(crate) fn record_retry_attempt(&self, attempt: u32, delay_nanos: u64) {
        self.record_retry();
        self.tracer.instant(
            "retry",
            Event::RetryAttempt {
                attempt,
                delay_nanos,
            },
        );
    }

    /// Trace a circuit-breaker state change (counters are bumped by the
    /// dedicated `record_breaker_*` methods at the same call sites).
    pub(crate) fn trace_breaker(&self, from: &'static str, to: &'static str) {
        self.tracer
            .instant("breaker", Event::BreakerTransition { from, to });
    }

    pub(crate) fn record_snapshot(&self, bytes: u64, secs: f64) {
        self.handles.snapshot_bytes.add(bytes);
        self.handles.snapshot_nanos.add(to_nanos(secs));
    }

    pub(crate) fn record_write(&self, bytes: u64, io_secs: f64) {
        self.handles.writes.inc();
        self.handles.write_bytes.add(bytes);
        self.handles.write_io_nanos.add(to_nanos(io_secs));
    }

    pub(crate) fn record_read(&self, bytes: u64, io_secs: f64, prefetch: bool) {
        if prefetch {
            self.handles.prefetches.inc();
        } else {
            self.handles.reads_blocking.inc();
        }
        self.handles.read_bytes.add(bytes);
        self.handles.read_io_nanos.add(to_nanos(io_secs));
    }

    pub(crate) fn record_prefetch_hit(&self) {
        self.handles.prefetch_hits.inc();
    }

    /// One retry of a transient-failed storage operation.
    pub(crate) fn record_retry(&self) {
        self.handles.retries.inc();
    }

    /// An operation that ultimately succeeded after at least one retry.
    pub(crate) fn record_retry_success(&self) {
        self.handles.retry_successes.inc();
    }

    /// A WAL `mark_applied` flag write failed after the data itself
    /// landed. Replay is idempotent, so correctness holds — but the
    /// record will replay again on recovery, and a recurring failure
    /// means the staging device is degrading; operators watch this via
    /// the dynamically-registered `vol.wal_mark_failures` counter.
    pub(crate) fn record_wal_mark_failure(&self) {
        self.metrics.counter("vol.wal_mark_failures").inc();
    }

    /// A synchronous passthrough write completed while degraded. Bytes
    /// and time also land in the write totals so bandwidth math covers
    /// the degraded regime.
    pub(crate) fn record_degraded_write(&self, bytes: u64, io_secs: f64) {
        self.handles.degraded_writes.inc();
        self.handles.write_bytes.add(bytes);
        self.handles.write_io_nanos.add(to_nanos(io_secs));
    }

    /// The circuit breaker tripped (async → degraded transition).
    pub(crate) fn record_breaker_open(&self) {
        self.handles.breaker_opens.inc();
    }

    /// The circuit breaker closed (degraded → async transition).
    pub(crate) fn record_breaker_close(&self) {
        self.handles.breaker_closes.inc();
    }

    /// A half-open probe write was dispatched asynchronously.
    pub(crate) fn record_probe(&self) {
        self.handles.probes.inc();
    }

    /// A background task (write or prefetch) entered the staged queue.
    pub(crate) fn record_queue_submitted(&self) {
        self.handles.queue_submitted.inc();
    }

    /// A background task left the staged queue (completed its I/O).
    pub(crate) fn record_queue_completed(&self) {
        self.handles.queue_completed.inc();
    }

    pub(crate) fn snapshot(&self) -> AsyncVolStats {
        let h = &self.handles;
        let submitted = h.queue_submitted.get();
        let completed = h.queue_completed.get();
        AsyncVolStats {
            writes: h.writes.get(),
            blocking_reads: h.reads_blocking.get(),
            prefetches: h.prefetches.get(),
            prefetch_hits: h.prefetch_hits.get(),
            snapshot_bytes: h.snapshot_bytes.get(),
            snapshot_secs: h.snapshot_nanos.get() as f64 / 1e9,
            write_bytes: h.write_bytes.get(),
            write_io_secs: h.write_io_nanos.get() as f64 / 1e9,
            read_bytes: h.read_bytes.get(),
            read_io_secs: h.read_io_nanos.get() as f64 / 1e9,
            retries: h.retries.get(),
            retry_successes: h.retry_successes.get(),
            degraded_writes: h.degraded_writes.get(),
            breaker_opens: h.breaker_opens.get(),
            breaker_closes: h.breaker_closes.get(),
            probes: h.probes.get(),
            queued: submitted.saturating_sub(completed),
            degraded: false,
        }
    }
}

/// A point-in-time copy of the connector's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AsyncVolStats {
    /// Background writes completed.
    pub writes: u64,
    /// Cold (blocking) reads served on the caller's thread.
    pub blocking_reads: u64,
    /// Background prefetch reads completed.
    pub prefetches: u64,
    /// Reads served from a warm prefetch slot.
    pub prefetch_hits: u64,
    /// Bytes the connector took as write snapshots (transactional
    /// overhead volume): copied from a borrowed buffer, or handed over
    /// with no copy as an owned one, which is what a typed write passes.
    pub snapshot_bytes: u64,
    /// Seconds on the application thread from taking each write's
    /// snapshot to handing it to a transport: a borrowed buffer's copy, a
    /// device-staged append, and on a ring the write's planning. The
    /// typed API's encode comes before it and is not counted.
    pub snapshot_secs: f64,
    /// Bytes written to the container by background tasks.
    pub write_bytes: u64,
    /// Seconds background tasks spent writing.
    pub write_io_secs: f64,
    /// Bytes read (blocking + prefetch).
    pub read_bytes: u64,
    /// Seconds spent reading (blocking + prefetch).
    pub read_io_secs: f64,
    /// Transient storage failures absorbed by backoff-and-retry.
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub retry_successes: u64,
    /// Writes executed as synchronous passthrough while degraded.
    pub degraded_writes: u64,
    /// Circuit-breaker trips (async → degraded).
    pub breaker_opens: u64,
    /// Circuit-breaker recoveries (degraded → async).
    pub breaker_closes: u64,
    /// Half-open probe writes dispatched.
    pub probes: u64,
    /// Background work submitted and not yet completed (the queue depth
    /// at snapshot time): tasks still on the execution streams plus, in
    /// [`AsyncVol::stats`](crate::AsyncVol::stats), what the ring holds.
    pub queued: u64,
    /// Whether the connector is currently degraded to synchronous
    /// passthrough (breaker open or half-open). Filled from the breaker
    /// by [`AsyncVol::stats`](crate::AsyncVol::stats); a raw counter
    /// snapshot reports `false`.
    pub degraded: bool,
}

impl AsyncVolStats {
    /// Snapshot bytes over snapshot seconds, bytes/s: the rate at which
    /// writes were handed to the connector, not a copy rate.
    pub fn snapshot_bw(&self) -> f64 {
        if self.snapshot_secs > 0.0 {
            self.snapshot_bytes as f64 / self.snapshot_secs
        } else {
            f64::NAN
        }
    }

    /// Mean background write bandwidth, bytes/s.
    pub fn write_bw(&self) -> f64 {
        if self.write_io_secs > 0.0 {
            self.write_bytes as f64 / self.write_io_secs
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StatsCells::new();
        s.record_snapshot(1000, 0.5);
        s.record_snapshot(1000, 0.5);
        s.record_write(2000, 1.0);
        s.record_read(100, 0.1, false);
        s.record_read(100, 0.2, true);
        s.record_prefetch_hit();
        let snap = s.snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.blocking_reads, 1);
        assert_eq!(snap.prefetches, 1);
        assert_eq!(snap.prefetch_hits, 1);
        assert_eq!(snap.snapshot_bytes, 2000);
        assert!((snap.snapshot_secs - 1.0).abs() < 1e-6);
        assert!((snap.snapshot_bw() - 2000.0).abs() < 1.0);
        assert!((snap.write_bw() - 2000.0).abs() < 1.0);
        assert_eq!(snap.read_bytes, 200);
    }

    #[test]
    fn empty_stats_have_nan_bandwidths() {
        let snap = StatsCells::new().snapshot();
        assert!(snap.snapshot_bw().is_nan());
        assert!(snap.write_bw().is_nan());
    }

    #[test]
    fn clones_share_cells() {
        let a = StatsCells::new();
        let b = a.clone();
        b.record_write(10, 0.0);
        assert_eq!(a.snapshot().writes, 1);
    }

    #[test]
    fn negative_time_clamps_to_zero() {
        let s = StatsCells::new();
        s.record_snapshot(1, -5.0);
        assert_eq!(s.snapshot().snapshot_secs, 0.0);
    }

    #[test]
    fn counters_live_in_the_tracer_metrics_registry() {
        let tracer = Tracer::new();
        let s = StatsCells::traced(tracer.clone());
        s.record_write(4096, 0.5);
        s.record_retry();
        s.record_retry();
        // Same atomics: the registry sees the stats view's updates…
        let m = tracer.metrics().expect("enabled tracer has a registry");
        assert_eq!(m.counter_value("vol.writes"), 1);
        assert_eq!(m.counter_value("vol.write_bytes"), 4096);
        assert_eq!(m.counter_value("vol.retries"), 2);
        // …and the stats view sees direct registry updates.
        m.counter("vol.retries").inc();
        assert_eq!(s.snapshot().retries, 3);
    }

    #[test]
    fn queue_depth_is_submitted_minus_completed() {
        let s = StatsCells::new();
        s.record_queue_submitted();
        s.record_queue_submitted();
        s.record_queue_submitted();
        s.record_queue_completed();
        assert_eq!(s.snapshot().queued, 2);
        s.record_queue_completed();
        s.record_queue_completed();
        assert_eq!(s.snapshot().queued, 0);
    }
}
