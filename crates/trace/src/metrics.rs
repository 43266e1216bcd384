//! Metrics: monotonic counters and fixed-bucket log2 histograms.
//!
//! Registration (first use of a name) takes a lock and allocates; after
//! that, every handle is a clone of an `Arc` around plain atomics, so the
//! hot path — `Counter::add`, `Histogram::record` — never allocates and
//! never blocks. Histograms bucket by `floor(log2(v)) + 1` into 64 fixed
//! buckets, which is the classic latency-histogram shape: exact enough for
//! p50/p95/p99 while costing one `fetch_add` per observation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log2 buckets; values `>= 2^62` share the top bucket.
const BUCKETS: usize = 64;

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh standalone counter (registry-less use).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket log2 histogram handle. Cloning shares the cells.
///
/// Percentile accessors return the *upper bound* of the bucket containing
/// the requested rank — an overestimate by at most 2x, which is the usual
/// contract for log2 latency histograms.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a value: 0 holds exactly 0, bucket `i` holds
/// `[2^(i-1), 2^i)`, the top bucket holds everything else.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (what percentiles report).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh standalone histogram (registry-less use).
    pub fn new() -> Self {
        Histogram {
            cells: Arc::new(HistCells {
                buckets: [0u64; BUCKETS].map(AtomicU64::new),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation. Lock-free; never allocates.
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (for means).
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `0.0..=1.0` (bucket upper bound); 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> u64 {
        // Walk one load of the buckets, deriving the rank target from that
        // same copy: the separate count cell can momentarily disagree with
        // the buckets while a drain ([`snapshot_and_reset`](Self::snapshot_and_reset))
        // or `record` is in flight, and a target beyond the walked total
        // would fall through to the top bucket bound (`u64::MAX`) — a
        // wild misread for a benign race.
        self.snapshot().percentile(q)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// An owned point-in-time copy of the cells; the live histogram keeps
    /// accumulating.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.cells.buckets[i].load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.cells.sum.load(Ordering::Relaxed),
        }
    }

    /// Atomically drain the cells into an owned snapshot — the windowing
    /// primitive for the series aggregator.
    ///
    /// Each cell is `swap(0)`ed individually, so every observation lands
    /// in exactly one snapshot across repeated calls: nothing is lost to
    /// an in-flight `record`, it just lands in this window or the next.
    /// (A racing observation may momentarily split its bucket and sum
    /// across two windows; merging the windows — [`HistogramSnapshot::merge`]
    /// — reassembles it exactly.) The snapshot's `count` is derived from
    /// its buckets so each window is internally consistent.
    pub fn snapshot_and_reset(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.cells.buckets[i].swap(0, Ordering::Relaxed);
        }
        let sum = self.cells.sum.swap(0, Ordering::Relaxed);
        // Keep the live count cell in step with the drained buckets.
        let drained: u64 = buckets.iter().sum();
        self.cells.count.fetch_sub(
            drained.min(self.cells.count.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
        HistogramSnapshot { buckets, sum }
    }
}

/// An owned, mergeable copy of a histogram's buckets — what
/// [`Histogram::snapshot`] / [`Histogram::snapshot_and_reset`] return.
///
/// Merging windowed snapshots recovers the cumulative distribution, so a
/// consumer can report both per-window and since-start percentiles from
/// the same drain stream.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations (the identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0u64; BUCKETS],
            sum: 0,
        }
    }

    /// Fold `other`'s observations into this snapshot. Merging an empty
    /// snapshot is the identity — p50/p95/p99, count, and sum are
    /// unchanged. Saturating, so pathological inputs (e.g. a snapshot
    /// merged into itself in a loop) degrade to pinned buckets instead of
    /// a panic or wraparound that would corrupt every percentile.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Observations in the snapshot (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether the snapshot holds no observations.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all observations (for means).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Value at quantile `q` in `0.0..=1.0` (bucket upper bound); 0 when
    /// empty. Same contract as [`Histogram::percentile`].
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

struct MetricsInner {
    counters: RwLock<Vec<(String, Counter)>>,
    histograms: RwLock<Vec<(String, Histogram)>>,
}

/// A named registry of [`Counter`]s and [`Histogram`]s.
///
/// `counter`/`histogram` are get-or-register: the first call for a name
/// takes the write lock and allocates the entry; later calls take the read
/// lock and clone the handle. Keep handles where the hot path can reuse
/// them instead of re-looking-up by name.
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Read a possibly poisoned lock: metrics are plain atomics, so a panic in
/// an unrelated holder cannot leave them inconsistent.
macro_rules! lock {
    ($l:expr) => {
        match $l {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    };
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics {
            inner: Arc::new(MetricsInner {
                counters: RwLock::new(Vec::new()),
                histograms: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = lock!(self.inner.counters.read())
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.clone())
        {
            return c;
        }
        let mut w = lock!(self.inner.counters.write());
        if let Some((_, c)) = w.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        w.push((name.to_owned(), c.clone()));
        c
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = lock!(self.inner.histograms.read())
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
        {
            return h;
        }
        let mut w = lock!(self.inner.histograms.write());
        if let Some((_, h)) = w.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        w.push((name.to_owned(), h.clone()));
        h
    }

    /// Current value of counter `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock!(self.inner.counters.read())
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.get())
            .unwrap_or(0)
    }

    /// All counter names and values, in registration order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock!(self.inner.counters.read())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// All histogram names and handles, in registration order.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        lock!(self.inner.histograms.read())
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let m = Metrics::new();
        m.counter("ops").add(3);
        m.counter("ops").inc();
        assert_eq!(m.counter_value("ops"), 4);
        assert_eq!(m.counter_value("missing"), 0);
        assert_eq!(m.counters(), vec![("ops".to_owned(), 4)]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(63), u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = Histogram::new();
        // 90 fast ops (~1us), 9 slow (~1ms), 1 very slow (~1s).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!((1_000..4_000).contains(&p50), "p50 ~1us, got {p50}");
        let p95 = h.p95();
        assert!((1_000_000..4_000_000).contains(&p95), "p95 ~1ms, got {p95}");
        let p99 = h.p99();
        assert!(
            (1_000_000..4_000_000).contains(&p99),
            "rank 99 of 100 is still in the 1ms group, got {p99}"
        );
        let max = h.percentile(1.0);
        assert!(max >= 1_000_000_000, "max ~1s, got {max}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn snapshot_and_reset_windows_without_losing_observations() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(1_000);
        }
        let w1 = h.snapshot_and_reset();
        assert_eq!(w1.count(), 10);
        assert_eq!(w1.sum(), 10_000);
        assert_eq!(h.count(), 0, "live histogram drained");
        assert_eq!(h.p50(), 0);

        for _ in 0..5 {
            h.record(1_000_000);
        }
        let w2 = h.snapshot_and_reset();
        assert_eq!(w2.count(), 5);
        assert!((1_000_000..4_000_000).contains(&w2.p50()));

        // Merging the windows recovers the cumulative distribution.
        let mut total = HistogramSnapshot::empty();
        total.merge(&w1);
        total.merge(&w2);
        assert_eq!(total.count(), 15);
        assert_eq!(total.sum(), 10_000 + 5_000_000);
        assert!((1_000..4_000).contains(&total.p50()), "p50 in the fast group");
        let p99 = total.p99();
        assert!(p99 >= 1_000_000, "p99 in the slow group, got {p99}");
        assert!((total.mean() - (5_010_000.0 / 15.0)).abs() < 1.0);
    }

    #[test]
    fn plain_snapshot_leaves_the_histogram_untouched() {
        let h = Histogram::new();
        h.record(7);
        h.record(9);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 16);
        assert_eq!(h.count(), 2, "snapshot() must not drain");
        assert!(HistogramSnapshot::empty().is_empty());
        assert_eq!(HistogramSnapshot::empty().percentile(0.99), 0);
        assert_eq!(HistogramSnapshot::empty().mean(), 0.0);
    }

    #[test]
    fn merging_an_empty_snapshot_preserves_percentiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let mut s = h.snapshot();
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        let (count, sum, mean) = (s.count(), s.sum(), s.mean());
        s.merge(&HistogramSnapshot::empty());
        assert_eq!(s.p50(), p50, "empty merge perturbed p50");
        assert_eq!(s.p95(), p95, "empty merge perturbed p95");
        assert_eq!(s.p99(), p99, "empty merge perturbed p99");
        assert_eq!(s.count(), count);
        assert_eq!(s.sum(), sum);
        assert_eq!(s.mean(), mean);
        // And the other direction: empty ∪ populated == populated.
        let mut e = HistogramSnapshot::empty();
        e.merge(&s);
        assert_eq!((e.p50(), e.p95(), e.p99()), (p50, p95, p99));
        assert_eq!((e.count(), e.sum()), (count, sum));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = HistogramSnapshot::empty();
        a.buckets[1] = u64::MAX - 1;
        a.sum = u64::MAX - 1;
        let mut b = HistogramSnapshot::empty();
        b.buckets[1] = 5;
        b.sum = 5;
        a.merge(&b);
        assert_eq!(a.buckets[1], u64::MAX);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.p50(), 1, "percentiles still answer after saturation");
    }

    #[test]
    fn percentile_stays_in_range_while_draining_concurrently() {
        // A racing drain swaps buckets to zero before decrementing the
        // count cell, so a percentile read using the stale count could
        // walk past every loaded bucket and report u64::MAX. The
        // single-pass walk derives its rank target from the loaded
        // buckets themselves, so the answer is always the bound of a
        // bucket that actually held observations.
        let h = Histogram::new();
        let stop = Arc::new(AtomicU64::new(0));
        let recorder = {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    h.record(1_000);
                }
            })
        };
        let drainer = {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let _ = h.snapshot_and_reset();
                }
            })
        };
        for _ in 0..50_000 {
            let p = h.p99();
            assert!(
                p == 0 || (1_000..2_048).contains(&p),
                "p99 misread under drain race: {p}"
            );
        }
        stop.store(1, Ordering::Relaxed);
        recorder.join().unwrap();
        drainer.join().unwrap();
    }

    #[test]
    fn concurrent_drain_and_record_partition_observations() {
        let h = Histogram::new();
        let recorder = {
            let h = h.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000u64 {
                    h.record(3);
                }
            })
        };
        let mut total = HistogramSnapshot::empty();
        while !recorder.is_finished() {
            total.merge(&h.snapshot_and_reset());
        }
        recorder.join().unwrap();
        total.merge(&h.snapshot_and_reset());
        assert_eq!(total.count(), 10_000, "every observation lands in exactly one window");
        assert_eq!(total.sum(), 30_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = Metrics::new();
        let mut joins = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            joins.push(std::thread::spawn(move || {
                let h = m.histogram("lat");
                let c = m.counter("ops");
                for i in 0..1000u64 {
                    h.record(i);
                    c.inc();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(m.counter_value("ops"), 8000);
        assert_eq!(m.histogram("lat").count(), 8000);
    }
}
