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
        // the buckets while a `record` is in flight, and a target beyond
        // the walked total would fall through to the top bucket bound
        // (`u64::MAX`) — a wild misread for a benign race.
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed));
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in buckets.iter().enumerate() {
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
    fn percentile_stays_in_range_while_recording_concurrently() {
        // A racing `record` bumps its bucket before the count cell, so a
        // percentile read trusting the count could walk past every loaded
        // bucket and report u64::MAX. The single-pass walk derives its
        // rank target from the loaded buckets themselves, so the answer
        // is always the bound of a bucket that actually held observations.
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
        for _ in 0..50_000 {
            let p = h.p99();
            assert!(
                p == 0 || (1_000..2_048).contains(&p),
                "p99 misread under record race: {p}"
            );
        }
        stop.store(1, Ordering::Relaxed);
        recorder.join().unwrap();
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
