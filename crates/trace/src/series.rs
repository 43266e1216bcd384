//! Streaming per-epoch telemetry: windowed series + rate-drift detection.
//!
//! The paper's Fig. 2 loop fits a rate model against a *history of
//! observed transfers* — but a fitted model goes stale the moment the
//! storage system changes regime (a burst buffer drains, a PFS degrades,
//! contention arrives). This module is the runtime half of that loop: a
//! [`SeriesAggregator`] folds the live trace into one point per epoch
//! (aggregate I/O rate, retry count, breaker state, staged-queue depth,
//! windowed latency percentiles via [`Histogram::snapshot_and_reset`]),
//! smooths the rate with an EWMA, and runs a two-sided **Page–Hinkley
//! test** on the log-rate. A fired [`DriftAlarm`] means the observed
//! `f_io_rate` (Eq. 3/4) has shifted persistently — the signal
//! `apio_core::adaptive::AdaptiveRuntime` uses to invalidate and refit
//! its `ModeAdvisor`.
//!
//! ## Detector
//!
//! The Page–Hinkley statistic accumulates deviations of each sample from
//! the running mean beyond a tolerance `delta`, clamped at zero (the
//! standard `m_t - min(m_t)` formulation, kept in its equivalent
//! reset-to-zero CUSUM form):
//!
//! ```text
//! up_t   = max(0, up_{t-1}   + (x_t - mean_t - delta))   // rate rose
//! down_t = max(0, down_{t-1} + (mean_t - x_t - delta))   // rate fell
//! ```
//!
//! An alarm fires when either side exceeds `lambda`. Samples are
//! `ln(rate)`, so `delta` and `lambda` are *relative* changes —
//! `lambda = 1.0` demands roughly an e-fold sustained shift, immune to
//! the absolute scale of the backend. Epochs with no I/O are skipped
//! (they carry no rate evidence). After an alarm the detector resets and
//! relearns its mean from the new regime.

use std::collections::VecDeque;

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::{Event, Record, RecordKind};

/// Which way the aggregate I/O rate moved when an alarm fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftDirection {
    /// The rate rose persistently (e.g. contention cleared).
    Up,
    /// The rate fell persistently (e.g. device degraded).
    Down,
}

impl DriftDirection {
    /// Lower-case tag for reports (`"up"` / `"down"`).
    pub fn tag(self) -> &'static str {
        match self {
            DriftDirection::Up => "up",
            DriftDirection::Down => "down",
        }
    }
}

/// A fired drift alarm: the observed I/O rate shifted persistently away
/// from its recent mean.
#[derive(Clone, Debug)]
pub struct DriftAlarm {
    /// 0-based epoch index the alarm fired in.
    pub epoch: u64,
    /// The epoch's observed aggregate rate, bytes/second.
    pub observed_rate: f64,
    /// EWMA-smoothed rate at the alarm.
    pub ewma_rate: f64,
    /// Which way the rate moved.
    pub direction: DriftDirection,
    /// The Page–Hinkley statistic that crossed the threshold (log-rate
    /// units).
    pub statistic: f64,
    /// The threshold (`lambda`) it crossed.
    pub threshold: f64,
}

/// Detector and window parameters (see module docs; DESIGN.md §11).
#[derive(Clone, Copy, Debug)]
pub struct SeriesConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher tracks faster.
    pub ewma_alpha: f64,
    /// Epoch points retained for reports (older points are discarded).
    pub window: usize,
    /// Page–Hinkley tolerance on `ln(rate)` — per-epoch jitter smaller
    /// than this never accumulates.
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold on the accumulated statistic.
    pub ph_lambda: f64,
    /// I/O-bearing epochs observed before the detector may fire (the
    /// running mean needs evidence first).
    pub warmup_epochs: u64,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            ewma_alpha: 0.3,
            window: 256,
            ph_delta: 0.05,
            ph_lambda: 1.0,
            warmup_epochs: 5,
        }
    }
}

/// Two-sided Page–Hinkley change detector (reset-to-zero CUSUM form).
#[derive(Clone, Debug)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    warmup: u64,
    n: u64,
    mean: f64,
    up: f64,
    down: f64,
}

impl PageHinkley {
    /// A detector with tolerance `delta`, threshold `lambda`, and a
    /// minimum of `warmup` samples before it may fire.
    pub fn new(delta: f64, lambda: f64, warmup: u64) -> Self {
        PageHinkley {
            delta,
            lambda,
            warmup,
            n: 0,
            mean: 0.0,
            up: 0.0,
            down: 0.0,
        }
    }

    /// Feed one sample; returns the fired direction and statistic if the
    /// accumulated deviation crossed the threshold.
    pub fn observe(&mut self, x: f64) -> Option<(DriftDirection, f64)> {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.up = (self.up + x - self.mean - self.delta).max(0.0);
        self.down = (self.down + self.mean - x - self.delta).max(0.0);
        if self.n <= self.warmup {
            return None;
        }
        if self.up > self.lambda {
            return Some((DriftDirection::Up, self.up));
        }
        if self.down > self.lambda {
            return Some((DriftDirection::Down, self.down));
        }
        None
    }

    /// Forget everything — called after an alarm so the detector relearns
    /// the new regime's mean.
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.up = 0.0;
        self.down = 0.0;
    }

    /// Samples observed since the last reset.
    pub fn samples(&self) -> u64 {
        self.n
    }
}

/// One completed epoch's aggregated telemetry.
#[derive(Clone, Debug)]
pub struct EpochPoint {
    /// 0-based epoch index.
    pub epoch: u64,
    /// Bytes moved through storage this epoch.
    pub io_bytes: u64,
    /// Nanoseconds spent moving them.
    pub io_nanos: u64,
    /// Aggregate I/O rate, bytes/second (0.0 when the epoch had no I/O).
    pub rate: f64,
    /// EWMA-smoothed rate.
    pub ewma_rate: f64,
    /// Retry attempts observed this epoch.
    pub retries: u64,
    /// Circuit-breaker transitions observed this epoch.
    pub breaker_transitions: u64,
    /// Breaker state at epoch end (`"closed"`, `"open"`, `"half-open"`).
    pub breaker_state: &'static str,
    /// Maximum staged-queue depth observed this epoch.
    pub queue_depth: u64,
    /// Windowed latency percentiles from the attached histogram (0 when
    /// none is attached or it saw nothing this epoch).
    pub lat_p50: u64,
    /// 95th percentile of the windowed latency.
    pub lat_p95: u64,
    /// 99th percentile of the windowed latency.
    pub lat_p99: u64,
}

/// Running accumulator for the epoch in progress.
#[derive(Clone, Copy, Debug, Default)]
struct Accum {
    io_bytes: u64,
    io_nanos: u64,
    retries: u64,
    breaker_transitions: u64,
    queue_depth: u64,
}

/// Folds live telemetry into per-epoch points and watches the aggregate
/// I/O rate for drift. Feed it directly ([`record_io`](Self::record_io)
/// and friends) or from a trace record stream
/// ([`observe_record`](Self::observe_record)); close each epoch with
/// [`end_epoch`](Self::end_epoch).
#[derive(Clone)]
pub struct SeriesAggregator {
    cfg: SeriesConfig,
    epoch: u64,
    cur: Accum,
    breaker_state: &'static str,
    ewma: Option<f64>,
    detector: PageHinkley,
    points: VecDeque<EpochPoint>,
    alarms: Vec<DriftAlarm>,
    latency: Option<Histogram>,
    cumulative_latency: HistogramSnapshot,
}

impl Default for SeriesAggregator {
    fn default() -> Self {
        SeriesAggregator::new(SeriesConfig::default())
    }
}

impl SeriesAggregator {
    /// A fresh aggregator with the given window/detector parameters.
    pub fn new(cfg: SeriesConfig) -> Self {
        SeriesAggregator {
            detector: PageHinkley::new(cfg.ph_delta, cfg.ph_lambda, cfg.warmup_epochs),
            cfg,
            epoch: 0,
            cur: Accum::default(),
            breaker_state: "closed",
            ewma: None,
            points: VecDeque::new(),
            alarms: Vec::new(),
            latency: None,
            cumulative_latency: HistogramSnapshot::empty(),
        }
    }

    /// Attach a latency histogram (e.g. the tracer's `vol.write` span
    /// histogram): each [`end_epoch`](Self::end_epoch) drains it with
    /// [`Histogram::snapshot_and_reset`] into the epoch's percentiles and
    /// merges the window into the cumulative distribution.
    pub fn attach_latency(&mut self, h: Histogram) {
        self.latency = Some(h);
    }

    /// One storage transfer: `bytes` moved in `nanos` nanoseconds.
    pub fn record_io(&mut self, bytes: u64, nanos: u64) {
        self.cur.io_bytes += bytes;
        self.cur.io_nanos += nanos;
    }

    /// One retry attempt.
    pub fn record_retry(&mut self) {
        self.cur.retries += 1;
    }

    /// A circuit-breaker transition into `to`.
    pub fn record_breaker(&mut self, to: &'static str) {
        self.cur.breaker_transitions += 1;
        self.breaker_state = to;
    }

    /// The staged queue reached `depth` in-flight operations.
    pub fn record_queue_depth(&mut self, depth: u64) {
        self.cur.queue_depth = self.cur.queue_depth.max(depth);
    }

    /// Fold one trace record into the current epoch. Maps the typed
    /// events: `BackendBatch` spans feed the I/O rate, `RetryAttempt` /
    /// `BreakerTransition` feed their series, and an `EpochMark` closes
    /// the epoch (feeding its I/O totals first) — so replaying a record
    /// stream reproduces the live aggregation.
    pub fn observe_record(&mut self, rec: &Record) -> Option<DriftAlarm> {
        match rec.event {
            Some(Event::BackendBatch { bytes, .. }) if rec.kind == RecordKind::Span => {
                self.record_io(bytes, rec.dur_nanos);
                None
            }
            Some(Event::RetryAttempt { .. }) => {
                self.record_retry();
                None
            }
            Some(Event::BreakerTransition { to, .. }) => {
                self.record_breaker(to);
                None
            }
            Some(Event::EpochMark { io_nanos, bytes, .. }) => {
                self.record_io(bytes, io_nanos);
                self.end_epoch()
            }
            _ => None,
        }
    }

    /// Close the epoch in progress: compute its rate, update the EWMA,
    /// feed the drift detector, window the attached latency histogram,
    /// and append the [`EpochPoint`]. Returns the alarm if one fired.
    pub fn end_epoch(&mut self) -> Option<DriftAlarm> {
        let cur = std::mem::take(&mut self.cur);
        let rate = if cur.io_nanos > 0 {
            cur.io_bytes as f64 * 1e9 / cur.io_nanos as f64
        } else {
            0.0
        };
        let ewma = match (self.ewma, rate > 0.0) {
            (Some(prev), true) => {
                self.cfg.ewma_alpha * rate + (1.0 - self.cfg.ewma_alpha) * prev
            }
            (Some(prev), false) => prev,
            (None, true) => rate,
            (None, false) => 0.0,
        };
        if rate > 0.0 {
            self.ewma = Some(ewma);
        }

        // Epochs without I/O carry no rate evidence: skip the detector.
        let fired = if rate > 0.0 {
            self.detector.observe(rate.ln())
        } else {
            None
        };
        let alarm = fired.map(|(direction, statistic)| DriftAlarm {
            epoch: self.epoch,
            observed_rate: rate,
            ewma_rate: ewma,
            direction,
            statistic,
            threshold: self.cfg.ph_lambda,
        });
        if let Some(a) = &alarm {
            self.alarms.push(a.clone());
            self.detector.reset();
        }

        let (p50, p95, p99) = match &self.latency {
            Some(h) => {
                let w = h.snapshot_and_reset();
                let ps = (w.p50(), w.p95(), w.p99());
                self.cumulative_latency.merge(&w);
                ps
            }
            None => (0, 0, 0),
        };

        self.points.push_back(EpochPoint {
            epoch: self.epoch,
            io_bytes: cur.io_bytes,
            io_nanos: cur.io_nanos,
            rate,
            ewma_rate: ewma,
            retries: cur.retries,
            breaker_transitions: cur.breaker_transitions,
            breaker_state: self.breaker_state,
            queue_depth: cur.queue_depth,
            lat_p50: p50,
            lat_p95: p95,
            lat_p99: p99,
        });
        while self.points.len() > self.cfg.window.max(1) {
            self.points.pop_front();
        }
        self.epoch += 1;
        alarm
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The retained window of epoch points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &EpochPoint> {
        self.points.iter()
    }

    /// The most recent completed epoch point.
    pub fn last(&self) -> Option<&EpochPoint> {
        self.points.back()
    }

    /// Every alarm fired so far, in epoch order.
    pub fn alarms(&self) -> &[DriftAlarm] {
        &self.alarms
    }

    /// Current EWMA-smoothed rate, if any I/O has been seen.
    pub fn ewma_rate(&self) -> Option<f64> {
        self.ewma
    }

    /// Breaker state as of the latest observation.
    pub fn breaker_state(&self) -> &'static str {
        self.breaker_state
    }

    /// Cumulative latency distribution (every drained window merged).
    pub fn cumulative_latency(&self) -> &HistogramSnapshot {
        &self.cumulative_latency
    }

    /// The configuration the aggregator runs with.
    pub fn config(&self) -> &SeriesConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `n` epochs of `rate` bytes/s (1 MiB per epoch).
    fn feed(agg: &mut SeriesAggregator, n: usize, rate: f64) -> Option<DriftAlarm> {
        let mut last = None;
        for _ in 0..n {
            let bytes = 1u64 << 20;
            let nanos = (bytes as f64 * 1e9 / rate) as u64;
            agg.record_io(bytes, nanos);
            if let Some(a) = agg.end_epoch() {
                last = Some(a);
            }
        }
        last
    }

    #[test]
    fn constant_rate_never_alarms() {
        let mut agg = SeriesAggregator::default();
        assert!(feed(&mut agg, 1000, 1e9).is_none());
        assert!(agg.alarms().is_empty());
        let last = agg.last().unwrap();
        assert!((last.rate - 1e9).abs() / 1e9 < 1e-6);
        assert!((last.ewma_rate - 1e9).abs() / 1e9 < 1e-6);
    }

    #[test]
    fn rate_step_down_fires_a_down_alarm_quickly() {
        let mut agg = SeriesAggregator::default();
        feed(&mut agg, 10, 1e9);
        let alarm = feed(&mut agg, 3, 1e7).expect("100x drop must fire");
        assert_eq!(alarm.direction, DriftDirection::Down);
        assert!(alarm.epoch >= 10 && alarm.epoch < 13, "fired at {}", alarm.epoch);
        assert!(alarm.statistic > alarm.threshold);
        assert!(alarm.observed_rate < 2e7);
    }

    #[test]
    fn rate_step_up_fires_an_up_alarm() {
        let mut agg = SeriesAggregator::default();
        feed(&mut agg, 10, 1e8);
        let alarm = feed(&mut agg, 3, 1e10).expect("100x rise must fire");
        assert_eq!(alarm.direction, DriftDirection::Up);
    }

    #[test]
    fn detector_resets_and_relearns_after_an_alarm() {
        let mut agg = SeriesAggregator::default();
        feed(&mut agg, 10, 1e9);
        assert!(feed(&mut agg, 5, 1e7).is_some());
        // Staying in the new regime fires nothing further.
        assert!(feed(&mut agg, 50, 1e7).is_none());
        assert_eq!(agg.alarms().len(), 1);
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let cfg = SeriesConfig {
            warmup_epochs: 8,
            ..SeriesConfig::default()
        };
        let mut agg = SeriesAggregator::new(cfg);
        // A wild swing inside the warmup window must not fire.
        feed(&mut agg, 4, 1e9);
        assert!(feed(&mut agg, 4, 1e6).is_none());
    }

    #[test]
    fn idle_epochs_carry_no_rate_evidence() {
        let mut agg = SeriesAggregator::default();
        feed(&mut agg, 10, 1e9);
        for _ in 0..100 {
            assert!(agg.end_epoch().is_none(), "idle epochs never alarm");
        }
        let last = agg.last().unwrap();
        assert_eq!(last.rate, 0.0);
        assert!((last.ewma_rate - 1e9).abs() / 1e9 < 1e-6, "EWMA holds");
        // I/O resuming at the same rate is still not drift.
        assert!(feed(&mut agg, 5, 1e9).is_none());
    }

    #[test]
    fn window_discards_old_points_but_keeps_counting() {
        let cfg = SeriesConfig {
            window: 4,
            ..SeriesConfig::default()
        };
        let mut agg = SeriesAggregator::new(cfg);
        feed(&mut agg, 10, 1e9);
        assert_eq!(agg.points().count(), 4);
        assert_eq!(agg.epochs(), 10);
        assert_eq!(agg.last().unwrap().epoch, 9);
        assert_eq!(agg.points().next().unwrap().epoch, 6);
    }

    #[test]
    fn series_tracks_retries_breaker_and_queue_depth() {
        let mut agg = SeriesAggregator::default();
        agg.record_io(1024, 1024);
        agg.record_retry();
        agg.record_retry();
        agg.record_breaker("open");
        agg.record_queue_depth(3);
        agg.record_queue_depth(7);
        agg.record_queue_depth(2);
        agg.end_epoch();
        let p = agg.last().unwrap();
        assert_eq!(p.retries, 2);
        assert_eq!(p.breaker_transitions, 1);
        assert_eq!(p.breaker_state, "open");
        assert_eq!(p.queue_depth, 7);
        // Per-epoch accumulators reset; breaker state persists.
        agg.end_epoch();
        let p = agg.last().unwrap();
        assert_eq!(p.retries, 0);
        assert_eq!(p.queue_depth, 0);
        assert_eq!(p.breaker_state, "open");
        assert_eq!(agg.breaker_state(), "open");
    }

    #[test]
    fn attached_histogram_windows_percentiles_per_epoch() {
        let h = Histogram::new();
        let mut agg = SeriesAggregator::default();
        agg.attach_latency(h.clone());

        for _ in 0..10 {
            h.record(1_000);
        }
        agg.record_io(1, 1);
        agg.end_epoch();
        let fast = agg.last().unwrap();
        assert!((1_000..4_000).contains(&fast.lat_p50));

        for _ in 0..10 {
            h.record(1_000_000);
        }
        agg.record_io(1, 1);
        agg.end_epoch();
        let slow = agg.last().unwrap();
        assert!(
            slow.lat_p50 >= 1_000_000,
            "window sees only this epoch's observations, got {}",
            slow.lat_p50
        );

        // The cumulative distribution merged both windows.
        let cum = agg.cumulative_latency();
        assert_eq!(cum.count(), 20);
        assert!((1_000..4_000).contains(&cum.percentile(0.25)));
        assert!(cum.p99() >= 1_000_000);
    }

    #[test]
    fn observe_record_maps_events_and_epoch_marks() {
        let mut agg = SeriesAggregator::default();
        let span = |event| Record {
            seq: 0,
            kind: RecordKind::Span,
            name: "backend.batch",
            id: 1,
            parent: 0,
            tid: 1,
            start_nanos: 0,
            dur_nanos: 1_000_000,
            event: Some(event),
        };
        let instant = |event| Record {
            seq: 0,
            kind: RecordKind::Instant,
            name: "e",
            id: 0,
            parent: 0,
            tid: 1,
            start_nanos: 0,
            dur_nanos: 0,
            event: Some(event),
        };
        agg.observe_record(&span(Event::BackendBatch {
            segments: 4,
            bytes: 1 << 20,
        }));
        agg.observe_record(&instant(Event::RetryAttempt {
            attempt: 1,
            delay_nanos: 10,
        }));
        agg.observe_record(&instant(Event::BreakerTransition {
            from: "closed",
            to: "open",
        }));
        agg.observe_record(&instant(Event::EpochMark {
            epoch: 0,
            comp_nanos: 5,
            io_nanos: 1_000_000,
            bytes: 1 << 20,
        }));
        assert_eq!(agg.epochs(), 1);
        let p = agg.last().unwrap();
        assert_eq!(p.io_bytes, 2 << 20, "batch bytes + epoch-mark bytes");
        assert_eq!(p.retries, 1);
        assert_eq!(p.breaker_state, "open");
        let expect = (2u64 << 20) as f64 * 1e9 / 2_000_000.0;
        assert!((p.rate - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn page_hinkley_is_scale_free_on_log_rates() {
        // The same relative step at two absolute scales fires identically.
        for base in [1e6f64, 1e12] {
            let mut d = PageHinkley::new(0.05, 1.0, 5);
            for _ in 0..10 {
                assert!(d.observe((base).ln()).is_none());
            }
            let fired = d.observe((base / 50.0).ln());
            assert!(
                matches!(fired, Some((DriftDirection::Down, _))),
                "50x drop at base {base} must fire"
            );
        }
    }
}
