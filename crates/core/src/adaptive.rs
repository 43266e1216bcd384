//! The model feedback loop (Fig. 2).
//!
//! An [`AdaptiveRuntime`] sits beside a high-level I/O library: the
//! library streams in compute phases and [`TransferRecord`]s (storage
//! transfers as `Sync`, snapshot copies as `Async`), the runtime
//! maintains the history and refits the rate models lazily, and before
//! each I/O phase the library asks for advice.
//! This is exactly the architecture the paper sketches in Fig. 2 — "a
//! model feedback loop added to a high-level I/O library".
//!
//! ## Drift-triggered refitting
//!
//! Peak-rate fitting (§V-C) deliberately keeps the best rate ever seen
//! per configuration — contention only slows transfers down, so the
//! *ideal* is the stable signal. The blind spot: a persistent regime
//! change (device degradation, a burst buffer filling) leaves the model
//! advising from rates the system can no longer deliver, and no amount
//! of new data fixes it because old peaks dominate forever. Closing each
//! epoch with [`AdaptiveRuntime::end_epoch`] closes the loop: the epoch's
//! aggregate storage rate feeds a drift detector, and when it fires the
//! runtime **forgets the stale regime** — history from before the alarm
//! epoch is discarded and the advisor cache invalidated, so the next
//! advice is fitted purely from post-drift observations.
//!
//! ## Detector
//!
//! A two-sided Page–Hinkley test on `x = ln(rate)`, in its reset-to-zero
//! CUSUM form: each sample's deviation from the running mean, beyond a
//! tolerance `δ`, accumulates per side and is clamped at zero.
//!
//! ```text
//! up_t   = max(0, up_{t-1}   + (x_t - mean_t - δ))   // rate rose
//! down_t = max(0, down_{t-1} + (mean_t - x_t - δ))   // rate fell
//! ```
//!
//! An alarm fires when either side exceeds `λ`, after a warmup that gives
//! the mean some evidence. Working in log space makes `δ` and `λ`
//! *relative* changes, immune to the absolute speed of the backend.
//! Epochs with no I/O carry no rate evidence and are skipped. After an
//! alarm the detector resets and relearns its mean from the new regime.

use crate::advisor::{Advice, ModeAdvisor};
use crate::error_msg::ModelError;
use crate::estimator::CompEstimator;
use crate::history::{Direction, History, IoMode, TransferRecord};
use crate::ratemodel::RateModel;

/// Page–Hinkley tolerance on `ln(rate)`: per-epoch jitter smaller than
/// this never accumulates (±5% stationary noise raises no alarm).
const PH_DELTA: f64 = 0.05;
/// I/O-bearing epochs observed before the detector may fire: the running
/// mean needs evidence first.
const PH_WARMUP: f64 = 5.0;
/// Alarm threshold on the accumulated log-rate statistic. High enough
/// for wall-clock rates with scheduler noise in them; an 8x step
/// (`ln 8 ≈ 2.1`) still fires within two epochs, a 20x step within one.
const PH_LAMBDA: f64 = 2.0;

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
/// from its running mean.
#[derive(Clone, Debug)]
pub struct DriftAlarm {
    /// 0-based epoch index the alarm fired in.
    pub epoch: u64,
    /// The epoch's observed aggregate rate, bytes/second.
    pub observed_rate: f64,
    /// The baseline the alarm was measured against: the exp of the
    /// detector's running mean of `ln(rate)`, bytes/second.
    pub mean_rate: f64,
    /// Which way the rate moved.
    pub direction: DriftDirection,
    /// The Page–Hinkley statistic that crossed the threshold (log-rate
    /// units).
    pub statistic: f64,
    /// The threshold (`λ`) it crossed.
    pub threshold: f64,
}

/// Two-sided Page–Hinkley detector on `ln(rate)` (see the module docs).
#[derive(Default)]
struct PageHinkley {
    n: f64,
    mean: f64,
    up: f64,
    down: f64,
}

impl PageHinkley {
    /// Feed one sample; the fired direction and statistic if either side
    /// crossed `λ` after the warmup.
    fn observe(&mut self, x: f64) -> Option<(DriftDirection, f64)> {
        self.n += 1.0;
        self.mean += (x - self.mean) / self.n;
        self.up = (self.up + x - self.mean - PH_DELTA).max(0.0);
        self.down = (self.down + self.mean - x - PH_DELTA).max(0.0);
        if self.n <= PH_WARMUP {
            None
        } else if self.up > PH_LAMBDA {
            Some((DriftDirection::Up, self.up))
        } else if self.down > PH_LAMBDA {
            Some((DriftDirection::Down, self.down))
        } else {
            None
        }
    }
}

/// The feedback loop: history + estimators + lazily refitted models.
pub struct AdaptiveRuntime {
    history: History,
    comp: CompEstimator,
    /// Fits are invalidated whenever the relevant slice grows.
    cache: Option<Cache>,
    /// Storage bytes and seconds of the epoch in progress.
    epoch_bytes: f64,
    epoch_secs: f64,
    /// Epochs closed so far.
    epochs: u64,
    /// History length when the epoch in progress began: an alarm keeps
    /// only the records after it (the alarm epoch is post-drift evidence
    /// by definition; anything older straddles the old regime, and one
    /// stale peak is enough to poison a peak-rate fit).
    epoch_start: usize,
    detector: PageHinkley,
    alarms: Vec<DriftAlarm>,
}

struct Cache {
    history_len: usize,
    write: Option<ModeAdvisor>,
    read: Option<ModeAdvisor>,
}

impl Default for AdaptiveRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveRuntime {
    /// An empty loop: no history, no compute estimate.
    pub fn new() -> Self {
        Self::with_history(History::new())
    }

    /// Start from a persisted history (a previous run's
    /// [`History::to_text`] snapshot).
    pub fn with_history(history: History) -> Self {
        AdaptiveRuntime {
            epoch_start: history.len(),
            history,
            comp: CompEstimator::new(),
            cache: None,
            epoch_bytes: 0.0,
            epoch_secs: 0.0,
            epochs: 0,
            detector: PageHinkley::default(),
            alarms: Vec::new(),
        }
    }

    /// Every drift alarm fired so far, in epoch order.
    pub fn drift_alarms(&self) -> &[DriftAlarm] {
        &self.alarms
    }

    /// How many times a drift alarm has forced a model refit (one per
    /// alarm).
    pub fn refit_count(&self) -> u64 {
        self.alarms.len() as u64
    }

    /// Close the current epoch: run the drift detector over the epoch's
    /// aggregate storage rate. If it fires, the stale regime is
    /// forgotten — history from before this epoch is discarded and the
    /// advisor cache dropped, so the next [`advise`](Self::advise) refits
    /// from post-drift data only. Returns the alarm, if any.
    pub fn end_epoch(&mut self) -> Option<DriftAlarm> {
        let epoch = self.epochs;
        self.epochs += 1;
        let (bytes, secs) = (self.epoch_bytes, self.epoch_secs);
        self.epoch_bytes = 0.0;
        self.epoch_secs = 0.0;
        let alarm = if secs > 0.0 {
            let rate = bytes / secs;
            self.detector
                .observe(rate.ln())
                .map(|(direction, statistic)| DriftAlarm {
                    epoch,
                    observed_rate: rate,
                    mean_rate: self.detector.mean.exp(),
                    direction,
                    statistic,
                    threshold: PH_LAMBDA,
                })
        } else {
            None // an idle epoch carries no rate evidence
        };
        if let Some(a) = &alarm {
            self.history.discard_oldest(self.epoch_start);
            self.cache = None;
            self.detector = PageHinkley::default();
            self.alarms.push(a.clone());
        }
        self.epoch_start = self.history.len();
        alarm
    }

    /// A computation phase of `secs` completed.
    pub fn observe_compute(&mut self, secs: f64) {
        self.comp.observe(secs);
    }

    /// A transfer completed. A `Sync` record is a storage transfer: it
    /// also adds to the epoch in progress, whose rate the drift detector
    /// watches. An `Async` record is a snapshot copy (memcpy, not
    /// storage, which would dilute that signal) and goes to the history
    /// only.
    pub fn observe(&mut self, rec: TransferRecord) {
        self.history.push(rec);
        if rec.mode == IoMode::Sync {
            self.epoch_bytes += rec.data_size;
            self.epoch_secs += rec.io_time(rec.data_size);
        }
    }

    /// The current history (e.g. to persist with [`History::to_text`]).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Advise on the next I/O phase. Refits models when the history grew.
    pub fn advise(
        &mut self,
        direction: Direction,
        total_bytes: f64,
        ranks: u32,
    ) -> Result<Advice, ModelError> {
        let t_comp = self
            .comp
            .estimate()
            .ok_or_else(|| ModelError("no compute phases observed yet".into()))?;
        self.refit_if_stale();
        let advisor = match (direction, self.cache.as_ref()) {
            (Direction::Write, Some(c)) => c.write.as_ref(),
            (Direction::Read, Some(c)) => c.read.as_ref(),
            (_, None) => None,
        }
        .ok_or_else(|| {
            ModelError(format!(
                "insufficient history to fit both {direction:?} models"
            ))
        })?;
        Ok(advisor.advise(t_comp, total_bytes, ranks))
    }

    /// Current fitted models per direction, if the history supports them.
    pub fn advisor(&mut self, direction: Direction) -> Option<&ModeAdvisor> {
        self.refit_if_stale();
        match (direction, self.cache.as_ref()) {
            (Direction::Write, Some(c)) => c.write.as_ref(),
            (Direction::Read, Some(c)) => c.read.as_ref(),
            (_, None) => None,
        }
    }

    fn refit_if_stale(&mut self) {
        let stale = match &self.cache {
            Some(c) => c.history_len != self.history.len(),
            None => true,
        };
        if !stale {
            return;
        }
        let fit_pair = |dir: Direction, h: &History| -> Option<ModeAdvisor> {
            let s = RateModel::fit(h, IoMode::Sync, dir).ok()?;
            let a = RateModel::fit(h, IoMode::Async, dir).ok()?;
            ModeAdvisor::new(s, a).ok()
        };
        self.cache = Some(Cache {
            history_len: self.history.len(),
            write: fit_pair(Direction::Write, &self.history),
            read: fit_pair(Direction::Read, &self.history),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A write of `bytes` across `ranks` in `secs`.
    fn write(mode: IoMode, bytes: f64, ranks: u32, secs: f64) -> TransferRecord {
        TransferRecord::from_time(bytes, ranks, mode, Direction::Write, secs)
    }

    fn feed_epochs(rt: &mut AdaptiveRuntime, n: usize) {
        // Simulate a weak-scaling style history across several scales.
        for &ranks in [6u32, 24, 96, 384, 1536].iter().take(n) {
            let nodes = ranks as f64 / 6.0;
            let bytes = ranks as f64 * 32e6;
            rt.observe_compute(30.0);
            let sync_secs = bytes / (nodes * 2.7e9).min(330e9);
            rt.observe(write(IoMode::Sync, bytes, ranks, sync_secs));
            rt.observe(write(IoMode::Async, bytes, ranks, bytes / (nodes * 10e9)));
        }
    }

    #[test]
    fn advise_before_any_data_fails_cleanly() {
        let mut rt = AdaptiveRuntime::new();
        assert!(rt.advise(Direction::Write, 1e9, 64).is_err());
        rt.observe_compute(1.0);
        // Compute known but no transfers: still an error.
        assert!(rt.advise(Direction::Write, 1e9, 64).is_err());
    }

    #[test]
    fn loop_converges_to_async_for_long_compute() {
        let mut rt = AdaptiveRuntime::new();
        feed_epochs(&mut rt, 5);
        let advice = rt.advise(Direction::Write, 768.0 * 32e6, 768).unwrap();
        assert_eq!(advice.mode, IoMode::Async);
        assert!(advice.speedup() > 1.0);
    }

    #[test]
    fn cache_refits_on_new_data() {
        let mut rt = AdaptiveRuntime::new();
        feed_epochs(&mut rt, 5);
        let a1 = rt.advise(Direction::Write, 1e9, 96).unwrap();
        // New observations shift the sync model sharply downward.
        for _ in 0..10 {
            // Terrible sync performance.
            rt.observe(write(IoMode::Sync, 96.0 * 32e6, 96, 100.0));
        }
        let a2 = rt.advise(Direction::Write, 1e9, 96).unwrap();
        // Peak-rate fitting means the *ideal* stays; this mostly checks
        // the refit path doesn't panic and stays consistent.
        assert!(a2.t_sync.is_finite() && a1.t_sync.is_finite());
    }

    #[test]
    fn read_and_write_fit_independently() {
        let mut rt = AdaptiveRuntime::new();
        feed_epochs(&mut rt, 5);
        assert!(rt.advisor(Direction::Write).is_some());
        assert!(rt.advisor(Direction::Read).is_none());
        assert!(rt.advise(Direction::Read, 1e9, 96).is_err());
    }

    #[test]
    fn history_persistence_roundtrip() {
        let mut rt = AdaptiveRuntime::new();
        feed_epochs(&mut rt, 5);
        let text = rt.history().to_text();
        let mut rt2 = AdaptiveRuntime::with_history(History::from_text(&text).unwrap());
        rt2.observe_compute(30.0);
        let advice = rt2.advise(Direction::Write, 768.0 * 32e6, 768).unwrap();
        assert_eq!(advice.mode, IoMode::Async);
    }

    /// Feed `n` epochs of one 1 MiB transfer at `rate` bytes/s; the last
    /// alarm fired, if any.
    fn feed(rt: &mut AdaptiveRuntime, n: usize, rate: f64) -> Option<DriftAlarm> {
        let mut last = None;
        for _ in 0..n {
            let bytes = (1u64 << 20) as f64;
            rt.observe(write(IoMode::Sync, bytes, 1, bytes / rate));
            if let Some(a) = rt.end_epoch() {
                last = Some(a);
            }
        }
        last
    }

    #[test]
    fn constant_rate_never_alarms() {
        let mut rt = AdaptiveRuntime::new();
        assert!(feed(&mut rt, 1000, 1e9).is_none());
        assert!(rt.drift_alarms().is_empty());
        assert_eq!(rt.history().len(), 1000, "nothing forgotten");
    }

    #[test]
    fn rate_step_down_fires_a_down_alarm_quickly() {
        let mut rt = AdaptiveRuntime::new();
        feed(&mut rt, 10, 1e9);
        let alarm = feed(&mut rt, 3, 1e7).expect("100x drop must fire");
        assert_eq!(alarm.direction, DriftDirection::Down);
        assert!((10..13).contains(&alarm.epoch), "fired at {}", alarm.epoch);
        assert!(alarm.statistic > alarm.threshold);
        assert!(alarm.observed_rate < 2e7);
        assert!(alarm.mean_rate > 10.0 * alarm.observed_rate);
    }

    #[test]
    fn rate_step_up_fires_an_up_alarm() {
        let mut rt = AdaptiveRuntime::new();
        feed(&mut rt, 10, 1e8);
        let alarm = feed(&mut rt, 3, 1e10).expect("100x rise must fire");
        assert_eq!(alarm.direction, DriftDirection::Up);
    }

    #[test]
    fn detector_resets_and_relearns_after_an_alarm() {
        let mut rt = AdaptiveRuntime::new();
        feed(&mut rt, 10, 1e9);
        assert!(feed(&mut rt, 5, 1e7).is_some());
        // Staying in the new regime fires nothing further.
        assert!(feed(&mut rt, 50, 1e7).is_none());
        assert_eq!(rt.drift_alarms().len(), 1);
        assert_eq!(rt.refit_count(), 1);
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let mut rt = AdaptiveRuntime::new();
        // A wild swing inside the 5-epoch warmup must not fire, though
        // the statistic is already far past the threshold...
        feed(&mut rt, 2, 1e9);
        assert!(feed(&mut rt, 3, 1e6).is_none());
        // ...and the first epoch after it does.
        let alarm = feed(&mut rt, 1, 1e6).expect("fires once warm");
        assert_eq!(alarm.epoch, 5);
    }

    #[test]
    fn idle_epochs_carry_no_rate_evidence() {
        let mut rt = AdaptiveRuntime::new();
        feed(&mut rt, 10, 1e9);
        for _ in 0..100 {
            assert!(rt.end_epoch().is_none(), "idle epochs never alarm");
        }
        // I/O resuming at the same rate is still not drift.
        assert!(feed(&mut rt, 5, 1e9).is_none());
        assert_eq!(rt.history().len(), 15);
    }

    #[test]
    fn page_hinkley_is_scale_free_on_log_rates() {
        // The same relative step at two absolute scales fires identically.
        for base in [1e6f64, 1e12] {
            let mut rt = AdaptiveRuntime::new();
            assert!(feed(&mut rt, 10, base).is_none());
            let fired = feed(&mut rt, 1, base / 50.0);
            assert_eq!(
                fired.map(|a| a.direction),
                Some(DriftDirection::Down),
                "50x drop at base {base} must fire"
            );
        }
    }

    /// One epoch of the drift scenario: a sync write transfer at
    /// `io_rate` bytes/s plus the matching snapshot overhead and a
    /// compute phase, then an epoch boundary. Epoch `i` picks one of
    /// three (ranks, size) configurations, so the rate models always
    /// have the three distinct points a fit (with intercept) requires.
    fn drift_epoch(rt: &mut AdaptiveRuntime, i: usize, io_rate: f64) -> Option<DriftAlarm> {
        let ranks = [64u32, 128, 256][i % 3];
        let bytes = ranks as f64 * 32e6;
        rt.observe_compute(2.0);
        rt.observe(write(IoMode::Sync, bytes, ranks, bytes / io_rate));
        // 10 GB/s memcpy, fixed.
        rt.observe(write(IoMode::Async, bytes, ranks, bytes / 10e9));
        rt.end_epoch()
    }

    #[test]
    fn stationary_rate_never_fires_or_truncates() {
        let mut rt = AdaptiveRuntime::new();
        for i in 0..100 {
            assert!(drift_epoch(&mut rt, i, 100e9).is_none());
        }
        assert_eq!(rt.refit_count(), 0);
        assert_eq!(rt.history().len(), 200, "nothing forgotten");
    }

    #[test]
    fn drift_alarm_truncates_history_and_flips_the_advice() {
        let mut rt = AdaptiveRuntime::new();

        // Fast regime: storage at 100 GB/s beats the 10 GB/s snapshot
        // copy, so paying the snapshot overhead cannot win → Sync.
        for i in 0..10 {
            assert!(drift_epoch(&mut rt, i, 100e9).is_none());
        }
        let before = rt.advise(Direction::Write, 64.0 * 32e6, 64).unwrap();
        assert_eq!(before.mode, IoMode::Sync, "fast storage: sync wins");

        // The device degrades 100x. Without truncation the peak-rate fit
        // would keep advising from the stale 100 GB/s peak forever.
        let mut alarm = None;
        for i in 10..14 {
            if let Some(a) = drift_epoch(&mut rt, i, 1e9) {
                alarm = Some(a);
                break;
            }
        }
        let alarm = alarm.expect("100x step must fire within 4 epochs");
        assert_eq!(alarm.direction, DriftDirection::Down);
        assert_eq!(rt.refit_count(), 1);
        assert!(
            rt.history().len() <= 2,
            "stale regime forgotten, {} records kept",
            rt.history().len()
        );

        // Post-drift epochs refit from the slow regime only: now the
        // 10 GB/s snapshot copy is cheap next to 1 GB/s storage → Async.
        for i in 14..17 {
            drift_epoch(&mut rt, i, 1e9);
        }
        let after = rt.advise(Direction::Write, 64.0 * 32e6, 64).unwrap();
        assert_eq!(after.mode, IoMode::Async, "slow storage: async wins");
        assert_eq!(rt.drift_alarms().len(), 1);
    }
}
