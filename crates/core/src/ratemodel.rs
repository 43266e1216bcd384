//! The fitted I/O-rate model and Eq. 3.
//!
//! A [`RateModel`] is one least-squares fit over one `(mode, direction)`
//! slice of the history, predicting the aggregate I/O rate from
//! `(data_size, ranks)`. Eq. 3 then gives the transfer time:
//! `t_io = data_size / f_io_rate`.
//!
//! Following §III-B2, the fit targets the *peak* observed rate per
//! configuration (contention only lowers rates, and the model estimates
//! the ideal case), and §V-A1 picks the design per mode: **linear-log**
//! for the saturating synchronous curves, **linear** for the asynchronous
//! rates that scale with the (node-local, unshared) snapshot bandwidth.

use crate::error_msg::ModelError;
use crate::history::{Direction, History, IoMode};
use crate::regression::{Design, LinearFit};

/// A fitted aggregate-rate predictor for one (mode, direction) slice.
#[derive(Clone, Debug)]
pub struct RateModel {
    fit: LinearFit,
    mode: IoMode,
    direction: Direction,
}

/// The paper's design choice for a mode (§V-A1).
pub fn default_design(mode: IoMode) -> Design {
    match mode {
        IoMode::Sync => Design::LinearLog,
        IoMode::Async => Design::Linear,
    }
}

impl RateModel {
    /// Fit against the peak rates of the given slice with an explicit
    /// design.
    pub fn fit_with_design(
        history: &History,
        mode: IoMode,
        direction: Direction,
        design: Design,
    ) -> Result<RateModel, ModelError> {
        let peaks = history.peak_rates(mode, direction);
        if peaks.len() < 2 {
            return Err(ModelError(format!(
                "need at least 2 distinct configurations for {mode:?}/{direction:?}, have {}",
                peaks.len()
            )));
        }
        let xs: Vec<Vec<f64>> = peaks
            .iter()
            .map(|r| vec![r.data_size, r.ranks as f64])
            .collect();
        let ys: Vec<f64> = peaks.iter().map(|r| r.rate).collect();
        // Weak-scaling histories are perfectly collinear in (size, ranks);
        // fall back to a tiny ridge when the plain solve is singular.
        let fit = match LinearFit::fit(design, &xs, &ys) {
            Ok(fit) => fit,
            Err(_) => LinearFit::fit_ridge(design, &xs, &ys, 1e-9)?,
        };
        Ok(RateModel {
            fit,
            mode,
            direction,
        })
    }

    /// Fit with the paper's per-mode default design.
    pub fn fit(
        history: &History,
        mode: IoMode,
        direction: Direction,
    ) -> Result<RateModel, ModelError> {
        Self::fit_with_design(history, mode, direction, default_design(mode))
    }

    /// Predicted aggregate rate (bytes/s), floored at a tiny positive
    /// value so Eq. 3 never divides by zero on extrapolation.
    pub fn estimate_rate(&self, data_size: f64, ranks: u32) -> f64 {
        self.fit.predict(&[data_size, ranks as f64]).max(1e-6)
    }

    /// Eq. 3: `t_io = data_size / f_io_rate`.
    pub fn estimate_io_time(&self, data_size: f64, ranks: u32) -> f64 {
        data_size / self.estimate_rate(data_size, ranks)
    }

    /// Training-set coefficient of determination.
    pub fn r_squared(&self) -> f64 {
        self.fit.r_squared
    }

    /// The I/O mode this model was fitted on.
    pub fn mode(&self) -> IoMode {
        self.mode
    }

    /// The transfer direction this model was fitted on.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The regression design used for the fit.
    pub fn design(&self) -> Design {
        self.fit.design()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransferRecord;

    /// History shaped like the async path: rate linear in ranks.
    fn async_history() -> History {
        let mut h = History::new();
        for ranks in [6u32, 12, 48, 96, 384, 768] {
            let size = ranks as f64 * 32e6;
            h.push(TransferRecord {
                data_size: size,
                ranks,
                mode: IoMode::Async,
                direction: Direction::Write,
                rate: ranks as f64 / 6.0 * 10e9, // nodes × 10 GB/s
            });
        }
        h
    }

    /// History shaped like the sync path: saturating in ranks.
    fn sync_history() -> History {
        let mut h = History::new();
        for ranks in [6u32, 24, 96, 384, 1536, 6144] {
            let size = ranks as f64 * 32e6;
            let nodes = ranks as f64 / 6.0;
            let rate = (nodes * 2.7e9).min(330e9);
            h.push(TransferRecord {
                data_size: size,
                ranks,
                mode: IoMode::Sync,
                direction: Direction::Write,
                rate,
            });
        }
        h
    }

    #[test]
    fn async_linear_fit_is_tight() {
        let m = RateModel::fit(&async_history(), IoMode::Async, Direction::Write).unwrap();
        assert_eq!(m.design(), Design::Linear);
        // The paper reports r² above 90% for async fits.
        assert!(m.r_squared() > 0.9, "r² = {}", m.r_squared());
        // Interpolation: 192 ranks (32 nodes) should predict ~320 GB/s.
        let rate = m.estimate_rate(192.0 * 32e6, 192);
        assert!((rate / 320e9 - 1.0).abs() < 0.15, "rate {rate}");
    }

    #[test]
    fn sync_linearlog_fit_is_strong() {
        let m = RateModel::fit(&sync_history(), IoMode::Sync, Direction::Write).unwrap();
        assert_eq!(m.design(), Design::LinearLog);
        // The paper reports r² above 80% for sync fits.
        assert!(m.r_squared() > 0.8, "r² = {}", m.r_squared());
    }

    #[test]
    fn io_time_is_eq3() {
        let m = RateModel::fit(&async_history(), IoMode::Async, Direction::Write).unwrap();
        let size = 96.0 * 32e6;
        let t = m.estimate_io_time(size, 96);
        assert!((t - size / m.estimate_rate(size, 96)).abs() < 1e-12);
        assert!(t > 0.0);
    }

    #[test]
    fn fit_uses_peaks_not_noisy_repeats() {
        let mut h = History::new();
        for ranks in [8u32, 16, 32, 64] {
            let size = ranks as f64 * 1e6;
            let ideal = ranks as f64 * 1e9;
            // Three contended runs and one clean run per config.
            for factor in [0.4, 0.6, 0.5, 1.0] {
                h.push(TransferRecord {
                    data_size: size,
                    ranks,
                    mode: IoMode::Async,
                    direction: Direction::Write,
                    rate: ideal * factor,
                });
            }
        }
        let m = RateModel::fit(&h, IoMode::Async, Direction::Write).unwrap();
        // The fit must track the ideal (peak) rates.
        let rate = m.estimate_rate(32e6, 32);
        assert!((rate / 32e9 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn too_little_history_is_an_error() {
        let mut h = History::new();
        h.push(TransferRecord {
            data_size: 1e6,
            ranks: 8,
            mode: IoMode::Sync,
            direction: Direction::Write,
            rate: 1e9,
        });
        assert!(RateModel::fit(&h, IoMode::Sync, Direction::Write).is_err());
        // Wrong slice entirely.
        assert!(RateModel::fit(&h, IoMode::Async, Direction::Read).is_err());
    }

    #[test]
    fn rate_is_floored_positive() {
        // A degenerate fit extrapolated far out of range must not produce
        // a non-positive rate.
        let m = RateModel::fit(&sync_history(), IoMode::Sync, Direction::Write).unwrap();
        assert!(m.estimate_rate(1.0, 1) > 0.0);
    }
}
