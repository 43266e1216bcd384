//! Compute-time estimation (§III-B).
//!
//! "We measure the computation time directly in the application and use a
//! weighted average over the measurements taken in previous iterations to
//! estimate the computation time of the next iteration." This is an
//! exponentially weighted moving average: recent epochs count more, so
//! the estimate tracks applications whose per-epoch compute drifts (AMR
//! refinement, convergence phases) while smoothing measurement noise.

/// Weight of the newest sample, a common EWMA choice balancing
/// responsiveness against noise.
const ALPHA: f64 = 0.3;

/// Exponentially weighted moving average (α = 0.3) of per-epoch compute
/// times.
#[derive(Clone, Debug, Default)]
pub struct CompEstimator {
    value: Option<f64>,
    n: u64,
}

impl CompEstimator {
    /// An estimator with no observations yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measured compute phase.
    pub fn observe(&mut self, t_comp: f64) {
        assert!(t_comp >= 0.0 && t_comp.is_finite(), "invalid compute time");
        self.n += 1;
        self.value = Some(match self.value {
            None => t_comp,
            Some(prev) => ALPHA * t_comp + (1.0 - ALPHA) * prev,
        });
    }

    /// Estimate of the next epoch's compute phase; `None` before any
    /// observation.
    pub fn estimate(&self) -> Option<f64> {
        self.value
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimator_has_no_estimate() {
        assert_eq!(CompEstimator::new().estimate(), None);
    }

    #[test]
    fn first_observation_is_the_estimate() {
        let mut e = CompEstimator::new();
        e.observe(30.0);
        assert_eq!(e.estimate(), Some(30.0));
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn constant_signal_estimates_exactly() {
        let mut e = CompEstimator::new();
        for _ in 0..50 {
            e.observe(2.5);
        }
        assert!((e.estimate().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ewma_recurrence() {
        let mut e = CompEstimator::new();
        e.observe(10.0);
        e.observe(20.0); // 0.3*20 + 0.7*10 = 13
        assert!((e.estimate().unwrap() - 13.0).abs() < 1e-12);
        e.observe(0.0); // 0.3*0 + 0.7*13 = 9.1
        assert!((e.estimate().unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn tracks_a_level_shift() {
        let mut e = CompEstimator::new();
        for _ in 0..20 {
            e.observe(10.0);
        }
        for _ in 0..30 {
            e.observe(50.0);
        }
        let est = e.estimate().unwrap();
        assert!((est - 50.0).abs() < 0.01, "converged to new level, got {est}");
    }

    #[test]
    #[should_panic(expected = "invalid compute time")]
    fn nan_observation_rejected() {
        CompEstimator::new().observe(f64::NAN);
    }
}
