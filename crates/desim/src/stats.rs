//! Summary statistics for experiment harnesses.
//!
//! [`OnlineStats`] is a Welford accumulator: numerically stable mean and
//! variance in one pass. The contention model's tests and Fig. 8's
//! coefficient of variation are computed with it.

/// One-pass mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (divide by n).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean) — the paper's variability
    /// comparison (Fig. 8) reduces to this.
    pub fn cv(&self) -> f64 {
        self.std_dev() / self.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
    }

    #[test]
    fn known_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }
}
