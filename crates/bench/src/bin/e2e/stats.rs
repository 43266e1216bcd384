//! Order statistics over benchmark samples: median, quartiles, MAD and
//! the tail percentile a sample count can support.
//!
//! Quantiles use the exclusive method (`pos = q·(n+1)`, linear
//! interpolation) — the one Python's `statistics.quantiles` defaults to,
//! so the spreads `--check-repeat` prints are the spreads the driver
//! computes from the same values.

/// Tail percentiles worth naming, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail needs this many samples beyond it to be more than an anecdote.
const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending, non-empty slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = (q * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-th percentile of `xs` (0.0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(xs), p / 100.0)
}

/// The median of `xs` (0.0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Five-number summary plus the median absolute deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mad: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let v = sorted(xs);
        let median = quantile_sorted(&v, 0.5);
        let dev: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median,
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
            mad: self::median(&dev),
        })
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// driver holds against a metric's bound.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
    /// Samples strictly above `value`'s rank.
    pub beyond: usize,
}

/// `None` when even the median has fewer than ten samples beyond it
/// (n < 20): no tail is reported rather than a noisy one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    // Whole samples beyond the `p`-th percentile; the nudge keeps
    // 100 x 0.1 from flooring to 9.
    let beyond = |p: f64| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
    let p = LADDER.iter().copied().rfind(|&p| beyond(p) >= MIN_BEYOND)?;
    Some(Tail {
        percentile: p,
        value: percentile(xs, p),
        n,
        beyond: beyond(p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn mad_is_median_of_absolute_deviations() {
        // median 3; |x - 3| = [2, 1, 0, 1, 97] → MAD 1: the outlier
        // that wrecks a standard deviation does not move it.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn single_sample_and_empty() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max, s.mad),
            (7.0, 7.0, 7.0, 7.0, 7.0, 0.0)
        );
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert!(tail(&xs(19)).is_none(), "n < 20: no tail reported");
        assert_eq!(tail(&xs(20)).unwrap().percentile, 50.0);
        assert_eq!(tail(&xs(99)).unwrap().percentile, 75.0);
        let t = tail(&xs(100)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.n), (90.0, 10, 100));
        assert_eq!(tail(&xs(150)).unwrap().percentile, 90.0);
        assert_eq!(tail(&xs(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&xs(1000)).unwrap().percentile, 99.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // pos = 0.9 * 101 - 1 = 89.9 → between 90 and 91.
        assert!((percentile(&xs, 90.0) - 90.9).abs() < 1e-9);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }
}
