//! Virtual time with nanosecond resolution.
//!
//! [`SimTime`] is an absolute instant on the simulated clock; [`SimDuration`]
//! is a span between instants. Both wrap a `u64` nanosecond count, which
//! covers ~584 simulated years — far beyond any experiment in this workspace.
//!
//! Floating-point seconds are only used at the edges (converting measured
//! rates and model outputs); all scheduling arithmetic is integral so event
//! ordering never depends on rounding.

use std::fmt;
use std::ops::{Add, Sub};

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of simulated time (nanosecond resolution).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel
    /// when a flow currently receives zero bandwidth.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Span of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Span of `s` whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Convert from floating-point seconds, saturating and flooring at zero.
    ///
    /// Negative and NaN inputs map to zero: model outputs occasionally go
    /// slightly negative through floating-point cancellation and must not
    /// panic the scheduler.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * NANOS_PER_SEC as f64;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "inf");
        }
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An absolute instant on the simulated clock. Time zero is the start of the
/// simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is later than self"),
        )
    }

    /// Addition saturating at "never", the last representable instant.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos()))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("SimTime overflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "t=never")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_from_negative_or_nan_is_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_huge_saturates() {
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(10);
        assert_eq!(t1.since(t0), SimDuration::from_secs(10));
        assert_eq!(t1 - t0, SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn time_since_panics_on_order_violation() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(1);
        let _ = t0.since(t1);
    }

    fn never() -> SimTime {
        SimTime::ZERO.saturating_add(SimDuration::MAX)
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(never().saturating_add(SimDuration::from_secs(1)), never());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::ZERO < never());
        assert!(SimDuration::from_nanos(999_999_999) < SimDuration::from_secs(1));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", SimDuration::from_secs(2)), "2.000000s");
        assert_eq!(format!("{:?}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{:?}", SimDuration::MAX), "inf");
        assert_eq!(format!("{:?}", never()), "t=never");
    }
}
