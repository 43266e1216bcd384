//! Trace time sources.
//!
//! Every [`Tracer`](crate::Tracer) reads timestamps through a
//! [`TraceClock`], so the same instrumentation produces wall-clock traces
//! in production ([`WallClock`]) and bit-identical traces in tests
//! ([`VirtualClock`]). Timestamps are nanoseconds since the clock's
//! origin — a monotonic offset, never an absolute date.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock for trace timestamps.
pub trait TraceClock: Send + Sync {
    /// Nanoseconds since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock time relative to the clock's creation (the default for real
/// runs).
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl TraceClock for WallClock {
    fn now_nanos(&self) -> u64 {
        let d = self.origin.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

/// A deterministic clock that only moves forward, and only when told to —
/// the substrate for byte-stable exporter goldens and trace-assertion
/// tests.
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at `start_nanos`.
    pub fn new(start_nanos: u64) -> Self {
        VirtualClock {
            nanos: AtomicU64::new(start_nanos),
        }
    }

    /// Advance the clock by `delta_nanos`.
    pub fn advance(&self, delta_nanos: u64) {
        self.nanos.fetch_add(delta_nanos, Ordering::SeqCst);
    }
}

impl TraceClock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_moves_only_when_told() {
        let c = VirtualClock::new(100);
        assert_eq!(c.now_nanos(), 100);
        assert_eq!(c.now_nanos(), 100);
        c.advance(50);
        assert_eq!(c.now_nanos(), 150);
    }
}
