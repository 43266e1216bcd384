//! Capped exponential backoff with seeded jitter for background storage
//! operations.
//!
//! The HDF5 async VOL defers errors to wait time; this module keeps most
//! of them from existing at all. A background task wraps each storage
//! operation in [`with_backoff`]: transient failures
//! ([`h5lite::H5Error::is_retryable`]) are retried with exponentially
//! growing, jittered delays until either the attempt bound or the
//! per-request deadline is hit; fatal errors pass through untouched on
//! the first attempt. Jitter is drawn from a deterministic LCG seeded
//! from the policy seed and a per-request salt, so a seeded chaos run
//! retries identically every time.

use std::time::{Duration, Instant};

use h5lite::storage::Lcg;
use h5lite::Result;

use crate::stats::StatsCells;

/// Retry policy for background storage operations.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Wall-clock budget per request, measured from when the operation
    /// first started. A bound, not advisory: once exceeded no further
    /// retry is attempted, and a backoff sleep that would outlast the
    /// remaining budget is skipped entirely — total elapsed time can
    /// overshoot the deadline by at most one operation, never by a
    /// sleep.
    pub deadline: Duration,
    /// Seed for the jitter generator (combined with a per-request salt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — for measuring the zero-overhead
    /// property of the retry path, or for callers that want the original
    /// fail-fast behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based), jittered into
    /// `[50%, 100%]` of the exponential value.
    fn delay_for(&self, attempt: u32, rng: &mut Lcg) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(20))
            .min(self.max_delay);
        exp.mul_f64(0.5 + 0.5 * rng.unit())
    }
}

/// Run `op`, retrying retryable failures with capped exponential backoff.
///
/// `started` anchors the deadline (callers that stage-then-write share
/// one deadline across both phases by passing the same instant). `salt`
/// decorrelates jitter across concurrent requests. Each retry bumps the
/// stats retry counter; a success on attempt > 1 bumps the
/// retry-success counter. Bounded by BOTH `max_attempts` and `deadline`.
pub(crate) fn with_backoff<T>(
    policy: &RetryPolicy,
    salt: u64,
    started: Instant,
    stats: &StatsCells,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut rng = Lcg::new(policy.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => {
                if attempt > 1 {
                    stats.record_retry_success();
                }
                return Ok(v);
            }
            Err(e) => {
                if !e.is_retryable() || attempt >= policy.max_attempts {
                    return Err(e);
                }
                // Deadline check, and clamp: never start a sleep that
                // would eat past the remaining budget — the backoff
                // must not be the thing that overshoots the deadline.
                let remaining = match policy.deadline.checked_sub(started.elapsed()) {
                    Some(r) if !r.is_zero() => r,
                    _ => return Err(e),
                };
                let delay = policy.delay_for(attempt, &mut rng);
                if delay >= remaining {
                    return Err(e);
                }
                stats.record_retry_attempt(attempt, delay.as_nanos() as u64);
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h5lite::H5Error;

    fn flaky(fail_times: u32) -> impl FnMut() -> Result<u32> {
        let mut calls = 0u32;
        move || {
            calls += 1;
            if calls <= fail_times {
                Err(H5Error::Transient("busy".into()))
            } else {
                Ok(calls)
            }
        }
    }

    #[test]
    fn transient_failures_are_absorbed() {
        let stats = StatsCells::new();
        let policy = RetryPolicy {
            base_delay: Duration::from_micros(10),
            ..Default::default()
        };
        let calls = with_backoff(&policy, 1, Instant::now(), &stats, flaky(3)).unwrap();
        assert_eq!(calls, 4);
        let s = stats.snapshot();
        assert_eq!(s.retries, 3);
        assert_eq!(s.retry_successes, 1);
    }

    #[test]
    fn fatal_errors_fail_fast() {
        let stats = StatsCells::new();
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let err = with_backoff(&policy, 1, Instant::now(), &stats, || {
            calls += 1;
            Err::<(), _>(H5Error::Storage("dead".into()))
        })
        .unwrap_err();
        assert!(matches!(err, H5Error::Storage(_)));
        assert_eq!(calls, 1, "fatal errors must not be retried");
        assert_eq!(stats.snapshot().retries, 0);
    }

    #[test]
    fn attempt_bound_is_respected() {
        let stats = StatsCells::new();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(10),
            ..Default::default()
        };
        let err = with_backoff(&policy, 1, Instant::now(), &stats, flaky(100)).unwrap_err();
        assert!(err.is_retryable(), "last error surfaces as-is");
        assert_eq!(stats.snapshot().retries, 2, "3 attempts = 2 retries");
    }

    #[test]
    fn deadline_bounds_total_time() {
        let stats = StatsCells::new();
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(5),
            deadline: Duration::from_millis(25),
            seed: 7,
        };
        let t0 = Instant::now();
        let err = with_backoff(&policy, 1, t0, &stats, flaky(u32::MAX)).unwrap_err();
        assert!(err.is_retryable());
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "deadline must cut the loop"
        );
    }

    #[test]
    fn backoff_sleep_never_overshoots_the_deadline() {
        let stats = StatsCells::new();
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(50),
            deadline: Duration::from_millis(5),
            seed: 1,
        };
        let t0 = Instant::now();
        let err = with_backoff(&policy, 1, t0, &stats, flaky(u32::MAX)).unwrap_err();
        assert!(err.is_retryable());
        // The first backoff (jittered into [25, 50] ms) would outlast
        // the 5 ms budget: it must be skipped, not slept through.
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "sleep must be clamped to the deadline budget"
        );
        assert_eq!(stats.snapshot().retries, 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_salt() {
        let p = RetryPolicy::default();
        let delays = |seed: u64, salt: u64| {
            let mut rng = Lcg::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (1..=4u32).map(|a| p.delay_for(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(delays(1, 9), delays(1, 9));
        assert_ne!(delays(1, 9), delays(1, 10));
        // Exponential shape: each cap-free delay at least half the
        // previous maximum, never above max_delay.
        for d in delays(3, 3) {
            assert!(d <= p.max_delay);
        }
    }

    #[test]
    fn zero_retry_policy_is_passthrough() {
        let stats = StatsCells::new();
        let err = with_backoff(&RetryPolicy::none(), 0, Instant::now(), &stats, flaky(1))
            .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(stats.snapshot().retries, 0);
    }
}
