//! Circuit breaker: async → sync graceful degradation.
//!
//! When the storage device fails persistently, pushing more work onto
//! the background streams just converts every `wait` into an error and
//! loses the writes. After `failure_threshold` *consecutive* background
//! device failures the breaker opens and the connector degrades to
//! synchronous passthrough: writes run on the caller's thread (correct
//! but slow, and the failure — if it persists — is returned to the
//! caller immediately, so no acknowledged write is ever lost to a dead
//! pipeline).
//!
//! While open, every `probe_after`-th issue is dispatched as a single
//! asynchronous *probe* (half-open state). A probe that completes
//! cleanly closes the breaker and restores async mode; a probe that hits
//! a device fault reopens it. Only device faults
//! ([`h5lite::H5Error::is_device_fault`]) move the state machine — a
//! caller repeatedly issuing bad-shape writes must not degrade the
//! pipeline.
//!
//! ```text
//!            K consecutive device failures
//!   Closed ─────────────────────────────────▶ Open
//!     ▲                                        │ probe_after degraded
//!     │ probe succeeds                         ▼ issues
//!   HalfOpen ◀───────────────────────────── (probe dispatched)
//!     │ probe hits a device fault
//!     └───────────────────────────────────▶ Open (again)
//! ```
//!
//! Transitions are reported through the stats counters
//! (`breaker_opens` / `breaker_closes` / `probes`) and — because
//! degraded writes emit [`OpKind::DegradedWrite`](crate::OpKind)
//! records — through the observer, so the model layer's `ModeAdvisor`
//! sees the regime change in its feedback loop.

use std::sync::Arc;

use argolite::sync::Mutex;
use h5lite::{H5Error, Result};

use crate::stats::StatsCells;

/// Tuning for the async→sync degradation state machine.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive background device failures that trip the breaker.
    pub failure_threshold: u32,
    /// While open: number of degraded issues between async probes.
    pub probe_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            probe_after: 4,
        }
    }
}

/// Breaker state (see the module docs for the transition diagram).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Normal asynchronous operation.
    Closed,
    /// Degraded: writes run synchronously on the caller's thread.
    Open,
    /// A probe write is in flight; still degraded until it succeeds.
    HalfOpen,
}

struct Inner {
    state: BreakerState,
    /// Consecutive device failures while closed.
    consecutive_failures: u32,
    /// Issues routed degraded since the breaker opened (or last probe).
    degraded_since_open: u32,
}

/// Where the breaker routes one write issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Route {
    /// Dispatch to the background streams. `probe: true` marks the
    /// half-open trial whose outcome decides recovery.
    Async {
        /// Whether this dispatch is the half-open probe.
        probe: bool,
    },
    /// Execute synchronously on the caller's thread.
    Degraded,
}

/// Shared async→sync degradation state machine. Cloning shares state.
#[derive(Clone)]
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Arc<Mutex<Inner>>,
}

impl CircuitBreaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            inner: Arc::new(Mutex::new_named(
                "asyncvol.breaker",
                Inner {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    degraded_since_open: 0,
                },
            )),
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Whether writes are currently degraded to synchronous passthrough.
    pub(crate) fn is_degraded(&self) -> bool {
        self.state() != BreakerState::Closed
    }

    /// Route the next write issue. Open-state bookkeeping happens here:
    /// every `probe_after`-th issue while open becomes the half-open
    /// probe.
    pub(crate) fn route(&self, stats: &StatsCells) -> Route {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Route::Async { probe: false },
            BreakerState::HalfOpen => Route::Degraded,
            BreakerState::Open => {
                inner.degraded_since_open += 1;
                if inner.degraded_since_open >= self.cfg.probe_after {
                    inner.state = BreakerState::HalfOpen;
                    inner.degraded_since_open = 0;
                    stats.record_probe();
                    stats.trace_breaker("open", "half-open");
                    Route::Async { probe: true }
                } else {
                    Route::Degraded
                }
            }
        }
    }

    /// The one decision table: what a write's outcome does to the state
    /// machine (DESIGN.md §8). `dispatched` is whether the write got as
    /// far as the container — false when it failed on the issuing thread
    /// first (planning, WAL append). Only device faults count against the
    /// device: a malformed request must not degrade the pipeline.
    pub(crate) fn resolve(
        &self,
        outcome: &Result<()>,
        probe: Option<ProbeGuard>,
        dispatched: bool,
        stats: &StatsCells,
    ) {
        let fault = outcome.as_ref().is_err_and(H5Error::is_device_fault);
        match (fault, dispatched, probe) {
            (true, _, Some(guard)) => guard.device_fault(), // reopen
            (true, _, None) => self.on_device_failure(false, stats), // streak + 1, may trip
            (false, true, Some(guard)) => guard.success(), // the device is fine: close
            (false, true, None) => self.on_success(false, stats), // streak = 0
            // The device was not tried: no evidence either way. A probe
            // reverts HalfOpen → Open as it drops.
            (false, false, probe) => drop(probe),
        }
    }

    /// A routed operation completed without a device fault.
    fn on_success(&self, probe: bool, stats: &StatsCells) {
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        if probe && inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Closed;
            stats.record_breaker_close();
            stats.trace_breaker("half-open", "closed");
        }
    }

    /// RAII tracking for a dispatched half-open probe: call immediately
    /// after [`route`](Self::route) returns `Async { probe: true }`. The
    /// guard must be resolved with [`ProbeGuard::success`] or
    /// [`ProbeGuard::device_fault`]; dropping it unresolved (the staging
    /// append failed before the probe task was spawned, or the probe
    /// task panicked) reverts HalfOpen → Open so a later issue can probe
    /// again instead of stranding the connector in degraded mode.
    pub(crate) fn probe_guard(&self, stats: &StatsCells) -> ProbeGuard {
        ProbeGuard {
            breaker: self.clone(),
            stats: stats.clone(),
            done: false,
        }
    }

    /// A routed operation failed with a device fault (transient faults
    /// that exhausted their retries included).
    fn on_device_failure(&self, probe: bool, stats: &StatsCells) {
        let mut inner = self.inner.lock();
        if probe {
            if inner.state == BreakerState::HalfOpen {
                inner.state = BreakerState::Open;
                inner.degraded_since_open = 0;
                stats.record_breaker_open();
                stats.trace_breaker("half-open", "open");
            }
            return;
        }
        inner.consecutive_failures += 1;
        if inner.state == BreakerState::Closed
            && inner.consecutive_failures >= self.cfg.failure_threshold
        {
            inner.state = BreakerState::Open;
            inner.degraded_since_open = 0;
            inner.consecutive_failures = 0;
            stats.record_breaker_open();
            stats.trace_breaker("closed", "open");
        }
    }
}

/// Tracks one dispatched half-open probe; see
/// [`CircuitBreaker::probe_guard`]. Every probe must resolve exactly
/// once — by outcome, or by the drop-revert.
#[must_use = "an unresolved guard reverts the probe on drop"]
pub(crate) struct ProbeGuard {
    breaker: CircuitBreaker,
    stats: StatsCells,
    done: bool,
}

impl ProbeGuard {
    /// The probe completed without a device fault: close the breaker.
    fn success(mut self) {
        self.done = true;
        self.breaker.on_success(true, &self.stats);
    }

    /// The probe hit a device fault: reopen the breaker.
    fn device_fault(mut self) {
        self.done = true;
        self.breaker.on_device_failure(true, &self.stats);
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // The probe never reported an outcome (aborted before dispatch,
        // or its task panicked). Revert so the open-state counter can
        // dispatch a fresh probe on a later issue.
        let mut inner = self.breaker.inner.lock();
        if inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Open;
            inner.degraded_since_open = 0;
            self.stats.trace_breaker("half-open", "open");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, probe_after: u32) -> (CircuitBreaker, StatsCells) {
        (
            CircuitBreaker::new(BreakerConfig {
                failure_threshold: threshold,
                probe_after,
            }),
            StatsCells::new(),
        )
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let (b, s) = breaker(3, 2);
        b.on_device_failure(false, &s);
        b.on_device_failure(false, &s);
        b.on_success(false, &s); // success resets the streak
        b.on_device_failure(false, &s);
        b.on_device_failure(false, &s);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_device_failure(false, &s);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(s.snapshot().breaker_opens, 1);
    }

    #[test]
    fn open_routes_degraded_then_probes() {
        let (b, s) = breaker(1, 3);
        b.on_device_failure(false, &s);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.route(&s), Route::Degraded);
        assert_eq!(b.route(&s), Route::Degraded);
        assert_eq!(b.route(&s), Route::Async { probe: true });
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While the probe is in flight, further issues stay degraded.
        assert_eq!(b.route(&s), Route::Degraded);
        assert_eq!(s.snapshot().probes, 1);
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let (b, s) = breaker(1, 1);
        b.on_device_failure(false, &s);
        assert_eq!(b.route(&s), Route::Async { probe: true });
        b.on_device_failure(true, &s);
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");

        assert_eq!(b.route(&s), Route::Async { probe: true });
        b.on_success(true, &s);
        assert_eq!(b.state(), BreakerState::Closed, "clean probe recovers");
        assert_eq!(b.route(&s), Route::Async { probe: false });
        let snap = s.snapshot();
        assert_eq!(snap.breaker_opens, 2);
        assert_eq!(snap.breaker_closes, 1);
        assert_eq!(snap.probes, 2);
    }

    #[test]
    fn dropped_probe_guard_reverts_half_open_to_open() {
        let (b, s) = breaker(1, 1);
        b.on_device_failure(false, &s);
        assert_eq!(b.route(&s), Route::Async { probe: true });
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe is abandoned (e.g. its staging append failed before
        // dispatch): dropping the guard must not strand HalfOpen.
        drop(b.probe_guard(&s));
        assert_eq!(b.state(), BreakerState::Open);
        // A later issue probes again and can still recover.
        assert_eq!(b.route(&s), Route::Async { probe: true });
        b.probe_guard(&s).success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn resolved_probe_guard_does_not_double_report() {
        let (b, s) = breaker(1, 1);
        b.on_device_failure(false, &s);
        assert_eq!(b.route(&s), Route::Async { probe: true });
        b.probe_guard(&s).device_fault(); // resolve + drop
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(s.snapshot().breaker_opens, 2, "one open per report");
    }

    /// Every row of [`CircuitBreaker::resolve`]: {ok, device fault,
    /// other error} × {probe riding, none} × {dispatched, not}. Without a
    /// probe the breaker starts Closed one failure short of tripping;
    /// with one it starts HalfOpen after a single trip.
    #[test]
    fn resolve_decision_table() {
        use BreakerState::{Closed, Open};
        let ok = || Ok(());
        let fault = || Err(H5Error::Storage("dead device".into()));
        let other = || Err(H5Error::ShapeMismatch("bad request".into()));
        type Row = (fn() -> Result<()>, bool, bool, BreakerState, u64, u64, u32);
        // (outcome, probe, dispatched) → (state, opens, closes, streak)
        let rows: [Row; 12] = [
            (ok, false, true, Closed, 0, 0, 0),
            (fault, false, true, Open, 1, 0, 0), // second in a row: trips
            (other, false, true, Closed, 0, 0, 0),
            (ok, false, false, Closed, 0, 0, 1), // cannot happen; no evidence
            (fault, false, false, Open, 1, 0, 0),
            (other, false, false, Closed, 0, 0, 1), // device untried: streak kept
            (ok, true, true, Closed, 1, 1, 0),
            (fault, true, true, Open, 2, 0, 0),
            (other, true, true, Closed, 1, 1, 0), // the device was fine
            (ok, true, false, Open, 1, 0, 0),
            (fault, true, false, Open, 2, 0, 0),
            (other, true, false, Open, 1, 0, 0), // drop-revert, not a new open
        ];
        for (i, (outcome, probe, dispatched, state, opens, closes, streak)) in
            rows.into_iter().enumerate()
        {
            let (b, s) = breaker(if probe { 1 } else { 2 }, 1);
            b.on_device_failure(false, &s);
            let guard = probe.then(|| {
                assert_eq!(b.route(&s), Route::Async { probe: true });
                b.probe_guard(&s)
            });
            b.resolve(&outcome(), guard, dispatched, &s);
            let snap = s.snapshot();
            assert_eq!(b.state(), state, "row {i}: state");
            assert_eq!(snap.breaker_opens, opens, "row {i}: opens");
            assert_eq!(snap.breaker_closes, closes, "row {i}: closes");
            assert_eq!(b.inner.lock().consecutive_failures, streak, "row {i}: streak");
            if probe && state == Open {
                // Reopened or reverted, a later issue can probe again.
                assert_eq!(b.route(&s), Route::Async { probe: true }, "row {i}");
            }
        }
    }

    #[test]
    fn non_probe_success_does_not_close_an_open_breaker() {
        let (b, s) = breaker(1, 100);
        b.on_device_failure(false, &s);
        b.on_success(false, &s); // e.g. a degraded write that worked
        assert_eq!(b.state(), BreakerState::Open);
    }
}
