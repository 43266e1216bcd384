#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]
//! # apio-core — the paper's performance model
//!
//! An implementation of the analytical/empirical model of *"Evaluating
//! Asynchronous Parallel I/O on HPC Systems"* (§III):
//!
//! - [`epoch`] — the epoch-time equations. Eq. 1 composes an application
//!   from `t_init + Σ t_epoch + t_term`; Eq. 2a/2b give the synchronous
//!   and asynchronous epoch times; the three Fig. 1 scenarios (ideal /
//!   partial overlap / slowdown) fall out of the same arithmetic.
//! - [`regression`] — least squares via the normal equations
//!   `β = (XᵀX)⁻¹XᵀY` (Eq. 4) with the paper's two design choices:
//!   *linear* in `(data_size, ranks)` and *linear-log*; plus the
//!   coefficient of determination (Eq. 5).
//! - [`history`] — the record of past transfers the empirical model fits
//!   against: `(data size, ranks, mode, direction, observed rate)`, with a
//!   plain-text snapshot format for persistence across runs.
//! - [`estimator`] — the weighted-average compute-time estimator (§III-B).
//! - [`ratemodel`] — Eq. 3: `t_io = data_size / f_io_rate`, with the rate
//!   fitted from history per (mode, direction).
//! - [`advisor`] — the decision procedure: given estimated compute time,
//!   I/O time, and transactional overhead, recommend synchronous or
//!   asynchronous I/O for the next epoch.
//! - [`adaptive`] — the Fig. 2 feedback loop: observations stream in from
//!   the I/O library's instrumentation, the history updates, and each
//!   epoch gets a fresh recommendation. With drift detection enabled, a
//!   Page–Hinkley alarm on the observed rate forgets the stale regime
//!   and forces a refit (the runtime half of Fig. 2).
//! - [`report`] — the operator dashboard: counters, percentiles, advisor
//!   decisions, drift alarms, breaker/recovery state rendered as text
//!   and as a machine-readable JSON snapshot.
//!
//! The crate is deliberately independent of the connector and simulator
//! crates: it consumes plain observations and produces plain estimates, so
//! it can be embedded in a real I/O library (as the paper proposes) or in
//! the simulator's figure harnesses.

pub mod adaptive;
pub mod advisor;
pub mod epoch;
pub mod error_msg;
pub mod estimator;
pub mod history;
pub mod ratemodel;
pub mod regression;
pub mod report;

pub use adaptive::{AdaptiveRuntime, DriftPolicy, Observation};
pub use advisor::{Advice, ModeAdvisor};
pub use epoch::{async_epoch_time, sync_epoch_time, app_time, EpochParams, Scenario};
pub use error_msg::ModelError;
pub use estimator::CompEstimator;
pub use history::{Direction, History, IoMode, TransferRecord};
pub use ratemodel::RateModel;
pub use regression::{r2_simple, Design, LinearFit};
pub use report::{IntegritySummary, RecoverySummary, ReportBuilder, StragglerEpoch, StragglerReport};
