#![warn(missing_docs)]
//! # mpisim — simulated MPI jobs and the epoch-loop executor
//!
//! The paper's workloads are bulk-synchronous: every rank alternates a
//! computation phase with a collective I/O phase. This crate provides:
//!
//! - [`comm`] — a [`comm::Job`]: a rank set placed on a machine model,
//!   with barrier and collective-phase timing.
//! - [`workload`] — the epoch-structured workload description
//!   ([`workload::Workload`]) and the measurements a run produces
//!   ([`workload::RunResult`], [`workload::PhaseMeasure`]). A phase's
//!   *visible* I/O time is the time the application thread is blocked —
//!   the full transfer for synchronous I/O, only the transactional
//!   snapshot (plus any un-overlapped remainder) for asynchronous I/O.
//!   This matches the paper's measurement: "the measured time of read or
//!   write operations includes the transactional overhead".
//! - [`runner`] — the executor: [`runner::run`] walks the paper's
//!   Eq. 1–2 epoch by epoch in closed form, plus buffer depth and the
//!   prefetch chain. An event-driven run of the same semantics on the
//!   [`desim`] engine (the file system as a processor-sharing resource,
//!   genuinely blocking waits) is its test-only oracle: agreement to
//!   1e-6 on every field is asserted in the crate's tests, and nothing
//!   outside them can select it — it regenerates every figure
//!   byte-identically but 570 × slower.
//! - [`attribution`] — straggler attribution (DESIGN.md §16):
//!   [`attribution::straggler_report`] splits each epoch of a finished
//!   run rank by rank into the operator report's straggler section. The
//!   [`workload::Perturbation`] knob (seeded straggler/jitter) makes the
//!   attribution testable end-to-end.

pub mod attribution;
pub mod comm;
#[cfg(test)]
mod oracle;
pub mod runner;
pub mod workload;

pub use attribution::{predicted_overlap_efficiency, straggler_report};
pub use comm::{CollectiveMode, Job};
pub use runner::run;
pub use workload::{Perturbation, PhaseMeasure, RunConfig, RunResult, Workload};
