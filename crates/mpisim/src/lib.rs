#![warn(missing_docs)]
//! # mpisim — simulated MPI jobs and the epoch-loop runners
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
//! - [`runner`] — two independent executions of the same workload:
//!   [`runner::run_analytic`] (closed-form timeline arithmetic) and
//!   [`runner::run_des`] (event-driven on the [`desim`] engine, with the
//!   file system as a processor-sharing resource). Their agreement on
//!   uniform workloads is asserted in tests; the DES runner additionally
//!   captures background-write queueing across epochs.
//! - [`attribution`] — the cross-rank observability path (DESIGN.md
//!   §16): [`runner::trace_rank_streams`] re-enacts a run as one
//!   context-tagged span stream per rank, and
//!   [`attribution::straggler_report`] folds `apio_trace::critpath`'s
//!   analysis into the operator report's straggler section. The
//!   [`workload::Perturbation`] knob (seeded straggler/jitter) makes the
//!   attribution testable end-to-end.

pub mod attribution;
pub mod comm;
pub mod runner;
pub mod workload;

pub use attribution::{predicted_overlap_efficiency, straggler_report};
pub use comm::{CollectiveMode, Job};
pub use runner::{run, run_analytic, run_des, trace_rank_streams};
pub use workload::{Perturbation, PhaseMeasure, RunConfig, RunResult, Workload};
