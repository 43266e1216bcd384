//! # apio — Asynchronous Parallel I/O for HPC
//!
//! A reproduction of *"Evaluating Asynchronous Parallel I/O on HPC Systems"*
//! (Ravi, Byna, Koziol, Tang, Becchi — IPDPS 2023) as a production-quality
//! Rust workspace. This facade crate re-exports the whole stack:
//!
//! - [`desim`] — deterministic discrete-event simulation core.
//! - [`platform`] — calibrated Summit (GPFS) and Cori-Haswell (Lustre)
//!   system models: file systems, memcpy/GPU-link/NVMe models, contention.
//! - [`mpisim`] — simulated MPI ranks, barriers, and collective I/O.
//! - [`argolite`] — concurrency checking for the background I/O path
//!   (under `debug-invariants`): the lock-order recorder h5lite's named
//!   locks report to, and a seeded schedule explorer.
//! - [`h5lite`] — a self-describing HDF5-like container format with a
//!   Virtual Object Layer (VOL) hook point.
//! - [`asyncvol`] — the asynchronous VOL connector: background-thread I/O
//!   with transactional snapshot buffers and read prefetching.
//! - [`trace`] (crate `apio-trace`) — zero-dependency structured tracing
//!   and metrics: RAII spans, typed events, counters, and Chrome
//!   `trace_event` / JSONL exporters (DESIGN.md §10).
//! - [`model`] (crate `apio-core`) — the paper's contribution: the epoch
//!   performance model (Eq. 1–5), history-driven rate regression, and the
//!   sync-vs-async mode advisor.
//! - [`kernels`] — the VPIC-IO and BD-CATS-IO parallel I/O kernels.
//! - [`apps`] — Nyx, Castro, EQSIM, and Cosmoflow workload models.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for writing a dataset asynchronously with
//! the real engine, and `examples/scenarios.rs` for the paper's Fig. 1
//! overlap scenarios evaluated through the model.

pub mod crashpoint;

pub use apio_core as model;
pub use apio_trace as trace;
pub use apps;
pub use argolite;
pub use asyncvol;
pub use desim;
pub use h5lite;
pub use kernels;
pub use mpisim;
pub use platform;
