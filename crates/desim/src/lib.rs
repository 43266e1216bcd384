#![warn(missing_docs)]
//! # desim — deterministic discrete-event simulation core
//!
//! The substrate under the HPC system models in this workspace. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: virtual time with nanosecond resolution,
//!   so a "30 second compute phase" costs nothing in wall-clock time.
//! - [`Engine`]: a deterministic event scheduler. Events scheduled for the
//!   same instant fire in insertion order, so a run with a fixed seed is
//!   byte-for-byte reproducible.
//! - [`resource`]: fluid-flow *processor-sharing* resources modelling shared
//!   bandwidth (a parallel file system, a NIC, a DRAM bus). Flows arrive,
//!   share capacity fairly subject to per-flow caps (water-filling), and
//!   complete; the resource re-plans completion times on every change.
//! - [`rng`]: small self-contained deterministic RNG (SplitMix64 /
//!   xoshiro256**) plus lognormal sampling for the contention model.
//! - [`stats`]: one-pass mean/variance, for Fig. 8's coefficient of
//!   variation.
//!
//! The engine is intentionally single-threaded: determinism and
//! reproducibility of the paper's figures matter more than simulator
//! parallelism at these event counts.

pub mod engine;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventId};
pub use resource::SharedResource;
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
