#![warn(missing_docs)]
//! # desim — deterministic simulation primitives
//!
//! The small substrate under the HPC system models in this workspace:
//!
//! - [`rng`]: small self-contained deterministic RNG (SplitMix64 /
//!   xoshiro256**) plus lognormal sampling for the contention model;
//!   `mpisim`'s seeded perturbations draw from [`rng::splitmix64`].
//! - [`stats`]: one-pass mean/variance, for Fig. 8's coefficient of
//!   variation.
//! - [`SimTime`] / [`SimDuration`], [`Engine`] and [`resource`]: virtual
//!   time with nanosecond resolution, a deterministic event scheduler
//!   (events at one instant fire in insertion order) and fluid-flow
//!   *processor-sharing* resources (flows share capacity max-min fairly
//!   under per-flow caps; completions are re-planned on every change).
//!   No executor runs on them: the simulator's epoch loop is closed form
//!   (`mpisim::run`, checked against Eq. 2c in `apio_core::epoch`). They
//!   hold the one thing the closed form assumes and does not derive —
//!   that a collective phase of capped flows on the file system's server
//!   term takes what `mpisim::Job::collective_io_time` charges, the
//!   `min` of the client and server terms — in the root package's
//!   `tests/properties.rs`, beside their own conservation and
//!   determinism properties.

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
