#![warn(missing_docs)]
//! # kernels — the paper's parallel I/O kernels (PIOK)
//!
//! Faithful re-implementations of the two I/O kernels the paper uses to
//! validate its model (§IV-B), each runnable two ways:
//!
//! - **Real engine** — ranks are OS threads writing/reading hyperslabs of
//!   shared `h5lite` datasets through a VOL connector (native or async),
//!   with real buffers and wall-clock measurement. Sizes are scaled down
//!   so the kernels run in test time; the *mechanism* (snapshot copies,
//!   background streams, prefetch) is exactly the at-scale one.
//! - **Simulator** — the same epoch structure executed by
//!   [`mpisim::run`] on the Summit/Cori machine models at paper scale (up
//!   to 12 288 ranks), in virtual time.
//!
//! Both take one [`mpisim::Workload`] and return one
//! [`mpisim::RunResult`], so anything written against a simulated run
//! (bandwidths, Eq. 2 terms, history building) reads a measured one.
//!
//! [`vpic`] is the write kernel: every rank writes 8 particle properties
//! per time step, ~32 MiB per rank per checkpoint, weak scaling.
//! [`bdcats`] is the read kernel: it reads the data VPIC-IO wrote, one
//! time step per analysis epoch, first read blocking, later reads
//! prefetched.

pub mod bdcats;
pub mod measure;
pub mod vpic;

pub use measure::make_file;
