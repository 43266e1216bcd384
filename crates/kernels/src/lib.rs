#![warn(missing_docs)]
//! # kernels — the paper's parallel I/O kernels (PIOK)
//!
//! Faithful re-implementations of the two I/O kernels the paper uses to
//! validate its model (§IV-B), each runnable two ways:
//!
//! - **Real engine** — [`run_real`]: ranks are OS threads writing or
//!   reading hyperslabs of shared `h5lite` datasets through a VOL
//!   connector (native, or async on the connector's one-shard ring,
//!   [`make_file`]), with real buffers and wall-clock measurement. Sizes are
//!   scaled down so the kernels run in test time; the *mechanism*
//!   (snapshots, background writes, prefetch) is exactly the at-scale one.
//! - **Simulator** — the same epoch structure executed by
//!   [`mpisim::run`] on the Summit/Cori machine models at paper scale (up
//!   to 12 288 ranks), in virtual time.
//!
//! Both take one [`mpisim::Workload`] and return one
//! [`mpisim::RunResult`], so anything written against a simulated run
//! (bandwidths, Eq. 2 terms, history building) reads a measured one.
//!
//! The two kernels are one HDF5 shape, 8 particle properties in 1-D
//! datasets with one hyperslab per rank and one time step per epoch, and
//! `w.direction` picks between them. VPIC-IO writes: every rank writes
//! 8 particle properties per time step, ~32 MiB per rank per checkpoint,
//! weak scaling. BD-CATS-IO reads the data VPIC-IO wrote, one time step
//! per analysis epoch, first read blocking, later reads prefetched.
//! [`vpic`] holds what both share: the property names, the generator and
//! the verifier.

pub mod measure;
pub mod vpic;

pub use measure::{make_file, run_real};
