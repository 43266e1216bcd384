#![warn(missing_docs)]
//! # argolite — concurrency checking for the background I/O path
//!
//! The HDF5 async VOL connector the paper evaluates runs its background I/O
//! on [Argobots](https://www.argobots.org) execution streams draining a
//! dependency-ordered queue. In this workspace that executor is the
//! `h5lite` ring: each dataset's writes, prefetches and other jobs are
//! entries in one per-key FIFO, run by the ring's reaper threads, and
//! every lock they share is an `h5lite::sync` lock. What remains here is
//! what checks the code running on it, and all of it is compiled only
//! under `debug-invariants` (without the feature the crate is empty):
//!
//! - `lock_order` — the lock-order graph recorder. h5lite's named locks
//!   report to it through `h5lite::sync::order_hook`, before blocking,
//!   and it panics at the acquisition closing a would-deadlock cycle.
//! - `explore` — a seeded schedule explorer that runs a graph of task
//!   bodies sequentially in permuted ready orders, checking lock order,
//!   guard hygiene and caller invariants after every step.

#[cfg(feature = "debug-invariants")]
pub mod explore;
#[cfg(feature = "debug-invariants")]
pub mod lock_order;
