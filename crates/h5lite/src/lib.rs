#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
//! # h5lite — a self-describing container format with a VOL layer
//!
//! A from-scratch reimplementation of the parts of HDF5 that the paper's
//! evaluation exercises, in the same architectural shape:
//!
//! - **Container format** ([`container`]): a single file holding a
//!   superblock, an object tree (groups linking to datasets), typed
//!   N-dimensional datasets with contiguous or chunked layout, and
//!   attributes. Metadata is serialized with a stable little-endian codec
//!   ([`codec`]); data lives in extents allocated from the same address
//!   space. Files written by one process reopen correctly from another.
//! - **Storage backends** ([`storage`]): a page-sharded in-memory backend
//!   for tests and a positional-I/O file backend (`pread`/`pwrite`)
//!   supporting concurrent access from background I/O threads. Both speak
//!   scalar and *vectored* (scatter-gather) operations; the I/O planner
//!   ([`plan`]) coalesces selections into vectored batches so strided
//!   access patterns don't degenerate into per-run request storms.
//! - **Virtual Object Layer** ([`vol`]): every public operation routes
//!   through a [`vol::Vol`] connector, exactly like HDF5's VOL. The
//!   built-in [`native::NativeVol`] executes synchronously; the `asyncvol`
//!   crate provides the asynchronous connector the paper evaluates.
//! - **Public API** ([`api`]): [`File`], [`Group`], [`Dataset`] handles
//!   mirroring `H5F`/`H5G`/`H5D`, with typed reads/writes and hyperslab
//!   selections.
//!
//! ## Example
//!
//! ```
//! use h5lite::{File, Dataspace};
//!
//! let file = File::create_in_memory().unwrap();
//! let group = file.root().create_group("particles").unwrap();
//! let ds = group
//!     .create_dataset::<f32>("x", &Dataspace::d1(1024))
//!     .unwrap();
//! let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
//! ds.write(&data).unwrap();
//! let back: Vec<f32> = ds.read().unwrap();
//! assert_eq!(data, back);
//! ```

pub mod api;
pub mod checksum;
pub mod codec;
pub mod container;
pub mod dataspace;
pub mod datatype;
pub mod error;
pub mod layout;
pub mod meta;
#[allow(unsafe_code)]
mod mpmc;
pub mod native;
pub mod plan;
pub mod promise;
pub mod recycle;
pub mod ring;
pub mod storage;
pub mod superblock;
pub mod sync;
pub mod vol;

pub use api::{Dataset, File, Group};
pub use container::{Container, IntegrityStats, ObjectId, ScrubReport, SieveStats};
pub use dataspace::{Dataspace, Hyperslab, Row, Selection};
pub use datatype::{Datatype, H5Type};
pub use error::{ErrorClass, H5Error, Result};
pub use layout::Layout;
pub use meta::{shard_of, ConsistencyModel, MetaLockStats, MetaSnapshot, META_SHARDS};
pub use native::NativeVol;
pub use plan::{
    sieve_spans, IoPlan, IoRecord, IoSegment, Span, COALESCE_WINDOW, SIEVE_PAGE, SIEVE_SPAN_CAP,
};
pub use promise::Promise;
pub use ring::{Backpressure, Completion, CqeErr, Ring, RingConfig, RingOp, Submitted};
pub use storage::{
    CrashBackend, CrashClock, FaultInjector, FaultKind, FaultOp, FaultPlan, FileBackend, IoVec,
    IoVecMut, MemBackend, StorageBackend, ThrottledBackend,
};
pub use vol::{ReadRequest, Request, Vol};
