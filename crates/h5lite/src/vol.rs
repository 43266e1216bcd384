//! The Virtual Object Layer: the connector interface every public
//! operation routes through.
//!
//! This mirrors HDF5's VOL architecture: the API objects ([`crate::File`],
//! [`crate::Group`], [`crate::Dataset`]) never touch the container
//! directly for data movement — they call a [`Vol`] connector, which may
//! execute eagerly ([`crate::native::NativeVol`]) or defer to background
//! execution streams (the `asyncvol` crate). Swapping the connector
//! changes *how* I/O happens without changing a line of application code,
//! which is exactly the property the paper's §II-A highlights.
//!
//! Metadata operations (group/dataset creation, lookup, attributes) have
//! synchronous default implementations: they are microseconds against the
//! in-memory object tree, and the async connector orders data operations
//! after them via its dependency tracking.

use std::sync::Arc;

use crate::container::{Container, DatasetInfo, ObjectId};
use crate::dataspace::{Dataspace, Selection};
use crate::datatype::Datatype;
use crate::error::Result;
use crate::layout::Layout;
use crate::promise::Promise;

/// Token for an in-flight write operation.
///
/// `Request::SYNC` denotes an operation that completed before the call
/// returned (the native connector's only mode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[must_use = "dropping a Request loses the only handle for waiting on the write"]
pub struct Request(pub u64);

impl Request {
    /// The already-complete request.
    pub const SYNC: Request = Request(0);

    /// Whether the operation completed before the call returned.
    pub fn is_sync(self) -> bool {
        self.0 == 0
    }
}

/// An in-flight read: a [`Request`] plus the promise its data arrives on.
#[must_use = "a ReadRequest does nothing unless waited on"]
pub struct ReadRequest {
    promise: Promise<Result<Vec<u8>>>,
}

impl ReadRequest {
    /// A read that will be fulfilled later by a background task.
    pub fn pending(promise: Promise<Result<Vec<u8>>>) -> Self {
        ReadRequest { promise }
    }

    /// A read that already completed (synchronous connector).
    pub fn resolved(result: Result<Vec<u8>>) -> Self {
        ReadRequest {
            promise: Promise::resolved(result),
        }
    }

    /// Whether the data has arrived.
    pub fn is_ready(&self) -> bool {
        self.promise.is_fulfilled()
    }

    /// Block until the data arrives and take it.
    pub fn wait(self) -> Result<Vec<u8>> {
        self.promise.take()
    }
}

/// A VOL connector: the pluggable execution engine under the public API.
pub trait Vol: Send + Sync {
    /// Connector name, for diagnostics ("native", "async", ...).
    fn name(&self) -> &str;

    // ----- data path (the interesting part) ---------------------------

    /// Write raw bytes into a selection of a dataset.
    ///
    /// The returned request may be pending; the caller must [`Vol::wait`]
    /// (or [`Vol::wait_all`]) before relying on durability. The connector
    /// must not assume `data` outlives the call — deferring connectors
    /// snapshot it (the paper's *transactional overhead*).
    fn dataset_write(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: &[u8],
    ) -> Result<Request>;

    /// [`Vol::dataset_write`] for a caller that gives its buffer away:
    /// a deferring connector keeps `data` as its snapshot instead of
    /// copying it, and recycles it ([`crate::recycle`]) when the write
    /// retires. The default serves connectors that only know the
    /// borrowed form — they see the same bytes and snapshot as before.
    fn dataset_write_owned(
        &self,
        c: &Arc<Container>,
        ds: ObjectId,
        sel: &Selection,
        data: Vec<u8>,
    ) -> Result<Request> {
        let issued = self.dataset_write(c, ds, sel, &data);
        crate::recycle::give(data);
        issued
    }

    /// Read raw bytes from a selection of a dataset.
    fn dataset_read(&self, c: &Arc<Container>, ds: ObjectId, sel: &Selection)
        -> Result<ReadRequest>;

    /// Block until one write request is durable in the container.
    fn wait(&self, req: Request) -> Result<()>;

    /// Block until every outstanding operation issued through this
    /// connector is complete.
    fn wait_all(&self) -> Result<()>;

    /// Flush the container (drains outstanding operations first).
    fn file_flush(&self, c: &Arc<Container>) -> Result<()> {
        self.wait_all()?;
        c.flush()
    }

    // ----- metadata path (synchronous defaults) ------------------------

    /// Create a group (synchronous default).
    fn group_create(&self, c: &Arc<Container>, parent: ObjectId, name: &str) -> Result<ObjectId> {
        c.create_group(parent, name)
    }

    /// Create a dataset (synchronous default).
    fn dataset_create(
        &self,
        c: &Arc<Container>,
        parent: ObjectId,
        name: &str,
        dtype: Datatype,
        space: &Dataspace,
        layout: Layout,
    ) -> Result<ObjectId> {
        c.create_dataset(parent, name, dtype, space, layout)
    }

    /// Resolve a link (synchronous default).
    fn link_lookup(&self, c: &Arc<Container>, parent: ObjectId, name: &str) -> Result<ObjectId> {
        c.lookup(parent, name)
    }

    /// Describe a dataset (synchronous default).
    fn dataset_info(&self, c: &Arc<Container>, ds: ObjectId) -> Result<DatasetInfo> {
        c.dataset_info(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_request_token() {
        assert!(Request::SYNC.is_sync());
        assert!(!Request(3).is_sync());
    }

    #[test]
    fn resolved_read_request() {
        let rr = ReadRequest::resolved(Ok(vec![1, 2, 3]));
        assert!(rr.is_ready());
        assert_eq!(rr.wait().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn pending_read_request_fulfilled_later() {
        let p: Promise<Result<Vec<u8>>> = Promise::new();
        let rr = ReadRequest::pending(p.clone());
        assert!(!rr.is_ready());
        p.fulfill(Ok(vec![9]));
        assert_eq!(rr.wait().unwrap(), vec![9]);
    }
}
