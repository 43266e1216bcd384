//! The Virtual Object Layer: the connector interface every public
//! operation routes through.
//!
//! This mirrors HDF5's VOL architecture: the API objects ([`crate::File`],
//! [`crate::Group`], [`crate::Dataset`]) never touch the container
//! directly for data movement — they call a [`Vol`] connector, which may
//! execute eagerly ([`crate::native::NativeVol`]) or defer to background
//! threads (the `asyncvol` crate's rings). Swapping the connector
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
use crate::datatype::{from_bytes, Datatype, Elements, H5Type};
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

/// What a read delivers (DESIGN.md §17, the read side).
#[derive(Debug)]
pub enum ReadPayload {
    /// The on-disk bytes: a synchronous or cold read, which the caller
    /// decodes.
    Bytes(Vec<u8>),
    /// Elements a background job already decoded: a prefetch hit, which
    /// the caller takes as they are.
    Elements(Elements),
}

/// An in-flight read: its result, when the connector had it before
/// returning (a synchronous or cold read), or the promise a background job
/// fulfils (a prefetch slot). A ready read holds its value, not a promise
/// of it: no allocation, lock or wake-up.
#[must_use = "a ReadRequest does nothing unless waited on"]
pub struct ReadRequest(Read);

enum Read {
    Ready(Result<ReadPayload>),
    /// Read bytes and the elements made to take them
    /// ([`ReadRequest::resolved_into`]).
    Into(Vec<u8>, Elements),
    Pending(Promise<Result<ReadPayload>>),
}

impl ReadRequest {
    /// A read that will be fulfilled later by a background job.
    pub fn pending(promise: Promise<Result<ReadPayload>>) -> Self {
        ReadRequest(Read::Pending(promise))
    }

    /// A read that already completed as bytes (synchronous connector,
    /// cold read).
    pub fn resolved(result: Result<Vec<u8>>) -> Self {
        ReadRequest(Read::Ready(result.map(ReadPayload::Bytes)))
    }

    /// A read that already completed as `bytes`, with `dst` made to
    /// receive them ([`Elements::written`]): [`wait_as`](Self::wait_as)
    /// decodes into `dst` when it holds the caller's `T` and exactly as
    /// many elements as `bytes` does, and is [`resolved`](Self::resolved)
    /// otherwise. [`wait`](Self::wait) drops `dst`.
    pub fn resolved_into(bytes: Vec<u8>, dst: Elements) -> Self {
        ReadRequest(Read::Into(bytes, dst))
    }

    /// Whether the data has arrived.
    pub fn is_ready(&self) -> bool {
        match &self.0 {
            Read::Ready(_) | Read::Into(..) => true,
            Read::Pending(promise) => promise.is_fulfilled(),
        }
    }

    /// Block until the data arrives and take it.
    fn take(self) -> Result<ReadPayload> {
        match self.0 {
            Read::Ready(result) => result,
            Read::Into(bytes, _) => Ok(ReadPayload::Bytes(bytes)),
            Read::Pending(promise) => promise.take(),
        }
    }

    /// Block until the data arrives and take it as `T` elements — how the
    /// typed API takes a read. Decoded elements of type `T` move out
    /// without a pass over them. Bytes decode into the elements made to
    /// receive them when those fit, else through [`from_bytes`] (as do
    /// elements of another type), and go back to the recycler
    /// ([`crate::recycle`]) they were read into.
    pub fn wait_as<T: H5Type>(self) -> Result<Vec<T>> {
        let (bytes, dst) = match self.0 {
            Read::Into(bytes, dst) => (bytes, Some(dst)),
            read => match ReadRequest(read).take()? {
                ReadPayload::Bytes(bytes) => (bytes, None),
                ReadPayload::Elements(elems) => {
                    return elems.into_vec().or_else(|elems| from_bytes(&elems.to_bytes()))
                }
            },
        };
        let elems = match dst.map(Elements::into_vec::<T>) {
            Some(Ok(mut dst)) if std::mem::size_of_val(&dst[..]) == bytes.len() => {
                T::decode_into(&bytes, &mut dst);
                Ok(dst)
            }
            _ => from_bytes(&bytes),
        };
        crate::recycle::give(bytes);
        elems
    }

    /// Block until the data arrives and take it as on-disk bytes — for
    /// callers below the typed API that never learn the element type:
    /// raw-[`Vol`] tools and tests, and byte-level checks. A prefetch hit
    /// arrives decoded, so taking it here costs one encode back to bytes,
    /// the pass [`ReadRequest::wait_as`] skips.
    pub fn wait(self) -> Result<Vec<u8>> {
        Ok(match self.take()? {
            ReadPayload::Bytes(bytes) => bytes,
            ReadPayload::Elements(elems) => elems.to_bytes(),
        })
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
        let p: Promise<Result<ReadPayload>> = Promise::new();
        let rr = ReadRequest::pending(p.clone());
        assert!(!rr.is_ready());
        p.fulfill(Ok(ReadPayload::Bytes(vec![9])));
        assert_eq!(rr.wait().unwrap(), vec![9]);
    }

    fn decoded(data: &[i16]) -> ReadRequest {
        let elems = Elements::decode(Datatype::I16, &crate::datatype::to_bytes(data)).unwrap();
        ReadRequest::pending(Promise::resolved(Ok(ReadPayload::Elements(elems))))
    }

    #[test]
    fn typed_take_serves_both_payloads() {
        let data = [-3i16, 0, 7, i16::MAX];
        let bytes = crate::datatype::to_bytes(&data);
        assert_eq!(decoded(&data).wait_as::<i16>().unwrap(), data);
        assert_eq!(ReadRequest::resolved(Ok(bytes.clone())).wait_as::<i16>().unwrap(), data);
        // Taken as another type or as bytes, a decoded payload goes back
        // through its bytes.
        assert_eq!(decoded(&data).wait_as::<u16>().unwrap(), [65533, 0, 7, 32767]);
        assert_eq!(decoded(&data).wait().unwrap(), bytes);
    }
}
