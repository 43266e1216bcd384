//! Public API handles: [`File`], [`Group`], [`Dataset`].
//!
//! These mirror HDF5's `H5F*`/`H5G*`/`H5D*` surface: handles are cheap
//! clones sharing one container + VOL connector. Typed reads and writes
//! check the element type against the dataset's on-disk type; async
//! variants return the VOL's request tokens for later synchronization.

use std::sync::Arc;

use crate::container::{AttrValue, Container, DatasetInfo, ObjectId, ROOT_ID};
use crate::dataspace::{Dataspace, Hyperslab, Selection};
use crate::datatype::{from_bytes, to_bytes, H5Type};
use crate::error::{H5Error, Result};
use crate::layout::Layout;
use crate::native::NativeVol;
use crate::recycle;
use crate::vol::{ReadRequest, Request, Vol};

struct FileInner {
    container: Arc<Container>,
    vol: Arc<dyn Vol>,
}

/// An open container plus the VOL connector its handles route through.
#[derive(Clone)]
pub struct File {
    inner: Arc<FileInner>,
}

impl File {
    /// Create an in-memory file with the native (synchronous) connector.
    pub fn create_in_memory() -> Result<File> {
        Ok(File::from_parts(
            Arc::new(Container::create_mem()),
            Arc::new(NativeVol::new()),
        ))
    }

    /// Create a file on disk with the native connector.
    pub fn create(path: impl AsRef<std::path::Path>) -> Result<File> {
        Ok(File::from_parts(
            Arc::new(Container::create_file(path)?),
            Arc::new(NativeVol::new()),
        ))
    }

    /// Open an existing file on disk with the native connector.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<File> {
        Ok(File::from_parts(
            Arc::new(Container::open_file(path)?),
            Arc::new(NativeVol::new()),
        ))
    }

    /// Assemble a file from an existing container and connector — how the
    /// async VOL is plugged in.
    pub fn from_parts(container: Arc<Container>, vol: Arc<dyn Vol>) -> File {
        File {
            inner: Arc::new(FileInner { container, vol }),
        }
    }

    /// The root group.
    pub fn root(&self) -> Group {
        Group {
            inner: self.inner.clone(),
            id: ROOT_ID,
        }
    }

    /// Drain outstanding async operations, then persist metadata.
    pub fn flush(&self) -> Result<()> {
        self.inner.vol.file_flush(&self.inner.container)
    }

    /// Block until every outstanding operation is complete.
    pub fn wait_all(&self) -> Result<()> {
        self.inner.vol.wait_all()
    }

    /// The underlying container (for inspection and tests).
    pub fn container(&self) -> &Arc<Container> {
        &self.inner.container
    }

    /// The active VOL connector.
    pub fn vol(&self) -> &Arc<dyn Vol> {
        &self.inner.vol
    }
}

/// A group handle.
#[derive(Clone)]
pub struct Group {
    inner: Arc<FileInner>,
    id: ObjectId,
}

impl Group {
    /// The group's container object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Create a child group.
    pub fn create_group(&self, name: &str) -> Result<Group> {
        let id = self
            .inner
            .vol
            .group_create(&self.inner.container, self.id, name)?;
        Ok(Group {
            inner: self.inner.clone(),
            id,
        })
    }

    /// Open a child group by path (`"a/b/c"` traverses).
    pub fn open_group(&self, path: &str) -> Result<Group> {
        let id = self.resolve(path)?;
        match self.inner.container.kind(id)? {
            crate::container::ObjectKind::Group => Ok(Group {
                inner: self.inner.clone(),
                id,
            }),
            _ => Err(H5Error::WrongObjectKind(path.to_owned())),
        }
    }

    /// Create a contiguous dataset of `T` elements.
    pub fn create_dataset<T: H5Type>(&self, name: &str, space: &Dataspace) -> Result<Dataset> {
        self.create_dataset_with_layout::<T>(name, space, Layout::Contiguous)
    }

    /// Create a dataset with an explicit layout.
    pub fn create_dataset_with_layout<T: H5Type>(
        &self,
        name: &str,
        space: &Dataspace,
        layout: Layout,
    ) -> Result<Dataset> {
        let id = self.inner.vol.dataset_create(
            &self.inner.container,
            self.id,
            name,
            T::DTYPE,
            space,
            layout,
        )?;
        let info = self.inner.vol.dataset_info(&self.inner.container, id)?;
        Ok(Dataset {
            inner: self.inner.clone(),
            id,
            info,
        })
    }

    /// Open a dataset by path.
    pub fn open_dataset(&self, path: &str) -> Result<Dataset> {
        let id = self.resolve(path)?;
        let info = self.inner.vol.dataset_info(&self.inner.container, id)?;
        Ok(Dataset {
            inner: self.inner.clone(),
            id,
            info,
        })
    }

    /// Sorted names linked in this group.
    pub fn links(&self) -> Result<Vec<String>> {
        self.inner.container.list_links(self.id)
    }

    /// Set a 1-D typed attribute.
    pub fn set_attr<T: H5Type>(&self, name: &str, values: &[T]) -> Result<()> {
        set_attr_impl(&self.inner, self.id, name, values)
    }

    /// Read a 1-D typed attribute.
    pub fn get_attr<T: H5Type>(&self, name: &str) -> Result<Vec<T>> {
        get_attr_impl(&self.inner, self.id, name)
    }

    fn resolve(&self, path: &str) -> Result<ObjectId> {
        let mut id = self.id;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            id = self
                .inner
                .vol
                .link_lookup(&self.inner.container, id, part)?;
        }
        if id == self.id && !path.split('/').any(|p| !p.is_empty()) {
            return Err(H5Error::NotFound(format!("empty path '{path}'")));
        }
        Ok(id)
    }
}

/// A dataset handle with cached static info.
#[derive(Clone)]
pub struct Dataset {
    inner: Arc<FileInner>,
    id: ObjectId,
    info: DatasetInfo,
}

impl Dataset {
    /// The dataset's container object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Element type.
    pub fn dtype(&self) -> crate::datatype::Datatype {
        self.info.dtype
    }

    /// The dataset's extent.
    pub fn space(&self) -> &Dataspace {
        &self.info.space
    }

    /// The dataset's storage layout.
    pub fn layout(&self) -> &Layout {
        &self.info.layout
    }

    fn check_type<T: H5Type>(&self) -> Result<()> {
        if T::DTYPE != self.info.dtype {
            return Err(H5Error::TypeMismatch {
                expected: self.info.dtype.name().to_owned(),
                got: T::DTYPE.name().to_owned(),
            });
        }
        Ok(())
    }

    /// Write the full dataset synchronously (issue + wait).
    pub fn write<T: H5Type>(&self, data: &[T]) -> Result<()> {
        let req = self.write_async(data)?;
        self.inner.vol.wait(req)
    }

    /// Write the full dataset; returns the request token.
    pub fn write_async<T: H5Type>(&self, data: &[T]) -> Result<Request> {
        self.write_slab_async(&Selection::All, data)
    }

    /// Write a hyperslab synchronously.
    pub fn write_slab<T: H5Type>(&self, slab: &Hyperslab, data: &[T]) -> Result<()> {
        let req = self.write_slab_async(&Selection::Slab(slab.clone()), data)?;
        self.inner.vol.wait(req)
    }

    /// Write a selection; returns the request token. The one pass over
    /// `data` on the caller's side is the encode, into a recycled buffer
    /// the connector then owns (DESIGN.md §17).
    pub fn write_slab_async<T: H5Type>(&self, sel: &Selection, data: &[T]) -> Result<Request> {
        self.check_type::<T>()?;
        let mut encoded = recycle::take(std::mem::size_of_val(data));
        T::encode_slice(data, &mut encoded);
        self.inner
            .vol
            .dataset_write_owned(&self.inner.container, self.id, sel, encoded)
    }

    /// Read the full dataset synchronously.
    pub fn read<T: H5Type>(&self) -> Result<Vec<T>> {
        self.check_type::<T>()?;
        let rr = self
            .inner
            .vol
            .dataset_read(&self.inner.container, self.id, &Selection::All)?;
        from_bytes(&rr.wait()?)
    }

    /// Read a hyperslab synchronously.
    pub fn read_slab<T: H5Type>(&self, slab: &Hyperslab) -> Result<Vec<T>> {
        self.check_type::<T>()?;
        let rr = self.inner.vol.dataset_read(
            &self.inner.container,
            self.id,
            &Selection::Slab(slab.clone()),
        )?;
        from_bytes(&rr.wait()?)
    }

    /// Issue a read and return the raw request (decode with
    /// [`crate::datatype::from_bytes`] after waiting).
    pub fn read_async(&self, sel: &Selection) -> Result<ReadRequest> {
        self.inner
            .vol
            .dataset_read(&self.inner.container, self.id, sel)
    }

    /// Block until one write request is durable.
    pub fn wait(&self, req: Request) -> Result<()> {
        self.inner.vol.wait(req)
    }

    /// Grow a chunked 1-D dataset to `new_len` elements and refresh the
    /// handle's cached extent (`H5Dextend` analogue).
    pub fn extend(&mut self, new_len: u64) -> Result<()> {
        self.inner.container.extend_dataset(self.id, new_len)?;
        self.info = self.inner.vol.dataset_info(&self.inner.container, self.id)?;
        Ok(())
    }

    /// Append `data` to the end of a chunked 1-D dataset, growing it —
    /// the time-series pattern (one record batch per simulation step).
    pub fn append<T: H5Type>(&mut self, data: &[T]) -> Result<()> {
        self.check_type::<T>()?;
        let old_len = self.info.space.npoints();
        self.extend(old_len + data.len() as u64)?;
        self.write_slab(&Hyperslab::range1(old_len, data.len() as u64), data)
    }

    /// Set a 1-D typed attribute.
    pub fn set_attr<T: H5Type>(&self, name: &str, values: &[T]) -> Result<()> {
        set_attr_impl(&self.inner, self.id, name, values)
    }

    /// Read a 1-D typed attribute.
    pub fn get_attr<T: H5Type>(&self, name: &str) -> Result<Vec<T>> {
        get_attr_impl(&self.inner, self.id, name)
    }
}

fn set_attr_impl<T: H5Type>(
    inner: &Arc<FileInner>,
    id: ObjectId,
    name: &str,
    values: &[T],
) -> Result<()> {
    inner.container.set_attr(
        id,
        name,
        AttrValue {
            dtype: T::DTYPE,
            shape: vec![values.len() as u64],
            bytes: to_bytes(values),
        },
    )
}

fn get_attr_impl<T: H5Type>(inner: &Arc<FileInner>, id: ObjectId, name: &str) -> Result<Vec<T>> {
    let a = inner.container.get_attr(id, name)?;
    if a.dtype != T::DTYPE {
        return Err(H5Error::TypeMismatch {
            expected: a.dtype.name().to_owned(),
            got: T::DTYPE.name().to_owned(),
        });
    }
    from_bytes(&a.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_write_read_typed() {
        let f = File::create_in_memory().unwrap();
        let ds = f
            .root()
            .create_dataset::<i64>("x", &Dataspace::d1(32))
            .unwrap();
        let data: Vec<i64> = (0..32).map(|i| i * i).collect();
        ds.write(&data).unwrap();
        assert_eq!(ds.read::<i64>().unwrap(), data);
    }

    #[test]
    fn type_mismatch_is_refused() {
        let f = File::create_in_memory().unwrap();
        let ds = f
            .root()
            .create_dataset::<f64>("x", &Dataspace::d1(4))
            .unwrap();
        assert!(matches!(
            ds.write(&[1.0f32; 4]).unwrap_err(),
            H5Error::TypeMismatch { .. }
        ));
        assert!(matches!(
            ds.read::<u8>().unwrap_err(),
            H5Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn nested_path_resolution() {
        let f = File::create_in_memory().unwrap();
        let a = f.root().create_group("a").unwrap();
        let b = a.create_group("b").unwrap();
        b.create_dataset::<u32>("leaf", &Dataspace::d1(2)).unwrap();
        let ds = f.root().open_dataset("a/b/leaf").unwrap();
        assert_eq!(ds.space().dims(), &[2]);
        let g = f.root().open_group("a/b").unwrap();
        assert_eq!(g.links().unwrap(), vec!["leaf".to_owned()]);
        assert!(f.root().open_dataset("a/nope").is_err());
        assert!(f.root().open_group("a/b/leaf").is_err(), "leaf is a dataset");
    }

    #[test]
    fn slab_write_and_read() {
        let f = File::create_in_memory().unwrap();
        let ds = f
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1(8))
            .unwrap();
        ds.write(&[0.0f32; 8]).unwrap();
        ds.write_slab(&Hyperslab::range1(2, 3), &[1.0f32, 2.0, 3.0])
            .unwrap();
        assert_eq!(
            ds.read_slab::<f32>(&Hyperslab::range1(1, 5)).unwrap(),
            vec![0.0, 1.0, 2.0, 3.0, 0.0]
        );
    }

    #[test]
    fn attributes_on_groups_and_datasets() {
        let f = File::create_in_memory().unwrap();
        let g = f.root().create_group("g").unwrap();
        g.set_attr("version", &[3u32]).unwrap();
        assert_eq!(g.get_attr::<u32>("version").unwrap(), vec![3]);
        let ds = g.create_dataset::<f64>("d", &Dataspace::d1(1)).unwrap();
        ds.set_attr("scale", &[2.5f64, 3.5]).unwrap();
        assert_eq!(ds.get_attr::<f64>("scale").unwrap(), vec![2.5, 3.5]);
        assert!(matches!(
            ds.get_attr::<u8>("scale").unwrap_err(),
            H5Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn persistence_through_public_api() {
        let dir = std::env::temp_dir().join(format!("h5lite-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("api.h5l");
        let data: Vec<u16> = (0..100).collect();
        {
            let f = File::create(&path).unwrap();
            let ds = f
                .root()
                .create_dataset::<u16>("seq", &Dataspace::d1(100))
                .unwrap();
            ds.write(&data).unwrap();
            f.flush().unwrap();
        }
        let f = File::open(&path).unwrap();
        assert_eq!(
            f.root().open_dataset("seq").unwrap().read::<u16>().unwrap(),
            data
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let file = File::create_in_memory().unwrap();
        let group = file.root().create_group("particles").unwrap();
        let ds = group.create_dataset::<f32>("x", &Dataspace::d1(1024)).unwrap();
        let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        ds.write(&data).unwrap();
        assert_eq!(ds.read::<f32>().unwrap(), data);
    }
    #[test]
    fn chunked_dataset_extends_and_appends() {
        let f = File::create_in_memory().unwrap();
        let mut ds = f
            .root()
            .create_dataset_with_layout::<i32>(
                "series",
                &Dataspace::d1(0),
                Layout::Chunked1D { chunk_elems: 8 },
            )
            .unwrap();
        for step in 0..5i32 {
            let batch: Vec<i32> = (0..6).map(|i| step * 10 + i).collect();
            ds.append(&batch).unwrap();
        }
        assert_eq!(ds.space().dims(), &[30]);
        let all = ds.read::<i32>().unwrap();
        assert_eq!(all.len(), 30);
        assert_eq!(&all[..6], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(&all[24..], &[40, 41, 42, 43, 44, 45]);
    }

    #[test]
    fn extend_refreshes_handle_and_zero_fills() {
        let f = File::create_in_memory().unwrap();
        let mut ds = f
            .root()
            .create_dataset_with_layout::<u8>(
                "x",
                &Dataspace::d1(4),
                Layout::Chunked1D { chunk_elems: 4 },
            )
            .unwrap();
        ds.write(&[1u8, 2, 3, 4]).unwrap();
        ds.extend(10).unwrap();
        assert_eq!(ds.space().npoints(), 10);
        assert_eq!(ds.read::<u8>().unwrap(), vec![1, 2, 3, 4, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn contiguous_datasets_do_not_extend() {
        let f = File::create_in_memory().unwrap();
        let mut ds = f
            .root()
            .create_dataset::<f32>("x", &Dataspace::d1(4))
            .unwrap();
        assert!(matches!(
            ds.extend(8).unwrap_err(),
            H5Error::Unsupported(_)
        ));
    }

    #[test]
    fn shrinking_is_rejected() {
        let f = File::create_in_memory().unwrap();
        let mut ds = f
            .root()
            .create_dataset_with_layout::<f32>(
                "x",
                &Dataspace::d1(16),
                Layout::Chunked1D { chunk_elems: 4 },
            )
            .unwrap();
        assert!(ds.extend(8).is_err());
    }

    #[test]
    fn extended_dataset_persists() {
        let dir = std::env::temp_dir().join(format!("h5lite-ext-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extend.h5l");
        {
            let f = File::create(&path).unwrap();
            let mut ds = f
                .root()
                .create_dataset_with_layout::<u64>(
                    "log",
                    &Dataspace::d1(0),
                    Layout::Chunked1D { chunk_elems: 16 },
                )
                .unwrap();
            ds.append(&(0..40u64).collect::<Vec<_>>()).unwrap();
            f.flush().unwrap();
        }
        let f = File::open(&path).unwrap();
        let ds = f.root().open_dataset("log").unwrap();
        assert_eq!(ds.space().npoints(), 40);
        assert_eq!(ds.read::<u64>().unwrap(), (0..40).collect::<Vec<u64>>());
        std::fs::remove_file(&path).unwrap();
    }
}
