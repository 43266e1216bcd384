//! Element datatypes and the typed-buffer bridge.
//!
//! [`Datatype`] is the on-disk element type of a dataset; [`H5Type`] maps
//! Rust scalar types onto it and provides explicit little-endian
//! (de)serialization a slice at a time, so typed reads and writes are
//! portable, free of `unsafe` transmutes, and as fast as a copy.
//! [`Elements`] carries decoded elements across a boundary that does not
//! know their `T`.

use std::any::Any;

use crate::error::{H5Error, Result};

/// On-disk element type.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Datatype {
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 8-bit integer.
    I8,
    /// Unsigned 16-bit integer.
    U16,
    /// Signed 16-bit integer.
    I16,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl Datatype {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            Datatype::U8 | Datatype::I8 => 1,
            Datatype::U16 | Datatype::I16 => 2,
            Datatype::U32 | Datatype::I32 | Datatype::F32 => 4,
            Datatype::U64 | Datatype::I64 | Datatype::F64 => 8,
        }
    }

    /// Stable on-disk tag.
    pub const fn tag(self) -> u8 {
        match self {
            Datatype::U8 => 0,
            Datatype::I8 => 1,
            Datatype::U16 => 2,
            Datatype::I16 => 3,
            Datatype::U32 => 4,
            Datatype::I32 => 5,
            Datatype::U64 => 6,
            Datatype::I64 => 7,
            Datatype::F32 => 8,
            Datatype::F64 => 9,
        }
    }

    /// Decode an on-disk tag.
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Datatype::U8,
            1 => Datatype::I8,
            2 => Datatype::U16,
            3 => Datatype::I16,
            4 => Datatype::U32,
            5 => Datatype::I32,
            6 => Datatype::U64,
            7 => Datatype::I64,
            8 => Datatype::F32,
            9 => Datatype::F64,
            t => return Err(H5Error::Corrupt(format!("unknown datatype tag {t}"))),
        })
    }

    /// Rust-style type name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Datatype::U8 => "u8",
            Datatype::I8 => "i8",
            Datatype::U16 => "u16",
            Datatype::I16 => "i16",
            Datatype::U32 => "u32",
            Datatype::I32 => "i32",
            Datatype::U64 => "u64",
            Datatype::I64 => "i64",
            Datatype::F32 => "f32",
            Datatype::F64 => "f64",
        }
    }
}

/// Rust scalar types that can live in a dataset.
pub trait H5Type: Copy + Default + Send + Sync + 'static {
    /// The corresponding on-disk type.
    const DTYPE: Datatype;

    /// Write `src`'s little-endian bytes over all of `dst`, which must be
    /// exactly `src.len() * DTYPE.size()` bytes long.
    fn encode_slice(src: &[Self], dst: &mut [u8]);

    /// Decode little-endian `src`; trailing bytes short of one element
    /// are ignored ([`from_bytes`] rejects them first).
    fn decode_slice(src: &[u8]) -> Vec<Self>;

    /// Decode little-endian `src` over all of `dst`, which must hold
    /// exactly `src.len() / DTYPE.size()` elements: [`decode_slice`]
    /// into memory the caller already has.
    ///
    /// [`decode_slice`]: H5Type::decode_slice
    fn decode_into(src: &[u8], dst: &mut [Self]);
}

macro_rules! impl_h5type {
    ($t:ty, $dt:expr) => {
        impl H5Type for $t {
            const DTYPE: Datatype = $dt;

            // The loops run over chunks of a constant width, so on a
            // little-endian target they compile to a block copy.
            fn encode_slice(src: &[Self], dst: &mut [u8]) {
                const N: usize = std::mem::size_of::<$t>();
                assert_eq!(dst.len(), src.len() * N, "encode buffer length");
                for (out, v) in dst.chunks_exact_mut(N).zip(src) {
                    out.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_slice(src: &[u8]) -> Vec<Self> {
                const N: usize = std::mem::size_of::<$t>();
                src.chunks_exact(N)
                    .map(|chunk| {
                        let mut le = [0u8; N];
                        le.copy_from_slice(chunk);
                        <$t>::from_le_bytes(le)
                    })
                    .collect()
            }

            fn decode_into(src: &[u8], dst: &mut [Self]) {
                const N: usize = std::mem::size_of::<$t>();
                assert_eq!(src.len(), dst.len() * N, "decode buffer length");
                for (v, chunk) in dst.iter_mut().zip(src.chunks_exact(N)) {
                    let mut le = [0u8; N];
                    le.copy_from_slice(chunk);
                    *v = <$t>::from_le_bytes(le);
                }
            }
        }
    };
}

impl_h5type!(u8, Datatype::U8);
impl_h5type!(i8, Datatype::I8);
impl_h5type!(u16, Datatype::U16);
impl_h5type!(i16, Datatype::I16);
impl_h5type!(u32, Datatype::U32);
impl_h5type!(i32, Datatype::I32);
impl_h5type!(u64, Datatype::U64);
impl_h5type!(i64, Datatype::I64);
impl_h5type!(f32, Datatype::F32);
impl_h5type!(f64, Datatype::F64);

/// Encode a typed slice into its on-disk byte representation.
pub fn to_bytes<T: H5Type>(data: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; std::mem::size_of_val(data)];
    T::encode_slice(data, &mut out);
    out
}

/// Decode an on-disk byte buffer into a typed vector.
///
/// Fails if the byte length is not a multiple of the element size.
pub fn from_bytes<T: H5Type>(bytes: &[u8]) -> Result<Vec<T>> {
    let size = T::DTYPE.size();
    if !bytes.len().is_multiple_of(size) {
        return Err(H5Error::ShapeMismatch(format!(
            "{} bytes is not a multiple of element size {}",
            bytes.len(),
            size
        )));
    }
    Ok(T::decode_slice(bytes))
}

/// Call the generic `$f::<T>($arg)` for the `T` of the run-time
/// datatype `$dtype`.
macro_rules! by_dtype {
    ($dtype:expr, $f:ident($arg:expr)) => {
        match $dtype {
            Datatype::U8 => $f::<u8>($arg),
            Datatype::I8 => $f::<i8>($arg),
            Datatype::U16 => $f::<u16>($arg),
            Datatype::I16 => $f::<i16>($arg),
            Datatype::U32 => $f::<u32>($arg),
            Datatype::I32 => $f::<i32>($arg),
            Datatype::U64 => $f::<u64>($arg),
            Datatype::I64 => $f::<i64>($arg),
            Datatype::F32 => $f::<f32>($arg),
            Datatype::F64 => $f::<f64>($arg),
        }
    };
}

/// Decoded elements whose Rust type is known only at run time: a
/// `Vec<T>` for the [`Datatype`] it is tagged with. A background reader
/// knows a dataset's datatype but not the caller's `T`; it decodes into
/// one of these, and the caller moves the `Vec<T>` out with
/// [`Elements::into_vec`] — no copy when the types agree.
pub struct Elements {
    dtype: Datatype,
    vec: Box<dyn Any + Send>,
    /// [`to_bytes`] for the `T` that `vec` holds.
    encode: fn(&(dyn Any + Send)) -> Vec<u8>,
}

impl Elements {
    /// Decode on-disk `bytes` as `dtype` elements. Fails like
    /// [`from_bytes`] when the length is not a whole number of elements.
    pub fn decode(dtype: Datatype, bytes: &[u8]) -> Result<Elements> {
        fn typed<T: H5Type>(bytes: &[u8]) -> Result<Elements> {
            Ok(Elements {
                dtype: T::DTYPE,
                vec: Box::new(from_bytes::<T>(bytes)?),
                encode: encode_any::<T>,
            })
        }
        by_dtype!(dtype, typed(bytes))
    }

    /// `len` elements of `dtype`, every one written, for a reader to
    /// decode into ([`crate::ReadRequest::wait_as`]). The value written
    /// is opaque to the compiler, so the allocation cannot become a
    /// lazily zeroed `calloc`: the pages are faulted in here, on the
    /// thread that makes the elements, not on the one that fills them.
    pub fn written(dtype: Datatype, len: usize) -> Elements {
        fn typed<T: H5Type>(len: usize) -> Elements {
            let mut vec = Vec::with_capacity(len);
            vec.resize(len, std::hint::black_box(T::default()));
            Elements { dtype: T::DTYPE, vec: Box::new(vec), encode: encode_any::<T> }
        }
        by_dtype!(dtype, typed(len))
    }

    /// The datatype of the elements.
    pub fn dtype(&self) -> Datatype {
        self.dtype
    }

    /// Move the elements out as `Vec<T>`, or get them back unchanged when
    /// they hold another type.
    pub fn into_vec<T: H5Type>(self) -> std::result::Result<Vec<T>, Elements> {
        let Elements { dtype, vec, encode } = self;
        match vec.downcast::<Vec<T>>() {
            Ok(v) => Ok(*v),
            Err(vec) => Err(Elements { dtype, vec, encode }),
        }
    }

    /// The on-disk bytes of the elements: one encode pass.
    pub fn to_bytes(&self) -> Vec<u8> {
        (self.encode)(&*self.vec)
    }
}

impl std::fmt::Debug for Elements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Elements").field("dtype", &self.dtype).finish_non_exhaustive()
    }
}

fn encode_any<T: H5Type>(vec: &(dyn Any + Send)) -> Vec<u8> {
    // `Elements::decode` pairs this function with a `Vec<T>`, so the
    // downcast cannot miss.
    vec.downcast_ref::<Vec<T>>().map_or_else(Vec::new, |v| to_bytes(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_tags_are_consistent() {
        let all = [
            Datatype::U8,
            Datatype::I8,
            Datatype::U16,
            Datatype::I16,
            Datatype::U32,
            Datatype::I32,
            Datatype::U64,
            Datatype::I64,
            Datatype::F32,
            Datatype::F64,
        ];
        for dt in all {
            assert_eq!(Datatype::from_tag(dt.tag()).unwrap(), dt);
            assert!(dt.size() >= 1 && dt.size() <= 8);
            assert!(!dt.name().is_empty());
        }
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        assert!(matches!(
            Datatype::from_tag(200).unwrap_err(),
            H5Error::Corrupt(_)
        ));
    }

    #[test]
    fn roundtrip_f64() {
        let data = vec![0.0f64, -1.5, std::f64::consts::E, f64::MAX, f64::MIN_POSITIVE];
        let bytes = to_bytes(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        assert_eq!(from_bytes::<f64>(&bytes).unwrap(), data);
    }

    #[test]
    fn roundtrip_i32_and_u8() {
        let ints = vec![i32::MIN, -1, 0, 1, i32::MAX];
        assert_eq!(from_bytes::<i32>(&to_bytes(&ints)).unwrap(), ints);
        let bytes_in = vec![0u8, 255, 127];
        assert_eq!(from_bytes::<u8>(&to_bytes(&bytes_in)).unwrap(), bytes_in);
    }

    #[test]
    fn nan_payload_survives() {
        let data = vec![f32::NAN];
        let back = from_bytes::<f32>(&to_bytes(&data)).unwrap();
        assert!(back[0].is_nan());
    }

    #[test]
    fn misaligned_length_rejected() {
        let err = from_bytes::<f64>(&[0u8; 7]).unwrap_err();
        assert!(matches!(err, H5Error::ShapeMismatch(_)));
    }

    #[test]
    fn empty_slice_roundtrip() {
        let empty: Vec<u64> = vec![];
        assert_eq!(from_bytes::<u64>(&to_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn encoding_is_little_endian() {
        assert_eq!(to_bytes(&[0x01020304u32]), vec![4, 3, 2, 1]);
    }

    #[test]
    fn elements_move_out_as_their_type_and_encode_back() {
        let data = vec![1.5f32, -2.0, f32::MAX];
        let bytes = to_bytes(&data);
        let elems = Elements::decode(Datatype::F32, &bytes).unwrap();
        assert_eq!(elems.dtype(), Datatype::F32);
        assert_eq!(elems.to_bytes(), bytes);
        // Another type with the same width is refused, not reinterpreted.
        let elems = elems.into_vec::<u32>().unwrap_err();
        assert_eq!(elems.into_vec::<f32>().unwrap(), data);
    }

    #[test]
    fn elements_decode_every_datatype_like_from_bytes() {
        let bytes: Vec<u8> = (0..64).map(|i| (i * 37) as u8).collect();
        // Compared as bytes, so NaN payloads compare too.
        fn same<T: H5Type>(bytes: &[u8]) {
            let elems = Elements::decode(T::DTYPE, bytes).unwrap();
            assert_eq!(elems.to_bytes(), bytes);
            let got = elems.into_vec::<T>().unwrap();
            assert_eq!(to_bytes(&got), to_bytes(&from_bytes::<T>(bytes).unwrap()));
        }
        same::<u8>(&bytes);
        same::<i8>(&bytes);
        same::<u16>(&bytes);
        same::<i16>(&bytes);
        same::<u32>(&bytes);
        same::<i32>(&bytes);
        same::<u64>(&bytes);
        same::<i64>(&bytes);
        same::<f32>(&bytes);
        same::<f64>(&bytes);
        let err = Elements::decode(Datatype::F64, &[0u8; 7]).unwrap_err();
        assert!(matches!(err, H5Error::ShapeMismatch(_)));
    }

    #[test]
    fn decode_into_matches_decode_slice_for_every_type() {
        let mut rng = crate::storage::Lcg::new(0xDEC0DE);
        let mut bytes: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        // NaNs with payload bits, quiet and signalling, at both widths.
        bytes[..4].copy_from_slice(&0x7fa1_2345u32.to_le_bytes());
        bytes[4..8].copy_from_slice(&0xff80_0001u32.to_le_bytes());
        bytes[8..16].copy_from_slice(&0x7ff4_0000_dead_beefu64.to_le_bytes());
        bytes[16..24].copy_from_slice(&0xfff8_0000_0000_0001u64.to_le_bytes());
        // Compared as bytes, so NaN payloads compare too; into elements
        // made by `Elements::written`, as a cold read's are.
        fn same<T: H5Type>(bytes: &[u8]) {
            let len = bytes.len() / T::DTYPE.size();
            let mut dst = Elements::written(T::DTYPE, len).into_vec::<T>().unwrap();
            T::decode_into(bytes, &mut dst);
            assert_eq!(to_bytes(&dst), to_bytes(&T::decode_slice(bytes)), "{}", T::DTYPE.name());
            assert_eq!(to_bytes(&dst), bytes, "{}", T::DTYPE.name());
        }
        same::<u8>(&bytes);
        same::<i8>(&bytes);
        same::<u16>(&bytes);
        same::<i16>(&bytes);
        same::<u32>(&bytes);
        same::<i32>(&bytes);
        same::<u64>(&bytes);
        same::<i64>(&bytes);
        same::<f32>(&bytes);
        same::<f64>(&bytes);
    }

    #[test]
    #[should_panic(expected = "decode buffer length")]
    fn decode_into_refuses_a_destination_of_another_length() {
        f32::decode_into(&[0u8; 8], &mut [0.0; 3]);
    }
}
