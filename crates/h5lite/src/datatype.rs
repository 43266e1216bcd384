//! Element datatypes and the typed-buffer bridge.
//!
//! [`Datatype`] is the on-disk element type of a dataset; [`H5Type`] maps
//! Rust scalar types onto it and provides explicit little-endian
//! (de)serialization a slice at a time, so typed reads and writes are
//! portable, free of `unsafe` transmutes, and as fast as a copy.

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
}

macro_rules! impl_h5type {
    ($t:ty, $dt:expr) => {
        impl H5Type for $t {
            const DTYPE: Datatype = $dt;

            // Both loops run over chunks of a constant width, so on a
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
}
