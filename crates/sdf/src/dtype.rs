//! Element types and little-endian (de)serialization of typed arrays.

use crate::error::{Result, SdfError};

/// Element type of a dataset.
///
/// The GODIVA paper's Table 1 uses `STRING` and `DOUBLE`; GENx snapshots
/// additionally carry integer connectivity arrays, so SDF supports the
/// usual small set of scientific element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned byte (also used for character/string payloads).
    U8,
    /// 32-bit signed integer (connectivity, block ids).
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float (the paper's `DOUBLE`).
    F64,
}

impl DType {
    /// Size in bytes of one element.
    pub const fn size(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::I32 | DType::F32 => 4,
            DType::I64 | DType::F64 => 8,
        }
    }

    /// Stable on-disk tag.
    pub const fn tag(self) -> u8 {
        match self {
            DType::U8 => 0,
            DType::I32 => 1,
            DType::I64 => 2,
            DType::F32 => 3,
            DType::F64 => 4,
        }
    }

    /// Inverse of [`DType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DType::U8,
            1 => DType::I32,
            2 => DType::I64,
            3 => DType::F32,
            4 => DType::F64,
            other => return Err(SdfError::Corrupt(format!("unknown dtype tag {other}"))),
        })
    }
}

/// A Rust element type that maps onto a [`DType`].
pub trait Element: Copy + Default + 'static {
    /// The corresponding on-disk type.
    const DTYPE: DType;
    /// Append this value's little-endian bytes to `out`.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Decode the values of `bytes`, whose length must be a multiple of
    /// `Self::DTYPE.size()`.
    fn read_le_slice(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! impl_element {
    ($t:ty, $dt:expr) => {
        impl Element for $t {
            const DTYPE: DType = $dt;
            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le_slice(bytes: &[u8]) -> Vec<Self> {
                // Fixed-size chunks let the loop compile to a plain copy.
                let (values, _) = bytes.as_chunks::<{ std::mem::size_of::<$t>() }>();
                values.iter().map(|&v| <$t>::from_le_bytes(v)).collect()
            }
        }
    };
}

impl_element!(u8, DType::U8);
impl_element!(i32, DType::I32);
impl_element!(i64, DType::I64);
impl_element!(f32, DType::F32);
impl_element!(f64, DType::F64);

/// Serialize a slice of elements to little-endian bytes.
pub fn to_bytes<T: Element>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * T::DTYPE.size());
    for v in values {
        v.write_le(&mut out);
    }
    out
}

/// Deserialize little-endian bytes into a vector of elements.
///
/// Fails if `bytes.len()` is not a multiple of the element size.
pub fn from_bytes<T: Element>(bytes: &[u8]) -> Result<Vec<T>> {
    let sz = T::DTYPE.size();
    if !bytes.len().is_multiple_of(sz) {
        return Err(SdfError::Corrupt(format!(
            "payload length {} is not a multiple of element size {sz}",
            bytes.len()
        )));
    }
    Ok(T::read_le_slice(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_rust_types() {
        assert_eq!(DType::U8.size(), 1);
        assert_eq!(DType::I32.size(), 4);
        assert_eq!(DType::I64.size(), 8);
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
    }

    #[test]
    fn tag_roundtrip_all_variants() {
        for dt in [DType::U8, DType::I32, DType::I64, DType::F32, DType::F64] {
            assert_eq!(DType::from_tag(dt.tag()).unwrap(), dt);
        }
        assert!(DType::from_tag(99).is_err());
    }

    #[test]
    fn f64_roundtrip() {
        let xs = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 1e300];
        let bytes = to_bytes(&xs);
        assert_eq!(bytes.len(), 40);
        let back: Vec<f64> = from_bytes(&bytes).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn i32_roundtrip() {
        let xs = [i32::MIN, -1, 0, 1, i32::MAX];
        let back: Vec<i32> = from_bytes(&to_bytes(&xs)).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn misaligned_payload_rejected() {
        let bytes = vec![0u8; 7];
        assert!(from_bytes::<f64>(&bytes).is_err());
        assert!(from_bytes::<u8>(&bytes).is_ok());
    }

    #[test]
    fn nan_survives_roundtrip() {
        let xs = [f64::NAN];
        let back: Vec<f64> = from_bytes(&to_bytes(&xs)).unwrap();
        assert!(back[0].is_nan());
    }
}
