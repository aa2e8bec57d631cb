//! Payload encodings.
//!
//! HDF-style scientific formats usually offer filters (shuffle,
//! compression) applied per dataset. SDF implements the classic **byte
//! shuffle**: for an array of k-byte elements, store all first bytes, then
//! all second bytes, and so on. Shuffle is cheap, perfectly reversible,
//! and — like real filters — makes decode a CPU-bound transformation on
//! the reading thread and forbids ranged (hyperslab) reads of the encoded
//! payload.

use crate::error::{Result, SdfError};

/// How a dataset's payload is stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Bytes stored exactly as serialized; hyperslab reads allowed.
    #[default]
    Raw,
    /// Byte-shuffled by element size; whole-dataset reads only.
    Shuffle,
}

impl Encoding {
    /// Stable on-disk tag.
    pub const fn tag(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::Shuffle => 1,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Encoding::Raw,
            1 => Encoding::Shuffle,
            other => return Err(SdfError::Corrupt(format!("unknown encoding tag {other}"))),
        })
    }

    /// Whether ranged reads of the stored payload are meaningful.
    pub const fn supports_hyperslab(self) -> bool {
        matches!(self, Encoding::Raw)
    }

    /// Encode `data` (element size `elem`) for storage.
    pub fn encode(self, data: &[u8], elem: usize) -> Vec<u8> {
        match self {
            Encoding::Raw => data.to_vec(),
            Encoding::Shuffle => shuffle(data, elem),
        }
    }

    /// Decode a stored payload back to plain little-endian bytes. A
    /// `Raw` payload is returned as is, without a copy.
    pub fn decode(self, data: Vec<u8>, elem: usize) -> Result<Vec<u8>> {
        match self {
            Encoding::Raw => Ok(data),
            Encoding::Shuffle => {
                if elem == 0 || !data.len().is_multiple_of(elem) {
                    return Err(SdfError::Corrupt(format!(
                        "shuffled payload of {} bytes with element size {elem}",
                        data.len()
                    )));
                }
                Ok(if elem == 1 {
                    data
                } else {
                    unshuffle(&data, elem)
                })
            }
        }
    }
}

/// Byte-shuffle: group byte lane 0 of every element, then lane 1, …
fn shuffle(data: &[u8], elem: usize) -> Vec<u8> {
    if elem <= 1 || !data.len().is_multiple_of(elem) {
        return data.to_vec();
    }
    let n = data.len() / elem;
    let mut out = vec![0u8; data.len()];
    for lane in 0..elem {
        let base = lane * n;
        for i in 0..n {
            out[base + i] = data[i * elem + lane];
        }
    }
    out
}

/// Inverse of [`shuffle`]; `data.len()` must be a multiple of `elem`.
fn unshuffle(data: &[u8], elem: usize) -> Vec<u8> {
    let n = data.len() / elem;
    let mut out = vec![0u8; data.len()];
    for lane in 0..elem {
        let base = lane * n;
        for i in 0..n {
            out[i * elem + lane] = data[base + i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_is_identity() {
        let data = vec![1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(Encoding::Raw.encode(&data, 4), data);
        assert_eq!(Encoding::Raw.decode(data.clone(), 4).unwrap(), data);
    }

    #[test]
    fn shuffle_roundtrip_f64() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.25 - 3.0).collect();
        let bytes = crate::dtype::to_bytes(&values);
        let enc = Encoding::Shuffle.encode(&bytes, 8);
        assert_ne!(enc, bytes, "shuffle should rearrange bytes");
        let dec = Encoding::Shuffle.decode(enc, 8).unwrap();
        assert_eq!(dec, bytes);
    }

    #[test]
    fn shuffle_groups_lanes() {
        // Two 4-byte elements [a0 a1 a2 a3][b0 b1 b2 b3]
        // → [a0 b0 a1 b1 a2 b2 a3 b3].
        let data = [0xA0, 0xA1, 0xA2, 0xA3, 0xB0, 0xB1, 0xB2, 0xB3];
        let enc = Encoding::Shuffle.encode(&data, 4);
        assert_eq!(enc, vec![0xA0, 0xB0, 0xA1, 0xB1, 0xA2, 0xB2, 0xA3, 0xB3]);
    }

    #[test]
    fn shuffle_single_byte_elements_is_identity() {
        let data = vec![9u8, 8, 7];
        assert_eq!(Encoding::Shuffle.encode(&data, 1), data);
        assert_eq!(Encoding::Shuffle.decode(data.clone(), 1).unwrap(), data);
    }

    #[test]
    fn decode_rejects_misaligned_shuffled_payload() {
        assert!(Encoding::Shuffle.decode(vec![1, 2, 3], 8).is_err());
        assert!(Encoding::Shuffle.decode(vec![1, 2, 3], 0).is_err());
    }

    #[test]
    fn tags_roundtrip() {
        for e in [Encoding::Raw, Encoding::Shuffle] {
            assert_eq!(Encoding::from_tag(e.tag()).unwrap(), e);
        }
        assert!(Encoding::from_tag(7).is_err());
    }

    #[test]
    fn hyperslab_support() {
        assert!(Encoding::Raw.supports_hyperslab());
        assert!(!Encoding::Shuffle.supports_hyperslab());
    }
}
