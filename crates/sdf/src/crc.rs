//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! SDF stores a CRC-32 per dataset and verifies it on every whole-dataset
//! read; PNG chunks use the same checksum. The computation is
//! *slicing-by-8*: eight 256-entry tables let each step fold eight input
//! bytes with eight independent lookups instead of one lookup per byte,
//! so verification runs at memory speed rather than dominating the read
//! path. The values are those of the classic byte-at-a-time algorithm
//! (CRC-32/ISO-HDLC, as in zlib and PNG).

/// Reflected CRC-32 polynomial (same as zlib/PNG).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            let v = u64::from_le_bytes(*w) ^ u64::from(c);
            c = t[7][(v & 0xFF) as usize]
                ^ t[6][((v >> 8) & 0xFF) as usize]
                ^ t[5][((v >> 16) & 0xFF) as usize]
                ^ t[4][((v >> 24) & 0xFF) as usize]
                ^ t[3][((v >> 32) & 0xFF) as usize]
                ^ t[2][((v >> 40) & 0xFF) as usize]
                ^ t[1][((v >> 48) & 0xFF) as usize]
                ^ t[0][(v >> 56) as usize];
        }
        for &b in rest {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abcc"));
    }
}
