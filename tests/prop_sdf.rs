//! Property tests: the SDF container round-trips arbitrary datasets and
//! detects arbitrary corruption, and its CRC-32 matches the classic
//! byte-at-a-time algorithm.

use godiva::platform::{MemFs, Storage};
use godiva::sdf::crc::{crc32, Crc32};
use godiva::sdf::{plain, Attr, DType, Encoding, SdfError, SdfFile, SdfWriter};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum AnyData {
    F64(Vec<f64>),
    F32(Vec<f32>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    Bytes(Vec<u8>),
}

fn any_data() -> impl Strategy<Value = AnyData> {
    prop_oneof![
        prop::collection::vec(prop::num::f64::ANY, 0..200).prop_map(AnyData::F64),
        prop::collection::vec(prop::num::f32::ANY, 0..200).prop_map(AnyData::F32),
        prop::collection::vec(any::<i32>(), 0..200).prop_map(AnyData::I32),
        prop::collection::vec(any::<i64>(), 0..200).prop_map(AnyData::I64),
        prop::collection::vec(any::<u8>(), 0..400).prop_map(AnyData::Bytes),
    ]
}

fn dataset_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_./ -]{1,24}"
}

fn put(
    w: &mut SdfWriter<'_>,
    name: &str,
    data: &AnyData,
    attrs: Vec<Attr>,
) -> godiva::sdf::Result<()> {
    match data {
        AnyData::F64(v) => w.put_1d(name, v, attrs),
        AnyData::F32(v) => w.put_1d(name, v, attrs),
        AnyData::I32(v) => w.put_1d(name, v, attrs),
        AnyData::I64(v) => w.put_1d(name, v, attrs),
        AnyData::Bytes(v) => w.put_1d(name, v, attrs),
    }
}

/// Reference CRC-32: one 256-entry table lookup per byte.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| {
            (0..8).fold(i, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn bits_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn check(file: &SdfFile, name: &str, data: &AnyData) -> Result<(), TestCaseError> {
    match data {
        AnyData::F64(v) => {
            let back: Vec<f64> = file.read(name).unwrap();
            prop_assert_eq!(back.len(), v.len());
            for (x, y) in back.iter().zip(v) {
                prop_assert!(bits_equal(*x, *y), "f64 bits differ");
            }
        }
        AnyData::F32(v) => {
            let back: Vec<f32> = file.read(name).unwrap();
            prop_assert_eq!(back.len(), v.len());
            for (x, y) in back.iter().zip(v) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        AnyData::I32(v) => prop_assert_eq!(&file.read::<i32>(name).unwrap(), v),
        AnyData::I64(v) => prop_assert_eq!(&file.read::<i64>(name).unwrap(), v),
        AnyData::Bytes(v) => prop_assert_eq!(&file.read::<u8>(name).unwrap(), v),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_arbitrary_datasets(
        datasets in prop::collection::btree_map(dataset_name(), any_data(), 0..12),
        shuffle in any::<bool>(),
        attr_text in "[a-z]{0,12}",
    ) {
        let fs = Arc::new(MemFs::new());
        let encoding = if shuffle { Encoding::Shuffle } else { Encoding::Raw };
        let mut w = SdfWriter::create(fs.as_ref(), "t.sdf").with_encoding(encoding);
        for (name, data) in &datasets {
            put(&mut w, name, data, vec![
                Attr::new("text", attr_text.as_str()),
                Attr::new("n", 42_i64),
                Attr::new("x", 0.5_f64),
            ]).unwrap();
        }
        w.finish().unwrap();

        let file = SdfFile::open(fs, "t.sdf").unwrap();
        prop_assert_eq!(file.datasets().len(), datasets.len());
        for (name, data) in &datasets {
            check(&file, name, data)?;
            let info = file.dataset(name).unwrap();
            prop_assert_eq!(info.attr("text"), Some(&godiva::sdf::AttrValue::Text(attr_text.clone())));
            prop_assert_eq!(info.encoding, encoding);
        }
    }

    #[test]
    fn any_single_byte_flip_in_payload_is_detected(
        values in prop::collection::vec(-1e6f64..1e6, 1..64),
        flip_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let fs = Arc::new(MemFs::new());
        let mut w = SdfWriter::create(fs.as_ref(), "t.sdf");
        w.put_1d("x", &values, vec![]).unwrap();
        w.finish().unwrap();

        // Flip one bit somewhere inside the payload region.
        let mut bytes = fs.read("t.sdf").unwrap();
        let payload_start = 24; // header
        let payload_len = values.len() * 8;
        let pos = payload_start + ((flip_fraction * (payload_len as f64 - 1.0)) as usize);
        bytes[pos] ^= 1 << bit;
        fs.write("t.sdf", &bytes).unwrap();

        let file = SdfFile::open(fs, "t.sdf").unwrap();
        let err = file.read::<f64>("x").unwrap_err();
        prop_assert!(
            matches!(err, SdfError::ChecksumMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn random_truncation_never_panics(
        values in prop::collection::vec(any::<i64>(), 0..64),
        keep_fraction in 0.0f64..1.0,
    ) {
        let fs = Arc::new(MemFs::new());
        let mut w = SdfWriter::create(fs.as_ref(), "t.sdf");
        w.put_1d("x", &values, vec![]).unwrap();
        w.finish().unwrap();
        let bytes = fs.read("t.sdf").unwrap();
        let keep = ((bytes.len() as f64) * keep_fraction) as usize;
        fs.write("t.sdf", &bytes[..keep]).unwrap();
        // Either a clean error, or (if the cut only removed nothing) success.
        if let Ok(file) = SdfFile::open(fs, "t.sdf") {
            prop_assert_eq!(keep, bytes.len());
            let _ = file.read::<i64>("x");
        }
    }

    #[test]
    fn hyperslab_equals_full_read_slice(
        values in prop::collection::vec(any::<i32>(), 1..256),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let fs = Arc::new(MemFs::new());
        let mut w = SdfWriter::create(fs.as_ref(), "t.sdf");
        w.put_1d("x", &values, vec![]).unwrap();
        w.finish().unwrap();
        let file = SdfFile::open(fs, "t.sdf").unwrap();
        let n = values.len() as u64;
        let start = ((n - 1) as f64 * start_frac) as u64;
        let count = (((n - start) as f64) * len_frac) as u64;
        let slab: Vec<i32> = file.read_slab("x", start, count).unwrap();
        prop_assert_eq!(slab.as_slice(), &values[start as usize..(start + count) as usize]);
    }

    #[test]
    fn plain_binary_roundtrip(values in prop::collection::vec(prop::num::f64::ANY, 0..256)) {
        let fs = MemFs::new();
        plain::write_array(&fs, "a.bin", &values).unwrap();
        let back: Vec<f64> = plain::read_array(&fs, "a.bin").unwrap();
        prop_assert_eq!(back.len(), values.len());
        for (x, y) in back.iter().zip(&values) {
            prop_assert!(bits_equal(*x, *y));
        }
    }

    #[test]
    fn crc32_matches_bytewise_reference(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        split_fraction in 0.0f64..1.0,
    ) {
        let expected = crc32_bytewise(&data);
        prop_assert_eq!(crc32(&data), expected);
        let split = (data.len() as f64 * split_fraction) as usize;
        let mut c = Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finish(), expected);
    }

    #[test]
    fn dtype_tags_are_stable(tag in 0u8..10) {
        // Decoding a tag either fails or round-trips; no panics.
        if let Ok(dt) = DType::from_tag(tag) {
            prop_assert_eq!(dt.tag(), tag);
        }
    }
}
