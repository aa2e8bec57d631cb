//! Property tests: the GODIVA key index behaves exactly like a model
//! `BTreeMap` over arbitrary schemas, key tuples and field contents.

use godiva::core::{DeclaredSize, FieldData, FieldKind, Gbo, GboConfig, GodivaError, Key};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn key_string() -> impl Strategy<Value = String> {
    // Includes empty strings, unicode, and embedded separators — the
    // index must not confuse ("ab", "c") with ("a", "bc").
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,8}",
        "[\\PC]{0,4}",
        Just("a|b".to_string()),
    ]
}

fn fresh_db(n_keys: usize) -> Gbo {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        io_threads: 0,
        ..Default::default()
    });
    for k in 0..n_keys {
        db.define_field(&format!("k{k}"), FieldKind::Str, DeclaredSize::Unknown)
            .unwrap();
    }
    db.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("rec", n_keys).unwrap();
    for k in 0..n_keys {
        db.insert_field("rec", &format!("k{k}"), true).unwrap();
    }
    db.insert_field("rec", "payload", false).unwrap();
    db.commit_record_type("rec").unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_model(
        n_keys in 1usize..4,
        records in prop::collection::vec(
            (prop::collection::vec(key_string(), 3), prop::collection::vec(-1e9f64..1e9, 0..8)),
            0..24,
        ),
    ) {
        let db = fresh_db(n_keys);
        let mut model: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
        for (keys, payload) in &records {
            let keys: Vec<String> = keys.iter().take(n_keys).cloned().collect();
            let rec = db.new_record("rec").unwrap();
            for (k, v) in keys.iter().enumerate() {
                rec.set_str(&format!("k{k}"), v.clone()).unwrap();
            }
            rec.set_f64("payload", payload.clone()).unwrap();
            match rec.commit() {
                Ok(()) => {
                    // Commit must succeed exactly when the key is fresh.
                    prop_assert!(!model.contains_key(&keys), "duplicate accepted: {keys:?}");
                    model.insert(keys, payload.clone());
                }
                Err(GodivaError::DuplicateKey(_)) => {
                    prop_assert!(model.contains_key(&keys), "fresh key rejected: {keys:?}");
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
        // Every model entry is queryable and returns the right payload.
        for (keys, payload) in &model {
            let kv: Vec<Key> = keys.iter().map(|s| Key::from(s.as_str())).collect();
            let buf = db.get_field_buffer("rec", "payload", &kv).unwrap();
            prop_assert_eq!(&*buf.f64s().unwrap(), payload.as_slice());
            let size = db.get_field_buffer_size("rec", "payload", &kv).unwrap();
            prop_assert_eq!(size, (payload.len() * 8) as u64);
        }
        let stats = db.stats();
        prop_assert_eq!(stats.records_committed as usize, model.len());
    }

    #[test]
    fn lookups_never_cross_keys(
        a in "[a-z]{1,6}",
        b in "[a-z]{1,6}",
    ) {
        prop_assume!(a != b);
        let db = fresh_db(2);
        let mk = |k0: &str, k1: &str, val: f64| {
            let rec = db.new_record("rec").unwrap();
            rec.set_str("k0", k0).unwrap();
            rec.set_str("k1", k1).unwrap();
            rec.set_f64("payload", vec![val]).unwrap();
            rec.commit().unwrap();
        };
        mk(&a, &b, 1.0);
        mk(&b, &a, 2.0);
        let get = |k0: &str, k1: &str| {
            db.get_field_buffer("rec", "payload", &[Key::from(k0), Key::from(k1)])
                .map(|buf| buf.f64s().unwrap()[0])
        };
        prop_assert_eq!(get(&a, &b).unwrap(), 1.0);
        prop_assert_eq!(get(&b, &a).unwrap(), 2.0);
        prop_assert!(get(&a, &a).is_err());
    }

    #[test]
    fn key_snapshot_protects_index(payloads in prop::collection::vec(-1e3f64..1e3, 1..16)) {
        // Non-key updates after commit must not disturb lookups.
        let db = fresh_db(1);
        let rec = db.new_record("rec").unwrap();
        rec.set_str("k0", "stable").unwrap();
        rec.set_f64("payload", vec![0.0]).unwrap();
        rec.commit().unwrap();
        for (i, chunk) in payloads.chunks(3).enumerate() {
            rec.set_f64("payload", chunk.to_vec()).unwrap();
            let buf = db
                .get_field_buffer("rec", "payload", &[Key::from("stable")])
                .unwrap();
            prop_assert_eq!(&*buf.f64s().unwrap(), chunk, "iteration {}", i);
        }
        // …and key mutation is refused outright.
        prop_assert!(rec.set_str("k0", "corrupted").is_err());
    }

    #[test]
    fn mem_accounting_tracks_every_set(sizes in prop::collection::vec(0usize..512, 1..20)) {
        let db = fresh_db(1);
        let mut expected = 0u64;
        for (i, n) in sizes.iter().enumerate() {
            let rec = db.new_record("rec").unwrap();
            rec.set_str("k0", format!("r{i}")).unwrap();
            expected += format!("r{i}").len() as u64;
            rec.set_f64("payload", vec![1.0; *n]).unwrap();
            expected += (*n as u64) * 8;
            rec.commit().unwrap();
        }
        prop_assert_eq!(db.mem_used(), expected);
    }

    #[test]
    fn field_data_kind_and_len_consistent(n in 0usize..100) {
        for kind in [FieldKind::F64, FieldKind::F32, FieldKind::I32, FieldKind::I64, FieldKind::Bytes, FieldKind::Str] {
            let bytes = (n * kind.elem_size()) as u64;
            let data = FieldData::zeroed(kind, bytes).unwrap();
            prop_assert_eq!(data.kind(), kind);
            prop_assert_eq!(data.byte_len(), bytes);
        }
    }
}
