//! Microbenchmark: key-lookup queries against the GODIVA database.
//!
//! `getFieldBuffer` is on Voyager's hot path (two calls per block per
//! pass), so its cost must stay negligible next to I/O. The paper's
//! index is an RB-tree (`std::map`); ours is a `BTreeMap`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use godiva_core::{DeclaredSize, FieldKind, Gbo, GboConfig, Key};
use std::hint::black_box;

fn build_db(records: usize) -> Gbo {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        io_threads: 0,
        ..Default::default()
    });
    db.define_field("block id", FieldKind::Str, DeclaredSize::Known(16))
        .unwrap();
    db.define_field("step id", FieldKind::I64, DeclaredSize::Known(8))
        .unwrap();
    db.define_field("data", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("blk", 2).unwrap();
    db.insert_field("blk", "block id", true).unwrap();
    db.insert_field("blk", "step id", true).unwrap();
    db.insert_field("blk", "data", false).unwrap();
    db.commit_record_type("blk").unwrap();
    for i in 0..records {
        let r = db.new_record("blk").unwrap();
        r.set_str("block id", format!("block_{:06}", i % 1000))
            .unwrap();
        r.set_i64("step id", vec![(i / 1000) as i64]).unwrap();
        r.set_f64("data", vec![i as f64; 64]).unwrap();
        r.commit().unwrap();
    }
    db
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("get_field_buffer");
    for &n in &[100usize, 1_000, 10_000] {
        let db = build_db(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut i = 0usize;
            b.iter(|| {
                let keys = [
                    Key::from(format!("block_{:06}", i % 1000.min(n))),
                    Key::from(((i % n) / 1000) as i64),
                ];
                i += 1;
                black_box(db.get_field_buffer("blk", "data", &keys).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_lookup_miss(c: &mut Criterion) {
    let db = build_db(10_000);
    c.bench_function("get_field_buffer_miss", |b| {
        let keys = [Key::from("no_such_block"), Key::from(0i64)];
        b.iter(|| black_box(db.get_field_buffer("blk", "data", &keys).is_err()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lookup, bench_lookup_miss
}
criterion_main!(benches);
