//! Microbenchmark: record creation, buffer fills and commits — the work
//! a developer-supplied read function performs per block (§3.1).

use criterion::{criterion_group, criterion_main, Criterion};
use godiva_core::{DeclaredSize, FieldKind, Gbo, GboConfig};
use std::hint::black_box;

fn fresh_db() -> Gbo {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        io_threads: 0,
        ..Default::default()
    });
    db.define_field("id", FieldKind::I64, DeclaredSize::Known(8))
        .unwrap();
    db.define_field("points", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_field("conn", FieldKind::I32, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("blk", 1).unwrap();
    db.insert_field("blk", "id", true).unwrap();
    db.insert_field("blk", "points", false).unwrap();
    db.insert_field("blk", "conn", false).unwrap();
    db.commit_record_type("blk").unwrap();
    db
}

fn bench_create_commit(c: &mut Criterion) {
    c.bench_function("record_create_fill_commit", |b| {
        let db = fresh_db();
        let points = vec![0.5f64; 300];
        let conn = vec![7i32; 400];
        let mut i = 0i64;
        b.iter(|| {
            let r = db.new_record("blk").unwrap();
            r.set_i64("id", vec![i]).unwrap();
            r.set_f64("points", points.clone()).unwrap();
            r.set_i32("conn", conn.clone()).unwrap();
            r.commit().unwrap();
            i += 1;
            black_box(r.id())
        });
    });
}

fn bench_schema_redefinition(c: &mut Criterion) {
    // Read functions re-declare the schema every run (§3.1); the
    // idempotent path must be cheap.
    c.bench_function("schema_redefinition_idempotent", |b| {
        let db = fresh_db();
        b.iter(|| {
            db.define_field("points", FieldKind::F64, DeclaredSize::Unknown)
                .unwrap();
            db.define_record("blk", 1).unwrap();
            db.insert_field("blk", "points", false).unwrap();
            db.commit_record_type("blk").unwrap();
        });
    });
}

fn bench_update_in_place(c: &mut Criterion) {
    c.bench_function("field_update_in_place", |b| {
        let db = fresh_db();
        let r = db.new_record("blk").unwrap();
        r.set_i64("id", vec![1]).unwrap();
        r.set_f64("points", vec![0.0; 1024]).unwrap();
        r.commit().unwrap();
        b.iter(|| {
            r.update_field("points", |d| {
                if let godiva_core::FieldData::F64(v) = d {
                    v[0] += 1.0;
                }
            })
            .unwrap();
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_create_commit, bench_schema_redefinition, bench_update_in_place
}
criterion_main!(benches);
