//! Microbenchmark: the unit lifecycle — `addUnit` / `waitUnit` /
//! `deleteUnit` overhead with a trivial read function, isolating the
//! library's own bookkeeping from file I/O.

use criterion::{criterion_group, criterion_main, Criterion};
use godiva_core::{DeclaredSize, FieldKind, Gbo, GboConfig, UnitSession};
use std::hint::black_box;

fn reader(s: &UnitSession) -> godiva_core::Result<()> {
    s.define_field("id", FieldKind::Str, DeclaredSize::Unknown)?;
    s.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)?;
    s.define_record("rec", 1)?;
    s.insert_field("rec", "id", true)?;
    s.insert_field("rec", "payload", false)?;
    s.commit_record_type("rec")?;
    let r = s.new_record("rec")?;
    r.set_str("id", s.unit())?;
    r.set_f64("payload", vec![1.0; 256])?;
    r.commit()
}

fn bench_unit_cycle_single_thread(c: &mut Criterion) {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        io_threads: 0,
        ..Default::default()
    });
    let mut i = 0u64;
    c.bench_function("unit_add_wait_delete_singlethread", |b| {
        b.iter(|| {
            let name = format!("unit{i}");
            i += 1;
            db.add_unit(&name, reader).unwrap();
            db.wait_unit(&name).unwrap();
            db.delete_unit(&name).unwrap();
            black_box(&name);
        });
    });
}

fn bench_unit_cycle_background(c: &mut Criterion) {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        ..Default::default()
    });
    let mut i = 0u64;
    c.bench_function("unit_add_wait_delete_background", |b| {
        b.iter(|| {
            let name = format!("bg{i}");
            i += 1;
            db.add_unit(&name, reader).unwrap();
            db.wait_unit(&name).unwrap();
            db.delete_unit(&name).unwrap();
            black_box(&name);
        });
    });
}

fn bench_cache_hit_wait(c: &mut Criterion) {
    let db = Gbo::with_config(GboConfig {
        mem_limit: 1 << 30,
        io_threads: 0,
        ..Default::default()
    });
    db.add_unit("hot", reader).unwrap();
    db.wait_unit("hot").unwrap();
    c.bench_function("wait_unit_cache_hit", |b| {
        b.iter(|| {
            db.wait_unit("hot").unwrap();
            db.finish_unit("hot").unwrap();
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_unit_cycle_single_thread, bench_unit_cycle_background, bench_cache_hit_wait
}
criterion_main!(benches);
