//! Microbenchmark: SDF container read/write throughput vs plain binary
//! (in memory — no simulated disk — so this isolates the format's CPU
//! cost: serialization, directory handling, checksums, shuffle codec).
//! Also the per-operation costs of the SDF read path: one GENx-shaped
//! file read dataset by dataset, and CRC-32 throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use godiva_platform::MemFs;
use godiva_sdf::{crc, plain, Encoding, SdfFile, SdfWriter};
use std::hint::black_box;
use std::sync::Arc;

const ELEMS: usize = 64 * 1024; // 512 KiB of f64

fn bench_write(c: &mut Criterion) {
    let data: Vec<f64> = (0..ELEMS).map(|i| i as f64).collect();
    let mut group = c.benchmark_group("write_512KiB");
    group.throughput(Throughput::Bytes((ELEMS * 8) as u64));
    group.bench_function("sdf_raw", |b| {
        let fs = MemFs::new();
        b.iter(|| {
            let mut w = SdfWriter::create(&fs, "f.sdf");
            w.put_1d("x", &data, vec![]).unwrap();
            black_box(w.finish().unwrap())
        });
    });
    group.bench_function("sdf_shuffle", |b| {
        let fs = MemFs::new();
        b.iter(|| {
            let mut w = SdfWriter::create(&fs, "f.sdf").with_encoding(Encoding::Shuffle);
            w.put_1d("x", &data, vec![]).unwrap();
            black_box(w.finish().unwrap())
        });
    });
    group.bench_function("plain_binary", |b| {
        let fs = MemFs::new();
        b.iter(|| black_box(plain::write_array(&fs, "f.bin", &data).unwrap()));
    });
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    let data: Vec<f64> = (0..ELEMS).map(|i| i as f64).collect();
    let mut group = c.benchmark_group("read_512KiB");
    group.throughput(Throughput::Bytes((ELEMS * 8) as u64));

    for (label, encoding) in [
        ("sdf_raw", Encoding::Raw),
        ("sdf_shuffle", Encoding::Shuffle),
    ] {
        let fs = Arc::new(MemFs::new());
        let mut w = SdfWriter::create(fs.as_ref(), "f.sdf").with_encoding(encoding);
        w.put_1d("x", &data, vec![]).unwrap();
        w.finish().unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let f = SdfFile::open(fs.clone(), "f.sdf").unwrap();
                let v: Vec<f64> = f.read("x").unwrap();
                black_box(v.len())
            });
        });
    }

    let fs = MemFs::new();
    plain::write_array(&fs, "f.bin", &data).unwrap();
    group.bench_function("plain_binary", |b| {
        b.iter(|| {
            let v: Vec<f64> = plain::read_array(&fs, "f.bin").unwrap();
            black_box(v.len())
        });
    });
    group.finish();
}

fn bench_hyperslab(c: &mut Criterion) {
    let data: Vec<f64> = (0..ELEMS).map(|i| i as f64).collect();
    let fs = Arc::new(MemFs::new());
    let mut w = SdfWriter::create(fs.as_ref(), "f.sdf");
    w.put_1d("x", &data, vec![]).unwrap();
    w.finish().unwrap();
    let f = SdfFile::open(fs, "f.sdf").unwrap();
    c.bench_function("sdf_hyperslab_4KiB_of_512KiB", |b| {
        let mut off = 0u64;
        b.iter(|| {
            let v: Vec<f64> = f.read_slab("x", off % (ELEMS as u64 - 512), 512).unwrap();
            off += 512;
            black_box(v.len())
        });
    });
}

/// One file shaped like a GENx snapshot file: 200 f64 datasets of 1–10
/// KiB with block-style names, opened and then read by name one by one.
fn bench_genx_file(c: &mut Criterion) {
    let fs = Arc::new(MemFs::new());
    let mut w = SdfWriter::create(fs.as_ref(), "f.sdf");
    let mut names = Vec::new();
    let mut bytes = 0u64;
    for i in 0..200usize {
        let elems = 128 + (i * 397) % 1153; // 1–10 KiB of f64
        let data: Vec<f64> = (0..elems).map(|j| (i * j) as f64).collect();
        let name = format!("block_{:04}/var_{}", i / 5, i % 5);
        w.put_1d(&name, &data, vec![]).unwrap();
        names.push(name);
        bytes += elems as u64 * 8;
    }
    w.finish().unwrap();
    let mut group = c.benchmark_group("genx_file_200_datasets");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("open_and_read_each_by_name", |b| {
        b.iter(|| {
            let f = SdfFile::open(fs.clone(), "f.sdf").unwrap();
            let mut n = 0;
            for name in &names {
                let v: Vec<f64> = f.read(name).unwrap();
                n += v.len();
            }
            black_box(n)
        });
    });
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut group = c.benchmark_group("crc32_64KiB");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32", |b| b.iter(|| black_box(crc::crc32(&data))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_write, bench_read, bench_hyperslab, bench_genx_file, bench_crc32
}
criterion_main!(benches);
