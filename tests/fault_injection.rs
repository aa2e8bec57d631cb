//! Failure injection across the whole stack: storage faults must
//! surface as failed units / clean errors — never hangs, panics, or
//! silently wrong data (the SDF checksums catch corruption).

use godiva::core::{GodivaError, RetryPolicy};
use godiva::genx::GenxConfig;
use godiva::platform::{FaultyFs, MemFs, Storage};
use godiva::sdf::ReadOptions;
use godiva::viz::{
    run_voyager, FaultMode, GodivaBackend, GodivaBackendOptions, Granularity, Mode, SnapshotSource,
    TestSpec, VoyagerOptions,
};
use std::sync::Arc;
use std::time::Duration;

fn faulty_dataset() -> (Arc<FaultyFs>, GenxConfig) {
    let mem = Arc::new(MemFs::new());
    let mut genx = GenxConfig::tiny();
    genx.snapshots = 4;
    godiva::genx::generate(mem.as_ref(), &genx).unwrap();
    (Arc::new(FaultyFs::new(mem)), genx)
}

/// Reader-worker count under test. CI reruns this whole suite with
/// `GODIVA_IO_THREADS=2` so every fault path (failed units, retries,
/// panics, timeouts, degraded rendering) is also exercised on a
/// multi-worker executor; unset it defaults to 1, the paper's single
/// background I/O thread.
fn io_threads() -> usize {
    std::env::var("GODIVA_IO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// CI also reruns the suite with `GODIVA_SPILL_DIR` pointing at a
/// scratch directory: every fault path then runs with the spill tier
/// enabled too, proving fault handling and spilling compose. Each call
/// returns a fresh cache subdirectory so concurrently running tests
/// never share spill files. Unset (the default), spilling stays off —
/// the paper's discard-on-evict behavior.
fn spill_config() -> Option<godiva::core::SpillConfig> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::var("GODIVA_SPILL_DIR").ok()?;
    let fs = godiva::platform::RealFs::new(root).expect("GODIVA_SPILL_DIR must be creatable");
    Some(godiva::core::SpillConfig {
        storage: Arc::new(fs) as Arc<dyn Storage>,
        dir: format!(
            "spill-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ),
        budget: 64 << 20,
    })
}

/// CI also reruns the suite with `GODIVA_WAL_DIR` pointing at a scratch
/// directory: every fault path then journals to a write-ahead log,
/// proving fault handling and durability compose (journal points fire
/// on the exact transitions the faults exercise). Each call returns a
/// fresh subdirectory so concurrent tests never share a log. Unset (the
/// default), journaling stays off.
fn wal_dir() -> Option<std::path::PathBuf> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = std::env::var("GODIVA_WAL_DIR").ok()?;
    let dir = std::path::Path::new(&root).join(format!(
        "wal-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    Some(dir)
}

/// `GodivaBackendOptions::batch` with the suite's worker count (and,
/// under `GODIVA_SPILL_DIR` / `GODIVA_WAL_DIR`, spill tier and journal)
/// applied.
fn batch_options(background_io: bool, mem_limit: u64) -> GodivaBackendOptions {
    let mut options =
        GodivaBackendOptions::batch(vec!["stress_avg".into()], background_io, mem_limit);
    options.io_threads = io_threads();
    options.spill = spill_config();
    options.wal_dir = wal_dir();
    options
}

#[test]
fn failing_unit_reports_and_other_units_survive() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("snap_0001");
    let mut be = GodivaBackend::new(
        fs.clone() as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        batch_options(true, 64 << 20),
    );
    be.begin_run(&[0, 1, 2, 3]).unwrap();
    // Healthy snapshots before and after the bad one load fine.
    assert!(be.load_pass(0, "stress_avg").is_ok());
    be.end_snapshot(0).unwrap();
    let err = be.load_pass(1, "stress_avg").unwrap_err();
    assert!(
        matches!(
            err,
            godiva::viz::VizError::Godiva(GodivaError::ReadFailed { .. })
        ),
        "got: {err}"
    );
    assert!(be.load_pass(2, "stress_avg").is_ok());
    be.end_snapshot(2).unwrap();
    assert!(fs.injected() > 0);
    let stats = be.gbo_stats().unwrap();
    assert_eq!(stats.units_failed, 1);
}

#[test]
fn failed_unit_recovers_after_fault_clears() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("snap_0000");
    let db = godiva::core::Gbo::with_config(godiva::core::GboConfig {
        mem_limit: 64 << 20,
        io_threads: io_threads(),
        spill: spill_config(),
        wal_dir: wal_dir(),
        ..Default::default()
    });
    let storage = fs.clone() as Arc<dyn Storage>;
    let genx2 = genx.clone();
    let reader = move |s: &godiva::core::UnitSession| {
        // Minimal read function touching the faulty file.
        let path = genx2.file_path(0, 0);
        let file = godiva::sdf::SdfFile::open(storage.clone(), path)
            .map_err(|e| GodivaError::UnitError(e.to_string()))?;
        s.define_field(
            "t",
            godiva::core::FieldKind::F64,
            godiva::core::DeclaredSize::Unknown,
        )?;
        s.define_record("meta", 0)?;
        s.insert_field("meta", "t", false)?;
        s.commit_record_type("meta")?;
        let rec = s.new_record("meta")?;
        rec.set_f64(
            "t",
            file.read("meta.time")
                .map_err(|e| GodivaError::UnitError(e.to_string()))?,
        )?;
        rec.commit()
    };
    db.add_unit("u", reader.clone()).unwrap();
    assert!(db.wait_unit("u").is_err(), "fault must fail the unit");
    // Clear the fault, reset the unit, retry.
    fs.clear_faults();
    db.delete_unit("u").unwrap();
    db.add_unit("u", reader).unwrap();
    db.wait_unit("u").unwrap();
}

#[test]
fn corruption_is_caught_by_checksums_not_rendered() {
    let (fs, genx) = faulty_dataset();
    fs.corrupt_paths_with("snap_0002");
    let mut be = GodivaBackend::new(
        fs as Arc<dyn Storage>,
        genx,
        ReadOptions::new(),
        batch_options(false, 64 << 20),
    );
    be.begin_run(&[2]).unwrap();
    let err = be.load_pass(2, "stress_avg").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt") || msg.contains("truncated"),
        "corruption must be detected, got: {msg}"
    );
}

#[test]
fn retry_policy_recovers_transient_fault() {
    let (fs, genx) = faulty_dataset();
    // The first two reads touching snapshot 0 fail, then the fault
    // clears — within a 3-attempt budget.
    fs.fail_first_k_reads_of("snap_0000", 2);
    let mut options = batch_options(false, 64 << 20);
    options.retry = RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(4));
    let mut be = GodivaBackend::new(
        fs.clone() as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        options,
    );
    be.begin_run(&[0]).unwrap();
    be.db().wait_unit(&genx.snapshot_name(0)).unwrap();
    assert!(be.load_pass(0, "stress_avg").is_ok());
    let stats = be.gbo_stats().unwrap();
    assert!(stats.units_retried >= 1, "retries must be counted");
    assert_eq!(stats.units_failed, 0);
    assert!(fs.injected() >= 2);
}

#[test]
fn transient_fault_without_retries_fails_unit() {
    let (fs, genx) = faulty_dataset();
    fs.fail_first_k_reads_of("snap_0000", 2);
    // Default options: RetryPolicy::none().
    let mut be = GodivaBackend::new(
        fs as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        batch_options(false, 64 << 20),
    );
    be.begin_run(&[0]).unwrap();
    let err = be.db().wait_unit(&genx.snapshot_name(0)).unwrap_err();
    assert!(matches!(err, GodivaError::ReadFailed { .. }), "got: {err}");
    assert_eq!(be.gbo_stats().unwrap().units_retried, 0);
}

#[test]
fn panicking_read_function_is_contained() {
    let db = godiva::core::Gbo::with_config(godiva::core::GboConfig {
        mem_limit: 64 << 20,
        io_threads: io_threads(),
        spill: spill_config(),
        wal_dir: wal_dir(),
        ..Default::default()
    });
    db.add_unit(
        "boom",
        |_s: &godiva::core::UnitSession| -> godiva::core::Result<()> {
            panic!("read function exploded")
        },
    )
    .unwrap();
    let err = db.wait_unit("boom").unwrap_err();
    assert!(matches!(err, GodivaError::ReadFailed { .. }), "got: {err}");
    assert!(err.to_string().contains("panicked"), "got: {err}");
    // The background I/O thread survived the panic: a healthy unit
    // added afterwards still loads.
    db.add_unit("ok", |_s: &godiva::core::UnitSession| Ok(()))
        .unwrap();
    db.wait_unit("ok").unwrap();
    let stats = db.stats();
    assert_eq!(stats.panics_caught, 1);
}

#[test]
fn reset_unit_requeues_after_fault_clears() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("snap_0000");
    let mut be = GodivaBackend::new(
        fs.clone() as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        batch_options(false, 64 << 20),
    );
    be.begin_run(&[0]).unwrap();
    let name = genx.snapshot_name(0);
    assert!(be.db().wait_unit(&name).is_err());
    // The fault clears; no delete/re-add dance needed any more.
    fs.clear_faults();
    be.db().reset_unit(&name).unwrap();
    be.db().wait_unit(&name).unwrap();
    assert!(be.load_pass(0, "stress_avg").is_ok());
    assert_eq!(be.gbo_stats().unwrap().units_reset, 1);
}

#[test]
fn wait_unit_timeout_expires_then_unit_arrives() {
    let (fs, genx) = faulty_dataset();
    fs.set_read_latency(Duration::from_millis(60));
    let mut be = GodivaBackend::new(
        fs as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        batch_options(true, 64 << 20),
    );
    be.begin_run(&[0]).unwrap();
    let name = genx.snapshot_name(0);
    let err = be
        .db()
        .wait_unit_timeout(&name, Duration::from_millis(1))
        .unwrap_err();
    assert!(matches!(err, GodivaError::WaitTimeout { .. }), "got: {err}");
    // A patient wait still gets the unit.
    be.db().wait_unit(&name).unwrap();
    assert_eq!(be.gbo_stats().unwrap().wait_timeouts, 1);
}

#[test]
fn voyager_run_fails_cleanly_under_faults() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("file_1");
    for mode in [Mode::Original, Mode::GodivaSingle, Mode::GodivaMulti] {
        let mut opts = VoyagerOptions::new(
            fs.clone() as Arc<dyn Storage>,
            godiva::platform::CpuPool::new(2, 4.0),
            genx.clone(),
            TestSpec::simple(),
            mode,
        );
        opts.decode_work_per_kib = 0;
        opts.spec.work_per_op = godiva::platform::Work::ZERO;
        opts.io_threads = io_threads();
        let err = run_voyager(opts);
        assert!(err.is_err(), "{mode:?} must propagate the fault");
    }
}

#[test]
fn transient_single_read_fault_hits_exactly_one_mode_run() {
    let (fs, genx) = faulty_dataset();
    // Fault on the 5th read only: the first run trips it, a rerun works.
    fs.fail_nth_read(5);
    let mut opts = VoyagerOptions::new(
        fs.clone() as Arc<dyn Storage>,
        godiva::platform::CpuPool::new(2, 4.0),
        genx.clone(),
        TestSpec::simple(),
        Mode::Original,
    );
    opts.decode_work_per_kib = 0;
    opts.spec.work_per_op = godiva::platform::Work::ZERO;
    assert!(run_voyager(opts).is_err());
    let mut opts2 = VoyagerOptions::new(
        fs as Arc<dyn Storage>,
        godiva::platform::CpuPool::new(2, 4.0),
        genx,
        TestSpec::simple(),
        Mode::Original,
    );
    opts2.decode_work_per_kib = 0;
    opts2.spec.work_per_op = godiva::platform::Work::ZERO;
    assert!(run_voyager(opts2).is_ok(), "fault was transient");
}

fn degrade_opts(fs: Arc<FaultyFs>, genx: GenxConfig, mode: Mode) -> VoyagerOptions {
    let mut opts = VoyagerOptions::new(
        fs as Arc<dyn Storage>,
        godiva::platform::CpuPool::new(2, 4.0),
        genx,
        TestSpec::simple(),
        mode,
    );
    opts.decode_work_per_kib = 0;
    opts.spec.work_per_op = godiva::platform::Work::ZERO;
    opts.fault_mode = FaultMode::Degrade;
    opts.io_threads = io_threads();
    opts.spill = spill_config();
    opts.wal_dir = wal_dir();
    opts
}

/// Every (snapshot, block) pair stored in file 1, for all 4 snapshots.
fn file1_blocks(genx: &GenxConfig) -> Vec<(usize, usize)> {
    (0..genx.snapshots)
        .flat_map(|s| genx.blocks_in_file(1).map(move |b| (s, b)))
        .collect()
}

#[test]
fn degraded_original_skips_faulty_file_and_renders_the_rest() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("file_1"); // persistent: one file of every snapshot
    let r = run_voyager(degrade_opts(fs, genx.clone(), Mode::Original)).unwrap();
    // Blocks outside file 1 still rendered one image per snapshot.
    assert_eq!(r.images, genx.snapshots);
    assert!(r.fault_report.snapshots_skipped.is_empty());
    assert_eq!(r.fault_report.blocks_skipped, file1_blocks(&genx));
}

#[test]
fn degraded_godiva_snapshot_units_skip_whole_snapshots() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("file_1");
    for mode in [Mode::GodivaSingle, Mode::GodivaMulti] {
        let r = run_voyager(degrade_opts(fs.clone(), genx.clone(), mode)).unwrap();
        // Snapshot-granularity units read all files, so the persistent
        // fault fails every unit: the run completes with zero images
        // and reports every snapshot as skipped.
        assert_eq!(r.images, 0, "{mode:?}");
        assert_eq!(
            r.fault_report.snapshots_skipped,
            (0..genx.snapshots).collect::<Vec<_>>(),
            "{mode:?}"
        );
    }
}

#[test]
fn degraded_godiva_file_units_skip_only_faulty_file() {
    let (fs, genx) = faulty_dataset();
    fs.fail_paths_with("file_1");
    let mut opts = degrade_opts(fs, genx.clone(), Mode::GodivaMulti);
    opts.granularity = Granularity::File;
    let r = run_voyager(opts).unwrap();
    assert_eq!(r.images, genx.snapshots);
    assert!(r.fault_report.snapshots_skipped.is_empty());
    assert_eq!(r.fault_report.blocks_skipped, file1_blocks(&genx));
}

#[test]
fn corrupted_spill_frame_falls_back_to_read_function() {
    use godiva::core::{DeclaredSize, FieldKind, Key, UnitSession};
    // The dataset is synthesized by the read function; only the spill
    // cache sits behind the fault injector.
    let spill_fs = Arc::new(FaultyFs::new(Arc::new(MemFs::new())));
    let payload = 8 * 1024usize;
    let db = godiva::core::Gbo::with_config(godiva::core::GboConfig {
        // Room for ~1.5 units: loading the second unit must evict the
        // first, and the first's buffers go to the spill cache.
        mem_limit: (payload * 2) as u64,
        io_threads: 0,
        spill: Some(godiva::core::SpillConfig {
            storage: spill_fs.clone() as Arc<dyn Storage>,
            dir: "spill".into(),
            budget: 1 << 20,
        }),
        wal_dir: wal_dir(),
        ..Default::default()
    });
    let reader = move |s: &UnitSession| {
        s.define_field("id", FieldKind::Str, DeclaredSize::Unknown)?;
        s.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)?;
        s.define_record("rec", 1)?;
        s.insert_field("rec", "id", true)?;
        s.insert_field("rec", "payload", false)?;
        s.commit_record_type("rec")?;
        let r = s.new_record("rec")?;
        let seed = s.unit().len() as f64; // distinct data per unit
        r.set_str("id", s.unit())?;
        r.set_f64("payload", vec![seed; payload / 8])?;
        r.commit()
    };
    let query = |unit: &str| -> Vec<f64> {
        db.get_field_buffer("rec", "payload", &[Key::from(unit)])
            .unwrap()
            .f64s()
            .unwrap()
            .to_vec()
    };
    db.add_unit("a", reader).unwrap();
    db.wait_unit("a").unwrap();
    let original = query("a");
    db.finish_unit("a").unwrap();
    // Loading "bb" overflows the budget: "a" is evicted and spilled.
    db.add_unit("bb", reader).unwrap();
    db.wait_unit("bb").unwrap();
    db.finish_unit("bb").unwrap();
    assert!(db.stats().spill_writes >= 1, "eviction must have spilled");
    // From now on every spill-cache read hands back a flipped byte.
    spill_fs.corrupt_paths_with("spill/");
    // The revisit detects the bad checksum, drops the cache file, and
    // transparently re-runs the read function instead.
    db.wait_unit("a").unwrap();
    assert_eq!(original, query("a"), "fallback must reproduce the data");
    let stats = db.stats();
    assert_eq!(stats.spill_corrupt, 1, "corruption must be counted");
    assert_eq!(stats.spill_hits, 0, "a mangled frame is not a hit");
    assert!(spill_fs.injected() >= 1);
}

#[test]
fn degrade_with_retries_absorbs_transient_fault_without_skips() {
    let (fs, genx) = faulty_dataset();
    fs.fail_first_k_reads_of("snap_0000", 2);
    let mut opts = degrade_opts(fs, genx.clone(), Mode::GodivaSingle);
    opts.retry = RetryPolicy::new(3, Duration::from_millis(1), Duration::from_millis(4));
    let r = run_voyager(opts).unwrap();
    assert_eq!(r.images, genx.snapshots);
    assert!(r.fault_report.blocks_skipped.is_empty());
    assert!(r.fault_report.snapshots_skipped.is_empty());
    assert!(r.fault_report.units_retried >= 1);
}
