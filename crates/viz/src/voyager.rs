//! The Voyager batch driver.
//!
//! §4.1: *"Voyager is a command line tool that takes as arguments a
//! camera position file, a graphics operations file, and a list of HDF
//! files to process"* and renders one image per time-step snapshot.
//! [`run_voyager`] is that loop, instrumented the way §4.2 measures it:
//!
//! - **visible I/O time** — blocking dataset reads plus unit waits,
//! - **computation time** — total execution time minus visible I/O.

use crate::backend::{
    DirectBackend, FaultMode, FaultReport, GodivaBackend, Granularity, SnapshotSource,
};
use crate::camera::Camera;
use crate::color::{ColorMap, ColorScheme};
use crate::error::{VizError, VizResult};
use crate::filters::{clip_surface, isosurface, plane_slice, surface, TriangleSoup};
use crate::ppm::write_ppm;
use crate::raster::{rasterize, Framebuffer};
use crate::spec::{GraphicsOp, TestSpec};
use godiva_core::GboStats;
use godiva_genx::GenxConfig;
use godiva_obs::{MetricsRegistry, Tracer};
use godiva_platform::{CpuPool, Storage};
use godiva_sdf::ReadOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which Voyager build to run — the paper's O / G / TG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Original implementation, no GODIVA (O).
    Original,
    /// Single-thread GODIVA library (G).
    GodivaSingle,
    /// Multi-thread GODIVA library with background I/O (TG).
    GodivaMulti,
}

impl Mode {
    /// Short label used in reports ("O", "G", "TG").
    pub fn label(self) -> &'static str {
        match self {
            Mode::Original => "O",
            Mode::GodivaSingle => "G",
            Mode::GodivaMulti => "TG",
        }
    }
}

/// Everything a Voyager run needs.
pub struct VoyagerOptions {
    /// Storage holding the GENx snapshot files.
    pub storage: Arc<dyn Storage>,
    /// CPU pool of the platform (compute and decode run under its
    /// core tokens).
    pub cpu: CpuPool,
    /// Dataset geometry/paths.
    pub genx: GenxConfig,
    /// Snapshots to process, in order.
    pub snapshots: Vec<usize>,
    /// The visualization test to run.
    pub spec: TestSpec,
    /// Which build to use.
    pub mode: Mode,
    /// GODIVA memory budget in bytes (ignored for `Mode::Original`;
    /// paper: 384 MB).
    pub mem_limit: u64,
    /// I/O executor workers for `Mode::GodivaMulti` (1 = the paper's
    /// single background thread; ignored for the other modes).
    pub io_threads: usize,
    /// Synthetic decode cost charged per KiB read (the HDF
    /// interpretation overhead; runs on whichever thread reads).
    pub decode_work_per_kib: u64,
    /// GODIVA unit granularity.
    pub granularity: Granularity,
    /// Output image size.
    pub image_size: (usize, usize),
    /// Where to write PPM images (`None` = render but don't store).
    pub images_out: Option<(Arc<dyn Storage>, String)>,
    /// Explicit camera (`None` = auto-frame the dataset bounds). The
    /// CLI passes the camera position file's contents here.
    pub camera: Option<Camera>,
    /// Image file format for `images_out`.
    pub image_format: ImageFormat,
    /// Retry policy for failing reads (applies to the GODIVA modes).
    pub retry: godiva_core::RetryPolicy,
    /// Abort on read failures (default) or degrade: skip the failed
    /// file/snapshot, render the rest, and report what was skipped.
    pub fault_mode: FaultMode,
    /// Tracer for render spans and (via the GODIVA modes) the database's
    /// unit-lifecycle events. Disabled by default: zero cost.
    pub tracer: Tracer,
    /// Metrics registry the database publishes counters into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Crash flight recorder the database installs (`None` disables it;
    /// the default is a fresh default-capacity recorder).
    pub flight_recorder: Option<Arc<godiva_obs::FlightRecorder>>,
    /// Post-mortem dump destination override (`None` = temp dir).
    pub postmortem_path: Option<std::path::PathBuf>,
    /// Second-tier spill cache for evicted units (GODIVA modes only;
    /// `None` disables spilling).
    pub spill: Option<godiva_core::SpillConfig>,
    /// Override the mode's unit-retirement behaviour: `Some(false)`
    /// keeps finished units cached for revisits (interactive-style
    /// browsing traces), `Some(true)` deletes them after each snapshot,
    /// `None` uses the mode default (batch deletes).
    pub delete_after_use: Option<bool>,
    /// Write-ahead log directory for the GODIVA modes (`None` disables
    /// journaling). With `resume`, recovery replays this log.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Journal flushing discipline when `wal_dir` is set.
    pub durability: godiva_core::Durability,
    /// Recover from the WAL in `wal_dir` instead of starting fresh:
    /// journaled units are re-seeded and surviving spill frames
    /// re-adopted, so a run killed mid-flight picks up warm.
    pub resume: bool,
    /// Liveness watchdog interval for the GODIVA modes (`None`
    /// disables it): work outstanding with no unit-lifecycle progress
    /// for this long counts a stall, dumps the flight recorder, and
    /// shows up on the health engine's `watchdog` rule.
    pub watchdog: Option<Duration>,
}

/// Output image encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImageFormat {
    /// Binary PPM (P6).
    #[default]
    Ppm,
    /// Uncompressed-deflate PNG.
    Png,
}

impl ImageFormat {
    /// File extension (without the dot).
    pub fn extension(self) -> &'static str {
        match self {
            ImageFormat::Ppm => "ppm",
            ImageFormat::Png => "png",
        }
    }
}

impl VoyagerOptions {
    /// Reasonable defaults for the given storage, CPU, dataset and test.
    pub fn new(
        storage: Arc<dyn Storage>,
        cpu: CpuPool,
        genx: GenxConfig,
        spec: TestSpec,
        mode: Mode,
    ) -> Self {
        let snapshots = (0..genx.snapshots).collect();
        VoyagerOptions {
            storage,
            cpu,
            genx,
            snapshots,
            spec,
            mode,
            mem_limit: 384 << 20,
            io_threads: 1,
            decode_work_per_kib: 25,
            granularity: Granularity::Snapshot,
            image_size: (192, 144),
            images_out: None,
            camera: None,
            image_format: ImageFormat::Ppm,
            retry: godiva_core::RetryPolicy::none(),
            fault_mode: FaultMode::Abort,
            tracer: Tracer::disabled(),
            metrics: None,
            flight_recorder: Some(Arc::new(godiva_obs::FlightRecorder::default())),
            postmortem_path: None,
            spill: None,
            delete_after_use: None,
            wal_dir: None,
            durability: godiva_core::Durability::default(),
            resume: false,
            watchdog: None,
        }
    }
}

/// Results of one Voyager run, in the paper's terms.
#[derive(Debug, Clone)]
pub struct VoyagerReport {
    /// Test name ("simple" / "medium" / "complex").
    pub test: String,
    /// Build label ("O" / "G" / "TG").
    pub mode: &'static str,
    /// Total execution time.
    pub total: Duration,
    /// Visible I/O time (blocking reads + unit waits).
    pub visible_io: Duration,
    /// Computation time = total − visible I/O.
    pub computation: Duration,
    /// Images rendered.
    pub images: usize,
    /// Per-snapshot framebuffer checksums (identical across modes for
    /// the same test and dataset).
    pub image_checksums: Vec<u64>,
    /// GODIVA statistics (absent for `Mode::Original`).
    pub gbo_stats: Option<GboStats>,
    /// What the run skipped and absorbed (empty unless
    /// [`FaultMode::Degrade`] was selected and faults occurred).
    pub fault_report: FaultReport,
}

/// Apply one graphics op to one block's data.
pub(crate) fn apply_op(
    op: &GraphicsOp,
    data: &crate::backend::BlockData,
    bounds: ([f64; 3], [f64; 3]),
) -> VizResult<TriangleSoup> {
    match op {
        GraphicsOp::Surface { .. } => surface(&data.mesh, &data.scalar),
        GraphicsOp::Isosurface { fraction, .. } => {
            // Isovalue from the *block's* range keeps every block
            // contributing geometry; the fraction is the spec's knob.
            let (min, max) = match data
                .scalar
                .iter()
                .copied()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                }) {
                (lo, hi) if lo.is_finite() && hi > lo => (lo, hi),
                _ => return Ok(TriangleSoup::new()),
            };
            let iso = min + fraction * (max - min);
            isosurface(&data.mesh, &data.scalar, iso)
        }
        GraphicsOp::Slice { axis, fraction, .. } => {
            let plane = axis.plane_at(bounds.0, bounds.1, *fraction);
            plane_slice(&data.mesh, &data.scalar, plane)
        }
        GraphicsOp::Clip { axis, fraction, .. } => {
            let plane = axis.plane_at(bounds.0, bounds.1, *fraction);
            clip_surface(&data.mesh, &data.scalar, plane)
        }
        GraphicsOp::Glyphs { scale, stride, .. } => {
            crate::glyphs::vector_glyphs(&data.mesh, &data.raw, *scale, *stride)
        }
        GraphicsOp::Threshold { lo, hi, .. } => {
            let (min, max) = match data
                .scalar
                .iter()
                .copied()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), v| {
                    (a.min(v), b.max(v))
                }) {
                (a, b) if a.is_finite() && b > a => (a, b),
                _ => return Ok(TriangleSoup::new()),
            };
            crate::glyphs::threshold(
                &data.mesh,
                &data.scalar,
                min + lo * (max - min),
                min + hi * (max - min),
            )
        }
    }
}

/// World bounds of the generated annulus dataset (known from the
/// config, so every mode uses identical planes and camera).
fn dataset_bounds(genx: &GenxConfig) -> ([f64; 3], [f64; 3]) {
    (
        [-genx.r_outer, -genx.r_outer, 0.0],
        [genx.r_outer, genx.r_outer, genx.height],
    )
}

/// Run one Voyager configuration to completion.
pub fn run_voyager(opts: VoyagerOptions) -> VizResult<VoyagerReport> {
    if opts.snapshots.is_empty() {
        return Err(VizError::Pipeline("no snapshots to process".into()));
    }
    let read_options = ReadOptions::new().with_cpu(opts.cpu.clone(), opts.decode_work_per_kib);
    let mut backend: Box<dyn SnapshotSource> = match opts.mode {
        Mode::Original => Box::new(
            DirectBackend::new(opts.storage.clone(), opts.genx.clone(), read_options)
                .with_fault_mode(opts.fault_mode),
        ),
        Mode::GodivaSingle | Mode::GodivaMulti => {
            let mut boptions = crate::backend::GodivaBackendOptions::batch(
                opts.spec
                    .distinct_vars()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                opts.mode == Mode::GodivaMulti,
                opts.mem_limit,
            );
            boptions.io_threads = opts.io_threads;
            boptions.granularity = opts.granularity;
            boptions.retry = opts.retry;
            boptions.fault_mode = opts.fault_mode;
            boptions.tracer = opts.tracer.clone();
            boptions.metrics = opts.metrics.clone();
            boptions.flight_recorder = opts.flight_recorder.clone();
            boptions.postmortem_path = opts.postmortem_path.clone();
            boptions.spill = opts.spill.clone();
            boptions.wal_dir = opts.wal_dir.clone();
            boptions.durability = opts.durability;
            boptions.watchdog = opts.watchdog;
            if let Some(delete) = opts.delete_after_use {
                boptions.delete_after_use = delete;
            }
            let be = if opts.resume {
                GodivaBackend::open_resuming(
                    opts.storage.clone(),
                    opts.genx.clone(),
                    read_options,
                    boptions,
                )?
            } else {
                GodivaBackend::new(
                    opts.storage.clone(),
                    opts.genx.clone(),
                    read_options,
                    boptions,
                )
            };
            Box::new(be)
        }
    };

    let bounds = dataset_bounds(&opts.genx);
    let camera = opts
        .camera
        .clone()
        .unwrap_or_else(|| Camera::framing(bounds.0, bounds.1));
    let (w, h) = opts.image_size;
    let mut fb = Framebuffer::new(w, h);
    let mut checksums = Vec::with_capacity(opts.snapshots.len());

    let tracer = opts.tracer.clone();
    let started = Instant::now();
    backend.begin_run(&opts.snapshots)?;
    for &s in &opts.snapshots {
        let snap_start = tracer.now_us();
        fb.clear();
        let mut rendered_blocks = 0usize;
        for op in &opts.spec.ops {
            let pass_start = tracer.now_us();
            let data = backend.load_pass(s, op.var())?;
            rendered_blocks += data.len();
            // Shared colour map per pass, fitted over all blocks so the
            // image is identical no matter which backend produced the
            // buffers.
            let mut all: Vec<f64> = Vec::new();
            for d in &data {
                all.extend_from_slice(&d.scalar);
            }
            let cmap = ColorMap::fit(&all, ColorScheme::Rainbow);
            // Real geometry + rasterization work…
            for d in &data {
                let block_start = tracer.now_us();
                let soup = apply_op(op, d, bounds)?;
                rasterize(&mut fb, &camera, &cmap, &soup);
                if tracer.enabled() {
                    tracer.complete(
                        "viz",
                        "render_block",
                        block_start,
                        vec![("snapshot", s.into()), ("block", d.block.into())],
                    );
                }
            }
            // …plus the synthetic VTK-scale processing load, run under a
            // core token so it contends like real computation.
            opts.cpu
                .compute_sliced(opts.spec.work_per_op, Duration::from_millis(2));
            if tracer.enabled() {
                tracer.complete(
                    "viz",
                    "render_pass",
                    pass_start,
                    vec![
                        ("snapshot", s.into()),
                        ("var", op.var().to_string().into()),
                        ("blocks", data.len().into()),
                    ],
                );
            }
        }
        // A snapshot every block of which was skipped under Degrade
        // produces no image — the skip is in the fault report instead.
        let fully_skipped = opts.fault_mode == FaultMode::Degrade && rendered_blocks == 0;
        if !fully_skipped {
            if let Some((out, prefix)) = &opts.images_out {
                let path = format!("{prefix}/snap_{s:04}.{}", opts.image_format.extension());
                match opts.image_format {
                    ImageFormat::Ppm => write_ppm(out.as_ref(), &path, &fb),
                    ImageFormat::Png => crate::png::write_png(out.as_ref(), &path, &fb),
                }
                .map_err(godiva_sdf::SdfError::Io)?;
            }
            checksums.push(fb.checksum());
        }
        backend.end_snapshot(s)?;
        if tracer.enabled() {
            tracer.complete(
                "viz",
                "render_snapshot",
                snap_start,
                vec![
                    ("snapshot", s.into()),
                    ("blocks", rendered_blocks.into()),
                    ("skipped", fully_skipped.into()),
                ],
            );
        }
    }
    let total = started.elapsed();
    let visible_io = backend.visible_io();
    Ok(VoyagerReport {
        test: opts.spec.name.clone(),
        mode: opts.mode.label(),
        total,
        visible_io,
        computation: total.saturating_sub(visible_io),
        images: checksums.len(),
        image_checksums: checksums,
        gbo_stats: backend.gbo_stats(),
        fault_report: backend.fault_report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use godiva_platform::MemFs;

    fn dataset() -> (Arc<dyn Storage>, GenxConfig) {
        let fs = Arc::new(MemFs::new());
        let config = GenxConfig::tiny();
        godiva_genx::generate(fs.as_ref(), &config).unwrap();
        (fs as Arc<dyn Storage>, config)
    }

    fn run(mode: Mode, spec: TestSpec) -> VoyagerReport {
        let (fs, config) = dataset();
        let mut opts = VoyagerOptions::new(fs, CpuPool::new(2, 4.0), config, spec, mode);
        opts.decode_work_per_kib = 0;
        opts.spec.work_per_op = godiva_platform::Work::from_micros(100);
        run_voyager(opts).unwrap()
    }

    #[test]
    fn all_modes_render_identical_images() {
        let o = run(Mode::Original, TestSpec::simple());
        let g = run(Mode::GodivaSingle, TestSpec::simple());
        let tg = run(Mode::GodivaMulti, TestSpec::simple());
        assert_eq!(o.images, 3);
        assert_eq!(o.image_checksums, g.image_checksums, "O vs G images differ");
        assert_eq!(
            o.image_checksums, tg.image_checksums,
            "O vs TG images differ"
        );
        assert!(o.gbo_stats.is_none());
        assert!(g.gbo_stats.is_some());
    }

    #[test]
    fn images_are_nonempty_and_vary_across_time() {
        let r = run(Mode::Original, TestSpec::simple());
        // Snapshots have different fields, so at least two frames differ.
        let distinct: std::collections::HashSet<u64> = r.image_checksums.iter().copied().collect();
        assert!(distinct.len() >= 2, "frames should not all be identical");
    }

    #[test]
    fn glyph_and_threshold_ops_render() {
        use crate::spec::GraphicsOp;
        let spec = TestSpec {
            name: "extras".into(),
            ops: vec![
                GraphicsOp::Glyphs {
                    var: "velocity".into(),
                    scale: 2e-3,
                    stride: 2,
                },
                GraphicsOp::Threshold {
                    var: "stress_avg".into(),
                    lo: 0.3,
                    hi: 0.8,
                },
            ],
            work_per_op: godiva_platform::Work::ZERO,
        };
        let o = run(Mode::Original, spec.clone());
        let tg = run(Mode::GodivaMulti, spec);
        assert_eq!(o.images, 3);
        assert_eq!(o.image_checksums, tg.image_checksums);
    }

    #[test]
    fn all_paper_specs_run_in_every_mode() {
        for spec in TestSpec::all() {
            for mode in [Mode::Original, Mode::GodivaSingle, Mode::GodivaMulti] {
                let r = run(mode, spec.clone());
                assert_eq!(r.images, 3, "{} {}", spec.name, r.mode);
                assert!(r.total >= r.visible_io);
            }
        }
    }

    #[test]
    fn images_written_when_requested() {
        let (fs, config) = dataset();
        let out = Arc::new(MemFs::new());
        let mut opts = VoyagerOptions::new(
            fs,
            CpuPool::new(2, 4.0),
            config,
            TestSpec::simple(),
            Mode::Original,
        );
        opts.decode_work_per_kib = 0;
        opts.spec.work_per_op = godiva_platform::Work::from_micros(100);
        opts.images_out = Some((out.clone() as Arc<dyn Storage>, "frames".into()));
        let r = run_voyager(opts).unwrap();
        assert_eq!(out.list("frames/").len(), r.images);
        let (w, h, _) = crate::ppm::read_ppm(out.as_ref(), "frames/snap_0000.ppm").unwrap();
        assert_eq!((w, h), (192, 144));
    }

    #[test]
    fn empty_snapshot_list_rejected() {
        let (fs, config) = dataset();
        let mut opts = VoyagerOptions::new(
            fs,
            CpuPool::new(1, 4.0),
            config,
            TestSpec::simple(),
            Mode::Original,
        );
        opts.snapshots.clear();
        assert!(run_voyager(opts).is_err());
    }

    #[test]
    fn trace_covers_render_and_unit_lifecycle() {
        use godiva_obs::MemorySink;

        let (fs, config) = dataset();
        let sink = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let mut opts = VoyagerOptions::new(
            fs,
            CpuPool::new(2, 4.0),
            config,
            TestSpec::simple(),
            Mode::GodivaMulti,
        );
        opts.decode_work_per_kib = 0;
        opts.spec.work_per_op = godiva_platform::Work::ZERO;
        opts.tracer = Tracer::new(sink.clone());
        opts.metrics = Some(registry.clone());
        run_voyager(opts).unwrap();

        let names: std::collections::HashSet<String> =
            sink.snapshot().iter().map(|e| e.name.to_string()).collect();
        for expected in [
            "unit_added",
            "read_start",
            "read_done",
            "read_unit",
            "unit_deleted",
            "render_block",
            "render_pass",
            "render_snapshot",
        ] {
            assert!(names.contains(expected), "missing event '{expected}'");
        }
        assert!(!registry.is_empty(), "metrics registry was populated");
        assert!(registry.render().contains("gbo.units_read"));
    }

    #[test]
    fn spill_restores_show_up_in_trace_analytics() {
        use godiva_core::SpillConfig;
        use godiva_obs::{analyze_trace, JsonlSink};
        use std::sync::Mutex;

        // A `Write` handle the test can read back after the run.
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (fs, config) = dataset();
        let browse = |mut opts: VoyagerOptions| {
            opts.decode_work_per_kib = 0;
            opts.spec.work_per_op = godiva_platform::Work::ZERO;
            // Two sweeps with interactive retirement: second-pass
            // visits find their snapshot evicted.
            opts.snapshots = (0..config.snapshots).chain(0..config.snapshots).collect();
            opts.delete_after_use = Some(false);
            opts
        };
        // Calibration pass: unbounded memory, no spill — yields the
        // per-unit footprint and the reference images.
        let mut opts = browse(VoyagerOptions::new(
            fs.clone(),
            CpuPool::new(2, 4.0),
            config.clone(),
            TestSpec::simple(),
            Mode::GodivaSingle,
        ));
        opts.mem_limit = 1 << 40;
        let reference = run_voyager(opts).unwrap();
        let stats = reference.gbo_stats.as_ref().unwrap();
        let unit_bytes = stats.bytes_allocated / config.snapshots as u64;

        // Traced run under a ~2.5-unit budget with an ample spill.
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let mut opts = browse(VoyagerOptions::new(
            fs,
            CpuPool::new(2, 4.0),
            config.clone(),
            TestSpec::simple(),
            Mode::GodivaSingle,
        ));
        opts.mem_limit = unit_bytes * 5 / 2;
        opts.spill = Some(SpillConfig {
            storage: Arc::new(MemFs::new()),
            dir: "spill".into(),
            budget: 1 << 30,
        });
        opts.tracer = Tracer::new(Arc::new(JsonlSink::new(buf.clone())));
        let report = run_voyager(opts).unwrap();
        assert_eq!(
            report.image_checksums, reference.image_checksums,
            "spilled revisits must render identical images"
        );
        let stats = report.gbo_stats.unwrap();
        assert_eq!(stats.spill_hits, config.snapshots as u64);
        assert_eq!(stats.spill_corrupt, 0);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let tr = analyze_trace(&text).unwrap();
        assert_eq!(tr.spill.hits as u64, stats.spill_hits);
        assert_eq!(tr.spill.writes as u64, stats.spill_writes);
        assert!(tr.spill.restored_bytes > 0, "hits must report bytes");
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Original.label(), "O");
        assert_eq!(Mode::GodivaSingle.label(), "G");
        assert_eq!(Mode::GodivaMulti.label(), "TG");
    }
}
