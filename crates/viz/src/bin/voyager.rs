//! The Voyager command-line tool.
//!
//! §4.1: *"Voyager is a command line tool that takes as arguments a
//! camera position file, a graphics operations file, and a list of HDF
//! files to process"* and batch-renders one image per time-step
//! snapshot. This is that tool, reading SDF snapshot datasets from the
//! real filesystem.
//!
//! ```text
//! voyager generate --data DIR [--snapshots N] [--blocks B] [--files F]
//! voyager render   --data DIR --ops OPS.txt [--camera CAM.txt]
//!                  [--mode O|G|TG] [--mem MB] [--io-threads N] [--out DIR]
//!                  [--retries N] [--fault-mode abort|degrade]
//!                  [--trace-out PATH] [--trace-format chrome|jsonl]
//!                  [--metrics-summary]
//! voyager example-specs DIR       # write sample ops/camera files
//! ```
//!
//! `--trace-out` records the run's events — unit lifecycle, disk and
//! render spans — to a file. A `.json` path (or `--trace-format chrome`)
//! writes the Chrome `trace_event` array format loadable in Perfetto /
//! `chrome://tracing`; anything else writes one JSON event per line.
//! `--metrics-summary` prints the database's counters after the run;
//! `--metrics-json PATH` writes them as JSON (including the run's
//! measured `voyager.wall_us`, which `godiva-report --metrics-json`
//! cross-checks its attribution against); `--metrics-listen ADDR`
//! serves them live over HTTP while the run is in flight —
//! `curl ADDR/metrics` for Prometheus text, `ADDR/stats` for JSON —
//! with a background snapshotter sampling the gauges (memory occupancy,
//! queue depth) into the trace every 250 ms.

use godiva_genx::GenxConfig;
use godiva_obs::{
    ChromeTraceSink, JsonlSink, MetricsRegistry, MetricsServer, Snapshotter, TraceSink, Tracer,
    DEFAULT_SNAPSHOT_INTERVAL,
};
use godiva_platform::{CpuPool, RealFs, Storage};
use godiva_viz::specfile::{format_camera, format_ops, parse_camera, parse_ops};
use godiva_viz::{run_voyager, Camera, FaultMode, ImageFormat, Mode, TestSpec, VoyagerOptions};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  voyager generate --data DIR [--snapshots N] [--blocks B] [--files F]\n  \
         voyager render --data DIR --ops OPS.txt [--camera CAM.txt] [--mode O|G|TG] \
         [--mem MB] [--io-threads N] [--out DIR] [--width W] [--height H] [--format ppm|png] \
         [--retries N] [--fault-mode abort|degrade] [--spill-dir DIR] [--spill-budget MB] \
         [--wal-dir DIR] [--durability wal|wal-sync] [--resume] [--sweeps N] \
         [--trace-out PATH] [--trace-format chrome|jsonl] [--metrics-summary] \
         [--metrics-json PATH] [--metrics-listen ADDR] [--watchdog-ms N] \
         [--slo NAME=THRESHOLD]... [--alert-log PATH] [--health-tick-ms N]\n  \
         voyager example-specs DIR"
    );
    ExitCode::from(2)
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn value_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.value(flag).unwrap_or(default)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// All values of a repeatable flag, in order.
    fn values(&self, flag: &str) -> Vec<&str> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .filter_map(|(i, _)| self.0.get(i + 1))
            .map(String::as_str)
            .collect()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        return usage();
    };
    let args = Args(argv[1..].to_vec());
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "render" => cmd_render(&args),
        "example-specs" => cmd_example_specs(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("voyager: {e}");
            ExitCode::FAILURE
        }
    }
}

fn open_data_dir(args: &Args) -> Result<(Arc<dyn Storage>, String), String> {
    let data = args
        .value("--data")
        .ok_or("missing --data DIR".to_string())?;
    // Root the storage at the parent so 'DIR' stays part of the dataset
    // paths (the generator writes '<root>/snap_XXXX/file_Y.sdf').
    let path = std::path::Path::new(data);
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let (root, rel) = match parent {
        Some(p) => (
            p.to_path_buf(),
            path.file_name().unwrap().to_string_lossy().to_string(),
        ),
        None => (std::path::PathBuf::from("."), data.to_string()),
    };
    let fs = RealFs::new(root).map_err(|e| e.to_string())?;
    Ok((Arc::new(fs) as Arc<dyn Storage>, rel))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let (storage, root) = open_data_dir(args)?;
    let mut config = GenxConfig::paper_scaled();
    config.root = root;
    if let Some(v) = args.value("--snapshots") {
        config.snapshots = v.parse().map_err(|_| "--snapshots must be an integer")?;
    }
    if let Some(v) = args.value("--blocks") {
        config.blocks = v.parse().map_err(|_| "--blocks must be an integer")?;
    }
    if let Some(v) = args.value("--files") {
        config.files_per_snapshot = v.parse().map_err(|_| "--files must be an integer")?;
    }
    config.validate()?;
    eprintln!(
        "generating {} snapshots x {} files ({} nodes, {} tets, {} blocks)…",
        config.snapshots,
        config.files_per_snapshot,
        config.node_count(),
        config.elem_count(),
        config.blocks
    );
    let ds = godiva_genx::generate(storage.as_ref(), &config).map_err(|e| e.to_string())?;
    eprintln!(
        "done: {:.2} MB per snapshot under {}",
        ds.manifest.bytes_per_snapshot as f64 / (1024.0 * 1024.0),
        config.root
    );
    Ok(())
}

fn cmd_render(args: &Args) -> Result<(), String> {
    let (storage, root) = open_data_dir(args)?;
    let genx = godiva_genx::discover(storage.clone(), &root).map_err(|e| e.to_string())?;

    let ops_path = args.value("--ops").ok_or("missing --ops FILE")?;
    let ops_text =
        std::fs::read_to_string(ops_path).map_err(|e| format!("cannot read {ops_path}: {e}"))?;
    let spec: TestSpec = match ops_text.trim() {
        // The three paper tests are built in by name.
        "simple" => TestSpec::simple(),
        "medium" => TestSpec::medium(),
        "complex" => TestSpec::complex(),
        _ => parse_ops(&ops_text).map_err(|e| e.to_string())?,
    };

    let camera: Option<Camera> = match args.value("--camera") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(parse_camera(&text).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    let mode = match args.value_or("--mode", "TG") {
        "O" | "o" => Mode::Original,
        "G" | "g" => Mode::GodivaSingle,
        "TG" | "tg" => Mode::GodivaMulti,
        other => return Err(format!("unknown mode '{other}' (use O, G or TG)")),
    };
    let mem_mb: u64 = args
        .value_or("--mem", "384")
        .parse()
        .map_err(|_| "--mem must be an integer (MB)")?;
    let io_threads: usize = args
        .value_or("--io-threads", "1")
        .parse()
        .map_err(|_| "--io-threads must be an integer (reader workers, TG mode)")?;
    if mode == Mode::GodivaMulti && io_threads == 0 {
        return Err(
            "--mode TG needs --io-threads of at least 1 (use --mode G for inline reads)".into(),
        );
    }
    let width: usize = args
        .value_or("--width", "384")
        .parse()
        .map_err(|_| "--width must be an integer")?;
    let height: usize = args
        .value_or("--height", "288")
        .parse()
        .map_err(|_| "--height must be an integer")?;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2); // give the I/O thread somewhere to run
    let mut opts = VoyagerOptions::new(storage, CpuPool::new(cores, 1.0), genx.clone(), spec, mode);
    opts.mem_limit = mem_mb << 20;
    opts.io_threads = io_threads;
    opts.image_size = (width, height);
    opts.camera = camera;
    opts.image_format = match args.value_or("--format", "ppm") {
        "ppm" => ImageFormat::Ppm,
        "png" => ImageFormat::Png,
        other => return Err(format!("unknown image format '{other}' (use ppm or png)")),
    };
    opts.decode_work_per_kib = 0; // real machine: no synthetic costs
    opts.spec.work_per_op = godiva_platform::Work::ZERO;
    let retries: u32 = args
        .value_or("--retries", "1")
        .parse()
        .map_err(|_| "--retries must be an integer (total attempts per unit)")?;
    if retries == 0 {
        return Err("--retries must be at least 1".into());
    }
    if retries > 1 {
        opts.retry = godiva_core::RetryPolicy::new(
            retries,
            Duration::from_millis(10),
            Duration::from_secs(1),
        );
    }
    opts.fault_mode = match args.value_or("--fault-mode", "abort") {
        "abort" => FaultMode::Abort,
        "degrade" => FaultMode::Degrade,
        other => {
            return Err(format!(
                "unknown fault mode '{other}' (use abort or degrade)"
            ))
        }
    };
    if let Some(out) = args.value("--out") {
        let fs = RealFs::new(out).map_err(|e| e.to_string())?;
        opts.images_out = Some((Arc::new(fs) as Arc<dyn Storage>, "frames".into()));
    }
    // Second-tier spill cache: evicted units land in DIR and revisits
    // re-materialize from there instead of re-running the read.
    if let Some(dir) = args.value("--spill-dir") {
        let budget_mb: u64 = args
            .value_or("--spill-budget", "1024")
            .parse()
            .map_err(|_| "--spill-budget must be an integer (MB)")?;
        let fs = RealFs::new(dir).map_err(|e| e.to_string())?;
        opts.spill = Some(godiva_core::SpillConfig {
            storage: Arc::new(fs) as Arc<dyn Storage>,
            dir: "spill".into(),
            budget: budget_mb << 20,
        });
    } else if args.value("--spill-budget").is_some() {
        return Err("--spill-budget requires --spill-dir".into());
    }
    // Durability: journal every commit and unit transition to DIR, and
    // with --resume recover from that journal instead of starting cold.
    if let Some(dir) = args.value("--wal-dir") {
        opts.wal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(durability) = args.value("--durability") {
        if opts.wal_dir.is_none() {
            return Err("--durability requires --wal-dir".into());
        }
        opts.durability = match durability {
            "wal" => godiva_core::Durability::Wal,
            "wal-sync" => godiva_core::Durability::WalSync,
            other => {
                return Err(format!(
                    "unknown durability '{other}' (use wal or wal-sync)"
                ))
            }
        };
    }
    opts.resume = args.has("--resume");
    if opts.resume && opts.wal_dir.is_none() {
        return Err("--resume requires --wal-dir".into());
    }
    // Browsing traces: repeat the snapshot list N times, keeping units
    // cached between sweeps (interactive retirement) so revisits hit
    // the cache or the spill tier.
    let sweeps: usize = args
        .value_or("--sweeps", "1")
        .parse()
        .map_err(|_| "--sweeps must be an integer")?;
    if sweeps == 0 {
        return Err("--sweeps must be at least 1".into());
    }
    if sweeps > 1 {
        let one: Vec<usize> = opts.snapshots.clone();
        opts.snapshots = (0..sweeps).flat_map(|_| one.iter().copied()).collect();
        opts.delete_after_use = Some(false);
    }

    let trace_sink: Option<Arc<dyn TraceSink>> = match args.value("--trace-out") {
        Some(path) => {
            let format = match args.value("--trace-format") {
                Some(f @ ("chrome" | "jsonl")) => f,
                Some(other) => {
                    return Err(format!(
                        "unknown trace format '{other}' (use chrome or jsonl)"
                    ))
                }
                None if path.ends_with(".json") => "chrome",
                None => "jsonl",
            };
            let sink: Arc<dyn TraceSink> = match format {
                "chrome" => Arc::new(
                    ChromeTraceSink::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?,
                ),
                _ => Arc::new(
                    JsonlSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
                ),
            };
            opts.tracer = Tracer::new(sink.clone());
            Some(sink)
        }
        None => None,
    };
    // Liveness watchdog: stalls count, dump the ring, and drive the
    // health engine's `watchdog` rule.
    if let Some(ms) = args.value("--watchdog-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--watchdog-ms must be an integer (milliseconds)")?;
        if ms == 0 {
            return Err("--watchdog-ms must be at least 1".into());
        }
        opts.watchdog = Some(Duration::from_millis(ms));
    }
    // Any of the metrics/health outputs needs a live registry.
    let metrics_json = args.value("--metrics-json").map(str::to_string);
    let metrics_listen = args.value("--metrics-listen").map(str::to_string);
    let slo_overrides = args.values("--slo");
    let alert_log = args.value("--alert-log").map(std::path::PathBuf::from);
    let want_health = metrics_listen.is_some() || !slo_overrides.is_empty() || alert_log.is_some();
    let want_metrics = args.has("--metrics-summary") || metrics_json.is_some() || want_health;
    let metrics = want_metrics.then(|| {
        let registry = Arc::new(MetricsRegistry::new());
        opts.metrics = Some(registry.clone());
        registry
    });

    // Health engine: sliding windows over the registry, SLO rules with
    // burn-rate alerting, `/healthz`-`/alerts`-`/slo` readiness. Rides
    // alongside any live listener; `--slo`/`--alert-log` alone still
    // run it (with the JSONL log as the output).
    let health_engine = match (&metrics, want_health) {
        (Some(registry), true) => {
            let mut config = godiva_obs::HealthConfig {
                alert_log,
                ..Default::default()
            };
            if let Some(ms) = args.value("--health-tick-ms") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| "--health-tick-ms must be an integer (milliseconds)")?;
                config.tick = Duration::from_millis(ms.max(1));
            }
            for spec in &slo_overrides {
                config.apply_override(spec)?;
            }
            Some(godiva_obs::HealthEngine::spawn(
                registry.clone(),
                opts.tracer.clone(),
                config,
            ))
        }
        _ => None,
    };

    // Live export: HTTP listener + periodic gauge snapshotter. Both ride
    // for the duration of the run; the snapshotter samples occupancy and
    // queue depth into the trace so scrapes and godiva-report see the
    // run mid-flight, not just its final state.
    let _server = match (&metrics_listen, &metrics) {
        (Some(addr), Some(registry)) => {
            let server = MetricsServer::bind_with_health(
                addr.as_str(),
                registry.clone(),
                health_engine.as_ref().map(|e| e.handle()),
            )
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!(
                "metrics: serving http://{0}/metrics, /stats, /healthz, /alerts and /slo",
                server.local_addr()
            );
            Some(server)
        }
        _ => None,
    };
    let snapshotter = metrics.as_ref().map(|registry| {
        Snapshotter::spawn(
            registry.clone(),
            opts.tracer.clone(),
            DEFAULT_SNAPSHOT_INTERVAL,
        )
    });

    let report = run_voyager(opts).map_err(|e| e.to_string())?;
    // Stop sampling before the sink is finished so every gauge_sample
    // lands in the trace file. Stopping the health engine force-resolves
    // anything still firing, so every alert_fired in the trace is paired
    // with an alert_resolved (trace_check enforces this).
    drop(snapshotter);
    drop(health_engine);
    if let Some(registry) = &metrics {
        // The run's own measurements, for offline cross-checks
        // (godiva-report verifies its stall attribution sums to
        // voyager.wall_us).
        registry
            .counter("voyager.wall_us")
            .add(report.total.as_micros() as u64);
        registry
            .counter("voyager.visible_io_us")
            .add(report.visible_io.as_micros() as u64);
        registry
            .counter("voyager.computation_us")
            .add(report.computation.as_micros() as u64);
        registry.counter("voyager.images").add(report.images as u64);
    }
    if let Some(sink) = &trace_sink {
        sink.finish();
    }
    println!(
        "{} [{}]: {} snapshots in {:.3}s  (visible I/O {:.3}s, computation {:.3}s)",
        report.test,
        report.mode,
        report.images,
        report.total.as_secs_f64(),
        report.visible_io.as_secs_f64(),
        report.computation.as_secs_f64(),
    );
    if let Some(stats) = report.gbo_stats {
        println!(
            "godiva: {} background reads, {} blocking reads, {} cache hits, peak {:.1} MB",
            stats.background_reads,
            stats.blocking_reads,
            stats.cache_hits,
            stats.mem_peak as f64 / (1024.0 * 1024.0)
        );
        if stats.spill_writes + stats.spill_hits + stats.spill_misses > 0 {
            println!(
                "spill: {} writes, {} hits, {} misses, {} corrupt",
                stats.spill_writes, stats.spill_hits, stats.spill_misses, stats.spill_corrupt
            );
        }
        if stats.wal_appends + stats.wal_replayed > 0 {
            println!(
                "wal: {} appends ({:.2} MB), {} fsyncs, {} replayed, {} bytes truncated",
                stats.wal_appends,
                stats.wal_bytes as f64 / (1024.0 * 1024.0),
                stats.wal_fsyncs,
                stats.wal_replayed,
                stats.wal_truncated
            );
        }
    }
    let faults = &report.fault_report;
    if !faults.is_clean() {
        println!(
            "faults: {} blocks skipped, {} snapshots skipped entirely, {} unit retries, {} panics caught",
            faults.blocks_skipped.len(),
            faults.snapshots_skipped.len(),
            faults.units_retried,
            faults.panics_caught
        );
    }
    if args.value("--out").is_some() {
        println!(
            "frames written under {}/frames/",
            args.value("--out").unwrap()
        );
    }
    if let Some(path) = args.value("--trace-out") {
        println!("trace written to {path}");
    }
    if let Some(registry) = &metrics {
        if args.has("--metrics-summary") {
            println!("metrics:");
            for line in registry.render().lines() {
                println!("  {line}");
            }
        }
        if let Some(path) = &metrics_json {
            std::fs::write(path, registry.render_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("metrics JSON written to {path}");
        }
    }
    Ok(())
}

fn cmd_example_specs(args: &Args) -> Result<(), String> {
    let dir = args
        .0
        .first()
        .ok_or("usage: voyager example-specs DIR".to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for spec in TestSpec::all() {
        let path = format!("{dir}/{}.ops", spec.name);
        std::fs::write(&path, format_ops(&spec)).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    let cam = Camera::looking_at([4.0, 3.2, 60.0], [0.0, 0.0, 20.0]);
    let path = format!("{dir}/camera.txt");
    std::fs::write(&path, format_camera(&cam)).map_err(|e| e.to_string())?;
    eprintln!("wrote {path}");
    Ok(())
}
