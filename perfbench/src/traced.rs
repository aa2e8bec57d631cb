//! The traced run, which yields the per-layer metrics.
//!
//! It alternates plain `run_voyager` runs with a replay of the same
//! inputs through a copy of Voyager's per-snapshot loop made of public
//! calls only, with a span around each call into a layer. Counters come
//! from the plain runs, self times from the replay's spans. The replay
//! must render exactly the plain runs' images, so the copy cannot drift
//! from the real loop unnoticed.

use crate::measure::{median, run_voyager_once, RunResult};
use crate::workload::Setup;
use crate::{check_runs, Outcome};
use godiva_obs::{FlightRecorder, Tracer};
use godiva_sdf::{ReadOptions, SdfFile};
use godiva_viz::color::ColorScheme;
use godiva_viz::filters::{clip_surface, isosurface, plane_slice, surface};
use godiva_viz::raster::rasterize;
use godiva_viz::{
    BlockData, Camera, ColorMap, Framebuffer, GodivaBackend, GodivaBackendOptions, GraphicsOp,
    Mode, SnapshotSource, TriangleSoup, VizResult,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call. Spans of one view share `view`; `parent` indexes
/// the enclosing span.
struct Span {
    name: &'static str,
    view: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, view: usize, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            view,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        view: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, view, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name: each span's duration minus the time
    /// its children cover (children of one span never overlap here).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += (s.end - s.start).as_secs_f64();
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= (s.end - s.start).as_secs_f64();
            }
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"view\":{},\"parent\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.name,
                s.view,
                parent,
                s.start.as_micros(),
                (s.end - s.start).as_micros()
            )?;
        }
        w.flush()
    }
}

/// The graphics op applied to one block, as Voyager applies it.
fn apply_op(
    op: &GraphicsOp,
    data: &BlockData,
    bounds: ([f64; 3], [f64; 3]),
) -> VizResult<TriangleSoup> {
    match op {
        GraphicsOp::Surface { .. } => surface(&data.mesh, &data.scalar),
        GraphicsOp::Isosurface { fraction, .. } => {
            let (lo, hi) = data
                .scalar
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            if !(lo.is_finite() && hi > lo) {
                return Ok(TriangleSoup::new());
            }
            isosurface(&data.mesh, &data.scalar, lo + fraction * (hi - lo))
        }
        GraphicsOp::Slice { axis, fraction, .. } => {
            let plane = axis.plane_at(bounds.0, bounds.1, *fraction);
            plane_slice(&data.mesh, &data.scalar, plane)
        }
        GraphicsOp::Clip { axis, fraction, .. } => {
            let plane = axis.plane_at(bounds.0, bounds.1, *fraction);
            clip_surface(&data.mesh, &data.scalar, plane)
        }
        other => panic!("the benchmark's pipeline has no {other:?} pass"),
    }
}

/// What one replay produced besides its run result.
struct Replay {
    run: RunResult,
    spans: Spans,
    triangles: u64,
}

/// Replay one run through the spanned copy of Voyager's loop.
fn replay(setup: &Setup) -> Replay {
    let (opts, probes) = setup.run_options();
    let read_options = ReadOptions::new().with_cpu(opts.cpu.clone(), opts.decode_work_per_kib);
    let vars = opts
        .spec
        .distinct_vars()
        .iter()
        .map(|v| v.to_string())
        .collect();
    let mut b = GodivaBackendOptions::batch(vars, opts.mode == Mode::GodivaMulti, opts.mem_limit);
    b.io_threads = opts.io_threads;
    b.granularity = opts.granularity;
    b.flight_recorder = opts.flight_recorder.clone();
    b.postmortem_path = opts.postmortem_path.clone();
    b.spill = opts.spill.clone();
    b.wal_dir = opts.wal_dir.clone();
    b.durability = opts.durability;
    if let Some(delete) = opts.delete_after_use {
        b.delete_after_use = delete;
    }
    let mut backend = GodivaBackend::new(opts.storage.clone(), opts.genx.clone(), read_options, b);
    let bounds = (
        [-opts.genx.r_outer, -opts.genx.r_outer, 0.0],
        [opts.genx.r_outer, opts.genx.r_outer, opts.genx.height],
    );
    let camera = Camera::framing(bounds.0, bounds.1);
    let (w, h) = opts.image_size;
    let mut fb = Framebuffer::new(w, h);
    let (out, prefix) = opts.images_out.clone().expect("images are written");
    let mut checksums = Vec::with_capacity(opts.snapshots.len());
    let mut triangles = 0u64;

    setup.dataset.take();
    let busy = opts.cpu.busy_time();
    let mut spans = Spans::new();
    let started = Instant::now();
    spans
        .time("begin_run", 0, None, || backend.begin_run(&opts.snapshots))
        .expect("begin_run");
    for (view, &s) in opts.snapshots.iter().enumerate() {
        let v = spans.open("view", view, None);
        fb.clear();
        for (i, op) in opts.spec.ops.iter().enumerate() {
            let load = if i == 0 { "load_first" } else { "load_cached" };
            let data = spans
                .time(load, view, Some(v), || backend.load_pass(s, op.var()))
                .expect("load_pass");
            let cmap = spans.time("colormap", view, Some(v), || {
                let mut all: Vec<f64> = Vec::new();
                for d in &data {
                    all.extend_from_slice(&d.scalar);
                }
                ColorMap::fit(&all, ColorScheme::Rainbow)
            });
            for d in &data {
                let soup = spans
                    .time("filter", view, Some(v), || apply_op(op, d, bounds))
                    .expect("filter");
                triangles += soup.tri_count() as u64;
                spans.time("raster", view, Some(v), || {
                    rasterize(&mut fb, &camera, &cmap, &soup)
                });
            }
            spans.time("vtk_model", view, Some(v), || {
                opts.cpu
                    .compute_sliced(opts.spec.work_per_op, Duration::from_millis(2))
            });
        }
        let path = format!("{prefix}/snap_{s:04}.ppm");
        spans
            .time("image_write", view, Some(v), || {
                godiva_viz::ppm::write_ppm(out.as_ref(), &path, &fb)
            })
            .expect("image write");
        checksums.push(fb.checksum());
        spans
            .time("end_snapshot", view, Some(v), || backend.end_snapshot(s))
            .expect("end_snapshot");
        spans.close(v);
    }
    let wall = started.elapsed();
    let run = RunResult::collect(
        setup,
        &probes,
        wall.as_secs_f64(),
        backend.visible_io().as_secs_f64(),
        checksums,
        backend.gbo_stats().expect("GODIVA build reports stats"),
        (opts.cpu.busy_time() - busy).as_secs_f64(),
    );
    Replay {
        run,
        spans,
        triangles,
    }
}

/// Decode cost of the files a run opened: each file is replayed once
/// through `SdfFile` on instant storage and its time counted once per
/// open. Returns (seconds, MB decoded).
fn sdf_decode(setup: &Setup, opens: &BTreeMap<String, u64>) -> (f64, f64) {
    let spec = crate::workload::medium_spec(setup.kind);
    let vars = spec.distinct_vars();
    let storage = setup.data.clone() as Arc<dyn godiva_platform::Storage>;
    let (mut secs, mut bytes) = (0.0, 0.0);
    for (path, &count) in opens {
        let t = Instant::now();
        let file = SdfFile::open_with(storage.clone(), path.clone(), ReadOptions::new())
            .expect("replayed file opens");
        let mut file_bytes = 0usize;
        let f: usize = path
            .rsplit_once("file_")
            .and_then(|(_, rest)| rest.strip_suffix(".sdf")?.parse().ok())
            .expect("dataset file name");
        for b in setup.genx.blocks_in_file(f) {
            let p: Vec<f64> = file
                .read(&godiva_genx::manifest::points_dataset(b))
                .expect("points");
            let c: Vec<i32> = file
                .read(&godiva_genx::manifest::conn_dataset(b))
                .expect("conn");
            file_bytes += p.len() * 8 + c.len() * 4;
            for v in &vars {
                let x: Vec<f64> = file
                    .read(&godiva_genx::manifest::var_dataset(b, v))
                    .expect("var");
                file_bytes += x.len() * 8;
            }
        }
        secs += t.elapsed().as_secs_f64() * count as f64;
        bytes += file_bytes as f64 * count as f64;
    }
    (secs, bytes / 1e6)
}

/// Cost of one `key_lookup`-shaped instant into a tracer teed to a
/// default flight recorder: the telemetry every lookup pays by default.
fn emit_ns() -> f64 {
    const N: u32 = 20_000;
    let recorder = Arc::new(FlightRecorder::default());
    let tracer = Tracer::disabled().tee(recorder.clone());
    let per_event: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                tracer.instant(
                    "gbo",
                    "key_lookup",
                    vec![("type", "genx_block".into()), ("hit", true.into())],
                );
            }
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    assert!(!recorder.is_empty(), "the recorder saw the events");
    median(&per_event)
}

pub fn traced(setup: &Setup, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut plain: Vec<RunResult> = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    while replays.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        if started.elapsed().as_secs_f64() >= crate::MAX_MEASURE_S && !replays.is_empty() {
            break;
        }
        plain.push(run_voyager_once(setup));
        replays.push(replay(setup));
    }
    let mut out = Outcome::default();
    let all: Vec<&RunResult> = plain.iter().chain(replays.iter().map(|r| &r.run)).collect();
    check_runs(setup, &all, &mut out);
    if replays
        .iter()
        .any(|r| r.run.checksums != plain[0].checksums)
    {
        out.problems
            .push("the traced replay's images differ from run_voyager's".into());
    }

    let plain_med =
        |f: &dyn Fn(&RunResult) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let replay_med =
        |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let self_times: Vec<BTreeMap<&str, f64>> =
        replays.iter().map(|r| r.spans.self_times()).collect();
    let span_med = |name: &str| {
        median(
            &self_times
                .iter()
                .map(|t| t.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };

    out.metric("viz.filter_s", span_med("filter"), "s");
    out.metric("viz.raster_s", span_med("raster"), "s");
    out.metric(
        "viz.triangles",
        replay_med(&|r| r.triangles as f64),
        "count",
    );
    out.metric("viz.colormap_s", span_med("colormap"), "s");
    out.metric("viz.image_write_s", span_med("image_write"), "s");
    out.metric("viz.load_first_s", span_med("load_first"), "s");
    out.metric("viz.load_cached_s", span_med("load_cached"), "s");

    let (decode_s, decode_mb) = sdf_decode(setup, &plain[0].dataset.opens);
    out.metric("sdf.decode_s", decode_s, "s");
    out.metric("sdf.decode_mb_per_s", decode_mb / decode_s, "MB/s");

    out.metric("platform.read_s", plain_med(&|r| r.dataset.read_s), "s");
    out.metric(
        "platform.reads",
        plain_med(&|r| r.dataset.reads as f64),
        "count",
    );
    out.metric(
        "platform.read_mb",
        plain_med(&|r| r.dataset.read_bytes as f64 / 1e6),
        "MB",
    );
    out.metric(
        "platform.seeks",
        plain_med(&|r| r.dataset.seeks as f64),
        "count",
    );
    out.metric("platform.cpu_busy_s", plain_med(&|r| r.cpu_busy_s), "s");

    let wait_ms = |r: &RunResult, q: f64| r.gbo.wait_hist.quantile_us(q).unwrap_or(0) as f64 / 1e3;
    out.metric("core.wait_ms_p50", plain_med(&|r| wait_ms(r, 0.5)), "ms");
    out.metric("core.wait_ms_p90", plain_med(&|r| wait_ms(r, 0.9)), "ms");
    out.metric(
        "core.unit_reads",
        plain_med(&|r| r.gbo.units_read as f64),
        "count",
    );
    out.metric(
        "core.cache_hits",
        plain_med(&|r| r.gbo.cache_hits as f64),
        "count",
    );
    out.metric(
        "core.hit_rate",
        plain_med(&|r| r.gbo.hit_rate().unwrap_or(0.0)),
        "ratio",
    );
    out.metric(
        "core.evictions",
        plain_med(&|r| r.gbo.evictions as f64),
        "count",
    );
    out.metric(
        "core.spill_hits",
        plain_med(&|r| r.gbo.spill_hits as f64),
        "count",
    );
    out.metric(
        "core.spill_misses",
        plain_med(&|r| r.gbo.spill_misses as f64),
        "count",
    );
    out.metric("core.spill_read_s", plain_med(&|r| r.spill.read_s), "s");
    out.metric("core.end_snapshot_s", span_med("end_snapshot"), "s");
    out.metric(
        "core.spill_writes",
        plain_med(&|r| r.gbo.spill_writes as f64),
        "count",
    );
    out.metric(
        "core.spill_write_mb",
        plain_med(&|r| r.spill.write_bytes as f64 / 1e6),
        "MB",
    );
    out.metric(
        "core.wal_appends",
        plain_med(&|r| r.gbo.wal_appends as f64),
        "count",
    );
    out.metric(
        "core.wal_mb",
        plain_med(&|r| r.gbo.wal_bytes as f64 / 1e6),
        "MB",
    );
    out.metric(
        "core.records_committed",
        plain_med(&|r| r.gbo.records_committed as f64),
        "count",
    );
    out.metric(
        "core.queries",
        plain_med(&|r| r.gbo.queries as f64),
        "count",
    );
    out.metric(
        "core.query_misses",
        plain_med(&|r| r.gbo.query_misses as f64),
        "count",
    );

    let wall = plain_med(&|r| r.wall_s);
    let events = plain_med(&|r| r.flight_events as f64);
    let emit = emit_ns();
    out.metric("obs.flight_events", events, "count");
    out.metric("obs.emit_ns", emit, "ns");
    out.metric(
        "obs.flight_share_pct",
        100.0 * events * emit * 1e-9 / wall,
        "%",
    );

    let traced_wall = replay_med(&|r| r.run.wall_s);
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall - wall) / wall,
        "%",
    );
    let unexplained = |r: &Replay| {
        let covered: f64 = r
            .spans
            .spans
            .iter()
            .filter(|s| s.name != "view")
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        100.0 * (r.run.wall_s - covered) / r.run.wall_s
    };
    out.metric("bench.unexplained_pct", replay_med(&unexplained), "%");

    if let Some(last) = replays.last() {
        let path = setup.scratch.join("spans.jsonl");
        if let Err(e) = last.spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "perfbench: {} plain + {} traced runs, {:.1} s measured",
        plain.len(),
        replays.len(),
        started.elapsed().as_secs_f64()
    );
    out
}
