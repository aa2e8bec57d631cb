//! Ablation: cost of the always-on monitoring stack.
//!
//! PR 2 established that JSONL event tracing stays within ~5 % of an
//! uninstrumented run (`ablation_trace_overhead`). This experiment
//! measures what the *monitoring* additions stack on top of that
//! tracing baseline, on the same fig3a-style TG runs (Engle, `simple`
//! test):
//!
//! - **monitoring off** — no tracer, no flight recorder, no metrics:
//!   the absolute floor,
//! - **tracing (JSONL file)** — the PR 2 baseline every overhead below
//!   is judged against,
//! - **+ flight recorder** — the default-on crash ring teed off the
//!   tracer (one extra lock + clone per event),
//! - **+ metrics + snapshotter** — a live registry wired into the
//!   database plus the 250 ms gauge snapshotter (and, with
//!   `--metrics-listen ADDR`, the HTTP exporter serving scrapes during
//!   the runs),
//! - **+ health engine** — the full stack plus the sliding-window
//!   health engine (window frames each tick, SLO evaluation, burn-rate
//!   state machine) and the liveness watchdog on the database.
//!
//! Acceptance: the full monitoring stack — health engine included —
//! within 5 % of the tracing baseline.

use godiva_bench::{percent, repeat, ExperimentEnv, HarnessArgs, Table};
use godiva_obs::{
    FlightRecorder, HealthConfig, HealthEngine, JsonlSink, MetricsRegistry, MetricsServer,
    Snapshotter, Tracer, DEFAULT_SNAPSHOT_INTERVAL,
};
use godiva_platform::Platform;
use godiva_viz::{Mode, TestSpec, VoyagerOptions};
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    let genx = args.genx();
    let env = ExperimentEnv::prepare(Platform::engle(args.scale), &genx);
    println!(
        "== Ablation: monitoring overhead (TG, simple test, Engle) ==\n\
         {} snapshots, {} repeats, scale {}\n",
        args.snapshots, args.repeats, args.scale
    );

    let trace_path = std::env::temp_dir().join(format!(
        "godiva-monitoring-overhead-{}.jsonl",
        std::process::id()
    ));
    let file_tracer = {
        let path = trace_path.clone();
        move || {
            Tracer::new(Arc::new(
                JsonlSink::create(&path).expect("create trace file"),
            ))
        }
    };

    // The live-export config shares one registry across its repeats; the
    // snapshotter and (optional) HTTP listener run for that whole block,
    // as they would in production.
    let registry = Arc::new(MetricsRegistry::new());
    let server = args.metrics_listen.as_ref().map(|addr| {
        let server =
            MetricsServer::bind(addr.as_str(), registry.clone()).expect("bind metrics listener");
        println!(
            "serving live metrics on http://{}/metrics\n",
            server.local_addr()
        );
        server
    });

    type Configure = Box<dyn Fn(&mut VoyagerOptions)>;
    let configs: Vec<(&str, Configure)> = vec![
        (
            "monitoring off",
            Box::new(|opts: &mut VoyagerOptions| {
                opts.tracer = Tracer::disabled();
                opts.flight_recorder = None;
            }),
        ),
        (
            "tracing (JSONL file)",
            Box::new({
                let file_tracer = file_tracer.clone();
                move |opts: &mut VoyagerOptions| {
                    opts.tracer = file_tracer();
                    opts.flight_recorder = None;
                }
            }),
        ),
        (
            "+ flight recorder",
            Box::new({
                let file_tracer = file_tracer.clone();
                move |opts: &mut VoyagerOptions| {
                    opts.tracer = file_tracer();
                    opts.flight_recorder = Some(Arc::new(FlightRecorder::default()));
                }
            }),
        ),
        (
            "+ metrics + snapshotter",
            Box::new({
                let registry = registry.clone();
                let file_tracer = file_tracer.clone();
                move |opts: &mut VoyagerOptions| {
                    opts.tracer = file_tracer();
                    opts.flight_recorder = Some(Arc::new(FlightRecorder::default()));
                    opts.metrics = Some(registry.clone());
                }
            }),
        ),
        (
            "+ health engine",
            Box::new({
                let registry = registry.clone();
                move |opts: &mut VoyagerOptions| {
                    opts.tracer = file_tracer();
                    opts.flight_recorder = Some(Arc::new(FlightRecorder::default()));
                    opts.metrics = Some(registry.clone());
                    opts.watchdog = Some(std::time::Duration::from_secs(2));
                }
            }),
        ),
    ];

    let mut table = Table::new(&[
        "configuration",
        "total (s)",
        "visible I/O (s)",
        "vs tracing",
    ]);
    let mut floor: Option<f64> = None;
    let mut tracing_base: Option<f64> = None;
    let mut full_stack: Option<f64> = None;
    for (i, (label, configure)) in configs.iter().enumerate() {
        // The snapshotter samples the shared registry for the duration
        // of the live-export block only, like a real monitored run.
        let snapshotter = (i >= 3).then(|| {
            Snapshotter::spawn(
                registry.clone(),
                Tracer::new(Arc::new(JsonlSink::new(std::io::sink()))),
                DEFAULT_SNAPSHOT_INTERVAL,
            )
        });
        // The health engine block additionally ticks sliding windows
        // and evaluates the default SLO rules over the shared registry
        // at the production 1 s cadence.
        let health = (i == 4).then(|| {
            HealthEngine::spawn(
                registry.clone(),
                Tracer::new(Arc::new(JsonlSink::new(std::io::sink()))),
                HealthConfig::default(),
            )
        });
        let rr = repeat(&env, args.repeats, || {
            let mut opts = env.voyager_options(TestSpec::simple(), Mode::GodivaMulti);
            configure(&mut opts);
            opts
        });
        drop(health);
        drop(snapshotter);
        floor.get_or_insert(rr.total.mean);
        if i == 1 {
            tracing_base = Some(rr.total.mean);
        }
        if i == 4 {
            full_stack = Some(rr.total.mean);
        }
        // percent() is "reduced vs a"; negate to report added cost.
        let vs = match tracing_base {
            _ if i == 0 => "(floor)".to_string(),
            _ if i == 1 => "baseline".to_string(),
            Some(base) => format!("{:+.1}%", -percent(base, rr.total.mean)),
            None => "?".to_string(),
        };
        table.row(&[
            label.to_string(),
            format!("{:.3} ± {:.3}", rr.total.mean, rr.total.ci95),
            format!("{:.3}", rr.visible_io.mean),
            vs,
        ]);
    }
    println!("{}", table.render());
    if let Ok(meta) = std::fs::metadata(&trace_path) {
        println!(
            "trace file: {} ({:.1} KiB per run)",
            trace_path.display(),
            meta.len() as f64 / 1024.0
        );
    }
    let _ = std::fs::remove_file(&trace_path);
    drop(server);
    if let (Some(base), Some(full)) = (tracing_base, full_stack) {
        let overhead = -percent(base, full);
        println!("full monitoring stack vs tracing baseline: {overhead:+.1}% (target < 5%)");
    }
    println!(
        "acceptance: flight recorder, snapshotter and health engine within 5% of the \
         tracing baseline."
    );
}
