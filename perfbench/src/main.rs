//! GODIVA benchmark: runs one workload for a fixed time and prints its
//! metrics as one JSON line.
//!
//! ```text
//! godiva-perfbench --workload <paper_tg|cpu_g|revisit> --seed N \
//!     --seconds S --trace <0|1> --scratch DIR
//! ```
//!
//! `--trace 0` times `run_voyager` and prints the end-to-end metrics;
//! `--trace 1` replays the workload through a spanned copy of Voyager's
//! loop and prints the per-layer metrics. `perfbench/README.md` lists
//! every metric and the layer it belongs to.

mod measure;
mod probe;
mod traced;
mod workload;

use measure::{counters_mismatch, median, quantile, run_voyager_once, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{setup, Kind, Setup};

/// Set-ups per process, at least this many and for at least this long;
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 5.0;
/// Fewest image gaps the p90 is taken over, so ten lie beyond it.
const MIN_IMAGE_GAPS: usize = 100;
/// Hard stop for starting another run, well inside the 180 s budget.
const MAX_MEASURE_S: f64 = 120.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scratch,
    })
}

/// The benchmark's result line: the metrics in the order added.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Check a set of runs' images and, where the workload is
/// deterministic, their work counters.
pub fn check_runs(setup: &Setup, runs: &[&RunResult], out: &mut Outcome) {
    for r in runs {
        out.attempted += setup.visits.len();
        out.failed += r.failed_images(setup);
    }
    if setup.kind.deterministic() {
        out.problems.extend(counters_mismatch(runs));
    }
}

/// The timed run: `run_voyager` back to back for `seconds`, untraced.
fn timed(setup: &Setup, setup_s: f64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut runs: Vec<RunResult> = Vec::new();
    loop {
        let gaps: usize = runs.iter().map(|r| r.image_gaps_ms.len()).sum();
        let elapsed = started.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && gaps >= MIN_IMAGE_GAPS && runs.len() >= 3;
        if enough || (elapsed >= MAX_MEASURE_S && !runs.is_empty()) {
            break;
        }
        runs.push(run_voyager_once(setup));
    }
    let mut out = Outcome::default();
    check_runs(setup, &runs.iter().collect::<Vec<_>>(), &mut out);
    let med = |f: &dyn Fn(&RunResult) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.image_gaps_ms.iter().copied())
        .collect();
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", med(&|r| r.wall_s), "s");
    out.metric("visible_io_s", med(&|r| r.visible_io_s), "s");
    out.metric("image_ms_p50", quantile(&gaps, 0.5), "ms");
    out.metric("image_ms_p90", quantile(&gaps, 0.9), "ms");
    out.metric(
        "input_mb",
        med(&|r| r.dataset.read_bytes as f64 / 1e6),
        "MB",
    );
    out.metric("gbo_peak_mb", med(&|r| r.gbo.mem_peak as f64 / 1e6), "MB");
    out.metric("ok_frac", ok, "ratio");
    let walls: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!(
        "perfbench: {} runs (wall s: {}), {} image gaps, {:.1} s measured",
        runs.len(),
        walls.join(" "),
        gaps.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let mut setup_times: Vec<f64> = Vec::new();
    let mut prepared: Option<Setup> = None;
    while setup_times.len() < MIN_SETUPS || setup_times.iter().sum::<f64>() < MIN_SETUP_S {
        // Drop the previous set-up first so at most one dataset is held.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(args.kind, args.seed, &args.scratch));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = prepared.expect("at least one set-up");
    let setup_s = median(&setup_times);
    let out = if args.trace {
        traced::traced(&setup, args.seconds)
    } else {
        timed(&setup, setup_s, args.seconds)
    };
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
