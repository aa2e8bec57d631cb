//! One run of a workload and what the benchmark reads off it: the
//! report, the probes' totals and the program's public counters.

use crate::probe::ProbeTotals;
use crate::workload::{RunProbes, Setup};
use godiva_core::GboStats;

/// What one run left behind.
pub struct RunResult {
    pub wall_s: f64,
    pub visible_io_s: f64,
    /// Gaps between successive image writes, in ms.
    pub image_gaps_ms: Vec<f64>,
    pub checksums: Vec<u64>,
    pub images_written: u64,
    pub dataset: ProbeTotals,
    pub spill: ProbeTotals,
    pub gbo: GboStats,
    pub flight_events: u64,
    pub cpu_busy_s: f64,
}

/// The work counters that must repeat exactly on a deterministic
/// workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCounters {
    pub input_bytes: u64,
    pub reads: u64,
    pub seeks: u64,
    pub records_committed: u64,
    pub queries: u64,
    pub evictions: u64,
    pub spill_hits: u64,
    pub spill_misses: u64,
    pub spill_writes: u64,
    pub wal_appends: u64,
}

impl RunResult {
    /// Read every probe and counter after a run whose wall and visible
    /// I/O times are given.
    pub fn collect(
        setup: &Setup,
        probes: &RunProbes,
        wall_s: f64,
        visible_io_s: f64,
        checksums: Vec<u64>,
        gbo: GboStats,
        cpu_busy_s: f64,
    ) -> RunResult {
        let images = probes.images.take();
        let image_gaps_ms = images
            .write_stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        let spill = probes.spill.as_ref().map(|p| p.take()).unwrap_or_default();
        probes.cleanup();
        RunResult {
            wall_s,
            visible_io_s,
            image_gaps_ms,
            checksums,
            images_written: images.writes,
            dataset: setup.dataset.take(),
            spill,
            gbo,
            flight_events: probes.recorder.len() as u64 + probes.recorder.dropped(),
            cpu_busy_s,
        }
    }

    /// Images that are missing or differ from the O-build reference.
    pub fn failed_images(&self, setup: &Setup) -> usize {
        let wrong = setup
            .visits
            .iter()
            .zip(&self.checksums)
            .filter(|(s, c)| setup.reference.get(s) != Some(c))
            .count();
        let missing = setup.visits.len().saturating_sub(self.checksums.len());
        let unwritten = setup
            .visits
            .len()
            .saturating_sub(self.images_written as usize);
        wrong + missing.max(unwritten)
    }

    pub fn counters(&self) -> WorkCounters {
        WorkCounters {
            input_bytes: self.dataset.read_bytes,
            reads: self.dataset.reads,
            seeks: self.dataset.seeks,
            records_committed: self.gbo.records_committed,
            queries: self.gbo.queries,
            evictions: self.gbo.evictions,
            spill_hits: self.gbo.spill_hits,
            spill_misses: self.gbo.spill_misses,
            spill_writes: self.gbo.spill_writes,
            wal_appends: self.gbo.wal_appends,
        }
    }
}

/// One untraced run through `godiva_viz::run_voyager`, as users call it.
pub fn run_voyager_once(setup: &Setup) -> RunResult {
    let (opts, probes) = setup.run_options();
    setup.dataset.take();
    let cpu = setup.platform.cpu().clone();
    let busy = cpu.busy_time();
    let report = godiva_viz::run_voyager(opts).expect("voyager run");
    RunResult::collect(
        setup,
        &probes,
        report.total.as_secs_f64(),
        report.visible_io.as_secs_f64(),
        report.image_checksums,
        report.gbo_stats.expect("GODIVA build reports stats"),
        (cpu.busy_time() - busy).as_secs_f64(),
    )
}

/// Exact-counter check over runs of one process: `None` when every run
/// matches the first, else a description of the first mismatch.
pub fn counters_mismatch(runs: &[&RunResult]) -> Option<String> {
    let first = runs.first()?.counters();
    runs.iter().enumerate().skip(1).find_map(|(i, r)| {
        let c = r.counters();
        (c != first).then(|| format!("run {i} counters {c:?} differ from run 0 {first:?}"))
    })
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
