//! The three workloads: how each builds its inputs from the seed, and
//! the Voyager options every run of it uses. Why each exists is in
//! `perfbench/README.md`.

use crate::probe::Probe;
use godiva_core::{Durability, SpillConfig};
use godiva_genx::GenxConfig;
use godiva_obs::FlightRecorder;
use godiva_platform::{CpuPool, DiskModel, MemFs, Platform, SimFs, Storage, Work};
use godiva_viz::{run_voyager, Mode, TestSpec, VoyagerOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshots generated per dataset (the paper's time series length).
const SNAPSHOTS: usize = 32;
/// Views in one `revisit` browsing walk.
const REVISIT_VIEWS: usize = 120;
/// `revisit` budgets, in units of one snapshot's GODIVA footprint. The
/// memory budget holds the viewed snapshot with room to spare: at 2.5
/// units a loading view evicted parts of the snapshots it was about to
/// reuse, which spread cache-hit views over 40-90 ms and left
/// `image_ms_p50` in that sparse band, with an interquartile spread
/// above 0.2 of its median across seeds.
const REVISIT_MEM_UNITS: f64 = 3.5;
const REVISIT_SPILL_UNITS: f64 = 6.0;
/// Whole snapshots the budgets above hold, in memory and in spill.
const REVISIT_LRU: (usize, usize) = (3, 5);
/// Every `revisit` walk visits 16 distinct snapshots and, under a plain
/// two-level LRU of `REVISIT_LRU`, has 61 memory hits, 21 spill hits and
/// so 38 dataset reads. The 82 hits are the fast views, over two thirds
/// of the walk, so `image_ms_p50` lies inside their cluster.
const REVISIT_PROFILE: (usize, usize, usize) = (16, 61, 21);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperTg,
    CpuG,
    Revisit,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper_tg" => Some(Kind::PaperTg),
            "cpu_g" => Some(Kind::CpuG),
            "revisit" => Some(Kind::Revisit),
            _ => None,
        }
    }

    /// Whether the work counters must repeat exactly run to run. The
    /// TG build's reader races the render thread, so `paper_tg`'s cache
    /// hits and peak memory depend on timing.
    pub fn deterministic(self) -> bool {
        self != Kind::PaperTg
    }

    fn platform(self) -> Platform {
        match self {
            Kind::PaperTg => Platform::engle(0.04),
            Kind::CpuG => Platform::instant(2),
            Kind::Revisit => Platform::turing(0.02),
        }
    }

    fn mode(self) -> Mode {
        match self {
            Kind::PaperTg => Mode::GodivaMulti,
            Kind::CpuG | Kind::Revisit => Mode::GodivaSingle,
        }
    }

    fn genx(self, seed: u64) -> GenxConfig {
        let mut genx = GenxConfig::paper_scaled();
        genx.seed = seed;
        genx.snapshots = SNAPSHOTS;
        if self == Kind::CpuG {
            genx.nt *= 2;
            genx.nz *= 2;
        }
        genx
    }
}

/// A `revisit` browsing walk: 55% step forward, 30% step back, 15% jump
/// to a snapshot already visited.
fn browse_walk(rng: &mut SplitMix64, snapshots: usize, views: usize) -> Vec<usize> {
    let mut visits = vec![0usize];
    let mut cur = 0usize;
    while visits.len() < views {
        let r = rng.next_f64();
        cur = if r < 0.55 && cur + 1 < snapshots {
            cur + 1
        } else if r < 0.85 && cur > 0 {
            cur - 1
        } else {
            visits[(rng.next_u64() % visits.len() as u64) as usize]
        };
        visits.push(cur);
    }
    visits
}

/// How a walk uses a two-level LRU cache of whole snapshots holding
/// `memory` snapshots in memory and `spill` evicted ones on disk:
/// (distinct snapshots, memory hits, spill hits).
fn lru_profile(visits: &[usize], memory: usize, spill: usize) -> (usize, usize, usize) {
    let mut mem: Vec<usize> = Vec::new(); // most recent first
    let mut disk: Vec<usize> = Vec::new(); // most recent first
    let mut seen = std::collections::BTreeSet::new();
    let (mut mem_hits, mut spill_hits) = (0, 0);
    for &v in visits {
        seen.insert(v);
        if let Some(i) = mem.iter().position(|&s| s == v) {
            mem_hits += 1;
            mem.remove(i);
        } else if let Some(i) = disk.iter().position(|&s| s == v) {
            spill_hits += 1;
            disk.remove(i);
            disk.insert(0, v);
        }
        mem.insert(0, v);
        if mem.len() > memory {
            let evicted = mem.pop().expect("over capacity");
            disk.retain(|&s| s != evicted);
            disk.insert(0, evicted);
            disk.truncate(spill);
        }
    }
    (seen.len(), mem_hits, spill_hits)
}

/// The seed's first browsing walk whose LRU profile is
/// `REVISIT_PROFILE`. Unconditioned walks differ wildly between seeds
/// (6 to 32 distinct snapshots in 120 views), which would make the
/// spill and re-read work a property of the seed rather than of the
/// program; pinning the profile keeps that work the same for every seed
/// while the seed still picks the order of views and the data. About
/// one walk in 2,400 qualifies.
fn revisit_walk(seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ 0xB20B_5E5E_ED00_0001);
    for _ in 0..1_000_000 {
        let walk = browse_walk(&mut rng, SNAPSHOTS, REVISIT_VIEWS);
        if lru_profile(&walk, REVISIT_LRU.0, REVISIT_LRU.1) == REVISIT_PROFILE {
            return walk;
        }
    }
    panic!("no browsing walk with profile {REVISIT_PROFILE:?} for seed {seed}");
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything set-up produces: the generated dataset on the workload's
/// platform, an instant copy of it, and the reference images.
pub struct Setup {
    pub kind: Kind,
    pub genx: GenxConfig,
    pub platform: Platform,
    /// The dataset storage handed to the program, wrapped for timing.
    pub dataset: Arc<Probe>,
    /// The same files on instant storage (reference and decode replay).
    pub data: Arc<MemFs>,
    pub visits: Vec<usize>,
    /// O-build (`DirectBackend`) image checksum per visited snapshot.
    pub reference: BTreeMap<usize, u64>,
    /// One snapshot's GODIVA footprint in bytes (sizes `revisit`'s budgets).
    pub unit_bytes: u64,
    pub scratch: PathBuf,
}

/// The knobs of one run that outlive `run_voyager`, for reading back.
pub struct RunProbes {
    pub images: Arc<Probe>,
    pub spill: Option<Arc<Probe>>,
    pub recorder: Arc<FlightRecorder>,
    pub wal_dir: Option<PathBuf>,
}

impl RunProbes {
    /// Remove what the run left on the real file system.
    pub fn cleanup(&self) {
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn medium_spec(kind: Kind) -> TestSpec {
    let mut spec = TestSpec::medium();
    if kind != Kind::PaperTg {
        // cpu_g measures the program's own CPU; revisit keeps view
        // latency on the data path. Neither models the VTK load.
        spec.work_per_op = Work::ZERO;
    }
    spec
}

/// Generate the dataset, copy it onto the platform and render the
/// reference images.
pub fn setup(kind: Kind, seed: u64, scratch: &Path) -> Setup {
    let genx = kind.genx(seed);
    let data = Arc::new(MemFs::new());
    godiva_genx::generate(data.as_ref(), &genx).expect("dataset generation");
    let platform = kind.platform();
    let storage = platform.storage();
    for path in data.list("") {
        let bytes = data.read(&path).expect("generated file");
        storage.write(&path, &bytes).expect("platform copy");
    }
    let dataset = Probe::new(storage);

    let visits = match kind {
        Kind::Revisit => revisit_walk(seed),
        Kind::PaperTg | Kind::CpuG => (0..SNAPSHOTS).collect(),
    };
    let distinct: Vec<usize> = {
        let mut d = visits.clone();
        d.sort_unstable();
        d.dedup();
        d
    };
    let instant = |mode: Mode, snapshots: Vec<usize>| {
        let mut opts = VoyagerOptions::new(
            data.clone() as Arc<dyn Storage>,
            CpuPool::new(2, 1.0),
            genx.clone(),
            medium_spec(kind),
            mode,
        );
        opts.decode_work_per_kib = 0;
        opts.spec.work_per_op = Work::ZERO;
        opts.snapshots = snapshots;
        opts.postmortem_path = Some(scratch.join("postmortem.jsonl"));
        run_voyager(opts).expect("instant run")
    };
    // The O build is the slowest part of set-up; render the two halves
    // of the snapshot list on the two cores.
    let (first, second) = distinct.split_at(distinct.len() / 2);
    let checksums: Vec<u64> = std::thread::scope(|scope| {
        let half = scope.spawn(|| instant(Mode::Original, second.to_vec()));
        let mut sums = instant(Mode::Original, first.to_vec()).image_checksums;
        sums.extend(half.join().expect("reference thread").image_checksums);
        sums
    });
    let reference = distinct.iter().copied().zip(checksums).collect();
    let unit_bytes = if kind == Kind::Revisit {
        let calib = instant(Mode::GodivaSingle, vec![0]);
        calib.gbo_stats.expect("godiva stats").bytes_allocated
    } else {
        0
    };
    Setup {
        kind,
        genx,
        platform,
        dataset,
        data,
        visits,
        reference,
        unit_bytes,
        scratch: scratch.to_path_buf(),
    }
}

impl Setup {
    /// Options for one run plus the probes to read afterwards.
    pub fn run_options(&self) -> (VoyagerOptions, RunProbes) {
        let kind = self.kind;
        let mut opts = VoyagerOptions::new(
            self.dataset.clone() as Arc<dyn Storage>,
            self.platform.cpu().clone(),
            self.genx.clone(),
            medium_spec(kind),
            kind.mode(),
        );
        opts.snapshots = self.visits.clone();
        opts.postmortem_path = Some(self.scratch.join("postmortem.jsonl"));
        if kind == Kind::CpuG {
            opts.decode_work_per_kib = 0;
        }
        let images = Probe::new(Arc::new(MemFs::new()));
        opts.images_out = Some((images.clone() as Arc<dyn Storage>, "frames".into()));
        // The program's default recorder, held here so its event count
        // can be read after the run.
        let recorder = Arc::new(FlightRecorder::default());
        opts.flight_recorder = Some(recorder.clone());
        let mut probes = RunProbes {
            images,
            spill: None,
            recorder,
            wal_dir: None,
        };
        if kind == Kind::Revisit {
            opts.delete_after_use = Some(false);
            opts.mem_limit = (self.unit_bytes as f64 * REVISIT_MEM_UNITS) as u64;
            let disk = SimFs::new(DiskModel::cluster_scsi().scaled(0.02)).with_free_writes();
            let spill = Probe::new(Arc::new(disk));
            opts.spill = Some(SpillConfig {
                storage: spill.clone() as Arc<dyn Storage>,
                dir: "spill".into(),
                budget: (self.unit_bytes as f64 * REVISIT_SPILL_UNITS) as u64,
            });
            let wal_dir = self.scratch.join("wal");
            let _ = std::fs::remove_dir_all(&wal_dir);
            opts.wal_dir = Some(wal_dir.clone());
            opts.durability = Durability::Wal;
            probes.spill = Some(spill);
            probes.wal_dir = Some(wal_dir);
        }
        (opts, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_seeded_and_in_range() {
        let a = revisit_walk(3);
        assert_eq!(a, revisit_walk(3));
        assert_ne!(a, revisit_walk(4));
        assert_eq!(a.len(), REVISIT_VIEWS);
        assert!(a.iter().all(|&s| s < SNAPSHOTS));
    }

    #[test]
    fn lru_profile_counts_both_levels() {
        // Memory holds 2: the third view is a memory hit. The last two
        // views find their snapshot evicted from memory; a 1-frame
        // spill has lost both, a 3-frame spill still holds both.
        let walk = [0, 1, 0, 2, 3, 4, 0, 2];
        assert_eq!(lru_profile(&walk, 2, 1), (5, 1, 0));
        assert_eq!(lru_profile(&walk, 2, 3), (5, 1, 2));
    }
}
