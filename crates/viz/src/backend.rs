//! Snapshot data backends — the heart of the paper's comparison.
//!
//! Three Voyager builds are measured in §4.2:
//!
//! - **O** (original): *"reading data and processing data are closely
//!   coupled, and certain mesh data may need to be read in repeatedly if
//!   there is more than one variable to visualize."* That is
//!   [`DirectBackend`]: every rendering pass re-opens the snapshot files
//!   and re-reads mesh + variable for each block.
//! - **G** (single-thread GODIVA): data management through a
//!   [`godiva_core::Gbo`] with background I/O disabled — redundant reads
//!   are gone (mesh read once per snapshot, buffers reused via the query
//!   interfaces), but reads still block the main thread.
//! - **TG** (multi-thread GODIVA): same, plus the background I/O thread
//!   prefetching whole snapshots ahead of processing.
//!
//! [`GodivaBackend`] implements both G and TG (construction flag).

use crate::error::{VizError, VizResult};
use godiva_core::{
    DeclaredSize, FieldKind, Gbo, GboConfig, GboStats, Key, RetryPolicy, UnitSession,
};
use godiva_genx::fields::{components, variable, VarKind};
use godiva_genx::manifest::{conn_dataset, points_dataset, var_dataset};
use godiva_genx::GenxConfig;
use godiva_mesh::{node_to_elem, TetMesh};
use godiva_obs::{MetricsRegistry, Tracer};
use godiva_platform::{Stopwatch, Storage};
use godiva_sdf::{ReadOptions, SdfFile};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Per-block data one rendering pass consumes: the block mesh and a
/// node scalar derived from the pass's variable.
#[derive(Debug, Clone)]
pub struct BlockData {
    /// Global block id.
    pub block: usize,
    /// The block's local mesh.
    pub mesh: Arc<TetMesh>,
    /// One colour scalar per node (vector magnitude / element average
    /// where the variable is not already a node scalar).
    pub scalar: Arc<Vec<f64>>,
    /// The variable's raw buffer as stored (flat components for
    /// vectors, per-element values for restart quantities) — what the
    /// glyph filter consumes.
    pub raw: Arc<Vec<f64>>,
}

/// How a backend responds to a unit or block whose read ultimately
/// failed (after any [`RetryPolicy`] retries were exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Propagate the failure and abort the run — the long-standing
    /// behavior, and still the default.
    #[default]
    Abort,
    /// Skip the failed file or snapshot, render whatever loaded, and
    /// record the skipped work in a [`FaultReport`].
    Degrade,
}

/// What one degraded run skipped and absorbed.
///
/// `blocks_skipped` is the authoritative list: every `(snapshot,
/// block)` pair that could not be rendered. `snapshots_skipped` is
/// derived convenience — the snapshots in which *no* block rendered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Snapshots that produced no renderable blocks at all.
    pub snapshots_skipped: Vec<usize>,
    /// Every `(snapshot, block)` pair skipped, in sorted order.
    pub blocks_skipped: Vec<(usize, usize)>,
    /// Units that needed at least one retry (from GBO stats; 0 for
    /// the direct backend).
    pub units_retried: u64,
    /// Read-function panics absorbed by the database (from GBO stats;
    /// 0 for the direct backend).
    pub panics_caught: u64,
}

impl FaultReport {
    /// `true` when nothing was skipped or retried.
    pub fn is_clean(&self) -> bool {
        self.snapshots_skipped.is_empty()
            && self.blocks_skipped.is_empty()
            && self.units_retried == 0
            && self.panics_caught == 0
    }
}

/// Skip bookkeeping shared by both backends (sets so a pass re-run in
/// a later op does not double-count a block).
#[derive(Debug, Default)]
struct SkipLog {
    blocks: BTreeSet<(usize, usize)>,
    snapshots: BTreeSet<usize>,
}

impl SkipLog {
    fn skip_block(&mut self, snapshot: usize, block: usize) {
        self.blocks.insert((snapshot, block));
    }

    fn skip_snapshot(&mut self, snapshot: usize) {
        self.snapshots.insert(snapshot);
    }

    fn report(&self, units_retried: u64, panics_caught: u64) -> FaultReport {
        FaultReport {
            snapshots_skipped: self.snapshots.iter().copied().collect(),
            blocks_skipped: self.blocks.iter().copied().collect(),
            units_retried,
            panics_caught,
        }
    }
}

/// How a Voyager run obtains snapshot data.
pub trait SnapshotSource {
    /// Called once with the snapshot processing order (prefetch hints).
    fn begin_run(&mut self, snapshots: &[usize]) -> VizResult<()>;
    /// Load everything one pass needs from one snapshot.
    fn load_pass(&mut self, snapshot: usize, var: &str) -> VizResult<Vec<BlockData>>;
    /// Snapshot processing completed; resources may be released.
    fn end_snapshot(&mut self, snapshot: usize) -> VizResult<()>;
    /// Cumulative *visible I/O time*: blocking reads + unit waits (§4.2).
    fn visible_io(&self) -> Duration;
    /// GODIVA statistics, if this source uses a GODIVA database.
    fn gbo_stats(&self) -> Option<GboStats> {
        None
    }
    /// What this run skipped and absorbed so far (empty unless the
    /// source runs under [`FaultMode::Degrade`] and faults occurred).
    fn fault_report(&self) -> FaultReport {
        FaultReport::default()
    }
}

/// Build a tet mesh from the flat buffers stored in snapshot files.
fn mesh_from_buffers(points: &[f64], conn: &[i32]) -> VizResult<TetMesh> {
    if !points.len().is_multiple_of(3) || !conn.len().is_multiple_of(4) {
        return Err(VizError::Pipeline(format!(
            "bad buffer shapes: {} coords, {} connectivity entries",
            points.len(),
            conn.len()
        )));
    }
    let mesh = TetMesh {
        points: points.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect(),
        tets: conn
            .chunks_exact(4)
            .map(|t| [t[0] as u32, t[1] as u32, t[2] as u32, t[3] as u32])
            .collect(),
    };
    Ok(mesh)
}

/// Derive a per-node colour scalar from a variable's raw buffer.
fn to_node_scalar(mesh: &TetMesh, var: &str, raw: &[f64]) -> VizResult<Vec<f64>> {
    let kind = variable(var)
        .ok_or_else(|| VizError::Pipeline(format!("unknown variable '{var}'")))?
        .kind;
    match kind {
        VarKind::NodeScalar => {
            mesh.check_node_field(raw)?;
            Ok(raw.to_vec())
        }
        VarKind::NodeVector => {
            let comps = components(kind);
            if raw.len() != mesh.node_count() * comps {
                return Err(VizError::Pipeline(format!(
                    "vector '{var}': {} values for {} nodes",
                    raw.len(),
                    mesh.node_count()
                )));
            }
            Ok(raw
                .chunks_exact(comps)
                .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
                .collect())
        }
        VarKind::ElemScalar => {
            mesh.check_elem_field(raw)?;
            // Average incident element values onto nodes.
            let adj = node_to_elem(mesh);
            Ok((0..mesh.node_count() as u32)
                .map(|n| {
                    let es = adj.elems_of(n);
                    if es.is_empty() {
                        0.0
                    } else {
                        es.iter().map(|&e| raw[e as usize]).sum::<f64>() / es.len() as f64
                    }
                })
                .collect())
        }
    }
}

// ---------------------------------------------------------------------------
// DirectBackend — the paper's "O"
// ---------------------------------------------------------------------------

/// The original Voyager data path: every pass re-opens the snapshot
/// files and re-reads mesh and variable data for every block.
pub struct DirectBackend {
    storage: Arc<dyn Storage>,
    config: GenxConfig,
    read_options: ReadOptions,
    io: Stopwatch,
    fault_mode: FaultMode,
    skips: SkipLog,
}

impl DirectBackend {
    /// New direct reader over `storage`.
    pub fn new(storage: Arc<dyn Storage>, config: GenxConfig, read_options: ReadOptions) -> Self {
        DirectBackend {
            storage,
            config,
            read_options,
            io: Stopwatch::new(),
            fault_mode: FaultMode::Abort,
            skips: SkipLog::default(),
        }
    }

    /// Select what happens when a file or block fails to read.
    pub fn with_fault_mode(mut self, fault_mode: FaultMode) -> Self {
        self.fault_mode = fault_mode;
        self
    }

    /// Read one block's buffers, converting them to [`BlockData`].
    fn read_block(&mut self, file: &SdfFile, var: &str, b: usize) -> VizResult<BlockData> {
        self.io.start();
        let read = (|| -> VizResult<_> {
            let points: Vec<f64> = file.read(&points_dataset(b))?;
            let conn: Vec<i32> = file.read(&conn_dataset(b))?;
            let raw: Vec<f64> = file.read(&var_dataset(b, var))?;
            Ok((points, conn, raw))
        })();
        self.io.stop();
        let (points, conn, raw) = read?;
        // Interpreting the buffers is computation, not I/O.
        let mesh = mesh_from_buffers(&points, &conn)?;
        let scalar = to_node_scalar(&mesh, var, &raw)?;
        Ok(BlockData {
            block: b,
            mesh: Arc::new(mesh),
            scalar: Arc::new(scalar),
            raw: Arc::new(raw),
        })
    }
}

impl SnapshotSource for DirectBackend {
    fn begin_run(&mut self, _snapshots: &[usize]) -> VizResult<()> {
        Ok(())
    }

    fn load_pass(&mut self, snapshot: usize, var: &str) -> VizResult<Vec<BlockData>> {
        let degrade = self.fault_mode == FaultMode::Degrade;
        let mut out = Vec::with_capacity(self.config.blocks);
        for f in 0..self.config.files_per_snapshot {
            let path = self.config.file_path(snapshot, f);
            // Blocking reads on the calling thread; all of it is visible
            // I/O time in the paper's accounting.
            self.io.start();
            let file = SdfFile::open_with(self.storage.clone(), path, self.read_options.clone());
            self.io.stop();
            let file = match file {
                Ok(file) => file,
                Err(_) if degrade => {
                    // The whole file is unreadable: skip its blocks.
                    for b in self.config.blocks_in_file(f) {
                        self.skips.skip_block(snapshot, b);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            for b in self.config.blocks_in_file(f) {
                match self.read_block(&file, var, b) {
                    Ok(data) => out.push(data),
                    // Pipeline errors (unknown variable, bad shapes) are
                    // bugs, not faults — they abort even under Degrade.
                    Err(VizError::Pipeline(m)) => return Err(VizError::Pipeline(m)),
                    Err(_) if degrade => self.skips.skip_block(snapshot, b),
                    Err(e) => return Err(e),
                }
            }
        }
        if degrade && out.is_empty() {
            self.skips.skip_snapshot(snapshot);
        }
        Ok(out)
    }

    fn end_snapshot(&mut self, _snapshot: usize) -> VizResult<()> {
        Ok(())
    }

    fn visible_io(&self) -> Duration {
        self.io.elapsed()
    }

    fn fault_report(&self) -> FaultReport {
        self.skips.report(0, 0)
    }
}

// ---------------------------------------------------------------------------
// GodivaBackend — the paper's "G" (single-thread) and "TG" (multi-thread)
// ---------------------------------------------------------------------------

/// A cached per-(block, variable) pair: derived node scalar + raw buffer.
type ScalarEntry = (Arc<Vec<f64>>, Arc<Vec<f64>>);

/// Unit granularity for the GODIVA backend (§3.2 lets developers pick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// All files of one time-step snapshot form one unit — what Voyager
    /// uses in the paper.
    #[default]
    Snapshot,
    /// Each file is its own unit (finer prefetching granularity).
    File,
}

/// Construction options for [`GodivaBackend`].
#[derive(Debug, Clone)]
pub struct GodivaBackendOptions {
    /// Variables the test visualizes; the read functions read exactly
    /// these (plus mesh geometry).
    pub vars: Vec<String>,
    /// `true` = the paper's TG build (background I/O thread), `false` =
    /// its G build (reads happen inside `wait_unit`; the database gets
    /// `io_threads: 0` whatever `io_threads` says).
    pub background_io: bool,
    /// Number of I/O executor workers when `background_io` is on
    /// (1 = the paper's single background thread).
    pub io_threads: usize,
    /// GODIVA memory budget in bytes (paper: 384 MB).
    pub mem_limit: u64,
    /// Unit granularity.
    pub granularity: Granularity,
    /// `true` = batch mode (`delete_unit` after each snapshot), `false`
    /// = interactive mode (`finish_unit`, units stay cached).
    pub delete_after_use: bool,
    /// Eviction policy for finished units.
    pub eviction: godiva_core::EvictionPolicy,
    /// Blocks this backend is responsible for (`None` = all). The
    /// Apollo/Houston server partitions blocks across worker databases
    /// this way; each worker's read functions then only read its own
    /// blocks from the shared files.
    pub block_subset: Option<Vec<usize>>,
    /// Retry policy applied by the database to failing read functions.
    pub retry: RetryPolicy,
    /// What to do when a unit's read ultimately fails.
    pub fault_mode: FaultMode,
    /// Tracer handed to the database; disabled by default.
    pub tracer: Tracer,
    /// Metrics registry the database publishes its counters into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Crash flight recorder handed to the database (`None` disables
    /// it). Defaults to a fresh default-capacity recorder.
    pub flight_recorder: Option<Arc<godiva_obs::FlightRecorder>>,
    /// Post-mortem dump destination override.
    pub postmortem_path: Option<std::path::PathBuf>,
    /// Second-tier spill cache for evicted units: evicted buffers are
    /// written to a checksummed cache file and revisits re-materialize
    /// from it instead of re-running the read callback. `None` (the
    /// default) keeps the paper's discard-on-evict behaviour.
    pub spill: Option<godiva_core::SpillConfig>,
    /// Directory for the database's write-ahead log; `None` (default)
    /// disables journaling. See [`godiva_core::GboConfig::wal_dir`].
    pub wal_dir: Option<std::path::PathBuf>,
    /// Journal flushing discipline when `wal_dir` is set.
    pub durability: godiva_core::Durability,
    /// Liveness watchdog interval handed to the database (see
    /// [`godiva_core::GboConfig::watchdog`]); `None` (default) disables
    /// it.
    pub watchdog: Option<std::time::Duration>,
}

impl GodivaBackendOptions {
    /// Batch-mode options over the given variables.
    pub fn batch(vars: Vec<String>, background_io: bool, mem_limit: u64) -> Self {
        GodivaBackendOptions {
            vars,
            background_io,
            io_threads: 1,
            mem_limit,
            granularity: Granularity::Snapshot,
            delete_after_use: true,
            eviction: godiva_core::EvictionPolicy::Lru,
            block_subset: None,
            retry: RetryPolicy::none(),
            fault_mode: FaultMode::Abort,
            tracer: Tracer::disabled(),
            metrics: None,
            flight_recorder: Some(Arc::new(godiva_obs::FlightRecorder::default())),
            postmortem_path: None,
            spill: None,
            wal_dir: None,
            durability: godiva_core::Durability::default(),
            watchdog: None,
        }
    }

    /// Interactive-mode options (units finish instead of being deleted).
    pub fn interactive(vars: Vec<String>, mem_limit: u64) -> Self {
        GodivaBackendOptions {
            delete_after_use: false,
            ..Self::batch(vars, false, mem_limit)
        }
    }
}

/// Voyager's data path through the GODIVA database.
pub struct GodivaBackend {
    db: Gbo,
    storage: Arc<dyn Storage>,
    config: GenxConfig,
    read_options: ReadOptions,
    vars: Vec<String>,
    /// Blocks this backend owns (all of them unless partitioned).
    blocks: Vec<usize>,
    granularity: Granularity,
    io: Stopwatch,
    /// Snapshot whose caches below are valid.
    current: Option<usize>,
    mesh_cache: HashMap<usize, Arc<TetMesh>>,
    scalar_cache: HashMap<(usize, String), ScalarEntry>,
    /// Delete units after processing (batch mode) or keep them cached
    /// for revisits (interactive mode).
    delete_after_use: bool,
    fault_mode: FaultMode,
    /// Units whose read ultimately failed (Degrade mode only).
    failed_units: HashSet<String>,
    skips: SkipLog,
}

/// The record type name used in the GODIVA database.
const BLOCK_TYPE: &str = "genx_block";

/// Commit the block schema on the database itself, once, before any read
/// function can run. A warm restart ([`GodivaBackend::open_resuming`])
/// re-materializes spilled records *before* any read callback runs, and
/// restoring a record requires its committed type; the read callbacks
/// then only create records of it.
fn define_block_schema(db: &Gbo, vars: &[String]) -> godiva_core::Result<()> {
    db.define_field("snapshot", FieldKind::I64, DeclaredSize::Known(8))?;
    db.define_field("block", FieldKind::I64, DeclaredSize::Known(8))?;
    db.define_field("points", FieldKind::F64, DeclaredSize::Unknown)?;
    db.define_field("conn", FieldKind::I32, DeclaredSize::Unknown)?;
    for v in vars {
        db.define_field(v, FieldKind::F64, DeclaredSize::Unknown)?;
    }
    db.define_record(BLOCK_TYPE, 2)?;
    db.insert_field(BLOCK_TYPE, "snapshot", true)?;
    db.insert_field(BLOCK_TYPE, "block", true)?;
    db.insert_field(BLOCK_TYPE, "points", false)?;
    db.insert_field(BLOCK_TYPE, "conn", false)?;
    for v in vars {
        db.insert_field(BLOCK_TYPE, v, false)?;
    }
    db.commit_record_type(BLOCK_TYPE)
}

/// Read the blocks of one file of one snapshot into the database — the
/// developer-supplied read function of this application.
#[allow(clippy::too_many_arguments)]
fn read_file_into_db(
    session: &UnitSession,
    storage: &Arc<dyn Storage>,
    read_options: &ReadOptions,
    config: &GenxConfig,
    vars: &[String],
    blocks: &[usize],
    snapshot: usize,
    file_index: usize,
) -> godiva_core::Result<()> {
    // Skip files none of whose blocks belong to this database — a
    // partitioned (Houston) worker never even opens them.
    let wanted: Vec<usize> = config
        .blocks_in_file(file_index)
        .filter(|b| blocks.contains(b))
        .collect();
    if wanted.is_empty() {
        return Ok(());
    }
    let path = config.file_path(snapshot, file_index);
    // Preserve the io::ErrorKind so the database's retry policy can
    // tell transient faults from permanent ones; format-level errors
    // (bad magic, checksum mismatch, …) stay permanent `UnitError`s.
    let to_db_err = |e: godiva_sdf::SdfError| match e {
        godiva_sdf::SdfError::Io(io) => godiva_core::GodivaError::Io {
            kind: io.kind(),
            message: format!("{path}: {io}"),
        },
        other => godiva_core::GodivaError::UnitError(format!("{path}: {other}")),
    };
    let file = SdfFile::open_with(storage.clone(), path.clone(), read_options.clone())
        .map_err(to_db_err)?;
    for b in wanted {
        let rec = session.new_record(BLOCK_TYPE)?;
        rec.set_i64("snapshot", vec![snapshot as i64])?;
        rec.set_i64("block", vec![b as i64])?;
        let points: Vec<f64> = file.read(&points_dataset(b)).map_err(to_db_err)?;
        rec.set_f64("points", points)?;
        let conn: Vec<i32> = file.read(&conn_dataset(b)).map_err(to_db_err)?;
        rec.set_i32("conn", conn)?;
        for v in vars {
            let raw: Vec<f64> = file.read(&var_dataset(b, v)).map_err(to_db_err)?;
            rec.set_f64(v, raw)?;
        }
        rec.commit()?;
    }
    Ok(())
}

impl GodivaBackend {
    /// Create a GODIVA-backed reader (cold start; any existing WAL in
    /// `options.wal_dir` is superseded by a fresh log).
    pub fn new(
        storage: Arc<dyn Storage>,
        config: GenxConfig,
        read_options: ReadOptions,
        options: GodivaBackendOptions,
    ) -> Self {
        Self::build(storage, config, read_options, options, false)
            .expect("cold start is infallible")
    }

    /// Create a GODIVA-backed reader by **recovering** from the WAL in
    /// `options.wal_dir`: journaled units re-enter the table and
    /// surviving spill frames are re-adopted, so revisits after a crash
    /// re-materialize from disk instead of re-running read callbacks.
    pub fn open_resuming(
        storage: Arc<dyn Storage>,
        config: GenxConfig,
        read_options: ReadOptions,
        options: GodivaBackendOptions,
    ) -> VizResult<Self> {
        Self::build(storage, config, read_options, options, true)
    }

    fn build(
        storage: Arc<dyn Storage>,
        config: GenxConfig,
        read_options: ReadOptions,
        options: GodivaBackendOptions,
        resume: bool,
    ) -> VizResult<Self> {
        let gbo_config = GboConfig {
            mem_limit: options.mem_limit,
            io_threads: if options.background_io {
                options.io_threads
            } else {
                0
            },
            eviction: options.eviction,
            retry: options.retry,
            tracer: options.tracer,
            metrics: options.metrics,
            flight_recorder: options.flight_recorder,
            postmortem_path: options.postmortem_path,
            spill: options.spill,
            wal_dir: options.wal_dir,
            durability: options.durability,
            watchdog: options.watchdog,
        };
        let db = if resume {
            Gbo::open_recovering(gbo_config)?
        } else {
            Gbo::with_config(gbo_config)
        };
        // Commit the block schema before any wait: spill restore (and a
        // warm restart in particular) needs the committed type.
        define_block_schema(&db, &options.vars)?;
        let blocks = options
            .block_subset
            .unwrap_or_else(|| (0..config.blocks).collect());
        Ok(GodivaBackend {
            db,
            storage,
            config,
            read_options,
            vars: options.vars,
            blocks,
            granularity: options.granularity,
            io: Stopwatch::new(),
            current: None,
            mesh_cache: HashMap::new(),
            scalar_cache: HashMap::new(),
            delete_after_use: options.delete_after_use,
            fault_mode: options.fault_mode,
            failed_units: HashSet::new(),
            skips: SkipLog::default(),
        })
    }

    /// Access the underlying database (for stats and tests).
    pub fn db(&self) -> &Gbo {
        &self.db
    }

    fn unit_names(&self, snapshot: usize) -> Vec<String> {
        match self.granularity {
            Granularity::Snapshot => vec![self.config.snapshot_name(snapshot)],
            Granularity::File => (0..self.config.files_per_snapshot)
                .map(|f| self.config.file_path(snapshot, f))
                .collect(),
        }
    }

    /// The unit whose read function carries `block` for `snapshot`.
    fn unit_of_block(&self, snapshot: usize, block: usize) -> String {
        match self.granularity {
            Granularity::Snapshot => self.config.snapshot_name(snapshot),
            Granularity::File => {
                let f = self.config.file_of_block(block);
                self.config.file_path(snapshot, f)
            }
        }
    }

    fn make_reader(
        &self,
        snapshot: usize,
        file_index: Option<usize>,
    ) -> impl Fn(&UnitSession) -> godiva_core::Result<()> + Send + Sync + 'static {
        let storage = self.storage.clone();
        let read_options = self.read_options.clone();
        let config = self.config.clone();
        let vars = self.vars.clone();
        let blocks = self.blocks.clone();
        move |session: &UnitSession| match file_index {
            Some(f) => read_file_into_db(
                session,
                &storage,
                &read_options,
                &config,
                &vars,
                &blocks,
                snapshot,
                f,
            ),
            None => {
                for f in 0..config.files_per_snapshot {
                    read_file_into_db(
                        session,
                        &storage,
                        &read_options,
                        &config,
                        &vars,
                        &blocks,
                        snapshot,
                        f,
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Wait for a snapshot's unit(s), timing the block as visible I/O.
    fn ensure_snapshot(&mut self, snapshot: usize) -> VizResult<()> {
        if self.current == Some(snapshot) {
            return Ok(());
        }
        // Stale caches from a previous snapshot.
        self.mesh_cache.clear();
        self.scalar_cache.clear();
        let names = self.unit_names(snapshot);
        self.io.start();
        let mut result = Ok(());
        for name in &names {
            match self.db.wait_unit(name) {
                Ok(()) => {}
                Err(_) if self.fault_mode == FaultMode::Degrade => {
                    // The unit failed for good (retries exhausted);
                    // remember it so its blocks are skipped, and keep
                    // waiting for the snapshot's healthy units.
                    self.failed_units.insert(name.clone());
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.io.stop();
        result?;
        self.current = Some(snapshot);
        Ok(())
    }

    fn block_mesh(&mut self, snapshot: usize, block: usize) -> VizResult<Arc<TetMesh>> {
        if let Some(m) = self.mesh_cache.get(&block) {
            return Ok(Arc::clone(m));
        }
        let keys = [Key::from(snapshot as i64), Key::from(block as i64)];
        let points = self.db.get_field_buffer(BLOCK_TYPE, "points", &keys)?;
        let conn = self.db.get_field_buffer(BLOCK_TYPE, "conn", &keys)?;
        let mesh = Arc::new(mesh_from_buffers(&points.f64s()?, &conn.i32s()?)?);
        self.mesh_cache.insert(block, Arc::clone(&mesh));
        Ok(mesh)
    }
}

impl SnapshotSource for GodivaBackend {
    fn begin_run(&mut self, snapshots: &[usize]) -> VizResult<()> {
        // Batch mode: announce every unit up front, in processing order
        // (§3.2 — "notify the GODIVA database about all the units to be
        // read … in the order that they are going to be processed").
        // Browsing traces visit snapshots repeatedly; each unit is
        // announced once, at its first visit.
        let mut seen = HashSet::new();
        for &s in snapshots {
            if !seen.insert(s) {
                continue;
            }
            match self.granularity {
                Granularity::Snapshot => {
                    self.db
                        .add_unit(&self.config.snapshot_name(s), self.make_reader(s, None))?;
                }
                Granularity::File => {
                    for f in 0..self.config.files_per_snapshot {
                        self.db
                            .add_unit(&self.config.file_path(s, f), self.make_reader(s, Some(f)))?;
                    }
                }
            }
        }
        Ok(())
    }

    fn load_pass(&mut self, snapshot: usize, var: &str) -> VizResult<Vec<BlockData>> {
        self.ensure_snapshot(snapshot)?;
        let degrade = self.fault_mode == FaultMode::Degrade;
        let mut out = Vec::with_capacity(self.blocks.len());
        for b in self.blocks.clone() {
            if degrade && self.failed_units.contains(&self.unit_of_block(snapshot, b)) {
                self.skips.skip_block(snapshot, b);
                continue;
            }
            let mesh = self.block_mesh(snapshot, b)?;
            let key = (b, var.to_string());
            let (scalar, raw) = match self.scalar_cache.get(&key) {
                Some(pair) => pair.clone(),
                None => {
                    let keys = [Key::from(snapshot as i64), Key::from(b as i64)];
                    let buf = self.db.get_field_buffer(BLOCK_TYPE, var, &keys)?;
                    let raw = Arc::new(buf.f64s()?.to_vec());
                    let s = Arc::new(to_node_scalar(&mesh, var, &raw)?);
                    self.scalar_cache
                        .insert(key, (Arc::clone(&s), Arc::clone(&raw)));
                    (s, raw)
                }
            };
            out.push(BlockData {
                block: b,
                mesh,
                scalar,
                raw,
            });
        }
        if degrade && out.is_empty() && !self.blocks.is_empty() {
            self.skips.skip_snapshot(snapshot);
        }
        Ok(out)
    }

    fn end_snapshot(&mut self, snapshot: usize) -> VizResult<()> {
        for name in self.unit_names(snapshot) {
            if self.fault_mode == FaultMode::Degrade && self.failed_units.contains(&name) {
                // The unit never loaded; delete it so partial records
                // are dropped. An error here is not worth aborting a
                // degraded run — the skip is already recorded.
                let _ = self.db.delete_unit(&name);
            } else if self.delete_after_use {
                // Batch mode knows the data will not be needed again.
                self.db.delete_unit(&name)?;
            } else {
                // Interactive mode hopes for revisits (§3.2).
                self.db.finish_unit(&name)?;
            }
        }
        if self.current == Some(snapshot) {
            self.current = None;
            self.mesh_cache.clear();
            self.scalar_cache.clear();
        }
        Ok(())
    }

    fn visible_io(&self) -> Duration {
        self.io.elapsed()
    }

    fn gbo_stats(&self) -> Option<GboStats> {
        Some(self.db.stats())
    }

    fn fault_report(&self) -> FaultReport {
        let stats = self.db.stats();
        self.skips.report(stats.units_retried, stats.panics_caught)
    }
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

    fn godiva_backend(
        storage: Arc<dyn Storage>,
        config: GenxConfig,
        background: bool,
        granularity: Granularity,
    ) -> GodivaBackend {
        let mut options = GodivaBackendOptions::batch(
            vec!["stress_avg".into(), "velocity".into(), "burn_rate".into()],
            background,
            64 << 20,
        );
        options.granularity = granularity;
        GodivaBackend::new(storage, config, ReadOptions::new(), options)
    }

    #[test]
    fn direct_backend_loads_all_blocks() {
        let (fs, config) = dataset();
        let blocks = config.blocks;
        let mut be = DirectBackend::new(fs, config, ReadOptions::new());
        be.begin_run(&[0, 1]).unwrap();
        let data = be.load_pass(0, "stress_avg").unwrap();
        assert_eq!(data.len(), blocks);
        for d in &data {
            d.mesh.validate().unwrap();
            assert_eq!(d.scalar.len(), d.mesh.node_count());
        }
        let _ = be.visible_io(); // accumulated, though MemFs is instant
    }

    #[test]
    fn godiva_backend_matches_direct() {
        let (fs, config) = dataset();
        let mut direct = DirectBackend::new(fs.clone(), config.clone(), ReadOptions::new());
        let mut godiva = godiva_backend(fs, config, false, Granularity::Snapshot);
        direct.begin_run(&[0]).unwrap();
        godiva.begin_run(&[0]).unwrap();
        for var in ["stress_avg", "velocity", "burn_rate"] {
            let a = direct.load_pass(0, var).unwrap();
            let b = godiva.load_pass(0, var).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.block, y.block);
                assert_eq!(*x.mesh, *y.mesh, "meshes differ in block {}", x.block);
                assert_eq!(*x.scalar, *y.scalar, "scalars differ in block {}", x.block);
            }
        }
        godiva.end_snapshot(0).unwrap();
    }

    #[test]
    fn godiva_backend_reads_less_than_direct() {
        let (fs, config) = dataset();
        // Fresh stores to compare byte counts.
        let direct_fs = Arc::new(MemFs::new());
        let godiva_fs = Arc::new(MemFs::new());
        for p in fs.list("") {
            let data = fs.read(&p).unwrap();
            direct_fs.write(&p, &data).unwrap();
            godiva_fs.write(&p, &data).unwrap();
        }
        direct_fs.reset_stats();
        godiva_fs.reset_stats();

        let vars = ["stress_avg", "velocity"];
        let mut direct =
            DirectBackend::new(direct_fs.clone() as _, config.clone(), ReadOptions::new());
        direct.begin_run(&[0]).unwrap();
        for v in vars {
            direct.load_pass(0, v).unwrap();
        }
        let mut godiva = GodivaBackend::new(
            godiva_fs.clone() as _,
            config,
            ReadOptions::new(),
            GodivaBackendOptions::batch(
                vars.iter().map(|s| s.to_string()).collect(),
                false,
                64 << 20,
            ),
        );
        godiva.begin_run(&[0]).unwrap();
        for v in vars {
            godiva.load_pass(0, v).unwrap();
        }
        let d = direct_fs.stats().bytes_read;
        let g = godiva_fs.stats().bytes_read;
        assert!(
            g < d,
            "GODIVA must eliminate redundant reads: {g} vs {d} bytes"
        );
    }

    #[test]
    fn multithread_backend_prefetches() {
        let (fs, config) = dataset();
        let mut be = godiva_backend(fs, config.clone(), true, Granularity::Snapshot);
        let snaps: Vec<usize> = (0..config.snapshots).collect();
        be.begin_run(&snaps).unwrap();
        for &s in &snaps {
            let data = be.load_pass(s, "stress_avg").unwrap();
            assert_eq!(data.len(), config.blocks);
            be.end_snapshot(s).unwrap();
        }
        let stats = be.gbo_stats().unwrap();
        assert_eq!(stats.units_read as usize, config.snapshots);
        assert!(stats.background_reads > 0, "prefetching must happen");
    }

    #[test]
    fn file_granularity_works() {
        let (fs, config) = dataset();
        let mut be = godiva_backend(fs, config.clone(), true, Granularity::File);
        be.begin_run(&[0, 1]).unwrap();
        for s in [0, 1] {
            let data = be.load_pass(s, "velocity").unwrap();
            assert_eq!(data.len(), config.blocks);
            be.end_snapshot(s).unwrap();
        }
        let stats = be.gbo_stats().unwrap();
        assert_eq!(
            stats.units_read as usize,
            2 * config.files_per_snapshot,
            "one unit per file"
        );
    }

    #[test]
    fn elem_variable_converted_to_node_scalar() {
        let (fs, config) = dataset();
        let mut be = DirectBackend::new(fs, config, ReadOptions::new());
        let data = be.load_pass(0, "burn_rate").unwrap();
        for d in &data {
            assert_eq!(d.scalar.len(), d.mesh.node_count());
            assert!(d.scalar.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn vector_variable_becomes_magnitude() {
        let (fs, config) = dataset();
        let mut be = DirectBackend::new(fs, config, ReadOptions::new());
        let data = be.load_pass(1, "velocity").unwrap();
        for d in &data {
            assert!(d.scalar.iter().all(|v| *v >= 0.0), "magnitudes are ≥ 0");
        }
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let (fs, config) = dataset();
        let mut be = DirectBackend::new(fs, config, ReadOptions::new());
        assert!(be.load_pass(0, "bogus_var").is_err());
    }

    #[test]
    fn interactive_mode_keeps_units_for_revisit() {
        let (fs, config) = dataset();
        let mut be = GodivaBackend::new(
            fs,
            config.clone(),
            ReadOptions::new(),
            GodivaBackendOptions::interactive(vec!["stress_avg".into()], 64 << 20),
        );
        be.begin_run(&[0, 1]).unwrap();
        be.load_pass(0, "stress_avg").unwrap();
        be.end_snapshot(0).unwrap();
        be.load_pass(1, "stress_avg").unwrap();
        be.end_snapshot(1).unwrap();
        // Revisit snapshot 0: cache hit, no additional read.
        let before = be.gbo_stats().unwrap();
        be.load_pass(0, "stress_avg").unwrap();
        be.end_snapshot(0).unwrap();
        let after = be.gbo_stats().unwrap();
        assert_eq!(before.blocking_reads, after.blocking_reads);
        assert!(after.cache_hits > before.cache_hits);
    }
}
