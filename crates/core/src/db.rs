//! The GODIVA database — the paper's GBO (GODIVA Buffer Object).
//!
//! This module is the public facade over three internal layers (see
//! DESIGN.md §5e):
//!
//! - [`crate::store`] — schema registry, record table and key index
//!   behind their own lock (§3.1, §3.3's RB-tree equivalent),
//! - [`crate::units`] — unit table, reference counts, LRU clock,
//!   FIFO prefetch queue and the memory budget (§3.2–3.3),
//! - [`crate::exec`] — the I/O executor: `GboConfig::io_threads` reader
//!   worker threads, panic isolation, retry, wait/deadlock logic.
//!
//! The public API mirrors the paper's interface names in snake case:
//! `define_field`, `define_record`, `insert_field`, `commit_record_type`,
//! `new_record`, `alloc_field` (the paper's `allocFieldBuffer`),
//! `commit_record`, `get_field_buffer`, `get_field_buffer_size`,
//! `add_unit`, `read_unit`, `wait_unit`, `finish_unit`, `delete_unit`,
//! and `set_mem_space`.

use crate::buffer::{FieldBuffer, FieldData, FieldRef, Key};
use crate::error::{GodivaError, Result};
use crate::exec::Executor;
use crate::metrics::GboMetrics;
use crate::schema::{DeclaredSize, FieldKind};
use crate::stats::GboStats;
use crate::store::Store;
use crate::unit::{EvictionPolicy, ReadFn, ReadFunction, UnitState};
use crate::units::{AllocCtx, UnitEntry, Units};
use crate::wal::{self, Durability, Wal, WalEntry};
use godiva_obs::{FlightRecorder, MetricsRegistry, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use crate::store::RecordId;

/// How the database re-runs a read function whose failure is transient
/// (see [`GodivaError::is_transient`]).
///
/// Attempt *n* (1-based) that fails transiently sleeps
/// `min(base_backoff × 2^(n−1), max_backoff)` before attempt *n + 1*.
/// Partial records created by the failed attempt are rolled back first,
/// so a retried read function always starts from a clean unit. The
/// default policy makes a single attempt — no retries — preserving the
/// paper library's behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, any failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Retry up to `max_attempts` total attempts with exponential
    /// backoff starting at `base_backoff`, capped at `max_backoff`.
    pub fn new(max_attempts: u32, base_backoff: Duration, max_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff,
        }
    }

    /// Effective attempt budget (at least one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Backoff to sleep after failed attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(31);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }

    /// Upper bound on the total time spent sleeping between attempts.
    pub fn max_total_backoff(&self) -> Duration {
        (1..self.attempts()).fold(Duration::ZERO, |acc, a| {
            acc.saturating_add(self.backoff_for(a))
        })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Construction-time configuration of a [`Gbo`].
#[derive(Debug, Clone)]
pub struct GboConfig {
    /// Memory budget in bytes for all data buffers (the paper's
    /// constructor parameter, there given in MB).
    pub mem_limit: u64,
    /// Number of reader worker threads the I/O executor owns. `1` (the
    /// default) reproduces the paper's single background I/O thread
    /// (**TG**); more workers overlap one unit's decode CPU with
    /// another's disk time; `0` is single-thread GODIVA (**G**): every
    /// read happens inline in `wait_unit`.
    pub io_threads: usize,
    /// Eviction policy for finished units (paper: LRU).
    pub eviction: EvictionPolicy,
    /// Retry policy for transiently failing read functions, applied by
    /// both the I/O workers and inline reads. Default: none.
    pub retry: RetryPolicy,
    /// Tracer receiving the database's lifecycle events (unit added /
    /// read / waited-on / finished / evicted, record commits, key
    /// lookups, deadlocks). Default: disabled — one untaken branch per
    /// would-be event, no allocation.
    pub tracer: Tracer,
    /// Registry this database registers its metrics in, under `gbo.*`
    /// names. `None` (the default) keeps the metrics private to
    /// [`Gbo::stats`].
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Crash flight recorder: a bounded ring of the most recent `gbo`
    /// events, teed off the tracer (it records even when `tracer` is
    /// disabled) and dumped as a JSONL post-mortem when a read function
    /// panics or a deadlock is detected. Default: on, with
    /// [`godiva_obs::DEFAULT_FLIGHT_RECORDER_CAPACITY`] events. Set to
    /// `None` for zero instrumentation (benchmark baselines).
    pub flight_recorder: Option<Arc<FlightRecorder>>,
    /// Where post-mortem dumps go. `None` (the default) writes to
    /// `godiva-postmortem-<pid>.jsonl` in the system temp directory.
    pub postmortem_path: Option<PathBuf>,
    /// Second-tier spill cache for evicted units (DESIGN.md §5f): when
    /// set, eviction writes a unit's buffers to a checksummed file and a
    /// later read re-materializes them with one sequential read instead
    /// of re-running the developer callback. `None` (the default) is the
    /// paper's discard-on-evict behaviour.
    pub spill: Option<crate::spill::SpillConfig>,
    /// Directory for the write-ahead log (DESIGN.md §5g). When set,
    /// every record commit and unit lifecycle transition is journaled
    /// there, and
    /// [`Gbo::open_recovering`] can rebuild state after a crash —
    /// re-adopting spill frames for warm restarts. `None` (the default)
    /// disables journaling entirely.
    pub wal_dir: Option<PathBuf>,
    /// How hard journal records are pushed toward stable storage; only
    /// meaningful when `wal_dir` is set. Default: [`Durability::Wal`]
    /// (append without fsync — survives process crashes).
    pub durability: Durability,
    /// Liveness watchdog interval: when set (and `io_threads > 0`),
    /// a monitor thread checks that outstanding work — queued units or
    /// in-flight reads — keeps producing unit-lifecycle progress. Work
    /// pending with no progress for this long counts one
    /// `gbo.watchdog_stalls`, emits a `watchdog_stall` trace instant
    /// and proactively dumps the flight recorder, *before* anyone hits
    /// a wait timeout. This generalizes the §3.3 deadlock detector
    /// (which needs every worker provably blocked on memory) to stalls
    /// it cannot see: a wedged device, a read function stuck in a
    /// syscall, a livelocked retry loop. `None` (the default) disables
    /// the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for GboConfig {
    fn default() -> Self {
        GboConfig {
            mem_limit: 256 * 1024 * 1024,
            io_threads: 1,
            eviction: EvictionPolicy::Lru,
            retry: RetryPolicy::none(),
            tracer: Tracer::disabled(),
            metrics: None,
            flight_recorder: Some(Arc::new(FlightRecorder::default())),
            postmortem_path: None,
            spill: None,
            wal_dir: None,
            durability: Durability::default(),
            watchdog: None,
        }
    }
}

/// Shared core of one database: the layers plus the cross-layer
/// services (retry policy, metrics, tracer, flight recorder). Methods
/// that orchestrate across layers live in the layer modules as `impl
/// Inner` blocks (`exec` owns read execution and waits; record
/// operations below stitch store and units together).
pub(crate) struct Inner {
    pub(crate) store: Store,
    pub(crate) units: Units,
    pub(crate) retry: RetryPolicy,
    /// Lock-free counters/histograms behind [`Gbo::stats`]. Updated at
    /// the instrumented call sites, several of them outside any lock
    /// (the mutexes' release-acquire ordering makes the Relaxed counter
    /// updates visible to any reader that observed the corresponding
    /// state change).
    pub(crate) metrics: GboMetrics,
    /// Event tracer. Emitting while holding a state lock is safe: the
    /// lock order is always state → sink, never the reverse. When a
    /// flight recorder is installed this tracer fans out to it, so the
    /// recorder's ring always holds the most recent `gbo` events.
    pub(crate) tracer: Tracer,
    /// Crash flight recorder (see [`GboConfig::flight_recorder`]).
    pub(crate) flight_recorder: Option<Arc<FlightRecorder>>,
    /// Post-mortem destination override.
    pub(crate) postmortem_path: Option<PathBuf>,
}

/// The GODIVA database object. See the [module docs](self).
pub struct Gbo {
    pub(crate) inner: Arc<Inner>,
    exec: Executor,
    watchdog: Option<Watchdog>,
}

/// The liveness watchdog thread (see [`GboConfig::watchdog`]).
struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Sum of the lifecycle counters whose movement proves the pipeline is
/// making progress. Deliberately excludes `units_added`: enqueuing more
/// work while nothing completes is exactly a stall.
fn progress_signature(m: &GboMetrics) -> u64 {
    m.units_read
        .get()
        .wrapping_add(m.units_failed.get())
        .wrapping_add(m.units_retried.get())
        .wrapping_add(m.units_reset.get())
        .wrapping_add(m.cache_hits.get())
        .wrapping_add(m.spill_hits.get())
        .wrapping_add(m.evictions.get())
}

impl Watchdog {
    /// Spawn the monitor: every `interval / 4` it samples the amount of
    /// outstanding work (prefetch-queue depth + in-flight reads) and
    /// the progress signature; outstanding work with an unchanged
    /// signature for `interval` is a stall.
    fn spawn(inner: &Arc<Inner>, interval: Duration) -> Watchdog {
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let inner = Arc::clone(inner);
        let thread = std::thread::Builder::new()
            .name("godiva-watchdog".into())
            .spawn(move || {
                let nap = (interval / 4).max(Duration::from_millis(5));
                let mut last_sig = progress_signature(&inner.metrics);
                let mut quiet_since = std::time::Instant::now();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(nap);
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    let queued = {
                        let st = inner.units.lock();
                        if st.shutdown {
                            return;
                        }
                        st.queue.len() as u64
                    };
                    let in_flight = inner.metrics.io_workers_busy.get();
                    let outstanding = queued + in_flight;
                    let sig = progress_signature(&inner.metrics);
                    if sig != last_sig || outstanding == 0 {
                        last_sig = sig;
                        quiet_since = std::time::Instant::now();
                        continue;
                    }
                    let stalled = quiet_since.elapsed();
                    if stalled >= interval {
                        if inner.tracer.enabled() {
                            inner.tracer.instant(
                                "gbo",
                                "watchdog_stall",
                                vec![
                                    ("queued", outstanding.into()),
                                    ("queue_depth", queued.into()),
                                    ("in_flight", in_flight.into()),
                                    ("stalled_ms", (stalled.as_millis() as u64).into()),
                                ],
                            );
                        }
                        inner.dump_postmortem("watchdog_stall");
                        // Counted only once the dump is written, so whoever
                        // sees the counter move can read the dump.
                        inner.metrics.watchdog_stalls.inc();
                        // Re-arm: a stall persisting another full
                        // interval counts again, so the health engine's
                        // windowed delta keeps the alert firing for as
                        // long as the stall lasts.
                        quiet_since = std::time::Instant::now();
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            thread: Some(thread),
        }
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Inner {
    // ------------------------------------------------------------------
    // record operations (stitching the store and units layers together;
    // lock order is always units → store)
    // ------------------------------------------------------------------

    fn new_record(
        self: &Arc<Self>,
        type_name: &str,
        unit: Option<&str>,
        ctx: AllocCtx,
    ) -> Result<RecordId> {
        // Resolve the type and pre-allocation plan under the store lock
        // alone, then charge and install under the unit lock so the
        // charge, the insertion and the unit's record list stay
        // consistent with concurrent eviction.
        let (rt, prealloc, total) = self.store.prepare_record(type_name)?;
        let mut st = self.units.lock();
        self.units.charge(
            &mut st,
            &self.store,
            &self.metrics,
            &self.tracer,
            total,
            ctx,
            unit,
        )?;
        let id = self.store.install_record(rt, prealloc, unit);
        if let Some(u) = unit.and_then(|u| st.units.get_mut(u)) {
            u.records.push(id);
        }
        self.metrics.records_created.inc();
        Ok(id)
    }

    fn alloc_field(
        self: &Arc<Self>,
        id: RecordId,
        field: &str,
        bytes: u64,
        ctx: AllocCtx,
    ) -> Result<FieldRef> {
        let data = {
            let st = self.store.lock();
            let (_, kind) = Store::slot_of(&st, id, field)?;
            FieldData::zeroed(kind, bytes)?
        };
        self.set_field(id, field, data, ctx)
            .map(|r| r.expect("just set"))
    }

    /// Install `data` as the contents of `(record, field)`; returns the
    /// buffer handle. Used by `alloc_field` and all `set_*` helpers.
    ///
    /// Validation, accounting and installation happen under their own
    /// locks in turn (store → units → store), which is safe because a
    /// unit being written is `Reading` (not evictable) and records are
    /// single-writer by construction — every record is written by the
    /// read function (or application thread) that created it.
    fn set_field(
        self: &Arc<Self>,
        id: RecordId,
        field: &str,
        data: FieldData,
        ctx: AllocCtx,
    ) -> Result<Option<FieldRef>> {
        // Phase 1: validate against schema and record under the store
        // lock; compute the accounting delta.
        let (slot, unit, old_len) = {
            let st = self.store.lock();
            let (slot, kind) = Store::slot_of(&st, id, field)?;
            if data.kind() != kind {
                return Err(GodivaError::TypeMismatch(format!(
                    "field '{field}' is declared {kind:?}, got {:?}",
                    data.kind()
                )));
            }
            // Enforce a declared Known size exactly (the paper
            // pre-allocates exactly that many bytes).
            if let DeclaredSize::Known(declared) = st.schema.field(field)?.size {
                if data.byte_len() > declared {
                    return Err(GodivaError::TypeMismatch(format!(
                        "field '{field}' declared {declared} bytes, got {}",
                        data.byte_len()
                    )));
                }
            }
            let rec = st.records.get(&id).expect("checked by slot_of");
            if rec.committed && rec.rt.fields[slot].is_key {
                return Err(GodivaError::TypeMismatch(format!(
                    "field '{field}' is a key field of a committed record and cannot be changed"
                )));
            }
            let old_len = rec.fields[slot].as_ref().map(|b| b.byte_len()).unwrap_or(0);
            (slot, rec.unit.clone(), old_len)
        };
        // Phase 2: account the delta under the unit lock (may evict or,
        // for worker reads, block until memory frees).
        let new_len = data.byte_len();
        {
            let mut st = self.units.lock();
            if new_len > old_len {
                self.units.charge(
                    &mut st,
                    &self.store,
                    &self.metrics,
                    &self.tracer,
                    new_len - old_len,
                    ctx,
                    unit.as_deref(),
                )?;
            } else {
                self.units
                    .release(&mut st, &self.metrics, old_len - new_len, unit.as_deref());
            }
        }
        // Phase 3: install under the store lock. If the record vanished
        // meanwhile (delete_unit raced us), its whole allocation —
        // including the delta charged above — was already returned by
        // drop_unit_data, so no compensation is needed here.
        let mut st = self.store.lock();
        let Some(rec) = st.records.get_mut(&id) else {
            return Err(GodivaError::NotFound(format!("record #{id}")));
        };
        let buf = match rec.fields[slot].clone() {
            Some(buf) => {
                buf.replace(data);
                buf
            }
            None => {
                let buf = FieldBuffer::new(data);
                rec.fields[slot] = Some(Arc::clone(&buf));
                buf
            }
        };
        Ok(Some(buf))
    }

    fn field_of(&self, id: RecordId, field: &str) -> Result<FieldRef> {
        let st = self.store.lock();
        let (slot, _) = Store::slot_of(&st, id, field)?;
        st.records.get(&id).expect("checked").fields[slot]
            .clone()
            .ok_or_else(|| GodivaError::Unallocated {
                field: field.to_string(),
            })
    }

    /// Key lookup + LRU touch of the owning unit (store lock released
    /// before the unit lock is taken — see the lock-order note in
    /// [`crate::store`]).
    pub(crate) fn lookup(&self, record_type: &str, field: &str, keys: &[Key]) -> Result<FieldRef> {
        let (buf, unit) =
            self.store
                .lookup(&self.metrics, &self.tracer, record_type, field, keys)?;
        if let Some(unit) = unit {
            self.units.lock().touch(&unit);
        }
        Ok(buf)
    }

    /// Write the flight recorder's ring to the post-mortem path (the
    /// configured one, or `godiva-postmortem-<pid>.jsonl` in the temp
    /// dir). Returns the path on success; `None` when no recorder is
    /// installed or the write failed. Must not be called with a state
    /// lock held — this does file I/O.
    ///
    /// The destination is per-process, so repeated failures (common in
    /// fault-injection tests) overwrite rather than accumulate; the
    /// stderr announcement happens once per process for the same reason.
    pub(crate) fn dump_postmortem(&self, reason: &str) -> Option<PathBuf> {
        let recorder = self.flight_recorder.as_ref()?;
        let path = self.postmortem_path.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("godiva-postmortem-{}.jsonl", std::process::id()))
        });
        match recorder.dump_to_path(&path, reason) {
            Ok(events) => {
                static ANNOUNCED: AtomicBool = AtomicBool::new(false);
                if !ANNOUNCED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "godiva: post-mortem trace ({reason}, {events} events) written to {}",
                        path.display()
                    );
                }
                Some(path)
            }
            Err(_) => None,
        }
    }
}

impl Gbo {
    /// Create a database with a memory budget in **megabytes**, matching
    /// the paper's `new GBO(400)` constructor. Background I/O enabled.
    pub fn new(mem_mb: u64) -> Self {
        Self::with_config(GboConfig {
            mem_limit: mem_mb * 1024 * 1024,
            ..GboConfig::default()
        })
    }

    /// Create a database with explicit configuration. When
    /// `config.wal_dir` is set a **fresh** log is started (any previous
    /// one is truncated) — use [`Gbo::open_recovering`] to resume from
    /// an existing log instead.
    pub fn with_config(config: GboConfig) -> Self {
        let wal = Self::fresh_wal(&config);
        Self::build(config, wal)
    }

    /// Start a fresh WAL per the config, or `None` when journaling is
    /// off. Construction is infallible, so a WAL that cannot be opened
    /// degrades to running without one (announced once on stderr) — the
    /// database must not refuse to start over a durability add-on.
    fn fresh_wal(config: &GboConfig) -> Option<Arc<Wal>> {
        let dir = config.wal_dir.as_ref()?;
        match Wal::create(dir, config.durability == Durability::WalSync) {
            Ok(w) => Some(Arc::new(w)),
            Err(e) => {
                eprintln!(
                    "godiva: cannot start WAL in {}: {e}; running without journaling",
                    dir.display()
                );
                None
            }
        }
    }

    fn build(config: GboConfig, wal: Option<Arc<Wal>>) -> Self {
        // Tee the tracer into the flight recorder so the ring always
        // holds the tail of the event stream — even when no user tracer
        // is configured (the tee then records into the ring alone).
        let tracer = match &config.flight_recorder {
            Some(recorder) => config
                .tracer
                .tee(Arc::clone(recorder) as Arc<dyn godiva_obs::TraceSink>),
            None => config.tracer,
        };
        let workers = config.io_threads;
        let inner = Arc::new(Inner {
            store: Store::new(),
            units: Units::new(
                config.mem_limit,
                config.eviction,
                workers,
                config
                    .spill
                    .map(|s| crate::spill::SpillTier::new(s, wal.clone())),
                wal,
            ),
            retry: config.retry,
            metrics: GboMetrics::new(config.metrics.as_deref()),
            tracer,
            flight_recorder: config.flight_recorder,
            postmortem_path: config.postmortem_path,
        });
        inner.metrics.mem_limit.set(config.mem_limit);
        let exec = Executor::spawn(&inner, workers);
        // The watchdog only makes sense with background readers: in
        // inline mode a queued unit legitimately sits idle until the
        // application waits on it.
        let watchdog = match config.watchdog {
            Some(interval) if workers > 0 => Some(Watchdog::spawn(&inner, interval)),
            _ => None,
        };
        Gbo {
            inner,
            exec,
            watchdog,
        }
    }

    /// Open a database with **crash recovery**: scan the WAL in
    /// `config.wal_dir`, truncate any torn tail, rebuild the unit table
    /// from the journaled lifecycle, re-adopt surviving checksummed
    /// spill frames (warm restart — revisits re-materialize from disk
    /// instead of re-running read callbacks), and continue journaling
    /// to the same log. Without a `wal_dir` this is plain
    /// [`Gbo::with_config`] — a cold start.
    ///
    /// Recovery invariants (DESIGN.md §5g): replay stops at the first
    /// torn or corrupt record and *truncates* there rather than
    /// erroring; every unit surviving replay re-enters `Registered`, so
    /// schemas and read callbacks must be re-declared by the
    /// application before waits.
    pub fn open_recovering(config: GboConfig) -> Result<Gbo> {
        let Some(dir) = config.wal_dir.clone() else {
            return Ok(Self::with_config(config));
        };
        let path = dir.join(wal::WAL_FILE);
        let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let scan = wal::scan_log(&path)?;
        let rep = wal::replay(&scan);
        let sync = config.durability == Durability::WalSync;
        let walh = Arc::new(Wal::open_at(&dir, sync, scan.next_lsn(), scan.valid_len)?);
        let gbo = Self::build(config, Some(walh));
        let span_start = gbo.inner.tracer.now_us();
        let truncated = file_len.saturating_sub(scan.valid_len);
        gbo.inner.metrics.wal_replayed.add(rep.entries);
        gbo.inner.metrics.wal_truncated.add(truncated);
        {
            let mut st = gbo.inner.units.lock();
            for (name, ru) in &rep.units {
                st.clock += 1;
                let clock = st.clock;
                let entry = st
                    .units
                    .entry(name.clone())
                    .or_insert_with(|| UnitEntry::new(None, UnitState::Registered));
                if ru.loaded {
                    // Preserve revisit accounting: a recovered unit that
                    // had loaded counts as previously-loaded, so its next
                    // read is a revisit (spill hit or miss), not a first
                    // load.
                    entry.loaded_seq = clock;
                    entry.last_access = clock;
                }
            }
        }
        let mut adopted = 0u64;
        if let Some(spill) = &gbo.inner.units.spill {
            spill.sweep_tmp();
            for (name, ru) in &rep.units {
                if let Some((len, xxh)) = ru.spilled {
                    if spill.adopt(&gbo.inner.metrics, &gbo.inner.tracer, name, len, xxh) {
                        adopted += 1;
                    }
                }
            }
        }
        if gbo.inner.tracer.enabled() {
            gbo.inner.tracer.complete(
                "gbo",
                "wal_replay",
                span_start,
                vec![
                    ("records", rep.entries.into()),
                    ("units", (rep.units.len() as u64).into()),
                    ("frames_adopted", adopted.into()),
                    ("truncated_bytes", truncated.into()),
                ],
            );
        }
        Ok(gbo)
    }

    // --- schema (record operation interfaces, §3.1) ---------------------

    /// `defineField(name, type, size)`.
    pub fn define_field(&self, name: &str, kind: FieldKind, size: DeclaredSize) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .define_field(name, kind, size)
    }

    /// `defineRecord(name, n_key_fields)`.
    pub fn define_record(&self, name: &str, key_fields: usize) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .define_record(name, key_fields)
    }

    /// `insertField(record, field, is_key)`.
    pub fn insert_field(&self, record: &str, field: &str, is_key: bool) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .insert_field(record, field, is_key)
    }

    /// `commitRecordType(record)`.
    pub fn commit_record_type(&self, record: &str) -> Result<()> {
        self.inner.store.lock().schema.commit_record_type(record)
    }

    /// `newRecord(type)`: create a record (outside any unit) and return a
    /// handle for filling its buffers.
    pub fn new_record(&self, type_name: &str) -> Result<RecordHandle> {
        let id = self
            .inner
            .new_record(type_name, None, AllocCtx::Foreground)?;
        Ok(RecordHandle {
            inner: Arc::clone(&self.inner),
            id,
            ctx: AllocCtx::Foreground,
        })
    }

    /// `commitRecord(record)`: snapshot the key fields and insert the
    /// record into the index.
    pub fn commit_record(&self, record: &RecordHandle) -> Result<()> {
        self.inner.store.commit_record(
            &self.inner.metrics,
            &self.inner.tracer,
            self.inner.units.wal.as_deref(),
            record.id,
        )
    }

    // --- dataset query interfaces (§3.1) --------------------------------

    /// `getFieldBuffer(recordType, field, keyValues)`: locate the buffer
    /// of `field` in the record identified by `keys` (in key-field
    /// insertion order).
    pub fn get_field_buffer(
        &self,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<FieldRef> {
        self.inner.lookup(record_type, field, keys)
    }

    /// `getFieldBufferSize(...)`: like [`Gbo::get_field_buffer`] but
    /// returns the buffer size in bytes.
    pub fn get_field_buffer_size(
        &self,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<u64> {
        Ok(self.inner.lookup(record_type, field, keys)?.byte_len())
    }

    // --- background I/O interfaces (§3.2) --------------------------------

    /// `addUnit(name, readFunction)`: non-blocking; appends the unit to
    /// the FIFO prefetch queue.
    pub fn add_unit(&self, name: &str, reader: impl ReadFunction + 'static) -> Result<()> {
        self.inner.units.add_unit(
            &self.inner.metrics,
            &self.inner.tracer,
            name,
            Arc::new(reader),
        )
    }

    /// `readUnit(name, readFunction)`: blocking explicit read of a unit
    /// on the calling thread (used by interactive tools, §3.2).
    pub fn read_unit(&self, name: &str, reader: impl ReadFunction + 'static) -> Result<()> {
        {
            let mut st = self.inner.units.lock();
            if st.shutdown {
                return Err(GodivaError::Shutdown);
            }
            let reader: ReadFn = Arc::new(reader);
            match st.units.get_mut(name) {
                None => {
                    st.units.insert(
                        name.to_string(),
                        UnitEntry::new(Some(reader), UnitState::Registered),
                    );
                    self.inner.metrics.units_added.inc();
                    self.inner.units.journal(
                        &self.inner.metrics,
                        &self.inner.tracer,
                        WalEntry::UnitAdded {
                            unit: name.to_string(),
                        },
                    );
                    if self.inner.tracer.enabled() {
                        self.inner.tracer.instant(
                            "gbo",
                            "unit_added",
                            vec![("unit", name.into()), ("queued", false.into())],
                        );
                    }
                }
                Some(entry) => {
                    if entry.state == UnitState::Registered {
                        entry.reader = Some(reader);
                    }
                }
            }
        }
        self.inner.wait_loaded(name, true, None)
    }

    /// `waitUnit(name)`: block until the unit is in the database, then
    /// pin it (unit-level reference count, §3.3).
    pub fn wait_unit(&self, name: &str) -> Result<()> {
        self.inner.wait_loaded(name, false, None)
    }

    /// Like [`Gbo::wait_unit`], but give up after `timeout` if the unit
    /// is still loading on a worker, returning
    /// [`GodivaError::WaitTimeout`]. The unit is *not* failed by a
    /// timeout — it keeps loading, and a later wait can still succeed.
    /// A read performed inline on the calling thread (single-thread
    /// mode, or a revisit after eviction) is not interruptible and runs
    /// to completion regardless of `timeout`.
    pub fn wait_unit_timeout(&self, name: &str, timeout: Duration) -> Result<()> {
        self.inner.wait_loaded(name, false, Some(timeout))
    }

    /// Re-queue a `Failed` unit for another load attempt with its
    /// existing read function. Partial records from the failed attempt
    /// are dropped first, so the read function starts clean — no
    /// `delete_unit` + `add_unit` dance required after a fault clears.
    pub fn reset_unit(&self, name: &str) -> Result<()> {
        self.inner.units.reset_unit(
            &self.inner.store,
            &self.inner.metrics,
            &self.inner.tracer,
            name,
        )
    }

    /// Like [`Gbo::wait_unit`], but returns an RAII guard that calls
    /// `finish_unit` when dropped — the idiomatic-Rust companion to the
    /// paper's explicit `waitUnit`/`finishUnit` pairing, making the
    /// §3.3 "forgot to finish" deadlock unrepresentable in code that
    /// uses guards.
    pub fn wait_unit_guard(&self, name: &str) -> Result<UnitGuard> {
        self.inner.wait_loaded(name, false, None)?;
        Ok(UnitGuard {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
            released: false,
        })
    }

    /// `finishUnit(name)`: unpin; at zero pins the unit becomes
    /// evictable but stays queryable until memory pressure evicts it.
    pub fn finish_unit(&self, name: &str) -> Result<()> {
        self.inner
            .units
            .finish_unit(&self.inner.metrics, &self.inner.tracer, name)
    }

    /// `deleteUnit(name)`: drop the unit's records immediately. The unit
    /// stays registered and may be re-added or re-read later.
    pub fn delete_unit(&self, name: &str) -> Result<()> {
        self.inner.units.delete_unit(
            &self.inner.store,
            &self.inner.metrics,
            &self.inner.tracer,
            name,
        )
    }

    /// `setMemSpace(bytes)`: adjust the memory budget at runtime.
    pub fn set_mem_space(&self, bytes: u64) {
        {
            let mut st = self.inner.units.lock();
            st.mem_limit = bytes;
        }
        self.inner.metrics.mem_limit.set(bytes);
        self.inner.units.work_cv.notify_all();
    }

    // --- introspection ----------------------------------------------------

    /// Current state of a unit, if known.
    pub fn unit_state(&self, name: &str) -> Option<UnitState> {
        self.inner
            .units
            .lock()
            .units
            .get(name)
            .map(|u| u.state.clone())
    }

    /// Names of all known units, sorted.
    pub fn unit_names(&self) -> Vec<String> {
        let st = self.inner.units.lock();
        let mut names: Vec<String> = st.units.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of live records in the database.
    pub fn record_count(&self) -> usize {
        self.inner.store.lock().records.len()
    }

    /// Names of all defined record types, sorted.
    pub fn record_type_names(&self) -> Vec<String> {
        self.inner.store.lock().schema.record_type_names()
    }

    /// Number of units waiting in the prefetch queue.
    pub fn queue_len(&self) -> usize {
        self.inner.units.lock().queue.len()
    }

    /// Bytes currently charged against the budget.
    pub fn mem_used(&self) -> u64 {
        self.inner.units.lock().mem_used
    }

    /// The configured memory budget in bytes.
    pub fn mem_limit(&self) -> u64 {
        self.inner.units.lock().mem_limit
    }

    /// Number of reader worker threads the I/O executor owns (0 =
    /// single-thread inline mode).
    pub fn io_workers(&self) -> usize {
        self.inner.units.worker_count
    }

    /// Snapshot of the runtime statistics. Counter reads are lock-free;
    /// only the authoritative `mem_used` figure comes from the unit
    /// lock.
    pub fn stats(&self) -> GboStats {
        let mut s = self.inner.metrics.snapshot();
        s.mem_used = self.inner.units.lock().mem_used;
        s
    }

    /// The tracer this database emits lifecycle events through (disabled
    /// unless one was supplied in [`GboConfig`]). Share it — via
    /// [`Tracer::clone`] — with the other layers of a pipeline so all
    /// events land on one timeline.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The crash flight recorder, if one is installed (the default). Its
    /// ring holds the most recent `gbo` events; the database dumps it
    /// automatically on reader panics and detected deadlocks.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.flight_recorder.as_ref()
    }

    /// Dump the flight recorder's ring as a JSONL post-mortem right now
    /// (same path the automatic panic/deadlock dumps use). Returns the
    /// written path, or `None` when no recorder is installed or the
    /// write failed.
    pub fn dump_postmortem(&self, reason: &str) -> Option<PathBuf> {
        self.inner.dump_postmortem(reason)
    }
}

impl Drop for Gbo {
    fn drop(&mut self) {
        {
            let mut st = self.inner.units.lock();
            st.shutdown = true;
        }
        self.inner.units.work_cv.notify_all();
        self.inner.units.unit_cv.notify_all();
        if let Some(w) = self.watchdog.as_mut() {
            w.join();
        }
        self.exec.join();
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII pin on a loaded unit: created by [`Gbo::wait_unit_guard`],
/// releases its reference count (`finish_unit`) on drop.
pub struct UnitGuard {
    inner: Arc<Inner>,
    name: String,
    released: bool,
}

impl UnitGuard {
    /// The pinned unit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Finish the unit now (same as drop, but explicit).
    pub fn finish(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.released {
            self.released = true;
            let _ =
                self.inner
                    .units
                    .finish_unit(&self.inner.metrics, &self.inner.tracer, &self.name);
        }
    }
}

impl Drop for UnitGuard {
    fn drop(&mut self) {
        self.release();
    }
}

/// The view of the database a [`ReadFunction`] works through: all record
/// operations are available, and every record created is tagged with the
/// unit being read.
pub struct UnitSession {
    pub(crate) inner: Arc<Inner>,
    pub(crate) unit: String,
    pub(crate) ctx: AllocCtx,
}

impl UnitSession {
    /// Name of the unit being read (read functions typically dispatch on
    /// this — e.g. it names the file to open).
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// `defineField` — see [`Gbo::define_field`].
    pub fn define_field(&self, name: &str, kind: FieldKind, size: DeclaredSize) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .define_field(name, kind, size)
    }

    /// `defineRecord` — see [`Gbo::define_record`].
    pub fn define_record(&self, name: &str, key_fields: usize) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .define_record(name, key_fields)
    }

    /// `insertField` — see [`Gbo::insert_field`].
    pub fn insert_field(&self, record: &str, field: &str, is_key: bool) -> Result<()> {
        self.inner
            .store
            .lock()
            .schema
            .insert_field(record, field, is_key)
    }

    /// `commitRecordType` — see [`Gbo::commit_record_type`].
    pub fn commit_record_type(&self, record: &str) -> Result<()> {
        self.inner.store.lock().schema.commit_record_type(record)
    }

    /// `newRecord`: create a record owned by this unit.
    pub fn new_record(&self, type_name: &str) -> Result<RecordHandle> {
        let id = self
            .inner
            .new_record(type_name, Some(&self.unit), self.ctx)?;
        Ok(RecordHandle {
            inner: Arc::clone(&self.inner),
            id,
            ctx: self.ctx,
        })
    }

    /// `commitRecord`.
    pub fn commit_record(&self, record: &RecordHandle) -> Result<()> {
        self.inner.store.commit_record(
            &self.inner.metrics,
            &self.inner.tracer,
            self.inner.units.wal.as_deref(),
            record.id,
        )
    }

    /// Query interface, usable for cross-record metadata sharing during
    /// a read (footnote 1 of the paper).
    pub fn get_field_buffer(
        &self,
        record_type: &str,
        field: &str,
        keys: &[Key],
    ) -> Result<FieldRef> {
        self.inner.lookup(record_type, field, keys)
    }
}

/// Handle to one record: fill buffers, then commit.
pub struct RecordHandle {
    inner: Arc<Inner>,
    id: RecordId,
    ctx: AllocCtx,
}

impl RecordHandle {
    /// This record's database-unique id.
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// `allocFieldBuffer(record, field, size)`: allocate a zeroed buffer
    /// of `bytes` bytes for a field whose declared size was UNKNOWN.
    pub fn alloc_field(&self, field: &str, bytes: u64) -> Result<FieldRef> {
        self.inner.alloc_field(self.id, field, bytes, self.ctx)
    }

    /// Fill a `Str` field.
    pub fn set_str(&self, field: &str, value: impl Into<String>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::Str(value.into()), self.ctx)
            .map(|_| ())
    }

    /// Fill an `F64` field (moves the vector in — no copy).
    pub fn set_f64(&self, field: &str, values: Vec<f64>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::F64(values), self.ctx)
            .map(|_| ())
    }

    /// Fill an `F32` field.
    pub fn set_f32(&self, field: &str, values: Vec<f32>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::F32(values), self.ctx)
            .map(|_| ())
    }

    /// Fill an `I32` field.
    pub fn set_i32(&self, field: &str, values: Vec<i32>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::I32(values), self.ctx)
            .map(|_| ())
    }

    /// Fill an `I64` field.
    pub fn set_i64(&self, field: &str, values: Vec<i64>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::I64(values), self.ctx)
            .map(|_| ())
    }

    /// Fill a `Bytes` field.
    pub fn set_bytes(&self, field: &str, values: Vec<u8>) -> Result<()> {
        self.inner
            .set_field(self.id, field, FieldData::Bytes(values), self.ctx)
            .map(|_| ())
    }

    /// Get the field's buffer handle (must be allocated).
    pub fn field(&self, field: &str) -> Result<FieldRef> {
        self.inner.field_of(self.id, field)
    }

    /// Mutate a field's buffer in place. Length changes are re-accounted
    /// against the memory budget afterwards (without blocking).
    pub fn update_field<T>(&self, field: &str, f: impl FnOnce(&mut FieldData) -> T) -> Result<T> {
        let buf = self.inner.field_of(self.id, field)?;
        let old = buf.byte_len();
        let out = buf.update(f);
        let new = buf.byte_len();
        let unit = {
            let st = self.inner.store.lock();
            st.records.get(&self.id).and_then(|r| r.unit.clone())
        };
        let mut st = self.inner.units.lock();
        if new >= old {
            let delta = new - old;
            st.mem_used += delta;
            self.inner.metrics.bytes_allocated.add(delta);
            self.inner.metrics.mem.set(st.mem_used);
            if let Some(u) = unit.as_deref().and_then(|u| st.units.get_mut(u)) {
                u.bytes += delta;
            }
        } else {
            self.inner
                .units
                .release(&mut st, &self.inner.metrics, old - new, unit.as_deref());
        }
        Ok(out)
    }

    /// Commit this record into the key index.
    pub fn commit(&self) -> Result<()> {
        self.inner.store.commit_record(
            &self.inner.metrics,
            &self.inner.tracer,
            self.inner.units.wal.as_deref(),
            self.id,
        )
    }
}
