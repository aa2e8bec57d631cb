//! A timing decorator for [`Storage`], so every storage the program is
//! handed can be measured from outside: read and write counts, bytes,
//! time spent inside the calls, the instant of every write (image
//! latency), and how often each file was opened (SDF opens read the
//! header at offset 0).

use godiva_platform::{Storage, StorageStats};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Totals a [`Probe`] has seen since its last [`Probe::take`].
#[derive(Debug, Clone, Default)]
pub struct ProbeTotals {
    pub reads: u64,
    pub read_bytes: u64,
    pub read_s: f64,
    pub writes: u64,
    pub write_bytes: u64,
    /// Seeks the wrapped storage charged (simulated disks only).
    pub seeks: u64,
    /// Instant each write call started, in call order.
    pub write_stamps: Vec<Instant>,
    /// Reads at offset 0 per path: one per SDF file open.
    pub opens: BTreeMap<String, u64>,
}

/// Forwards every call to `inner`, recording what it sees.
pub struct Probe {
    inner: Arc<dyn Storage>,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    write_stamps: Mutex<Vec<Instant>>,
    opens: Mutex<BTreeMap<String, u64>>,
}

impl Probe {
    pub fn new(inner: Arc<dyn Storage>) -> Arc<Probe> {
        Arc::new(Probe {
            inner,
            reads: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            write_stamps: Mutex::new(Vec::new()),
            opens: Mutex::new(BTreeMap::new()),
        })
    }

    /// Return the totals and start counting from zero again; also
    /// resets the wrapped storage's own statistics.
    pub fn take(&self) -> ProbeTotals {
        let totals = ProbeTotals {
            reads: self.reads.swap(0, Ordering::Relaxed),
            read_bytes: self.read_bytes.swap(0, Ordering::Relaxed),
            read_s: self.read_ns.swap(0, Ordering::Relaxed) as f64 * 1e-9,
            writes: self.writes.swap(0, Ordering::Relaxed),
            write_bytes: self.write_bytes.swap(0, Ordering::Relaxed),
            seeks: self.inner.stats().seeks,
            write_stamps: std::mem::take(&mut *self.write_stamps.lock().expect("stamp lock")),
            opens: std::mem::take(&mut *self.opens.lock().expect("opens lock")),
        };
        self.inner.reset_stats();
        totals
    }

    fn timed_read(&self, f: impl FnOnce() -> io::Result<Vec<u8>>) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let out = f();
        self.read_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(data) = &out {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.read_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        out
    }
}

impl Storage for Probe {
    fn write(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.write_stamps
            .lock()
            .expect("stamp lock")
            .push(Instant::now());
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(path, data)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.timed_read(|| self.inner.read(path))
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        if offset == 0 {
            *self
                .opens
                .lock()
                .expect("opens lock")
                .entry(path.to_string())
                .or_default() += 1;
        }
        self.timed_read(|| self.inner.read_at(path, offset, len))
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.inner.len(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> io::Result<()> {
        self.inner.delete(path)
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn sync_file(&self, path: &str) -> io::Result<()> {
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &str) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
}
