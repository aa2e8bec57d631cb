//! Liveness watchdog behaviour (DESIGN.md §5i): work queued but no
//! unit-lifecycle progress for the configured interval must count a
//! `watchdog_stalls`, dump the flight recorder, and leave a
//! `watchdog_stall` instant in the dump — *before* any wait times out.

use godiva_core::{Gbo, GboConfig, UnitSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, cond: F) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn stalled_reader_trips_the_watchdog_and_dumps_the_ring() {
    let dir = std::env::temp_dir().join(format!("godiva-watchdog-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let postmortem = dir.join("postmortem.jsonl");
    let db = Gbo::with_config(GboConfig {
        io_threads: 1,
        watchdog: Some(Duration::from_millis(150)),
        postmortem_path: Some(postmortem.clone()),
        ..Default::default()
    });
    let release = Arc::new(AtomicBool::new(false));
    let release2 = Arc::clone(&release);
    // The single worker wedges on this unit; a second unit sits queued
    // behind it, so the watchdog sees outstanding work with no
    // lifecycle progress.
    db.add_unit("wedged", move |_s: &UnitSession| {
        while !release2.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    })
    .unwrap();
    db.add_unit("starved", |_s: &UnitSession| Ok(())).unwrap();

    wait_for("a watchdog stall", Duration::from_secs(10), || {
        db.stats().watchdog_stalls > 0
    });
    assert!(
        postmortem.exists(),
        "watchdog stall should dump a post-mortem"
    );
    let dump = std::fs::read_to_string(&postmortem).unwrap();
    assert!(
        dump.contains("watchdog_stall"),
        "dump should carry the stall instant / reason, got:\n{dump}"
    );

    // Un-wedge: both units load, no wait ever timed out, and the stall
    // stays recorded in the stats snapshot (and its Display line).
    release.store(true, Ordering::Relaxed);
    db.wait_unit("wedged").unwrap();
    db.wait_unit("starved").unwrap();
    let stats = db.stats();
    assert!(stats.watchdog_stalls >= 1);
    assert_eq!(stats.wait_timeouts, 0);
    assert!(stats.to_string().contains("watchdog stalls"));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_and_progressing_databases_do_not_stall() {
    let db = Gbo::with_config(GboConfig {
        io_threads: 2,
        watchdog: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    // Steady progress: each unit loads quickly, so the signature keeps
    // moving even though work is always outstanding.
    for i in 0..20 {
        db.add_unit(&format!("u{i}"), |_s: &UnitSession| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(())
        })
        .unwrap();
    }
    for i in 0..20 {
        db.wait_unit(&format!("u{i}")).unwrap();
    }
    // Idle tail: no outstanding work, so quiet time is not a stall.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(db.stats().watchdog_stalls, 0);
}
