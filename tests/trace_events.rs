//! Integration tests for the event-trace subsystem: the GBO's emitted
//! event stream must be well-formed and causally ordered — every
//! `read_start` matched by a `read_done` or `read_failed`, evictions
//! only after the unit was finished, retries producing balanced
//! attempt pairs — including when faults are injected underneath.

use godiva::core::{DeclaredSize, FieldKind, Gbo, GboConfig, RetryPolicy, UnitSession};
use godiva::genx::GenxConfig;
use godiva::obs::{parse_json, ArgValue, JsonlSink, MemorySink, TraceEvent, Tracer};
use godiva::platform::{FaultyFs, MemFs, Storage};
use godiva::sdf::ReadOptions;
use godiva::viz::{GodivaBackend, GodivaBackendOptions, SnapshotSource};
use std::sync::Arc;
use std::time::Duration;

/// The `unit` argument of an event, if present.
fn unit_arg(e: &TraceEvent) -> Option<&str> {
    e.args.iter().find_map(|(k, v)| match (k, v) {
        (&"unit", ArgValue::Str(s)) => Some(s.as_str()),
        _ => None,
    })
}

/// A database whose schema is ready for `payload_reader` units.
fn payload_db(config: GboConfig) -> Gbo {
    let db = Gbo::with_config(config);
    db.define_field("id", FieldKind::Str, DeclaredSize::Known(16))
        .unwrap();
    db.define_field("payload", FieldKind::F64, DeclaredSize::Unknown)
        .unwrap();
    db.define_record("rec", 1).unwrap();
    db.insert_field("rec", "id", true).unwrap();
    db.insert_field("rec", "payload", false).unwrap();
    db.commit_record_type("rec").unwrap();
    db
}

/// A read function creating one record with `values` f64s.
fn payload_reader(
    id: &str,
    values: usize,
) -> impl Fn(&UnitSession) -> godiva::core::Result<()> + Send + Sync + 'static {
    let id = id.to_string();
    move |s: &UnitSession| {
        let rec = s.new_record("rec")?;
        rec.set_str("id", &id)?;
        rec.set_f64("payload", vec![1.0; values])?;
        rec.commit()
    }
}

#[test]
fn read_starts_are_matched_and_evictions_follow_finish() {
    let sink = Arc::new(MemorySink::new());
    // Budget fits ~2 of the 8 KiB payloads, so the later units evict
    // the earlier (finished) ones.
    let db = payload_db(GboConfig {
        mem_limit: 20 << 10,
        tracer: Tracer::new(sink.clone()),
        ..Default::default()
    });
    for i in 0..5 {
        let name = format!("unit{i}");
        db.add_unit(&name, payload_reader(&name, 1024)).unwrap();
        db.wait_unit(&name).unwrap();
        db.finish_unit(&name).unwrap();
    }
    let stats = db.stats();
    assert!(stats.evictions > 0, "budget must have forced evictions");
    drop(db);

    let events = sink.snapshot();
    for i in 0..5 {
        let name = format!("unit{i}");
        let of_unit: Vec<&str> = events
            .iter()
            .filter(|e| unit_arg(e) == Some(name.as_str()))
            .map(|e| e.name.as_ref())
            .collect();
        // Causal order per unit: announced, read exactly once, finished;
        // an eviction (if any) comes only after the finish.
        let pos = |n: &str| of_unit.iter().position(|x| *x == n);
        let added = pos("unit_added").expect("unit_added");
        let start = pos("read_start").expect("read_start");
        let done = pos("read_done").expect("read_done");
        let finished = pos("unit_finished").expect("unit_finished");
        assert!(
            added < start && start < done && done < finished,
            "{of_unit:?}"
        );
        assert_eq!(of_unit.iter().filter(|n| **n == "read_start").count(), 1);
        assert!(!of_unit.contains(&"read_failed"));
        if let Some(evicted) = pos("unit_evicted") {
            assert!(evicted > finished, "eviction before finish: {of_unit:?}");
        }
    }
    assert!(
        events.iter().any(|e| e.name == "unit_evicted"),
        "evictions must be traced"
    );
}

#[test]
fn retried_reads_balance_under_transient_faults() {
    let mem = Arc::new(MemFs::new());
    let mut genx = GenxConfig::tiny();
    genx.snapshots = 2;
    godiva::genx::generate(mem.as_ref(), &genx).unwrap();
    let fs = Arc::new(FaultyFs::new(mem));
    fs.fail_first_k_reads_of("snap_0001", 2);

    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    fs.set_tracer(tracer.clone());
    let mut options = GodivaBackendOptions::batch(vec!["stress_avg".into()], true, 64 << 20);
    options.retry = RetryPolicy::new(4, Duration::from_millis(1), Duration::from_millis(10));
    options.tracer = tracer;
    let mut be = GodivaBackend::new(
        fs.clone() as Arc<dyn Storage>,
        genx.clone(),
        ReadOptions::new(),
        options,
    );
    be.begin_run(&[0, 1]).unwrap();
    for s in [0, 1] {
        be.load_pass(s, "stress_avg").unwrap();
        be.end_snapshot(s).unwrap();
    }
    let stats = be.gbo_stats().unwrap();
    assert!(
        stats.units_retried > 0,
        "transient fault must cause a retry"
    );
    drop(be);

    let events = sink.snapshot();
    let count = |n: &str| events.iter().filter(|e| e.name == n).count();
    // Every attempt opens with read_start and closes with read_done or
    // read_failed — even the ones the fault killed.
    assert_eq!(
        count("read_start"),
        count("read_done") + count("read_failed")
    );
    assert!(count("read_failed") > 0);
    assert!(count("read_retry") > 0);
    assert!(
        count("fault_injected") > 0,
        "FaultyFs must trace injections"
    );
    // The faulted unit ends in success: its last lifecycle event pair is
    // a read_done.
    let snap1: Vec<&str> = events
        .iter()
        .filter(|e| unit_arg(e).is_some_and(|u| u.contains("snap_0001")))
        .map(|e| e.name.as_ref())
        .collect();
    assert!(snap1.contains(&"read_failed") && snap1.contains(&"read_done"));
}

#[test]
fn jsonl_trace_roundtrips_through_parser() {
    let path =
        std::env::temp_dir().join(format!("godiva-trace-events-{}.jsonl", std::process::id()));
    {
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let db = payload_db(GboConfig {
            tracer: Tracer::new(sink),
            ..Default::default()
        });
        db.add_unit("u1", payload_reader("u1", 64)).unwrap();
        db.wait_unit("u1").unwrap();
        db.finish_unit("u1").unwrap();
    } // db + sink dropped: file flushed

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!text.trim().is_empty(), "trace must not be empty");
    let mut opens = 0i64;
    for line in text.lines() {
        let v = parse_json(line).expect("every line is valid JSON");
        assert!(v.get("ts").and_then(|t| t.as_u64()).is_some());
        assert!(v.get("name").and_then(|n| n.as_str()).is_some());
        let ph = v.get("ph").and_then(|p| p.as_str()).unwrap();
        assert!(ph == "i" || ph == "X", "unexpected phase {ph}");
        match v.get("name").and_then(|n| n.as_str()).unwrap() {
            "read_start" => opens += 1,
            "read_done" | "read_failed" => opens -= 1,
            _ => {}
        }
    }
    assert_eq!(opens, 0, "read spans must balance");
}
