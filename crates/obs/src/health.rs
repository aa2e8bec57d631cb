//! Live health engine: declarative SLO rules over sliding windows, with
//! a burn-rate alert state machine.
//!
//! A [`HealthEngine`] drives a [`WindowAggregator`] tick loop and
//! evaluates a set of [`SloRule`]s against it. Each rule names a
//! [`Signal`] (a windowed rate, delta, gauge, quantile or hit-rate
//! ratio), a comparison and a threshold, and is evaluated over *two*
//! windows — a fast one and a slow one — in the multiwindow burn-rate
//! style: a breach counts only when **both** windows breach, so a
//! single spike (fast window only) or a long-decayed incident (slow
//! window only) does not page.
//!
//! Breaches feed an `ok → warning → firing` state machine with
//! hysteresis: consecutive breaching ticks escalate
//! ([`SloRule::warn_ticks`] / [`SloRule::fire_ticks`]) and only
//! [`SloRule::clear_ticks`] consecutive healthy ticks de-escalate, so
//! a signal oscillating across the threshold cannot flap an alert.
//! Transitions emit `alert_fired` / `alert_resolved` trace instants
//! (category `health`) and append JSONL lines to an optional alert log.
//!
//! The engine is the data source behind `MetricsServer`'s `/alerts`,
//! `/slo` and readiness-with-reasons `/healthz` endpoints and the
//! windowed Prometheus families.

use crate::metrics::MetricsRegistry;
use crate::sink::escape_json_into;
use crate::trace::Tracer;
use crate::window::{WindowAggregator, WindowConfig};
use parking_lot::Mutex;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A windowed quantity an [`SloRule`] evaluates.
#[derive(Debug, Clone)]
pub enum Signal {
    /// Increase of a counter over the window.
    CounterDelta(String),
    /// Rate of a counter over the window, in events/second.
    CounterRate(String),
    /// Latest sampled value of a gauge.
    Gauge(String),
    /// A windowed histogram quantile estimate, in µs.
    Quantile {
        /// Histogram metric name.
        name: String,
        /// Quantile in `0.0..=1.0` (e.g. `0.99`).
        q: f64,
    },
    /// Windowed `Δhits / (Δhits + Δmisses)` — a live hit rate. `None`
    /// (no breach) when the window saw no events.
    Ratio {
        /// Numerator counter name.
        hits: String,
        /// The complementary counter name.
        misses: String,
    },
}

impl Signal {
    fn eval(&self, window: &WindowAggregator, slots: usize) -> Option<f64> {
        match self {
            Signal::CounterDelta(name) => window.counter_delta(name, slots).map(|v| v as f64),
            Signal::CounterRate(name) => window.rate_per_sec(name, slots),
            Signal::Gauge(name) => window.gauge(name).map(|v| v as f64),
            Signal::Quantile { name, q } => window
                .histogram_delta(name, slots)
                .and_then(|d| d.quantile_us(*q))
                .map(|v| v as f64),
            Signal::Ratio { hits, misses } => window.ratio(hits, misses, slots),
        }
    }

    /// Human/JSON description, e.g. `p99(gbo.wait_latency_us)`.
    pub fn describe(&self) -> String {
        match self {
            Signal::CounterDelta(name) => format!("delta({name})"),
            Signal::CounterRate(name) => format!("rate({name})"),
            Signal::Gauge(name) => format!("gauge({name})"),
            Signal::Quantile { name, q } => format!("p{:.0}({name})", q * 100.0),
            Signal::Ratio { hits, misses } => format!("ratio({hits}, {misses})"),
        }
    }
}

/// Which side of the threshold is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when `value > threshold`.
    Above,
    /// Breach when `value < threshold`.
    Below,
}

impl Cmp {
    fn breaches(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Above => value > threshold,
            Cmp::Below => value < threshold,
        }
    }
}

/// One declarative SLO rule.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name — the `rule` argument of its trace instants and alert
    /// log lines.
    pub name: String,
    /// What to measure.
    pub signal: Signal,
    /// Which direction breaches.
    pub cmp: Cmp,
    /// The SLO boundary.
    pub threshold: f64,
    /// Fast window width in ticks (spike detection).
    pub fast_slots: usize,
    /// Slow window width in ticks (sustained-burn confirmation).
    pub slow_slots: usize,
    /// Consecutive breaching ticks before `ok → warning`.
    pub warn_ticks: u32,
    /// Consecutive breaching ticks before `warning → firing`.
    pub fire_ticks: u32,
    /// Consecutive healthy ticks before de-escalating to `ok`.
    pub clear_ticks: u32,
}

impl SloRule {
    /// A rule with the default window/hysteresis geometry: fast 5 ticks
    /// / slow 30 ticks, warn after 1 breach, fire after 2, clear after
    /// 3 healthy ticks.
    pub fn new(name: &str, signal: Signal, cmp: Cmp, threshold: f64) -> Self {
        SloRule {
            name: name.to_string(),
            signal,
            cmp,
            threshold,
            fast_slots: 5,
            slow_slots: 30,
            warn_ticks: 1,
            fire_ticks: 2,
            clear_ticks: 3,
        }
    }
}

/// The default rule set over the `gbo.*` metric families.
///
/// The fault-shaped rules (`read_failures`, `spill_corrupt`,
/// `watchdog`) fire on any windowed occurrence; the load-shaped ones
/// ship with lenient thresholds (`wait_p99` > 250 ms, `queue_depth` >
/// 64) and `hit_rate` is disabled by default (`< 0.0` never breaches —
/// raise it with `voyager --slo hit_rate=0.5` for interactive traces
/// where revisits are the norm).
pub fn default_rules() -> Vec<SloRule> {
    vec![
        SloRule::new(
            "wait_p99",
            Signal::Quantile {
                name: "gbo.wait_latency_us".into(),
                q: 0.99,
            },
            Cmp::Above,
            250_000.0,
        ),
        SloRule::new(
            "hit_rate",
            Signal::Ratio {
                hits: "gbo.cache_hits".into(),
                misses: "gbo.blocking_reads".into(),
            },
            Cmp::Below,
            0.0,
        ),
        SloRule::new(
            "queue_depth",
            Signal::Gauge("gbo.queue_depth".into()),
            Cmp::Above,
            64.0,
        ),
        SloRule::new(
            "spill_corrupt",
            Signal::CounterDelta("gbo.spill_corrupt".into()),
            Cmp::Above,
            0.0,
        ),
        SloRule::new(
            "read_failures",
            Signal::CounterDelta("gbo.units_failed".into()),
            Cmp::Above,
            0.0,
        ),
        SloRule::new(
            "watchdog",
            Signal::CounterDelta("gbo.watchdog_stalls".into()),
            Cmp::Above,
            0.0,
        ),
    ]
}

/// Alert state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Healthy.
    Ok,
    /// Breaching, but not yet long enough to fire.
    Warning,
    /// Sustained breach — the alert is active.
    Firing,
}

impl AlertState {
    /// Lowercase label used in JSON and the dashboard.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Firing => "firing",
        }
    }
}

/// Health engine configuration.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Window tick interval (default 1 s; the CI smoke and tests use
    /// much shorter ticks).
    pub tick: Duration,
    /// Ring slots retained (default 64 — must cover the widest
    /// `slow_slots` in use).
    pub slots: usize,
    /// Window width (in ticks) of the windowed Prometheus families
    /// appended to `/metrics` (default 10).
    pub prom_window_slots: usize,
    /// Append `fired`/`resolved`/`warning` transitions as JSONL lines
    /// to this file.
    pub alert_log: Option<PathBuf>,
    /// The rule set (default [`default_rules`]).
    pub rules: Vec<SloRule>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            tick: Duration::from_secs(1),
            slots: 64,
            prom_window_slots: 10,
            alert_log: None,
            rules: default_rules(),
        }
    }
}

impl HealthConfig {
    /// Apply a `name=threshold` override from the CLI (`voyager --slo`)
    /// to the matching rule.
    pub fn apply_override(&mut self, spec: &str) -> Result<(), String> {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("--slo expects NAME=THRESHOLD, got '{spec}'"))?;
        let threshold: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("--slo {name}: '{value}' is not a number"))?;
        match self.rules.iter_mut().find(|r| r.name == name.trim()) {
            Some(rule) => {
                rule.threshold = threshold;
                Ok(())
            }
            None => {
                let known: Vec<&str> = self.rules.iter().map(|r| r.name.as_str()).collect();
                Err(format!(
                    "--slo: unknown rule '{name}' (known: {})",
                    known.join(", ")
                ))
            }
        }
    }
}

/// Per-rule evaluation state.
#[derive(Debug)]
struct RuleRuntime {
    rule: SloRule,
    state: AlertState,
    breach_streak: u32,
    ok_streak: u32,
    /// Latest fast-window value (`None` = no data in window).
    last_value: Option<f64>,
    fired_total: u64,
    resolved_total: u64,
}

struct HealthShared {
    window: WindowAggregator,
    tracer: Tracer,
    rules: Mutex<Vec<RuleRuntime>>,
    log: Mutex<Option<std::fs::File>>,
    prom_window_slots: usize,
    tick: Duration,
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim to a stable JSON-safe representation.
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        "null".to_string()
    }
}

impl HealthShared {
    fn log_transition(&self, rule: &RuleRuntime, event: &str, reason: Option<&str>) {
        let mut guard = self.log.lock();
        if let Some(file) = guard.as_mut() {
            let mut line = format!("{{\"ts_us\":{},\"rule\":", unix_us());
            escape_json_into(&mut line, &rule.rule.name);
            line.push_str(&format!(
                ",\"event\":\"{event}\",\"value\":{},\"threshold\":{}",
                rule.last_value
                    .map(fmt_f64)
                    .unwrap_or_else(|| "null".into()),
                fmt_f64(rule.rule.threshold)
            ));
            if let Some(reason) = reason {
                line.push_str(",\"reason\":");
                escape_json_into(&mut line, reason);
            }
            line.push('}');
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
    }

    fn emit(&self, name: &'static str, rule: &RuleRuntime) {
        if self.tracer.enabled() {
            self.tracer.instant(
                "health",
                name,
                vec![
                    ("rule", rule.rule.name.clone().into()),
                    (
                        "value",
                        crate::trace::ArgValue::F64(rule.last_value.unwrap_or(f64::NAN)),
                    ),
                    (
                        "threshold",
                        crate::trace::ArgValue::F64(rule.rule.threshold),
                    ),
                ],
            );
        }
    }

    fn tick(&self) {
        self.window.tick();
        let mut rules = self.rules.lock();
        for rt in rules.iter_mut() {
            let fast = rt.rule.signal.eval(&self.window, rt.rule.fast_slots);
            let slow = rt.rule.signal.eval(&self.window, rt.rule.slow_slots);
            rt.last_value = fast;
            let breach = match (fast, slow) {
                (Some(f), Some(s)) => {
                    rt.rule.cmp.breaches(f, rt.rule.threshold)
                        && rt.rule.cmp.breaches(s, rt.rule.threshold)
                }
                _ => false,
            };
            if breach {
                rt.ok_streak = 0;
                rt.breach_streak = rt.breach_streak.saturating_add(1);
                if rt.state != AlertState::Firing && rt.breach_streak >= rt.rule.fire_ticks {
                    rt.state = AlertState::Firing;
                    rt.fired_total += 1;
                    self.emit("alert_fired", rt);
                    self.log_transition(rt, "fired", None);
                } else if rt.state == AlertState::Ok && rt.breach_streak >= rt.rule.warn_ticks {
                    rt.state = AlertState::Warning;
                    self.log_transition(rt, "warning", None);
                }
            } else {
                rt.breach_streak = 0;
                rt.ok_streak = rt.ok_streak.saturating_add(1);
                if rt.state != AlertState::Ok && rt.ok_streak >= rt.rule.clear_ticks {
                    if rt.state == AlertState::Firing {
                        rt.resolved_total += 1;
                        self.emit("alert_resolved", rt);
                        self.log_transition(rt, "resolved", None);
                    }
                    rt.state = AlertState::Ok;
                }
            }
        }
    }

    fn force_resolve(&self, reason: &str) {
        let mut rules = self.rules.lock();
        for rt in rules.iter_mut() {
            if rt.state == AlertState::Firing {
                rt.resolved_total += 1;
                self.emit("alert_resolved", rt);
                self.log_transition(rt, "resolved", Some(reason));
            }
            rt.state = AlertState::Ok;
            rt.breach_streak = 0;
            rt.ok_streak = 0;
        }
    }
}

/// Clonable query handle onto a health engine — what `MetricsServer`
/// holds.
#[derive(Clone)]
pub struct HealthHandle(Arc<HealthShared>);

impl std::fmt::Debug for HealthHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthHandle")
            .field("rules", &self.0.rules.lock().len())
            .finish()
    }
}

impl HealthHandle {
    /// A standalone handle with no background thread — the caller (a
    /// test, or the bench harness) drives [`tick`](Self::tick)
    /// manually. [`HealthEngine::spawn`] wraps this with a timer
    /// thread.
    pub fn new(registry: Arc<MetricsRegistry>, tracer: Tracer, config: HealthConfig) -> Self {
        let log = config.alert_log.as_ref().and_then(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| eprintln!("godiva-obs: cannot open alert log {path:?}: {e}"))
                .ok()
        });
        let window = WindowAggregator::new(
            registry,
            WindowConfig {
                tick: config.tick,
                slots: config.slots,
            },
        );
        let rules = config
            .rules
            .into_iter()
            .map(|rule| RuleRuntime {
                rule,
                state: AlertState::Ok,
                breach_streak: 0,
                ok_streak: 0,
                last_value: None,
                fired_total: 0,
                resolved_total: 0,
            })
            .collect();
        HealthHandle(Arc::new(HealthShared {
            window,
            tracer,
            rules: Mutex::new(rules),
            log: Mutex::new(log),
            prom_window_slots: config.prom_window_slots.max(1),
            tick: config.tick,
        }))
    }

    /// Capture a window frame and evaluate every rule once.
    pub fn tick(&self) {
        self.0.tick();
    }

    /// The current state of rule `name` (`None` if unknown).
    pub fn state(&self, name: &str) -> Option<AlertState> {
        self.0
            .rules
            .lock()
            .iter()
            .find(|rt| rt.rule.name == name)
            .map(|rt| rt.state)
    }

    /// Total `fired` transitions of rule `name` so far.
    pub fn fired_total(&self, name: &str) -> u64 {
        self.0
            .rules
            .lock()
            .iter()
            .find(|rt| rt.rule.name == name)
            .map(|rt| rt.fired_total)
            .unwrap_or(0)
    }

    /// Readiness: `(true, [])` when nothing is firing, otherwise
    /// `(false, reasons)` with one human line per firing rule.
    pub fn readiness(&self) -> (bool, Vec<String>) {
        let rules = self.0.rules.lock();
        let reasons: Vec<String> = rules
            .iter()
            .filter(|rt| rt.state == AlertState::Firing)
            .map(|rt| {
                format!(
                    "{}: {} {} threshold {} (value {})",
                    rt.rule.name,
                    rt.rule.signal.describe(),
                    match rt.rule.cmp {
                        Cmp::Above => "over",
                        Cmp::Below => "under",
                    },
                    fmt_f64(rt.rule.threshold),
                    rt.last_value.map(fmt_f64).unwrap_or_else(|| "n/a".into()),
                )
            })
            .collect();
        (reasons.is_empty(), reasons)
    }

    /// Resolve every firing alert (emitting `alert_resolved` with the
    /// given reason) and reset all rules to `ok`. Called on engine
    /// shutdown so every `alert_fired` has a matching `alert_resolved`
    /// even when the process exits mid-incident.
    pub fn force_resolve(&self, reason: &str) {
        self.0.force_resolve(reason);
    }

    /// The `/alerts` endpoint body: every rule's live state, value,
    /// threshold and lifetime fired/resolved counts.
    pub fn render_alerts_json(&self) -> String {
        let rules = self.0.rules.lock();
        let mut out = String::from("{\"alerts\":[");
        for (i, rt) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            escape_json_into(&mut out, &rt.rule.name);
            out.push_str(&format!(
                ",\"state\":\"{}\",\"value\":{},\"threshold\":{},\"breach_streak\":{},\
                 \"ok_streak\":{},\"fired_total\":{},\"resolved_total\":{}}}",
                rt.state.label(),
                rt.last_value.map(fmt_f64).unwrap_or_else(|| "null".into()),
                fmt_f64(rt.rule.threshold),
                rt.breach_streak,
                rt.ok_streak,
                rt.fired_total,
                rt.resolved_total,
            ));
        }
        out.push_str("]}");
        out
    }

    /// The `/slo` endpoint body: the declarative rule set (signal,
    /// comparison, threshold, window geometry) plus current state and
    /// the engine's pressure signal.
    pub fn render_slo_json(&self) -> String {
        let tick = self.0.tick.as_secs_f64();
        let rules = self.0.rules.lock();
        let mut out = format!(
            "{{\"tick_ms\":{},\"pressure\":{},\"rules\":[",
            self.0.tick.as_millis(),
            fmt_f64(self.0.window.pressure())
        );
        for (i, rt) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            escape_json_into(&mut out, &rt.rule.name);
            out.push_str(",\"signal\":");
            escape_json_into(&mut out, &rt.rule.signal.describe());
            out.push_str(&format!(
                ",\"cmp\":\"{}\",\"threshold\":{},\"fast_window_s\":{},\"slow_window_s\":{},\
                 \"warn_ticks\":{},\"fire_ticks\":{},\"clear_ticks\":{},\"state\":\"{}\"}}",
                match rt.rule.cmp {
                    Cmp::Above => "above",
                    Cmp::Below => "below",
                },
                fmt_f64(rt.rule.threshold),
                fmt_f64(rt.rule.fast_slots as f64 * tick),
                fmt_f64(rt.rule.slow_slots as f64 * tick),
                rt.rule.warn_ticks,
                rt.rule.fire_ticks,
                rt.rule.clear_ticks,
                rt.state.label(),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Windowed Prometheus families over the configured export window
    /// (see [`WindowAggregator::render_prometheus`]).
    pub fn render_windowed_prometheus(&self) -> String {
        self.0.window.render_prometheus(self.0.prom_window_slots)
    }
}

/// The health engine: a [`HealthHandle`] plus the timer thread that
/// ticks it. Dropping the engine stops the thread and force-resolves
/// any firing alert (reason `shutdown`).
pub struct HealthEngine {
    handle: HealthHandle,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthEngine")
            .field("handle", &self.handle)
            .finish()
    }
}

impl HealthEngine {
    /// Spawn the engine: a `godiva-health` thread ticking the windows
    /// and rules every [`HealthConfig::tick`], scheduled off an
    /// absolute deadline so evaluation cadence does not stretch under
    /// load.
    pub fn spawn(registry: Arc<MetricsRegistry>, tracer: Tracer, config: HealthConfig) -> Self {
        let interval = config.tick.max(Duration::from_millis(1));
        let handle = HealthHandle::new(registry, tracer, config);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("godiva-health".into())
                .spawn(move || {
                    let nap = interval.min(Duration::from_millis(25));
                    let mut next = Instant::now() + interval;
                    loop {
                        while Instant::now() < next {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(
                                nap.min(next.saturating_duration_since(Instant::now())),
                            );
                        }
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        handle.tick();
                        next += interval;
                        // If a tick overran whole intervals, skip the
                        // missed deadlines instead of bursting.
                        let now = Instant::now();
                        while next <= now {
                            next += interval;
                        }
                    }
                })
                .expect("spawn health thread")
        };
        HealthEngine {
            handle,
            stop,
            thread: Some(thread),
        }
    }

    /// The query handle (clone it into servers / the database).
    pub fn handle(&self) -> HealthHandle {
        self.handle.clone()
    }
}

impl Drop for HealthEngine {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.handle.force_resolve("shutdown");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn engine(rules: Vec<SloRule>) -> (Arc<MetricsRegistry>, HealthHandle, Arc<MemorySink>) {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(Arc::clone(&sink) as _);
        let handle = HealthHandle::new(
            Arc::clone(&registry),
            tracer,
            HealthConfig {
                tick: Duration::from_millis(10),
                slots: 16,
                rules,
                ..HealthConfig::default()
            },
        );
        (registry, handle, sink)
    }

    fn fault_rule() -> SloRule {
        let mut r = SloRule::new(
            "read_failures",
            Signal::CounterDelta("gbo.units_failed".into()),
            Cmp::Above,
            0.0,
        );
        r.fast_slots = 2;
        r.slow_slots = 8;
        r.warn_ticks = 1;
        r.fire_ticks = 2;
        r.clear_ticks = 2;
        r
    }

    #[test]
    fn alert_fires_and_resolves_through_the_state_machine() {
        let (registry, handle, sink) = engine(vec![fault_rule()]);
        let failed = registry.counter("gbo.units_failed");
        handle.tick();
        assert_eq!(handle.state("read_failures"), Some(AlertState::Ok));
        failed.add(3);
        handle.tick(); // breach 1 → warning
        assert_eq!(handle.state("read_failures"), Some(AlertState::Warning));
        handle.tick(); // breach 2 (still in fast window) → firing
        assert_eq!(handle.state("read_failures"), Some(AlertState::Firing));
        assert_eq!(handle.fired_total("read_failures"), 1);
        let (ready, reasons) = handle.readiness();
        assert!(!ready);
        assert!(reasons[0].contains("read_failures"), "{reasons:?}");
        // The fault drains out of the 2-slot fast window; after
        // clear_ticks healthy ticks the alert resolves.
        for _ in 0..6 {
            handle.tick();
        }
        assert_eq!(handle.state("read_failures"), Some(AlertState::Ok));
        assert!(handle.readiness().0);
        let events = sink.snapshot();
        let fired: Vec<_> = events.iter().filter(|e| e.name == "alert_fired").collect();
        let resolved: Vec<_> = events
            .iter()
            .filter(|e| e.name == "alert_resolved")
            .collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(resolved.len(), 1);
        assert!(fired[0].ts_us <= resolved[0].ts_us);
    }

    #[test]
    fn hysteresis_no_flapping_across_the_threshold() {
        // A gauge oscillating across the threshold every tick must
        // never escalate to firing (fire_ticks=3 needs 3 consecutive
        // breaches) …
        let mut rule = SloRule::new(
            "queue_depth",
            Signal::Gauge("gbo.queue_depth".into()),
            Cmp::Above,
            10.0,
        );
        rule.fast_slots = 1;
        rule.slow_slots = 1;
        rule.warn_ticks = 1;
        rule.fire_ticks = 3;
        rule.clear_ticks = 2;
        let (registry, handle, sink) = engine(vec![rule]);
        let gauge = registry.gauge("gbo.queue_depth");
        for i in 0..20 {
            gauge.set(if i % 2 == 0 { 50 } else { 2 });
            handle.tick();
            assert_ne!(
                handle.state("queue_depth"),
                Some(AlertState::Firing),
                "flapped to firing at tick {i}"
            );
        }
        assert!(sink.snapshot().iter().all(|e| e.name != "alert_fired"));
        // … and once firing on a sustained breach, a single healthy
        // tick must not resolve it (clear_ticks=2).
        gauge.set(50);
        for _ in 0..3 {
            handle.tick();
        }
        assert_eq!(handle.state("queue_depth"), Some(AlertState::Firing));
        gauge.set(2);
        handle.tick();
        assert_eq!(handle.state("queue_depth"), Some(AlertState::Firing));
        gauge.set(50);
        handle.tick(); // breach again: ok_streak resets
        gauge.set(2);
        handle.tick();
        assert_eq!(handle.state("queue_depth"), Some(AlertState::Firing));
        handle.tick();
        assert_eq!(handle.state("queue_depth"), Some(AlertState::Ok));
        assert_eq!(
            sink.snapshot()
                .iter()
                .filter(|e| e.name == "alert_resolved")
                .count(),
            1
        );
    }

    #[test]
    fn dual_window_needs_both_windows_breaching() {
        // slow window twice the fast one; a breach older than the fast
        // window no longer counts even though the slow window still
        // sees it.
        let mut rule = fault_rule();
        rule.fast_slots = 1;
        rule.slow_slots = 6;
        rule.fire_ticks = 1;
        let (registry, handle, _) = engine(vec![rule]);
        let failed = registry.counter("gbo.units_failed");
        handle.tick();
        failed.add(1);
        handle.tick();
        assert_eq!(handle.state("read_failures"), Some(AlertState::Firing));
        handle.tick(); // fast window (1 slot) clean, slow still dirty
        let rules = handle.0.rules.lock();
        assert_eq!(rules[0].breach_streak, 0);
    }

    #[test]
    fn idle_windows_do_not_breach() {
        // Ratio and quantile signals return None on an idle pipeline —
        // a run that did nothing must stay healthy even with Below
        // rules.
        let mut ratio = SloRule::new(
            "hit_rate",
            Signal::Ratio {
                hits: "gbo.cache_hits".into(),
                misses: "gbo.blocking_reads".into(),
            },
            Cmp::Below,
            0.9,
        );
        ratio.fire_ticks = 1;
        let mut p99 = SloRule::new(
            "wait_p99",
            Signal::Quantile {
                name: "gbo.wait_latency_us".into(),
                q: 0.99,
            },
            Cmp::Above,
            0.0,
        );
        p99.fire_ticks = 1;
        let (registry, handle, _) = engine(vec![ratio, p99]);
        registry.counter("gbo.cache_hits");
        registry.counter("gbo.blocking_reads");
        registry.histogram("gbo.wait_latency_us");
        for _ in 0..5 {
            handle.tick();
        }
        assert_eq!(handle.state("hit_rate"), Some(AlertState::Ok));
        assert_eq!(handle.state("wait_p99"), Some(AlertState::Ok));
        assert!(handle.readiness().0);
    }

    #[test]
    fn force_resolve_pairs_every_fired_with_a_resolved() {
        let mut rule = fault_rule();
        rule.fire_ticks = 1;
        let (registry, handle, sink) = engine(vec![rule]);
        handle.tick();
        registry.counter("gbo.units_failed").inc();
        handle.tick();
        assert_eq!(handle.state("read_failures"), Some(AlertState::Firing));
        handle.force_resolve("shutdown");
        assert_eq!(handle.state("read_failures"), Some(AlertState::Ok));
        let events = sink.snapshot();
        assert_eq!(
            events.iter().filter(|e| e.name == "alert_fired").count(),
            events.iter().filter(|e| e.name == "alert_resolved").count()
        );
    }

    #[test]
    fn alert_log_jsonl_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "godiva-health-log-{}-{}",
            std::process::id(),
            unix_us()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("alerts.jsonl");
        let registry = Arc::new(MetricsRegistry::new());
        let mut rule = fault_rule();
        rule.fire_ticks = 1;
        rule.clear_ticks = 1;
        let handle = HealthHandle::new(
            Arc::clone(&registry),
            Tracer::disabled(),
            HealthConfig {
                tick: Duration::from_millis(10),
                slots: 16,
                alert_log: Some(log_path.clone()),
                rules: vec![rule],
                ..HealthConfig::default()
            },
        );
        handle.tick();
        registry.counter("gbo.units_failed").add(2);
        handle.tick(); // fired
        for _ in 0..4 {
            handle.tick(); // …drains, resolves
        }
        let text = std::fs::read_to_string(&log_path).unwrap();
        let events: Vec<String> = text
            .lines()
            .map(|l| {
                let v = crate::json::parse_json(l).expect("valid JSONL");
                assert_eq!(
                    v.get("rule").and_then(|r| r.as_str()),
                    Some("read_failures")
                );
                assert!(v.get("ts_us").and_then(|t| t.as_u64()).is_some());
                v.get("event").and_then(|e| e.as_str()).unwrap().to_string()
            })
            .collect();
        assert_eq!(events, vec!["fired", "resolved"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_overrides_parse() {
        let mut config = HealthConfig::default();
        config.apply_override("wait_p99=50000").unwrap();
        assert_eq!(
            config
                .rules
                .iter()
                .find(|r| r.name == "wait_p99")
                .unwrap()
                .threshold,
            50_000.0
        );
        assert!(config.apply_override("nope=1").is_err());
        assert!(config.apply_override("wait_p99").is_err());
        assert!(config.apply_override("wait_p99=abc").is_err());
    }

    #[test]
    fn engine_thread_ticks_on_its_own() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = HealthEngine::spawn(
            Arc::clone(&registry),
            Tracer::disabled(),
            HealthConfig {
                tick: Duration::from_millis(5),
                slots: 16,
                rules: vec![fault_rule()],
                ..HealthConfig::default()
            },
        );
        let handle = engine.handle();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.0.window.frames() < 3 {
            assert!(Instant::now() < deadline, "engine never ticked");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(engine); // joins cleanly, resolves nothing (no alerts)
        assert!(handle.readiness().0);
    }
}
