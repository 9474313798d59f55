//! Named-instrument registry with cheap single-threaded handles.
//!
//! The whole simulation runs on one thread, so instruments are plain
//! `Rc<Cell<..>>` values — no atomics, no locks. A handle cloned out of the
//! registry costs one pointer copy to update; the registry keeps the same
//! shared storage and renders snapshots from it on demand.
//!
//! Simulated components (links, fault injectors, the NAT device) keep their
//! own per-instance counters and gauges, which their reports read. To show
//! up in a registry they *report into* its instruments rather than being
//! them: after `report_to`, each update moves the component's handle and the
//! registry total once, so several runs folded into one registry sum there
//! while each component still counts only its own events.
//!
//! Instruments carry a *wall* flag separating the deterministic domain
//! (anything derived from sim time, event counts, packet counts) from the
//! wall-clock domain (durations measured with `Instant`). Deterministic
//! renders exclude wall instruments, so two same-seed runs compare equal
//! byte-for-byte no matter how fast the host executed them.

use crate::histogram::LogHistogram;
use crate::json::escape as json_str;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Monotonic event counter.
///
/// A component keeps its own counter and can make it feed a registry total
/// with [`Counter::report_to`]: from then on one `incr`/`add` moves both the
/// component's tally and the total. Counters the registry hands out report
/// nowhere.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<CounterCell>);

#[derive(Debug, Default)]
struct CounterCell {
    value: Cell<u64>,
    total: OnceCell<Counter>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`, here and in the total this counter reports to.
    #[inline]
    pub fn add(&self, n: u64) {
        let cell = &*self.0;
        cell.value.set(cell.value.get().wrapping_add(n));
        if let Some(total) = cell.total.get() {
            total.add(n);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.value.get()
    }

    /// Makes every later `incr`/`add` of this counter (through any clone)
    /// also move `total`; counts made before the call are not carried
    /// over. A handle reports to at most one total: a second call is
    /// ignored. The total must not report back into this counter.
    pub fn report_to(&self, total: &Counter) {
        let _ = self.0.total.set(total.clone());
    }
}

/// Instantaneous level with a high-water mark.
///
/// Like [`Counter`], a gauge can feed a registry total with
/// [`Gauge::report_to`]; the total receives each change as a delta, so it
/// reads the sum of the levels reporting to it and keeps its own high-water
/// mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<GaugeCell>);

#[derive(Debug, Default)]
struct GaugeCell {
    value: Cell<i64>,
    high: Cell<i64>,
    total: OnceCell<Gauge>,
}

impl Gauge {
    /// Sets the level, advancing the high-water mark when exceeded, and
    /// moves the total this gauge reports to by the change.
    #[inline]
    pub fn set(&self, v: i64) {
        let cell = &*self.0;
        let delta = v.wrapping_sub(cell.value.get());
        cell.value.set(v);
        if v > cell.high.get() {
            cell.high.set(v);
        }
        if let Some(total) = cell.total.get() {
            total.adjust(delta);
        }
    }

    /// Adjusts the level by a signed delta.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        self.set(self.get() + delta);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.value.get()
    }

    /// Largest level ever set.
    pub fn high_water(&self) -> i64 {
        self.0.high.get()
    }

    /// Makes every later change of this gauge (through any clone) move
    /// `total` by the same delta; the level reached before the call is not
    /// carried over. A handle reports to at most one total: a second call
    /// is ignored. The total must not report back into this gauge.
    pub fn report_to(&self, total: &Gauge) {
        let _ = self.0.total.set(total.clone());
    }
}

/// Shared handle onto a [`LogHistogram`].
#[derive(Clone, Debug, Default)]
pub struct Histogram(Rc<RefCell<LogHistogram>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.borrow_mut().record(value);
    }

    /// Copies out the current contents.
    pub fn snapshot(&self) -> LogHistogram {
        self.0.borrow().clone()
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone)]
struct Entry {
    instrument: Instrument,
    wall: bool,
    help: Option<String>,
}

/// Registry of named instruments; clone freely, all clones share storage.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    entries: Rc<RefCell<BTreeMap<String, Entry>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument(&self, name: &str, wall: bool, fresh: fn() -> Instrument) -> Instrument {
        let mut entries = self.entries.borrow_mut();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            instrument: fresh(),
            wall,
            help: None,
        });
        let want = fresh();
        assert_eq!(
            entry.instrument.kind(),
            want.kind(),
            "metric {name:?} already registered as a {}",
            entry.instrument.kind()
        );
        entry.instrument.clone()
    }

    /// Registers (or re-opens) a deterministic counter.
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, false, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-opens) a deterministic gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, false, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-opens) a deterministic histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, false, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Registers a wall-clock counter, excluded from deterministic renders.
    /// The serving plane's `serve.*` self-metrics live here: they vary with
    /// subscriber behavior, so they must never appear in a determinism
    /// artifact.
    pub fn wall_counter(&self, name: &str) -> Counter {
        match self.instrument(name, true, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers a wall-clock gauge, excluded from deterministic renders.
    pub fn wall_gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, true, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers a wall-clock histogram, excluded from deterministic renders.
    pub fn wall_histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, true, || Instrument::Histogram(Histogram::default())) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Attaches HELP text to an instrument, rendered as a Prometheus
    /// `# HELP` line. No-op for names not (yet) registered.
    pub fn describe(&self, name: &str, help: &str) {
        if let Some(entry) = self.entries.borrow_mut().get_mut(name) {
            entry.help = Some(help.to_string());
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Registered metric names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.entries.borrow().keys().cloned().collect()
    }

    /// One line per instrument, name-sorted, wall metrics included.
    pub fn render_text(&self) -> String {
        self.render(true)
    }

    /// One line per instrument, name-sorted, wall metrics *excluded* — two
    /// same-seed runs must produce identical output from this call.
    pub fn render_deterministic(&self) -> String {
        self.render(false)
    }

    /// One line per *wall* instrument only, name-sorted — the
    /// host-dependent section (wall histograms with p50/p95/p99,
    /// `profile.*`, `shard.*`, `serve.*`). Render it alongside
    /// [`Self::render_deterministic`] for an operational text view that
    /// keeps the determinism surface separable.
    pub fn render_wall(&self) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries.borrow().iter() {
            if !entry.wall {
                continue;
            }
            self.render_entry(&mut out, name, entry);
        }
        out
    }

    fn render(&self, include_wall: bool) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries.borrow().iter() {
            if entry.wall && !include_wall {
                continue;
            }
            self.render_entry(&mut out, name, entry);
        }
        out
    }

    fn render_entry(&self, out: &mut String, name: &str, entry: &Entry) {
        {
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{name} counter {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{name} gauge {} high_water {}",
                        g.get(),
                        g.high_water()
                    );
                }
                Instrument::Histogram(h) => {
                    let h = h.snapshot();
                    let _ = writeln!(
                        out,
                        "{name} histogram count {} sum {} min {} max {} p50 {} p95 {} p99 {}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99)
                    );
                }
            }
        }
    }

    /// One JSON object per line, name-sorted, tagged with `artifact` and a
    /// `schema` version field so consumers can detect format drift.
    pub fn render_jsonl(&self, artifact: &str) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries.borrow().iter() {
            let _ = write!(
                out,
                "{{\"schema\":{},\"artifact\":{},\"name\":{},\"kind\":\"{}\",\"wall\":{}",
                json_str(METRICS_SCHEMA),
                json_str(artifact),
                json_str(name),
                entry.instrument.kind(),
                entry.wall
            );
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = write!(
                        out,
                        ",\"value\":{},\"high_water\":{}",
                        g.get(),
                        g.high_water()
                    );
                }
                Instrument::Histogram(h) => {
                    let h = h.snapshot();
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99)
                    );
                    for (i, (lo, _, c)) in h.nonzero_buckets().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lo},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Prometheus text exposition (format version 0.0.4). Counters and
    /// gauges map directly; histograms render as summaries with
    /// p50/p95/p99 quantile series. Dotted names become underscore names;
    /// HELP text (see [`Self::describe`]) and label values are escaped per
    /// the exposition format, and output always ends in a newline so
    /// appending `# EOF` (OpenMetrics) stays well-formed. Wall instruments
    /// are included — exposition is an operational surface, not a
    /// determinism artifact.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries.borrow().iter() {
            let prom = prom_name(name);
            if let Some(help) = &entry.help {
                let _ = writeln!(out, "# HELP {prom} {}", prom_help(help));
            }
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {prom} counter");
                    let _ = writeln!(out, "{prom} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {prom} gauge");
                    let _ = writeln!(out, "{prom} {}", g.get());
                    let _ = writeln!(out, "# TYPE {prom}_high_water gauge");
                    let _ = writeln!(out, "{prom}_high_water {}", g.high_water());
                }
                Instrument::Histogram(h) => {
                    let h = h.snapshot();
                    let _ = writeln!(out, "# TYPE {prom} summary");
                    for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                        let _ = writeln!(
                            out,
                            "{prom}{{quantile=\"{}\"}} {}",
                            prom_label_value(label),
                            h.quantile(q)
                        );
                    }
                    let _ = writeln!(out, "{prom}_sum {}", h.sum());
                    let _ = writeln!(out, "{prom}_count {}", h.count());
                }
            }
        }
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Deterministic instrument values for time-series sampling: one
    /// `(name, kind, value)` triple per non-wall instrument, name-sorted.
    /// Histograms report their observation count.
    pub fn sample_deterministic(&self) -> Vec<(String, &'static str, f64)> {
        let mut out = Vec::new();
        for (name, entry) in self.entries.borrow().iter() {
            if entry.wall {
                continue;
            }
            let value = match &entry.instrument {
                Instrument::Counter(c) => c.get() as f64,
                Instrument::Gauge(g) => g.get() as f64,
                Instrument::Histogram(h) => h.snapshot().count() as f64,
            };
            out.push((name.clone(), entry.instrument.kind(), value));
        }
        out
    }
}

/// Schema tag stamped onto every metrics JSONL line.
pub const METRICS_SCHEMA: &str = "csprov-metrics/1";

/// Escapes HELP text per the exposition format: `\` → `\\`, newline →
/// `\n`. (Carriage returns are folded into the newline escape so the line
/// structure of the exposition can never be broken.)
fn prom_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' | '\r' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value per the exposition format: `\` → `\\`, `"` →
/// `\"`, newline → `\n`.
fn prom_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' | '\r' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps a dotted metric name onto the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_with_registry() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.add(3);
        reg.counter("a.count").incr();
        assert_eq!(c.get(), 4);

        let g = reg.gauge("a.level");
        g.set(5);
        g.adjust(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 5);

        let h = reg.histogram("a.size");
        h.record(100);
        assert_eq!(reg.histogram("a.size").snapshot().count(), 1);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn counter_accumulates_and_shares() {
        let c = Counter::default();
        let c2 = c.clone();
        c.incr();
        c2.add(4);
        assert_eq!((c.get(), c2.get()), (5, 5));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.adjust(3);
        g.clone().adjust(-5);
        assert_eq!(g.get(), -2);
        assert_eq!(g.high_water(), 3);
        g.set(10);
        assert_eq!((g.get(), g.high_water()), (10, 10));
    }

    #[test]
    fn counters_reporting_to_one_total_sum_into_it() {
        let reg = MetricsRegistry::new();
        let (a, b) = (Counter::default(), Counter::default());
        a.report_to(&reg.counter("net.offered"));
        b.report_to(&reg.counter("net.offered"));
        a.add(3);
        b.incr();
        a.clone().incr();
        assert_eq!((a.get(), b.get()), (4, 1));
        assert_eq!(reg.counter("net.offered").get(), 5);
        assert!(reg.render_text().contains("net.offered counter 5"));
    }

    #[test]
    fn a_gauge_passes_on_deltas_and_its_total_keeps_its_own_high_water() {
        let reg = MetricsRegistry::new();
        let total = reg.gauge("queue.depth");
        let (a, b) = (Gauge::default(), Gauge::default());
        a.report_to(&total);
        b.report_to(&total);
        a.set(4);
        b.adjust(3);
        assert_eq!(total.get(), 7);
        a.adjust(-4);
        b.set(1);
        assert_eq!((a.get(), b.get(), total.get()), (0, 1, 1));
        assert_eq!((a.high_water(), b.high_water()), (4, 3));
        assert_eq!(total.high_water(), 7, "both levels peaked together");
    }

    #[test]
    fn a_second_report_to_is_ignored() {
        let reg = MetricsRegistry::new();
        let c = Counter::default();
        c.report_to(&reg.counter("first"));
        c.report_to(&reg.counter("second"));
        c.add(2);
        assert_eq!(reg.counter("first").get(), 2);
        assert_eq!(reg.counter("second").get(), 0);

        let g = Gauge::default();
        g.report_to(&reg.gauge("first.level"));
        g.report_to(&reg.gauge("second.level"));
        g.set(6);
        assert_eq!(reg.gauge("first.level").get(), 6);
        assert_eq!(reg.gauge("second.level").get(), 0);
    }

    #[test]
    fn counts_before_report_to_are_not_carried_over() {
        let reg = MetricsRegistry::new();
        let c = Counter::default();
        c.add(10);
        c.report_to(&reg.counter("late"));
        c.incr();
        assert_eq!((c.get(), reg.counter("late").get()), (11, 1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn render_is_name_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(2);
        reg.gauge("a.first").set(7);
        reg.histogram("m.mid").record(9);
        let text = reg.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.first gauge 7 high_water 7"));
        assert!(lines[1].starts_with("m.mid histogram count 1 sum 9"));
        assert!(lines[2].starts_with("z.last counter 2"));
    }

    #[test]
    fn deterministic_render_excludes_wall_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("events").add(10);
        reg.wall_histogram("tick.wall_ns").record(123_456);
        let det = reg.render_deterministic();
        assert!(det.contains("events counter 10"));
        assert!(!det.contains("tick.wall_ns"));
        assert!(reg.render_text().contains("tick.wall_ns"));
    }

    #[test]
    fn identical_update_sequences_render_identically() {
        // The registry-level determinism contract: same seed => same update
        // stream => byte-identical deterministic snapshot.
        let run = |seed: u64| {
            let reg = MetricsRegistry::new();
            let c = reg.counter("sim.events");
            let g = reg.gauge("queue.depth");
            let h = reg.histogram("pkt.bytes");
            let mut x = seed;
            for _ in 0..1000 {
                // Tiny LCG stands in for a seeded simulation run.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                c.incr();
                g.set((x >> 60) as i64);
                h.record(x >> 48);
            }
            reg.render_deterministic()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(1);
        reg.gauge("g").set(-4);
        reg.histogram("h").record(5);
        let jsonl = reg.render_jsonl("table4");
        for line in jsonl.lines() {
            assert!(line
                .starts_with("{\"schema\":\"csprov-metrics/1\",\"artifact\":\"table4\",\"name\":"));
            assert!(line.ends_with('}'));
        }
        assert!(jsonl.contains("\"kind\":\"gauge\",\"wall\":false,\"value\":-4,\"high_water\":0"));
        assert!(jsonl.contains("\"buckets\":[[4,1]]"));
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        use crate::json::Json;
        let reg = MetricsRegistry::new();
        reg.counter("sim.events").add(42);
        reg.gauge("queue.depth").set(-3);
        let h = reg.histogram("pkt.bytes");
        for v in [10u64, 80, 80, 4000] {
            h.record(v);
        }
        // Artifact labels are caller-supplied and may contain anything.
        let jsonl = reg.render_jsonl("tricky \"label\"\nwith\tescapes");
        for line in jsonl.lines() {
            let obj = Json::parse(line).expect("every metrics line parses");
            assert_eq!(
                obj.get("schema").and_then(Json::as_str),
                Some(METRICS_SCHEMA)
            );
            assert_eq!(
                obj.get("artifact").and_then(Json::as_str),
                Some("tricky \"label\"\nwith\tescapes")
            );
            let name = obj.get("name").and_then(Json::as_str).unwrap();
            match name {
                "sim.events" => {
                    assert_eq!(obj.get("value").and_then(Json::as_f64), Some(42.0));
                }
                "queue.depth" => {
                    assert_eq!(obj.get("value").and_then(Json::as_f64), Some(-3.0));
                }
                "pkt.bytes" => {
                    assert_eq!(obj.get("count").and_then(Json::as_f64), Some(4.0));
                    assert_eq!(obj.get("sum").and_then(Json::as_f64), Some(4170.0));
                    assert!(obj.get("p50").and_then(Json::as_f64).is_some());
                    assert!(obj.get("p99").and_then(Json::as_f64).is_some());
                    assert!(obj.get("buckets").and_then(Json::as_arr).is_some());
                }
                other => panic!("unexpected metric {other}"),
            }
        }
    }

    #[test]
    fn text_render_includes_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for _ in 0..10 {
            h.record(700);
        }
        let text = reg.render_text();
        assert!(
            text.contains(
                "lat histogram count 10 sum 7000 min 700 max 700 p50 700 p95 700 p99 700"
            ),
            "got {text:?}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("sim.events_executed").add(9);
        reg.gauge("router.queue.depth").set(4);
        let h = reg.histogram("serve.sim_gap_ns");
        h.record(1000);
        let prom = reg.render_prometheus();
        assert!(prom.contains("# TYPE sim_events_executed counter\nsim_events_executed 9\n"));
        assert!(prom.contains("router_queue_depth 4\n"));
        assert!(prom.contains("router_queue_depth_high_water 4\n"));
        assert!(prom.contains("# TYPE serve_sim_gap_ns summary\n"));
        assert!(prom.contains("serve_sim_gap_ns{quantile=\"0.5\"} 1000\n"));
        assert!(prom.contains("serve_sim_gap_ns_sum 1000\n"));
        assert!(prom.contains("serve_sim_gap_ns_count 1\n"));
    }

    #[test]
    fn prometheus_help_and_label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.bus.dropped").add(3);
        reg.describe(
            "serve.bus.dropped",
            "events dropped per \"slow\" subscriber\nback\\slash",
        );
        reg.histogram("lat").record(5);
        let prom = reg.render_prometheus();
        assert!(
            prom.contains(
                "# HELP serve_bus_dropped events dropped per \"slow\" subscriber\\nback\\\\slash\n"
            ),
            "got {prom:?}"
        );
        // HELP precedes TYPE for the same family.
        let help_at = prom.find("# HELP serve_bus_dropped").unwrap();
        let type_at = prom.find("# TYPE serve_bus_dropped").unwrap();
        assert!(help_at < type_at);
        assert!(prom.ends_with('\n'), "exposition must end with a newline");
        // Every line is either a comment or `name{labels} value`.
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // Describing an unregistered name is a no-op, not a panic.
        reg.describe("nope", "text");
        assert!(!reg.render_prometheus().contains("nope"));
    }

    #[test]
    fn wall_counter_and_gauge_stay_out_of_deterministic_renders() {
        let reg = MetricsRegistry::new();
        reg.counter("sim.events").add(5);
        reg.wall_counter("serve.bus.published").add(100);
        reg.wall_gauge("serve.subscribers").set(3);
        let det = reg.render_deterministic();
        assert!(det.contains("sim.events"));
        assert!(!det.contains("serve.bus.published"));
        assert!(!det.contains("serve.subscribers"));
        let names: Vec<String> = reg
            .sample_deterministic()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, vec!["sim.events"]);
        // But the operational surfaces do include them.
        assert!(reg.render_text().contains("serve.subscribers"));
        assert!(reg
            .render_prometheus()
            .contains("serve_bus_published 100\n"));
    }

    #[test]
    fn sample_deterministic_skips_wall_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.gauge("b").set(-7);
        reg.histogram("c").record(1);
        reg.wall_histogram("d.wall_ns").record(123);
        let sample = reg.sample_deterministic();
        let names: Vec<&str> = sample.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(sample[0].1, "counter");
        assert_eq!(sample[1].2, -7.0);
        assert_eq!(sample[2].2, 1.0);
    }
}
