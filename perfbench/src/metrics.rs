//! The metric declarations and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("packets_per_s", "packet/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_packet", "event/packet"),
    ("sim.queue_hwm", "count"),
    ("game.world_self_s", "s"),
    ("game.world_ns_per_event", "ns/event"),
    ("game.ticks", "count"),
    ("game.snapshots", "count"),
    ("net.tap_packets_in", "count"),
    ("net.tap_packets_out", "count"),
    ("net.records_per_call", "record/call"),
    ("pipeline.ingest_s", "s"),
    ("pipeline.ingest_ns_per_record", "ns/record"),
    ("pipeline.calls", "count"),
    ("pipeline.fold_s", "s"),
    ("router.forward_s", "s"),
    ("router.forward_ns_per_packet", "ns/packet"),
    ("router.offered_in", "count"),
    ("router.offered_out", "count"),
    ("router.dropped_in", "count"),
    ("router.dropped_out", "count"),
    ("router.loss_in", "ratio"),
    ("router.loss_out", "ratio"),
    ("router.delay_mean_ms_in", "ms"),
    ("router.delay_mean_ms_out", "ms"),
    ("router.nat_evictions", "count"),
    ("fleet.shards_run", "count"),
    ("fleet.shards_resumed", "count"),
    ("fleet.shard_s_p50", "s"),
    ("fleet.shard_s_max", "s"),
    ("fleet.thread_busy_imbalance", "ratio"),
    ("fleet.tail_idle_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.report_s", "s"),
    ("fleet.shards_lost", "count"),
    ("fleet.retries", "count"),
    ("persist.writes", "count"),
    ("persist.write_bytes", "byte"),
    ("persist.write_ms_p50", "ms"),
    ("persist.write_ms_max", "ms"),
    ("persist.write_failures", "count"),
    ("persist.reads", "count"),
    ("persist.read_bytes", "byte"),
    ("persist.read_s", "s"),
    ("persist.rejected", "count"),
    ("experiments.render_s", "s"),
    ("host.cpu_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("host.steal_s", "s"),
    ("host.probe_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Diagnostics printed beside an untraced result, not part of it.
pub const DIAGNOSTICS: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("host.cpu_s", "s"),
    ("host.runqueue_wait_s", "s"),
    ("host.steal_s", "s"),
    ("host.probe_ms", "ms"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DIAGNOSTICS)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named metric values. Only declared names can be set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`; panics on an undeclared name, which is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(DIAGNOSTICS)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names set, in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Copies every value of `other` in.
    pub fn absorb(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }

    /// Sets to zero every unset per-layer metric whose layer prefix is in
    /// `absent`: the layer does not run on this workload.
    pub fn zero_fill(&mut self, absent: &[&str]) {
        for (name, _) in PER_LAYER {
            if absent.iter().any(|p| name.starts_with(p)) {
                self.0.entry(name).or_insert(0.0);
            }
        }
    }

    /// Per-name medians over several rounds' metrics.
    pub fn median_of<'a>(rounds: impl Iterator<Item = &'a Metrics>) -> Metrics {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for m in rounds {
            for (k, v) in &m.0 {
                values.entry(k).or_default().push(*v);
            }
        }
        Metrics(
            values
                .into_iter()
                .map(|(k, v)| (k, crate::median(&v)))
                .collect(),
        )
    }

    /// One `name value unit` line per metric, for people.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.0 {
            let unit = unit_of(name).unwrap_or("");
            let _ = writeln!(out, "{workload:<13} {name:<30} {value:>16.6} {unit}");
        }
        out
    }
}

/// Renders the result line: the declared metrics of `declared`, in order,
/// each with its unit. Errors name a declared metric left unset.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}
