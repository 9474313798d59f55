//! Sim-clock-driven time series sampling of registry instruments.
//!
//! The *series* plane of the observability layer: where the registry is an
//! end-of-run snapshot and the journal a bounded event log, the sampler
//! turns registry instruments into columnar time series — one row every N
//! sim-milliseconds — so paper-style rate/level figures fall straight out
//! of the metrics layer.
//!
//! The sampler is driven through the simulator's read-only observer hook:
//! it is *paced* by executed events but *labeled* by sim time. `observe`
//! takes a row for every interval boundary the clock has crossed since the
//! previous call; because the event stream of a seeded run is itself
//! deterministic, the resulting series is byte-identical across same-seed
//! runs. Only deterministic instruments are sampled — wall-clock
//! instruments never enter a series.
//!
//! [`SeriesSampler::to_csv`] renders the same comma-separated shape as
//! `csprov_analysis::report::to_csv` (header row, one line per row, no
//! quoting), so series files feed the existing plotting pipeline
//! unchanged. Counter columns additionally get a derived `<name>.rate`
//! per-second column, which is what the paper's traffic figures plot.

use crate::registry::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag: first CSV header column is always `sim_s`.
pub const SERIES_TIME_COLUMN: &str = "sim_s";

struct Sample {
    sim_ns: u64,
    /// Name → (instrument kind, sampled value).
    values: BTreeMap<String, (&'static str, f64)>,
}

/// Periodic sampler snapshotting a [`MetricsRegistry`] into columnar rows.
pub struct SeriesSampler {
    registry: MetricsRegistry,
    interval_ns: u64,
    next_ns: u64,
    samples: Vec<Sample>,
}

impl SeriesSampler {
    /// A sampler over `registry` taking one row per `interval_ns` of sim
    /// time. The first row lands at `interval_ns`, not at zero.
    pub fn new(registry: MetricsRegistry, interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "series interval must be positive");
        SeriesSampler {
            registry,
            interval_ns,
            next_ns: interval_ns,
            samples: Vec::new(),
        }
    }

    /// Advances the sampler to `now_ns`, taking one row per crossed
    /// interval boundary. Rows are labeled at the boundary; values are the
    /// instrument state as of this call, which is deterministic because the
    /// call sites themselves are event-paced.
    pub fn observe(&mut self, now_ns: u64) {
        while now_ns >= self.next_ns {
            let at = self.next_ns;
            self.take(at);
            self.next_ns += self.interval_ns;
        }
    }

    /// Flushes boundaries up to the horizon and adds a final row at the
    /// horizon itself so the series always covers the whole run.
    pub fn finish(&mut self, horizon_ns: u64) {
        self.observe(horizon_ns);
        if self.samples.last().map(|s| s.sim_ns) != Some(horizon_ns) {
            self.take(horizon_ns);
        }
    }

    fn take(&mut self, sim_ns: u64) {
        let mut values = BTreeMap::new();
        for (name, kind, value) in self.registry.sample_deterministic() {
            values.insert(name, (kind, value));
        }
        self.samples.push(Sample { sim_ns, values });
    }

    /// Number of rows taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no rows have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the series as CSV.
    ///
    /// Columns are the union of instrument names across all rows (sorted):
    /// counters contribute a cumulative column plus a `<name>.rate`
    /// per-second column, gauges their level, histograms their observation
    /// count as `<name>.count`. Instruments not yet registered at a given
    /// row render as 0.
    pub fn to_csv(&self) -> String {
        // Union of (name, kind) across all samples.
        let mut kinds: BTreeMap<&str, &'static str> = BTreeMap::new();
        for sample in &self.samples {
            for (name, (kind, _)) in &sample.values {
                kinds.insert(name, kind);
            }
        }
        let mut header = String::from(SERIES_TIME_COLUMN);
        for (name, kind) in &kinds {
            match *kind {
                "counter" => {
                    let _ = write!(header, ",{name},{name}.rate");
                }
                "histogram" => {
                    let _ = write!(header, ",{name}.count");
                }
                _ => {
                    let _ = write!(header, ",{name}");
                }
            }
        }
        let mut out = header;
        out.push('\n');
        let mut prev_ns = 0u64;
        let mut prev: Option<&Sample> = None;
        for sample in &self.samples {
            let _ = write!(out, "{:.3}", sample.sim_ns as f64 / 1e9);
            let dt_s = (sample.sim_ns.saturating_sub(prev_ns)) as f64 / 1e9;
            for (name, kind) in &kinds {
                let value = sample.values.get(*name).map(|(_, v)| *v).unwrap_or(0.0);
                match *kind {
                    "counter" => {
                        let before = prev
                            .and_then(|p| p.values.get(*name))
                            .map(|(_, v)| *v)
                            .unwrap_or(0.0);
                        let rate = if dt_s > 0.0 {
                            (value - before) / dt_s
                        } else {
                            0.0
                        };
                        out.push(',');
                        push_value(&mut out, value);
                        out.push(',');
                        push_value(&mut out, rate);
                    }
                    _ => {
                        out.push(',');
                        push_value(&mut out, value);
                    }
                }
            }
            out.push('\n');
            prev_ns = sample.sim_ns;
            prev = Some(sample);
        }
        out
    }
}

/// Writes integers without a fractional part and everything else with six
/// decimals — compact, stable, locale-free.
fn push_value(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:.6}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_land_on_interval_boundaries() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pkts");
        let mut s = SeriesSampler::new(reg, 1_000_000); // 1 ms
        c.add(10);
        s.observe(500_000); // before first boundary: no row
        assert!(s.is_empty());
        c.add(10);
        s.observe(2_500_000); // crosses 1 ms and 2 ms
        assert_eq!(s.len(), 2);
        s.finish(4_000_000); // crosses 3 ms and 4 ms; 4 ms is the horizon
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn finish_adds_horizon_row_once() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(1);
        let mut s = SeriesSampler::new(reg, 1_000_000);
        s.finish(2_500_000);
        // Rows at 1 ms, 2 ms, and the 2.5 ms horizon.
        assert_eq!(s.len(), 3);
        let csv = s.to_csv();
        let last = csv.lines().last().unwrap();
        assert!(last.starts_with("0.003,"), "got {last:?}");
    }

    #[test]
    fn csv_has_counter_rate_columns_and_backfills_zero() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("net.pkts");
        let mut s = SeriesSampler::new(reg.clone(), 1_000_000_000); // 1 s
        c.add(100);
        s.observe(1_000_000_000);
        // A gauge registered only after the first row: earlier rows must
        // render it as 0.
        let g = reg.gauge("game.players");
        g.set(7);
        c.add(50);
        s.observe(2_000_000_000);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "sim_s,game.players,net.pkts,net.pkts.rate");
        assert_eq!(lines[1], "1.000,0,100,100");
        assert_eq!(lines[2], "2.000,7,150,50");
    }

    #[test]
    fn wall_instruments_never_enter_a_series() {
        let reg = MetricsRegistry::new();
        reg.wall_histogram("tick.wall_ns").record(123);
        reg.counter("events").add(5);
        let mut s = SeriesSampler::new(reg, 1_000);
        s.finish(1_000);
        let csv = s.to_csv();
        assert!(csv.contains("events"));
        assert!(!csv.contains("wall_ns"));
    }

    #[test]
    fn same_update_sequence_renders_identically() {
        let run = || {
            let reg = MetricsRegistry::new();
            let c = reg.counter("a");
            let h = reg.histogram("h");
            let mut s = SeriesSampler::new(reg, 10_000);
            for i in 1..=100u64 {
                c.add(i % 7);
                h.record(i * 3);
                s.observe(i * 1_000);
            }
            s.finish(100_000);
            s.to_csv()
        };
        assert_eq!(run(), run());
    }
}
