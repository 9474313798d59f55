//! Registry-backed metrics for the game world.
//!
//! [`GameMetrics`] covers the server side of the workload (tick cadence,
//! snapshot volume, population churn) plus the kernel-level totals the
//! world owns at teardown (events executed, queue high-water). Attach it
//! through [`crate::world::WorldInstruments`]; nothing in the world reads a
//! metric back, so instrumented and plain runs produce identical traces.

use csprov_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::cell::Cell;
use std::rc::Rc;

/// Deterministic meter of the server tick: `<name>.count`, `<name>.items`
/// (snapshots) and `<name>.sim_gap_ns`, the sim-time gap between
/// successive ticks. Its wall time is the world's `game.tick` profile
/// frame. Clones share the gap clock; each registration starts its own.
#[derive(Clone)]
pub struct TickMeter {
    count: Counter,
    items: Counter,
    sim_gap_ns: Histogram,
    last_ns: Rc<Cell<Option<u64>>>,
}

impl TickMeter {
    /// Registers the meter's three instruments under `name`.
    fn register(registry: &MetricsRegistry, name: &str) -> Self {
        TickMeter {
            count: registry.counter(&format!("{name}.count")),
            items: registry.counter(&format!("{name}.items")),
            sim_gap_ns: registry.histogram(&format!("{name}.sim_gap_ns")),
            last_ns: Rc::new(Cell::new(None)),
        }
    }

    /// Records one tick at sim time `now_ns` that emitted `items`.
    pub(crate) fn record(&self, now_ns: u64, items: u64) {
        self.count.incr();
        self.items.add(items);
        if let Some(prev) = self.last_ns.replace(Some(now_ns)) {
            self.sim_gap_ns.record(now_ns.saturating_sub(prev));
        }
    }

    /// Number of ticks recorded.
    pub fn entry_count(&self) -> u64 {
        self.count.get()
    }
}

/// Instruments for one world run.
#[derive(Clone)]
pub struct GameMetrics {
    /// The 50 ms broadcast tick (`game.tick.*`: count, items = snapshots,
    /// sim-gap histogram).
    pub tick_span: TickMeter,
    /// Snapshot packets emitted by ticks (`game.snapshots`).
    pub snapshots: Counter,
    /// Application bytes across those snapshots (`game.snapshot_app_bytes`).
    pub snapshot_bytes: Counter,
    /// Connected players with high-water mark (`game.players`).
    pub players: Gauge,
    /// Accepted connection attempts (`game.connects_accepted`).
    pub connects_accepted: Counter,
    /// Refused connection attempts — full-server bounces
    /// (`game.connects_refused`).
    pub connects_refused: Counter,
    /// Packets recorded at the server tap (`game.packets_recorded`).
    pub packets_recorded: Counter,
    /// Kernel events executed, filled at teardown (`sim.events_executed`).
    pub sim_events: Counter,
    /// Kernel event-queue high-water mark, filled at teardown
    /// (`sim.queue_high_water`).
    pub sim_queue_hwm: Gauge,
}

impl GameMetrics {
    /// Registers the `game.*` and `sim.*` instruments.
    pub fn register(registry: &MetricsRegistry) -> Self {
        GameMetrics {
            tick_span: TickMeter::register(registry, "game.tick"),
            snapshots: registry.counter("game.snapshots"),
            snapshot_bytes: registry.counter("game.snapshot_app_bytes"),
            players: registry.gauge("game.players"),
            connects_accepted: registry.counter("game.connects_accepted"),
            connects_refused: registry.counter("game.connects_refused"),
            packets_recorded: registry.counter("game.packets_recorded"),
            sim_events: registry.counter("sim.events_executed"),
            sim_queue_hwm: registry.gauge("sim.queue_high_water"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_meter_records_counts_items_and_gaps() {
        let reg = MetricsRegistry::new();
        let meter = TickMeter::register(&reg, "game.tick");
        for i in 0..4u64 {
            meter.record(i * 50_000_000, 3); // 50 ms cadence
        }
        assert_eq!(meter.entry_count(), 4);
        assert_eq!(reg.counter("game.tick.items").get(), 12);
        let gaps = reg.histogram("game.tick.sim_gap_ns").snapshot();
        assert_eq!(gaps.count(), 3); // the first tick has no predecessor
        assert_eq!(gaps.min(), 50_000_000);
        assert_eq!(gaps.max(), 50_000_000);
    }

    #[test]
    fn tick_meter_stays_in_the_deterministic_domain() {
        let reg = MetricsRegistry::new();
        let meter = GameMetrics::register(&reg).tick_span;
        meter.clone().record(0, 2);
        meter.record(700_000, 0); // a clone shares the gap clock
        let det = reg.render_deterministic();
        assert!(det.contains("game.tick.count counter 2"), "{det}");
        assert!(det.contains("game.tick.items counter 2"), "{det}");
        assert!(det.contains("game.tick.sim_gap_ns histogram count 1 sum 700000"));
        assert!(!reg.render_text().contains("game.tick.wall_ns"));
        assert!(!reg.names().iter().any(|n| n == "game.tick.wall_ns"));
    }
}
