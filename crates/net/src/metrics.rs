//! Registry-backed metrics for the link layer.
//!
//! One [`LinkMetrics`] bundle aggregates over every link it is attached to
//! (the world spawns one last-mile link per client, so per-link instruments
//! would be unbounded). Handles are cloned into each link; updates are plain
//! `Cell` writes on the existing counter paths and never influence queueing
//! or loss decisions.

use csprov_obs::{Counter, Gauge, MetricsRegistry};

/// Aggregate instruments shared by all instrumented links.
#[derive(Clone)]
pub struct LinkMetrics {
    /// Packets offered to any instrumented link (`net.link.offered`).
    pub offered: Counter,
    /// Packets delivered to the far end, counted on arrival
    /// (`net.link.delivered`).
    pub delivered: Counter,
    /// Drop-tail queue drops (`net.link.dropped_queue`).
    pub dropped_queue: Counter,
    /// Random-loss drops (`net.link.dropped_random`).
    pub dropped_random: Counter,
    /// Packets admitted but not yet arrived across all links — queued,
    /// serializing or propagating — with high-water mark
    /// (`net.link.in_flight`). Links keep no departure event, so queue
    /// depth alone is not tracked. At any instant `offered = delivered +
    /// dropped_queue + dropped_random + in_flight`.
    pub in_flight: Gauge,
}

impl LinkMetrics {
    /// Registers the `net.link.*` instruments.
    pub fn register(registry: &MetricsRegistry) -> Self {
        LinkMetrics {
            offered: registry.counter("net.link.offered"),
            delivered: registry.counter("net.link.delivered"),
            dropped_queue: registry.counter("net.link.dropped_queue"),
            dropped_random: registry.counter("net.link.dropped_random"),
            in_flight: registry.gauge("net.link.in_flight"),
        }
    }
}

/// Instruments mirroring [`crate::fault::FaultStats`] for one impairment
/// point. Like all obs attachments these sit in the reporting channel only:
/// the injector's own `csprov-sim` counters stay authoritative and fate
/// decisions never read them back.
#[derive(Clone)]
pub struct FaultMetrics {
    /// Packets offered to the injector (`net.fault.offered`).
    pub offered: Counter,
    /// Packets passed unharmed (`net.fault.passed`).
    pub passed: Counter,
    /// Uniform random drops (`net.fault.dropped_random`).
    pub dropped_random: Counter,
    /// Gilbert–Elliott bursty-loss drops (`net.fault.dropped_burst`).
    pub dropped_burst: Counter,
    /// Corruption losses (`net.fault.corrupted`).
    pub corrupted: Counter,
    /// Rate-shaping drops (`net.fault.shaped`).
    pub shaped: Counter,
    /// Packets held back for delayed delivery (`net.fault.reordered`).
    pub reordered: Counter,
    /// Packets delivered twice (`net.fault.duplicated`).
    pub duplicated: Counter,
}

impl FaultMetrics {
    /// Registers the `net.fault.*` instruments.
    pub fn register(registry: &MetricsRegistry) -> Self {
        FaultMetrics {
            offered: registry.counter("net.fault.offered"),
            passed: registry.counter("net.fault.passed"),
            dropped_random: registry.counter("net.fault.dropped_random"),
            dropped_burst: registry.counter("net.fault.dropped_burst"),
            corrupted: registry.counter("net.fault.corrupted"),
            shaped: registry.counter("net.fault.shaped"),
            reordered: registry.counter("net.fault.reordered"),
            duplicated: registry.counter("net.fault.duplicated"),
        }
    }
}
