//! Outside-in spans: timers the benchmark wraps around the program's public
//! seams, so a traced round splits its wall time by layer without a line of
//! the program being instrumented.
//!
//! A span's *self* time is its duration minus the spans nested inside it.
//! The world span encloses every sink delivery and middlebox call the world
//! makes, and the device's taps run inside its `forward`, so nesting — not
//! the seam a timer sits at — decides what each layer is charged.
//!
//! Spans are folded into per-layer totals in memory as they close; nothing
//! is written until the benchmark prints its result.

use crate::metrics::Metrics;
use crate::ratio;
use csprov::game::{Deliver, GameMetrics, Middlebox};
use csprov::net::batch::TAG_DIR_BIT;
use csprov::net::{Direction, Packet, PacketBatch, TraceRecord, TraceSink};
use csprov::sim::{SimTime, Simulator};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The layers a traced round is split into, one per wrapped seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `World::run_instrumented`: kernel dispatch, the world model, access
    /// links and device service events, which cannot be split from outside.
    World,
    /// Record deliveries into a tap sink (`FullAnalysis`, the device taps).
    Ingest,
    /// A tap sink's end-of-trace fold (`on_end`).
    Fold,
    /// `Middlebox::forward` on the uplink device.
    Forward,
    /// `ShardState::from_run`: a finished shard reduced to mergeable state.
    Reduce,
    /// `persist::write_checkpoint_atomic`.
    PersistWrite,
    /// `persist::load_checkpoints`.
    PersistRead,
    /// `FleetMerger` pushes and `finish`.
    Merge,
    /// `ProvisioningReport::build`.
    Report,
    /// Table rendering in `experiments`.
    Render,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated spans of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Items the spans carried (records, packets).
    pub items: u64,
    /// Summed span durations, nested children included.
    pub total_ns: u64,
    /// Summed durations minus nested children.
    pub self_ns: u64,
}

/// Per-layer totals of one tracer (or of several, merged).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals(pub [LayerTotals; LAYERS]);

impl Totals {
    /// The totals of `layer`.
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.0[layer.index()]
    }

    /// Self seconds of `layer`.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.get(layer).self_ns as f64 * 1e-9
    }

    /// Self seconds summed over every layer.
    pub fn self_s_sum(&self) -> f64 {
        self.0.iter().map(|t| t.self_ns as f64 * 1e-9).sum()
    }

    /// Adds another tracer's totals (e.g. a fleet worker's).
    pub fn absorb(&mut self, other: &Totals) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.items += b.items;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
    }
}

struct Frame {
    layer: Layer,
    items: u64,
    start: Instant,
    children_ns: u64,
}

#[derive(Default)]
struct TracerState {
    stack: Vec<Frame>,
    totals: Totals,
}

/// A single-threaded span recorder. Clones share state.
#[derive(Clone, Default)]
pub struct Tracer(Rc<RefCell<TracerState>>);

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span of `layer` carrying `items`.
    pub fn span<R>(&self, layer: Layer, items: u64, f: impl FnOnce() -> R) -> R {
        self.0.borrow_mut().stack.push(Frame {
            layer,
            items,
            start: Instant::now(),
            children_ns: 0,
        });
        let out = f();
        let end = Instant::now();
        let mut st = self.0.borrow_mut();
        let frame = st.stack.pop().expect("span stack is balanced");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        if let Some(parent) = st.stack.last_mut() {
            parent.children_ns += dur;
        }
        let t = &mut st.totals.0[frame.layer.index()];
        t.calls += 1;
        t.items += frame.items;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.children_ns);
        out
    }

    /// The totals of every span closed so far.
    pub fn totals(&self) -> Totals {
        self.0.borrow().totals
    }
}

/// Records a tap has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapCounts {
    /// Inbound records.
    pub inbound: u64,
    /// Outbound records.
    pub outbound: u64,
    /// Delivery calls (`on_packet`, `on_batch`, `on_columns`).
    pub calls: u64,
}

impl TapCounts {
    /// All records.
    pub fn records(&self) -> u64 {
        self.inbound + self.outbound
    }

    fn add(&mut self, dir: Direction) {
        match dir {
            Direction::Inbound => self.inbound += 1,
            Direction::Outbound => self.outbound += 1,
        }
    }
}

/// The world's own counters and its server tap, summed over runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldCounts {
    /// Kernel events executed.
    pub events: u64,
    /// Highest kernel event-queue high-water mark.
    pub queue_hwm: i64,
    /// Server ticks.
    pub ticks: u64,
    /// Snapshot packets the ticks emitted.
    pub snapshots: u64,
    /// What passed the server tap.
    pub tap: TapCounts,
}

impl WorldCounts {
    /// Reads one finished run's counters.
    pub fn of(game: &GameMetrics, tap: &TapCounts) -> WorldCounts {
        WorldCounts {
            events: game.sim_events.get(),
            queue_hwm: game.sim_queue_hwm.high_water(),
            ticks: game.tick_span.entry_count(),
            snapshots: game.snapshots.get(),
            tap: *tap,
        }
    }

    /// Adds another run's counters.
    pub fn absorb(&mut self, other: &WorldCounts) {
        self.events += other.events;
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        self.ticks += other.ticks;
        self.snapshots += other.snapshots;
        self.tap.inbound += other.tap.inbound;
        self.tap.outbound += other.tap.outbound;
        self.tap.calls += other.tap.calls;
    }

    /// Sets the metrics every workload shares: `sim.*`, `game.*`, `net.*`,
    /// `pipeline.*` and `experiments.*`, from these counts, the spans in
    /// `totals`, and the workload's own packet count.
    pub fn report(&self, m: &mut Metrics, totals: &Totals, packets: u64) {
        let events = self.events as f64;
        let world = totals.self_s(Layer::World);
        let ingest = totals.get(Layer::Ingest);
        m.set("sim.events", events);
        m.set("sim.events_per_packet", ratio(events, packets as f64));
        m.set("sim.queue_hwm", self.queue_hwm as f64);
        m.set("game.world_self_s", world);
        m.set("game.world_ns_per_event", ratio(world * 1e9, events));
        m.set("game.ticks", self.ticks as f64);
        m.set("game.snapshots", self.snapshots as f64);
        m.set("net.tap_packets_in", self.tap.inbound as f64);
        m.set("net.tap_packets_out", self.tap.outbound as f64);
        m.set(
            "net.records_per_call",
            ratio(self.tap.records() as f64, self.tap.calls as f64),
        );
        m.set("pipeline.ingest_s", totals.self_s(Layer::Ingest));
        m.set(
            "pipeline.ingest_ns_per_record",
            ratio(ingest.self_ns as f64, ingest.items as f64),
        );
        m.set("pipeline.calls", ingest.calls as f64);
        m.set("pipeline.fold_s", totals.self_s(Layer::Fold));
        m.set("experiments.render_s", totals.self_s(Layer::Render));
    }
}

/// A [`TraceSink`] that times and counts every delivery into the sink it
/// wraps.
pub struct TimedTap<S> {
    inner: Rc<RefCell<S>>,
    tracer: Tracer,
    counts: Rc<RefCell<TapCounts>>,
}

impl<S: TraceSink> TimedTap<S> {
    /// Wraps `inner`; the returned counts fill as records pass.
    pub fn new(inner: Rc<RefCell<S>>, tracer: &Tracer) -> (Self, Rc<RefCell<TapCounts>>) {
        let counts = Rc::new(RefCell::new(TapCounts::default()));
        let tap = TimedTap {
            inner,
            tracer: tracer.clone(),
            counts: counts.clone(),
        };
        (tap, counts)
    }

    /// Delivers `items` records of directions `dirs` through `f`, counted
    /// inside the ingest span so the bookkeeping is not charged to the
    /// caller's layer.
    fn deliver(&self, items: u64, dirs: impl Iterator<Item = Direction>, f: impl FnOnce(&mut S)) {
        self.tracer.span(Layer::Ingest, items, || {
            {
                let mut c = self.counts.borrow_mut();
                c.calls += 1;
                dirs.for_each(|d| c.add(d));
            }
            f(&mut self.inner.borrow_mut());
        });
    }
}

impl<S: TraceSink> TraceSink for TimedTap<S> {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.deliver(1, std::iter::once(rec.direction), |s| s.on_packet(rec));
    }

    fn on_batch(&mut self, recs: &[TraceRecord]) {
        let dirs = recs.iter().map(|r| r.direction);
        self.deliver(recs.len() as u64, dirs, |s| s.on_batch(recs));
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        let dirs = batch.tags().iter().map(|&tag| {
            if tag & TAG_DIR_BIT == 0 {
                Direction::Inbound
            } else {
                Direction::Outbound
            }
        });
        self.deliver(batch.len() as u64, dirs, |s| s.on_columns(batch));
    }

    fn on_end(&mut self, end: SimTime) {
        let inner = &self.inner;
        self.tracer
            .span(Layer::Fold, 0, || inner.borrow_mut().on_end(end));
    }
}

/// A [`Middlebox`] that times every `forward` into the device it wraps.
pub struct TimedMiddlebox<M> {
    inner: Rc<M>,
    tracer: Tracer,
}

impl<M: Middlebox> TimedMiddlebox<M> {
    /// Wraps `inner`.
    pub fn new(inner: Rc<M>, tracer: &Tracer) -> Self {
        TimedMiddlebox {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl<M: Middlebox> Middlebox for TimedMiddlebox<M> {
    fn forward(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
        self.tracer
            .span(Layer::Forward, 1, || self.inner.forward(sim, pkt, deliver));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_nested_children() {
        let tracer = Tracer::new();
        tracer.span(Layer::World, 0, || {
            spin(200_000);
            tracer.span(Layer::Ingest, 3, || spin(300_000));
            tracer.span(Layer::Forward, 1, || {
                tracer.span(Layer::Ingest, 1, || spin(100_000));
            });
        });
        let t = tracer.totals();
        let world = t.get(Layer::World);
        let ingest = t.get(Layer::Ingest);
        let forward = t.get(Layer::Forward);
        assert_eq!((ingest.calls, ingest.items), (2, 4));
        assert!(world.self_ns >= 200_000 && world.self_ns < world.total_ns);
        assert!(forward.self_ns < 100_000, "the nested tap is not forward's");
        let sum: u64 = t.0.iter().map(|l| l.self_ns).sum();
        assert_eq!(sum, world.total_ns, "self times partition the root span");
    }
}
