//! `nat-device`: the Section IV NAT experiment over consecutive seeds, with
//! Table IV rendered for each.
//!
//! Every packet crosses the device's queue and table lookup, and the
//! device's service completions are kernel events of their own, so this
//! workload moves with router and kernel changes. The server tap is a
//! `NullSink`: analysis changes must not move it.

use crate::metrics::Metrics;
use crate::trace::{Layer, TimedMiddlebox, TimedTap, Tracer, WorldCounts};
use crate::{expect, ratio, Checks, Round, TracedRound, Workload};
use csprov::analysis::RateSeries;
use csprov::experiments::nat::{run_nat_experiment, NatRun};
use csprov::experiments::tables;
use csprov::game::{GameMetrics, Middlebox, ScenarioConfig, World, WorldInstruments};
use csprov::net::{NullSink, TraceSink};
use csprov::router::{EngineConfig, NatDevice, NatStats, NatTaps};
use csprov::sim::{SimDuration, SimTime};
use csprov_obs::MetricsRegistry;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Consecutive NAT seeds per round, starting at the benchmark seed.
pub const SEEDS_PER_ROUND: u64 = 3;

/// Zero-horizon set-ups sampled after every round.
const SETUP_SAMPLES: usize = 64;

/// The paper's Table IV inbound loss.
pub const PAPER_LOSS_IN: f64 = 0.013;

/// Inbound loss must lie within this factor of the paper's, either way.
/// Per-seed loss of the model spans 0.19–2.19% over seeds 0–119 and
/// 10⁹…10⁹+39, so an order of magnitude holds for every seed while still
/// catching a device that stops dropping or drops wholesale.
pub const LOSS_IN_FACTOR: f64 = 10.0;

/// Outbound loss must be at least this many times below inbound.
pub const OUT_BELOW_IN: f64 = 10.0;

/// The scenario `run_nat_experiment` runs: one 30-minute map with 19
/// players held by churn.
pub fn paper_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SimDuration::from_mins(30));
    cfg.initial_players = 19;
    cfg.workload.arrival_rate = 0.035;
    cfg
}

/// Per-layer readings of one traced run.
pub struct TracedRun {
    /// The run, as `run_nat_experiment` would have returned it.
    pub run: NatRun,
    /// The device's table counters.
    pub nat: NatStats,
    /// The world's counters and what passed the server tap (zeros when
    /// untraced).
    pub world: WorldCounts,
}

/// `run_nat_experiment` rebuilt from its public parts. With a tracer, the
/// world, the device's `forward`, its four taps and the server tap are
/// timed; without one this is the plain composition, used for set-up
/// samples.
pub fn compose(cfg: ScenarioConfig, engine: EngineConfig, tracer: Option<&Tracer>) -> TracedRun {
    let second = SimDuration::from_secs(1);
    let series: Vec<Rc<RefCell<RateSeries>>> = (0..4)
        .map(|_| Rc::new(RefCell::new(RateSeries::new(second))))
        .collect();
    let taps: Vec<Rc<RefCell<dyn TraceSink>>> = series
        .iter()
        .map(|s| -> Rc<RefCell<dyn TraceSink>> {
            match tracer {
                Some(t) => Rc::new(RefCell::new(TimedTap::new(s.clone(), t).0)),
                None => s.clone(),
            }
        })
        .collect();
    let device = Rc::new(NatDevice::new(
        engine.clone(),
        NatTaps {
            clients_to_nat: Some(taps[0].clone()),
            nat_to_server: Some(taps[1].clone()),
            server_to_nat: Some(taps[2].clone()),
            nat_to_clients: Some(taps[3].clone()),
        },
    ));
    let null = Rc::new(RefCell::new(NullSink));
    let (sink, middlebox, tap_counts): (Rc<RefCell<dyn TraceSink>>, Rc<dyn Middlebox>, _) =
        match tracer {
            Some(t) => {
                let (tap, counts) = TimedTap::new(null, t);
                let mb = Rc::new(TimedMiddlebox::new(device.clone(), t));
                (Rc::new(RefCell::new(tap)), mb, Some(counts))
            }
            None => (null, device.clone(), None),
        };
    // Registered only when traced, so set-up samples time the program alone.
    let game = tracer.map(|_| GameMetrics::register(&MetricsRegistry::new()));
    let instruments = WorldInstruments {
        metrics: game.clone(),
        ..WorldInstruments::default()
    };
    let end = SimTime::ZERO + cfg.duration;
    let run_world = || World::run_instrumented(cfg, sink, Some(middlebox), instruments);
    let outcome = match tracer {
        Some(t) => t.span(Layer::World, 0, run_world),
        None => run_world(),
    };
    for tap in &taps {
        tap.borrow_mut().on_end(end);
    }
    let stats = device.stats();
    let nat = device.nat_stats();
    drop(device);
    drop(taps);
    let mut series = series.into_iter().map(|s| {
        Rc::try_unwrap(s)
            .map_err(|_| ())
            .expect("taps released after the run")
            .into_inner()
    });
    let mut next = || series.next().expect("four taps");
    let run = NatRun {
        clients_to_nat: next(),
        nat_to_server: next(),
        server_to_nat: next(),
        nat_to_clients: next(),
        stats,
        outcome,
        engine,
    };
    let world = match (game, tap_counts) {
        (Some(game), Some(tap)) => WorldCounts::of(&game, &tap.borrow()),
        _ => WorldCounts::default(),
    };
    TracedRun { run, nat, world }
}

/// What a seed's run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Kernel events executed.
    pub events: u64,
    /// `[offered, forwarded, dropped]` per direction.
    pub engine: [[u64; 3]; 2],
    /// `(count, mean ns, max ns)` of the sojourn delay per direction.
    pub delay: [(u64, u64, u64); 2],
    /// Packets at the four taps.
    pub taps: [u64; 4],
    /// Table IV.
    pub table: String,
}

fn tap_total(s: &RateSeries) -> u64 {
    s.bins().iter().map(|b| b.packets).sum()
}

impl Fingerprint {
    /// Fingerprints a finished run and its rendered Table IV.
    pub fn of(run: &NatRun, table: String) -> Fingerprint {
        let s = &run.stats;
        let dir = |i: usize| [s.offered[i].get(), s.forwarded[i].get(), s.dropped[i].get()];
        let delay = |i: usize| {
            let d = &s.delay[i];
            (d.count(), d.mean().as_nanos(), d.max().as_nanos())
        };
        Fingerprint {
            events: run.outcome.events_executed,
            engine: [dir(0), dir(1)],
            delay: [delay(0), delay(1)],
            taps: [
                tap_total(&run.clients_to_nat),
                tap_total(&run.nat_to_server),
                tap_total(&run.server_to_nat),
                tap_total(&run.nat_to_clients),
            ],
            table,
        }
    }

    /// Packets offered to the device, both directions.
    pub fn offered(&self) -> u64 {
        self.engine[0][0] + self.engine[1][0]
    }
}

/// The checks one seed's run must pass on its own: per direction, offered
/// = forwarded + dropped + still queued (at most the queue plus the packet
/// in service), the taps agree with the engine's counters, and the loss
/// rates sit in the paper's band.
pub fn device_problems(run: &NatRun, fp: &Fingerprint) -> Vec<String> {
    let mut problems = Vec::new();
    let limits = [run.engine.wan_queue as u64, run.engine.lan_queue as u64];
    for (i, name) in ["inbound", "outbound"].iter().enumerate() {
        let [offered, forwarded, dropped] = fp.engine[i];
        let settled = forwarded + dropped;
        expect(
            &mut problems,
            settled <= offered && offered - settled <= limits[i] + 1,
            || {
                format!("{name}: offered {offered} != forwarded {forwarded} + dropped {dropped} + a queue's worth")
            },
        );
        let (before, after) = (fp.taps[2 * i], fp.taps[2 * i + 1]);
        expect(
            &mut problems,
            before == offered && after == forwarded,
            || format!("{name}: taps saw {before}/{after}, engine {offered}/{forwarded}"),
        );
    }
    let (loss_in, loss_out) = run.loss_rates();
    let band = PAPER_LOSS_IN / LOSS_IN_FACTOR..=PAPER_LOSS_IN * LOSS_IN_FACTOR;
    expect(&mut problems, band.contains(&loss_in), || {
        format!("inbound loss {loss_in} outside {band:?}")
    });
    expect(&mut problems, loss_out * OUT_BELOW_IN <= loss_in, || {
        format!("outbound loss {loss_out} not {OUT_BELOW_IN}x below inbound {loss_in}")
    });
    problems
}

/// The `nat-device` workload.
pub struct NatDeviceWorkload {
    seeds: Vec<u64>,
    references: Vec<Option<Fingerprint>>,
    /// Each seed's world counters in its first traced round.
    traced_worlds: Vec<Option<WorldCounts>>,
}

impl NatDeviceWorkload {
    /// A workload over `count` consecutive seeds from `seed`.
    pub fn new(seed: u64, count: u64) -> Self {
        let seeds: Vec<u64> = (0..count).map(|i| seed.wrapping_add(i)).collect();
        NatDeviceWorkload {
            references: vec![None; seeds.len()],
            traced_worlds: vec![None; seeds.len()],
            seeds,
        }
    }

    fn check(&mut self, i: usize, run: &NatRun, table: String) -> (Fingerprint, Vec<String>) {
        let fp = Fingerprint::of(run, table);
        let mut problems = device_problems(run, &fp);
        let reference = self.references[i].get_or_insert_with(|| fp.clone());
        expect(&mut problems, *reference == fp, || {
            format!(
                "seed {}: outputs differ from the reference run",
                self.seeds[i]
            )
        });
        (fp, problems)
    }
}

impl Workload for NatDeviceWorkload {
    fn absent_layers(&self) -> &'static [&'static str] {
        &["fleet.", "persist."]
    }

    fn warm_up(&mut self, checks: &mut Checks) {
        self.round(checks);
    }

    fn round(&mut self, checks: &mut Checks) -> Round {
        let mut wall_s = 0.0;
        let mut packets = 0;
        for i in 0..self.seeds.len() {
            let start = Instant::now();
            let run = run_nat_experiment(self.seeds[i], EngineConfig::default());
            let table = tables::table4(&run).render();
            wall_s += start.elapsed().as_secs_f64();
            let (fp, problems) = self.check(i, &run, table);
            packets += fp.offered();
            checks.op(problems);
        }
        let seed = self.seeds[0];
        let setup_s = (0..SETUP_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let mut cfg = paper_config(seed);
                cfg.duration = SimDuration::ZERO;
                drop(compose(cfg, EngineConfig::default(), None));
                start.elapsed().as_secs_f64()
            })
            .collect();
        Round {
            wall_s,
            packets,
            setup_s,
            ..Round::default()
        }
    }

    fn traced_round(&mut self, checks: &mut Checks) -> TracedRound {
        let tracer = Tracer::new();
        let mut wall_s = 0.0;
        let mut world = WorldCounts::default();
        let (mut packets, mut evictions) = (0, 0);
        let (mut offered, mut dropped) = ([0u64; 2], [0u64; 2]);
        let (mut delay_ns, mut delay_n) = ([0u64; 2], [0u64; 2]);
        for i in 0..self.seeds.len() {
            let start = Instant::now();
            let cfg = paper_config(self.seeds[i]);
            let traced = compose(cfg, EngineConfig::default(), Some(&tracer));
            let table = tracer.span(Layer::Render, 0, || tables::table4(&traced.run).render());
            wall_s += start.elapsed().as_secs_f64();
            let (fp, mut problems) = self.check(i, &traced.run, table);
            let refused = traced.nat.table_drops_total();
            expect(&mut problems, refused == 0, || {
                format!("the device refused {refused} packets for want of a mapping")
            });
            let first = *self.traced_worlds[i].get_or_insert(traced.world);
            expect(
                &mut problems,
                traced.world == first && traced.world.events == fp.events,
                || format!("traced counters {:?} differ from {first:?}", traced.world),
            );
            checks.op(problems);
            world.absorb(&traced.world);
            packets += fp.offered();
            evictions += traced.nat.evictions.get();
            for d in 0..2 {
                offered[d] += fp.engine[d][0];
                dropped[d] += fp.engine[d][2];
                let delay = &traced.run.stats.delay[d];
                delay_ns[d] += delay.mean().as_nanos() * delay.count();
                delay_n[d] += delay.count();
            }
        }
        let totals = tracer.totals();
        let mut m = Metrics::default();
        world.report(&mut m, &totals, packets);
        let forward = totals.get(Layer::Forward);
        m.set("router.forward_s", totals.self_s(Layer::Forward));
        m.set(
            "router.forward_ns_per_packet",
            ratio(forward.self_ns as f64, forward.calls as f64),
        );
        for (d, dir) in ["in", "out"].iter().enumerate() {
            m.set(&format!("router.offered_{dir}"), offered[d] as f64);
            m.set(&format!("router.dropped_{dir}"), dropped[d] as f64);
            let loss = ratio(dropped[d] as f64, offered[d] as f64);
            m.set(&format!("router.loss_{dir}"), loss);
            let delay_ms = ratio(delay_ns[d] as f64, delay_n[d] as f64) * 1e-6;
            m.set(&format!("router.delay_mean_ms_{dir}"), delay_ms);
        }
        m.set("router.nat_evictions", evictions as f64);
        TracedRound {
            wall_s,
            busy_capacity_s: wall_s,
            self_s_sum: totals.self_s_sum(),
            metrics: m,
        }
    }
}
