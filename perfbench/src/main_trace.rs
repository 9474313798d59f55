//! `main-trace`: one long single-server trace through the full analysis,
//! then Tables I–III — what `repro main` costs.
//!
//! The kernel, world, access links and the thirteen-analyzer
//! `FullAnalysis` ingest do most of the work here, with no middlebox, no
//! threads and no disk. Every round repeats the same seeded scenarios, so
//! every round must reproduce the warm-up round's outputs exactly.

use crate::metrics::Metrics;
use crate::trace::{Layer, TimedTap, Tracer, WorldCounts};
use crate::{expect, Checks, Round, TracedRound, Workload};
use csprov::experiments::tables;
use csprov::game::{GameMetrics, ScenarioConfig, World, WorldInstruments};
use csprov::net::{Direction, TraceSink};
use csprov::pipeline::{FullAnalysis, MainRun};
use csprov_obs::MetricsRegistry;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Simulated hours per trace.
pub const HOURS: f64 = 2.0;

/// Consecutive scenario seeds per round, starting at the benchmark seed:
/// one trace's packet count varies by about ±10% with its seed, and a
/// round of three averages that down.
pub const SEEDS_PER_ROUND: u64 = 3;

/// Zero-horizon set-ups sampled after every round.
const SETUP_SAMPLES: usize = 64;

/// Tables I–III as `repro` renders them.
pub fn render(run: &MainRun) -> String {
    [
        tables::table1(run),
        tables::table2(run),
        tables::table3(run),
    ]
    .iter()
    .map(|t| t.render())
    .collect::<Vec<_>>()
    .join("\n")
}

/// What a round must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Kernel events executed.
    pub events: u64,
    /// Inbound packets at the server tap.
    pub tap_in: u64,
    /// Outbound packets at the server tap.
    pub tap_out: u64,
    /// Wire bytes at the server tap.
    pub wire_bytes: u64,
    /// Connection attempts logged.
    pub sessions: usize,
    /// The rendered tables.
    pub tables: String,
}

impl Fingerprint {
    /// Fingerprints a finished run and its rendered tables.
    pub fn of(run: &MainRun, tables: String) -> Fingerprint {
        let c = &run.analysis.counts;
        Fingerprint {
            events: run.outcome.events_executed,
            tap_in: c.packets_in(Direction::Inbound),
            tap_out: c.packets_in(Direction::Outbound),
            wire_bytes: c.total_wire_bytes(),
            sessions: run.outcome.sessions.len(),
            tables,
        }
    }
}

/// The output checks one run must pass on its own: the tap's directions
/// add up to its total, and each per-minute series sums to its count.
pub fn conservation_problems(run: &MainRun) -> Vec<String> {
    let a = &run.analysis;
    let total = a.counts.total_packets();
    let inbound = a.counts.packets_in(Direction::Inbound);
    let outbound = a.counts.packets_in(Direction::Outbound);
    let sum =
        |s: &csprov::analysis::RateSeries| -> u64 { s.bins().iter().map(|b| b.packets).sum() };
    let mut problems = Vec::new();
    expect(&mut problems, inbound + outbound == total, || {
        format!("tap in {inbound} + out {outbound} != total {total}")
    });
    for (name, series, want) in [
        ("per-minute", &a.per_minute, total),
        ("per-minute inbound", &a.per_minute_in, inbound),
        ("per-minute outbound", &a.per_minute_out, outbound),
    ] {
        let got = sum(series);
        expect(&mut problems, got == want, || {
            format!("{name} series sums to {got}, not {want}")
        });
    }
    problems
}

/// `MainRun::execute` rebuilt from its public parts, with the benchmark's
/// timers around the world and the analysis tap. Returns the run as
/// `MainRun::execute` would and the counters its seams saw.
pub fn execute_traced(config: ScenarioConfig, tracer: &Tracer) -> (MainRun, WorldCounts) {
    let analysis = Rc::new(RefCell::new(FullAnalysis::new(config.duration)));
    let (tap, tap_counts) = TimedTap::new(analysis.clone(), tracer);
    let sink: Rc<RefCell<dyn TraceSink>> = Rc::new(RefCell::new(tap));
    let game = GameMetrics::register(&MetricsRegistry::new());
    let instruments = WorldInstruments {
        metrics: Some(game.clone()),
        ..WorldInstruments::default()
    };
    let outcome = tracer.span(Layer::World, 0, || {
        World::run_instrumented(config.clone(), sink, None, instruments)
    });
    let analysis = Rc::try_unwrap(analysis)
        .map_err(|_| ())
        .expect("the world releases its sink when the run returns")
        .into_inner();
    let world = WorldCounts::of(&game, &tap_counts.borrow());
    let run = MainRun {
        config,
        analysis,
        outcome,
    };
    (run, world)
}

/// The `main-trace` workload.
pub struct MainTrace {
    seeds: Vec<u64>,
    hours: f64,
    references: Vec<Option<Fingerprint>>,
}

impl MainTrace {
    /// A workload of `hours`-long traces of `count` consecutive seeds from
    /// `seed`.
    pub fn new(seed: u64, count: u64, hours: f64) -> Self {
        let seeds: Vec<u64> = (0..count).map(|i| seed.wrapping_add(i)).collect();
        MainTrace {
            references: vec![None; seeds.len()],
            seeds,
            hours,
        }
    }

    fn check(&mut self, i: usize, run: &MainRun, tables: String) -> Vec<String> {
        let mut problems = conservation_problems(run);
        let fp = Fingerprint::of(run, tables);
        let reference = self.references[i].get_or_insert_with(|| fp.clone());
        expect(&mut problems, *reference == fp, || {
            format!(
                "seed {}: outputs differ from the reference run: {fp:?}",
                self.seeds[i]
            )
        });
        problems
    }
}

impl Workload for MainTrace {
    fn absent_layers(&self) -> &'static [&'static str] {
        &["router.", "fleet.", "persist."]
    }

    fn warm_up(&mut self, checks: &mut Checks) {
        self.round(checks);
    }

    fn round(&mut self, checks: &mut Checks) -> Round {
        let mut wall_s = 0.0;
        let mut packets = 0;
        for i in 0..self.seeds.len() {
            let start = Instant::now();
            let run = MainRun::execute(csprov_bench::scenario(self.seeds[i], self.hours));
            let tables = render(&run);
            wall_s += start.elapsed().as_secs_f64();
            packets += run.analysis.counts.total_packets();
            let problems = self.check(i, &run, tables);
            checks.op(problems);
        }
        let seed = self.seeds[0];
        let setup_s = (0..SETUP_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                drop(MainRun::execute(csprov_bench::scenario(seed, 0.0)));
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
        let mut packets = 0;
        for i in 0..self.seeds.len() {
            let start = Instant::now();
            let config = csprov_bench::scenario(self.seeds[i], self.hours);
            let (run, seams) = execute_traced(config, &tracer);
            let tables = tracer.span(Layer::Render, 0, || render(&run));
            wall_s += start.elapsed().as_secs_f64();
            let mut problems = self.check(i, &run, tables);
            let counts = &run.analysis.counts;
            let tap = &seams.tap;
            expect(
                &mut problems,
                tap.inbound == counts.packets_in(Direction::Inbound)
                    && tap.outbound == counts.packets_in(Direction::Outbound)
                    && seams.events == run.outcome.events_executed,
                || format!("the seams saw {:?}, the run counted otherwise", seams),
            );
            checks.op(problems);
            world.absorb(&seams);
            packets += counts.total_packets();
        }
        let totals = tracer.totals();
        let mut m = Metrics::default();
        world.report(&mut m, &totals, packets);
        TracedRound {
            wall_s,
            busy_capacity_s: wall_s,
            self_s_sum: totals.self_s_sum(),
            metrics: m,
        }
    }
}
