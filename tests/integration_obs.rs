//! Observability integration: instrumentation is observe-only.
//!
//! The hard constraint of the obs layer is that metrics and progress
//! reporting never feed back into simulation decisions — a seeded run's
//! artifacts must be byte-identical with and without instrumentation, and
//! the deterministic slice of the registry must itself be a pure function
//! of the seed.

use csprov::experiments::nat::{paper_config, run_nat, run_nat_experiment};
use csprov::experiments::tables;
use csprov::pipeline::{FullAnalysis, MainRun};
use csprov_game::{GameMetrics, ScenarioConfig, World, WorldInstruments};
use csprov_net::{Direction, PacketBatch, PacketKind, TraceRecord, TraceSink};
use csprov_obs::{Journal, MetricsRegistry, Profile, SeriesSampler};
use csprov_router::EngineConfig;
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Full game + link instrumentation against one registry, no observer.
fn instruments(registry: &MetricsRegistry) -> WorldInstruments {
    WorldInstruments {
        metrics: Some(GameMetrics::register(registry)),
        registry: Some(registry.clone()),
        observers: Vec::new(),
        journal: None,
        profile: None,
    }
}

/// The repro binary's full telemetry bundle: metrics + journal + a
/// sim-clock series sampler riding the kernel observer.
fn telemetry(
    registry: &MetricsRegistry,
    journal: &Journal,
    interval_ns: u64,
) -> (WorldInstruments, Rc<RefCell<SeriesSampler>>) {
    let mut instruments = instruments(registry);
    instruments.journal = Some(journal.clone());
    let sampler = Rc::new(RefCell::new(SeriesSampler::new(
        registry.clone(),
        interval_ns,
    )));
    let sampler_cb = sampler.clone();
    instruments.observers.push((
        1024,
        Box::new(move |sim: &csprov_sim::Simulator| {
            sampler_cb.borrow_mut().observe(sim.now().as_nanos());
        }),
    ));
    (instruments, sampler)
}

#[test]
fn table4_is_byte_identical_with_metrics_on() {
    let plain = run_nat_experiment(2002, EngineConfig::default());
    let registry = MetricsRegistry::new();
    let (instrumented, _) = run_nat(
        paper_config(2002),
        EngineConfig::default(),
        None,
        instruments(&registry),
    );
    assert_eq!(
        tables::table4(&plain).render(),
        tables::table4(&instrumented).render(),
        "table4 must not change when metrics are attached"
    );

    // The instrumented run must cover every subsystem the PR wires up.
    let names = registry.names();
    for prefix in ["sim.", "game.", "net.", "router.", "pipeline."] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* instrument registered; got {names:?}"
        );
    }

    // Sanity: the exported tap totals agree with the returned series.
    let pre_in: u64 = instrumented
        .clients_to_nat
        .bins()
        .iter()
        .map(|b| b.packets)
        .sum();
    assert_eq!(
        registry.counter("pipeline.records.clients_to_nat").get(),
        pre_in
    );
    assert!(pre_in > 100_000, "a 30-minute map is busy: {pre_in}");
}

/// A sink that refuses coalesced bursts: every `on_columns` is unbatched
/// into per-record `on_packet` calls on the wrapped analysis, forcing the
/// pre-batching delivery semantics.
struct Debatch(FullAnalysis);

impl TraceSink for Debatch {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.0.on_packet(rec);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        for i in 0..batch.len() {
            self.0.on_packet(&batch.record(i));
        }
    }

    fn on_end(&mut self, end: SimTime) {
        self.0.on_end(end);
    }
}

#[test]
fn batched_tap_delivery_matches_per_record() {
    // Same seed, two delivery modes: the default run hands each server-tick
    // burst to the sink via `on_columns`; the Debatch run replays it packet
    // by packet. Every analyzer and the event schedule itself must agree —
    // batching (and the calendar queue beneath it) is observe-only.
    let cfg = ScenarioConfig::new(11, SimDuration::from_mins(3));
    let batched = MainRun::execute(cfg.clone());

    let sink = Rc::new(RefCell::new(Debatch(FullAnalysis::new(cfg.duration))));
    let outcome = World::run(cfg, sink.clone());
    let unbatched = Rc::try_unwrap(sink)
        .map_err(|_| ())
        .expect("world must release the sink")
        .into_inner()
        .0;

    let (a, b) = (&batched.analysis, &unbatched);
    assert_eq!(a.counts.total_packets(), b.counts.total_packets());
    assert_eq!(a.counts.total_wire_bytes(), b.counts.total_wire_bytes());
    assert_eq!(a.per_minute.bins(), b.per_minute.bins());
    assert_eq!(a.per_minute_in.bins(), b.per_minute_in.bins());
    assert_eq!(a.per_minute_out.bins(), b.per_minute_out.bins());
    assert_eq!(a.ms10_total.bins(), b.ms10_total.bins());
    assert_eq!(a.ms50_total.bins(), b.ms50_total.bins());
    assert_eq!(a.sec1_total.bins(), b.sec1_total.bins());
    assert_eq!(a.variance_time.bins_seen(), b.variance_time.bins_seen());
    assert_eq!(a.sizes.grand_total(), b.sizes.grand_total());
    assert_eq!(a.flows.len(), b.flows.len());
    for (session, stats) in a.flows.iter() {
        let other = b.flows.get(*session).expect("flow present in both runs");
        assert_eq!(stats.packets, other.packets);
        assert_eq!(stats.wire_bytes, other.wire_bytes);
    }
    assert_eq!(
        batched.outcome.events_executed, outcome.events_executed,
        "sink delivery mode must not alter the event schedule"
    );
    assert_eq!(batched.outcome.sessions.len(), outcome.sessions.len());
}

/// Counts how a world run's records reach its tap.
#[derive(Default)]
struct DeliveryLog {
    packets: u64,
    batch_calls: u64,
    /// `(time, rows)` of every `on_columns` call.
    columns: Vec<(SimTime, u64)>,
    /// Rows that were not one tick's outbound snapshots.
    foreign_rows: u64,
}

impl TraceSink for DeliveryLog {
    fn on_packet(&mut self, _rec: &TraceRecord) {
        self.packets += 1;
    }

    fn on_batch(&mut self, _recs: &[TraceRecord]) {
        self.batch_calls += 1;
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        self.foreign_rows += (0..batch.len())
            .map(|i| batch.record(i))
            .filter(|r| r.direction != Direction::Outbound || r.kind != PacketKind::StateUpdate)
            .count() as u64;
        self.columns.push((batch.time(), batch.len() as u64));
    }
}

#[test]
fn tick_bursts_reach_the_tap_only_as_one_column_call_each() {
    let registry = MetricsRegistry::new();
    let game = GameMetrics::register(&registry);
    let instruments = WorldInstruments {
        metrics: Some(game.clone()),
        ..WorldInstruments::default()
    };
    let cfg = ScenarioConfig::new(5, SimDuration::from_mins(3));
    let tick = cfg.server.tick.as_nanos();
    let log = Rc::new(RefCell::new(DeliveryLog::default()));
    World::run_instrumented(cfg, log.clone(), None, instruments);
    let log = log.borrow();
    assert_eq!(log.batch_calls, 0, "no burst arrives through on_batch");
    assert!(log.packets > 0, "single packets still arrive one by one");
    assert_eq!(log.foreign_rows, 0, "a call holds one tick's snapshots");
    // Every call is a non-empty burst at a tick instant, ticks increase
    // strictly from call to call, and the calls carry every snapshot: one
    // call per non-empty tick.
    assert!(log.columns.iter().all(|&(_, rows)| rows > 0));
    assert!(log.columns.iter().all(|(t, _)| t.as_nanos() % tick == 0));
    assert!(log.columns.windows(2).all(|w| w[0].0 < w[1].0));
    let rows: u64 = log.columns.iter().map(|&(_, rows)| rows).sum();
    assert!(rows > 0);
    assert_eq!(rows, game.snapshots.get());
    assert!(log.columns.len() as u64 <= game.tick_span.entry_count());
}

#[test]
fn profiled_world_run_frames_every_tick_on_the_deterministic_meter() {
    let registry = MetricsRegistry::new();
    let game = GameMetrics::register(&registry);
    let profile = Profile::new();
    let instruments = WorldInstruments {
        metrics: Some(game.clone()),
        profile: Some(profile.clone()),
        ..WorldInstruments::default()
    };
    let cfg = ScenarioConfig::new(5, SimDuration::from_mins(3));
    let sink = Rc::new(RefCell::new(csprov_net::NullSink));
    World::run_instrumented(cfg, sink, None, instruments);
    let snap = profile.snapshot();
    let frame = snap
        .entries()
        .iter()
        .find(|e| e.path == ["sim.dispatch", "game.tick"])
        .expect("each tick is framed under the dispatch loop");
    assert_eq!(frame.count, game.tick_span.entry_count());
    assert_eq!(frame.items, game.snapshots.get());
    // The meter's wall side is that frame: the registry keeps only the
    // deterministic `game.tick.*` instruments.
    let det = registry.render_deterministic();
    let ticks = game.tick_span.entry_count();
    assert!(
        det.contains(&format!("game.tick.count counter {ticks}")),
        "{det}"
    );
    assert!(det.contains("game.tick.items counter"), "{det}");
    assert!(det.contains("game.tick.sim_gap_ns histogram"), "{det}");
    assert!(!registry.render_text().contains("game.tick.wall_ns"));
    assert!(!registry.render_prometheus().contains("game_tick_wall_ns"));
}

#[test]
fn registry_renders_identically_across_same_seed_runs() {
    let render = || {
        let registry = MetricsRegistry::new();
        let _ = MainRun::execute_instrumented(
            ScenarioConfig::new(5, SimDuration::from_mins(3)),
            instruments(&registry),
        );
        registry.render_deterministic()
    };
    let first = render();
    assert!(
        first.contains("game.snapshots") && first.contains("pipeline.records.counts"),
        "deterministic render should list the run's instruments:\n{first}"
    );
    assert_eq!(
        first,
        render(),
        "same seed must produce an identical deterministic snapshot"
    );
}

#[test]
fn link_totals_conserve_and_sum_across_runs_folded_into_one_registry() {
    // Each world's client links share one stats bundle that reports into
    // the registry's `net.link.*` totals; two runs folded into one
    // registry read the sum of two separate runs, gauge included.
    let run = |registry: &MetricsRegistry, seed: u64| {
        let _ = MainRun::execute_instrumented(
            ScenarioConfig::new(seed, SimDuration::from_mins(2)),
            instruments(registry),
        );
    };
    let totals = |registry: &MetricsRegistry| {
        let c = |name: &str| registry.counter(&format!("net.link.{name}")).get();
        let in_flight = registry.gauge("net.link.in_flight").get();
        let in_flight = u64::try_from(in_flight).expect("non-negative");
        let t = [
            c("offered"),
            c("delivered"),
            c("dropped_queue"),
            c("dropped_random"),
            in_flight,
        ];
        assert_eq!(t[0], t[1] + t[2] + t[3] + t[4], "conservation: {t:?}");
        t
    };
    let (a, b, both) = (
        MetricsRegistry::new(),
        MetricsRegistry::new(),
        MetricsRegistry::new(),
    );
    run(&a, 21);
    run(&b, 22);
    run(&both, 21);
    run(&both, 22);
    let (ta, tb) = (totals(&a), totals(&b));
    assert!(ta[0] > 1_000 && tb[0] > 1_000, "busy runs: {ta:?} {tb:?}");
    let summed: Vec<u64> = ta.iter().zip(&tb).map(|(x, y)| x + y).collect();
    assert_eq!(totals(&both).to_vec(), summed);
}

#[test]
fn world_runs_conserve_link_packets_with_packets_in_flight() {
    // The world delivers what its access links admit, so the links'
    // identity is checked where delivery happens: at the horizon of a main
    // run and of a NAT run, with admitted packets still on their way.
    let conserved = |registry: &MetricsRegistry| {
        let c = |name: &str| registry.counter(&format!("net.link.{name}")).get();
        let in_flight = registry.gauge("net.link.in_flight").get();
        let in_flight = u64::try_from(in_flight).expect("non-negative");
        assert!(in_flight > 0, "the horizon cuts packets in flight");
        let (offered, delivered) = (c("offered"), c("delivered"));
        assert_eq!(
            offered,
            delivered + c("dropped_queue") + c("dropped_random") + in_flight,
            "offered = delivered + dropped_queue + dropped_random + in_flight"
        );
        delivered
    };
    let main = MetricsRegistry::new();
    let run = MainRun::execute_instrumented(
        ScenarioConfig::new(7, SimDuration::from_mins(5)),
        instruments(&main),
    );
    // Without a middlebox every delivered packet reaches the tap, which
    // also records what skips the links (probes, farewells).
    let delivered = conserved(&main);
    assert!(delivered > 10_000 && delivered <= run.analysis.counts.packets[0]);
    let nat = MetricsRegistry::new();
    let (nat_run, _) = run_nat(
        paper_config(7),
        EngineConfig::default(),
        None,
        instruments(&nat),
    );
    // Behind the device the links feed the NAT's inbound side.
    assert_eq!(conserved(&nat), nat_run.stats.offered[0].get());
}

#[test]
fn table4_is_byte_identical_with_full_telemetry_on() {
    // The journal + series exporters sit inside the determinism boundary:
    // running them must leave the paper artifact untouched.
    let plain = run_nat_experiment(2002, EngineConfig::default());
    let registry = MetricsRegistry::new();
    let journal = Journal::new();
    let horizon = SimDuration::from_mins(30).as_nanos();
    let (instruments, sampler) = telemetry(&registry, &journal, 1_000_000_000);
    let (traced, _) = run_nat(
        paper_config(2002),
        EngineConfig::default(),
        None,
        instruments,
    );
    sampler.borrow_mut().finish(horizon);
    assert_eq!(
        tables::table4(&plain).render(),
        tables::table4(&traced).render(),
        "table4 must not change when journal + series are attached"
    );
    assert!(!journal.is_empty(), "the NAT run must journal events");
    let kinds: Vec<_> = journal
        .counts_by_kind()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    for expected in ["sim.dispatch", "game.tick.begin", "router.nat.insert"] {
        assert!(
            kinds.contains(&expected),
            "missing {expected}; got {kinds:?}"
        );
    }
    assert!(sampler.borrow().len() > 100, "a 30-min run samples plenty");
}

#[test]
fn journal_and_series_exports_are_pure_functions_of_the_seed() {
    let export = |seed: u64| {
        let registry = MetricsRegistry::new();
        let journal = Journal::new();
        let horizon = SimDuration::from_mins(4).as_nanos();
        let (instruments, sampler) = telemetry(&registry, &journal, 500_000_000);
        let mut cfg = ScenarioConfig::new(seed, SimDuration::from_mins(4));
        cfg.workload.arrival_rate = 0.2;
        let _ = MainRun::execute_instrumented(cfg, instruments);
        sampler.borrow_mut().finish(horizon);
        let csv = sampler.borrow().to_csv();
        (journal.export_jsonl(), journal.export_chrome_trace(), csv)
    };
    let (jsonl_a, chrome_a, csv_a) = export(7);
    let (jsonl_b, chrome_b, csv_b) = export(7);
    assert_eq!(jsonl_a, jsonl_b, "same seed, same journal bytes");
    assert_eq!(chrome_a, chrome_b, "same seed, same Chrome trace bytes");
    assert_eq!(csv_a, csv_b, "same seed, same series bytes");

    let (jsonl_c, _, csv_c) = export(8);
    assert_ne!(jsonl_a, jsonl_c, "different seed must change the journal");
    assert_ne!(csv_a, csv_c, "different seed must change the series");

    // Exported artifacts parse back through the workspace's own parsers.
    let header = jsonl_a.lines().next().expect("journal has a header");
    let parsed = csprov_obs::Json::parse(header).expect("journal header parses");
    assert_eq!(
        parsed.get("schema").and_then(csprov_obs::Json::as_str),
        Some(csprov_obs::JOURNAL_SCHEMA)
    );
    let chrome = csprov_obs::Json::parse(&chrome_a).expect("Chrome trace parses");
    assert!(chrome
        .get("traceEvents")
        .and_then(csprov_obs::Json::as_arr)
        .is_some_and(|evs| !evs.is_empty()));
    assert!(
        csv_a.starts_with("sim_s,"),
        "series CSV has the time column"
    );
}

#[test]
fn pipeline_record_counters_match_analyzer_totals() {
    let registry = MetricsRegistry::new();
    let run = MainRun::execute_instrumented(
        ScenarioConfig::new(6, SimDuration::from_mins(2)),
        WorldInstruments {
            registry: Some(registry.clone()),
            ..WorldInstruments::default()
        },
    );
    let a = &run.analysis;
    assert_eq!(
        registry.counter("pipeline.records.counts").get(),
        a.counts.total_packets()
    );
    assert_eq!(
        registry.counter("pipeline.records.sizes").get(),
        a.sizes.grand_total()
    );
    assert_eq!(
        registry.counter("pipeline.records.per_minute").get(),
        a.per_minute.bins().iter().map(|b| b.packets).sum::<u64>()
    );
    assert_eq!(
        registry.counter("pipeline.records.variance_time").get(),
        a.variance_time.bins_seen()
    );
    assert_eq!(
        registry.gauge("pipeline.flows.tracked").get(),
        a.flows.len() as i64
    );
    // Directional per-minute exports must sum to the total export.
    assert_eq!(
        registry.counter("pipeline.records.per_minute").get(),
        registry.counter("pipeline.records.per_minute_in").get()
            + registry.counter("pipeline.records.per_minute_out").get()
    );
}
