//! The Section IV NAT experiment: one 30-minute map traced at the four
//! measurement points around a commodity NAT device (Table IV,
//! Figures 14 and 15).

use crate::chaos::{self, ChaosReport, ChaosSpec};
use csprov_analysis::RateSeries;
use csprov_game::{Middlebox, ScenarioConfig, TraceOutcome, World, WorldInstruments};
use csprov_net::{Direction, NullSink, TraceSink};
use csprov_obs::MetricsRegistry;
use csprov_router::{EngineConfig, EngineStats, NatDevice, NatTaps};
use csprov_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Results of the NAT experiment.
pub struct NatRun {
    /// Per-second packet load, clients → NAT (Figure 14a).
    pub clients_to_nat: RateSeries,
    /// Per-second packet load, NAT → server (Figure 14b).
    pub nat_to_server: RateSeries,
    /// Per-second packet load, server → NAT (Figure 15a).
    pub server_to_nat: RateSeries,
    /// Per-second packet load, NAT → clients (Figure 15b).
    pub nat_to_clients: RateSeries,
    /// Engine counters (Table IV).
    pub stats: EngineStats,
    /// World outcome (player counts etc.).
    pub outcome: TraceOutcome,
    /// The engine configuration used.
    pub engine: EngineConfig,
}

impl NatRun {
    /// Table IV's loss rates: `(incoming, outgoing)`, as fractions.
    pub fn loss_rates(&self) -> (f64, f64) {
        (
            self.stats.loss_rate(Direction::Inbound),
            self.stats.loss_rate(Direction::Outbound),
        )
    }
}

/// Runs the NAT experiment: a busy server behind the device for one
/// 30-minute map (plus a 5-minute warm-up, matching the paper's "after a
/// brief warm-up period").
pub fn run_nat_experiment(seed: u64, engine: EngineConfig) -> NatRun {
    run_nat_experiment_instrumented(seed, engine, WorldInstruments::default(), None)
}

/// [`run_nat_experiment`] with observability attached: world/sim
/// instruments ride along, the NAT device reports `router.*` metrics, and
/// the four measurement-point taps export their accepted totals as
/// `pipeline.records.*` counters.
pub fn run_nat_experiment_instrumented(
    seed: u64,
    engine: EngineConfig,
    instruments: WorldInstruments,
    registry: Option<&MetricsRegistry>,
) -> NatRun {
    // One 30-minute map, exactly the paper's window. The warm-up happened
    // before the trace: the scenario starts with the player count the
    // paper's Table IV packet totals imply (853k inbound packets over
    // 1800 s ≈ 474 pps ≈ 19 players' command streams).
    let cfg = paper_nat_config(seed); // churn holds occupancy near 19

    let second = SimDuration::from_secs(1);
    let mk = || Rc::new(RefCell::new(RateSeries::new(second)));
    let (a, b, c, d) = (mk(), mk(), mk(), mk());
    let taps = NatTaps {
        clients_to_nat: Some(a.clone()),
        nat_to_server: Some(b.clone()),
        server_to_nat: Some(c.clone()),
        nat_to_clients: Some(d.clone()),
    };
    let device = Rc::new(NatDevice::new(engine.clone(), taps));
    if let Some(registry) = registry {
        device.stats().report_to(registry);
        device.nat_stats().report_to(registry);
    }
    if let Some(journal) = &instruments.journal {
        device.attach_journal(journal.clone());
    }
    let sink = Rc::new(RefCell::new(NullSink));
    let duration = cfg.duration;
    let outcome = World::run_instrumented(cfg, sink, Some(device.clone()), instruments);
    // Close the tap series so their final partial bins are flushed.
    for tap in [&a, &b, &c, &d] {
        tap.borrow_mut()
            .on_end(csprov_sim::SimTime::ZERO + duration);
    }
    if let Some(registry) = registry {
        let total = |s: &Rc<RefCell<RateSeries>>| -> u64 {
            s.borrow().bins().iter().map(|b| b.packets).sum()
        };
        for (name, tap) in [
            ("pipeline.records.clients_to_nat", &a),
            ("pipeline.records.nat_to_server", &b),
            ("pipeline.records.server_to_nat", &c),
            ("pipeline.records.nat_to_clients", &d),
        ] {
            registry.counter(name).add(total(tap));
        }
    }

    let unwrap = |s: Rc<RefCell<RateSeries>>| {
        Rc::try_unwrap(s)
            .map_err(|_| ())
            .expect("taps released after run")
            .into_inner()
    };
    let stats = device.stats();
    drop(device);
    NatRun {
        clients_to_nat: unwrap(a),
        nat_to_server: unwrap(b),
        server_to_nat: unwrap(c),
        nat_to_clients: unwrap(d),
        stats,
        outcome,
        engine,
    }
}

/// The paper's NAT scenario: 30 minutes, 19 players held by churn.
fn paper_nat_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SimDuration::from_mins(30));
    cfg.initial_players = 19;
    cfg.workload.arrival_rate = 0.035;
    cfg
}

/// [`run_nat_experiment`] under a chaos profile: the NAT device (built with
/// the spec's table override when one is present) sits inside an
/// [`csprov_router::ImpairedPath`], so link impairments compose with the
/// device's own queueing loss and table pressure.
pub fn run_nat_experiment_chaos(
    seed: u64,
    engine: EngineConfig,
    spec: &ChaosSpec,
    chaos_seed: u64,
    instruments: WorldInstruments,
    registry: Option<&MetricsRegistry>,
) -> (NatRun, ChaosReport) {
    run_nat_campaign(
        paper_nat_config(seed),
        engine,
        spec,
        chaos_seed,
        instruments,
        registry,
    )
}

/// [`run_nat_experiment_chaos`] with an explicit scenario — the campaign
/// core, also used by shorter test horizons.
pub fn run_nat_campaign(
    cfg: ScenarioConfig,
    engine: EngineConfig,
    spec: &ChaosSpec,
    chaos_seed: u64,
    instruments: WorldInstruments,
    registry: Option<&MetricsRegistry>,
) -> (NatRun, ChaosReport) {
    let second = SimDuration::from_secs(1);
    let mk = || Rc::new(RefCell::new(RateSeries::new(second)));
    let (a, b, c, d) = (mk(), mk(), mk(), mk());
    let taps = NatTaps {
        clients_to_nat: Some(a.clone()),
        nat_to_server: Some(b.clone()),
        server_to_nat: Some(c.clone()),
        nat_to_clients: Some(d.clone()),
    };
    let device = Rc::new(match spec.nat_table {
        Some(table) => NatDevice::with_table(engine.clone(), table, taps),
        None => NatDevice::new(engine.clone(), taps),
    });
    if let Some(registry) = registry {
        device.stats().report_to(registry);
        device.nat_stats().report_to(registry);
    }
    if let Some(journal) = &instruments.journal {
        device.attach_journal(journal.clone());
    }
    let path = chaos::build_path_around(
        spec,
        chaos_seed,
        Some(device.clone() as Rc<dyn Middlebox>),
        registry,
    );
    if let Some(journal) = &instruments.journal {
        path.attach_journal(journal.clone());
    }
    let sink = Rc::new(RefCell::new(NullSink));
    let duration = cfg.duration;
    let outcome = World::run_instrumented(cfg, sink, Some(path.clone()), instruments);
    for tap in [&a, &b, &c, &d] {
        tap.borrow_mut()
            .on_end(csprov_sim::SimTime::ZERO + duration);
    }

    let stats = device.stats();
    let report = ChaosReport {
        profile: spec.name.to_string(),
        chaos_seed,
        stats: path.stats(),
        nat: Some(device.nat_stats()),
    };
    // The impaired path owns the device edge; drop both before the taps
    // can be unwrapped.
    drop(path);
    drop(device);
    let unwrap = |s: Rc<RefCell<RateSeries>>| {
        Rc::try_unwrap(s)
            .map_err(|_| ())
            .expect("taps released after run")
            .into_inner()
    };
    let run = NatRun {
        clients_to_nat: unwrap(a),
        nat_to_server: unwrap(b),
        server_to_nat: unwrap(c),
        nat_to_clients: unwrap(d),
        stats,
        outcome,
        engine,
    };
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run() -> NatRun {
        // A shorter horizon keeps the test fast; loss emerges within
        // minutes once the server is busy.
        let mut cfg = ScenarioConfig::new(11, SimDuration::from_mins(8));
        cfg.workload.arrival_rate = 0.2;
        let second = SimDuration::from_secs(1);
        let mk = || Rc::new(RefCell::new(RateSeries::new(second)));
        let (a, b, c, d) = (mk(), mk(), mk(), mk());
        let device = Rc::new(NatDevice::new(
            EngineConfig::default(),
            NatTaps {
                clients_to_nat: Some(a.clone()),
                nat_to_server: Some(b.clone()),
                server_to_nat: Some(c.clone()),
                nat_to_clients: Some(d.clone()),
            },
        ));
        let duration = cfg.duration;
        let outcome =
            World::run_with_middlebox(cfg, Rc::new(RefCell::new(NullSink)), Some(device.clone()));
        for tap in [&a, &b, &c, &d] {
            tap.borrow_mut()
                .on_end(csprov_sim::SimTime::ZERO + duration);
        }
        let unwrap =
            |s: Rc<RefCell<RateSeries>>| Rc::try_unwrap(s).map_err(|_| ()).unwrap().into_inner();
        let stats = device.stats();
        drop(device);
        NatRun {
            clients_to_nat: unwrap(a),
            nat_to_server: unwrap(b),
            server_to_nat: unwrap(c),
            nat_to_clients: unwrap(d),
            stats,
            outcome,
            engine: EngineConfig::default(),
        }
    }

    #[test]
    fn loss_asymmetry_matches_paper() {
        let run = quick_run();
        let (in_loss, out_loss) = run.loss_rates();
        // Table IV: 1.3% in, 0.046% out. The shape: inbound loss is real
        // (order 1%) and far exceeds outbound.
        assert!(
            (0.002..0.05).contains(&in_loss),
            "inbound loss {in_loss} out of band"
        );
        assert!(
            out_loss < in_loss / 5.0,
            "outbound {out_loss} vs inbound {in_loss}"
        );
    }

    #[test]
    fn taps_are_conservation_consistent() {
        let run = quick_run();
        // Packets after the NAT = packets before − drops − those still in
        // the device when the horizon cut the run (at most a queue's worth).
        let pre_in: u64 = run.clients_to_nat.bins().iter().map(|b| b.packets).sum();
        let post_in: u64 = run.nat_to_server.bins().iter().map(|b| b.packets).sum();
        let in_flight_in = pre_in - run.stats.dropped[0].get() - post_in;
        assert!(
            (in_flight_in as usize) <= run.engine.wan_queue + 1,
            "inbound imbalance {in_flight_in}"
        );
        let pre_out: u64 = run.server_to_nat.bins().iter().map(|b| b.packets).sum();
        let post_out: u64 = run.nat_to_clients.bins().iter().map(|b| b.packets).sum();
        let in_flight_out = pre_out - run.stats.dropped[1].get() - post_out;
        assert!(
            (in_flight_out as usize) <= run.engine.lan_queue + 1,
            "outbound imbalance {in_flight_out}"
        );
        assert!(pre_in > 0 && pre_out > 0);
    }

    #[test]
    fn nat_exhaust_campaign_refuses_and_recovers() {
        let spec = chaos::by_name("nat-exhaust").expect("built-in profile");
        let mut cfg = ScenarioConfig::new(11, SimDuration::from_mins(8));
        cfg.initial_players = 19;
        cfg.workload.arrival_rate = 0.2;
        let (run, report) = run_nat_campaign(
            cfg,
            EngineConfig::default(),
            &spec,
            11,
            WorldInstruments::default(),
            None,
        );
        let nat = report.nat.as_ref().expect("NAT campaign reports NAT stats");
        // 19 players on a 16-entry table: mappings are refused while the
        // table is hot, and new sessions only map via idle reclamation.
        assert!(nat.table_drops_total() > 0, "table pressure must refuse");
        assert!(
            nat.table_drops[0].get() >= nat.table_drops[1].get(),
            "refusals hit unmapped inbound flows first"
        );
        // The zero-impairment link layer passes everything it sees.
        assert!(report.stats.conservation_holds());
        assert_eq!(report.stats.offered.get(), report.stats.passed.get());
        assert!(run.stats.offered[0].get() > 0);
    }

    #[test]
    fn inbound_offered_exceeds_outbound() {
        // The paper's Table IV: more packets from clients than from server.
        let run = quick_run();
        assert!(run.stats.offered[0].get() > run.stats.offered[1].get());
    }
}
