//! The Section IV NAT experiment: one 30-minute map traced at the four
//! measurement points around a commodity NAT device (Table IV,
//! Figures 14 and 15).

use crate::chaos::{self, ChaosReport, ChaosSpec};
use csprov_analysis::RateSeries;
use csprov_game::{Middlebox, ScenarioConfig, TraceOutcome, World, WorldInstruments};
use csprov_net::{Direction, NullSink, TraceSink};
use csprov_router::{EngineConfig, EngineStats, NatDevice, NatTaps};
use csprov_sim::{SimDuration, SimTime};
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
    run_nat(
        paper_config(seed),
        engine,
        None,
        WorldInstruments::default(),
    )
    .0
}

/// The paper's NAT scenario: one 30-minute map, exactly the paper's
/// window. The warm-up happened before the trace: the scenario starts with
/// the player count the paper's Table IV packet totals imply (853k inbound
/// packets over 1800 s ≈ 474 pps ≈ 19 players' command streams), and
/// churn holds occupancy near 19.
pub fn paper_config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(seed, SimDuration::from_mins(30));
    cfg.initial_players = 19;
    cfg.workload.arrival_rate = 0.035;
    cfg
}

/// Runs `cfg` behind the NAT device, tapped at the four measurement
/// points. Instruments ride along: the device reports `router.*` metrics
/// and journals into the run's journal, and the four taps export their
/// accepted totals as `pipeline.records.*` counters.
///
/// Under `chaos` (a spec and its impairment seed) the device, built with
/// the spec's table override when one is present, sits inside an
/// [`csprov_router::ImpairedPath`], so link impairments compose with the
/// device's own queueing loss and table pressure, and the campaign is
/// reported. Without it the device is the world's middlebox itself.
pub fn run_nat(
    cfg: ScenarioConfig,
    engine: EngineConfig,
    chaos: Option<(&ChaosSpec, u64)>,
    instruments: WorldInstruments,
) -> (NatRun, Option<ChaosReport>) {
    run_nat_inspected(cfg, engine, chaos, instruments, |_| {})
}

/// [`run_nat`], showing the device to `inspect` once the run is over,
/// while it still holds what the horizon cut off.
fn run_nat_inspected(
    cfg: ScenarioConfig,
    engine: EngineConfig,
    chaos: Option<(&ChaosSpec, u64)>,
    instruments: WorldInstruments,
    inspect: impl FnOnce(&NatDevice),
) -> (NatRun, Option<ChaosReport>) {
    let second = SimDuration::from_secs(1);
    let taps: [Rc<RefCell<RateSeries>>; 4] =
        std::array::from_fn(|_| Rc::new(RefCell::new(RateSeries::new(second))));
    let [a, b, c, d] = &taps;
    let table = chaos
        .and_then(|(spec, _)| spec.nat_table)
        .unwrap_or_default();
    let device = Rc::new(NatDevice::with_table(
        engine.clone(),
        table,
        NatTaps {
            clients_to_nat: Some(a.clone()),
            nat_to_server: Some(b.clone()),
            server_to_nat: Some(c.clone()),
            nat_to_clients: Some(d.clone()),
        },
    ));
    if let Some(registry) = &instruments.registry {
        device.stats().report_to(registry);
        device.nat_stats().report_to(registry);
    }
    if let Some(journal) = &instruments.journal {
        device.attach_journal(journal.clone());
    }
    let path = chaos.map(|(spec, chaos_seed)| {
        let inner = device.clone() as Rc<dyn Middlebox>;
        chaos::build_path(spec, chaos_seed, Some(inner), &instruments)
    });
    let middlebox: Rc<dyn Middlebox> = match &path {
        Some(path) => path.clone(),
        None => device.clone(),
    };
    let registry = instruments.registry.clone();
    let duration = cfg.duration;
    let sink = Rc::new(RefCell::new(NullSink));
    let outcome = World::run_instrumented(cfg, sink, Some(middlebox), instruments);
    // Close the tap series so their final partial bins are flushed.
    for tap in &taps {
        tap.borrow_mut().on_end(SimTime::ZERO + duration);
    }
    if let Some(registry) = &registry {
        let names = [
            "pipeline.records.clients_to_nat",
            "pipeline.records.nat_to_server",
            "pipeline.records.server_to_nat",
            "pipeline.records.nat_to_clients",
        ];
        for (name, tap) in names.into_iter().zip(&taps) {
            let total: u64 = tap.borrow().bins().iter().map(|b| b.packets).sum();
            registry.counter(name).add(total);
        }
    }
    let report = chaos
        .zip(path)
        .map(|((spec, chaos_seed), path)| ChaosReport {
            profile: spec.name.to_string(),
            chaos_seed,
            stats: path.stats(),
            nat: Some(device.nat_stats()),
        });
    let stats = device.stats();
    inspect(&device);
    // The device (and the path around it) hold the tap edges; with them
    // dropped each tap is released. A tap still shared is swapped out for
    // an empty series rather than unwrapped.
    drop(device);
    let [clients_to_nat, nat_to_server, server_to_nat, nat_to_clients] =
        taps.map(|tap| match Rc::try_unwrap(tap) {
            Ok(cell) => cell.into_inner(),
            Err(shared) => shared.replace(RateSeries::new(second)),
        });
    let run = NatRun {
        clients_to_nat,
        nat_to_server,
        server_to_nat,
        nat_to_clients,
        stats,
        outcome,
        engine,
    };
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shorter horizon keeps the tests fast; loss emerges within
    /// minutes once the server is busy.
    fn short_config() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::new(11, SimDuration::from_mins(8));
        cfg.workload.arrival_rate = 0.2;
        cfg
    }

    fn short_run() -> NatRun {
        run_nat(
            short_config(),
            EngineConfig::default(),
            None,
            WorldInstruments::default(),
        )
        .0
    }

    #[test]
    fn loss_asymmetry_matches_paper() {
        let run = short_run();
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
        // The horizon falls 5 ms into a server tick's burst, so the device
        // still holds packets when the run is cut.
        let mut cfg = short_config();
        cfg.duration += SimDuration::from_millis(5);
        let (mut held, mut table_drops) = ([0; 2], [0; 2]);
        let (run, _) = run_nat_inspected(
            cfg,
            EngineConfig::default(),
            None,
            WorldInstruments::default(),
            |device| {
                for (i, dir) in [Direction::Inbound, Direction::Outbound]
                    .into_iter()
                    .enumerate()
                {
                    held[i] = device.held(dir);
                    table_drops[i] = device.nat_stats().table_drops[i].get();
                }
            },
        );
        let total = |s: &RateSeries| -> u64 { s.bins().iter().map(|b| b.packets).sum() };
        let taps = [
            (&run.clients_to_nat, &run.nat_to_server),
            (&run.server_to_nat, &run.nat_to_clients),
        ];
        let s = &run.stats;
        for (i, (pre, post)) in taps.into_iter().enumerate() {
            let offered = s.offered[i].get();
            assert!(offered > 0);
            assert_eq!(
                total(pre),
                offered + table_drops[i],
                "pre-tap, direction {i}"
            );
            let settled = s.forwarded[i].get() + s.dropped[i].get();
            assert_eq!(offered, settled + held[i], "offered, direction {i}");
            assert_eq!(total(post), s.forwarded[i].get(), "post-tap, direction {i}");
        }
        assert!(held[1] > 0, "the horizon cuts the burst in flight");
    }

    #[test]
    fn nat_exhaust_campaign_refuses_and_recovers() {
        let spec = chaos::by_name("nat-exhaust").expect("built-in profile");
        let mut cfg = short_config();
        cfg.initial_players = 19;
        let (run, report) = run_nat(
            cfg,
            EngineConfig::default(),
            Some((&spec, 11)),
            WorldInstruments::default(),
        );
        let report = report.expect("a chaos run reports its campaign");
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
        let run = short_run();
        assert!(run.stats.offered[0].get() > run.stats.offered[1].get());
    }
}
