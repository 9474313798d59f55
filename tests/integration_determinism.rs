//! Determinism: a run is a pure function of its scenario (seed included).
//! This is the property that makes the reproduction reviewable — every
//! number in EXPERIMENTS.md can be regenerated bit-for-bit.

use csprov::experiments::nat::run_nat_experiment;
use csprov::experiments::{ablations, tables};
use csprov::pipeline::MainRun;
use csprov_analysis::persist::crc32;
use csprov_game::ScenarioConfig;
use csprov_router::EngineConfig;
use csprov_sim::SimDuration;

#[test]
fn identical_seeds_identical_traces() {
    let mk = || MainRun::execute(ScenarioConfig::new(42, SimDuration::from_mins(8)));
    let a = mk();
    let b = mk();
    assert_eq!(
        a.analysis.counts.total_packets(),
        b.analysis.counts.total_packets()
    );
    assert_eq!(
        a.analysis.counts.total_wire_bytes(),
        b.analysis.counts.total_wire_bytes()
    );
    assert_eq!(a.analysis.per_minute.bins(), b.analysis.per_minute.bins());
    assert_eq!(a.analysis.ms10_total.bins(), b.analysis.ms10_total.bins());
    assert_eq!(a.outcome.sessions, b.outcome.sessions);
    assert_eq!(a.outcome.players_per_minute, b.outcome.players_per_minute);
    assert_eq!(a.outcome.events_executed, b.outcome.events_executed);
}

#[test]
fn rendered_tables_are_reproducible() {
    let mk = || MainRun::execute(ScenarioConfig::new(43, SimDuration::from_mins(6)));
    let a = mk();
    let b = mk();
    assert_eq!(tables::table1(&a).render(), tables::table1(&b).render());
    assert_eq!(tables::table2(&a).render(), tables::table2(&b).render());
    assert_eq!(tables::table3(&a).render(), tables::table3(&b).render());
}

#[test]
fn different_seeds_differ() {
    let a = MainRun::execute(ScenarioConfig::new(1, SimDuration::from_mins(5)));
    let b = MainRun::execute(ScenarioConfig::new(2, SimDuration::from_mins(5)));
    assert_ne!(
        a.analysis.counts.total_packets(),
        b.analysis.counts.total_packets()
    );
    assert_ne!(a.outcome.sessions.len(), b.outcome.sessions.len());
}

#[test]
fn nat_experiment_deterministic() {
    let a = run_nat_experiment(7, EngineConfig::default());
    let b = run_nat_experiment(7, EngineConfig::default());
    for i in 0..2 {
        assert_eq!(a.stats.offered[i].get(), b.stats.offered[i].get());
        assert_eq!(a.stats.dropped[i].get(), b.stats.dropped[i].get());
        assert_eq!(a.stats.forwarded[i].get(), b.stats.forwarded[i].get());
    }
    assert_eq!(a.clients_to_nat.bins(), b.clients_to_nat.bins());
    assert_eq!(a.nat_to_server.bins(), b.nat_to_server.bins());
}

#[test]
fn ablations_deterministic() {
    assert_eq!(
        ablations::route_cache_experiment(5).render(),
        ablations::route_cache_experiment(5).render()
    );
    assert_eq!(
        ablations::ablate_tick(5, 3).render(),
        ablations::ablate_tick(5, 3).render()
    );
}

/// What a seeded run must reproduce across commits, not just across two
/// runs of one build: event count, tap packets per direction, wire bytes,
/// session count and the CRC-32 of the rendered paper tables.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    packets: [u64; 2],
    wire_bytes: u64,
    sessions: usize,
    tables_crc: u32,
}

/// The pinned fingerprint of a 30-minute seed-7 main run (Tables I–III).
const MAIN_SEED7_30MIN: Fingerprint = Fingerprint {
    events: 1_361_571,
    packets: [640_264, 544_640],
    wire_bytes: 153_898_980,
    sessions: 63,
    tables_crc: 1_744_667_805,
};

/// The pinned fingerprint of the seed-7 NAT experiment (Table IV); its tap
/// is the server's side of the device.
const NAT_SEED7: Fingerprint = Fingerprint {
    events: 3_744_231,
    packets: [949_909, 786_551],
    wire_bytes: 251_078_999,
    sessions: 136,
    tables_crc: 3_229_381_343,
};

#[test]
fn main_run_matches_its_pinned_fingerprint() {
    let run = MainRun::execute(ScenarioConfig::scaled(7, SimDuration::from_mins(30)));
    let tables = [
        tables::table1(&run).render(),
        tables::table2(&run).render(),
        tables::table3(&run).render(),
    ]
    .concat();
    let counts = &run.analysis.counts;
    let got = Fingerprint {
        events: run.outcome.events_executed,
        packets: counts.packets,
        wire_bytes: counts.total_wire_bytes(),
        sessions: run.outcome.sessions.len(),
        tables_crc: crc32(tables.as_bytes()),
    };
    assert_eq!(got, MAIN_SEED7_30MIN);
}

#[test]
fn nat_run_matches_its_pinned_fingerprint() {
    let run = run_nat_experiment(7, EngineConfig::default());
    let total = |series: &csprov_analysis::RateSeries| {
        series
            .bins()
            .iter()
            .fold((0, 0), |(p, b), bin| (p + bin.packets, b + bin.wire_bytes))
    };
    let (packets_in, bytes_in) = total(&run.nat_to_server);
    let (packets_out, bytes_out) = total(&run.server_to_nat);
    let got = Fingerprint {
        events: run.outcome.events_executed,
        packets: [packets_in, packets_out],
        wire_bytes: bytes_in + bytes_out,
        sessions: run.outcome.sessions.len(),
        tables_crc: crc32(tables::table4(&run).render().as_bytes()),
    };
    assert_eq!(got, NAT_SEED7);
}

#[test]
fn duration_extension_preserves_prefix() {
    // Running the same seed longer must not perturb the shared prefix:
    // the per-minute series of the short run is a prefix of the long one.
    // (This is what the labelled RNG-stream derivation buys.)
    let short = MainRun::execute(ScenarioConfig::new(9, SimDuration::from_mins(4)));
    let long = MainRun::execute(ScenarioConfig::new(9, SimDuration::from_mins(8)));
    let sp = short.analysis.per_minute.bins();
    let lp = &long.analysis.per_minute.bins()[..sp.len() - 1];
    // All but the final (boundary-truncated) bin must match exactly.
    assert_eq!(&sp[..sp.len() - 1], lp);
}
