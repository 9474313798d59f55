//! Chaos campaigns: replayability, packet conservation, the no-op
//! identity, and the NAT-exhaustion degradation story.
//!
//! These are the invariants the fault-injection layer promises:
//!
//! 1. a campaign is a pure function of (workload seed, chaos seed) —
//!    replaying it is bit-for-bit identical;
//! 2. every packet offered to an injector has exactly one fate
//!    (conservation holds for every built-in profile);
//! 3. the `none` profile — and by extension a disabled injector — is a
//!    provable no-op: it consumes no RNG draws, so a wrapped run is
//!    byte-identical to an un-wrapped one;
//! 4. a NAT-capacity campaign degrades the way the paper's Table IV
//!    device does — asymmetric loss, inbound far above outbound — and
//!    never panics.

use csprov::chaos::{self, ChaosReport};
use csprov::experiments::nat::{run_nat, NatRun};
use csprov::experiments::tables;
use csprov::pipeline::MainRun;
use csprov_game::{ScenarioConfig, WorldInstruments};
use csprov_obs::MetricsRegistry;
use csprov_router::EngineConfig;
use csprov_sim::SimDuration;

fn chaos_run(profile: &str, seed: u64, chaos_seed: u64) -> (MainRun, ChaosReport) {
    let spec = chaos::by_name(profile).expect("built-in profile");
    chaos::run_chaos_main(
        &spec,
        ScenarioConfig::new(seed, SimDuration::from_mins(4)),
        chaos_seed,
        WorldInstruments::default(),
    )
}

/// A busy NAT scenario short enough for a debug-build test.
fn short_nat_config(minutes: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(11, SimDuration::from_mins(minutes));
    cfg.initial_players = 19;
    cfg.workload.arrival_rate = 0.2;
    cfg
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let (a, ra) = chaos_run("modem-burst", 42, 7);
    let (b, rb) = chaos_run("modem-burst", 42, 7);
    assert_eq!(ra.render(), rb.render());
    assert_eq!(tables::table2(&a).render(), tables::table2(&b).render());
    assert_eq!(a.outcome.events_executed, b.outcome.events_executed);
    assert_eq!(a.outcome.sessions, b.outcome.sessions);
    assert_eq!(a.analysis.per_minute.bins(), b.analysis.per_minute.bins());
    // A different chaos seed must impair a different set of packets.
    let (_, rc) = chaos_run("modem-burst", 42, 8);
    assert_ne!(ra.render(), rc.render());
}

#[test]
fn every_profile_conserves_packets() {
    for (i, name) in chaos::names().iter().enumerate() {
        let (_, report) = chaos_run(name, 11, 100 + i as u64);
        assert!(
            report.stats.conservation_holds(),
            "profile {name} leaked packets: {:?}",
            report.stats
        );
        if *name != "none" && *name != "nat-exhaust" {
            assert!(
                report.stats.dropped_total() > 0 || report.stats.reordered.get() > 0,
                "profile {name} impaired nothing over 4 minutes"
            );
        }
    }
}

#[test]
fn zero_impairment_profile_matches_unwrapped_baseline() {
    let cfg = ScenarioConfig::new(42, SimDuration::from_mins(4));
    let baseline = MainRun::execute(cfg.clone());
    let (wrapped, report) = chaos_run("none", 42, 999);
    // The chaos seed is irrelevant to a no-op profile: the injector
    // consumes no RNG draws and delivers synchronously, so the event
    // schedule — and every artifact — is identical to no middlebox at all.
    assert_eq!(
        tables::table2(&baseline).render(),
        tables::table2(&wrapped).render()
    );
    assert_eq!(
        tables::table3(&baseline).render(),
        tables::table3(&wrapped).render()
    );
    assert_eq!(
        baseline.outcome.events_executed,
        wrapped.outcome.events_executed
    );
    assert_eq!(baseline.outcome.sessions, wrapped.outcome.sessions);
    assert_eq!(
        baseline.analysis.counts.total_wire_bytes(),
        wrapped.analysis.counts.total_wire_bytes()
    );
    // Every packet still crossed the (inert) injector.
    assert!(report.stats.offered.get() > 0);
    assert_eq!(report.stats.offered.get(), report.stats.passed.get());
}

/// Combined loss at the device for one direction: engine queue drops plus
/// table refusals, over everything offered to either.
fn combined_loss(run: &NatRun, report: &ChaosReport, dir: usize) -> f64 {
    let nat = report.nat.as_ref().expect("NAT campaign");
    let dropped = run.stats.dropped[dir].get() + nat.table_drops[dir].get();
    let offered = run.stats.offered[dir].get() + nat.table_drops[dir].get();
    dropped as f64 / offered.max(1) as f64
}

#[test]
fn nat_exhaustion_reproduces_asymmetric_loss_without_panic() {
    let spec = chaos::by_name("nat-exhaust").expect("built-in profile");
    let (run, report) = run_nat(
        short_nat_config(8),
        EngineConfig::default(),
        Some((&spec, 11)),
        WorldInstruments::default(),
    );
    let report = report.expect("a chaos run reports its campaign");
    let nat = report.nat.as_ref().expect("NAT campaign reports NAT stats");
    // Table pressure is real: the 16-entry table refused mappings, and the
    // device recovered by evicting idle entries rather than wedging.
    assert!(nat.table_drops_total() > 0, "no table pressure observed");
    assert!(nat.evictions.get() > 0, "no idle reclamation happened");
    assert!(
        nat.evictions.get() >= nat.recoveries.get(),
        "each recovery evicts at least one entry"
    );
    // The paper's Table IV shape, amplified: inbound loss far exceeds
    // outbound, because unmapped inbound flows die at the table while the
    // server's outbound traffic belongs to already-mapped sessions.
    let in_loss = combined_loss(&run, &report, 0);
    let out_loss = combined_loss(&run, &report, 1);
    assert!(in_loss > 0.0003, "inbound loss {in_loss} too small");
    assert!(
        in_loss > 5.0 * out_loss,
        "expected asymmetric loss, got in {in_loss} vs out {out_loss}"
    );
    assert!(
        nat.table_drops[0].get() > 10 * nat.table_drops[1].get(),
        "refusals must be overwhelmingly inbound: {:?}",
        nat.table_drops
    );
    // The run survived to the horizon with players still connected.
    assert!(!run.outcome.sessions.is_empty());
}

#[test]
fn zero_impairment_nat_run_exports_the_plain_runs_tap_counters() {
    // A chaos NAT run is the same composition as a plain one, wrapped: its
    // four measurement-point taps export the same `pipeline.records.*`
    // counters, and under `none` they read what the plain run's do.
    let spec = chaos::by_name("none").expect("built-in profile");
    let taps = |chaos| {
        let registry = MetricsRegistry::new();
        let instruments = WorldInstruments {
            registry: Some(registry.clone()),
            ..WorldInstruments::default()
        };
        let (run, report) = run_nat(
            short_nat_config(3),
            EngineConfig::default(),
            chaos,
            instruments,
        );
        assert_eq!(report.is_some(), chaos.is_some());
        let pre_in: u64 = run.clients_to_nat.bins().iter().map(|b| b.packets).sum();
        let names = [
            "pipeline.records.clients_to_nat",
            "pipeline.records.nat_to_server",
            "pipeline.records.server_to_nat",
            "pipeline.records.nat_to_clients",
        ];
        for name in names {
            assert!(registry.names().iter().any(|n| n == name), "{name} missing");
        }
        let counts = names.map(|name| registry.counter(name).get());
        assert_eq!(counts[0], pre_in, "the counter is the tap's total");
        counts
    };
    let plain = taps(None);
    assert!(plain.iter().all(|&n| n > 0), "busy taps: {plain:?}");
    assert_eq!(taps(Some((&spec, 3))), plain);
}
