//! Named chaos profiles and replayable fault-injection campaigns.
//!
//! A campaign wraps a normal run — the main trace or the Section IV NAT
//! experiment — in an [`ImpairedPath`] built from a [`ChaosSpec`], driven
//! by its own seed so the impairment schedule is independent of the
//! workload seed and bit-for-bit replayable. The `none` profile installs a
//! zero-impairment path, which is a provable no-op: a disabled injector
//! consumes no RNG draws and delivers synchronously, so the event schedule
//! (and every artifact) is byte-identical to an un-wrapped run.

use crate::pipeline::MainRun;
use csprov_game::{Middlebox, ScenarioConfig, WorldInstruments};
use csprov_net::{BurstLoss, DuplicateConfig, FaultConfig, FaultStats, ReorderConfig};
use csprov_router::{ImpairedPath, NatStats, NatTableConfig};
use csprov_sim::{RngStream, SimDuration};
use std::rc::Rc;

/// One fault-injection campaign: per-direction impairments plus an
/// optional NAT-table override for the Section IV experiment.
#[derive(Debug, Clone, Default)]
pub struct ChaosSpec {
    /// Profile name, as accepted by [`by_name`].
    pub name: &'static str,
    /// Impairments applied to client → server traffic.
    pub inbound: FaultConfig,
    /// Impairments applied to server → client traffic.
    pub outbound: FaultConfig,
    /// NAT-table override (capacity / idle timeout) for NAT campaigns.
    pub nat_table: Option<NatTableConfig>,
}

impl ChaosSpec {
    /// True when the spec impairs nothing and overrides nothing.
    pub fn is_noop(&self) -> bool {
        self.inbound.is_noop() && self.outbound.is_noop() && self.nat_table.is_none()
    }
}

/// Names of every built-in profile, in presentation order.
pub fn names() -> &'static [&'static str] {
    &[
        "none",
        "modem-burst",
        "reorder-dup",
        "last-mile-loss",
        "nat-exhaust",
    ]
}

/// Looks up a built-in chaos profile.
///
/// - `none` — zero impairment; byte-identical to the un-wrapped run.
/// - `modem-burst` — Gilbert–Elliott bursty loss on the inbound path
///   (modem retrains), a trickle of uniform loss outbound.
/// - `reorder-dup` — reordering and duplication both ways, no loss.
/// - `last-mile-loss` — uniform random loss plus corruption both ways.
/// - `nat-exhaust` — no link impairment, but a NAT table far too small
///   for the player population (Table IV's device under pressure).
pub fn by_name(name: &str) -> Option<ChaosSpec> {
    let spec = match name {
        "none" => ChaosSpec {
            name: "none",
            ..ChaosSpec::default()
        },
        "modem-burst" => ChaosSpec {
            name: "modem-burst",
            inbound: FaultConfig {
                burst_loss: Some(BurstLoss {
                    p_enter: 0.01,
                    p_exit: 0.2,
                    loss_good: 0.0005,
                    loss_bad: 0.35,
                }),
                ..FaultConfig::default()
            },
            outbound: FaultConfig {
                drop_chance: 0.001,
                ..FaultConfig::default()
            },
            nat_table: None,
        },
        "reorder-dup" => {
            let both = FaultConfig {
                reorder: Some(ReorderConfig {
                    chance: 0.02,
                    delay_min: SimDuration::from_millis(2),
                    delay_max: SimDuration::from_millis(25),
                }),
                duplicate: Some(DuplicateConfig {
                    chance: 0.005,
                    delay_min: SimDuration::from_millis(1),
                    delay_max: SimDuration::from_millis(10),
                }),
                ..FaultConfig::default()
            };
            ChaosSpec {
                name: "reorder-dup",
                inbound: both.clone(),
                outbound: both,
                nat_table: None,
            }
        }
        "last-mile-loss" => ChaosSpec {
            name: "last-mile-loss",
            inbound: FaultConfig {
                drop_chance: 0.01,
                corrupt_chance: 0.002,
                ..FaultConfig::default()
            },
            outbound: FaultConfig {
                drop_chance: 0.005,
                corrupt_chance: 0.001,
                ..FaultConfig::default()
            },
            nat_table: None,
        },
        "nat-exhaust" => ChaosSpec {
            name: "nat-exhaust",
            inbound: FaultConfig::default(),
            outbound: FaultConfig::default(),
            // 16 mappings for a 19-player server: the table is exhausted
            // within the warm-up, and only idle-entry reclamation lets new
            // sessions map at all.
            nat_table: Some(NatTableConfig {
                capacity: 16,
                idle_timeout: SimDuration::from_secs(60),
            }),
        },
        _ => return None,
    };
    Some(spec)
}

/// Counters collected from one chaos campaign, rendered deterministically.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The profile that ran.
    pub profile: String,
    /// The impairment seed (independent of the workload seed).
    pub chaos_seed: u64,
    /// Fate counters shared by both directions' injectors.
    pub stats: FaultStats,
    /// NAT degradation counters, present for NAT campaigns.
    pub nat: Option<NatStats>,
}

impl ChaosReport {
    /// Renders the campaign summary as deterministic fixed-precision text.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let offered = s.offered.get();
        let pct = |n: u64| -> f64 {
            if offered == 0 {
                0.0
            } else {
                100.0 * n as f64 / offered as f64
            }
        };
        let mut out = String::new();
        out.push_str(&format!(
            "chaos campaign: {} (chaos-seed {})\n",
            self.profile, self.chaos_seed
        ));
        out.push_str(&format!("  offered          {offered}\n"));
        out.push_str(&format!(
            "  passed           {} ({:.4}%)\n",
            s.passed.get(),
            pct(s.passed.get())
        ));
        out.push_str(&format!("  reordered        {}\n", s.reordered.get()));
        out.push_str(&format!("  duplicated       {}\n", s.duplicated.get()));
        out.push_str(&format!("  dropped.random   {}\n", s.dropped.get()));
        out.push_str(&format!("  dropped.burst    {}\n", s.dropped_burst.get()));
        out.push_str(&format!("  dropped.corrupt  {}\n", s.corrupted.get()));
        out.push_str(&format!("  dropped.shaped   {}\n", s.shaped.get()));
        out.push_str(&format!(
            "  dropped total    {} ({:.4}%)\n",
            s.dropped_total(),
            pct(s.dropped_total())
        ));
        out.push_str(&format!(
            "  conservation     {}\n",
            if s.conservation_holds() {
                "ok"
            } else {
                "VIOLATED"
            }
        ));
        if let Some(nat) = &self.nat {
            out.push_str(&format!(
                "  nat.table_drops  in {} / out {}\n",
                nat.table_drops[0].get(),
                nat.table_drops[1].get()
            ));
            out.push_str(&format!("  nat.evictions    {}\n", nat.evictions.get()));
            out.push_str(&format!("  nat.recoveries   {}\n", nat.recoveries.get()));
        }
        out
    }
}

/// Builds the impairment middlebox for a spec around an optional inner
/// device (e.g. a NAT), reporting its fate counters into the run's
/// registry and its impairments into the run's journal.
///
/// The injector RNG is derived from `chaos_seed` alone, so the same spec
/// and seed produce the same impairment schedule regardless of workload.
pub fn build_path(
    spec: &ChaosSpec,
    chaos_seed: u64,
    inner: Option<Rc<dyn Middlebox>>,
    instruments: &WorldInstruments,
) -> Rc<ImpairedPath> {
    let rng = RngStream::new(chaos_seed).derive("chaos");
    let path = Rc::new(ImpairedPath::with_directions(
        spec.inbound.clone(),
        spec.outbound.clone(),
        rng,
        inner,
    ));
    if let Some(registry) = &instruments.registry {
        path.stats().report_to(registry);
    }
    if let Some(journal) = &instruments.journal {
        path.attach_journal(journal.clone());
    }
    path
}

/// Runs the main trace under a chaos profile and reports the campaign.
pub fn run_chaos_main(
    spec: &ChaosSpec,
    config: ScenarioConfig,
    chaos_seed: u64,
    instruments: WorldInstruments,
) -> (MainRun, ChaosReport) {
    let path = build_path(spec, chaos_seed, None, &instruments);
    let run = MainRun::execute_with_middlebox(config, Some(path.clone()), instruments);
    let report = ChaosReport {
        profile: spec.name.to_string(),
        chaos_seed,
        stats: path.stats(),
        nat: None,
    };
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_profile_resolves() {
        for name in names() {
            let spec = by_name(name).expect("listed profile must resolve");
            assert_eq!(&spec.name, name);
        }
        assert!(by_name("no-such-profile").is_none());
    }

    #[test]
    fn none_profile_is_noop() {
        assert!(by_name("none").unwrap().is_noop());
        for name in names().iter().filter(|n| **n != "none") {
            assert!(!by_name(name).unwrap().is_noop(), "{name} must impair");
        }
    }

    #[test]
    fn report_renders_deterministically() {
        let spec = by_name("last-mile-loss").unwrap();
        let cfg = ScenarioConfig::new(5, SimDuration::from_mins(1));
        let (_, r1) = run_chaos_main(&spec, cfg.clone(), 9, WorldInstruments::default());
        let (_, r2) = run_chaos_main(&spec, cfg, 9, WorldInstruments::default());
        assert_eq!(r1.render(), r2.render());
        assert!(r1.stats.conservation_holds());
        assert!(r1.stats.dropped.get() > 0, "1% loss over a minute");
    }

    #[test]
    fn chaos_seed_changes_schedule_but_not_offered_load() {
        // Different chaos seeds must impair different packets, while the
        // campaign stays conservation-consistent either way.
        let spec = by_name("modem-burst").unwrap();
        let cfg = ScenarioConfig::new(5, SimDuration::from_mins(1));
        let (_, r1) = run_chaos_main(&spec, cfg.clone(), 1, WorldInstruments::default());
        let (_, r2) = run_chaos_main(&spec, cfg, 2, WorldInstruments::default());
        assert!(r1.stats.conservation_holds() && r2.stats.conservation_holds());
        assert_ne!(
            (r1.stats.dropped_burst.get(), r1.stats.passed.get()),
            (r2.stats.dropped_burst.get(), r2.stats.passed.get()),
            "different chaos seeds must impair differently"
        );
    }
}
