//! Analytical provisioning of routing gear for game-server traffic — the
//! calculation the paper's title promises and its conclusion sketches:
//! given the predictable tick-burst structure, how much route-lookup
//! capacity (and how little buffering) does a deployment need?
//!
//! The model exploits exactly the predictability the paper demonstrates:
//! every tick `T`, each server emits a back-to-back burst of `n` packets
//! (one per player); between bursts, smooth per-client traffic arrives at
//! rate `λ`. For a device with per-packet lookup time `s`:
//!
//! - the burst occupies the CPU for `n·s` (the *drain window*);
//! - inbound packets arriving during the drain queue up; if more than the
//!   WAN queue can hold arrive before the drain ends, they drop;
//! - worst-case added delay is bounded by the total queue content,
//!   `(wan + lan) · s`.
//!
//! The closed forms below are validated against the discrete-event NAT
//! model in this crate's tests and in `examples/nat_meltdown.rs`.

use crate::engine::EngineConfig;
use csprov_sim::SimDuration;

/// The offered traffic of one game server, in the model's terms.
#[derive(Debug, Clone, Copy)]
pub struct GameLoad {
    /// Players connected (burst size per tick).
    pub players: u32,
    /// Server tick period.
    pub tick: SimDuration,
    /// Aggregate inbound packet rate (client commands etc.), pps.
    pub inbound_pps: f64,
}

impl GameLoad {
    /// The calibrated 22-slot server of the paper, at a given occupancy.
    pub fn paper_server(players: u32) -> GameLoad {
        GameLoad {
            players,
            tick: SimDuration::from_millis(50),
            inbound_pps: f64::from(players) * 24.7,
        }
    }

    /// Mean offered load in packets per second (both directions).
    pub fn total_pps(&self) -> f64 {
        self.inbound_pps + f64::from(self.players) / self.tick.as_secs_f64()
    }
}

/// Provisioning verdict for a device/load pair.
#[derive(Debug, Clone, Copy)]
pub struct Provisioning {
    /// CPU utilization (1.0 = saturated; above 1.0 the device melts).
    pub utilization: f64,
    /// How long each tick burst monopolizes the lookup CPU.
    pub drain_window: SimDuration,
    /// Expected inbound arrivals during one drain window.
    pub inbound_per_drain: f64,
    /// Poisson estimate of the inbound loss rate from drain-window
    /// overflow (0 when the WAN queue covers the arrivals).
    pub est_inbound_loss: f64,
    /// Worst-case queueing delay through the device.
    pub worst_delay: SimDuration,
    /// True if the worst-case delay stays within a quarter of the tick
    /// (the paper's interactivity budget argument).
    pub within_latency_budget: bool,
}

/// Poisson tail: P(X > k) for X ~ Poisson(mu).
pub fn poisson_tail(mu: f64, k: usize) -> f64 {
    let mut term = (-mu).exp();
    let mut cdf = term;
    for i in 1..=k {
        term *= mu / i as f64;
        cdf += term;
    }
    (1.0 - cdf).max(0.0)
}

/// Expected overflow E[max(0, X − k)] for X ~ Poisson(mu).
pub fn poisson_excess(mu: f64, k: usize) -> f64 {
    // E[X − k]+ = sum_{j>k} (j−k) P(X=j); sum far enough into the tail.
    let mut term = (-mu).exp();
    let mut excess = 0.0;
    let horizon = (mu as usize + k + 64).max(16);
    for j in 1..=horizon {
        term *= mu / j as f64;
        if j > k {
            excess += (j - k) as f64 * term;
        }
    }
    excess
}

/// Evaluates a device against a load.
pub fn provision(load: &GameLoad, device: &EngineConfig) -> Provisioning {
    let s = device.lookup_time.as_secs_f64();
    let utilization = load.total_pps() * s;
    let drain = f64::from(load.players) * s;
    let inbound_per_drain = load.inbound_pps * drain;
    // Inbound packets beyond the WAN queue during a drain are dropped;
    // losses per second = excess per drain × drains per second.
    let est_loss = if utilization >= 1.0 {
        // Saturated: loss is the structural overload fraction.
        1.0 - 1.0 / utilization
    } else {
        let excess = poisson_excess(inbound_per_drain, device.wan_queue);
        let per_sec = excess / load.tick.as_secs_f64();
        (per_sec / load.inbound_pps).min(1.0)
    };
    let worst_delay = SimDuration::from_secs_f64((device.wan_queue + device.lan_queue) as f64 * s);
    Provisioning {
        utilization,
        drain_window: SimDuration::from_secs_f64(drain),
        inbound_per_drain,
        est_inbound_loss: est_loss,
        worst_delay,
        within_latency_budget: worst_delay.as_secs_f64() <= load.tick.as_secs_f64() / 4.0,
    }
}

/// The smallest lookup capacity (pps) for which the estimated inbound loss
/// stays below `target_loss`, holding the device's queues fixed.
pub fn required_capacity(load: &GameLoad, device: &EngineConfig, target_loss: f64) -> f64 {
    // Loss is monotone in lookup time; bisect on capacity.
    let mut lo = load.total_pps(); // below this the device saturates
    let mut hi = 1e7;
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        let cfg = EngineConfig {
            lookup_time: SimDuration::from_secs_f64(1.0 / mid),
            ..device.clone()
        };
        if provision(load, &cfg).est_inbound_loss > target_loss {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// How many of these game servers fit behind one device at the target loss.
pub fn servers_supported(per_server: &GameLoad, device: &EngineConfig, target_loss: f64) -> u32 {
    let mut n = 0;
    loop {
        let combined = GameLoad {
            players: per_server.players * (n + 1),
            tick: per_server.tick,
            inbound_pps: per_server.inbound_pps * f64::from(n + 1),
        };
        let p = provision(&combined, device);
        if p.utilization >= 1.0 || p.est_inbound_loss > target_loss {
            return n;
        }
        n += 1;
        if n > 10_000 {
            return n; // device is effectively unconstrained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_helpers() {
        // P(X > 0) = 1 − e^−mu.
        assert!((poisson_tail(1.0, 0) - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        // Excess above 0 is the mean.
        assert!((poisson_excess(3.0, 0) - 3.0).abs() < 1e-6);
        // Excess above a huge threshold vanishes.
        assert!(poisson_excess(3.0, 60) < 1e-12);
        // Monotone in the threshold.
        assert!(poisson_excess(5.0, 2) > poisson_excess(5.0, 4));
    }

    #[test]
    fn paper_configuration_predicts_percent_scale_loss() {
        // 19 players behind the default (SMC-like) device: the model must
        // land in the same regime Table IV measured (~1%).
        let load = GameLoad::paper_server(19);
        let p = provision(&load, &EngineConfig::default());
        assert!(p.utilization < 1.0, "device is not saturated on average");
        assert!(
            (0.001..0.08).contains(&p.est_inbound_loss),
            "estimated loss {} should be percent-scale",
            p.est_inbound_loss
        );
        assert!(
            p.drain_window >= SimDuration::from_millis(10),
            "burst drain {} must be a sizable fraction of the tick",
            p.drain_window
        );
        assert!(!p.within_latency_budget || p.worst_delay.as_millis() <= 12);
    }

    #[test]
    fn loss_vanishes_with_fast_lookups() {
        let load = GameLoad::paper_server(19);
        let fast = EngineConfig {
            lookup_time: SimDuration::from_micros(50), // 20k pps core
            ..EngineConfig::default()
        };
        let p = provision(&load, &fast);
        assert!(p.est_inbound_loss < 1e-6, "loss {}", p.est_inbound_loss);
        assert!(p.within_latency_budget);
    }

    #[test]
    fn saturated_device_reports_structural_loss() {
        let load = GameLoad::paper_server(22);
        let slow = EngineConfig {
            lookup_time: SimDuration::from_millis(2), // 500 pps
            ..EngineConfig::default()
        };
        let p = provision(&load, &slow);
        assert!(p.utilization > 1.0);
        assert!(p.est_inbound_loss > 0.3);
    }

    #[test]
    fn required_capacity_is_consistent() {
        let load = GameLoad::paper_server(19);
        let cap = required_capacity(&load, &EngineConfig::default(), 0.001);
        assert!(cap > load.total_pps(), "must exceed the mean load");
        // Evaluating at the returned capacity meets the target.
        let cfg = EngineConfig {
            lookup_time: SimDuration::from_secs_f64(1.0 / cap),
            ..EngineConfig::default()
        };
        assert!(provision(&load, &cfg).est_inbound_loss <= 0.001 + 1e-9);
        // And the paper's device is below it (it lost ~1.3%).
        assert!(EngineConfig::default().capacity_pps() < cap);
    }

    #[test]
    fn servers_supported_scales_with_capacity() {
        let per_server = GameLoad::paper_server(19);
        let consumer = EngineConfig::default();
        let mid = EngineConfig {
            lookup_time: SimDuration::from_micros(20), // 50k pps router
            wan_queue: 256,
            lan_queue: 256,
            ..EngineConfig::default()
        };
        let small = servers_supported(&per_server, &consumer, 0.01);
        let big = servers_supported(&per_server, &mid, 0.01);
        assert!(small <= 1, "the SMC carries at most one server: {small}");
        assert!(big >= 20, "a 50k pps router carries dozens: {big}");
    }

    #[test]
    fn model_matches_simulation_order_of_magnitude() {
        // Cross-validate the closed form against the discrete-event engine.
        use crate::engine::ForwardingEngine;
        use csprov_net::{client_endpoint, server_endpoint, Direction, Packet, PacketKind};
        use csprov_sim::{RngStream, SimTime, Simulator};

        let players = 19u32;
        let load = GameLoad::paper_server(players);
        let device = EngineConfig {
            // Disable housekeeping so the analytical model's assumptions hold.
            housekeeping_interval: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        let predicted = provision(&load, &device).est_inbound_loss;

        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(device);
        let mk = |dir: Direction| Packet {
            src: client_endpoint(1),
            dst: server_endpoint(),
            app_len: 40,
            kind: PacketKind::ClientCommand,
            session: 1,
            direction: dir,
            sent_at: SimTime::ZERO,
        };
        // 120 s of synthetic load: tick bursts + Poisson inbound.
        for t in 0..(120 * 20) {
            let at = SimTime::from_millis(t * 50);
            let engine2 = engine.clone();
            sim.schedule_at(at, move |sim| {
                for _ in 0..players {
                    engine2.submit(sim, mk(Direction::Outbound), Box::new(|_, _| {}));
                }
            });
        }
        let mut rng = RngStream::new(77);
        let mut t_ns = 0u64;
        let end_ns = 120_000_000_000;
        let mean_gap = 1e9 / load.inbound_pps;
        loop {
            t_ns += (-(rng.next_f64_open().ln()) * mean_gap) as u64;
            if t_ns >= end_ns {
                break;
            }
            let engine2 = engine.clone();
            sim.schedule_at(SimTime::from_nanos(t_ns), move |sim| {
                engine2.submit(sim, mk(Direction::Inbound), Box::new(|_, _| {}));
            });
        }
        sim.run();
        let measured = engine.stats().loss_rate(Direction::Inbound);
        assert!(
            measured > 0.0 && predicted > 0.0,
            "both must predict loss: sim {measured}, model {predicted}"
        );
        let ratio = measured / predicted;
        assert!(
            (0.2..5.0).contains(&ratio),
            "model and simulation within a factor: sim {measured} vs model {predicted}"
        );
    }
}
