//! Property-based tests for the game model: the server state machine's
//! invariants must hold under arbitrary operation sequences, and the
//! stochastic models must respect their configured bounds.

use csprov_game::{packets, ConnectOutcome, Population, ServerConfig, ServerState, WorkloadConfig};
use csprov_sim::check::{check, Gen};
use csprov_sim::{RngStream, SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Connect(u32),
    Disconnect(u32),
    HeardFrom(u32),
    Tick,
    Sweep,
    Advance(u64),
    MapChange(bool),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.u64_in(0..7) {
        0 => Op::Connect(g.u32_in(0..64)),
        1 => Op::Disconnect(g.u32_in(0..64)),
        2 => Op::HeardFrom(g.u32_in(0..64)),
        3 => Op::Tick,
        4 => Op::Sweep,
        5 => Op::Advance(g.u64_in(1..30_000)),
        _ => Op::MapChange(g.bool()),
    }
}

/// The server never exceeds its slot count, never emits snapshots for
/// unknown sessions, and sweeps only remove genuinely silent players.
#[test]
fn server_state_machine_invariants() {
    check("server_state_machine_invariants", 128, |g| {
        let ops = g.vec_with(1..200, gen_op);
        let cfg = ServerConfig::default();
        let max = cfg.max_players;
        let mut s = ServerState::new(cfg, RngStream::new(1));
        let mut now = SimTime::ZERO;
        let mut connected = std::collections::BTreeSet::new();
        let mut snaps = Vec::new();
        for op in ops {
            match op {
                Op::Connect(id) => {
                    if connected.contains(&id) {
                        continue; // session ids are unique in the world
                    }
                    let outcome = s.try_connect(now, id, id, None);
                    if connected.len() < max {
                        assert_eq!(outcome, ConnectOutcome::Accepted);
                        connected.insert(id);
                    } else {
                        assert_eq!(outcome, ConnectOutcome::Refused);
                    }
                }
                Op::Disconnect(id) => {
                    let was = s.disconnect(id).is_some();
                    assert_eq!(was, connected.remove(&id));
                }
                Op::HeardFrom(id) => {
                    let known = s.heard_from(now, id);
                    assert_eq!(known, connected.contains(&id));
                }
                Op::Tick => {
                    s.tick(now, &mut snaps);
                    for &(session, size) in &snaps {
                        assert!(connected.contains(&session));
                        assert!(size >= 8);
                    }
                }
                Op::Sweep => {
                    for slot in s.sweep_timeouts(now) {
                        assert!(connected.remove(&slot.session));
                        assert!(now.saturating_since(slot.last_heard) > SimDuration::from_secs(15));
                    }
                }
                Op::Advance(ms) => now += SimDuration::from_millis(ms),
                Op::MapChange(begin) => {
                    if begin {
                        s.begin_map_change();
                        s.tick(now, &mut snaps);
                        assert!(snaps.is_empty());
                    } else {
                        s.end_map_change();
                    }
                }
            }
            assert!(s.player_count() <= max);
            assert_eq!(s.player_count(), connected.len());
        }
    });
}

/// Packet-size models respect their physical bounds for any seed and any
/// plausible player count / activity.
#[test]
fn size_models_bounded() {
    check("size_models_bounded", 128, |g| {
        let seed = g.u64();
        let players = g.usize_in(0..32);
        let activity = g.f64_in(0.0..4.0);
        let server = ServerConfig::default();
        let workload = WorkloadConfig::default();
        let mut rng = RngStream::new(seed);
        let noise = packets::snapshot_noise(&server, activity);
        let cmd_sizes = packets::cmd_size_dist(&workload);
        for _ in 0..50 {
            let snap = packets::snapshot_size(&server, players, &noise, &mut rng);
            assert!(snap >= 8 && snap <= server.max_snapshot as u32);
            let cmd = packets::cmd_size(&cmd_sizes, &mut rng);
            assert!((28..=64).contains(&cmd));
        }
    });
}

/// The population process: unique ids are dense (0..n), repeats never mint
/// ids, and draws never return an id that was never minted.
#[test]
fn population_ids_dense() {
    check("population_ids_dense", 128, |g| {
        let seed = g.u64();
        let theta = g.f64_in(0.5..1e4);
        let n = g.usize_in(1..500);
        let mut p = Population::new(theta);
        let mut rng = RngStream::new(seed);
        let mut max_id = 0;
        for _ in 0..n {
            let id = p.draw(&mut rng);
            assert!(id <= max_id.max(p.unique_clients().saturating_sub(1)));
            max_id = max_id.max(id);
        }
        assert_eq!(p.total_arrivals(), n);
        assert!(p.unique_clients() as usize <= n);
        assert!(u64::from(max_id) < u64::from(p.unique_clients()));
    });
}

/// Session durations always respect the configured clamp.
#[test]
fn durations_clamped() {
    check("durations_clamped", 128, |g| {
        let w = WorkloadConfig::default();
        let mut rng = RngStream::new(g.u64());
        for _ in 0..100 {
            let d = csprov_game::session::session_duration(&w, &mut rng);
            assert!(d >= w.session_range.0 && d <= w.session_range.1);
        }
    });
}
