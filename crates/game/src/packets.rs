//! Packet payload-size models.
//!
//! Section II of the paper enumerates the traffic sources; Figures 12/13
//! show their size signatures: inbound command packets have an "extremely
//! narrow distribution centered around the mean size of 40 bytes"; outbound
//! snapshots are wider, spread over 0–300 bytes with a ~130 B mean that
//! grows with the number of players whose state must be broadcast.

use crate::config::{ServerConfig, WorkloadConfig};
use csprov_sim::dist::{clamp, Exp, Normal, Sample};
use csprov_sim::{round_to_u64, RngStream};

/// The client command payload-size distribution. A command stream builds
/// it once and draws every size from it with [`cmd_size`].
pub fn cmd_size_dist(w: &WorkloadConfig) -> Normal {
    Normal::new(w.cmd_size_mean, w.cmd_size_std)
}

/// Draws a client command payload size in bytes from `sizes`, the
/// workload's [`cmd_size_dist`].
pub fn cmd_size(sizes: &Normal, rng: &mut RngStream) -> u32 {
    // Rounding then clamping to whole bounds; a negative draw rounds to
    // 0 and clamps up, as it would in floating point.
    round_to_u64(sizes.sample(rng)).clamp(28, 64) as u32
}

/// The event-noise component of snapshot sizes at world activity
/// `activity`, which scales it (quiet during round freezes, high
/// mid-firefight). Activity is constant within a server tick, so a tick
/// builds it once for all its snapshots.
pub fn snapshot_noise(s: &ServerConfig, activity: f64) -> Exp {
    Exp::new(1.0 / (s.snapshot_noise_mean * activity).max(1.0))
}

/// Draws a server snapshot payload size for a world with `players` active
/// players, its event noise drawn from `noise` ([`snapshot_noise`]).
pub fn snapshot_size(s: &ServerConfig, players: usize, noise: &Exp, rng: &mut RngStream) -> u32 {
    let raw = s.snapshot_base + s.snapshot_per_player * players as f64 + noise.sample(rng);
    // `round_to_u64` is `raw.round()` for every `raw >= 0`, and `raw` is at
    // least `snapshot_base`, which is positive. (A negative or NaN `raw`
    // would round to 0 here and to at most 0 there; both clamp up to 8.)
    clamp(round_to_u64(raw) as f64, 8.0, s.max_snapshot) as u32
}

/// Connection request payload (client → server "connect" + auth ticket).
pub fn connect_request_size(rng: &mut RngStream) -> u32 {
    rng.next_range(20, 48) as u32
}

/// Connection reply payload; acceptance carries the server state digest,
/// refusal is a terse "server is full".
pub fn connect_reply_size(accepted: bool, rng: &mut RngStream) -> u32 {
    if accepted {
        rng.next_range(120, 400) as u32
    } else {
        rng.next_range(12, 24) as u32
    }
}

/// Text chat message payload.
pub fn text_size(rng: &mut RngStream) -> u32 {
    // Short human messages, heavier near the low end.
    let d = Normal::new(38.0, 18.0);
    clamp(d.sample(rng).round(), 12.0, 140.0) as u32
}

/// Server-browser probe payloads: `(query, response)`.
pub fn probe_sizes(rng: &mut RngStream) -> (u32, u32) {
    (rng.next_range(9, 25) as u32, rng.next_range(90, 350) as u32)
}

/// Disconnect notification payload.
pub fn disconnect_size(rng: &mut RngStream) -> u32 {
    rng.next_range(8, 20) as u32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::new(99)
    }

    /// A snapshot size as drawn before the tick built its noise once: an
    /// `Exp` per draw, and `f64::round`.
    pub(crate) fn per_draw_snapshot_size(
        s: &ServerConfig,
        players: usize,
        activity: f64,
        rng: &mut RngStream,
    ) -> u32 {
        let noise = Exp::new(1.0 / (s.snapshot_noise_mean * activity).max(1.0)).sample(rng);
        let raw = s.snapshot_base + s.snapshot_per_player * players as f64 + noise;
        clamp(raw.round(), 8.0, s.max_snapshot) as u32
    }

    #[test]
    fn hoisted_noise_and_whole_rounding_match_the_per_draw_model() {
        // 23 player counts x 23 activities x 1,900 draws: over 10^6.
        let s = ServerConfig::default();
        let (mut a, mut b) = (rng(), rng());
        for players in 0..=22 {
            for step in 0..=22u32 {
                let activity = 0.35 + 0.05 * f64::from(step);
                let noise = snapshot_noise(&s, activity);
                for _ in 0..1_900 {
                    assert_eq!(
                        snapshot_size(&s, players, &noise, &mut a),
                        per_draw_snapshot_size(&s, players, activity, &mut b),
                        "{players} players at activity {activity}"
                    );
                }
            }
        }
    }

    #[test]
    fn cmd_sizes_match_table3_target() {
        let d = cmd_size_dist(&WorkloadConfig::default());
        let mut r = rng();
        let n = 100_000;
        let sizes: Vec<u32> = (0..n).map(|_| cmd_size(&d, &mut r)).collect();
        let mean = sizes.iter().map(|&s| f64::from(s)).sum::<f64>() / n as f64;
        // Paper Table III: 39.72 B mean inbound.
        assert!((mean - 39.3).abs() < 1.0, "mean = {mean}");
        // Narrow distribution: nearly everything within 60 B (Figure 13:
        // "almost all of the incoming packets are smaller than 60 bytes").
        let under_60 = sizes.iter().filter(|&&s| s < 60).count() as f64 / n as f64;
        assert!(under_60 > 0.99, "frac under 60 B = {under_60}");
    }

    #[test]
    fn snapshot_sizes_scale_with_players_and_match_mean() {
        let s = ServerConfig::default();
        let mut r = rng();
        let n = 100_000;
        let noise = snapshot_noise(&s, 1.0);
        let mean_at = |players: usize, r: &mut RngStream| {
            (0..n)
                .map(|_| f64::from(snapshot_size(&s, players, &noise, r)))
                .sum::<f64>()
                / n as f64
        };
        let m18 = mean_at(18, &mut r);
        let m4 = mean_at(4, &mut r);
        // At activity 1.0 the model gives ~123 B at 18 players; round
        // activity (mean ≈ 1.15) lifts the trace-level mean to Table III's
        // 129.51 B.
        assert!((m18 - 122.8).abs() < 3.0, "mean at 18 players = {m18}");
        assert!(m18 > m4 + 50.0, "snapshots must grow with player count");
    }

    #[test]
    fn snapshot_sizes_clamped() {
        let s = ServerConfig::default();
        let mut r = rng();
        let noise = snapshot_noise(&s, 3.0);
        for _ in 0..100_000 {
            let size = snapshot_size(&s, 22, &noise, &mut r);
            assert!(size >= 8 && size <= s.max_snapshot as u32);
        }
    }

    #[test]
    fn snapshot_activity_scales_noise() {
        let s = ServerConfig::default();
        let mut r = rng();
        let n = 50_000;
        let mean = |act: f64, r: &mut RngStream| {
            let noise = snapshot_noise(&s, act);
            (0..n)
                .map(|_| f64::from(snapshot_size(&s, 18, &noise, r)))
                .sum::<f64>()
                / n as f64
        };
        assert!(mean(2.0, &mut r) > mean(0.3, &mut r) + 10.0);
    }

    #[test]
    fn reply_sizes_differ_by_outcome() {
        let mut r = rng();
        for _ in 0..1000 {
            let acc = connect_reply_size(true, &mut r);
            let refu = connect_reply_size(false, &mut r);
            assert!((120..=400).contains(&acc));
            assert!((12..=24).contains(&refu));
        }
    }

    #[test]
    fn small_control_packets_bounded() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!((20..=48).contains(&connect_request_size(&mut r)));
            assert!((8..=20).contains(&disconnect_size(&mut r)));
            let (q, resp) = probe_sizes(&mut r);
            assert!((9..=25).contains(&q));
            assert!((90..=350).contains(&resp));
            let t = text_size(&mut r);
            assert!((12..=140).contains(&t));
        }
    }
}
