//! Configuration for the Counter-Strike workload model.
//!
//! Defaults are calibrated so a long run reproduces the paper's aggregate
//! statistics (Tables I–III): ~18 concurrent players on a 22-slot server,
//! ~438 inbound / ~361 outbound packets per second, 40 B mean inbound and
//! ~130 B mean outbound application payloads, ~16 k established sessions
//! per week. Every constant that embodies a paper-visible mechanism is a
//! field here so the ablation benches can vary it.

use csprov_net::LinkClass;
use csprov_sim::SimDuration;

/// Game-server parameters (the `server.cfg` of the model).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulation tick — the server broadcasts state every tick (paper: 50 ms).
    pub tick: SimDuration,
    /// Player slots (the studied server ran 22).
    pub max_players: usize,
    /// Map rotation period (paper: 30 min).
    pub map_time: SimDuration,
    /// Server stall while loading a new map, uniform in this range; traffic
    /// in both directions pauses (the Figure 9 dips).
    pub map_change_stall: (SimDuration, SimDuration),
    /// A client not heard for this long stops receiving snapshots (the
    /// game-freeze coupling the NAT experiment exposes).
    pub snapshot_timeout: SimDuration,
    /// A client not heard for this long is disconnected.
    pub disconnect_timeout: SimDuration,
    /// Snapshot payload model: `base + per_player·n + Exp(noise_mean)`,
    /// clamped to `max_snapshot` bytes.
    pub snapshot_base: f64,
    /// Per-visible-player delta bytes in a snapshot.
    pub snapshot_per_player: f64,
    /// Mean of the exponential event-burst component of snapshot size.
    pub snapshot_noise_mean: f64,
    /// Snapshot payload cap in bytes.
    pub max_snapshot: f64,
    /// Content-download rate limit at the server, packets per second
    /// (Section II: "downloads are rate-limited at the server").
    pub download_rate_pps: f64,
    /// Download chunk payload size in bytes.
    pub download_chunk: u32,
    /// Round length, uniform in this range (several minutes per Section II).
    pub round_length: (SimDuration, SimDuration),
    /// Freeze time between rounds (buy period — traffic continues but the
    /// world is quiet, shrinking snapshot noise).
    pub round_freeze: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tick: SimDuration::from_millis(50),
            max_players: 22,
            map_time: SimDuration::from_mins(30),
            map_change_stall: (SimDuration::from_secs(4), SimDuration::from_secs(10)),
            snapshot_timeout: SimDuration::from_secs(2),
            disconnect_timeout: SimDuration::from_secs(15),
            snapshot_base: 14.0,
            snapshot_per_player: 5.1,
            snapshot_noise_mean: 17.0,
            max_snapshot: 480.0,
            download_rate_pps: 24.0,
            download_chunk: 330,
            round_length: (SimDuration::from_secs(105), SimDuration::from_mins(5)),
            round_freeze: SimDuration::from_secs(8),
        }
    }
}

/// Player-population and client-behaviour parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Base connection-attempt rate, per second (diurnally modulated).
    pub arrival_rate: f64,
    /// Relative amplitude of the diurnal modulation in `[0, 1)`. The studied
    /// server drew worldwide traffic, so the default is mild.
    pub diurnal_amplitude: f64,
    /// Hour of (simulated) day at which arrivals peak.
    pub diurnal_peak_hour: f64,
    /// Chinese-restaurant-process concentration: higher means more arrivals
    /// are first-time clients. Calibrated against Table I's unique-client
    /// counts.
    pub population_theta: f64,
    /// Mean of the log-normal session duration.
    pub session_mean: SimDuration,
    /// Shape (sigma of the underlying normal) of the session duration.
    pub session_sigma: f64,
    /// Bounds on session duration.
    pub session_range: (SimDuration, SimDuration),
    /// Probability a refused client retries (drives Table I's
    /// attempted-vs-established gap).
    pub retry_prob: f64,
    /// Retry back-off, uniform in this range.
    pub retry_delay: (SimDuration, SimDuration),
    /// Mean client command rate, packets per second.
    pub cmd_rate_mean: f64,
    /// Standard deviation of the per-client command rate.
    pub cmd_rate_std: f64,
    /// Bounds on the per-client command rate.
    pub cmd_rate_range: (f64, f64),
    /// Mean client command payload, bytes (paper Table III: 39.72 B, with an
    /// "extremely narrow distribution" — Figure 12).
    pub cmd_size_mean: f64,
    /// Standard deviation of command payload size.
    pub cmd_size_std: f64,
    /// Fraction of clients with cranked-up update rates on fast links
    /// (the Figure 11 tail above the 56 kbps barrier).
    pub l337_fraction: f64,
    /// Snapshot rate requested by cranked clients, Hz (normal clients get
    /// one snapshot per tick).
    pub l337_update_rate: f64,
    /// Command rate used by cranked clients, Hz.
    pub l337_cmd_rate: f64,
    /// Access-link mix for ordinary clients, as `(class, weight)`.
    pub link_mix: Vec<(LinkClass, f64)>,
    /// Per-client text-chat rate, messages per second.
    pub text_rate: f64,
    /// Fraction of clients that use voice.
    pub voice_fraction: f64,
    /// Voice talk-spurt rate per talking client, spurts per second.
    pub voice_spurt_rate: f64,
    /// Packets per talk spurt.
    pub voice_spurt_packets: u32,
    /// Voice packet payload bytes.
    pub voice_packet_size: u32,
    /// Fraction of joining clients that download map content.
    pub download_fraction: f64,
    /// Downloaded content size range, bytes.
    pub download_size: (u32, u32),
    /// Fraction of joining clients that upload a custom logo.
    pub logo_fraction: f64,
    /// Logo size range, bytes.
    pub logo_size: (u32, u32),
    /// Server-browser probe rate, probes per second (sessionless traffic).
    pub probe_rate: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            arrival_rate: 0.0302,
            diurnal_amplitude: 0.30,
            diurnal_peak_hour: 20.0,
            population_theta: 3500.0,
            session_mean: SimDuration::from_secs(720),
            session_sigma: 1.05,
            session_range: (SimDuration::from_secs(25), SimDuration::from_hours(4)),
            retry_prob: 0.80,
            retry_delay: (SimDuration::from_secs(8), SimDuration::from_secs(90)),
            cmd_rate_mean: 23.6,
            cmd_rate_std: 3.0,
            cmd_rate_range: (15.0, 33.0),
            cmd_size_mean: 39.7,
            cmd_size_std: 4.5,
            l337_fraction: 0.02,
            l337_update_rate: 42.0,
            l337_cmd_rate: 50.0,
            link_mix: vec![
                (LinkClass::Modem56k, 0.62),
                (LinkClass::Isdn128k, 0.10),
                (LinkClass::Dsl, 0.16),
                (LinkClass::Cable, 0.09),
                (LinkClass::Lan, 0.03),
            ],
            text_rate: 1.0 / 150.0,
            voice_fraction: 0.25,
            voice_spurt_rate: 1.0 / 45.0,
            voice_spurt_packets: 40,
            voice_packet_size: 46,
            download_fraction: 0.06,
            download_size: (40_000, 400_000),
            logo_fraction: 0.30,
            logo_size: (4_000, 16_000),
            probe_rate: 0.8,
        }
    }
}

/// A scheduled network outage (the trace saw three: Apr 12, 14, 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageSpec {
    /// Outage start, as an offset from trace start.
    pub start: SimDuration,
    /// Outage length (the paper's were "on the order of seconds").
    pub length: SimDuration,
}

/// A complete scenario: everything needed to regenerate a trace.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Root RNG seed; a scenario is a pure function of this config.
    pub seed: u64,
    /// Trace duration (the paper's trace: 626,477 s ≈ 7.25 days).
    pub duration: SimDuration,
    /// Server parameters.
    pub server: ServerConfig,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Network outages to inject.
    pub outages: Vec<OutageSpec>,
    /// Sessions started immediately at t = 0, so the trace begins with a
    /// busy server — the paper recorded "after a brief warm-up period".
    pub initial_players: usize,
}

/// The paper's trace length in seconds.
pub const PAPER_TRACE_SECS: u64 = 626_477;

impl ScenarioConfig {
    /// The calibrated default scenario at a given duration.
    pub fn new(seed: u64, duration: SimDuration) -> Self {
        ScenarioConfig {
            seed,
            duration,
            server: ServerConfig::default(),
            workload: WorkloadConfig::default(),
            outages: Vec::new(),
            initial_players: 18,
        }
    }

    /// The full-week scenario matching the paper: 626,477 s with three
    /// brief outages placed where the paper saw them (days 1, 3 and 6).
    pub fn paper_week(seed: u64) -> Self {
        let mut cfg = Self::new(seed, SimDuration::from_secs(PAPER_TRACE_SECS));
        cfg.outages = vec![
            OutageSpec {
                start: SimDuration::from_hours(27),
                length: SimDuration::from_secs(8),
            },
            OutageSpec {
                start: SimDuration::from_hours(76),
                length: SimDuration::from_secs(12),
            },
            OutageSpec {
                start: SimDuration::from_hours(146),
                length: SimDuration::from_secs(6),
            },
        ];
        cfg
    }

    /// A scaled-down scenario for tests and quick repro runs: same rates,
    /// shorter horizon, outages dropped if they fall outside it.
    pub fn scaled(seed: u64, duration: SimDuration) -> Self {
        let mut cfg = Self::paper_week(seed);
        cfg.outages.retain(|o| o.start + o.length < duration);
        cfg.duration = duration;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_headline_constants() {
        let s = ServerConfig::default();
        assert_eq!(s.tick, SimDuration::from_millis(50));
        assert_eq!(s.max_players, 22);
        assert_eq!(s.map_time, SimDuration::from_mins(30));
    }

    #[test]
    fn link_mix_weights_sum_to_one() {
        let w = WorkloadConfig::default();
        let sum: f64 = w.link_mix.iter().map(|&(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn paper_week_has_three_outages_inside_trace() {
        let cfg = ScenarioConfig::paper_week(1);
        assert_eq!(cfg.outages.len(), 3);
        for o in &cfg.outages {
            assert!(o.start + o.length < cfg.duration);
        }
        assert_eq!(cfg.duration.as_secs(), PAPER_TRACE_SECS);
    }

    #[test]
    fn scaled_drops_out_of_range_outages() {
        let cfg = ScenarioConfig::scaled(1, SimDuration::from_hours(2));
        assert!(cfg.outages.is_empty());
        let cfg = ScenarioConfig::scaled(1, SimDuration::from_hours(30));
        assert_eq!(cfg.outages.len(), 1);
    }

    #[test]
    fn expected_rates_consistent_with_paper() {
        // Mean players ≈ established-rate × mean-session must sit near 18
        // for the packet-rate targets to land; the defaults encode an
        // acceptance ratio of roughly 2/3 (Table I: 16030 of 24004).
        let w = WorkloadConfig::default();
        // `arrival_rate` counts only first attempts; retries raise the
        // weekly attempt total towards Table I's 24,004. With roughly 70%
        // of all attempts accepted, occupancy must sit near 18 of 22 slots.
        let weekly_first_attempts = w.arrival_rate * 626_477.0;
        assert!(
            (15_000.0..23_000.0).contains(&weekly_first_attempts),
            "weekly first attempts {weekly_first_attempts}"
        );
        let occupancy = 16_030.0 / 626_477.0 * w.session_mean.as_secs_f64();
        assert!(
            (15.0..21.0).contains(&occupancy),
            "implied occupancy {occupancy}"
        );
        // Implied inbound pps at ~18 players should be near Table II's 437.
        let pps = 18.0 * w.cmd_rate_mean;
        assert!((390.0..480.0).contains(&pps), "implied inbound pps {pps}");
    }
}
