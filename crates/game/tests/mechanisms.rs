//! Mechanism-level integration tests for the game world: each test drives
//! one traffic source the paper's Section II enumerates and asserts its
//! observable signature in the trace.

use csprov_game::{GameMetrics, OutageSpec, ScenarioConfig, World, WorldInstruments};
use csprov_net::{CountingSink, Direction, PacketKind, TraceRecord, TraceSink};
use csprov_obs::MetricsRegistry;
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Collects per-kind counts and per-kind per-second peaks.
#[derive(Default)]
struct KindStats {
    counts: BTreeMap<u8, u64>,
    bytes: BTreeMap<u8, u64>,
    download_seconds: BTreeMap<u64, u64>,
    end: SimTime,
}

impl TraceSink for KindStats {
    fn on_packet(&mut self, rec: &TraceRecord) {
        *self.counts.entry(rec.kind.as_u8()).or_default() += 1;
        *self.bytes.entry(rec.kind.as_u8()).or_default() += u64::from(rec.app_len);
        if rec.kind == PacketKind::DownloadData {
            *self.download_seconds.entry(rec.time.as_secs()).or_default() += 1;
        }
    }
    fn on_end(&mut self, end: SimTime) {
        self.end = end;
    }
}

fn run_with(cfg: ScenarioConfig) -> KindStats {
    let sink = Rc::new(RefCell::new(KindStats::default()));
    World::run(cfg, sink.clone());
    Rc::try_unwrap(sink).map_err(|_| ()).unwrap().into_inner()
}

fn kind_count(s: &KindStats, k: PacketKind) -> u64 {
    s.counts.get(&k.as_u8()).copied().unwrap_or(0)
}

#[test]
fn downloads_respect_the_server_rate_limit() {
    // Crank the download fraction so several downloads overlap; the shared
    // token bucket must cap the *aggregate* DownloadData rate (Section II:
    // "these downloads are rate-limited at the server").
    let mut cfg = ScenarioConfig::new(401, SimDuration::from_mins(12));
    cfg.workload.download_fraction = 0.8;
    cfg.workload.download_size = (300_000, 900_000);
    let limit = cfg.server.download_rate_pps;
    let stats = run_with(cfg);
    assert!(
        kind_count(&stats, PacketKind::DownloadData) > 1_000,
        "downloads must actually flow"
    );
    let peak = stats.download_seconds.values().copied().max().unwrap();
    // Token bucket: rate plus one bucket of burst per second at most.
    assert!(
        (peak as f64) <= limit * 2.0 + 1.0,
        "download peak {peak} pps exceeds the {limit} pps limiter"
    );
}

#[test]
fn voice_and_text_are_minor_inbound_sources() {
    let cfg = ScenarioConfig::new(402, SimDuration::from_mins(15));
    let stats = run_with(cfg);
    let voice = kind_count(&stats, PacketKind::Voice);
    let text = kind_count(&stats, PacketKind::TextChat);
    let cmd = kind_count(&stats, PacketKind::ClientCommand);
    assert!(voice > 0, "voice users must talk");
    assert!(text > 0, "someone must type");
    // The paper's dominant source is real-time state traffic; chatter is a
    // few percent at most.
    assert!(
        voice + text < cmd / 10,
        "chatter {voice}+{text} vs cmd {cmd}"
    );
}

#[test]
fn logo_uploads_happen_on_join() {
    let mut cfg = ScenarioConfig::new(403, SimDuration::from_mins(10));
    cfg.workload.logo_fraction = 1.0;
    let stats = run_with(cfg);
    let uploads = kind_count(&stats, PacketKind::UploadData);
    assert!(uploads > 100, "every joiner uploads a logo: {uploads}");
    // Logos are 4-16 KB in ~250 B chunks.
    let mean = stats.bytes[&PacketKind::UploadData.as_u8()] as f64 / uploads as f64;
    assert!((150.0..=251.0).contains(&mean), "chunk mean {mean}");
}

#[test]
fn l337_clients_raise_server_update_rate() {
    // With every client cranked, outbound pps per player rises from the
    // 20 Hz tick toward the configured custom rate.
    let mut base = ScenarioConfig::new(404, SimDuration::from_mins(6));
    base.workload.l337_fraction = 0.0;
    let plain = Rc::new(RefCell::new(CountingSink::new()));
    let out_plain = World::run(base, plain.clone());

    let mut cranked = ScenarioConfig::new(404, SimDuration::from_mins(6));
    cranked.workload.l337_fraction = 1.0;
    let fast = Rc::new(RefCell::new(CountingSink::new()));
    let out_fast = World::run(cranked, fast.clone());

    let per_player =
        |c: &CountingSink, players: f64| c.packets_in(Direction::Outbound) as f64 / 360.0 / players;
    let plain_rate = per_player(&plain.borrow(), out_plain.mean_players);
    let fast_rate = per_player(&fast.borrow(), out_fast.mean_players);
    assert!(
        fast_rate > plain_rate * 1.6,
        "cranked update rates must show: {fast_rate:.1} vs {plain_rate:.1} snapshots/s/player"
    );
}

#[test]
fn map_changes_pause_both_directions() {
    let mut cfg = ScenarioConfig::new(405, SimDuration::from_mins(33));
    // Long deterministic stall for a clear window.
    cfg.server.map_change_stall = (SimDuration::from_secs(8), SimDuration::from_secs(8));
    struct PerSecond {
        counts: Vec<u64>,
    }
    impl TraceSink for PerSecond {
        fn on_packet(&mut self, rec: &TraceRecord) {
            let s = rec.time.as_secs() as usize;
            if self.counts.len() <= s {
                self.counts.resize(s + 1, 0);
            }
            self.counts[s] += 1;
        }
    }
    let sink = Rc::new(RefCell::new(PerSecond { counts: Vec::new() }));
    World::run(cfg, sink.clone());
    let counts = &sink.borrow().counts;
    // The map change starts at t = 1800 s; seconds 1802..1806 sit fully
    // inside the stall.
    let busy_before: u64 = counts[1700..1760].iter().sum::<u64>() / 60;
    let stalled: u64 = counts[1802..1806].iter().sum::<u64>() / 4;
    assert!(
        busy_before > 400,
        "server busy before change: {busy_before}"
    );
    assert!(
        stalled < busy_before / 10,
        "stall must silence traffic: {stalled} vs {busy_before}"
    );
}

#[test]
fn timed_out_players_leave_the_player_count() {
    // A 60 s outage outlasts the 15 s disconnect timeout, so the sweep
    // evicts all 12 players at 75 s. The time-averaged count must include
    // their 75 s on the server, and the `game.players` gauge must drop
    // with them to the players actually still connected.
    let mut cfg = ScenarioConfig::new(7, SimDuration::from_mins(5));
    cfg.initial_players = 12;
    cfg.outages = vec![OutageSpec {
        start: SimDuration::from_secs(60),
        length: SimDuration::from_secs(60),
    }];
    let registry = MetricsRegistry::new();
    let instruments = WorldInstruments {
        metrics: Some(GameMetrics::register(&registry)),
        ..WorldInstruments::default()
    };
    let sink = Rc::new(RefCell::new(CountingSink::new()));
    let outcome = World::run_instrumented(cfg, sink, None, instruments);
    let swept_at = SimTime::from_secs(75);
    let swept = outcome
        .sessions
        .iter()
        .filter(|s| s.established && s.end == Some(swept_at))
        .count();
    assert!(
        swept >= 12,
        "every initial player is swept at 75 s: {swept}"
    );
    let connected = outcome
        .sessions
        .iter()
        .filter(|s| s.established && s.end.is_none())
        .count();
    assert_eq!(
        registry.gauge("game.players").get(),
        connected as i64,
        "the gauge follows the sweep"
    );
    // The session log's player-seconds, which count from the connection
    // attempt rather than the accept: at most a link delay per session.
    let horizon = SimTime::ZERO + outcome.duration;
    let player_secs: f64 = outcome
        .sessions
        .iter()
        .filter(|s| s.established)
        .map(|s| (s.end.unwrap_or(horizon) - s.start).as_secs_f64())
        .sum();
    let expected = player_secs / outcome.duration.as_secs_f64();
    assert!(
        expected > 2.5,
        "the swept players held the server: {expected}"
    );
    assert!(
        (outcome.mean_players - expected).abs() < 0.05,
        "mean players {} vs the session log's {expected}",
        outcome.mean_players
    );
}
