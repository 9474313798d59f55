//! Serving-plane integration: the live HTTP plane is observe-only.
//!
//! `csprov-serve` watches a run through rendered snapshots and a broadcast
//! bus tapped off the journal. Nothing a subscriber does — attaching in
//! bulk, reading slowly, or not reading at all — may change a seeded run's
//! artifacts or stall the sim thread. These tests pin that boundary from
//! the outside: full scenario runs with the plane attached versus plain.

use csprov::pipeline::MainRun;
use csprov_game::{GameMetrics, ScenarioConfig, WorldInstruments};
use csprov_obs::{BroadcastBus, BusEvent, BusSubscriber, Journal, Json, MetricsRegistry};
use csprov_serve::{serve, sse, ServeShared};
use csprov_sim::{Pacer, SimDuration, Speed};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(seed, SimDuration::from_mins(3))
}

/// One short run with a journal attached; returns the run and its journal.
fn run_with_journal(seed: u64, bus: Option<&BroadcastBus>, speed: Speed) -> (MainRun, Journal) {
    let registry = MetricsRegistry::new();
    let journal = Journal::new();
    if let Some(bus) = bus {
        journal.set_tap(bus.clone());
    }
    let instruments = WorldInstruments {
        metrics: Some(GameMetrics::register(&registry)),
        registry: Some(registry.clone()),
        observers: speed
            .is_paced()
            .then(|| Pacer::new(speed).into_observer())
            .into_iter()
            .collect(),
        journal: Some(journal.clone()),
        profile: None,
    };
    let run = MainRun::execute_instrumented(scenario(seed), instruments);
    (run, journal)
}

#[test]
fn artifacts_are_byte_identical_with_the_serving_plane_attached() {
    // Plain baseline: journal only, nothing listening.
    let (plain, plain_journal) = run_with_journal(41, None, Speed::Max);

    // Served run: a live HTTP server, the journal tapped into the bus, and
    // fifty subscribers with tiny queues that are never drained — the
    // worst-behaved audience the plane can have.
    let shared = Arc::new(ServeShared::new(BroadcastBus::new()));
    let mut handle = serve("127.0.0.1:0", shared.clone()).expect("bind loopback");
    let subscribers: Vec<BusSubscriber> = (0..50).map(|_| shared.bus().subscribe(4)).collect();
    let (served, served_journal) = run_with_journal(41, Some(shared.bus()), Speed::Max);

    assert_eq!(
        plain_journal.export_jsonl(),
        served_journal.export_jsonl(),
        "the journal must not notice its tap"
    );
    assert_eq!(
        plain.analysis.counts.total_packets(),
        served.analysis.counts.total_packets()
    );
    assert_eq!(
        plain.analysis.per_minute.bins(),
        served.analysis.per_minute.bins()
    );
    assert_eq!(
        plain.outcome.events_executed,
        served.outcome.events_executed
    );

    // The plane saw the run: everything was published, and the undrained
    // queues overflowed into drop counters instead of backpressure.
    let stats = shared.bus().stats();
    assert_eq!(stats.subscribers, 50);
    assert_eq!(stats.published, served_journal.len() as u64);
    assert!(stats.dropped > 0, "tiny queues must have dropped");
    drop(subscribers);
    handle.shutdown();
}

#[test]
fn sse_streams_the_journal_live_over_tcp() {
    let shared = Arc::new(ServeShared::new(BroadcastBus::new()));
    let mut handle = serve("127.0.0.1:0", shared.clone()).expect("bind loopback");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(stream, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    // Wait for the schema frame so the subscription exists before emitting.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut seen = String::new();
    while !seen.contains("\n\n") || !seen.contains("schema") {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
        seen.push_str(&line);
    }

    // Journal emits flow through the tap onto the wire unchanged.
    let journal = Journal::new();
    journal.set_tap(shared.bus().clone());
    shared.bus().publish(BusEvent::RunStarted {
        label: "main".into(),
        horizon_ns: 180_000_000_000,
    });
    journal.emit(1_000, "game.tick.begin", 7, 1);
    journal.emit(2_000, "router.nat.insert", 8, 2);
    std::thread::sleep(Duration::from_millis(100));
    shared.request_shutdown();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain stream");
    seen.push_str(&rest);

    let body = seen.split_once("\r\n\r\n").expect("header split").1;
    let frames = sse::parse_frames(body);
    assert!(frames.len() >= 4, "got {frames:?}");
    assert_eq!(frames[0].event, "schema");
    assert_eq!(frames[1].event, "run-started");
    assert_eq!(frames[2].event, "trace");
    assert_eq!(frames[3].event, "trace");
    // SSE trace frames carry exactly the journal's JSONL event shape.
    let wire = Json::parse(&frames[2].data).expect("trace frame parses");
    assert_eq!(wire.get("sim_ns").and_then(Json::as_f64), Some(1_000.0));
    assert_eq!(
        wire.get("kind").and_then(Json::as_str),
        Some("game.tick.begin")
    );
    let jsonl = journal.export_jsonl();
    let stored = jsonl
        .lines()
        .find(|l| l.contains("game.tick.begin"))
        .expect("journal stored the event");
    assert_eq!(frames[2].data, stored, "wire and stored bytes agree");
    handle.shutdown();
}

#[test]
fn slow_subscribers_never_stall_the_sim_thread() {
    // Fifty undrained capacity-4 subscribers: if publish blocked on full
    // queues, a 3-minute scenario (hundreds of thousands of journal
    // events) would hang. Completing within a generous wall bound proves
    // the drop-and-count path, and the drop totals account for every
    // event that didn't fit.
    let bus = BroadcastBus::new();
    let subscribers: Vec<BusSubscriber> = (0..50).map(|_| bus.subscribe(4)).collect();
    let t0 = Instant::now();
    let (_, journal) = run_with_journal(42, Some(&bus), Speed::Max);
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(60),
        "publish must never block: took {wall:?}"
    );
    let stats = bus.stats();
    assert_eq!(stats.published, journal.len() as u64);
    assert!(stats.dropped >= stats.published.saturating_sub(4) * 49);
    for sub in &subscribers {
        assert!(sub.depth() <= 4, "bounded queue grew past its capacity");
    }
}

#[test]
fn paced_replay_is_byte_identical_to_max_speed() {
    // `--speed` changes when events run on the wall clock, never what they
    // compute: a heavily fast-forwarded paced run must equal the unpaced
    // one bit for bit.
    let (max, max_journal) = run_with_journal(43, None, Speed::Max);
    let (paced, paced_journal) = run_with_journal(43, None, Speed::Times(1_000_000.0));
    assert_eq!(max.outcome.events_executed, paced.outcome.events_executed);
    assert_eq!(
        max.analysis.counts.total_packets(),
        paced.analysis.counts.total_packets()
    );
    assert_eq!(
        max.analysis.per_minute.bins(),
        paced.analysis.per_minute.bins()
    );
    assert_eq!(max_journal.export_jsonl(), paced_journal.export_jsonl());
}
