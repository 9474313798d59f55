//! Cross-crate integration: the simulated trace must be self-consistent
//! across every path it can take — live analysis, the compact binary
//! format, and pcap — and the analyzers must agree with each other.

use csprov::pipeline::{FullAnalysis, MainRun};
use csprov_game::ScenarioConfig;
use csprov_net::{
    pcap::{PcapReader, PcapWriter},
    CountingSink, Direction, PacketKind, TraceReader, TraceRecord, TraceSink, TraceWriter,
};
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A sink that captures the first N records verbatim while counting all.
struct Capture {
    counts: CountingSink,
    head: Vec<TraceRecord>,
    cap: usize,
}

impl TraceSink for Capture {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.counts.on_packet(rec);
        if self.head.len() < self.cap {
            self.head.push(*rec);
        }
    }
    fn on_end(&mut self, end: SimTime) {
        self.counts.on_end(end);
    }
}

fn captured_run() -> Capture {
    let cfg = ScenarioConfig::new(1001, SimDuration::from_mins(5));
    let sink = Rc::new(RefCell::new(Capture {
        counts: CountingSink::new(),
        head: Vec::new(),
        cap: 50_000,
    }));
    let _outcome = csprov_game::World::run(cfg, sink.clone());
    Rc::try_unwrap(sink).map_err(|_| ()).unwrap().into_inner()
}

#[test]
fn binary_format_roundtrips_real_traffic() {
    let capture = captured_run();
    assert!(capture.head.len() >= 10_000, "expected a busy trace");

    let mut w = TraceWriter::new(Vec::new()).unwrap();
    for r in &capture.head {
        w.write(r).unwrap();
    }
    let bytes = w.finish().unwrap();

    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let mut back = Vec::new();
    while let Some(r) = reader.read().unwrap() {
        back.push(r);
    }
    assert_eq!(back, capture.head);
}

#[test]
fn pcap_roundtrips_real_traffic() {
    let capture = captured_run();
    // pcap has microsecond timestamps; quantize expectations accordingly.
    let slice = &capture.head[..2_000];
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for r in slice {
        w.write(r).unwrap();
    }
    let bytes = w.finish().unwrap();

    let mut reader = PcapReader::new(&bytes[..]).unwrap();
    let mut n = 0;
    while let Some(r) = reader.read().unwrap() {
        let orig = &slice[n];
        assert_eq!(r.direction, orig.direction);
        assert_eq!(r.kind, orig.kind);
        assert_eq!(r.session, orig.session);
        assert_eq!(r.app_len, orig.app_len);
        assert_eq!(r.time.as_nanos() / 1_000, orig.time.as_nanos() / 1_000);
        n += 1;
    }
    assert_eq!(n, slice.len());
}

#[test]
fn trace_is_time_ordered_and_kinds_are_plausible() {
    let capture = captured_run();
    let mut last = SimTime::ZERO;
    let mut kinds = std::collections::HashSet::new();
    for r in &capture.head {
        assert!(r.time >= last, "trace must be non-decreasing in time");
        last = r.time;
        kinds.insert(r.kind);
    }
    // The busy server exercises the protocol surface.
    for k in [
        PacketKind::ClientCommand,
        PacketKind::StateUpdate,
        PacketKind::ConnectRequest,
        PacketKind::ConnectReply,
    ] {
        assert!(kinds.contains(&k), "missing kind {k:?}");
    }
}

#[test]
fn analyzers_agree_with_each_other() {
    let run = MainRun::execute(ScenarioConfig::new(1002, SimDuration::from_mins(6)));
    let a = &run.analysis;

    // Totals: counting sink vs per-minute series vs flow table (flows skip
    // sessionless probes, so they form a lower bound that must be close).
    let series_packets: u64 = a.per_minute.bins().iter().map(|b| b.packets).sum();
    assert_eq!(series_packets, a.counts.total_packets());
    let flow_packets: u64 = a
        .flows
        .iter()
        .map(|(_, f)| f.packets[0] + f.packets[1])
        .sum();
    assert!(flow_packets <= a.counts.total_packets());
    assert!(
        flow_packets as f64 > a.counts.total_packets() as f64 * 0.98,
        "probes are ~1 pps of ~800"
    );

    // Size histogram totals match packet counts per direction.
    assert_eq!(
        a.sizes.total(Direction::Inbound),
        a.counts.packets_in(Direction::Inbound)
    );
    assert_eq!(
        a.sizes.total(Direction::Outbound),
        a.counts.packets_in(Direction::Outbound)
    );

    // Mean sizes agree between histogram and byte counters (histogram
    // pools >500 B in overflow; virtually nothing is that large).
    let mean_from_counts = a.counts.app_bytes_in(Direction::Inbound) as f64
        / a.counts.packets_in(Direction::Inbound) as f64;
    assert!((a.sizes.mean(Direction::Inbound) - mean_from_counts).abs() < 0.5);
}

#[test]
fn replay_reproduces_live_analysis() {
    // Write the head slice to the binary format, replay it into a fresh
    // analyzer, and compare against analyzing the same records live.
    let capture = captured_run();
    let slice = &capture.head;
    let end = slice.last().unwrap().time;

    let mut live = FullAnalysis::new(SimDuration::from_mins(5));
    for r in slice {
        live.on_packet(r);
    }
    live.on_end(end);

    let mut w = TraceWriter::new(Vec::new()).unwrap();
    for r in slice {
        w.write(r).unwrap();
    }
    let bytes = w.finish().unwrap();
    // A replay is a read loop, as in `cstrace`.
    let mut replayed = FullAnalysis::new(SimDuration::from_mins(5));
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let mut last = SimTime::ZERO;
    while let Some(rec) = reader.read().unwrap() {
        last = rec.time;
        replayed.on_packet(&rec);
    }
    replayed.on_end(last);
    assert_eq!(last, end);

    assert_eq!(live.counts.total_packets(), replayed.counts.total_packets());
    assert_eq!(
        live.counts.total_wire_bytes(),
        replayed.counts.total_wire_bytes()
    );
    assert_eq!(live.per_minute.bins(), replayed.per_minute.bins());
    assert_eq!(
        live.sizes.pdf(Direction::Outbound),
        replayed.sizes.pdf(Direction::Outbound)
    );
}

#[test]
fn outage_causes_player_dip_and_recovery() {
    let mut cfg = ScenarioConfig::new(1003, SimDuration::from_mins(40));
    cfg.outages = vec![csprov_game::OutageSpec {
        start: SimDuration::from_mins(15),
        length: SimDuration::from_secs(8),
    }];
    let run = MainRun::execute(cfg);
    let players = &run.outcome.players_per_minute;
    // Minute ~16 should show the crash (the outage disconnects everyone);
    // the tail should show the recovery the paper describes.
    let before = players[13];
    let during = *players[15..18].iter().min().unwrap();
    let after = *players[25..].iter().max().unwrap();
    assert!(before >= 12, "server was busy before: {before}");
    // The per-minute metric counts *distinct players seen*, and ~40% of
    // dropped players reconnect within seconds, so the dip is visible but
    // not total (exactly the paper's Figure 3 shape).
    assert!(
        (during as f64) <= before as f64 * 0.75,
        "outage must dent the count: {during} vs {before}"
    );
    assert!(after >= 10, "population must recover: {after}");
}
