//! Property-based tests for the network substrate: wire formats must
//! round-trip arbitrary field values, checksums must catch corruption, and
//! both trace formats must be lossless (up to documented quantization).

use csprov_net::pcap::{parse_frame, synthesize_frame, PcapReader, PcapWriter};
use csprov_net::wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, UdpDatagram, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN, UDP_HEADER_LEN,
};
use csprov_net::{Direction, MacAddr, PacketKind, TraceReader, TraceRecord, TraceWriter};
use csprov_sim::check::{check, Gen};
use csprov_sim::SimTime;
use std::net::Ipv4Addr;

fn gen_direction(g: &mut Gen) -> Direction {
    if g.bool() {
        Direction::Inbound
    } else {
        Direction::Outbound
    }
}

fn gen_kind(g: &mut Gen) -> PacketKind {
    PacketKind::from_u8(g.u8_in(0..12)).unwrap()
}

fn gen_record(g: &mut Gen) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_nanos(g.u64_in(0..10_u64.pow(15))),
        direction: gen_direction(g),
        kind: gen_kind(g),
        session: if g.bool() {
            g.u32_in(0..100_000)
        } else {
            u32::MAX
        },
        app_len: g.u32_in(0..1_400),
    }
}

/// Ethernet header round-trips arbitrary addresses and ethertypes.
#[test]
fn ethernet_roundtrip() {
    check("ethernet_roundtrip", 128, |g| {
        let dst: [u8; 6] = g.byte_array();
        let src: [u8; 6] = g.byte_array();
        let ethertype = g.u16();
        let payload_len = g.usize_in(0..100);
        let mut buf = vec![0u8; ETHERNET_HEADER_LEN + payload_len];
        let mut f = EthernetFrame::new_unchecked(&mut buf[..]);
        f.set_dst_addr(MacAddr(dst));
        f.set_src_addr(MacAddr(src));
        f.set_ethertype(EtherType::from(ethertype));
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.dst_addr(), MacAddr(dst));
        assert_eq!(f.src_addr(), MacAddr(src));
        assert_eq!(u16::from(f.ethertype()), ethertype);
        assert_eq!(f.payload().len(), payload_len);
    });
}

/// IPv4 header round-trips and its checksum always verifies as built.
#[test]
fn ipv4_roundtrip() {
    check("ipv4_roundtrip", 128, |g| {
        let src = g.u32();
        let dst = g.u32();
        let ident = g.u16();
        let ttl = g.u8();
        let proto = g.u8();
        let payload_len = g.usize_in(0..256);
        let total = IPV4_HEADER_LEN + payload_len;
        let mut buf = vec![0u8; total];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.init(total as u16);
        p.set_ident(ident);
        p.set_ttl(ttl);
        p.set_protocol(IpProtocol::from(proto));
        p.set_src_addr(Ipv4Addr::from(src));
        p.set_dst_addr(Ipv4Addr::from(dst));
        p.fill_checksum();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(p.ident(), ident);
        assert_eq!(p.ttl(), ttl);
        assert_eq!(u8::from(p.protocol()), proto);
        assert_eq!(p.src_addr(), Ipv4Addr::from(src));
        assert_eq!(p.dst_addr(), Ipv4Addr::from(dst));
    });
}

/// Any single-bit flip in the IPv4 header is caught by its checksum.
#[test]
fn ipv4_checksum_catches_any_header_bit_flip() {
    check("ipv4_checksum_catches_any_header_bit_flip", 256, |g| {
        let src = g.u32();
        let dst = g.u32();
        let bit = g.usize_in(0..IPV4_HEADER_LEN * 8);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.init(IPV4_HEADER_LEN as u16);
        p.set_ttl(64);
        p.set_protocol(IpProtocol::Udp);
        p.set_src_addr(Ipv4Addr::from(src));
        p.set_dst_addr(Ipv4Addr::from(dst));
        p.fill_checksum();
        buf[bit / 8] ^= 1 << (bit % 8);
        let p = Ipv4Packet::new_unchecked(&buf[..]);
        assert!(!p.verify_checksum(), "bit {bit} flip undetected");
    });
}

/// UDP datagrams round-trip with valid checksums for arbitrary payloads.
#[test]
fn udp_roundtrip() {
    check("udp_roundtrip", 128, |g| {
        let sport = g.u16();
        let dport = g.u16();
        let src = g.u32();
        let dst = g.u32();
        let payload = g.bytes(0..300);
        let total = UDP_HEADER_LEN + payload.len();
        let mut buf = vec![0u8; total];
        let mut d = UdpDatagram::new_unchecked(&mut buf[..]);
        d.set_src_port(sport);
        d.set_dst_port(dport);
        d.set_len(total as u16);
        d.payload_mut().copy_from_slice(&payload);
        let (s, t) = (Ipv4Addr::from(src), Ipv4Addr::from(dst));
        d.fill_checksum(s, t);
        let d = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum(s, t));
        assert_eq!(d.src_port(), sport);
        assert_eq!(d.dst_port(), dport);
        assert_eq!(d.payload(), &payload[..]);
    });
}

/// Any single-byte corruption of a UDP datagram is caught.
#[test]
fn udp_checksum_catches_byte_corruption() {
    check("udp_checksum_catches_byte_corruption", 256, |g| {
        let payload = g.bytes(1..100);
        let pos_seed = g.usize();
        let flip = g.u64_in(1..256) as u8;
        let total = UDP_HEADER_LEN + payload.len();
        let mut buf = vec![0u8; total];
        let mut d = UdpDatagram::new_unchecked(&mut buf[..]);
        d.set_src_port(27005);
        d.set_dst_port(27015);
        d.set_len(total as u16);
        d.payload_mut().copy_from_slice(&payload);
        let (s, t) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 168, 69, 1));
        d.fill_checksum(s, t);
        // Corrupt one byte anywhere except the length field (that would be
        // a parse error, a different detection path).
        let mut pos = pos_seed % total;
        if pos == 4 || pos == 5 {
            pos = 0;
        }
        buf[pos] ^= flip;
        let d = UdpDatagram::new_unchecked(&buf[..]);
        // One's-complement sums have a known blind spot: 0x0000 vs 0xffff
        // words. The RFC 768 zero-means-uncomputed rule also exempts a
        // checksum field corrupted to zero.
        if d.checksum() != 0 {
            let survives = d.verify_checksum(s, t);
            // A flip of value and its complement in the same 16-bit word is
            // the only undetectable single-byte change; it cannot happen
            // for a single XOR flip of a non-zero pattern.
            assert!(!survives, "corruption at {pos} undetected");
        }
    });
}

/// The compact binary trace format is lossless.
#[test]
fn trace_format_roundtrip() {
    check("trace_format_roundtrip", 128, |g| {
        let records = g.vec_with(0..100, gen_record);
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.time);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in &sorted {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(r) = reader.read().unwrap() {
            back.push(r);
        }
        assert_eq!(back, sorted);
    });
}

/// pcap frames round-trip every field (time at microsecond grain; session
/// ids within the 24-bit address space or the sentinel).
#[test]
fn pcap_frame_roundtrip() {
    check("pcap_frame_roundtrip", 256, |g| {
        let rec = gen_record(g);
        if rec.session != u32::MAX && rec.session >= (1 << 24) {
            return;
        }
        let frame = synthesize_frame(&rec);
        let t_us = SimTime::from_nanos(rec.time.as_nanos() / 1_000 * 1_000);
        let back = parse_frame(&frame, t_us).unwrap();
        assert_eq!(back.direction, rec.direction);
        assert_eq!(back.session, rec.session);
        assert_eq!(back.app_len, rec.app_len);
        if rec.app_len > 0 {
            assert_eq!(back.kind, rec.kind);
        }
    });
}

/// A pcap file of many frames reads back in order and in full.
#[test]
fn pcap_file_roundtrip() {
    check("pcap_file_roundtrip", 128, |g| {
        let records = g.vec_with(1..50, gen_record);
        let mut sorted: Vec<TraceRecord> = records
            .into_iter()
            .filter(|r| r.session == u32::MAX || r.session < (1 << 24))
            .collect();
        sorted.sort_by_key(|r| r.time);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &sorted {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        let mut n = 0;
        while let Some(r) = reader.read().unwrap() {
            assert_eq!(r.session, sorted[n].session);
            assert_eq!(r.app_len, sorted[n].app_len);
            n += 1;
        }
        assert_eq!(n, sorted.len());
    });
}

// ---------------------------------------------------------------------------
// Fault-injection properties.
// ---------------------------------------------------------------------------

use csprov_net::{
    client_endpoint, server_endpoint, BurstLoss, DuplicateConfig, Fate, FaultConfig, FaultInjector,
    Packet, RateLimit, ReorderConfig,
};
use csprov_sim::{RngStream, SimDuration};

fn gen_packet(g: &mut Gen, session: u32, dir: Direction, at: SimTime) -> Packet {
    let (src, dst) = match dir {
        Direction::Inbound => (client_endpoint(session), server_endpoint()),
        Direction::Outbound => (server_endpoint(), client_endpoint(session)),
    };
    Packet {
        src,
        dst,
        app_len: g.u32_in(0..1_400),
        kind: gen_kind(g),
        session,
        direction: dir,
        sent_at: at,
    }
}

fn gen_fault_config(g: &mut Gen) -> FaultConfig {
    FaultConfig {
        drop_chance: if g.bool() { g.f64_in(0.0..0.4) } else { 0.0 },
        corrupt_chance: if g.bool() { g.f64_in(0.0..0.1) } else { 0.0 },
        rate_limit: g.bool().then(|| RateLimit {
            burst: g.f64_in(1.0..50.0),
            packets_per_sec: g.f64_in(10.0..5_000.0),
        }),
        burst_loss: g.bool().then(|| BurstLoss {
            p_enter: g.f64_in(0.0..0.3),
            p_exit: g.f64_in(0.05..0.9),
            loss_good: g.f64_in(0.0..0.05),
            loss_bad: g.f64_in(0.1..1.0),
        }),
        reorder: g.bool().then(|| ReorderConfig {
            chance: g.f64_in(0.0..0.3),
            delay_min: SimDuration::from_millis(g.u64_in(0..5)),
            delay_max: SimDuration::from_millis(g.u64_in(5..80)),
        }),
        duplicate: g.bool().then(|| DuplicateConfig {
            chance: g.f64_in(0.0..0.2),
            delay_min: SimDuration::from_millis(g.u64_in(0..3)),
            delay_max: SimDuration::from_millis(g.u64_in(3..20)),
        }),
    }
}

/// The all-zero config is a provable no-op: every fate is `Deliver`, and —
/// the stronger property the byte-identity of chaos-free runs rests on —
/// the injector consumes not a single RNG draw while deciding.
#[test]
fn zeroed_injector_is_a_noop_and_draws_no_rng() {
    check("zeroed_injector_noop", 128, |g| {
        let seed = g.u64();
        let mut inj = FaultInjector::new(FaultConfig::default(), RngStream::new(seed));
        let n = g.usize_in(1..200);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            now += SimDuration::from_micros(g.u64_in(0..100_000));
            let dir = gen_direction(g);
            let pkt = gen_packet(g, i as u32, dir, now);
            assert!(matches!(inj.decide(now, &pkt), Fate::Deliver));
        }
        let stats = inj.stats();
        assert_eq!(stats.offered.get(), n as u64);
        assert_eq!(stats.passed.get(), n as u64);
        assert!(stats.conservation_holds());
        // Zero draws consumed: the surviving stream is bit-identical to a
        // fresh stream with the same seed.
        let mut survived = inj.into_rng();
        let mut fresh = RngStream::new(seed);
        for _ in 0..16 {
            assert_eq!(survived.next_u64_raw(), fresh.next_u64_raw());
        }
    });
}

/// Every offered packet gets exactly one fate, whatever the config: the
/// conservation identity holds over arbitrary impairment stacks.
#[test]
fn arbitrary_configs_conserve_packets() {
    check("fault_conservation", 96, |g| {
        let config = gen_fault_config(g);
        let mut inj = FaultInjector::new(config, RngStream::new(g.u64()));
        let n = g.usize_in(1..300);
        let mut now = SimTime::ZERO;
        let (mut fates_deliver, mut fates_late, mut fates_dup, mut fates_drop) = (0u64, 0, 0, 0);
        for i in 0..n {
            now += SimDuration::from_micros(g.u64_in(1..50_000));
            let dir = gen_direction(g);
            let pkt = gen_packet(g, i as u32, dir, now);
            match inj.decide(now, &pkt) {
                Fate::Deliver => fates_deliver += 1,
                Fate::DeliverDelayed(_) => fates_late += 1,
                Fate::Duplicate(_) => fates_dup += 1,
                Fate::Drop(_) => fates_drop += 1,
            }
        }
        let stats = inj.stats();
        assert_eq!(stats.offered.get(), n as u64);
        assert!(stats.conservation_holds(), "stats: {stats:?}");
        // The counters agree with the fates the caller saw.
        assert_eq!(stats.passed.get(), fates_deliver);
        assert_eq!(stats.reordered.get(), fates_late);
        assert_eq!(stats.duplicated.get(), fates_dup);
        assert_eq!(stats.dropped_total(), fates_drop);
        assert_eq!(stats.delivered(), fates_deliver + fates_late + fates_dup);
    });
}

// ---------------------------------------------------------------------------
// Access-link queue properties.
// ---------------------------------------------------------------------------

use csprov_net::{Link, LinkConfig};
use csprov_sim::Simulator;
use std::cell::RefCell;
use std::rc::Rc;

/// The drop-tail link queue by brute force: a packet is admitted iff fewer
/// than `limit` earlier admitted packets have a serialization end at or
/// after now, and it departs at `max(last end, now) + tx`.
struct ReferenceQueue {
    limit: usize,
    ends: Vec<SimTime>,
}

impl ReferenceQueue {
    /// Offers a packet; returns its departure time, or `None` if dropped.
    fn offer(&mut self, now: SimTime, tx: SimDuration) -> Option<SimTime> {
        let queued = self.ends.iter().filter(|&&end| end >= now).count();
        if queued >= self.limit {
            return None;
        }
        let depart = self.ends.last().map_or(now, |&end| end.max(now)) + tx;
        self.ends.push(depart);
        Some(depart)
    }
}

/// On lossless, jitter-free links, every drop decision and arrival time
/// matches the brute-force queue, ties at a serialization end included.
#[test]
fn link_admission_matches_brute_force_reference() {
    check("link_admission_matches_brute_force_reference", 128, |g| {
        let config = LinkConfig {
            bandwidth_bps: g.f64_in(20_000.0..2_000_000.0),
            propagation: SimDuration::from_micros(g.u64_in(0..50_000)),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            queue_limit: g.usize_in(1..9),
        };
        let link = Link::new(config.clone(), RngStream::new(g.u64()));
        let mut reference = ReferenceQueue {
            limit: config.queue_limit,
            ends: Vec::new(),
        };
        let mut sim = Simulator::new();
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let mut expected = Vec::new();
        let mut sent_at = Vec::new();
        let n = g.usize_in(1..200);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            // Bias send times toward the instants that decide admission:
            // exactly at, or just after, an earlier packet's end.
            let end = match reference.ends.len() {
                0 => None,
                len => Some(reference.ends[g.usize_in(0..len)]).filter(|&end| end >= now),
            };
            now = match (g.u8_in(0..4), end) {
                (0, Some(end)) => end,
                (1, Some(end)) => end + SimDuration::from_nanos(1),
                (2, _) => now,
                _ => now + SimDuration::from_micros(g.u64_in(0..20_000)),
            };
            let pkt = gen_packet(g, i as u32, Direction::Inbound, now);
            let depart = reference.offer(now, config.tx_time(pkt.wire_len()));
            expected.push(depart.map(|depart| depart + config.propagation));
            sent_at.push(now);
            let (link, arrivals) = (link.clone(), arrivals.clone());
            // Offer at `now`; an admitted packet is delivered at its
            // arrival, where the arrival is counted.
            sim.schedule_at(now, move |sim| {
                if let Some(at) = link.admit(sim.now(), pkt.wire_len()) {
                    let stats = link.stats();
                    sim.schedule_at(at, move |sim| {
                        stats.arrived();
                        arrivals.borrow_mut().push((i, sim.now()));
                    });
                }
            });
        }
        // Stop at a random instant before the drain: every offer and
        // arrival strictly before it has run, and the stats conserve.
        let last = expected.iter().flatten().chain(&sent_at).max().copied();
        let horizon = last.unwrap_or(SimTime::ZERO).as_nanos();
        let stop = SimTime::from_nanos(g.u64_in(0..horizon + 1));
        sim.run_until(stop);
        let stats = link.stats();
        let before = |t: &SimTime| *t < stop;
        let offered = sent_at.iter().filter(|t| before(t)).count() as u64;
        let mut in_flight = 0;
        let mut delivered = 0;
        for (sent, arrival) in sent_at.iter().zip(&expected) {
            match arrival {
                Some(at) if before(at) => delivered += 1,
                Some(_) if before(sent) => in_flight += 1,
                _ => {}
            }
        }
        assert_eq!(stats.offered.get(), offered);
        assert_eq!(stats.delivered.get(), delivered);
        assert_eq!(stats.in_flight.get(), in_flight);
        assert_eq!(
            stats.offered.get(),
            stats.delivered.get()
                + stats.dropped_queue.get()
                + stats.dropped_random.get()
                + u64::try_from(stats.in_flight.get()).expect("non-negative"),
        );

        sim.run();
        let mut got = vec![None; n];
        for &(i, at) in arrivals.borrow().iter() {
            got[i] = Some(at);
        }
        assert_eq!(got, expected);
        let admitted = expected.iter().flatten().count() as u64;
        assert_eq!(stats.offered.get(), n as u64);
        assert_eq!(stats.delivered.get(), admitted);
        assert_eq!(stats.dropped_queue.get(), n as u64 - admitted);
        assert_eq!(stats.dropped_random.get(), 0);
        assert_eq!(stats.in_flight.get(), 0);
    });
}
