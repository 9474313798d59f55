//! Benchmarks for the routing substrate: LPM lookups, route-cache policies
//! (the §IV-B comparison at speed), and the NAT forwarding path.

use csprov_bench::harness::{black_box, Harness, Throughput};
use csprov_net::{client_endpoint, server_endpoint, Direction, Packet, PacketKind};
use csprov_router::{
    simulate_cache, CachePolicy, EngineConfig, ForwardingEngine, NatTable, NextHop, RouteTable,
};
use csprov_sim::{RngStream, SimDuration, SimTime, Simulator};
use std::net::Ipv4Addr;

fn routing_table() -> RouteTable {
    let mut t = RouteTable::new();
    t.insert(Ipv4Addr::new(0, 0, 0, 0), 0, NextHop(0));
    for a in 1..=200u8 {
        t.insert(Ipv4Addr::new(a, 0, 0, 0), 8, NextHop(u32::from(a)));
        t.insert(Ipv4Addr::new(a, 64, 0, 0), 16, NextHop(1000 + u32::from(a)));
        t.insert(
            Ipv4Addr::new(a, 64, 32, 0),
            24,
            NextHop(2000 + u32::from(a)),
        );
    }
    t
}

fn bench_lpm(h: &mut Harness) {
    let table = routing_table();
    let mut rng = RngStream::new(1);
    let addrs: Vec<Ipv4Addr> = (0..10_000)
        .map(|_| {
            Ipv4Addr::new(
                (1 + rng.next_below(200)) as u8,
                rng.next_below(128) as u8,
                rng.next_below(64) as u8,
                1,
            )
        })
        .collect();
    let mut g = h.group("route_table");
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("lpm_lookup_10k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &a in &addrs {
                let (hop, cost) = table.lookup(a);
                acc = acc
                    .wrapping_add(hop.map(|h| h.0).unwrap_or(0))
                    .wrapping_add(cost);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_cache_policies(h: &mut Harness) {
    let table = routing_table();
    let mut g = h.group("route_cache");
    g.throughput(Throughput::Elements(50_000));
    for policy in CachePolicy::ALL {
        g.bench_function(&format!("{policy:?}_mixed_50k"), |b| {
            b.iter(|| {
                let mut rng = RngStream::new(2);
                let stream = (0..50_000u32).map(move |i| {
                    if i % 5 != 0 {
                        (
                            Ipv4Addr::new(10, 64, 32, (rng.next_below(20) + 1) as u8),
                            40u32,
                        )
                    } else {
                        (
                            Ipv4Addr::new(
                                (1 + rng.next_below(200)) as u8,
                                rng.next_below(128) as u8,
                                1,
                                1,
                            ),
                            1200u32,
                        )
                    }
                });
                black_box(simulate_cache(&table, policy, 24, stream).hit_rate)
            })
        });
    }
    g.finish();
}

fn bench_nat_path(h: &mut Harness) {
    let mut g = h.group("nat");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("engine_forward_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            let engine = ForwardingEngine::new(EngineConfig {
                lookup_time: SimDuration::from_micros(1),
                wan_queue: 64,
                lan_queue: 64,
                ..EngineConfig::default()
            });
            // Paced arrivals so the queue never overflows.
            for i in 0..10_000u64 {
                let engine2 = engine.clone();
                sim.schedule_at(SimTime::from_micros(i * 2), move |sim| {
                    let pkt = Packet {
                        src: client_endpoint(1),
                        dst: server_endpoint(),
                        app_len: 40,
                        kind: PacketKind::ClientCommand,
                        session: 1,
                        direction: Direction::Inbound,
                        sent_at: sim.now(),
                    };
                    engine2.submit(sim, pkt, Box::new(|_, _| {}));
                });
            }
            sim.run();
            black_box(engine.stats().forwarded[0].get())
        })
    });
    g.bench_function("nat_table_touch_10k", |b| {
        b.iter(|| {
            let mut t = NatTable::new(SimDuration::from_secs(300), 4096);
            let mut acc = 0u32;
            for i in 0..10_000u32 {
                if let Some(p) = t.touch(i % 500, SimTime::from_micros(u64::from(i))) {
                    acc = acc.wrapping_add(u32::from(p));
                }
            }
            black_box((acc, t.len()))
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_lpm(&mut h);
    bench_cache_policies(&mut h);
    bench_nat_path(&mut h);
}
