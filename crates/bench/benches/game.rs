//! Benchmarks for the game workload model: end-to-end simulated seconds
//! per wall second, plus the per-packet size models.

use csprov_bench::harness::{black_box, Harness, Throughput};
use csprov_game::{packets, Population, ScenarioConfig, ServerConfig, WorkloadConfig, World};
use csprov_net::NullSink;
use csprov_sim::{RngStream, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

fn bench_world(h: &mut Harness) {
    let mut g = h.group("world");
    g.sample_size(10);
    // One simulated minute of the busy server (~48k packets).
    g.throughput(Throughput::Elements(48_000));
    g.bench_function("simulate_60s_busy_server", |b| {
        b.iter(|| {
            let cfg = ScenarioConfig::new(5, SimDuration::from_secs(60));
            let sink = Rc::new(RefCell::new(NullSink));
            let out = World::run(cfg, sink);
            black_box(out.events_executed)
        })
    });
    g.finish();
}

fn bench_size_models(h: &mut Harness) {
    let mut g = h.group("size_models");
    g.throughput(Throughput::Elements(100_000));
    let server = ServerConfig::default();
    let workload = WorkloadConfig::default();
    g.bench_function("snapshot_size_100k", |b| {
        let mut rng = RngStream::new(6);
        let noise = packets::snapshot_noise(&server, 1.0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc += u64::from(packets::snapshot_size(&server, 18, &noise, &mut rng));
            }
            black_box(acc)
        })
    });
    g.bench_function("cmd_size_100k", |b| {
        let mut rng = RngStream::new(7);
        let sizes = packets::cmd_size_dist(&workload);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc += u64::from(packets::cmd_size(&sizes, &mut rng));
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_population(h: &mut Harness) {
    let mut g = h.group("population");
    g.throughput(Throughput::Elements(24_004));
    g.bench_function("crp_draw_week_of_arrivals", |b| {
        b.iter(|| {
            let mut p = Population::new(4400.0);
            let mut rng = RngStream::new(8);
            for _ in 0..24_004 {
                black_box(p.draw(&mut rng));
            }
            black_box(p.unique_clients())
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_world(&mut h);
    bench_size_models(&mut h);
    bench_population(&mut h);
}
