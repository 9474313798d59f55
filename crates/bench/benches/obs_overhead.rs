//! Overhead guard for the observability layer.
//!
//! Each pair runs the same hot path with instrumentation detached (the
//! default — every metric hook is an `Option` that stays `None`) and
//! attached, so the delta is the full price of the obs layer on that path.
//! EXPERIMENTS.md records the measured overhead; the budget is <2%.

use csprov_bench::harness::{black_box, Harness, Throughput};
use csprov_net::{client_endpoint, server_endpoint, Direction, Packet, PacketKind};
use csprov_obs::{BroadcastBus, BusEvent, Journal, MetricsRegistry, Profile, TraceEvent};
use csprov_router::{EngineConfig, ForwardingEngine, NatDevice, NatTaps};
use csprov_sim::{Pacer, SimDuration, SimTime, Simulator, Speed, StopFlag};
use std::cell::Cell;
use std::rc::Rc;

/// What rides along on the kernel workload. `Plain` is also the
/// "hooks compiled but unused" case: the observer list stays empty, so the
/// guard budget covers the one branch the list adds to every step.
enum KernelObs {
    Plain,
    Observed,
    Journaled,
    PacedNoSleep,
    Profiled,
}

/// The kernel workload from the `sim_kernel` bench: 5 periodic processes,
/// 100k events, optionally with a progress-style observer or a trace
/// journal attached at the stride `repro` uses.
fn run_kernel(obs: KernelObs) -> u64 {
    let mut sim = Simulator::new();
    for i in 0..5u64 {
        csprov_sim::spawn_periodic(
            &mut sim,
            SimTime::from_nanos(i),
            SimDuration::from_micros(50),
            StopFlag::new(),
            |_, _| {},
        );
    }
    let _frame = match obs {
        KernelObs::Plain => None,
        KernelObs::Observed => {
            let last = Rc::new(Cell::new(0u64));
            let sink = last.clone();
            sim.add_observer(
                8192,
                Box::new(move |s: &Simulator| sink.set(s.events_executed())),
            );
            None
        }
        // The journal observer runs at stride 1 (it checks for scheduler
        // overflow on every event) and samples dispatch every 8192.
        KernelObs::Journaled => {
            let (every, tap) = csprov_sim::journal_observer(8192, Journal::new());
            sim.add_observer(every, tap);
            None
        }
        // A paced speed's pacer, as `--speed N` installs it: a stride-1
        // observer that consults the wall clock once per quantum of
        // virtual time. The multiplier is high enough that it never
        // sleeps, so the row prices the pacing hook without the naps.
        KernelObs::PacedNoSleep => {
            let (every, pacer) = Pacer::new(Speed::Times(1e12)).into_observer();
            sim.add_observer(every, pacer);
            None
        }
        // `--profile-out`'s price on the dispatch loop: one wall-time
        // frame around the whole run, as `World::run_instrumented` opens it.
        KernelObs::Profiled => Some(Profile::new().enter("sim.dispatch")),
    };
    sim.run_until(SimTime::from_secs(1));
    sim.events_executed()
}

fn bench_sim_kernel(h: &mut Harness) {
    let mut g = h.group("obs_sim_kernel");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("periodic_100k_plain", |b| {
        b.iter(|| black_box(run_kernel(KernelObs::Plain)))
    });
    g.bench_function("periodic_100k_observed", |b| {
        b.iter(|| black_box(run_kernel(KernelObs::Observed)))
    });
    g.bench_function("periodic_100k_journaled", |b| {
        b.iter(|| black_box(run_kernel(KernelObs::Journaled)))
    });
    g.bench_function("periodic_100k_paced_nosleep", |b| {
        b.iter(|| black_box(run_kernel(KernelObs::PacedNoSleep)))
    });
    g.bench_function("periodic_100k_profiled", |b| {
        b.iter(|| black_box(run_kernel(KernelObs::Profiled)))
    });
    g.finish();
}

/// Publishes 1M trace events into a fresh bus with `subs` attached
/// subscribers that never drain: after each queue fills (capacity 1024),
/// every further publish takes the drop-and-count path — the worst case
/// the sim thread can see from slow consumers.
fn run_bus_publish(subs: usize) -> u64 {
    let bus = BroadcastBus::new();
    let _subscribers: Vec<_> = (0..subs).map(|_| bus.subscribe(1024)).collect();
    for i in 0..1_000_000u64 {
        bus.publish(BusEvent::Trace(TraceEvent {
            sim_ns: i,
            kind: "bench.publish",
            key: i,
            value: i,
        }));
    }
    bus.stats().published
}

fn bench_serve_bus(h: &mut Harness) {
    let mut g = h.group("serve_bus");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("bus_publish_1m_0sub", |b| {
        b.iter(|| black_box(run_bus_publish(0)))
    });
    g.bench_function("bus_publish_1m_1sub", |b| {
        b.iter(|| black_box(run_bus_publish(1)))
    });
    g.bench_function("bus_publish_1m_8sub", |b| {
        b.iter(|| black_box(run_bus_publish(8)))
    });
    g.finish();
}

/// The NAT forwarding workload from the `router` bench, optionally with the
/// engine's stats reporting into `router.engine.*` registry totals.
fn run_forward(registry: Option<&MetricsRegistry>) -> u64 {
    let mut sim = Simulator::new();
    let engine = ForwardingEngine::new(EngineConfig {
        lookup_time: SimDuration::from_micros(1),
        wan_queue: 64,
        lan_queue: 64,
        ..EngineConfig::default()
    });
    if let Some(registry) = registry {
        engine.stats().report_to(registry);
    }
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
    engine.stats().forwarded[0].get()
}

fn bench_router_forwarding(h: &mut Harness) {
    let registry = MetricsRegistry::new();
    let mut g = h.group("obs_router_forward");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("engine_forward_10k_plain", |b| {
        b.iter(|| black_box(run_forward(None)))
    });
    g.bench_function("engine_forward_10k_metrics", |b| {
        b.iter(|| black_box(run_forward(Some(&registry))))
    });
    g.finish();
}

/// The NAT device path (table touch + forward), with and without a trace
/// journal receiving `router.nat.*` events. 10k packets over 64 sessions:
/// mostly `Existing` touches, so the journaled run measures the
/// per-packet check plus occasional emits — the shape of a real run.
fn run_nat_forward(journal: Option<&Journal>) -> u64 {
    let mut sim = Simulator::new();
    let device = Rc::new(NatDevice::new(
        EngineConfig {
            lookup_time: SimDuration::from_micros(1),
            wan_queue: 64,
            lan_queue: 64,
            ..EngineConfig::default()
        },
        NatTaps::default(),
    ));
    if let Some(j) = journal {
        device.attach_journal(j.clone());
    }
    for i in 0..10_000u64 {
        let device2 = device.clone();
        let session = (i % 64) as u32;
        sim.schedule_at(SimTime::from_micros(i * 2), move |sim| {
            let pkt = Packet {
                src: client_endpoint(session),
                dst: server_endpoint(),
                app_len: 40,
                kind: PacketKind::ClientCommand,
                session,
                direction: Direction::Inbound,
                sent_at: sim.now(),
            };
            csprov_game::Middlebox::forward(&*device2, sim, pkt, Box::new(|_, _| {}));
        });
    }
    sim.run();
    device.stats().forwarded[0].get()
}

fn bench_nat_journal(h: &mut Harness) {
    let journal = Journal::new();
    let mut g = h.group("obs_nat_journal");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("nat_forward_10k_plain", |b| {
        b.iter(|| black_box(run_nat_forward(None)))
    });
    g.bench_function("nat_forward_10k_journaled", |b| {
        b.iter(|| black_box(run_nat_forward(Some(&journal))))
    });
    g.finish();
}

/// Raw cost of the primitives themselves, for context on the path deltas.
fn bench_primitives(h: &mut Harness) {
    let registry = MetricsRegistry::new();
    let mut g = h.group("obs_primitives");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("counter_incr_1m", |b| {
        let c = registry.counter("bench.counter");
        b.iter(|| {
            for _ in 0..1_000_000 {
                c.incr();
            }
            black_box(c.get())
        })
    });
    g.bench_function("histogram_record_1m", |b| {
        let hist = registry.histogram("bench.histogram");
        b.iter(|| {
            for i in 0..1_000_000u64 {
                hist.record(i);
            }
            black_box(hist.snapshot().count())
        })
    });
    g.bench_function("journal_emit_1m", |b| {
        // Capacity 1M: every emit lands in storage (the fast path). The
        // journal is reused across samples via `clear()` — steady-state emit
        // into retained chunks is the cost a long run pays; allocating and
        // faulting in ~32 MB of fresh pages per sample would measure the
        // host allocator, not the emit path.
        let j = Journal::with_capacity(1 << 20);
        b.iter(|| {
            j.clear();
            for i in 0..1_000_000u64 {
                j.emit(i, "bench.emit", i, i);
            }
            black_box(j.len())
        })
    });
    g.bench_function("profile_enter_exit_1m", |b| {
        // Raw price of one profiler frame: enter + drop-guard exit,
        // two `Instant::now()` reads plus the node-tree touch.
        let profile = Profile::new();
        b.iter(|| {
            for _ in 0..1_000_000u64 {
                let _scope = profile.enter("bench.frame");
            }
            black_box(profile.enters())
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_sim_kernel(&mut h);
    bench_router_forwarding(&mut h);
    bench_nat_journal(&mut h);
    bench_primitives(&mut h);
    bench_serve_bus(&mut h);
}
