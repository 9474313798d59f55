//! The forwarding-engine model: a route-lookup CPU behind small queues.
//!
//! This is the mechanism Section IV of the paper identifies: a commodity
//! NAT/router is limited by *route-lookup rate* (the SMC Barricade is rated
//! 1000–1500 packets per second), not link bandwidth, so a game server's
//! 50 ms bursts of tiny packets overwhelm it while a bulk TCP transfer of
//! the same bit-rate would not.
//!
//! The model: one CPU serving packets in arrival order at a fixed per-packet
//! lookup time, fed by two direction-specific drop-tail queues (WAN→LAN =
//! inbound toward the server, LAN→WAN = outbound toward the clients). Loss
//! is emergent: the server's tick burst monopolizes the CPU and the small
//! WAN-side queue overflows — exactly the paper's explanation for inbound
//! loss exceeding outbound.
//!
//! A packet waits in the engine's own state, queued and then in service,
//! with the [`Deliver`] continuation it was offered with. Each lookup
//! completion is a [`Simulator::call_at`] of one handler the engine
//! registers in the simulator, so once the FIFO has grown to its working
//! size the engine allocates nothing per packet.

use csprov_game::Deliver;
use csprov_net::{Direction, Packet, TraceRecord, TraceSink};
use csprov_obs::{Counter, Gauge, MetricsRegistry};
use csprov_sim::{HandlerId, SimDuration, SimTime, Simulator};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Forwarding-engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// CPU time consumed per forwarded packet (route lookup + NAT rewrite).
    /// The SMC's 1000–1500 pps rating corresponds to roughly 0.7–1 ms.
    pub lookup_time: SimDuration,
    /// Queue slots on the WAN side (clients → server direction).
    pub wan_queue: usize,
    /// Queue slots on the LAN side (server → clients direction).
    pub lan_queue: usize,
    /// Periodic housekeeping (NAT table maintenance, timers): the CPU
    /// stalls for `housekeeping_time` once per `housekeeping_interval`.
    /// When a stall collides with a server tick burst, the LAN queue can
    /// overflow — the source of the paper's small-but-nonzero outbound
    /// loss (Table IV: 0.046%).
    pub housekeeping_interval: SimDuration,
    /// Length of each housekeeping stall.
    pub housekeeping_time: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // Calibrated to reproduce Table IV: ~1.3% inbound, ~0.05% outbound
        // loss under a full 22-slot server.
        EngineConfig {
            lookup_time: SimDuration::from_micros(700),
            wan_queue: 9,
            lan_queue: 22,
            housekeeping_interval: SimDuration::from_secs(90),
            housekeeping_time: SimDuration::from_millis(45),
        }
    }
}

impl EngineConfig {
    /// The engine's sustainable throughput in packets per second.
    pub fn capacity_pps(&self) -> f64 {
        1.0 / self.lookup_time.as_secs_f64()
    }
}

/// Online sojourn-time (queueing + service delay) statistics.
///
/// The paper's warning is not only loss: under-provisioned devices add
/// "consistent packet delay and delay jitter". Shared-handle semantics like
/// [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct DelayStats {
    count: Rc<Cell<u64>>,
    sum_ns: Rc<Cell<u64>>,
    max_ns: Rc<Cell<u64>>,
}

impl DelayStats {
    fn record(&self, d: SimDuration) {
        self.count.set(self.count.get() + 1);
        self.sum_ns.set(self.sum_ns.get() + d.as_nanos());
        if d.as_nanos() > self.max_ns.get() {
            self.max_ns.set(d.as_nanos());
        }
    }

    /// Packets measured.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Mean device sojourn time.
    pub fn mean(&self) -> SimDuration {
        match self.sum_ns.get().checked_div(self.count.get()) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Worst-case device sojourn time.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns.get())
    }
}

/// Per-direction offered/forwarded/dropped counters, plus the lookup CPU's
/// busy time and the shared FIFO's depth. Shared handles.
///
/// The interesting provisioning quantity is the *lookup CPU busy
/// fraction*: `busy_ns` accumulates simulated CPU time spent on lookups and
/// housekeeping stalls, so `busy_ns / run_ns` is the utilization the paper's
/// capacity analysis reasons about.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Packets offered, `[inbound, outbound]`.
    pub offered: [Counter; 2],
    /// Packets forwarded, `[inbound, outbound]`.
    pub forwarded: [Counter; 2],
    /// Packets dropped at the queues, `[inbound, outbound]`.
    pub dropped: [Counter; 2],
    /// Sojourn-time statistics of forwarded packets, `[inbound, outbound]`.
    pub delay: [DelayStats; 2],
    /// Simulated CPU time spent serving lookups and housekeeping stalls.
    pub busy_ns: Counter,
    /// Packets waiting in the shared FIFO (not the one in service), with
    /// high-water mark.
    pub queue_depth: Gauge,
}

impl EngineStats {
    /// The `[inbound, outbound]` index of a direction.
    pub(crate) fn idx(d: Direction) -> usize {
        match d {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        }
    }

    /// Loss rate for a direction (0 if nothing offered).
    pub fn loss_rate(&self, d: Direction) -> f64 {
        let i = Self::idx(d);
        let offered = self.offered[i].get();
        if offered == 0 {
            0.0
        } else {
            self.dropped[i].get() as f64 / offered as f64
        }
    }

    /// Reports the counters and the queue depth into `registry`'s
    /// `router.engine.*` totals (`offered_in`, `offered_out`, ...).
    pub fn report_to(&self, registry: &MetricsRegistry) {
        for (i, dir) in ["in", "out"].into_iter().enumerate() {
            for (what, counters) in [
                ("offered", &self.offered),
                ("forwarded", &self.forwarded),
                ("dropped", &self.dropped),
            ] {
                counters[i].report_to(&registry.counter(&format!("router.engine.{what}_{dir}")));
            }
        }
        self.busy_ns
            .report_to(&registry.counter("router.engine.busy_ns"));
        self.queue_depth
            .report_to(&registry.gauge("router.engine.queue_depth"));
    }
}

/// An optional trace sink at one of the device's measurement points.
pub(crate) type Tap = Option<Rc<RefCell<dyn TraceSink>>>;

/// Records `pkt` at `now` into `tap`, if one is attached.
pub(crate) fn tap(tap: &Tap, now: SimTime, pkt: &Packet) {
    if let Some(sink) = tap {
        sink.borrow_mut()
            .on_packet(&TraceRecord::from_packet(now, pkt));
    }
}

/// A packet in the engine: when it was offered and where it goes once
/// forwarded.
struct Job {
    pkt: Packet,
    arrived: SimTime,
    deliver: Deliver,
}

struct EngineState {
    config: EngineConfig,
    queue: VecDeque<Job>,
    occupancy: [usize; 2], // per-direction occupancy in the shared FIFO
    /// The packet under lookup, from leaving the FIFO until its completion.
    in_service: Option<Job>,
    /// True from the first offer to an idle CPU until the FIFO runs dry;
    /// it stays set while a completion delivers, so a packet offered from
    /// inside a delivery queues behind the FIFO.
    busy: bool,
    next_housekeeping: SimTime,
    stats: EngineStats,
    /// Taps on forwarded packets, `[inbound, outbound]`.
    post_taps: [Tap; 2],
    /// The completion handler and the [`Simulator::id`] of the simulator
    /// it is registered in. A simulator sees it on its first lookup.
    handler: Option<(u64, HandlerId)>,
}

impl EngineState {
    /// Drops what a cut run left behind. A run stopped mid-lookup (at a
    /// `run_until` horizon) leaves the CPU busy, waiting for a completion
    /// its simulator will never run; another simulator would then queue
    /// behind it forever. The packet in service and the FIFO are dropped,
    /// each counted in its direction, so offered = forwarded + dropped +
    /// held still holds, and the CPU is idle for the next offer.
    fn abandon_cut_run(&mut self) {
        self.stats.queue_depth.adjust(-(self.queue.len() as i64));
        for job in self
            .in_service
            .take()
            .into_iter()
            .chain(self.queue.drain(..))
        {
            self.stats.dropped[EngineStats::idx(job.pkt.direction)].incr();
        }
        self.occupancy = [0, 0];
        self.busy = false;
    }
}

/// A shared-CPU store-and-forward engine. Clone shares state.
#[derive(Clone)]
pub struct ForwardingEngine {
    state: Rc<RefCell<EngineState>>,
}

impl ForwardingEngine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_post_taps(config, [None, None])
    }

    /// Creates an engine that records every forwarded packet into
    /// `post_taps` (`[inbound, outbound]`) before delivering it. A tap
    /// runs while the completion holds the engine's state borrowed, so a
    /// sink must not call back into the engine.
    pub(crate) fn with_post_taps(config: EngineConfig, post_taps: [Tap; 2]) -> Self {
        ForwardingEngine {
            state: Rc::new(RefCell::new(EngineState {
                next_housekeeping: SimTime::ZERO + config.housekeeping_interval,
                config,
                queue: VecDeque::new(),
                occupancy: [0, 0],
                in_service: None,
                busy: false,
                stats: EngineStats::default(),
                post_taps,
                handler: None,
            })),
        }
    }

    /// Handles to the counters.
    pub fn stats(&self) -> EngineStats {
        self.state.borrow().stats.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.state.borrow().config.clone()
    }

    /// Current total queue occupancy (for tests and instrumentation).
    pub fn queue_depth(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Packets of direction `d` offered and not yet settled: those queued
    /// plus the one under lookup. Outside a completion, offered =
    /// forwarded + dropped + held, per direction.
    pub(crate) fn held(&self, d: Direction) -> u64 {
        let st = self.state.borrow();
        let in_service = st.in_service.as_ref().map(|job| job.pkt.direction);
        (st.occupancy[EngineStats::idx(d)] + usize::from(in_service == Some(d))) as u64
    }

    /// Offers a packet; `deliver` fires when the CPU finishes its lookup,
    /// or never if the direction's queue is full.
    pub fn submit(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
        let start_service = {
            let mut st = self.state.borrow_mut();
            if st.busy && st.handler.is_some_and(|(id, _)| id != sim.id()) {
                st.abandon_cut_run();
            }
            let dir = EngineStats::idx(pkt.direction);
            st.stats.offered[dir].incr();
            let limit = match pkt.direction {
                Direction::Inbound => st.config.wan_queue,
                Direction::Outbound => st.config.lan_queue,
            };
            if st.occupancy[dir] >= limit {
                st.stats.dropped[dir].incr();
                return;
            }
            st.occupancy[dir] += 1;
            let arrived = sim.now();
            st.queue.push_back(Job {
                pkt,
                arrived,
                deliver,
            });
            st.stats.queue_depth.adjust(1);
            if st.busy {
                false
            } else {
                st.busy = true;
                true
            }
        };
        if start_service {
            self.serve_next(sim);
        }
    }

    /// Moves the FIFO's head into service and queues its completion, or
    /// idles the CPU when the FIFO is empty.
    fn serve_next(&self, sim: &mut Simulator) {
        let (lookup, cached) = {
            let mut st = self.state.borrow_mut();
            // Housekeeping: if due, the CPU stalls before the next lookup.
            let mut service = st.config.lookup_time;
            if !st.config.housekeeping_interval.is_zero() && sim.now() >= st.next_housekeeping {
                service += st.config.housekeeping_time;
                st.next_housekeeping = sim.now() + st.config.housekeeping_interval;
            }
            let Some(job) = st.queue.pop_front() else {
                st.busy = false;
                return;
            };
            let dir = EngineStats::idx(job.pkt.direction);
            st.occupancy[dir] -= 1;
            st.stats.queue_depth.adjust(-1);
            st.stats.busy_ns.add(service.as_nanos());
            st.in_service = Some(job);
            (service, st.handler)
        };
        let handler = match cached {
            Some((sim_id, handler)) if sim_id == sim.id() => handler,
            _ => self.register(sim),
        };
        // The packet waits in `in_service`, so the call carries no argument.
        sim.call_at(sim.now() + lookup, handler, 0);
    }

    /// Registers the completion handler in `sim` and caches it.
    fn register(&self, sim: &mut Simulator) -> HandlerId {
        let engine = self.clone();
        let handler = sim.add_handler(move |sim, _| engine.complete(sim));
        self.state.borrow_mut().handler = Some((sim.id(), handler));
        handler
    }

    /// A lookup completes: the packet in service is counted, tapped and
    /// delivered, and the next one goes into service.
    fn complete(&self, sim: &mut Simulator) {
        let job = {
            let mut st = self.state.borrow_mut();
            let Some(job) = st.in_service.take() else {
                return;
            };
            let dir = EngineStats::idx(job.pkt.direction);
            st.stats.forwarded[dir].incr();
            st.stats.delay[dir].record(sim.now().saturating_since(job.arrived));
            tap(&st.post_taps[dir], sim.now(), &job.pkt);
            job
        };
        (job.deliver)(sim, job.pkt);
        self.serve_next(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::{client_endpoint, server_endpoint, PacketKind};
    use csprov_sim::SimTime;

    fn pkt(dir: Direction) -> Packet {
        let (src, dst) = match dir {
            Direction::Inbound => (client_endpoint(1), server_endpoint()),
            Direction::Outbound => (server_endpoint(), client_endpoint(1)),
        };
        Packet {
            src,
            dst,
            app_len: 40,
            kind: PacketKind::ClientCommand,
            session: 1,
            direction: dir,
            sent_at: SimTime::ZERO,
        }
    }

    fn cfg(lookup_us: u64, wan: usize, lan: usize) -> EngineConfig {
        EngineConfig {
            lookup_time: SimDuration::from_micros(lookup_us),
            wan_queue: wan,
            lan_queue: lan,
            housekeeping_interval: SimDuration::ZERO,
            housekeeping_time: SimDuration::ZERO,
        }
    }

    #[test]
    fn capacity_matches_lookup_time() {
        assert!((cfg(1000, 4, 4).capacity_pps() - 1000.0).abs() < 1e-9);
        let default_cap = EngineConfig::default().capacity_pps();
        assert!(
            (1000.0..1500.0).contains(&default_cap),
            "default must sit in the SMC's rated band, got {default_cap}"
        );
    }

    #[test]
    fn forwards_after_lookup_delay() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(500, 8, 8));
        let delivered = Rc::new(RefCell::new(Vec::new()));
        let d = delivered.clone();
        engine.submit(
            &mut sim,
            pkt(Direction::Inbound),
            Box::new(move |sim, _| {
                d.borrow_mut().push(sim.now());
            }),
        );
        sim.run();
        assert_eq!(*delivered.borrow(), vec![SimTime::from_micros(500)]);
    }

    #[test]
    fn serializes_bursts() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 8, 8));
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let t = times.clone();
            engine.submit(
                &mut sim,
                pkt(Direction::Outbound),
                Box::new(move |sim, _| {
                    t.borrow_mut().push(sim.now().as_millis());
                }),
            );
        }
        sim.run();
        assert_eq!(*times.borrow(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn per_direction_queue_limits() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 2, 8));
        let in_delivered = Rc::new(RefCell::new(0u32));
        let out_delivered = Rc::new(RefCell::new(0u32));
        for _ in 0..6 {
            let d = in_delivered.clone();
            engine.submit(
                &mut sim,
                pkt(Direction::Inbound),
                Box::new(move |_, _| {
                    *d.borrow_mut() += 1;
                }),
            );
            let d = out_delivered.clone();
            engine.submit(
                &mut sim,
                pkt(Direction::Outbound),
                Box::new(move |_, _| {
                    *d.borrow_mut() += 1;
                }),
            );
        }
        sim.run();
        // Inbound: 2 queued + the 1 in service when queue filled... the
        // first submit goes straight to service, so 3 inbound survive.
        assert_eq!(*in_delivered.borrow(), 3);
        assert_eq!(*out_delivered.borrow(), 6);
        let stats = engine.stats();
        assert_eq!(stats.dropped[0].get(), 3);
        assert_eq!(stats.dropped[1].get(), 0);
        assert!(stats.loss_rate(Direction::Inbound) > stats.loss_rate(Direction::Outbound));
    }

    #[test]
    fn held_counts_queued_and_in_service_packets() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 2, 8));
        for _ in 0..6 {
            for dir in [Direction::Inbound, Direction::Outbound] {
                engine.submit(&mut sim, pkt(dir), Box::new(|_, _| {}));
            }
        }
        let stats = engine.stats();
        let balanced = |engine: &ForwardingEngine| {
            [Direction::Inbound, Direction::Outbound].map(|dir| {
                let i = EngineStats::idx(dir);
                let accounted = stats.forwarded[i].get() + stats.dropped[i].get();
                assert_eq!(stats.offered[i].get(), accounted + engine.held(dir));
                engine.held(dir)
            })
        };
        // The first inbound packet is in service, two more wait.
        assert_eq!(balanced(&engine), [3, 6]);
        // At 4.5 ms four lookups are done, in FIFO order: in, out, in, out.
        sim.run_until(SimTime::from_micros(4500));
        assert_eq!(balanced(&engine), [1, 4]);
        sim.run();
        assert_eq!(balanced(&engine), [0, 0]);
    }

    #[test]
    fn offer_from_inside_a_delivery_waits_its_turn() {
        // A server answers a connect request from inside its delivery, and
        // the reply crosses the same device: it queues behind the packets
        // already waiting, as any offer to a busy CPU does.
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 8, 8));
        let log = Rc::new(RefCell::new(Vec::new()));
        let (e, l) = (engine.clone(), log.clone());
        let request: Deliver = Box::new(move |sim, _| {
            l.borrow_mut().push(("request", sim.now().as_millis()));
            let l = l.clone();
            let reply: Deliver =
                Box::new(move |sim, _| l.borrow_mut().push(("reply", sim.now().as_millis())));
            e.submit(sim, pkt(Direction::Outbound), reply);
        });
        engine.submit(&mut sim, pkt(Direction::Inbound), request);
        let l = log.clone();
        let second: Deliver =
            Box::new(move |sim, _| l.borrow_mut().push(("second", sim.now().as_millis())));
        engine.submit(&mut sim, pkt(Direction::Inbound), second);
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("request", 1), ("second", 2), ("reply", 3)]
        );
    }

    #[test]
    fn burst_monopolizes_cpu_and_starves_other_direction() {
        // The paper's mechanism: a server tick burst (outbound) arrives just
        // before smooth inbound traffic; the inbound queue overflows while
        // the CPU drains the burst.
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(750, 3, 30));
        // 20-packet outbound burst at t=0.
        for _ in 0..20 {
            engine.submit(&mut sim, pkt(Direction::Outbound), Box::new(|_, _| {}));
        }
        // Inbound packets every 2 ms during the ~15 ms drain.
        for i in 0..8u64 {
            let engine2 = engine.clone();
            sim.schedule_at(SimTime::from_millis(i * 2), move |sim| {
                engine2.submit(sim, pkt(Direction::Inbound), Box::new(|_, _| {}));
            });
        }
        sim.run();
        let stats = engine.stats();
        assert_eq!(stats.dropped[1].get(), 0, "outbound burst fits its queue");
        assert!(
            stats.dropped[0].get() > 0,
            "inbound must lose packets while the CPU drains the burst"
        );
    }

    #[test]
    fn idle_engine_recovers() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(100, 2, 2));
        let delivered = Rc::new(RefCell::new(0u32));
        for _ in 0..3 {
            let d = delivered.clone();
            engine.submit(
                &mut sim,
                pkt(Direction::Inbound),
                Box::new(move |_, _| {
                    *d.borrow_mut() += 1;
                }),
            );
            sim.run();
        }
        assert_eq!(*delivered.borrow(), 3);
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.stats().dropped[0].get(), 0);
    }

    #[test]
    fn delay_statistics_track_sojourn() {
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 8, 8));
        // 4-packet burst: sojourns 1, 2, 3, 4 ms.
        for _ in 0..4 {
            engine.submit(&mut sim, pkt(Direction::Inbound), Box::new(|_, _| {}));
        }
        sim.run();
        let d = &engine.stats().delay[0];
        assert_eq!(d.count(), 4);
        assert_eq!(d.mean(), SimDuration::from_micros(2500));
        assert_eq!(d.max(), SimDuration::from_millis(4));
    }

    #[test]
    fn sustained_overload_drops_proportionally() {
        // Offer 2000 pps to a 1000 pps engine for 2 s: ~half must drop.
        let mut sim = Simulator::new();
        let engine = ForwardingEngine::new(cfg(1000, 4, 4));
        for i in 0..4000u64 {
            let engine2 = engine.clone();
            sim.schedule_at(SimTime::from_micros(i * 500), move |sim| {
                engine2.submit(sim, pkt(Direction::Inbound), Box::new(|_, _| {}));
            });
        }
        sim.run();
        let stats = engine.stats();
        let loss = stats.loss_rate(Direction::Inbound);
        assert!((0.4..0.6).contains(&loss), "loss = {loss}");
    }
}
