//! Point-to-point link model.
//!
//! A [`Link`] models one direction of a last-mile path: a serialization
//! stage (finite bandwidth, drop-tail queue) followed by propagation delay
//! with optional uniform jitter and random loss. The narrowest-link
//! saturation phenomenon at the heart of the paper comes from clients whose
//! [`LinkClass::Modem56k`] serialization rate is close to the traffic the
//! game offers it.
//!
//! The queue is kept as serialization end times, not as events: a packet
//! holds its slot up to and including the instant its serialization ends,
//! so admission, departure and arrival are all decided when the packet is
//! offered ([`Link::admit`]). The link schedules nothing itself: the caller
//! delivers an admitted packet at its arrival time — one kernel event —
//! and reports it with [`LinkStats::arrived`].

use csprov_obs::{Counter, Gauge, MetricsRegistry};
use csprov_sim::{RngStream, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Static parameters of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Serialization bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum extra delay; each packet gets a uniform draw in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Independent random loss probability.
    pub loss: f64,
    /// Maximum packets queued awaiting serialization before tail drop.
    pub queue_limit: usize,
}

impl LinkConfig {
    /// Serialization time for `bytes` on this link.
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / self.bandwidth_bps)
    }
}

/// Canonical 2002-era access-link classes.
///
/// Bandwidths are *effective* rates (the paper cites 40–50 kbps as typical
/// for a "56k" modem, citing Kristoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Dial-up modem: the ubiquitous narrowest last-mile link.
    Modem56k,
    /// ISDN dual-channel.
    Isdn128k,
    /// Consumer DSL.
    Dsl,
    /// Cable modem.
    Cable,
    /// University / office LAN-grade path.
    Lan,
}

impl LinkClass {
    /// The configuration for this class.
    pub fn config(self) -> LinkConfig {
        match self {
            LinkClass::Modem56k => LinkConfig {
                bandwidth_bps: 44_000.0,
                propagation: SimDuration::from_millis(110),
                jitter: SimDuration::from_millis(25),
                loss: 0.001,
                queue_limit: 10,
            },
            LinkClass::Isdn128k => LinkConfig {
                bandwidth_bps: 112_000.0,
                propagation: SimDuration::from_millis(45),
                jitter: SimDuration::from_millis(10),
                loss: 0.0005,
                queue_limit: 16,
            },
            LinkClass::Dsl => LinkConfig {
                bandwidth_bps: 640_000.0,
                propagation: SimDuration::from_millis(30),
                jitter: SimDuration::from_millis(8),
                loss: 0.0003,
                queue_limit: 32,
            },
            LinkClass::Cable => LinkConfig {
                bandwidth_bps: 1_500_000.0,
                propagation: SimDuration::from_millis(25),
                jitter: SimDuration::from_millis(8),
                loss: 0.0003,
                queue_limit: 32,
            },
            LinkClass::Lan => LinkConfig {
                bandwidth_bps: 10_000_000.0,
                propagation: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(1),
                loss: 0.0001,
                queue_limit: 64,
            },
        }
    }
}

/// Delivery statistics of one link, or of every link sharing the bundle
/// (see [`Link::with_stats`]). Shared handles.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: Counter,
    /// Packets delivered to the far end, counted on arrival.
    pub delivered: Counter,
    /// Packets dropped by the drop-tail queue.
    pub dropped_queue: Counter,
    /// Packets dropped by random loss.
    pub dropped_random: Counter,
    /// Packets admitted but not yet arrived — queued, serializing or
    /// propagating — with high-water mark. Links keep no departure event,
    /// so queue depth alone is not tracked. At any instant `offered =
    /// delivered + dropped_queue + dropped_random + in_flight`.
    pub in_flight: Gauge,
}

impl LinkStats {
    /// Counts one admitted packet's arrival at the far end: it leaves
    /// `in_flight` and joins `delivered`.
    #[inline]
    pub fn arrived(&self) {
        self.in_flight.adjust(-1);
        self.delivered.incr();
    }

    /// Reports every handle into `registry`'s `net.link.*` totals.
    pub fn report_to(&self, registry: &MetricsRegistry) {
        for (name, counter) in [
            ("net.link.offered", &self.offered),
            ("net.link.delivered", &self.delivered),
            ("net.link.dropped_queue", &self.dropped_queue),
            ("net.link.dropped_random", &self.dropped_random),
        ] {
            counter.report_to(&registry.counter(name));
        }
        self.in_flight
            .report_to(&registry.gauge("net.link.in_flight"));
    }
}

struct LinkState {
    config: LinkConfig,
    rng: RngStream,
    /// Serialization end of the latest admitted packet (`None` before the
    /// first).
    busy_until: Option<SimTime>,
    /// Serialization ends of earlier admitted packets that may still hold a
    /// queue slot, oldest first. Stays unallocated on a link that never has
    /// two packets queued at once.
    backlog: VecDeque<SimTime>,
    stats: LinkStats,
}

/// One direction of a network path. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Link {
    state: Rc<RefCell<LinkState>>,
}

impl Link {
    /// Creates a link with the given configuration and RNG stream.
    pub fn new(config: LinkConfig, rng: RngStream) -> Self {
        Self::with_stats(config, rng, LinkStats::default())
    }

    /// Creates a link counting into an existing stats bundle, so many
    /// links (e.g. every client's access link) can share one set of totals.
    pub fn with_stats(config: LinkConfig, rng: RngStream, stats: LinkStats) -> Self {
        Link {
            state: Rc::new(RefCell::new(LinkState {
                config,
                rng,
                busy_until: None,
                backlog: VecDeque::new(),
                stats,
            })),
        }
    }

    /// Shared handles onto the link's statistics.
    pub fn stats(&self) -> LinkStats {
        self.state.borrow().stats.clone()
    }

    /// The link's configuration.
    pub fn config(&self) -> LinkConfig {
        self.state.borrow().config.clone()
    }

    /// Offers a packet of `wire_len` bytes to the link at `now`: returns
    /// its arrival time at the far end, or `None` if drop-tail admission or
    /// random loss drops it. The caller delivers an admitted packet at that
    /// time and reports it with [`LinkStats::arrived`]; until then it
    /// counts as in flight.
    ///
    /// Drop-tail admission counts the admitted packets whose serialization
    /// ends at or after now; the packet is dropped when `queue_limit` of
    /// them remain.
    #[inline]
    pub fn admit(&self, now: SimTime, wire_len: u32) -> Option<SimTime> {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        st.stats.offered.incr();
        // Ends are nondecreasing, so the expired ones are a prefix.
        while st.backlog.front().is_some_and(|&end| end < now) {
            st.backlog.pop_front();
        }
        let latest_queued = st.busy_until.filter(|&end| end >= now);
        let queued = st.backlog.len() + usize::from(latest_queued.is_some());
        if queued >= st.config.queue_limit {
            st.stats.dropped_queue.incr();
            return None;
        }
        let loss = st.config.loss;
        if loss > 0.0 && st.rng.chance(loss) {
            st.stats.dropped_random.incr();
            return None;
        }
        let start = match latest_queued {
            Some(end) => {
                st.backlog.push_back(end);
                end
            }
            None => now,
        };
        let depart = start + st.config.tx_time(wire_len);
        st.busy_until = Some(depart);
        st.stats.in_flight.adjust(1);
        let jitter_bound = st.config.jitter.as_nanos();
        let jitter_ns = if jitter_bound == 0 {
            0
        } else {
            st.rng.next_below(jitter_bound + 1)
        };
        Some(depart + (st.config.propagation + SimDuration::from_nanos(jitter_ns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{client_endpoint, server_endpoint};
    use crate::packet::{Direction, Packet, PacketKind};
    use csprov_sim::Simulator;
    use std::cell::RefCell;

    /// Offers `pkt` to `link` now and, if it is admitted, delivers it at
    /// its arrival: the arrival is counted, then `deliver` runs.
    fn send<F>(link: &Link, sim: &mut Simulator, pkt: Packet, deliver: F)
    where
        F: FnOnce(&mut Simulator, Packet) + 'static,
    {
        if let Some(at) = link.admit(sim.now(), pkt.wire_len()) {
            let stats = link.stats();
            sim.schedule_at(at, move |sim| {
                stats.arrived();
                deliver(sim, pkt);
            });
        }
    }

    fn pkt(app_len: u32) -> Packet {
        Packet {
            src: client_endpoint(1),
            dst: server_endpoint(),
            app_len,
            kind: PacketKind::ClientCommand,
            session: 1,
            direction: Direction::Inbound,
            sent_at: SimTime::ZERO,
        }
    }

    fn lossless(bandwidth_bps: f64, prop_ms: u64, queue: usize) -> LinkConfig {
        LinkConfig {
            bandwidth_bps,
            propagation: SimDuration::from_millis(prop_ms),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            queue_limit: queue,
        }
    }

    #[test]
    fn delivery_time_is_tx_plus_propagation() {
        let mut sim = Simulator::new();
        // 98 wire bytes at 98_000 bps => 8 ms tx; prop 100 ms => arrive 108 ms.
        let link = Link::new(lossless(98_000.0, 100, 10), RngStream::new(1));
        let arrived = Rc::new(RefCell::new(None));
        let a = arrived.clone();
        send(&link, &mut sim, pkt(40), move |sim, _| {
            *a.borrow_mut() = Some(sim.now());
        });
        sim.run();
        assert_eq!(*arrived.borrow(), Some(SimTime::from_millis(108)));
    }

    #[test]
    fn serialization_queues_back_to_back() {
        let mut sim = Simulator::new();
        let link = Link::new(lossless(98_000.0, 0, 100), RngStream::new(2));
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = times.clone();
            send(&link, &mut sim, pkt(40), move |sim, _| {
                t.borrow_mut().push(sim.now().as_millis());
            });
        }
        sim.run();
        // Each 98-byte packet takes 8 ms to serialize; they leave at 8/16/24.
        assert_eq!(*times.borrow(), vec![8, 16, 24]);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut sim = Simulator::new();
        let link = Link::new(lossless(98_000.0, 0, 2), RngStream::new(3));
        let delivered = Rc::new(RefCell::new(0u32));
        for _ in 0..5 {
            let d = delivered.clone();
            send(&link, &mut sim, pkt(40), move |_, _| *d.borrow_mut() += 1);
        }
        sim.run();
        assert_eq!(*delivered.borrow(), 2);
        let stats = link.stats();
        assert_eq!(stats.offered.get(), 5);
        assert_eq!(stats.delivered.get(), 2);
        assert_eq!(stats.dropped_queue.get(), 3);
    }

    #[test]
    fn random_loss_rate() {
        let mut sim = Simulator::new();
        let mut cfg = lossless(10_000_000.0, 0, 1_000_000);
        cfg.loss = 0.1;
        let link = Link::new(cfg, RngStream::new(4));
        let delivered = Rc::new(RefCell::new(0u32));
        for _ in 0..10_000 {
            let d = delivered.clone();
            send(&link, &mut sim, pkt(40), move |_, _| *d.borrow_mut() += 1);
            sim.run();
        }
        let got = *delivered.borrow();
        assert!((8_800..=9_200).contains(&got), "delivered {got}");
        assert_eq!(link.stats().dropped_random.get() + u64::from(got), 10_000);
    }

    #[test]
    fn jitter_bounded() {
        let mut sim = Simulator::new();
        let mut cfg = lossless(10_000_000.0, 50, 1_000_000);
        cfg.jitter = SimDuration::from_millis(20);
        let link = Link::new(cfg.clone(), RngStream::new(5));
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..200 {
            let t = times.clone();
            let sent = sim.now();
            send(&link, &mut sim, pkt(40), move |sim, _| {
                t.borrow_mut().push(sim.now() - sent);
            });
            sim.run();
        }
        let tx = cfg.tx_time(98);
        for &d in times.borrow().iter() {
            assert!(d >= tx + cfg.propagation);
            assert!(d <= tx + cfg.propagation + cfg.jitter);
        }
        // With 200 draws the spread should cover a good part of the range.
        let min = *times.borrow().iter().min().unwrap();
        let max = *times.borrow().iter().max().unwrap();
        assert!(max - min > SimDuration::from_millis(10));
    }

    #[test]
    fn a_packet_holds_its_slot_through_its_departure_instant() {
        let mut sim = Simulator::new();
        // 98 wire bytes at 98_000 bps => T = 8 ms of serialization.
        let link = Link::new(lossless(98_000.0, 100, 1), RngStream::new(1));
        let tx = SimDuration::from_millis(8);
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let offer = |sim: &mut Simulator, name: &'static str| {
            let a = arrived.clone();
            send(&link, sim, pkt(40), move |sim, _| {
                a.borrow_mut().push((name, sim.now()));
            });
        };
        offer(&mut sim, "A");
        // B is offered at exactly T, the instant A's serialization ends.
        sim.run_until(SimTime::ZERO + tx);
        offer(&mut sim, "B");
        assert_eq!(link.stats().dropped_queue.get(), 1, "B is dropped");
        // C, one nanosecond later, finds the slot free.
        sim.run_until(SimTime::ZERO + tx + SimDuration::from_nanos(1));
        offer(&mut sim, "C");
        sim.run();
        let prop = SimDuration::from_millis(100);
        let c_sent = SimTime::ZERO + tx + SimDuration::from_nanos(1);
        assert_eq!(
            *arrived.borrow(),
            vec![("A", SimTime::ZERO + tx + prop), ("C", c_sent + tx + prop)]
        );
        let stats = link.stats();
        assert_eq!(stats.offered.get(), 3);
        assert_eq!(stats.delivered.get(), 2);
        assert_eq!(stats.dropped_queue.get(), 1);
    }

    #[test]
    fn reported_totals_match_stats_without_changing_behaviour() {
        // 8 ms of serialization per packet, one offered every 3 ms into a
        // two-slot queue with 20% random loss and 30 ms of propagation, so
        // every counter moves and packets are in flight mid-run.
        let deliveries = |report: bool| {
            let mut sim = Simulator::new();
            let mut cfg = lossless(98_000.0, 30, 2);
            cfg.loss = 0.2;
            let link = Link::new(cfg, RngStream::new(3));
            let reg = MetricsRegistry::new();
            if report {
                link.stats().report_to(&reg);
            }
            let delivered = Rc::new(RefCell::new(Vec::new()));
            for i in 0..40u64 {
                let (link, d) = (link.clone(), delivered.clone());
                sim.schedule_at(SimTime::from_millis(3 * i), move |sim| {
                    send(&link, sim, pkt(40), move |sim, _| {
                        d.borrow_mut().push(sim.now())
                    });
                });
            }
            // Checks conservation on the stats and, when reporting, that
            // each registry total equals its stat; returns `in_flight`.
            let conserved = || {
                let s = link.stats();
                let in_flight = u64::try_from(s.in_flight.get()).expect("non-negative");
                assert_eq!(
                    s.offered.get(),
                    s.delivered.get() + s.dropped_queue.get() + s.dropped_random.get() + in_flight
                );
                if report {
                    for (name, stat) in [
                        ("net.link.offered", &s.offered),
                        ("net.link.delivered", &s.delivered),
                        ("net.link.dropped_queue", &s.dropped_queue),
                        ("net.link.dropped_random", &s.dropped_random),
                    ] {
                        assert_eq!(reg.counter(name).get(), stat.get(), "{name}");
                    }
                    let total = reg.gauge("net.link.in_flight");
                    assert_eq!(total.get(), s.in_flight.get());
                    assert_eq!(total.high_water(), s.in_flight.high_water());
                }
                in_flight
            };
            sim.run_until(SimTime::from_millis(61));
            assert!(conserved() > 0, "stopped with packets in flight");
            sim.run();
            assert_eq!(conserved(), 0);
            let s = link.stats();
            assert_eq!(s.offered.get(), 40);
            assert!(s.delivered.get() > 0);
            assert!(s.dropped_queue.get() > 0);
            assert!(s.dropped_random.get() > 0);
            // Two queued plus those propagating behind them.
            assert!(s.in_flight.high_water() > 2);
            delivered.take()
        };
        assert_eq!(
            deliveries(false),
            deliveries(true),
            "reporting must not perturb the link"
        );
    }

    #[test]
    fn links_sharing_stats_count_into_one_bundle() {
        let mut sim = Simulator::new();
        let shared = LinkStats::default();
        let a = Link::with_stats(lossless(98_000.0, 0, 1), RngStream::new(1), shared.clone());
        let b = Link::with_stats(lossless(98_000.0, 0, 1), RngStream::new(2), shared.clone());
        // Each link admits one packet and tail-drops the second.
        for link in [&a, &b, &a, &b] {
            send(link, &mut sim, pkt(40), |_, _| {});
        }
        assert_eq!(shared.in_flight.get(), 2);
        sim.run();
        assert_eq!(shared.offered.get(), 4);
        assert_eq!(shared.delivered.get(), 2);
        assert_eq!(shared.dropped_queue.get(), 2);
        assert_eq!(shared.in_flight.get(), 0);
        assert_eq!(a.stats().offered.get(), 4, "a link's stats are the bundle");
    }

    #[test]
    fn modem_class_saturates_at_game_load() {
        // A 56k modem receiving 20 snapshots/s of ~184 wire bytes runs at
        // ~29 kbps — most of its 44 kbps budget, as the paper observes.
        let cfg = LinkClass::Modem56k.config();
        let per_packet = cfg.tx_time(130 + 58);
        let per_second = per_packet.as_secs_f64() * 20.0;
        assert!(per_second > 0.5, "tick stream should near-saturate a modem");
        assert!(per_second < 1.0, "but not exceed it");
    }

    #[test]
    fn class_configs_are_ordered_by_speed() {
        let classes = [
            LinkClass::Modem56k,
            LinkClass::Isdn128k,
            LinkClass::Dsl,
            LinkClass::Cable,
            LinkClass::Lan,
        ];
        for pair in classes.windows(2) {
            assert!(pair[0].config().bandwidth_bps < pair[1].config().bandwidth_bps);
        }
    }
}
