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
//! offered, and an admitted packet costs one kernel event — its delivery.

use crate::metrics::LinkMetrics;
use crate::packet::Packet;
use csprov_sim::{Counter, RngStream, SimDuration, SimTime, Simulator};
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

/// Per-link delivery statistics.
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
    metrics: Option<LinkMetrics>,
}

/// One direction of a network path. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Link {
    state: Rc<RefCell<LinkState>>,
}

impl Link {
    /// Creates a link with the given configuration and RNG stream.
    pub fn new(config: LinkConfig, rng: RngStream) -> Self {
        Link {
            state: Rc::new(RefCell::new(LinkState {
                config,
                rng,
                busy_until: None,
                backlog: VecDeque::new(),
                stats: LinkStats::default(),
                metrics: None,
            })),
        }
    }

    /// Creates a link of a canonical class.
    pub fn of_class(class: LinkClass, rng: RngStream) -> Self {
        Link::new(class.config(), rng)
    }

    /// A snapshot handle onto the link's statistics counters.
    pub fn stats(&self) -> LinkStats {
        self.state.borrow().stats.clone()
    }

    /// Attaches aggregate [`LinkMetrics`]; purely observational — the link's
    /// queueing, loss and timing behaviour is unchanged.
    pub fn attach_metrics(&self, metrics: LinkMetrics) {
        self.state.borrow_mut().metrics = Some(metrics);
    }

    /// The link's configuration.
    pub fn config(&self) -> LinkConfig {
        self.state.borrow().config.clone()
    }

    /// Offers a packet to the link. If it survives the queue and random
    /// loss, `deliver` is invoked at the computed arrival time.
    ///
    /// Drop-tail admission counts the admitted packets whose serialization
    /// ends at or after now; the packet is dropped when `queue_limit` of
    /// them remain.
    pub fn send<F>(&self, sim: &mut Simulator, packet: Packet, deliver: F)
    where
        F: FnOnce(&mut Simulator, Packet) + 'static,
    {
        let now = sim.now();
        let arrive = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            st.stats.offered.incr();
            if let Some(m) = &st.metrics {
                m.offered.incr();
            }
            // Ends are nondecreasing, so the expired ones are a prefix.
            while st.backlog.front().is_some_and(|&end| end < now) {
                st.backlog.pop_front();
            }
            let latest_queued = st.busy_until.filter(|&end| end >= now);
            let queued = st.backlog.len() + usize::from(latest_queued.is_some());
            if queued >= st.config.queue_limit {
                st.stats.dropped_queue.incr();
                if let Some(m) = &st.metrics {
                    m.dropped_queue.incr();
                }
                return;
            }
            let loss = st.config.loss;
            if loss > 0.0 && st.rng.chance(loss) {
                st.stats.dropped_random.incr();
                if let Some(m) = &st.metrics {
                    m.dropped_random.incr();
                }
                return;
            }
            let start = match latest_queued {
                Some(end) => {
                    st.backlog.push_back(end);
                    end
                }
                None => now,
            };
            let depart = start + st.config.tx_time(packet.wire_len());
            st.busy_until = Some(depart);
            if let Some(m) = &st.metrics {
                m.in_flight.adjust(1);
            }
            let jitter_bound = st.config.jitter.as_nanos();
            let jitter_ns = if jitter_bound == 0 {
                0
            } else {
                st.rng.next_below(jitter_bound + 1)
            };
            depart + (st.config.propagation + SimDuration::from_nanos(jitter_ns))
        };

        let state = self.state.clone();
        sim.schedule_at(arrive, move |sim| {
            {
                let st = state.borrow();
                st.stats.delivered.incr();
                if let Some(m) = &st.metrics {
                    m.in_flight.adjust(-1);
                    m.delivered.incr();
                }
            }
            deliver(sim, packet);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{client_endpoint, server_endpoint};
    use crate::packet::{Direction, PacketKind};
    use std::cell::RefCell;

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
        link.send(&mut sim, pkt(40), move |sim, _| {
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
            link.send(&mut sim, pkt(40), move |sim, _| {
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
            link.send(&mut sim, pkt(40), move |_, _| *d.borrow_mut() += 1);
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
            link.send(&mut sim, pkt(40), move |_, _| *d.borrow_mut() += 1);
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
            link.send(&mut sim, pkt(40), move |sim, _| {
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
            link.send(sim, pkt(40), move |sim, _| {
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
    fn attached_metrics_mirror_stats_without_changing_behaviour() {
        // 8 ms of serialization per packet, one offered every 3 ms into a
        // two-slot queue with 20% random loss and 30 ms of propagation, so
        // every counter moves and packets are in flight mid-run.
        let deliveries = |metrics: bool| {
            let mut sim = Simulator::new();
            let mut cfg = lossless(98_000.0, 30, 2);
            cfg.loss = 0.2;
            let link = Link::new(cfg, RngStream::new(3));
            let reg = csprov_obs::MetricsRegistry::new();
            let m = metrics.then(|| crate::metrics::LinkMetrics::register(&reg));
            if let Some(m) = &m {
                link.attach_metrics(m.clone());
            }
            let delivered = Rc::new(RefCell::new(Vec::new()));
            for i in 0..40u64 {
                let (link, d) = (link.clone(), delivered.clone());
                sim.schedule_at(SimTime::from_millis(3 * i), move |sim| {
                    link.send(sim, pkt(40), move |sim, _| d.borrow_mut().push(sim.now()));
                });
            }
            let conserved = |m: &crate::metrics::LinkMetrics| {
                let in_flight = u64::try_from(m.in_flight.get()).expect("non-negative");
                assert_eq!(
                    m.offered.get(),
                    m.delivered.get() + m.dropped_queue.get() + m.dropped_random.get() + in_flight
                );
                let stats = link.stats();
                assert_eq!(m.offered.get(), stats.offered.get());
                assert_eq!(m.delivered.get(), stats.delivered.get());
                assert_eq!(m.dropped_queue.get(), stats.dropped_queue.get());
                assert_eq!(m.dropped_random.get(), stats.dropped_random.get());
                in_flight
            };
            sim.run_until(SimTime::from_millis(61));
            if let Some(m) = &m {
                assert!(conserved(m) > 0, "stopped with packets in flight");
            }
            sim.run();
            if let Some(m) = &m {
                assert_eq!(conserved(m), 0);
                assert_eq!(m.offered.get(), 40);
                assert!(m.delivered.get() > 0);
                assert!(m.dropped_queue.get() > 0);
                assert!(m.dropped_random.get() > 0);
                // Two queued plus those propagating behind them.
                assert!(m.in_flight.high_water() > 2);
            }
            delivered.take()
        };
        assert_eq!(
            deliveries(false),
            deliveries(true),
            "metrics must not perturb the link"
        );
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
