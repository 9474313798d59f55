//! An impairment wrapper around any [`Middlebox`]: applies a per-direction
//! [`FaultInjector`] (uniform and Gilbert–Elliott bursty loss, corruption,
//! token-bucket shaping, reordering, duplication) before delegating.
//! Composes the smoltcp-style fault-injection layer with the NAT device,
//! e.g. to study how background loss stacks with the device's own queue
//! loss — the paper's observation that players self-tune to the worst
//! tolerable loss means small additions matter.
//!
//! Reordered packets are re-enqueued through the sim scheduler after a
//! jittered delay; duplicated ones are delivered immediately *and* again
//! after the delay — both copies pass through the inner middlebox, exactly
//! as a real duplicate would arrive at the NAT twice. Both directions pull
//! randomness from streams derived from one seed, so a chaos campaign is
//! replayable bit-for-bit.

use csprov_game::{Deliver, Middlebox};
use csprov_net::{Direction, Fate, FaultConfig, FaultInjector, FaultStats, Packet};
use csprov_sim::{RngStream, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// A middlebox that impairs traffic before (optionally) forwarding it on to
/// an inner middlebox.
pub struct ImpairedPath {
    inbound: RefCell<FaultInjector>,
    outbound: RefCell<FaultInjector>,
    inner: Option<Rc<dyn Middlebox>>,
}

impl ImpairedPath {
    /// Wraps `inner`, impairing both directions with the same config (each
    /// direction still draws from its own derived RNG stream).
    pub fn new(config: FaultConfig, rng: RngStream, inner: Option<Rc<dyn Middlebox>>) -> Self {
        Self::with_directions(config.clone(), config, rng, inner)
    }

    /// Wraps `inner` with separate impairments per direction. Both
    /// injectors report into one shared [`FaultStats`] bundle.
    pub fn with_directions(
        inbound: FaultConfig,
        outbound: FaultConfig,
        rng: RngStream,
        inner: Option<Rc<dyn Middlebox>>,
    ) -> Self {
        let stats = FaultStats::default();
        ImpairedPath {
            inbound: RefCell::new(FaultInjector::with_stats(
                inbound,
                rng.derive("inbound"),
                stats.clone(),
            )),
            outbound: RefCell::new(FaultInjector::with_stats(
                outbound,
                rng.derive("outbound"),
                stats,
            )),
            inner,
        }
    }

    /// Handles to the impairment counters (shared by both directions).
    pub fn stats(&self) -> FaultStats {
        self.inbound.borrow().stats()
    }

    /// Attaches a trace journal to both directional injectors: every
    /// impairment decision (reorder, duplicate, drop) becomes a
    /// `net.fault.*` event. Write-only — fates are drawn exactly as before.
    pub fn attach_journal(&self, journal: csprov_obs::Journal) {
        self.inbound.borrow_mut().attach_journal(journal.clone());
        self.outbound.borrow_mut().attach_journal(journal);
    }
}

/// Hands a surviving packet to the inner middlebox, or straight to the
/// delivery continuation when there is none.
fn pass_on(inner: &Option<Rc<dyn Middlebox>>, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
    match inner {
        Some(inner) => inner.forward(sim, pkt, deliver),
        None => deliver(sim, pkt),
    }
}

impl Middlebox for ImpairedPath {
    fn forward(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
        let injector = match pkt.direction {
            Direction::Inbound => &self.inbound,
            Direction::Outbound => &self.outbound,
        };
        let fate = injector.borrow_mut().decide(sim.now(), &pkt);
        match fate {
            Fate::Drop(_) => {}
            Fate::Deliver => pass_on(&self.inner, sim, pkt, deliver),
            Fate::DeliverDelayed(d) => {
                let inner = self.inner.clone();
                sim.schedule_in(d, move |sim| pass_on(&inner, sim, pkt, deliver));
            }
            Fate::Duplicate(d) => {
                let deliver: Rc<Deliver> = Rc::from(deliver);
                let first = deliver.clone();
                pass_on(
                    &self.inner,
                    sim,
                    pkt,
                    Box::new(move |sim, pkt| first(sim, pkt)),
                );
                let inner = self.inner.clone();
                sim.schedule_in(d, move |sim| {
                    let copy = deliver.clone();
                    pass_on(&inner, sim, pkt, Box::new(move |sim, pkt| copy(sim, pkt)));
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::nat::{NatDevice, NatTaps};
    use csprov_net::{client_endpoint, server_endpoint, PacketKind};
    use csprov_sim::{SimDuration, SimTime};

    fn pkt(i: u32) -> Packet {
        Packet {
            src: client_endpoint(i),
            dst: server_endpoint(),
            app_len: 40,
            kind: PacketKind::ClientCommand,
            session: i,
            direction: Direction::Inbound,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn passthrough_without_inner() {
        let path = ImpairedPath::new(FaultConfig::default(), RngStream::new(1), None);
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0));
        for i in 0..100 {
            let d = delivered.clone();
            path.forward(&mut sim, pkt(i), Box::new(move |_, _| *d.borrow_mut() += 1));
        }
        sim.run();
        assert_eq!(*delivered.borrow(), 100);
        assert_eq!(path.stats().passed.get(), 100);
    }

    #[test]
    fn drops_before_inner_device() {
        let nat = Rc::new(NatDevice::new(EngineConfig::default(), NatTaps::default()));
        let path = ImpairedPath::new(
            FaultConfig {
                drop_chance: 0.5,
                ..Default::default()
            },
            RngStream::new(2),
            Some(nat.clone()),
        );
        let mut sim = Simulator::new();
        for i in 0..1_000 {
            path.forward(&mut sim, pkt(i % 5), Box::new(|_, _| {}));
            sim.run();
        }
        let dropped = path.stats().dropped.get();
        assert!((400..600).contains(&dropped), "dropped {dropped}");
        // Only survivors reached the NAT engine.
        assert_eq!(
            nat.stats().offered[0].get(),
            1_000 - dropped,
            "inner sees exactly the survivors"
        );
    }

    #[test]
    fn impairment_composes_with_delivery() {
        // Shaped to 10 pps: a 100-packet burst mostly sheds.
        let path = ImpairedPath::new(
            FaultConfig {
                rate_limit: Some(csprov_net::RateLimit {
                    burst: 10.0,
                    packets_per_sec: 10.0,
                }),
                ..Default::default()
            },
            RngStream::new(3),
            None,
        );
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0));
        for i in 0..100 {
            let d = delivered.clone();
            path.forward(&mut sim, pkt(i), Box::new(move |_, _| *d.borrow_mut() += 1));
        }
        sim.run();
        assert_eq!(*delivered.borrow(), 10);
        assert_eq!(path.stats().shaped.get(), 90);
    }

    #[test]
    fn reordered_packets_arrive_later_in_order_of_delay() {
        let path = Rc::new(ImpairedPath::new(
            FaultConfig {
                reorder: Some(csprov_net::ReorderConfig {
                    chance: 1.0,
                    delay_min: SimDuration::from_millis(10),
                    delay_max: SimDuration::from_millis(10),
                }),
                ..Default::default()
            },
            RngStream::new(4),
            None,
        ));
        let mut sim = Simulator::new();
        let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        path.forward(
            &mut sim,
            pkt(0),
            Box::new(move |sim, _| t.borrow_mut().push(sim.now())),
        );
        sim.run();
        assert_eq!(*times.borrow(), vec![SimTime::from_millis(10)]);
        assert_eq!(path.stats().reordered.get(), 1);
    }

    #[test]
    fn duplicates_deliver_twice_through_inner() {
        let nat = Rc::new(NatDevice::new(EngineConfig::default(), NatTaps::default()));
        let path = ImpairedPath::new(
            FaultConfig {
                duplicate: Some(csprov_net::DuplicateConfig {
                    chance: 1.0,
                    delay_min: SimDuration::from_millis(2),
                    delay_max: SimDuration::from_millis(2),
                }),
                ..Default::default()
            },
            RngStream::new(5),
            Some(nat.clone()),
        );
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0));
        let d = delivered.clone();
        path.forward(&mut sim, pkt(0), Box::new(move |_, _| *d.borrow_mut() += 1));
        sim.run();
        assert_eq!(*delivered.borrow(), 2, "original + duplicate");
        assert_eq!(path.stats().duplicated.get(), 1);
        // Both copies crossed the inner NAT device.
        assert_eq!(nat.stats().offered[0].get(), 2);
        assert!(path.stats().conservation_holds());
    }

    #[test]
    fn two_paths_report_into_one_registry() {
        let reg = csprov_obs::MetricsRegistry::new();
        let lossy = FaultConfig {
            drop_chance: 0.5,
            ..Default::default()
        };
        let a = ImpairedPath::new(lossy.clone(), RngStream::new(7), None);
        let b = ImpairedPath::new(lossy, RngStream::new(8), None);
        a.stats().report_to(&reg);
        b.stats().report_to(&reg);
        let mut sim = Simulator::new();
        for i in 0..100 {
            a.forward(&mut sim, pkt(i), Box::new(|_, _| {}));
        }
        for i in 0..40 {
            b.forward(&mut sim, pkt(i), Box::new(|_, _| {}));
        }
        sim.run();
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.offered.get(), 100, "a counts only its own packets");
        assert_eq!(sb.offered.get(), 40, "b counts only its own packets");
        assert!(sa.conservation_holds() && sb.conservation_holds());
        assert_eq!(reg.counter("net.fault.offered").get(), 140);
        assert_eq!(
            reg.counter("net.fault.dropped_random").get(),
            sa.dropped.get() + sb.dropped.get()
        );
        assert_eq!(
            reg.counter("net.fault.passed").get(),
            sa.passed.get() + sb.passed.get()
        );
    }

    #[test]
    fn per_direction_configs_are_independent() {
        // Drop every inbound packet; leave outbound untouched.
        let path = ImpairedPath::with_directions(
            FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            FaultConfig::default(),
            RngStream::new(6),
            None,
        );
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0));
        for i in 0..10 {
            let d = delivered.clone();
            path.forward(&mut sim, pkt(i), Box::new(move |_, _| *d.borrow_mut() += 1));
        }
        let mut out = pkt(0);
        out.direction = Direction::Outbound;
        out.src = server_endpoint();
        out.dst = client_endpoint(0);
        for _ in 0..10 {
            let d = delivered.clone();
            path.forward(&mut sim, out, Box::new(move |_, _| *d.borrow_mut() += 1));
        }
        sim.run();
        assert_eq!(*delivered.borrow(), 10, "only outbound survives");
        let s = path.stats();
        assert_eq!(s.dropped.get(), 10);
        assert_eq!(s.passed.get(), 10);
        assert_eq!(s.offered.get(), 20);
        assert!(s.conservation_holds());
    }
}
