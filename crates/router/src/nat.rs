//! The NAT device of Section IV: translation table + forwarding engine +
//! tap points, implementing the game world's [`Middlebox`] interface.
//!
//! Four taps mirror the paper's measurement setup (Table IV, Figures 14/15):
//! `clients → NAT`, `NAT → server` (inbound pair) and `server → NAT`,
//! `NAT → clients` (outbound pair).

use crate::engine::{tap, EngineConfig, EngineStats, ForwardingEngine, Tap};
use csprov_game::{Deliver, Middlebox};
use csprov_net::{Direction, Packet, TraceSink};
use csprov_obs::{Counter, Gauge, MetricsRegistry};
use csprov_sim::{FxBuildHasher, SimDuration, SimTime, Simulator};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Sizing of the translation table — the degradation knob of the
/// NAT-exhaustion chaos campaign. The default mirrors a commodity box with
/// plenty of headroom for one game server's flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatTableConfig {
    /// Maximum simultaneous mappings.
    pub capacity: usize,
    /// Idle time after which a mapping may be reclaimed.
    pub idle_timeout: SimDuration,
}

impl Default for NatTableConfig {
    fn default() -> Self {
        NatTableConfig {
            capacity: 4096,
            idle_timeout: SimDuration::from_secs(300),
        }
    }
}

/// What happened to one [`NatTable::touch_outcome`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The flow already had a mapping; it was refreshed.
    Existing(u16),
    /// A new mapping was created without pressure.
    Inserted(u16),
    /// The table was full, but expiring idle entries recovered room.
    Recovered {
        /// Port of the new mapping.
        port: u16,
        /// Idle entries evicted to make room.
        evicted: usize,
    },
    /// The table was full and nothing was idle: the packet has no mapping.
    Refused,
}

impl TouchOutcome {
    /// The external port, when a mapping exists.
    pub fn port(self) -> Option<u16> {
        match self {
            TouchOutcome::Existing(p)
            | TouchOutcome::Inserted(p)
            | TouchOutcome::Recovered { port: p, .. } => Some(p),
            TouchOutcome::Refused => None,
        }
    }
}

/// Dynamic port-translation table with idle expiry.
///
/// The game server sits on the LAN side; each client flow gets an external
/// port mapping on first sight, refreshed by traffic in either direction.
/// Flows are keyed by session id through the fixed-seed [`FxBuildHasher`]:
/// the world numbers sessions itself, so no outside input picks the keys.
#[derive(Debug)]
pub struct NatTable {
    mappings: HashMap<u32, NatEntry, FxBuildHasher>,
    next_port: u16,
    idle_timeout: SimDuration,
    capacity: usize,
}

/// One translation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatEntry {
    /// External (WAN-side) port assigned to the flow.
    pub external_port: u16,
    /// Last packet time in either direction.
    pub last_used: SimTime,
}

impl NatTable {
    /// Creates a table with the given idle timeout and entry capacity.
    pub fn new(idle_timeout: SimDuration, capacity: usize) -> Self {
        NatTable {
            mappings: HashMap::default(),
            next_port: 1024,
            idle_timeout,
            capacity,
        }
    }

    /// Creates a table from a [`NatTableConfig`].
    pub fn from_config(config: NatTableConfig) -> Self {
        Self::new(config.idle_timeout, config.capacity)
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True if the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Looks up a flow's entry without refreshing it.
    pub fn get(&self, session: u32) -> Option<&NatEntry> {
        self.mappings.get(&session)
    }

    /// Touches (or creates) the mapping for `session`; returns its external
    /// port, or `None` if the table is full and no entry could be made.
    pub fn touch(&mut self, session: u32, now: SimTime) -> Option<u16> {
        self.touch_outcome(session, now).port()
    }

    /// Like [`NatTable::touch`], but reports *how* the mapping was obtained
    /// — whether idle entries had to be reclaimed, or the flow was refused —
    /// so the device can keep eviction/recovery counters.
    pub fn touch_outcome(&mut self, session: u32, now: SimTime) -> TouchOutcome {
        if let Some(e) = self.mappings.get_mut(&session) {
            e.last_used = now;
            return TouchOutcome::Existing(e.external_port);
        }
        let mut evicted = 0;
        if self.mappings.len() >= self.capacity {
            evicted = self.expire(now);
            if self.mappings.len() >= self.capacity {
                return TouchOutcome::Refused;
            }
        }
        let port = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(1024);
        self.mappings.insert(
            session,
            NatEntry {
                external_port: port,
                last_used: now,
            },
        );
        if evicted > 0 {
            TouchOutcome::Recovered { port, evicted }
        } else {
            TouchOutcome::Inserted(port)
        }
    }

    /// Evicts entries idle longer than the timeout; returns how many.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let timeout = self.idle_timeout;
        let before = self.mappings.len();
        self.mappings
            .retain(|_, e| now.saturating_since(e.last_used) <= timeout);
        before - self.mappings.len()
    }
}

/// Optional per-tap sinks for the four measurement points.
#[derive(Default)]
pub struct NatTaps {
    /// Clients → NAT (inbound, before forwarding).
    pub clients_to_nat: Option<Rc<RefCell<dyn TraceSink>>>,
    /// NAT → server (inbound, after forwarding).
    pub nat_to_server: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Server → NAT (outbound, before forwarding).
    pub server_to_nat: Option<Rc<RefCell<dyn TraceSink>>>,
    /// NAT → clients (outbound, after forwarding).
    pub nat_to_clients: Option<Rc<RefCell<dyn TraceSink>>>,
}

/// Degradation counters for the translation table: how the device coped
/// (or failed to cope) with mapping pressure. Shared handles.
#[derive(Debug, Clone, Default)]
pub struct NatStats {
    /// Packets refused for want of a mapping, per direction
    /// (`[inbound, outbound]`).
    pub table_drops: [Counter; 2],
    /// Idle entries reclaimed under pressure.
    pub evictions: Counter,
    /// Mappings created only after reclaiming idle entries (graceful
    /// recovery from a full table).
    pub recoveries: Counter,
    /// Live translation-table size, with high-water mark.
    pub table_size: Gauge,
}

impl NatStats {
    /// Total refused packets across both directions.
    pub fn table_drops_total(&self) -> u64 {
        self.table_drops[0].get() + self.table_drops[1].get()
    }

    /// Reports into `registry`'s `router.nat.*` totals; both directions of
    /// `table_drops` feed the one `router.nat.table_drops`.
    pub fn report_to(&self, registry: &MetricsRegistry) {
        let drops = registry.counter("router.nat.table_drops");
        for counter in &self.table_drops {
            counter.report_to(&drops);
        }
        self.evictions
            .report_to(&registry.counter("router.nat.evictions"));
        self.recoveries
            .report_to(&registry.counter("router.nat.recoveries"));
        self.table_size
            .report_to(&registry.gauge("router.nat.table_size"));
    }
}

/// The commercial-off-the-shelf NAT device (SMC Barricade stand-in).
///
/// The device taps offered packets itself; the engine taps forwarded ones.
pub struct NatDevice {
    engine: ForwardingEngine,
    table: RefCell<NatTable>,
    /// Taps on offered packets, `[clients → NAT, server → NAT]`.
    pre_taps: [Tap; 2],
    nat_stats: NatStats,
    journal: RefCell<Option<csprov_obs::Journal>>,
}

impl NatDevice {
    /// Creates a device with the given engine configuration and taps, and
    /// the default (ample) translation table.
    pub fn new(config: EngineConfig, taps: NatTaps) -> Self {
        Self::with_table(config, NatTableConfig::default(), taps)
    }

    /// Creates a device with an explicit translation-table sizing — the
    /// entry point for exhaustion campaigns.
    pub fn with_table(config: EngineConfig, table: NatTableConfig, taps: NatTaps) -> Self {
        let NatTaps {
            clients_to_nat,
            nat_to_server,
            server_to_nat,
            nat_to_clients,
        } = taps;
        NatDevice {
            engine: ForwardingEngine::with_post_taps(config, [nat_to_server, nat_to_clients]),
            table: RefCell::new(NatTable::from_config(table)),
            pre_taps: [clients_to_nat, server_to_nat],
            nat_stats: NatStats::default(),
            journal: RefCell::new(None),
        }
    }

    /// Attaches a trace [`csprov_obs::Journal`]: translation-table inserts,
    /// evictions, and refusals become `router.nat.*` events keyed by session.
    /// Write-only — attaching a journal never changes forwarding behaviour.
    pub fn attach_journal(&self, journal: csprov_obs::Journal) {
        *self.journal.borrow_mut() = Some(journal);
    }

    /// Engine counters (Table IV's loss accounting).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Translation-table degradation counters.
    pub fn nat_stats(&self) -> NatStats {
        self.nat_stats.clone()
    }

    /// Live NAT-table size.
    pub fn table_len(&self) -> usize {
        self.table.borrow().len()
    }

    /// Packets of direction `d` offered to the engine and not yet settled:
    /// those queued plus the one under lookup. Outside a lookup's
    /// completion, per direction, offered = forwarded + dropped + held in
    /// [`NatDevice::stats`], and the taps see offered + table drops before
    /// the device and forwarded after it.
    pub fn held(&self, d: Direction) -> u64 {
        self.engine.held(d)
    }
}

impl Middlebox for NatDevice {
    fn forward(&self, sim: &mut Simulator, pkt: Packet, deliver: Deliver) {
        let now = sim.now();
        let dir_idx = EngineStats::idx(pkt.direction);
        tap(&self.pre_taps[dir_idx], now, &pkt);
        // Sessionless probe traffic shares one implicit mapping (the
        // server's static port-forward); session flows get dynamic entries.
        if pkt.session != u32::MAX {
            let outcome = self.table.borrow_mut().touch_outcome(pkt.session, now);
            let session = u64::from(pkt.session);
            match outcome {
                TouchOutcome::Refused => {
                    self.nat_stats.table_drops[dir_idx].incr();
                    if let Some(j) = &*self.journal.borrow() {
                        let len = self.table.borrow().len() as u64;
                        j.emit(now.as_nanos(), "router.nat.refuse", session, len);
                    }
                    return;
                }
                TouchOutcome::Recovered { evicted, .. } => {
                    self.nat_stats.evictions.add(evicted as u64);
                    self.nat_stats.recoveries.incr();
                    if let Some(j) = &*self.journal.borrow() {
                        j.emit(now.as_nanos(), "router.nat.evict", session, evicted as u64);
                        j.emit(now.as_nanos(), "router.nat.insert", session, 1);
                    }
                }
                TouchOutcome::Inserted(_) => {
                    if let Some(j) = &*self.journal.borrow() {
                        j.emit(now.as_nanos(), "router.nat.insert", session, 0);
                    }
                }
                TouchOutcome::Existing(_) => {}
            }
            // Only a new mapping changes the table: a refusal has returned
            // above, and a refused touch never evicts.
            if !matches!(outcome, TouchOutcome::Existing(_)) {
                let len = self.table.borrow().len() as u64;
                self.nat_stats.table_size.set(len as i64);
                if let Some(j) = &*self.journal.borrow() {
                    j.emit(now.as_nanos(), "router.nat.table.level", 0, len);
                }
            }
        }
        self.engine.submit(sim, pkt, deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::{client_endpoint, server_endpoint, CountingSink, PacketKind};

    fn pkt(session: u32, dir: Direction) -> Packet {
        let (src, dst) = match dir {
            Direction::Inbound => (client_endpoint(session), server_endpoint()),
            Direction::Outbound => (server_endpoint(), client_endpoint(session)),
        };
        Packet {
            src,
            dst,
            app_len: 40,
            kind: PacketKind::ClientCommand,
            session,
            direction: dir,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn nat_table_assigns_stable_ports() {
        let mut t = NatTable::new(SimDuration::from_secs(60), 16);
        let p1 = t.touch(1, SimTime::ZERO).unwrap();
        let p2 = t.touch(2, SimTime::ZERO).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(t.touch(1, SimTime::from_secs(1)), Some(p1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).unwrap().external_port, p1);
    }

    #[test]
    fn nat_table_expires_idle_entries() {
        let mut t = NatTable::new(SimDuration::from_secs(60), 16);
        t.touch(1, SimTime::ZERO);
        t.touch(2, SimTime::from_secs(50));
        let evicted = t.expire(SimTime::from_secs(90));
        assert_eq!(evicted, 1);
        assert!(t.get(1).is_none());
        assert!(t.get(2).is_some());
    }

    #[test]
    fn nat_table_full_behaviour() {
        let mut t = NatTable::new(SimDuration::from_secs(60), 2);
        assert!(t.touch(1, SimTime::ZERO).is_some());
        assert!(t.touch(2, SimTime::ZERO).is_some());
        // Full, nothing idle: refused.
        assert!(t.touch(3, SimTime::from_secs(1)).is_none());
        // After the others idle out, a new flow fits.
        assert!(t.touch(3, SimTime::from_secs(120)).is_some());
        assert!(!t.is_empty());
    }

    #[test]
    fn device_taps_see_pre_and_post_streams() {
        let pre = Rc::new(RefCell::new(CountingSink::new()));
        let post = Rc::new(RefCell::new(CountingSink::new()));
        let taps = NatTaps {
            clients_to_nat: Some(pre.clone()),
            nat_to_server: Some(post.clone()),
            ..Default::default()
        };
        let dev = NatDevice::new(
            EngineConfig {
                lookup_time: SimDuration::from_micros(500),
                wan_queue: 2,
                lan_queue: 2,
                ..EngineConfig::default()
            },
            taps,
        );
        let mut sim = Simulator::new();
        // 6 simultaneous inbound: 1 in service + 2 queued survive.
        for i in 0..6 {
            dev.forward(&mut sim, pkt(i, Direction::Inbound), Box::new(|_, _| {}));
        }
        sim.run();
        assert_eq!(pre.borrow().total_packets(), 6, "pre-tap sees all offers");
        assert_eq!(post.borrow().total_packets(), 3, "post-tap sees survivors");
        assert_eq!(dev.stats().dropped[0].get(), 3);
        assert_eq!(dev.table_len(), 6);
    }

    #[test]
    fn outbound_uses_lan_queue_and_taps() {
        let pre = Rc::new(RefCell::new(CountingSink::new()));
        let post = Rc::new(RefCell::new(CountingSink::new()));
        let dev = NatDevice::new(
            EngineConfig::default(),
            NatTaps {
                server_to_nat: Some(pre.clone()),
                nat_to_clients: Some(post.clone()),
                ..Default::default()
            },
        );
        let mut sim = Simulator::new();
        for i in 0..20 {
            dev.forward(&mut sim, pkt(i, Direction::Outbound), Box::new(|_, _| {}));
        }
        sim.run();
        // Default LAN queue (22) absorbs a full tick burst.
        assert_eq!(pre.borrow().total_packets(), 20);
        assert_eq!(post.borrow().total_packets(), 20);
        assert_eq!(dev.stats().dropped[1].get(), 0);
    }

    /// A device with 500 µs lookups and two-slot queues.
    fn small_queue_device() -> NatDevice {
        NatDevice::new(
            EngineConfig {
                lookup_time: SimDuration::from_micros(500),
                wan_queue: 2,
                lan_queue: 2,
                ..EngineConfig::default()
            },
            NatTaps::default(),
        )
    }

    /// Offers six simultaneous inbound packets from sessions
    /// `first_session..+6` to a [`small_queue_device`]: one is served at
    /// once, two wait, three are dropped. Returns the delivery times.
    fn offer_six(dev: &NatDevice, first_session: u32) -> Vec<SimTime> {
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(Vec::new()));
        for i in 0..6 {
            let d = delivered.clone();
            dev.forward(
                &mut sim,
                pkt(first_session + i, Direction::Inbound),
                Box::new(move |sim, _| d.borrow_mut().push(sim.now())),
            );
        }
        sim.run();
        delivered.take()
    }

    #[test]
    fn one_device_serves_simulators_in_turn() {
        // Each `offer_six` builds its own simulator, most likely at the
        // address the last one had. The device registers its completion
        // handler in each simulator it serves, so both runs forward alike.
        let dev = small_queue_device();
        let expected = [500, 1000, 1500].map(SimTime::from_micros).to_vec();
        assert_eq!(offer_six(&dev, 0), expected);
        assert_eq!(offer_six(&dev, 10), expected);
    }

    #[test]
    fn a_device_cut_mid_lookup_serves_the_next_simulator() {
        let dev = small_queue_device();
        // Two inbound packets: the first is delivered at 500 µs, and the
        // second is under lookup when the run is cut at 700 µs.
        let mut sim = Simulator::new();
        for session in 0..2 {
            dev.forward(
                &mut sim,
                pkt(session, Direction::Inbound),
                Box::new(|_, _| {}),
            );
        }
        sim.run_until(SimTime::from_micros(700));
        assert_eq!(dev.held(Direction::Inbound), 1);
        drop(sim);
        // A fresh simulator finds the device as a fresh one would: the cut
        // lookup is dropped and six offers forward three.
        let expected = [500, 1000, 1500].map(SimTime::from_micros).to_vec();
        assert_eq!(offer_six(&dev, 10), expected);
        let stats = dev.stats();
        assert_eq!(stats.offered[0].get(), 8);
        assert_eq!(stats.forwarded[0].get(), 4);
        assert_eq!(stats.dropped[0].get(), 4);
        assert_eq!(dev.held(Direction::Inbound), 0);
        assert_eq!(stats.queue_depth.get(), 0);
    }

    #[test]
    fn conservation_holds_on_a_refusing_table() {
        // A two-entry table maps sessions 0 and 1 and refuses 2 and 3.
        let sinks: [Rc<RefCell<CountingSink>>; 4] =
            std::array::from_fn(|_| Rc::new(RefCell::new(CountingSink::new())));
        let [a, b, c, d] = &sinks;
        let dev = NatDevice::with_table(
            EngineConfig {
                lookup_time: SimDuration::from_micros(500),
                wan_queue: 2,
                lan_queue: 2,
                ..EngineConfig::default()
            },
            NatTableConfig {
                capacity: 2,
                idle_timeout: SimDuration::from_secs(10),
            },
            NatTaps {
                clients_to_nat: Some(a.clone()),
                nat_to_server: Some(b.clone()),
                server_to_nat: Some(c.clone()),
                nat_to_clients: Some(d.clone()),
            },
        );
        let mut sim = Simulator::new();
        for session in 0..4 {
            for dir in [Direction::Inbound, Direction::Outbound] {
                for _ in 0..3 {
                    dev.forward(&mut sim, pkt(session, dir), Box::new(|_, _| {}));
                }
            }
        }
        // Cut at 1.2 ms: two inbound lookups are done and a third is under
        // way, and two outbound packets still wait.
        sim.run_until(SimTime::from_micros(1200));
        let (stats, nat) = (dev.stats(), dev.nat_stats());
        for (i, dir) in [Direction::Inbound, Direction::Outbound]
            .into_iter()
            .enumerate()
        {
            let (pre, post) = (sinks[2 * i].borrow(), sinks[2 * i + 1].borrow());
            let offered = stats.offered[i].get();
            let table_drops = nat.table_drops[i].get();
            assert_eq!(table_drops, 6, "{dir:?}: sessions 2 and 3 refused");
            assert_eq!(pre.total_packets(), offered + table_drops, "{dir:?}");
            let settled = stats.forwarded[i].get() + stats.dropped[i].get();
            assert_eq!(offered, settled + dev.held(dir), "{dir:?}");
            assert_eq!(post.total_packets(), stats.forwarded[i].get(), "{dir:?}");
        }
        assert_eq!(
            [Direction::Inbound, Direction::Outbound].map(|dir| dev.held(dir)),
            [1, 2]
        );
    }

    #[test]
    fn reported_totals_match_engine_and_table_stats() {
        let reg = MetricsRegistry::new();
        let dev = small_queue_device();
        dev.stats().report_to(&reg);
        dev.nat_stats().report_to(&reg);
        let delivered = offer_six(&dev, 0);
        assert_eq!(
            delivered,
            offer_six(&small_queue_device(), 0),
            "reporting must not perturb the device"
        );

        let (stats, nat) = (dev.stats(), dev.nat_stats());
        assert_eq!(stats.offered[0].get(), 6);
        assert_eq!(stats.forwarded[0].get(), 3);
        assert_eq!(stats.dropped[0].get(), 3);
        // Three lookups at 500 µs each.
        assert_eq!(stats.busy_ns.get(), 3 * 500_000);
        assert_eq!(stats.queue_depth.get(), 0);
        // One packet is in service (popped) while two wait in the FIFO.
        assert_eq!(stats.queue_depth.high_water(), 2);
        assert_eq!(nat.table_size.get(), 6);
        assert_eq!(nat.table_drops_total(), 0);

        for (name, stat) in [
            ("router.engine.offered_in", &stats.offered[0]),
            ("router.engine.forwarded_in", &stats.forwarded[0]),
            ("router.engine.dropped_in", &stats.dropped[0]),
            ("router.engine.offered_out", &stats.offered[1]),
            ("router.engine.busy_ns", &stats.busy_ns),
            ("router.nat.evictions", &nat.evictions),
            ("router.nat.recoveries", &nat.recoveries),
        ] {
            assert_eq!(reg.counter(name).get(), stat.get(), "{name}");
        }
        assert_eq!(reg.counter("router.nat.table_drops").get(), 0);
        for (name, stat) in [
            ("router.engine.queue_depth", &stats.queue_depth),
            ("router.nat.table_size", &nat.table_size),
        ] {
            let total = reg.gauge(name);
            assert_eq!(total.get(), stat.get(), "{name}");
            assert_eq!(total.high_water(), stat.high_water(), "{name}");
        }
    }

    #[test]
    fn two_devices_report_into_one_registry() {
        let reg = MetricsRegistry::new();
        let (a, b) = (small_queue_device(), small_queue_device());
        for dev in [&a, &b] {
            dev.stats().report_to(&reg);
            dev.nat_stats().report_to(&reg);
        }
        offer_six(&a, 0);
        offer_six(&b, 10);
        offer_six(&b, 20);
        assert_eq!(a.stats().offered[0].get(), 6, "a counts only its own");
        assert_eq!(b.stats().offered[0].get(), 12, "b counts only its own");
        assert_eq!(a.nat_stats().table_size.get(), 6);
        assert_eq!(b.nat_stats().table_size.get(), 12);
        assert_eq!(reg.counter("router.engine.offered_in").get(), 18);
        assert_eq!(reg.counter("router.engine.dropped_in").get(), 9);
        assert_eq!(reg.counter("router.engine.busy_ns").get(), 9 * 500_000);
        assert_eq!(reg.gauge("router.nat.table_size").get(), 18);
    }

    #[test]
    fn both_directions_of_table_drops_feed_one_total() {
        let reg = MetricsRegistry::new();
        let dev = NatDevice::with_table(
            EngineConfig::default(),
            NatTableConfig {
                capacity: 1,
                idle_timeout: SimDuration::from_secs(10),
            },
            NatTaps::default(),
        );
        dev.nat_stats().report_to(&reg);
        let mut sim = Simulator::new();
        for p in [
            pkt(0, Direction::Inbound),
            pkt(1, Direction::Inbound),
            pkt(2, Direction::Outbound),
        ] {
            dev.forward(&mut sim, p, Box::new(|_, _| {}));
        }
        sim.run();
        let nat = dev.nat_stats();
        assert_eq!(nat.table_drops[0].get(), 1);
        assert_eq!(nat.table_drops[1].get(), 1);
        assert_eq!(reg.counter("router.nat.table_drops").get(), 2);
    }

    #[test]
    fn touch_outcome_distinguishes_pressure() {
        let mut t = NatTable::new(SimDuration::from_secs(60), 2);
        assert!(matches!(
            t.touch_outcome(1, SimTime::ZERO),
            TouchOutcome::Inserted(_)
        ));
        assert!(matches!(
            t.touch_outcome(1, SimTime::ZERO),
            TouchOutcome::Existing(_)
        ));
        assert!(matches!(
            t.touch_outcome(2, SimTime::ZERO),
            TouchOutcome::Inserted(_)
        ));
        // Full, nothing idle yet.
        assert_eq!(
            t.touch_outcome(3, SimTime::from_secs(1)),
            TouchOutcome::Refused
        );
        // Full, both entries idle: both reclaimed, mapping created.
        assert!(matches!(
            t.touch_outcome(3, SimTime::from_secs(120)),
            TouchOutcome::Recovered { evicted: 2, .. }
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn exhausted_table_refuses_then_recovers() {
        // Capacity 2, 10 s idle timeout: sessions 0 and 1 claim the table;
        // session 2 is refused while they are fresh and admitted after they
        // idle out.
        let dev = NatDevice::with_table(
            EngineConfig::default(),
            NatTableConfig {
                capacity: 2,
                idle_timeout: SimDuration::from_secs(10),
            },
            NatTaps::default(),
        );
        let mut sim = Simulator::new();
        dev.forward(&mut sim, pkt(0, Direction::Inbound), Box::new(|_, _| {}));
        dev.forward(&mut sim, pkt(1, Direction::Inbound), Box::new(|_, _| {}));
        sim.run();
        dev.forward(&mut sim, pkt(2, Direction::Inbound), Box::new(|_, _| {}));
        sim.run();
        let stats = dev.nat_stats();
        assert_eq!(stats.table_drops[0].get(), 1, "refused while table hot");
        assert_eq!(stats.recoveries.get(), 0);

        // 30 simulated seconds later both mappings are idle.
        let mut sim2 = Simulator::new();
        sim2.schedule_at(SimTime::from_secs(30), |_| {});
        sim2.run();
        let late = Packet {
            sent_at: SimTime::from_secs(30),
            ..pkt(2, Direction::Inbound)
        };
        let delivered = Rc::new(RefCell::new(0));
        let d = delivered.clone();
        dev.forward(&mut sim2, late, Box::new(move |_, _| *d.borrow_mut() += 1));
        sim2.run();
        assert_eq!(*delivered.borrow(), 1, "flow admitted after recovery");
        let stats = dev.nat_stats();
        assert_eq!(stats.recoveries.get(), 1);
        assert_eq!(stats.evictions.get(), 2);
        assert_eq!(stats.table_drops_total(), 1);
    }

    #[test]
    fn journal_records_table_lifecycle_without_changing_it() {
        let run = |journal: Option<csprov_obs::Journal>| {
            let dev = NatDevice::with_table(
                EngineConfig::default(),
                NatTableConfig {
                    capacity: 2,
                    idle_timeout: SimDuration::from_secs(10),
                },
                NatTaps::default(),
            );
            if let Some(j) = &journal {
                dev.attach_journal(j.clone());
            }
            let mut sim = Simulator::new();
            dev.forward(&mut sim, pkt(0, Direction::Inbound), Box::new(|_, _| {}));
            dev.forward(&mut sim, pkt(1, Direction::Inbound), Box::new(|_, _| {}));
            sim.run();
            dev.forward(&mut sim, pkt(2, Direction::Inbound), Box::new(|_, _| {}));
            sim.run();
            let mut sim2 = Simulator::new();
            sim2.schedule_at(SimTime::from_secs(30), |_| {});
            sim2.run();
            let late = Packet {
                sent_at: SimTime::from_secs(30),
                ..pkt(2, Direction::Inbound)
            };
            dev.forward(&mut sim2, late, Box::new(|_, _| {}));
            sim2.run();
            (dev.nat_stats(), dev.table_len())
        };

        let (plain_stats, plain_len) = run(None);
        let journal = csprov_obs::Journal::new();
        let (stats, len) = run(Some(journal.clone()));
        assert_eq!(stats.table_drops_total(), plain_stats.table_drops_total());
        assert_eq!(stats.evictions.get(), plain_stats.evictions.get());
        assert_eq!(len, plain_len, "journaling must not perturb the table");

        let counts: std::collections::BTreeMap<_, _> =
            journal.counts_by_kind().into_iter().collect();
        // Sessions 0 and 1 insert, session 2 re-inserts after recovery.
        assert_eq!(counts.get("router.nat.insert"), Some(&3));
        assert_eq!(counts.get("router.nat.refuse"), Some(&1));
        assert_eq!(counts.get("router.nat.evict"), Some(&1));
        assert_eq!(counts.get("router.nat.table.level"), Some(&3));
        let refuse = journal
            .events()
            .iter()
            .find(|e| e.kind == "router.nat.refuse")
            .copied()
            .unwrap();
        assert_eq!(refuse.key, 2, "refusal keyed by session id");
        assert_eq!(refuse.value, 2, "table full at capacity 2");
        let evict = journal
            .events()
            .iter()
            .find(|e| e.kind == "router.nat.evict")
            .copied()
            .unwrap();
        assert_eq!(evict.value, 2, "both idle mappings reclaimed");
        assert_eq!(evict.sim_ns, SimTime::from_secs(30).as_nanos());
    }

    #[test]
    fn probe_traffic_bypasses_table() {
        let dev = NatDevice::new(EngineConfig::default(), NatTaps::default());
        let mut sim = Simulator::new();
        dev.forward(
            &mut sim,
            pkt(u32::MAX, Direction::Inbound),
            Box::new(|_, _| {}),
        );
        sim.run();
        assert_eq!(dev.table_len(), 0);
        assert_eq!(dev.stats().forwarded[0].get(), 1);
    }
}
