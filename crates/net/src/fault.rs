//! Fault injection, in the spirit of smoltcp's example harnesses.
//!
//! A [`FaultInjector`] sits in front of a delivery path and decides each
//! packet's [`Fate`]: pass, delay (reordering), duplicate, or drop for one
//! of several causes — uniform random loss, Gilbert–Elliott bursty loss,
//! corruption (flagged as a drop with a distinct counter — the simulator
//! moves metadata, so a "corrupted" game datagram is discarded by the
//! receiver's checksum exactly as a real one would be), and token-bucket
//! rate shaping.
//!
//! Two invariants make chaos campaigns usable:
//!
//! 1. **Replayability** — all randomness comes from the injector's own
//!    seeded [`RngStream`], and a disabled impairment consumes *no* RNG
//!    draws, so an all-zero config is a provable no-op and any campaign is
//!    reproducible bit-for-bit from its seed.
//! 2. **Conservation** — every offered packet lands in exactly one fate
//!    counter: `offered = passed + reordered + duplicated + dropped +
//!    dropped_burst + corrupted + shaped` (checked by
//!    [`FaultStats::conservation_holds`]).

use crate::packet::Packet;
use csprov_obs::{Counter, Journal, MetricsRegistry};
use csprov_sim::{RngStream, SimDuration, SimTime, TokenBucket};

/// Impairment configuration. The default is a no-op.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped (uniform, memoryless).
    pub drop_chance: f64,
    /// Probability a packet is corrupted (discarded at the receiver).
    pub corrupt_chance: f64,
    /// Optional rate shaping as a token bucket in packets.
    pub rate_limit: Option<RateLimit>,
    /// Optional Gilbert–Elliott two-state bursty loss.
    pub burst_loss: Option<BurstLoss>,
    /// Optional reordering: a packet is occasionally held back and
    /// re-enqueued through the scheduler after a jittered delay.
    pub reorder: Option<ReorderConfig>,
    /// Optional duplication: a packet is occasionally delivered twice, the
    /// copy after a jittered delay.
    pub duplicate: Option<DuplicateConfig>,
}

impl FaultConfig {
    /// True when every impairment is disabled — the injector is a no-op
    /// and consumes no RNG draws.
    pub fn is_noop(&self) -> bool {
        self.drop_chance <= 0.0
            && self.corrupt_chance <= 0.0
            && self.rate_limit.is_none()
            && self.burst_loss.is_none()
            && self.reorder.is_none()
            && self.duplicate.is_none()
    }
}

/// Token-bucket shaping parameters, in packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket size in packets.
    pub burst: f64,
    /// Refill rate in packets per second.
    pub packets_per_sec: f64,
}

/// Gilbert–Elliott bursty-loss parameters.
///
/// A two-state Markov chain stepped once per offered packet: in `Good` the
/// loss probability is `loss_good` (usually 0), in `Bad` it is `loss_bad`
/// (usually near 1). `p_enter`/`p_exit` control burst frequency and mean
/// burst length (`1 / p_exit` packets) — the classic model for last-mile
/// loss, where drops cluster instead of arriving memorylessly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-packet probability of entering the bad state from good.
    pub p_enter: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

/// Reordering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderConfig {
    /// Probability a packet is held back.
    pub chance: f64,
    /// Minimum hold-back delay.
    pub delay_min: SimDuration,
    /// Maximum hold-back delay.
    pub delay_max: SimDuration,
}

/// Duplication parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateConfig {
    /// Probability a packet is duplicated.
    pub chance: f64,
    /// Minimum delay of the duplicate copy.
    pub delay_min: SimDuration,
    /// Maximum delay of the duplicate copy.
    pub delay_max: SimDuration,
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Uniform random loss (`drop_chance`).
    Random,
    /// Gilbert–Elliott bursty loss.
    Burst,
    /// Corruption (lost to the application at the receiver).
    Corrupt,
    /// Token-bucket rate shaping.
    Shaped,
}

/// The decided fate of one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver immediately.
    Deliver,
    /// Deliver after the given delay (reordering).
    DeliverDelayed(SimDuration),
    /// Deliver immediately *and* deliver a copy after the given delay.
    Duplicate(SimDuration),
    /// Do not deliver.
    Drop(DropCause),
}

/// Counters for each impairment cause. Shared handles, like [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Packets offered to the injector.
    pub offered: Counter,
    /// Packets passed through unharmed.
    pub passed: Counter,
    /// Packets dropped by `drop_chance`.
    pub dropped: Counter,
    /// Packets dropped by Gilbert–Elliott bursty loss.
    pub dropped_burst: Counter,
    /// Packets corrupted (and therefore lost to the application).
    pub corrupted: Counter,
    /// Packets dropped by rate shaping.
    pub shaped: Counter,
    /// Packets held back for delayed delivery.
    pub reordered: Counter,
    /// Packets delivered twice.
    pub duplicated: Counter,
}

impl FaultStats {
    /// Packets the injector let through (counting a duplicated packet once).
    pub fn delivered(&self) -> u64 {
        self.passed.get() + self.reordered.get() + self.duplicated.get()
    }

    /// Packets dropped for any cause.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.get() + self.dropped_burst.get() + self.corrupted.get() + self.shaped.get()
    }

    /// The conservation identity: every offered packet has exactly one fate.
    pub fn conservation_holds(&self) -> bool {
        self.offered.get() == self.delivered() + self.dropped_total()
    }

    /// Reports every counter into `registry`'s `net.fault.*` totals;
    /// `dropped` reports as `net.fault.dropped_random`.
    pub fn report_to(&self, registry: &MetricsRegistry) {
        for (name, counter) in [
            ("net.fault.offered", &self.offered),
            ("net.fault.passed", &self.passed),
            ("net.fault.dropped_random", &self.dropped),
            ("net.fault.dropped_burst", &self.dropped_burst),
            ("net.fault.corrupted", &self.corrupted),
            ("net.fault.shaped", &self.shaped),
            ("net.fault.reordered", &self.reordered),
            ("net.fault.duplicated", &self.duplicated),
        ] {
            counter.report_to(&registry.counter(name));
        }
    }
}

/// Applies [`FaultConfig`] to a packet stream.
pub struct FaultInjector {
    config: FaultConfig,
    rng: RngStream,
    bucket: Option<TokenBucket>,
    in_bad_state: bool,
    stats: FaultStats,
    journal: Option<Journal>,
}

impl FaultInjector {
    /// Creates an injector.
    pub fn new(config: FaultConfig, rng: RngStream) -> Self {
        Self::with_stats(config, rng, FaultStats::default())
    }

    /// Creates an injector reporting into an existing stats bundle (so
    /// several injectors — e.g. one per direction — can share totals).
    pub fn with_stats(config: FaultConfig, rng: RngStream, stats: FaultStats) -> Self {
        let bucket = config
            .rate_limit
            .map(|rl| TokenBucket::new(rl.packets_per_sec, rl.burst));
        FaultInjector {
            config,
            rng,
            bucket,
            in_bad_state: false,
            stats,
            journal: None,
        }
    }

    /// Attaches a trace journal: every non-`Deliver` fate is recorded as a
    /// `net.fault.*` event keyed by session. Write-only — attaching a
    /// journal cannot change any fate or RNG draw.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Shared handles to the impairment counters.
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Releases the RNG stream (used by tests to prove the no-op guarantee:
    /// an all-zero injector must hand back an untouched stream).
    pub fn into_rng(self) -> RngStream {
        self.rng
    }

    fn jitter(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        let lo_ns = lo.as_nanos();
        let hi_ns = hi.as_nanos().max(lo_ns);
        SimDuration::from_nanos(self.rng.next_range(lo_ns, hi_ns))
    }

    /// Decides the fate of `packet` at time `now`.
    ///
    /// Disabled impairments consume no RNG draws; an all-zero config always
    /// returns [`Fate::Deliver`] with the stream untouched.
    pub fn decide(&mut self, now: SimTime, packet: &Packet) -> Fate {
        let fate = self.decide_inner(now);
        if let Some(j) = &self.journal {
            let kind = match fate {
                Fate::Deliver => None,
                Fate::DeliverDelayed(_) => Some("net.fault.reorder"),
                Fate::Duplicate(_) => Some("net.fault.duplicate"),
                Fate::Drop(DropCause::Random) => Some("net.fault.drop.random"),
                Fate::Drop(DropCause::Burst) => Some("net.fault.drop.burst"),
                Fate::Drop(DropCause::Corrupt) => Some("net.fault.drop.corrupt"),
                Fate::Drop(DropCause::Shaped) => Some("net.fault.drop.shaped"),
            };
            if let Some(kind) = kind {
                j.emit(
                    now.as_nanos(),
                    kind,
                    u64::from(packet.session),
                    u64::from(packet.app_len),
                );
            }
        }
        fate
    }

    fn decide_inner(&mut self, now: SimTime) -> Fate {
        self.stats.offered.incr();
        if let Some(ge) = self.config.burst_loss {
            let flip = if self.in_bad_state {
                ge.p_exit
            } else {
                ge.p_enter
            };
            if flip > 0.0 && self.rng.chance(flip) {
                self.in_bad_state = !self.in_bad_state;
            }
            let loss = if self.in_bad_state {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if loss > 0.0 && self.rng.chance(loss) {
                self.stats.dropped_burst.incr();
                return Fate::Drop(DropCause::Burst);
            }
        }
        if self.config.drop_chance > 0.0 && self.rng.chance(self.config.drop_chance) {
            self.stats.dropped.incr();
            return Fate::Drop(DropCause::Random);
        }
        if self.config.corrupt_chance > 0.0 && self.rng.chance(self.config.corrupt_chance) {
            self.stats.corrupted.incr();
            return Fate::Drop(DropCause::Corrupt);
        }
        if let Some(bucket) = &mut self.bucket {
            if !bucket.try_consume(now, 1.0) {
                self.stats.shaped.incr();
                return Fate::Drop(DropCause::Shaped);
            }
        }
        if let Some(re) = self.config.reorder {
            if re.chance > 0.0 && self.rng.chance(re.chance) {
                self.stats.reordered.incr();
                return Fate::DeliverDelayed(self.jitter(re.delay_min, re.delay_max));
            }
        }
        if let Some(dup) = self.config.duplicate {
            if dup.chance > 0.0 && self.rng.chance(dup.chance) {
                self.stats.duplicated.incr();
                return Fate::Duplicate(self.jitter(dup.delay_min, dup.delay_max));
            }
        }
        self.stats.passed.incr();
        Fate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{client_endpoint, server_endpoint};
    use crate::packet::{Direction, PacketKind};

    fn pkt() -> Packet {
        Packet {
            src: client_endpoint(0),
            dst: server_endpoint(),
            app_len: 40,
            kind: PacketKind::ClientCommand,
            session: 0,
            direction: Direction::Inbound,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn default_config_passes_everything() {
        let mut inj = FaultInjector::new(FaultConfig::default(), RngStream::new(1));
        for _ in 0..1000 {
            assert_eq!(inj.decide(SimTime::ZERO, &pkt()), Fate::Deliver);
        }
        assert_eq!(inj.stats().passed.get(), 1000);
        assert!(inj.stats().conservation_holds());
    }

    #[test]
    fn default_config_consumes_no_rng() {
        let mut inj = FaultInjector::new(FaultConfig::default(), RngStream::new(42));
        for _ in 0..100 {
            assert_eq!(inj.decide(SimTime::ZERO, &pkt()), Fate::Deliver);
        }
        let mut released = inj.into_rng();
        let mut fresh = RngStream::new(42);
        for _ in 0..8 {
            assert_eq!(released.next_u64_raw(), fresh.next_u64_raw());
        }
    }

    #[test]
    fn drop_chance_statistics() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.15,
                ..Default::default()
            },
            RngStream::new(2),
        );
        let n = 20_000;
        let passed = (0..n)
            .filter(|_| inj.decide(SimTime::ZERO, &pkt()) == Fate::Deliver)
            .count();
        let frac = passed as f64 / n as f64;
        assert!((frac - 0.85).abs() < 0.01, "pass fraction {frac}");
        assert_eq!(inj.stats().dropped.get() as usize + passed, n);
        assert!(inj.stats().conservation_holds());
    }

    #[test]
    fn corrupt_counted_separately() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                corrupt_chance: 0.5,
                ..Default::default()
            },
            RngStream::new(3),
        );
        for _ in 0..1000 {
            inj.decide(SimTime::ZERO, &pkt());
        }
        let s = inj.stats();
        assert_eq!(s.dropped.get(), 0);
        assert!(s.corrupted.get() > 400 && s.corrupted.get() < 600);
    }

    #[test]
    fn rate_limit_shapes() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                rate_limit: Some(RateLimit {
                    burst: 4.0,
                    packets_per_sec: 4.0,
                }),
                ..Default::default()
            },
            RngStream::new(4),
        );
        // Burst of 10 at t=0: only the 4-token bucket passes.
        let t0 = SimTime::ZERO;
        let passed = (0..10)
            .filter(|_| inj.decide(t0, &pkt()) == Fate::Deliver)
            .count();
        assert_eq!(passed, 4);
        assert_eq!(inj.stats().shaped.get(), 6);
        // A second later, 4 more tokens have accrued.
        let t1 = t0 + SimDuration::from_secs(1);
        let passed = (0..10)
            .filter(|_| inj.decide(t1, &pkt()) == Fate::Deliver)
            .count();
        assert_eq!(passed, 4);
        assert!(inj.stats().conservation_holds());
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // Mean burst length 1/p_exit = 10 packets; loss only in bad state.
        let mut inj = FaultInjector::new(
            FaultConfig {
                burst_loss: Some(BurstLoss {
                    p_enter: 0.01,
                    p_exit: 0.1,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
                ..Default::default()
            },
            RngStream::new(5),
        );
        let n = 50_000;
        let mut fates = Vec::with_capacity(n);
        for _ in 0..n {
            fates.push(matches!(
                inj.decide(SimTime::ZERO, &pkt()),
                Fate::Drop(DropCause::Burst)
            ));
        }
        let s = inj.stats();
        let loss = s.dropped_burst.get() as f64 / n as f64;
        // Stationary bad-state occupancy = p_enter/(p_enter+p_exit) ≈ 9%.
        assert!((0.04..0.16).contains(&loss), "burst loss {loss}");
        assert!(s.conservation_holds());
        // Burstiness: the chance a drop follows a drop must far exceed the
        // marginal loss rate (drops cluster).
        let pairs = fates.windows(2).filter(|w| w[0]).count();
        let after_drop = fates.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = after_drop as f64 / pairs as f64;
        assert!(cond > 3.0 * loss, "P(drop|drop) {cond} vs marginal {loss}");
    }

    #[test]
    fn reorder_and_duplicate_fates() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                reorder: Some(ReorderConfig {
                    chance: 0.3,
                    delay_min: SimDuration::from_millis(5),
                    delay_max: SimDuration::from_millis(50),
                }),
                duplicate: Some(DuplicateConfig {
                    chance: 0.3,
                    delay_min: SimDuration::from_millis(1),
                    delay_max: SimDuration::from_millis(10),
                }),
                ..Default::default()
            },
            RngStream::new(6),
        );
        let n = 10_000;
        let mut delayed = 0;
        let mut dups = 0;
        for _ in 0..n {
            match inj.decide(SimTime::ZERO, &pkt()) {
                Fate::DeliverDelayed(d) => {
                    delayed += 1;
                    assert!(
                        d >= SimDuration::from_millis(5) && d <= SimDuration::from_millis(50),
                        "delay {d:?} out of band"
                    );
                }
                Fate::Duplicate(d) => {
                    dups += 1;
                    assert!(d >= SimDuration::from_millis(1) && d <= SimDuration::from_millis(10));
                }
                Fate::Deliver => {}
                Fate::Drop(_) => unreachable!("no drop impairments configured"),
            }
        }
        let s = inj.stats();
        assert_eq!(s.reordered.get(), delayed);
        assert_eq!(s.duplicated.get(), dups);
        // Reorder is decided first: ~30% reorder, ~21% duplicate.
        assert!((2_500..3_500).contains(&delayed), "reordered {delayed}");
        assert!((1_600..2_600).contains(&dups), "duplicated {dups}");
        assert!(s.conservation_holds());
    }

    #[test]
    fn journal_records_impairment_decisions_without_changing_them() {
        let config = FaultConfig {
            drop_chance: 0.3,
            reorder: Some(ReorderConfig {
                chance: 0.2,
                delay_min: SimDuration::from_millis(1),
                delay_max: SimDuration::from_millis(2),
            }),
            ..Default::default()
        };
        let fates = |journal: Option<Journal>| {
            let mut inj = FaultInjector::new(config.clone(), RngStream::new(9));
            if let Some(j) = journal {
                inj.attach_journal(j);
            }
            (0..500)
                .map(|_| inj.decide(SimTime::from_secs(1), &pkt()))
                .collect::<Vec<_>>()
        };
        let journal = Journal::new();
        let with = fates(Some(journal.clone()));
        let without = fates(None);
        assert_eq!(with, without, "journal must not perturb fates");
        let drops = with
            .iter()
            .filter(|f| matches!(f, Fate::Drop(DropCause::Random)))
            .count() as u64;
        let reorders = with
            .iter()
            .filter(|f| matches!(f, Fate::DeliverDelayed(_)))
            .count() as u64;
        assert!(drops > 0 && reorders > 0, "config must exercise both paths");
        let counts = journal.counts_by_kind();
        assert_eq!(
            counts,
            vec![
                ("net.fault.drop.random", drops),
                ("net.fault.reorder", reorders)
            ]
        );
        assert!(journal
            .events()
            .iter()
            .all(|e| e.sim_ns == SimTime::from_secs(1).as_nanos()));
    }

    #[test]
    fn shared_stats_accumulate_across_injectors() {
        let stats = FaultStats::default();
        let mut a = FaultInjector::with_stats(
            FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            RngStream::new(7),
            stats.clone(),
        );
        let mut b = FaultInjector::with_stats(FaultConfig::default(), RngStream::new(8), stats);
        a.decide(SimTime::ZERO, &pkt());
        b.decide(SimTime::ZERO, &pkt());
        let s = a.stats();
        assert_eq!(s.offered.get(), 2);
        assert_eq!(s.dropped.get(), 1);
        assert_eq!(s.passed.get(), 1);
        assert!(s.conservation_holds());
    }
}
