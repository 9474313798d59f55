//! Wall-clock pacing for live replay.
//!
//! A seeded run normally executes as fast as the host allows ("max speed"):
//! virtual time is decoupled from wall time. The live serving plane wants
//! the opposite — a run that unfolds at wall-clock speed (or an N× replay)
//! so subscribers watch the traffic the way an operator would watch a real
//! server. [`Pacer`] supplies that mapping: it anchors the run's virtual
//! origin to an [`Instant`] on first use and, for each paced `sim_ns`,
//! sleeps until the corresponding wall deadline `anchor + sim_ns / speed`.
//!
//! Pacing is *observe-only by construction*: the pacer only ever sleeps.
//! It cannot reorder, add or drop events, so a paced run computes exactly
//! what its `--speed max` twin computes — the determinism boundary tests
//! pin this. When the host falls behind the schedule (an N× replay faster
//! than the hardware), the pacer never tries to catch up by perturbing the
//! run; it just stops sleeping and reports the lag through [`PacerStats`],
//! which the serving plane surfaces as sim-vs-wall lag in `/status`.
//!
//! Cost model: a pacer is a kernel observer at stride 1
//! ([`Pacer::into_observer`]), so an installed one costs a call per
//! event and an uninstalled one nothing. It consults the wall clock only
//! once per *quantum* of virtual time (default: the virtual span that
//! corresponds to ~1 ms of wall time at the configured speed), so even a
//! `--speed 1000` replay performs ~1000 `Instant::now` calls per wall
//! second, not one per event.

use crate::engine::{Observer, Simulator};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay speed: how fast virtual time advances relative to wall time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Speed {
    /// Unpaced: run as fast as the hardware allows (the default, and
    /// exactly the pre-pacing behavior).
    Max,
    /// `Times(n)`: n seconds of virtual time per wall second. `Times(1.0)`
    /// is real time; `Times(8.0)` an 8× fast-forward; `Times(0.5)` slow
    /// motion.
    Times(f64),
}

impl Speed {
    /// The virtual-per-wall multiplier, `None` for [`Speed::Max`].
    pub fn multiplier(self) -> Option<f64> {
        match self {
            Speed::Max => None,
            Speed::Times(n) => Some(n),
        }
    }

    /// Whether this speed actually paces (`false` for [`Speed::Max`]).
    pub fn is_paced(self) -> bool {
        !matches!(self, Speed::Max)
    }
}

impl FromStr for Speed {
    type Err = String;

    /// Parses `"max"` or a positive, finite multiplier (`"1"`, `"8"`,
    /// `"0.5"`).
    fn from_str(s: &str) -> Result<Speed, String> {
        if s.eq_ignore_ascii_case("max") {
            return Ok(Speed::Max);
        }
        let n: f64 = s
            .parse()
            .map_err(|e| format!("bad speed {s:?}: {e} (expected a number or \"max\")"))?;
        if !n.is_finite() || n <= 0.0 {
            return Err(format!("speed must be positive and finite, got {s:?}"));
        }
        Ok(Speed::Times(n))
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Speed::Max => write!(f, "max"),
            Speed::Times(n) => write!(f, "{n}x"),
        }
    }
}

/// Shared, thread-safe pacing telemetry.
///
/// The pacer updates these from the simulation thread; any other thread
/// (the HTTP status endpoint) may read them. All values are nanoseconds
/// or counts; `lag_ns` is how far *behind* the wall schedule the run
/// currently is (0 while the pacer is keeping up and sleeping).
#[derive(Debug, Default)]
pub struct PacerStats {
    paced_sim_ns: AtomicU64,
    lag_ns: AtomicU64,
    sleeps: AtomicU64,
    slept_ns: AtomicU64,
}

impl PacerStats {
    /// Last virtual timestamp the pacer saw.
    pub fn paced_sim_ns(&self) -> u64 {
        self.paced_sim_ns.load(Ordering::Relaxed)
    }

    /// Current lag behind the wall schedule, in nanoseconds (0 = on time).
    pub fn lag_ns(&self) -> u64 {
        self.lag_ns.load(Ordering::Relaxed)
    }

    /// Number of sleeps performed so far.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }

    /// Total time slept, in nanoseconds.
    pub fn slept_ns(&self) -> u64 {
        self.slept_ns.load(Ordering::Relaxed)
    }
}

/// Maps virtual time onto wall deadlines and sleeps to meet them.
///
/// Install with [`Pacer::into_observer`], which calls [`Pacer::pace`]
/// after each executed event. A `Speed::Max` pacer is a no-op on every
/// call.
#[derive(Debug)]
pub struct Pacer {
    speed: Speed,
    anchor: Option<Instant>,
    next_pace_ns: u64,
    quantum_ns: u64,
    stats: Arc<PacerStats>,
}

/// Wall interval between clock checks the default quantum aims for.
const TARGET_CHECK_WALL_NS: f64 = 1_000_000.0;

impl Pacer {
    /// A pacer at `speed` with the default check quantum (~1 ms of wall
    /// time between wall-clock consultations).
    pub fn new(speed: Speed) -> Pacer {
        let quantum_ns = match speed.multiplier() {
            Some(m) => (TARGET_CHECK_WALL_NS * m).clamp(1.0, 1e18) as u64,
            None => u64::MAX,
        };
        Pacer::with_quantum(speed, quantum_ns)
    }

    /// A pacer that consults the wall clock at most once per `quantum_ns`
    /// of virtual time.
    pub fn with_quantum(speed: Speed, quantum_ns: u64) -> Pacer {
        Pacer {
            speed,
            anchor: None,
            next_pace_ns: 0,
            quantum_ns: quantum_ns.max(1),
            stats: Arc::new(PacerStats::default()),
        }
    }

    /// The configured speed.
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// A shared handle onto the pacing telemetry, readable from any thread.
    pub fn stats(&self) -> Arc<PacerStats> {
        self.stats.clone()
    }

    /// This pacer as a kernel observer, with its stride (1): it paces
    /// after every executed event. Install with
    /// [`crate::Simulator::add_observer`].
    pub fn into_observer(mut self) -> (u64, Observer) {
        (
            1,
            Box::new(move |sim: &Simulator| self.pace(sim.now().as_nanos())),
        )
    }

    /// The wall deadline for `sim_ns`, as nanoseconds since the anchor.
    ///
    /// Pure in `sim_ns` and monotonically nondecreasing — the property the
    /// pacing tests pin. `Speed::Max` maps everything to deadline 0
    /// (always already due).
    pub fn deadline_ns(&self, sim_ns: u64) -> u64 {
        match self.speed.multiplier() {
            Some(m) => (sim_ns as f64 / m) as u64,
            None => 0,
        }
    }

    /// Sleeps (if needed) until `sim_ns`'s wall deadline.
    ///
    /// The first call anchors the schedule; subsequent calls cheaply
    /// return until a quantum of virtual time has passed, then compare the
    /// deadline against the anchored wall clock. Falling behind schedule
    /// is recorded as lag, never corrected by touching the run.
    #[inline]
    pub fn pace(&mut self, sim_ns: u64) {
        if sim_ns < self.next_pace_ns || !self.speed.is_paced() {
            return;
        }
        self.next_pace_ns = sim_ns.saturating_add(self.quantum_ns);
        let anchor = *self.anchor.get_or_insert_with(Instant::now);
        let deadline = Duration::from_nanos(self.deadline_ns(sim_ns));
        let elapsed = anchor.elapsed();
        self.stats.paced_sim_ns.store(sim_ns, Ordering::Relaxed);
        if deadline > elapsed {
            let nap = deadline - elapsed;
            self.stats.sleeps.fetch_add(1, Ordering::Relaxed);
            self.stats
                .slept_ns
                .fetch_add(nap.as_nanos() as u64, Ordering::Relaxed);
            self.stats.lag_ns.store(0, Ordering::Relaxed);
            std::thread::sleep(nap);
        } else {
            self.stats
                .lag_ns
                .store((elapsed - deadline).as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_parses_max_and_multipliers() {
        assert_eq!("max".parse::<Speed>(), Ok(Speed::Max));
        assert_eq!("MAX".parse::<Speed>(), Ok(Speed::Max));
        assert_eq!("1".parse::<Speed>(), Ok(Speed::Times(1.0)));
        assert_eq!("8".parse::<Speed>(), Ok(Speed::Times(8.0)));
        assert_eq!("0.5".parse::<Speed>(), Ok(Speed::Times(0.5)));
        assert!("0".parse::<Speed>().is_err());
        assert!("-2".parse::<Speed>().is_err());
        assert!("inf".parse::<Speed>().is_err());
        assert!("fast".parse::<Speed>().is_err());
        assert_eq!(Speed::Max.to_string(), "max");
        assert_eq!(Speed::Times(8.0).to_string(), "8x");
    }

    #[test]
    fn deadlines_are_monotone_in_sim_time() {
        // The pacing-clock monotonicity contract, under 1x, 8x and max.
        for speed in [Speed::Times(1.0), Speed::Times(8.0), Speed::Max] {
            let pacer = Pacer::new(speed);
            let mut prev = 0u64;
            for sim_ns in (0..2_000_000u64).step_by(13_337) {
                let d = pacer.deadline_ns(sim_ns);
                assert!(
                    d >= prev,
                    "{speed}: deadline regressed at sim_ns={sim_ns}: {d} < {prev}"
                );
                prev = d;
            }
        }
    }

    #[test]
    fn deadline_scales_inversely_with_speed() {
        let one = Pacer::new(Speed::Times(1.0));
        let eight = Pacer::new(Speed::Times(8.0));
        assert_eq!(one.deadline_ns(80_000_000), 80_000_000);
        assert_eq!(eight.deadline_ns(80_000_000), 10_000_000);
        assert_eq!(Pacer::new(Speed::Max).deadline_ns(80_000_000), 0);
    }

    #[test]
    fn max_speed_never_sleeps() {
        let mut pacer = Pacer::new(Speed::Max);
        let t0 = Instant::now();
        for sim_ns in 0..100_000u64 {
            pacer.pace(sim_ns * 1_000_000);
        }
        assert_eq!(pacer.stats().sleeps(), 0);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "max-speed pacing must be near-free"
        );
    }

    #[test]
    fn paced_run_takes_at_least_scaled_wall_time() {
        // 80 ms of virtual time at 8x must take >= ~10 ms of wall time.
        let mut pacer = Pacer::with_quantum(Speed::Times(8.0), 1_000_000);
        let t0 = Instant::now();
        for step in 0..80u64 {
            pacer.pace(step * 1_000_000);
        }
        pacer.pace(80_000_000);
        assert!(
            t0.elapsed() >= Duration::from_millis(9),
            "8x replay of 80 ms finished in {:?}",
            t0.elapsed()
        );
        assert!(pacer.stats().sleeps() > 0);
        assert_eq!(pacer.stats().paced_sim_ns(), 80_000_000);
    }

    #[test]
    fn quantum_limits_clock_checks() {
        // Quantum 10 ms of virtual time: 100 pace calls spanning 50 ms of
        // virtual time consult the clock at most ~6 times.
        let mut pacer = Pacer::with_quantum(Speed::Times(1000.0), 10_000_000);
        for step in 0..100u64 {
            pacer.pace(step * 500_000);
        }
        assert!(pacer.stats().sleeps() <= 6);
    }

    #[test]
    fn lag_is_reported_not_corrected() {
        // Anchor, wait, then pace a deadline that has already passed: the
        // pacer must record lag instead of sleeping.
        let mut pacer = Pacer::with_quantum(Speed::Times(1000.0), 1);
        pacer.pace(0);
        std::thread::sleep(Duration::from_millis(5));
        // 1 us of virtual time at 1000x => wall deadline 1 ns: long gone.
        pacer.pace(1_000);
        assert!(pacer.stats().lag_ns() > 0, "late schedule must report lag");
    }
}
