//! Simulation time.
//!
//! Virtual time is kept in integer nanoseconds so that event ordering is
//! exact and runs are bit-for-bit reproducible. [`SimTime`] is an instant
//! (nanoseconds since the start of the simulation) and [`SimDuration`] a
//! span; both are thin wrappers over `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, as nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64`, exactly, without a call to the software
/// `f64::round`.
///
/// Below 2^52 a non-negative `x` splits exactly into its whole part and
/// its fraction, so rounding half away from zero is one comparison. Every
/// other input (negative, NaN, or 2^52 and up, where every `f64` is already
/// whole) takes `f64::round`, with the cast's saturation.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    /// 2^52, the first `f64` whose ulp is 1.
    const WHOLE_FROM: f64 = 4_503_599_627_370_496.0;
    if (0.0..WHOLE_FROM).contains(&x) {
        let whole = x as i64;
        let half_up = x - whole as f64 >= 0.5;
        (whole + i64::from(half_up)) as u64
    } else {
        x.round() as u64
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Builds an instant from fractional seconds, rounding to nanoseconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimTime(round_to_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The index of the interval of width `bin` containing this instant.
    ///
    /// This is the binning primitive used throughout the analysis crate:
    /// `t.bin_index(SimDuration::from_millis(10))` is the 10 ms frame number.
    #[inline]
    pub fn bin_index(self, bin: SimDuration) -> u64 {
        assert!(bin.0 > 0, "bin width must be positive");
        self.0 / bin.0
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Builds a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * NANOS_PER_SEC)
    }

    /// Builds a span from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * NANOS_PER_SEC)
    }

    /// Builds a span from fractional seconds, rounding to nanoseconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be non-negative, got {s}"
        );
        SimDuration(round_to_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this is the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by an integer factor.
    pub const fn mul_u64(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Scales the span by a float factor, rounding to nanoseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite());
        SimDuration(round_to_u64(self.0 as f64 * k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / NANOS_PER_SEC;
        let sub = self.0 % NANOS_PER_SEC;
        write!(f, "{s}.{:09}s", sub)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.0 as f64 / NANOS_PER_MILLI as f64)
        } else if self.0 >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.0 as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5000));
        assert_eq!(SimTime::from_micros(7), SimTime::from_nanos(7000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_nanos(), 10_250 * NANOS_PER_MILLI);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / 4, d);
        assert_eq!(SimDuration::from_secs(1) / d, 4);
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_secs_f64(0.05);
        assert_eq!(d, SimDuration::from_millis(50));
        assert!((d.as_secs_f64() - 0.05).abs() < 1e-12);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1500));
    }

    #[test]
    fn round_to_u64_matches_f64_round() {
        let expect = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        let next = |x: f64, step: i64| f64::from_bits((x.to_bits() as i64 + step) as u64);
        let two52 = 4_503_599_627_370_496.0f64;
        // Every k + 0.5 that an f64 holds exactly, and one ulp either side,
        // densely at the small values times take and sparsely up to 2^52.
        let mut ks: Vec<u64> = (0..100_000).collect();
        ks.extend((0..52).flat_map(|e| {
            let p = 1u64 << e;
            [p - 1, p, p + 1]
        }));
        ks.push((1 << 52) - 1);
        for k in ks {
            let half = k as f64 + 0.5;
            assert!(half < two52 && half - k as f64 == 0.5, "k = {k}");
            for x in [half, next(half, -1), next(half, 1)] {
                expect(x);
            }
        }
        // Zero, both signs, and the edges of the exact range.
        for x in [0.0, -0.0, next(0.0, 1), 0.5, next(0.5, -1), 1.0] {
            expect(x);
        }
        for x in [two52 - 1.0, next(two52, -1), two52, two52 + 1.0] {
            expect(x);
        }
        // Past 2^52 it falls back to `f64::round`, saturating the cast.
        for x in [2f64.powi(53), 2f64.powi(63), 1e19, 2f64.powi(64), 1e300] {
            expect(x);
        }
        for x in [
            f64::INFINITY,
            f64::NAN,
            -0.4,
            -0.5,
            -1.5,
            -1e20,
            f64::NEG_INFINITY,
        ] {
            expect(x);
        }
        // The nanosecond conversions round through it.
        assert_eq!(SimDuration::from_secs_f64(2.5e-9).as_nanos(), 3);
        assert_eq!(SimTime::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_nanos(5).mul_f64(0.5).as_nanos(), 3);
    }

    #[test]
    fn bin_index() {
        let bin = SimDuration::from_millis(10);
        assert_eq!(SimTime::ZERO.bin_index(bin), 0);
        assert_eq!(SimTime::from_nanos(9_999_999).bin_index(bin), 0);
        assert_eq!(SimTime::from_millis(10).bin_index(bin), 1);
        assert_eq!(SimTime::from_millis(25).bin_index(bin), 2);
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_millis(50).to_string(), "50.000ms");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
