//! Simulation time: a newtype over integer microseconds.
//!
//! Integer time keeps the event queue ordering exact and the simulation
//! bit-for-bit reproducible across runs and platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Construct from seconds, rounding to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or 2⁶⁴ µs or more.
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be a nonnegative finite number"
        );
        SimTime(round_to_micros(s, "time overflow"))
    }

    /// Microseconds since simulation start.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference in seconds (`self − earlier`).
    pub fn seconds_since(&self, earlier: SimTime) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect(TIME_OVERFLOW))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Construct from seconds, rounding to the nearest microsecond and
    /// clamping tiny positive values up to 1 µs so durations representing
    /// real work never collapse to zero.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or 2⁶⁴ µs or more.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be a nonnegative finite number"
        );
        let us = round_to_micros(s, "duration overflow");
        if us == 0 && s > 0.0 {
            SimDuration(1)
        } else {
            SimDuration(us)
        }
    }

    /// Microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect(TIME_OVERFLOW))
    }
}

/// What overflowing `u64` microseconds in an addition panics with: wrapping
/// would schedule an event in the past.
const TIME_OVERFLOW: &str = "simulated time overflows 2^64 microseconds";

/// `s` seconds in whole microseconds, rounded to the nearest, halves away
/// from zero, for finite `s >= 0`.
///
/// # Panics
///
/// Panics with `overflow` if the result is 2⁶⁴ µs or more.
fn round_to_micros(s: f64, overflow: &str) -> u64 {
    // 2⁶⁴: no `f64` lies in [2⁶⁴ − ½, 2⁶⁴), so the rounded value fits
    // exactly when the unrounded one is below it.
    const LIMIT: f64 = 18_446_744_073_709_551_616.0;
    let us = s * 1e6;
    assert!(us < LIMIT, "{overflow}");
    round_to_u64(us)
}

// Integer forms of `f64::round` and `f64::ceil`, which the baseline x86-64
// target makes library calls. Both are exact on [0, 2⁶⁴): the truncation to
// `u64` is exact, and so is the remainder after it — below 2⁵³ by
// Sterbenz's lemma, and from there on every `f64` is a whole number and
// the remainder is 0.

/// `x.round() as u64` for `0 <= x < 2⁶⁴`.
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

/// `x.ceil() as u64` for every `x`: also above 2⁶⁴ (saturating) and for
/// NaN (0), as the cast does.
pub(crate) fn ceil_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from((whole as f64) < x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(2.0) + SimDuration::from_secs_f64(0.5);
        assert_eq!(t, SimTime::from_secs_f64(2.5));
        let d = SimTime::from_secs_f64(3.0) - SimTime::from_secs_f64(1.0);
        assert_eq!(d, SimDuration::from_secs_f64(2.0));
    }

    #[test]
    fn subtraction_saturates() {
        let d = SimTime::from_secs_f64(1.0) - SimTime::from_secs_f64(5.0);
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(
            SimTime::from_secs_f64(1.0).seconds_since(SimTime::from_secs_f64(4.0)),
            0.0
        );
    }

    #[test]
    fn tiny_positive_duration_does_not_vanish() {
        let d = SimDuration::from_secs_f64(1e-9);
        assert_eq!(d.as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::from_micros(5) < SimTime::from_micros(6));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    /// 2⁶⁴ µs in seconds: multiplied back by 1e6 it is exactly 2⁶⁴.
    fn two_pow_64_us_in_s() -> f64 {
        let s = 2f64.powi(64) / 1e6;
        assert_eq!(s * 1e6, 2f64.powi(64));
        s
    }

    #[test]
    #[should_panic(expected = "time overflow")]
    fn time_of_two_pow_64_us_panics() {
        let _ = SimTime::from_secs_f64(two_pow_64_us_in_s());
    }

    #[test]
    #[should_panic(expected = "duration overflow")]
    fn duration_of_two_pow_64_us_panics() {
        let _ = SimDuration::from_secs_f64(two_pow_64_us_in_s());
    }

    #[test]
    #[should_panic(expected = "simulated time overflows 2^64 microseconds")]
    fn adding_past_the_last_microsecond_panics() {
        let mut t = SimTime::from_micros(u64::MAX - 1);
        t += SimDuration::from_micros(1);
        let _ = t + SimDuration::from_micros(1);
    }

    #[test]
    fn integer_rounding_matches_the_float_forms() {
        let mut xs = vec![0.0, 1.0, 2f64.powi(52), 2f64.powi(53), 2f64.powi(63)];
        for k in 0..2_000u32 {
            let k = f64::from(k);
            xs.extend([k, k + 0.5, k + 0.25, k / 7.0, k * 1e6 / 3.0, k * 1e12 + 0.5]);
        }
        for base in [
            1.0,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            2f64.powi(52) - 0.5,
            2f64.powi(53),
        ] {
            // The two neighbouring `f64`s of each value as well.
            xs.extend([
                f64::from_bits(base.to_bits() - 1),
                base,
                f64::from_bits(base.to_bits() + 1),
            ]);
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "round {x:e}");
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil {x:e}");
        }
        for x in [f64::NAN, f64::INFINITY, 2f64.powi(64), 2f64.powi(70), -0.0] {
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil {x:e}");
        }
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250s");
    }
}
