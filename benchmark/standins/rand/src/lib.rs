//! Stand-in for the `rand` 0.9 API surface the webcap crates use:
//! `StdRng`, `SeedableRng::seed_from_u64`, `Rng::{random, random_range}`.
//!
//! The generator is splitmix64 — the same mixer `webcap-parallel` and
//! `webcap-chaosnet` already carry — so streams are deterministic per
//! seed but are **not** the streams the published crate produces.

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::random` can produce.
pub trait Random {
    /// Draw one value.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::random_range` can draw from.
pub trait SampleRange<T> {
    /// Draw one value inside the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `lo + floor(word * span / 2^64)`: multiply-shift, bias below 2^-32
/// for every span the callers use.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "random_range: empty range");
                match (hi.wrapping_sub(lo) as u64).checked_add(1) {
                    Some(span) => lo.wrapping_add(below(rng, span) as $t),
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_ranges!(u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "random_range: empty range");
        self.start + (self.end - self.start) * f64::random(rng)
    }
}

/// The user-facing draw methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of an inferable type.
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Draw a value uniformly inside `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The splitmix64 sequence generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_draws_stay_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = a.random();
            assert_eq!(x, b.random::<f64>());
            assert!((0.0..1.0).contains(&x));
            let i = a.random_range(3..9usize);
            assert_eq!(i, b.random_range(3..9usize));
            assert!((3..9).contains(&i));
            let j = a.random_range(0..=4usize);
            assert_eq!(j, b.random_range(0..=4usize));
            assert!(j <= 4);
        }
        assert_ne!(
            StdRng::seed_from_u64(1).random::<u64>(),
            StdRng::seed_from_u64(2).random::<u64>()
        );
    }
}
