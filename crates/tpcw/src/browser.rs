//! Emulated-browser (EB) think times: the pause of the TPC-W Remote
//! Browser Emulator between a response and the next request.
//!
//! Each EB cycles through *think → request → response → think*. Think
//! times follow the spec's truncated negative-exponential distribution
//! (mean 7 s, cap 70 s). The simulator owns the EBs: it draws each
//! request type from the current [`Mix`](crate::Mix) and each think time
//! from a [`ThinkTime`].

use rand::Rng;
use serde::{Deserialize, Serialize};

/// TPC-W think-time distribution: negative exponential with a configurable
/// mean, truncated at `cap` (spec: mean 7 s, cap 70 s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThinkTime {
    mean_s: f64,
    cap_s: f64,
}

impl ThinkTime {
    /// Create a think-time distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mean_s <= 0` or `cap_s < mean_s`.
    pub fn new(mean_s: f64, cap_s: f64) -> ThinkTime {
        assert!(mean_s > 0.0 && mean_s.is_finite(), "mean must be positive");
        assert!(cap_s >= mean_s, "cap must be at least the mean");
        ThinkTime { mean_s, cap_s }
    }

    /// The TPC-W specification defaults: mean 7 s, cap 70 s.
    pub fn tpcw() -> ThinkTime {
        ThinkTime::new(7.0, 70.0)
    }

    /// Mean think time in seconds.
    pub fn mean_s(&self) -> f64 {
        self.mean_s
    }

    /// Draw one think time in seconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(1e-12);
        (-u.ln() * self.mean_s).min(self.cap_s)
    }
}

impl Default for ThinkTime {
    fn default() -> ThinkTime {
        ThinkTime::tpcw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn think_time_mean_is_close() {
        let tt = ThinkTime::tpcw();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| tt.sample(&mut rng)).sum::<f64>() / n as f64;
        // Truncation at 70 s shaves a little off the 7 s mean.
        assert!((mean - 7.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn think_time_respects_cap() {
        let tt = ThinkTime::new(5.0, 10.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let s = tt.sample(&mut rng);
            assert!(s > 0.0 && s <= 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "cap must be at least")]
    fn bad_cap_panics() {
        let _ = ThinkTime::new(7.0, 1.0);
    }
}
