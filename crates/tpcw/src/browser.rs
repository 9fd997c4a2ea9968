//! Emulated browsers (EBs): the client sessions of the TPC-W Remote
//! Browser Emulator.
//!
//! Each EB cycles through *think → request → response → think*. Think
//! times follow the spec's truncated negative-exponential distribution
//! (mean 7 s, cap 70 s). The request type is drawn from the current
//! [`Mix`]; the simulator owns timing, so an EB only answers "what next".

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mix::Mix;
use crate::request::RequestType;

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

/// One emulated browser session.
///
/// Interactions are sampled independently from the mix, which preserves
/// the interaction frequencies the spec defines (our mixes are frequency
/// vectors, see [`Mix`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulatedBrowser {
    id: u64,
    think: ThinkTime,
    requests_issued: u64,
}

impl EmulatedBrowser {
    /// Create an EB with the spec's think-time defaults.
    pub fn new(id: u64) -> EmulatedBrowser {
        EmulatedBrowser::with_think_time(id, ThinkTime::tpcw())
    }

    /// Create an EB with a custom think-time distribution.
    pub fn with_think_time(id: u64, think: ThinkTime) -> EmulatedBrowser {
        EmulatedBrowser {
            id,
            think,
            requests_issued: 0,
        }
    }

    /// This EB's identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of requests issued so far.
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// Draw the next think time in seconds.
    pub fn think_time<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.think.sample(rng)
    }

    /// Choose the next interaction under `mix` and count it.
    pub fn next_request<R: Rng + ?Sized>(&mut self, mix: &Mix, rng: &mut R) -> RequestType {
        self.requests_issued += 1;
        mix.sample(rng)
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
    fn browser_counts_requests() {
        let mut eb = EmulatedBrowser::new(17);
        let mut rng = StdRng::seed_from_u64(4);
        let mix = Mix::shopping();
        for _ in 0..10 {
            eb.next_request(&mix, &mut rng);
        }
        assert_eq!(eb.requests_issued(), 10);
        assert_eq!(eb.id(), 17);
    }

    #[test]
    fn browsing_mix_browser_mostly_browses() {
        let mut eb = EmulatedBrowser::new(0);
        let mut rng = StdRng::seed_from_u64(5);
        let mix = Mix::browsing();
        let n = 20_000;
        let browse = (0..n)
            .filter(|_| eb.next_request(&mix, &mut rng).class() == crate::RequestClass::Browse)
            .count();
        let frac = browse as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "browse fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "cap must be at least")]
    fn bad_cap_panics() {
        let _ = ThinkTime::new(7.0, 1.0);
    }
}
