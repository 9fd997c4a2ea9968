//! TPC-W traffic mixes: interaction frequency vectors.
//!
//! The specification's three canonical mixes are defined by their web
//! interaction percentages (spec clause 5.3). The paper additionally uses
//! an *unknown* mix produced by altering the RBE transition probabilities;
//! we model that with [`Mix::blend`] and [`Mix::perturbed`].

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::request::{RequestClass, RequestType};

/// Identifier of a workload mix, used to key per-workload synopses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MixId {
    /// TPC-W browsing mix (95% browse / 5% order).
    Browsing,
    /// TPC-W shopping mix (80% / 20%) — the WIPS reference mix.
    Shopping,
    /// TPC-W ordering mix (50% / 50%).
    Ordering,
    /// A non-canonical mix (blended or perturbed).
    Custom,
}

impl fmt::Display for MixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Canonical interaction percentages, spec order (see [`RequestType::ALL`]).
const BROWSING_PCT: [f64; 14] = [
    29.00, 11.00, 11.00, 21.00, 12.00, 11.00, // browse
    2.00, 0.82, 0.75, 0.69, 0.30, 0.25, 0.10, 0.09, // order
];
const SHOPPING_PCT: [f64; 14] = [
    16.00, 5.00, 5.00, 17.00, 20.00, 17.00, //
    11.60, 3.00, 2.60, 1.20, 0.75, 0.66, 0.10, 0.09,
];
const ORDERING_PCT: [f64; 14] = [
    9.12, 0.46, 0.46, 12.35, 14.53, 13.08, //
    13.53, 12.86, 12.73, 10.18, 0.25, 0.22, 0.12, 0.11,
];

/// A normalized distribution over the 14 TPC-W interactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mix {
    id: MixId,
    /// Probabilities aligned with [`RequestType::ALL`]; sums to 1.
    probabilities: [f64; 14],
}

impl Mix {
    /// The TPC-W browsing mix (95% browse interactions).
    pub fn browsing() -> Mix {
        Mix::from_percentages(MixId::Browsing, &BROWSING_PCT)
    }

    /// The TPC-W shopping mix (80% browse interactions); basis of WIPS.
    pub fn shopping() -> Mix {
        Mix::from_percentages(MixId::Shopping, &SHOPPING_PCT)
    }

    /// The TPC-W ordering mix (50% browse interactions).
    pub fn ordering() -> Mix {
        Mix::from_percentages(MixId::Ordering, &ORDERING_PCT)
    }

    /// Build a custom mix from nonnegative weights (normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative/non-finite or all weights are zero.
    pub fn custom(weights: &[f64; 14]) -> Mix {
        Mix::from_percentages(MixId::Custom, weights)
    }

    fn from_percentages(id: MixId, pct: &[f64; 14]) -> Mix {
        let total: f64 = pct.iter().sum();
        assert!(
            pct.iter().all(|p| p.is_finite() && *p >= 0.0) && total > 0.0,
            "mix weights must be nonnegative and not all zero"
        );
        let mut probabilities = [0.0; 14];
        for (p, &raw) in probabilities.iter_mut().zip(pct) {
            *p = raw / total;
        }
        Mix { id, probabilities }
    }

    /// The mix identifier.
    pub fn id(&self) -> MixId {
        self.id
    }

    /// Probability of one interaction type.
    pub fn probability(&self, request: RequestType) -> f64 {
        self.probabilities[request.index()]
    }

    /// The probabilities in [`RequestType::ALL`] order.
    pub fn probabilities(&self) -> &[f64; 14] {
        &self.probabilities
    }

    /// Fraction of interactions belonging to [`RequestClass::Browse`].
    pub fn browse_fraction(&self) -> f64 {
        RequestType::ALL
            .iter()
            .filter(|t| t.class() == RequestClass::Browse)
            .map(|t| self.probability(*t))
            .sum()
    }

    /// Linear blend `w·self + (1−w)·other` — models "unknown" traffic whose
    /// request mix lies between the canonical ones.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `[0, 1]`.
    pub fn blend(&self, other: &Mix, w: f64) -> Mix {
        assert!((0.0..=1.0).contains(&w), "blend weight must be in [0,1]");
        let pct: [f64; 14] =
            std::array::from_fn(|i| w * self.probabilities[i] + (1.0 - w) * other.probabilities[i]);
        Mix::from_percentages(MixId::Custom, &pct)
    }

    /// A multiplicatively perturbed copy of this mix: each weight is scaled
    /// by a factor drawn uniformly from `[1−strength, 1+strength]`, then
    /// renormalized. This reproduces the paper's "unknown workload" built
    /// by changing the RBE transition probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is not in `[0, 1)`.
    pub fn perturbed<R: Rng + ?Sized>(&self, strength: f64, rng: &mut R) -> Mix {
        assert!((0.0..1.0).contains(&strength), "strength must be in [0,1)");
        let mut pct = [0.0; 14];
        for (p, q) in pct.iter_mut().zip(&self.probabilities) {
            let factor = 1.0 + strength * (rng.random::<f64>() * 2.0 - 1.0);
            *p = q * factor;
        }
        Mix::from_percentages(MixId::Custom, &pct)
    }

    /// Sample one interaction type.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestType {
        let mut u: f64 = rng.random();
        for (i, &p) in self.probabilities.iter().enumerate() {
            if u < p {
                return RequestType::from_index(i);
            }
            u -= p;
        }
        // Floating-point slack: fall back to the last type.
        RequestType::from_index(13)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn canonical_mixes_sum_to_one() {
        for mix in [Mix::browsing(), Mix::shopping(), Mix::ordering()] {
            let sum: f64 = mix.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{:?} sums to {sum}", mix.id());
        }
    }

    #[test]
    fn browse_fractions_match_spec() {
        assert!((Mix::browsing().browse_fraction() - 0.95).abs() < 0.005);
        assert!((Mix::shopping().browse_fraction() - 0.80).abs() < 0.005);
        assert!((Mix::ordering().browse_fraction() - 0.50).abs() < 0.005);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mix = Mix::ordering();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 14];
        let n = 200_000;
        for _ in 0..n {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let observed = c as f64 / n as f64;
            let expected = mix.probabilities()[i];
            assert!(
                (observed - expected).abs() < 0.01,
                "type {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn browsing_mix_browser_mostly_browses() {
        let mix = Mix::browsing();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let browse = (0..n)
            .filter(|_| mix.sample(&mut rng).class() == RequestClass::Browse)
            .count();
        let frac = browse as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "browse fraction {frac}");
    }

    #[test]
    fn blend_interpolates_browse_fraction() {
        let half = Mix::browsing().blend(&Mix::ordering(), 0.5);
        let bf = half.browse_fraction();
        assert!((bf - 0.725).abs() < 0.01, "bf {bf}");
        assert_eq!(half.id(), MixId::Custom);
    }

    #[test]
    fn blend_extremes_are_endpoints() {
        let b = Mix::browsing();
        let o = Mix::ordering();
        let all_b = b.blend(&o, 1.0);
        for t in RequestType::ALL {
            assert!((all_b.probability(t) - b.probability(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn perturbed_stays_normalized_and_close() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Mix::shopping().perturbed(0.3, &mut rng);
        let sum: f64 = p.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Perturbation is bounded, so the browse fraction stays in a band.
        let bf = p.browse_fraction();
        assert!(bf > 0.6 && bf < 0.95, "bf {bf}");
    }

    #[test]
    fn bestsellers_is_rare_in_ordering_mix() {
        // The ordering mix nearly eliminates the heavy DB queries — this is
        // what moves the bottleneck to the front end.
        assert!(Mix::ordering().probability(RequestType::BestSellers) < 0.01);
        assert!(Mix::browsing().probability(RequestType::BestSellers) > 0.10);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_weight_panics() {
        let mut w = [1.0; 14];
        w[3] = -0.1;
        let _ = Mix::custom(&w);
    }
}
