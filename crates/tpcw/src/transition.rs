//! Customer-behaviour-model-graph (CBMG) session transitions.
//!
//! The real TPC-W Remote Browser Emulator does not draw interactions
//! independently: each emulated browser walks a Markov chain whose
//! transition matrix defines the mix, and the paper builds its *unknown*
//! workload precisely by "chang\[ing\] the transition probability in RBE"
//! (Section IV-A). This module models that: a row-stochastic 14×14
//! transition matrix constrained by the bookstore's navigation structure,
//! with the stationary distribution recovering the interaction
//! frequencies of a [`Mix`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mix::{Mix, MixId};

/// Navigation structure of the TPC-W bookstore: from each page, which
/// interactions are reachable by a single click. `1` marks an edge.
///
/// Rows/columns follow [`RequestType::ALL`](crate::RequestType::ALL) order: Home, NewProducts,
/// BestSellers, ProductDetail, SearchRequest, SearchResults, ShoppingCart,
/// CustomerRegistration, BuyRequest, BuyConfirm, OrderInquiry,
/// OrderDisplay, AdminRequest, AdminConfirm.
const NAVIGATION: [[u8; 14]; 14] = [
    // From Home: browse entries, search, cart, order inquiry.
    [1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    // NewProducts: detail, search, home, cart.
    [1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    // BestSellers: detail, search, home, cart.
    [1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    // ProductDetail: related detail, search, cart, admin, home.
    [1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0],
    // SearchRequest: results (mandatory), home.
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    // SearchResults: detail, refine search, cart, home.
    [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    // ShoppingCart: registration, keep shopping, home.
    [1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0],
    // CustomerRegistration: buy request, home.
    [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    // BuyRequest: buy confirm, cart, home.
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
    // BuyConfirm: back to browsing/searching, order inquiry.
    [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    // OrderInquiry: order display, home.
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
    // OrderDisplay: inquiry again, home, search.
    [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    // AdminRequest: admin confirm, home.
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    // AdminConfirm: home, detail, search.
    [1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
];

/// A row-stochastic transition matrix over the 14 interactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    /// `rows[i][j]` = P(next = j | current = i).
    rows: [[f64; 14]; 14],
}

impl TransitionModel {
    /// Build a navigation-constrained transition model whose stationary
    /// distribution approximates the interaction frequencies of `mix`.
    ///
    /// Each row weights the structurally reachable successors by the mix's
    /// target frequencies (a Metropolis-style construction); unreachable
    /// rows fall back to the mix itself (equivalent to returning via the
    /// home page).
    pub fn from_mix(mix: &Mix) -> TransitionModel {
        let p = mix.probabilities();
        let mut rows = [[0.0f64; 14]; 14];
        for (i, row) in rows.iter_mut().enumerate() {
            let mut total = 0.0;
            for (j, cell) in row.iter_mut().enumerate() {
                if NAVIGATION[i][j] == 1 {
                    *cell = p[j].max(1e-6);
                    total += *cell;
                }
            }
            if total <= 0.0 {
                *row = *p;
            } else {
                for cell in row.iter_mut() {
                    *cell /= total;
                }
            }
        }
        TransitionModel { rows }
    }

    /// Multiplicatively perturb every transition probability and
    /// renormalize rows — the paper's "unknown workload" construction.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is not in `[0, 1)`.
    pub fn perturbed<R: Rng + ?Sized>(&self, strength: f64, rng: &mut R) -> TransitionModel {
        assert!((0.0..1.0).contains(&strength), "strength must be in [0,1)");
        let mut out = self.clone();
        for row in &mut out.rows {
            let mut total = 0.0;
            for cell in row.iter_mut() {
                if *cell > 0.0 {
                    let factor = 1.0 + strength * (rng.random::<f64>() * 2.0 - 1.0);
                    *cell *= factor;
                    total += *cell;
                }
            }
            if total > 0.0 {
                for cell in row.iter_mut() {
                    *cell /= total;
                }
            }
        }
        out
    }

    /// Stationary distribution of the chain (power iteration).
    pub fn stationary(&self) -> [f64; 14] {
        let mut v = [1.0 / 14.0; 14];
        for _ in 0..500 {
            let mut next = [0.0f64; 14];
            for (i, &vi) in v.iter().enumerate() {
                for (j, nj) in next.iter_mut().enumerate() {
                    *nj += vi * self.rows[i][j];
                }
            }
            let total: f64 = next.iter().sum();
            for nj in &mut next {
                *nj /= total;
            }
            let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
            v = next;
            if delta < 1e-12 {
                break;
            }
        }
        v
    }

    /// The mix induced by the chain's stationary distribution.
    pub fn stationary_mix(&self) -> Mix {
        Mix::custom(&self.stationary())
    }

    /// Verify row-stochasticity (used by tests and after deserialization).
    pub fn is_valid(&self) -> bool {
        self.rows.iter().all(|row| {
            let total: f64 = row.iter().sum();
            row.iter().all(|p| (0.0..=1.0 + 1e-9).contains(p)) && (total - 1.0).abs() < 1e-6
        })
    }
}

/// Build the paper's unknown workload as a mix: blend the browsing and
/// ordering chains, perturb the transition probabilities, and take the
/// stationary interaction frequencies.
pub fn unknown_workload_mix<R: Rng + ?Sized>(blend: f64, strength: f64, rng: &mut R) -> Mix {
    let base = Mix::browsing().blend(&Mix::ordering(), blend);
    let chain = TransitionModel::from_mix(&base).perturbed(strength, rng);
    let mut mix = chain.stationary_mix();
    // Preserve the Custom id but guard against degenerate chains.
    if mix.probabilities().iter().any(|p| !p.is_finite()) {
        mix = base;
    }
    debug_assert_eq!(mix.id(), MixId::Custom);
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_stochastic_for_all_canonical_mixes() {
        for mix in [Mix::browsing(), Mix::shopping(), Mix::ordering()] {
            let t = TransitionModel::from_mix(&mix);
            assert!(t.is_valid(), "{:?}", mix.id());
        }
    }

    #[test]
    fn navigation_structure_is_respected() {
        let t = TransitionModel::from_mix(&Mix::shopping());
        // SearchRequest can go to SearchResults but never to BuyConfirm.
        let row = &t.rows[RequestType::SearchRequest.index()];
        assert!(row[RequestType::SearchResults.index()] > 0.0);
        assert_eq!(row[RequestType::BuyConfirm.index()], 0.0);
        // CustomerRegistration leads toward BuyRequest.
        assert!(
            t.rows[RequestType::CustomerRegistration.index()][RequestType::BuyRequest.index()]
                > 0.0
        );
    }

    #[test]
    fn stationary_tracks_mix_ordering() {
        // The chain cannot match the target frequencies exactly, but the
        // big/small ordering must carry over: ordering-mix chains order a
        // lot and rarely hit BestSellers.
        let t = TransitionModel::from_mix(&Mix::ordering());
        let pi = t.stationary();
        assert!(
            pi[RequestType::ShoppingCart.index()] > pi[RequestType::BestSellers.index()],
            "cart {} vs bestsellers {}",
            pi[RequestType::ShoppingCart.index()],
            pi[RequestType::BestSellers.index()]
        );
        let b = TransitionModel::from_mix(&Mix::browsing());
        let pib = b.stationary();
        assert!(
            pib[RequestType::BestSellers.index()] > pi[RequestType::BestSellers.index()],
            "browsing chain must hit BestSellers more"
        );
    }

    /// `from_mix` and `perturbed` chains over seeded blends of the
    /// canonical mixes.
    fn seeded_chains() -> Vec<TransitionModel> {
        let canonical = [Mix::browsing(), Mix::shopping(), Mix::ordering()];
        (0..32)
            .flat_map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = &canonical[rng.random_range(0usize..3)];
                let b = &canonical[rng.random_range(0usize..3)];
                let chain = TransitionModel::from_mix(&a.blend(b, rng.random::<f64>()));
                let strength = rng.random_range(0.0..0.6);
                let perturbed = chain.perturbed(strength, &mut rng);
                [chain, perturbed]
            })
            .collect()
    }

    #[test]
    fn every_positive_transition_is_a_navigation_edge() {
        for (c, chain) in seeded_chains().iter().enumerate() {
            for (i, (allowed, row)) in NAVIGATION.iter().zip(&chain.rows).enumerate() {
                for (j, (&edge, &prob)) in allowed.iter().zip(row).enumerate() {
                    assert!(
                        prob == 0.0 || edge == 1,
                        "chain {c}: ({i},{j}) has probability {prob} off the navigation graph"
                    );
                }
            }
        }
    }

    #[test]
    fn stationary_is_a_fixed_point_distribution() {
        for (c, chain) in seeded_chains().iter().enumerate() {
            let pi = chain.stationary();
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "chain {c}: sum {total}");
            for (j, &pj) in pi.iter().enumerate() {
                let flowed: f64 = pi
                    .iter()
                    .zip(&chain.rows)
                    .map(|(pi_i, row)| pi_i * row[j])
                    .sum();
                assert!(
                    (flowed - pj).abs() < 1e-9,
                    "chain {c}: (πP)[{j}] = {flowed} but π[{j}] = {pj}"
                );
            }
        }
    }

    #[test]
    fn perturbation_changes_but_preserves_structure() {
        let t = TransitionModel::from_mix(&Mix::browsing());
        let mut rng = StdRng::seed_from_u64(3);
        let p = t.perturbed(0.4, &mut rng);
        assert!(p.is_valid());
        assert_ne!(t, p);
        // Zero-probability edges stay zero (structure preserved).
        for (i, (allowed, row)) in NAVIGATION.iter().zip(&p.rows).enumerate() {
            for (j, (&edge, &prob)) in allowed.iter().zip(row).enumerate() {
                if edge == 0 {
                    assert_eq!(prob, 0.0, "edge ({i},{j}) appeared");
                }
            }
        }
    }

    #[test]
    fn unknown_workload_sits_between_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mix = unknown_workload_mix(0.5, 0.3, &mut rng);
        let bf = mix.browse_fraction();
        assert!(bf > 0.45 && bf < 0.95, "browse fraction {bf}");
        assert_eq!(mix.id(), MixId::Custom);
    }
}
