//! Per-interaction service demands: how much CPU and disk work each TPC-W
//! request type imposes on each tier.
//!
//! Demands are expressed in *work units* — seconds on a speed-1.0 core —
//! so tier speed/core scaling is applied by the resource model. The base
//! values below are calibrated to the paper's testbed behaviour rather
//! than to any specific hardware: in the **browsing** mix the database
//! dominates (heavy BestSellers / SearchResults / NewProducts queries),
//! while in the **ordering** mix the application tier dominates (servlet
//! logic, session state, payment processing in BuyConfirm/BuyRequest),
//! which is exactly the bottleneck placement the paper reports.

use rand::Rng;
use serde::{Deserialize, Serialize};
use webcap_tpcw::{Mix, RequestType};

/// Service demand of one interaction type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Application-tier CPU work (seconds at speed 1.0), total across all
    /// bursts.
    pub app_cpu_s: f64,
    /// Database-tier CPU work, total across all calls.
    pub db_cpu_s: f64,
    /// Database disk service time, total across all calls.
    pub db_disk_s: f64,
    /// Number of database round trips the interaction makes.
    pub db_calls: u32,
}

impl Demand {
    /// Validate invariants: nonnegative finite demands, and at least one
    /// call when any DB work exists.
    fn validate(&self) {
        assert!(
            self.app_cpu_s >= 0.0 && self.db_cpu_s >= 0.0 && self.db_disk_s >= 0.0,
            "demands must be nonnegative"
        );
        assert!(
            self.app_cpu_s.is_finite() && self.db_cpu_s.is_finite() && self.db_disk_s.is_finite(),
            "demands must be finite"
        );
        if self.db_cpu_s > 0.0 || self.db_disk_s > 0.0 {
            assert!(self.db_calls > 0, "DB work requires at least one DB call");
        }
    }
}

/// The largest demand-noise shape: the product of `k` uniforms clamped at
/// 1e-12 that [`DemandProfile::noise`] takes the logarithm of stays in
/// f64's normal range up to `k = 25` (1e-300) and is 0 at `k = 27`.
const MAX_GAMMA_SHAPE: u32 = 25;

/// The full demand table: one [`Demand`] per interaction type, plus a
/// demand variability parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandProfile {
    demands: [Demand; 14],
    /// Shape parameter of the per-request gamma noise on demands; higher
    /// means less variable. The multiplier has mean 1 and
    /// CV = `1/sqrt(shape)`. Within `1..=25`.
    gamma_shape: u32,
}

impl DemandProfile {
    /// The calibrated two-tier bookstore profile described in DESIGN.md.
    pub fn testbed() -> DemandProfile {
        use RequestType as T;
        let mut demands = [Demand {
            app_cpu_s: 0.0,
            db_cpu_s: 0.0,
            db_disk_s: 0.0,
            db_calls: 1,
        }; 14];
        let table: [(T, f64, f64, f64, u32); 14] = [
            (T::Home, 0.004, 0.005, 0.001, 1),
            (T::NewProducts, 0.005, 0.050, 0.015, 1),
            (T::BestSellers, 0.005, 0.120, 0.035, 1),
            (T::ProductDetail, 0.004, 0.008, 0.002, 1),
            (T::SearchRequest, 0.003, 0.002, 0.000, 1),
            (T::SearchResults, 0.005, 0.040, 0.012, 1),
            (T::ShoppingCart, 0.028, 0.012, 0.002, 2),
            (T::CustomerRegistration, 0.035, 0.006, 0.001, 1),
            (T::BuyRequest, 0.040, 0.015, 0.003, 2),
            (T::BuyConfirm, 0.060, 0.020, 0.005, 3),
            (T::OrderInquiry, 0.004, 0.004, 0.001, 1),
            (T::OrderDisplay, 0.006, 0.015, 0.004, 2),
            (T::AdminRequest, 0.005, 0.006, 0.002, 1),
            (T::AdminConfirm, 0.015, 0.025, 0.006, 2),
        ];
        for (t, app, db, disk, calls) in table {
            demands[t.index()] = Demand {
                app_cpu_s: app,
                db_cpu_s: db,
                db_disk_s: disk,
                db_calls: calls,
            };
        }
        let profile = DemandProfile {
            demands,
            gamma_shape: 4,
        };
        profile.validate();
        profile
    }

    /// Validate invariants: every [`Demand`]'s, and a noise shape within
    /// `1..=25`. A deserialized profile is checked only here (by
    /// [`crate::SimConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if an invariant does not hold.
    pub(crate) fn validate(&self) {
        for d in &self.demands {
            d.validate();
        }
        check_gamma_shape(self.gamma_shape);
    }

    /// Override the demand-noise shape (higher = less variance).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not within `1..=25`.
    pub fn with_gamma_shape(mut self, shape: u32) -> DemandProfile {
        check_gamma_shape(shape);
        self.gamma_shape = shape;
        self
    }

    /// Scale every interaction's disk demand by `factor` — used to build
    /// I/O-bound what-if testbeds (e.g. a cold buffer pool or an archival
    /// catalog that no longer fits in memory).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn with_disk_scale(mut self, factor: f64) -> DemandProfile {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "disk scale must be nonnegative"
        );
        for d in &mut self.demands {
            d.db_disk_s *= factor;
        }
        self
    }

    /// The base demand of one interaction type.
    pub fn demand(&self, t: RequestType) -> Demand {
        self.demands[t.index()]
    }

    /// Draw one noisy multiplier (mean 1.0) for per-request demand
    /// variation: a normalized Erlang/gamma with the configured shape `k`,
    /// `−ln(∏ max(uᵢ, 1e-12)) / k` over `k` uniforms — one word each, and
    /// one logarithm per draw.
    pub fn noise<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let k = self.gamma_shape;
        let mut product = 1.0;
        for _ in 0..k {
            product *= rng.random::<f64>().max(1e-12);
        }
        -product.ln() / f64::from(k)
    }

    /// Mean app-tier work per request under `mix` (seconds at speed 1.0).
    pub fn mean_app_demand(&self, mix: &Mix) -> f64 {
        RequestType::ALL
            .iter()
            .map(|&t| mix.probability(t) * self.demand(t).app_cpu_s)
            .sum()
    }

    /// Mean DB-tier CPU work per request under `mix`.
    pub fn mean_db_cpu_demand(&self, mix: &Mix) -> f64 {
        RequestType::ALL
            .iter()
            .map(|&t| mix.probability(t) * self.demand(t).db_cpu_s)
            .sum()
    }

    /// Mean DB disk time per request under `mix`.
    pub fn mean_db_disk_demand(&self, mix: &Mix) -> f64 {
        RequestType::ALL
            .iter()
            .map(|&t| mix.probability(t) * self.demand(t).db_disk_s)
            .sum()
    }
}

impl Default for DemandProfile {
    fn default() -> DemandProfile {
        DemandProfile::testbed()
    }
}

/// Reject a demand-noise shape outside `1..=MAX_GAMMA_SHAPE`.
fn check_gamma_shape(shape: u32) {
    assert!(
        (1..=MAX_GAMMA_SHAPE).contains(&shape),
        "gamma shape must be within 1..=25"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn browsing_mix_is_db_bound() {
        let p = DemandProfile::testbed();
        let mix = Mix::browsing();
        // DB tier has 2 cores in the default testbed; compare per-core
        // pressure.
        let app = p.mean_app_demand(&mix);
        let db = p.mean_db_cpu_demand(&mix) / 2.0;
        assert!(
            db > 2.0 * app,
            "browsing: db/core {db} should dominate app {app}"
        );
    }

    #[test]
    fn ordering_mix_is_app_bound() {
        let p = DemandProfile::testbed();
        let mix = Mix::ordering();
        let app = p.mean_app_demand(&mix);
        let db = p.mean_db_cpu_demand(&mix) / 2.0;
        assert!(
            app > 2.0 * db,
            "ordering: app {app} should dominate db/core {db}"
        );
    }

    #[test]
    fn shopping_mix_sits_between() {
        let p = DemandProfile::testbed();
        let b = p.mean_app_demand(&Mix::browsing());
        let s = p.mean_app_demand(&Mix::shopping());
        let o = p.mean_app_demand(&Mix::ordering());
        assert!(b < s && s < o);
    }

    #[test]
    fn noise_has_unit_mean() {
        let p = DemandProfile::testbed();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| p.noise(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn noise_variance_shrinks_with_shape() {
        let loose = DemandProfile::testbed().with_gamma_shape(1);
        let tight = DemandProfile::testbed().with_gamma_shape(16);
        let mut rng = StdRng::seed_from_u64(2);
        let var = |p: &DemandProfile, rng: &mut StdRng| {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| p.noise(rng)).collect();
            let m = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(&loose, &mut rng) > 4.0 * var(&tight, &mut rng));
    }

    #[test]
    fn disk_scale_multiplies_only_disk() {
        let base = DemandProfile::testbed();
        let scaled = DemandProfile::testbed().with_disk_scale(5.0);
        let mix = Mix::browsing();
        assert!(
            (scaled.mean_db_disk_demand(&mix) - 5.0 * base.mean_db_disk_demand(&mix)).abs() < 1e-12
        );
        assert_eq!(
            scaled.mean_db_cpu_demand(&mix),
            base.mean_db_cpu_demand(&mix)
        );
        assert_eq!(scaled.mean_app_demand(&mix), base.mean_app_demand(&mix));
    }

    #[test]
    #[should_panic(expected = "at least one DB call")]
    fn db_work_without_calls_panics() {
        let mut p = DemandProfile::testbed();
        p.demands[RequestType::Home.index()] = Demand {
            app_cpu_s: 0.1,
            db_cpu_s: 0.1,
            db_disk_s: 0.0,
            db_calls: 0,
        };
        p.validate();
    }
}
