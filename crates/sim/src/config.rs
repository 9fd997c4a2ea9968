//! Simulator configuration: tier hardware and global parameters.

use serde::{Deserialize, Serialize};
use webcap_tpcw::ThinkTime;

use crate::demand::DemandProfile;

/// Which tier a quantity refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TierId {
    /// Front-end application server (Tomcat in the paper's testbed).
    App,
    /// Back-end database server (MySQL in the paper's testbed).
    Db,
}

impl TierId {
    /// Both tiers, front to back.
    pub const ALL: [TierId; 2] = [TierId::App, TierId::Db];

    /// Dense index (App = 0, Db = 1).
    pub fn index(&self) -> usize {
        match self {
            TierId::App => 0,
            TierId::Db => 1,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TierId::App => "APP",
            TierId::Db => "DB",
        }
    }

    /// Select this tier's slot from a per-tier pair (indexed by
    /// [`TierId::index`] order). Total by construction — the panic-free
    /// replacement for `pair[tier.index()]`.
    pub fn select<'a, T>(&self, pair: &'a [T; 2]) -> &'a T {
        let [app, db] = pair;
        match self {
            TierId::App => app,
            TierId::Db => db,
        }
    }

    /// Mutable [`TierId::select`].
    pub fn select_mut<'a, T>(&self, pair: &'a mut [T; 2]) -> &'a mut T {
        let [app, db] = pair;
        match self {
            TierId::App => app,
            TierId::Db => db,
        }
    }
}

impl std::fmt::Display for TierId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hardware and software configuration of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Number of CPU cores.
    pub cores: u32,
    /// Core speed in work units per second (1.0 = reference core).
    pub speed: f64,
    /// Contention degradation coefficient α (see
    /// [`crate::resources::PsCpu`]).
    pub contention_alpha: f64,
    /// Size of the tier's token pool: worker threads on the app tier, DB
    /// connections on the DB tier.
    pub pool_size: usize,
    /// Fraction of CPU capacity consumed by the metrics collector running
    /// on this tier (0.0 = no collection). Models the paper's Section V-D
    /// runtime-overhead experiment.
    pub collector_overhead: f64,
    /// Background interference process (OS daemons, JVM garbage
    /// collection, buffer-cache churn): the capacity fluctuation that
    /// makes saturated throughput wiggle in real testbeds.
    pub background: BackgroundLoad,
}

/// An Ornstein–Uhlenbeck (mean-reverting random walk) background load,
/// updated once per telemetry tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundLoad {
    /// Long-run mean fraction of capacity consumed.
    pub mean: f64,
    /// Per-tick innovation standard deviation.
    pub step_sd: f64,
    /// Mean-reversion rate per tick (0 = pure random walk).
    pub revert: f64,
    /// Hard upper bound on the fraction.
    pub max: f64,
}

impl BackgroundLoad {
    /// No background interference at all.
    pub fn none() -> BackgroundLoad {
        BackgroundLoad {
            mean: 0.0,
            step_sd: 0.0,
            revert: 1.0,
            max: 0.0,
        }
    }

    /// The default testbed interference: 5% mean with a slow wander of
    /// several percent (revert 0.06 gives an O(15 s) correlation time, so
    /// the fluctuation survives 30-second aggregation like the GC/daemon
    /// activity it stands in for).
    pub fn testbed() -> BackgroundLoad {
        BackgroundLoad {
            mean: 0.05,
            step_sd: 0.02,
            revert: 0.06,
            max: 0.30,
        }
    }

    fn validate(&self, name: &str) {
        assert!(
            (0.0..=0.95).contains(&self.mean) && self.max <= 0.95 && self.mean <= self.max + 1e-12,
            "{name}: background mean must be within [0, max]"
        );
        assert!(
            self.step_sd >= 0.0 && self.step_sd.is_finite(),
            "{name}: bad step_sd"
        );
        assert!(
            (0.0..=1.0).contains(&self.revert),
            "{name}: revert must be in [0,1]"
        );
    }
}

impl TierConfig {
    /// Effective core speed after collector overhead.
    pub fn effective_speed(&self) -> f64 {
        self.speed * (1.0 - self.collector_overhead)
    }

    fn validate(&self, name: &str) {
        self.background.validate(name);
        assert!(self.cores > 0, "{name}: need at least one core");
        assert!(
            self.speed > 0.0 && self.speed.is_finite(),
            "{name}: speed must be positive"
        );
        assert!(
            self.contention_alpha >= 0.0 && self.contention_alpha.is_finite(),
            "{name}: alpha must be nonnegative and finite"
        );
        assert!(self.pool_size > 0, "{name}: pool must be nonempty");
        assert!(
            (0.0..1.0).contains(&self.collector_overhead),
            "{name}: collector overhead must be in [0,1)"
        );
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Application tier.
    pub app: TierConfig,
    /// Database tier.
    pub db: TierConfig,
    /// One-way network delay between tiers, seconds (applied on each hop
    /// of a DB call).
    pub network_delay_s: f64,
    /// Service demand table.
    pub profile: DemandProfile,
    /// Telemetry sampling period, seconds (the paper samples every 1 s).
    pub sample_period_s: f64,
    /// Client think-time distribution.
    pub think: ThinkTime,
}

impl SimConfig {
    /// The paper-like default testbed: a single-core app server (Pentium 4
    /// class), a dual-core DB server (Pentium D class), 128 worker
    /// threads, 10 DB connections, 0.5 ms network hops, 1 s sampling.
    pub fn testbed(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            app: TierConfig {
                cores: 1,
                speed: 1.0,
                contention_alpha: 0.004,
                pool_size: 128,
                collector_overhead: 0.0,
                background: BackgroundLoad::testbed(),
            },
            db: TierConfig {
                cores: 2,
                speed: 1.0,
                // With the small connection pool capping concurrency, a
                // strong per-job penalty (buffer-pool thrashing between
                // concurrent scans) produces the sharp post-saturation
                // throughput drop the paper describes — which also makes
                // overloaded throughput alias with near-knee underloaded
                // throughput, so load level alone cannot reveal the state.
                // Strong enough for a visible post-saturation decline
                // (~12% below peak with a full pool) yet weak enough that
                // the bistable congestion-collapse band stays narrow and a
                // near-knee plateau does not tip over from one burst.
                contention_alpha: 0.020,
                // Tomcat-era DBCP-style small pool: a handful of heavy
                // queries is enough to overload the DB, which is exactly
                // the regime the paper studies.
                pool_size: 10,
                collector_overhead: 0.0,
                background: BackgroundLoad::testbed(),
            },
            network_delay_s: 0.0005,
            profile: DemandProfile::testbed(),
            sample_period_s: 1.0,
            think: ThinkTime::tpcw(),
        }
    }

    /// Validate all invariants.
    ///
    /// # Panics
    ///
    /// Panics on any invalid parameter; called by the engine at
    /// construction.
    pub fn validate(&self) {
        self.app.validate("app");
        self.db.validate("db");
        self.profile.validate();
        assert!(
            self.network_delay_s >= 0.0 && self.network_delay_s.is_finite(),
            "network delay must be nonnegative"
        );
        // The clock ticks in whole microseconds: a shorter period would
        // be rounded up to one.
        assert!(
            self.sample_period_s >= 1e-6 && self.sample_period_s.is_finite(),
            "sample period must be at least the 1 µs clock tick"
        );
    }

    /// The tier config for `tier`.
    pub fn tier(&self, tier: TierId) -> &TierConfig {
        match tier {
            TierId::App => &self.app,
            TierId::Db => &self.db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_validates() {
        SimConfig::testbed(1).validate();
    }

    #[test]
    fn tier_indexing() {
        assert_eq!(TierId::App.index(), 0);
        assert_eq!(TierId::Db.index(), 1);
        assert_eq!(TierId::ALL[1], TierId::Db);
        assert_eq!(TierId::Db.to_string(), "DB");
    }

    #[test]
    fn effective_speed_subtracts_overhead() {
        let mut cfg = SimConfig::testbed(0);
        cfg.db.collector_overhead = 0.04;
        assert!((cfg.db.effective_speed() - 0.96).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pool must be nonempty")]
    fn zero_pool_rejected() {
        let mut cfg = SimConfig::testbed(0);
        cfg.app.pool_size = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "sample period must be at least the 1 µs clock tick")]
    fn sample_period_below_the_clock_tick_rejected() {
        let mut cfg = SimConfig::testbed(0);
        cfg.sample_period_s = 1e-9;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be nonnegative and finite")]
    fn infinite_contention_alpha_rejected() {
        let mut cfg = SimConfig::testbed(0);
        cfg.db.contention_alpha = f64::INFINITY;
        cfg.validate();
    }

    /// `cfg` with its demand-noise shape replaced, the way a config file
    /// would carry it: through serde, past `with_gamma_shape`'s check.
    fn with_deserialized_gamma_shape(cfg: &SimConfig, shape: u32) -> SimConfig {
        let json = serde_json::to_string(cfg).expect("config serializes");
        let field = "\"gamma_shape\":4";
        assert_eq!(json.matches(field).count(), 1, "one shape in {json}");
        serde_json::from_str(&json.replace(field, &format!("\"gamma_shape\":{shape}")))
            .expect("config deserializes")
    }

    #[test]
    #[should_panic(expected = "gamma shape must be within 1..=25")]
    fn deserialized_gamma_shape_of_zero_rejected() {
        with_deserialized_gamma_shape(&SimConfig::testbed(0), 0).validate();
    }

    #[test]
    #[should_panic(expected = "gamma shape must be within 1..=25")]
    fn deserialized_gamma_shape_past_the_normal_range_rejected() {
        with_deserialized_gamma_shape(&SimConfig::testbed(0), 26).validate();
    }

    #[test]
    #[should_panic(expected = "overhead must be in")]
    fn full_overhead_rejected() {
        let mut cfg = SimConfig::testbed(0);
        cfg.app.collector_overhead = 1.0;
        cfg.validate();
    }
}
