//! The measurement pipeline: run a traffic program on the simulated
//! testbed, collect per-second hardware-counter and OS metrics on each
//! tier, and aggregate them into labeled 30-second instances — the
//! training/testing units of the paper (Section IV-A: "the average
//! statistics over a 30 second interval combined with its corresponding
//! high-level state formed an instance").

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use webcap_hpc::{DerivedMetrics, HpcModel, DERIVED_METRIC_NAMES};
use webcap_os::{OsCollector, OsSample, OS_METRIC_NAMES};
use webcap_sim::{SimConfig, Simulation, SystemSample, TierId};
use webcap_tpcw::TrafficProgram;

use crate::agg::WindowAgg;
pub use crate::agg::WindowInstance;
use crate::oracle::OracleConfig;

/// Which metric family a synopsis is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MetricLevel {
    /// The 64 Sysstat-like OS metrics.
    Os,
    /// Hardware performance counter metrics.
    Hpc,
    /// Both families concatenated — the extension the paper's conclusion
    /// proposes for capturing I/O-related performance problems.
    Combined,
}

impl MetricLevel {
    /// The paper's two levels, in its table order (OS first).
    pub const ALL: [MetricLevel; 2] = [MetricLevel::Os, MetricLevel::Hpc];

    /// All levels including the combined extension.
    pub const EXTENDED: [MetricLevel; 3] =
        [MetricLevel::Os, MetricLevel::Hpc, MetricLevel::Combined];

    /// Dense index (Os = 0, Hpc = 1, Combined = 2).
    pub fn index(&self) -> usize {
        match self {
            MetricLevel::Os => 0,
            MetricLevel::Hpc => 1,
            MetricLevel::Combined => 2,
        }
    }

    /// Report label matching the paper's table headers.
    pub fn label(&self) -> &'static str {
        match self {
            MetricLevel::Os => "OS Level",
            MetricLevel::Hpc => "HPC Level",
            MetricLevel::Combined => "Combined",
        }
    }

    /// Select this level's slot from a per-level triple (indexed by
    /// [`MetricLevel::index`] order). Total by construction — the
    /// panic-free replacement for `arr[level.index()]`.
    pub fn select<'a, T>(&self, levels: &'a [T; 3]) -> &'a T {
        let [os, hpc, combined] = levels;
        match self {
            MetricLevel::Os => os,
            MetricLevel::Hpc => hpc,
            MetricLevel::Combined => combined,
        }
    }

    /// Mutable [`MetricLevel::select`].
    pub fn select_mut<'a, T>(&self, levels: &'a mut [T; 3]) -> &'a mut T {
        let [os, hpc, combined] = levels;
        match self {
            MetricLevel::Os => os,
            MetricLevel::Hpc => hpc,
            MetricLevel::Combined => combined,
        }
    }

    /// Whether this level's features include the HPC family.
    pub fn reads_hpc(&self) -> bool {
        matches!(self, MetricLevel::Hpc | MetricLevel::Combined)
    }

    /// Whether this level's features include the OS family.
    pub fn reads_os(&self) -> bool {
        matches!(self, MetricLevel::Os | MetricLevel::Combined)
    }
}

impl std::fmt::Display for MetricLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Feature names for one (level, tier) metric family.
pub fn feature_names(level: MetricLevel, tier: TierId) -> Vec<String> {
    let tier_label = tier.label().to_lowercase();
    match level {
        MetricLevel::Combined => {
            let mut names = feature_names(MetricLevel::Os, tier);
            names.extend(feature_names(MetricLevel::Hpc, tier));
            names
        }
        MetricLevel::Os => OsSample::feature_names(&format!("{tier_label}_os_")),
        MetricLevel::Hpc => DerivedMetrics::feature_names(&format!("{tier_label}_hpc_")),
    }
}

/// The width of one level's metric family on any tier:
/// `feature_names(level, tier).len()`, without building the names.
pub fn feature_width(level: MetricLevel) -> usize {
    match level {
        MetricLevel::Os => OS_METRIC_NAMES.len(),
        MetricLevel::Hpc => DERIVED_METRIC_NAMES.len(),
        MetricLevel::Combined => OS_METRIC_NAMES.len() + DERIVED_METRIC_NAMES.len(),
    }
}

/// Everything recorded while driving one traffic program: application
/// telemetry plus synthesized low-level metrics per second per tier.
#[derive(Debug, Clone)]
pub struct RunLog {
    /// Per-second application/system telemetry.
    pub samples: Vec<SystemSample>,
    /// The metric families the log holds: those `level` reads
    /// ([`MetricLevel::Combined`] for both).
    pub level: MetricLevel,
    /// Per-second derived HPC metrics, indexed `[tier][second]`; empty
    /// when `level` does not read HPC.
    pub hpc: [Vec<DerivedMetrics>; 2],
    /// Per-second OS metric samples, indexed `[tier][second]`; empty when
    /// `level` does not read OS.
    pub os: [Vec<OsSample>; 2],
}

/// Both tiers' rows of one metric family over `range`: none for a family
/// the log does not hold, `None` when a held family's rows stop short of
/// it.
fn held_rows<T>(
    held: bool,
    rows: &[Vec<T>; 2],
    range: std::ops::Range<usize>,
) -> Option<[&[T]; 2]> {
    if !held {
        return Some([&[], &[]]);
    }
    let [app, db] = rows;
    Some([app.get(range.clone())?, db.get(range)?])
}

impl RunLog {
    /// Per-second throughput series (completed requests / s).
    pub fn throughput_series(&self) -> Vec<f64> {
        self.samples.iter().map(SystemSample::throughput).collect()
    }

    /// Aggregate consecutive samples into labeled window instances.
    ///
    /// `len` is the window length in samples (the paper uses 30 one-second
    /// samples); `stride` is the step between window starts — `stride ==
    /// len` gives disjoint windows, smaller strides give overlapping
    /// windows for more training data. Only the families the log holds
    /// get features: the others stay empty, and so does the combined
    /// vector unless both are held.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `stride == 0`.
    pub fn windows(&self, len: usize, stride: usize, oracle: &OracleConfig) -> Vec<WindowInstance> {
        assert!(
            len > 0 && stride > 0,
            "window length and stride must be positive"
        );
        // Each second's HPC feature row is built once, not once for every
        // overlapping window that covers it.
        let hpc = self.hpc.each_ref().map(|rows| {
            rows.iter()
                .map(DerivedMetrics::to_features)
                .collect::<Vec<_>>()
        });
        let mut out = Vec::new();
        let mut start = 0;
        loop {
            let range = start..start + len;
            let Some(slice) = self.samples.get(range.clone()) else {
                break;
            };
            // A log whose metric rows stop short of its samples yields
            // the windows all its families cover.
            let (Some(hpc_rows), Some(os_rows)) = (
                held_rows(self.level.reads_hpc(), &hpc, range.clone()),
                held_rows(self.level.reads_os(), &self.os, range.clone()),
            ) else {
                break;
            };
            let mut agg = WindowAgg::default();
            for (k, sample) in slice.iter().enumerate() {
                let hpc = hpc_rows.map(|rows| rows.get(k).map_or(&[][..], Vec::as_slice));
                let os = os_rows.map(|rows| rows.get(k).map_or(&[][..], OsSample::values));
                agg.observe(sample, hpc, os);
            }
            // `len > 0`, so the window has a majority mix.
            let Some(window) = agg.finish(oracle) else {
                break;
            };
            out.push(window);
            start += stride;
        }
        out
    }
}

/// Drive `program` through a simulation and collect the full metric log:
/// [`collect_run_for`] at [`MetricLevel::Combined`].
///
/// `metrics_seed` seeds the metric synthesizers independently of the
/// simulation seed so collection noise can be varied while holding the
/// underlying run fixed.
pub fn collect_run(
    cfg: &SimConfig,
    program: &TrafficProgram,
    hpc_model: &HpcModel,
    metrics_seed: u64,
) -> RunLog {
    collect_run_for(cfg, program, hpc_model, metrics_seed, MetricLevel::Combined)
}

/// Drive `program` through a simulation and collect the metric families
/// `level` reads. Every row it synthesizes is bit-identical to
/// [`collect_run`]'s: both tiers draw from one stream, HPC before OS, an
/// HPC row is synthesized straight to its derived metrics
/// ([`HpcModel::derived`]), and a family `level` does not read is stepped
/// past ([`HpcModel::skip`], [`OsCollector::skip`]) instead of
/// synthesized.
pub fn collect_run_for(
    cfg: &SimConfig,
    program: &TrafficProgram,
    hpc_model: &HpcModel,
    metrics_seed: u64,
    level: MetricLevel,
) -> RunLog {
    let output = Simulation::new(cfg.clone(), program.clone()).run();
    let mut rng = StdRng::seed_from_u64(metrics_seed);
    let mut os_collectors = [OsCollector::new(TierId::App), OsCollector::new(TierId::Db)];
    let mut hpc = [Vec::new(), Vec::new()];
    let mut os = [Vec::new(), Vec::new()];
    for sample in &output.samples {
        for tier in TierId::ALL {
            let ts = sample.tier(tier);
            if level.reads_hpc() {
                let row = hpc_model.derived(tier, ts, sample.interval_s, &mut rng);
                tier.select_mut(&mut hpc).push(row);
            } else {
                hpc_model.skip(&mut rng);
            }
            let collector = tier.select_mut(&mut os_collectors);
            if level.reads_os() {
                let os_row = collector.sample(ts, sample.interval_s, &mut rng);
                tier.select_mut(&mut os).push(os_row);
            } else {
                collector.skip(&mut rng);
            }
        }
    }
    RunLog {
        samples: output.samples,
        level,
        hpc,
        os,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcap_tpcw::{Mix, MixId};

    fn small_log() -> RunLog {
        let cfg = SimConfig::testbed(11);
        let program = TrafficProgram::steady(Mix::shopping(), 30, 90.0);
        collect_run(&cfg, &program, &HpcModel::testbed(), 7)
    }

    #[test]
    fn collect_run_aligns_series() {
        let log = small_log();
        assert_eq!(log.samples.len(), 90);
        for tier in TierId::ALL {
            assert_eq!(log.hpc[tier.index()].len(), 90);
            assert_eq!(log.os[tier.index()].len(), 90);
        }
    }

    #[test]
    fn windows_disjoint_and_overlapping() {
        let log = small_log();
        let oracle = OracleConfig::default();
        let disjoint = log.windows(30, 30, &oracle);
        assert_eq!(disjoint.len(), 3);
        let overlapping = log.windows(30, 10, &oracle);
        assert_eq!(overlapping.len(), 7);
        assert!((disjoint[0].t_end_s - 30.0).abs() < 1e-6);
        assert!((disjoint[1].t_start_s - 30.0).abs() < 1e-6);
    }

    #[test]
    fn window_features_have_consistent_widths() {
        let log = small_log();
        let w = &log.windows(30, 30, &OracleConfig::default())[0];
        for level in MetricLevel::ALL {
            for tier in TierId::ALL {
                assert_eq!(
                    w.features(level, tier).len(),
                    feature_names(level, tier).len(),
                    "{level} {tier}"
                );
            }
        }
        assert_eq!(w.features(MetricLevel::Os, TierId::App).len(), 64);
        assert_eq!(w.features(MetricLevel::Hpc, TierId::Db).len(), 12);
    }

    #[test]
    fn light_load_windows_are_underloaded() {
        let log = small_log();
        for w in log.windows(30, 30, &OracleConfig::default()) {
            assert!(!w.overloaded(), "30 EBs should not overload");
            assert!(w.throughput > 0.5);
        }
    }

    #[test]
    fn feature_names_are_prefixed_and_unique() {
        let mut all = Vec::new();
        for level in MetricLevel::ALL {
            for tier in TierId::ALL {
                all.extend(feature_names(level, tier));
            }
        }
        for level in MetricLevel::EXTENDED {
            for tier in TierId::ALL {
                assert_eq!(feature_width(level), feature_names(level, tier).len());
            }
        }
        assert_eq!(all.len(), 2 * (64 + 12));
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names must be globally unique");
        assert!(all[0].starts_with("app_os_"));
    }

    #[test]
    fn metric_seed_changes_metrics_not_telemetry() {
        let cfg = SimConfig::testbed(11);
        let program = TrafficProgram::steady(Mix::shopping(), 30, 30.0);
        let a = collect_run(&cfg, &program, &HpcModel::testbed(), 1);
        let b = collect_run(&cfg, &program, &HpcModel::testbed(), 2);
        assert_eq!(a.samples, b.samples, "same sim seed → same telemetry");
        assert_ne!(a.hpc[0], b.hpc[0], "different metric noise");
    }

    #[test]
    fn combined_level_concatenates_families() {
        let log = small_log();
        let w = &log.windows(30, 30, &OracleConfig::default())[0];
        let os = w.features(MetricLevel::Os, TierId::Db);
        let hpc = w.features(MetricLevel::Hpc, TierId::Db);
        let combined = w.features(MetricLevel::Combined, TierId::Db);
        assert_eq!(combined.len(), os.len() + hpc.len());
        assert_eq!(&combined[..os.len()], os);
        assert_eq!(&combined[os.len()..], hpc);
        assert_eq!(
            feature_names(MetricLevel::Combined, TierId::Db).len(),
            combined.len()
        );
    }

    #[test]
    fn mix_id_majority_is_recorded() {
        let cfg = SimConfig::testbed(3);
        let program = TrafficProgram::steady(Mix::ordering(), 20, 60.0);
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), 3);
        let w = log.windows(30, 30, &OracleConfig::default());
        assert!(w.iter().all(|w| w.mix == MixId::Ordering));
    }

    #[test]
    fn a_window_agg_fed_second_by_second_is_the_training_window() {
        // The mix switches 20 s into the 30 s window: the majority mix is
        // the pre-switch one while the last sample carries the
        // post-switch one.
        let cfg = SimConfig::testbed(11);
        let program = TrafficProgram::steady(Mix::ordering(), 60, 20.0).then_steady(
            Mix::browsing(),
            60,
            10.0,
        );
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), 5);
        let oracle = OracleConfig::default();
        let batch = log.windows(30, 30, &oracle);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].mix, MixId::Ordering, "majority, not last sample");

        let mut agg = WindowAgg::default();
        for (k, sample) in log.samples.iter().enumerate() {
            let hpc = log.hpc.each_ref().map(|rows| rows[k].to_features());
            let os = log.os.each_ref().map(|rows| rows[k].values().to_vec());
            agg.observe(sample, hpc, os);
        }
        assert_eq!(agg.samples(), 30);
        let online = agg.finish(&oracle).expect("a second was observed");
        // The whole instance: label, span, throughput and all six
        // feature vectors, bit for bit.
        assert_eq!(
            serde_json::to_string(&online).unwrap(),
            serde_json::to_string(&batch[0]).unwrap(),
        );
    }
}
