//! The one window builder. Every [`WindowInstance`] is folded through
//! these aggregates and finished by [`AppWindowDigest::instance`]: a
//! training window ([`crate::monitor::RunLog::windows`]), one replayed
//! in process (`webcap-net`'s `replay_windows`) and one scored from a
//! collector's pair of tier digests (`webcap-net`'s `score_window`). The
//! label, the majority mix, the feature grid, the span and the
//! throughput therefore follow one rule on every path, and each caller
//! names the metric families it keeps: every family it was fed for
//! training and the replay, the meter's for a collector.
//!
//! A window's evidence has two halves, which a collector receives apart:
//! each tier's agent supplies a [`TierAgg`] (the means of its metric rows
//! and its saturation), and the application tier alone the
//! [`AppWindowDigest`] it folds from each second's
//! [`AppStats`](webcap_sim::AppStats) (span, application health and
//! traffic mix). A caller that sees whole samples folds both at once
//! through [`WindowAgg`].

use serde::{Deserialize, Serialize};
use webcap_sim::{AppStats, SystemSample, TierId, TierSample};
use webcap_tpcw::MixId;

use crate::monitor::MetricLevel;
use crate::oracle::{label_from_aggs, OracleConfig, TierStressAgg, WindowHealthAgg, WindowLabel};

/// Incremental element-wise mean: the first row seeds the accumulator
/// (moved, or copied once when borrowed), later rows are added
/// element-wise in arrival order, and one division per element happens
/// at [`RowMeanAccumulator::finish`]. Zero rows yield an empty vector
/// and a single row is returned unchanged.
#[derive(Debug, Default)]
struct RowMeanAccumulator {
    acc: Vec<f64>,
    n: usize,
}

impl RowMeanAccumulator {
    /// Fold one row in.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the earlier rows' — a width
    /// mismatch upstream is a wiring bug that a silently truncating zip
    /// would hide.
    fn push<R: AsRef<[f64]> + Into<Vec<f64>>>(&mut self, row: R) {
        if self.n == 0 {
            self.acc = row.into();
        } else {
            let row = row.as_ref();
            assert_eq!(
                self.acc.len(),
                row.len(),
                "mismatched row widths ({} vs {})",
                self.acc.len(),
                row.len()
            );
            for (a, x) in self.acc.iter_mut().zip(row) {
                *a += x;
            }
        }
        self.n += 1;
    }

    /// The element-wise mean of the rows pushed.
    fn finish(self) -> Vec<f64> {
        let mut acc = self.acc;
        if self.n > 1 {
            let n = self.n as f64;
            for a in &mut acc {
                *a /= n;
            }
        }
        acc
    }
}

/// One tier's half of a window in progress: the means of its HPC and OS
/// metric rows and its saturation aggregate.
#[derive(Debug, Default)]
pub struct TierAgg {
    hpc: RowMeanAccumulator,
    os: RowMeanAccumulator,
    stress: TierStressAgg,
}

impl TierAgg {
    /// Fold one second of the tier in: its telemetry and its metric rows,
    /// index-aligned with [`crate::monitor::feature_names`]. A family
    /// nobody reads may come empty for every second; its mean is then
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if a family's row width changes within the window.
    pub fn observe<H, O>(&mut self, tier: &TierSample, hpc: H, os: O)
    where
        H: AsRef<[f64]> + Into<Vec<f64>>,
        O: AsRef<[f64]> + Into<Vec<f64>>,
    {
        self.hpc.push(hpc);
        self.os.push(os);
        self.stress.observe(tier);
    }

    /// The tier's finished half of the window.
    pub fn finish(self) -> TierWindow {
        TierWindow {
            hpc_mean: self.hpc.finish(),
            os_mean: self.os.finish(),
            stress: self.stress,
        }
    }
}

/// One tier's finished half of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct TierWindow {
    /// Element-wise mean of the tier's HPC feature rows.
    pub hpc_mean: Vec<f64>,
    /// Element-wise mean of the tier's OS metric rows.
    pub os_mean: Vec<f64>,
    /// Saturation aggregate feeding the bottleneck oracle.
    pub stress: TierStressAgg,
}

/// A window's front-end half, folded second by second from the
/// application tier's [`AppStats`]. A collector ships the finished fold
/// inside the application tier's digest, so a merge node finishes the
/// window from exactly what an in-process [`WindowAgg`] would have held.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppWindowDigest {
    /// Window start time, seconds: first sample's `t_s` minus its
    /// interval.
    pub t_start_s: f64,
    /// Window end time, seconds: last sample's `t_s`.
    pub t_end_s: f64,
    /// Sum of sample intervals across the window, seconds.
    pub duration_s: f64,
    /// Application-health aggregate (completions, response times,
    /// backlog), accumulated in sample order.
    pub health: WindowHealthAgg,
    /// Traffic-mix vote counts in first-appearance order.
    pub mix_counts: Vec<(MixId, u32)>,
}

impl AppWindowDigest {
    /// Fold in one second ending at `t_s` and lasting `interval_s`.
    pub fn observe(&mut self, t_s: f64, interval_s: f64, front: &AppStats) {
        // Every second casts a mix vote, so no votes means the first one.
        if self.mix_counts.is_empty() {
            self.t_start_s = t_s - interval_s;
        }
        self.t_end_s = t_s;
        self.duration_s += interval_s;
        self.health.observe(front);
        match self.mix_counts.iter_mut().find(|(m, _)| *m == front.mix_id) {
            Some((_, c)) => *c += 1,
            None => self.mix_counts.push((front.mix_id, 1)),
        }
    }

    /// The majority traffic mix, `None` when nothing was observed. Ties
    /// break by first-appearance order: the winner is the *last* maximal
    /// count (`max_by_key` keeps the later of equal keys), so the label
    /// never depends on execution order.
    fn majority(&self) -> Option<MixId> {
        self.mix_counts
            .iter()
            .max_by_key(|(_, c)| *c)
            .map(|(m, _)| *m)
    }

    /// Finish the window — the one place a [`WindowInstance`] is built.
    /// The oracle labels it from the health and the two tiers' stress.
    /// Only the families `level` reads get features, whatever the tiers'
    /// means hold; each tier's combined vector is its OS then its HPC
    /// mean when both are kept and non-empty, and empty otherwise.
    /// Throughput is completions over the summed intervals. `None` when
    /// no second was observed.
    pub fn instance(
        self,
        tiers: [TierWindow; 2],
        level: MetricLevel,
        oracle: &OracleConfig,
    ) -> Option<WindowInstance> {
        let mix = self.majority()?;
        let [mut app, mut db] = tiers;
        let label = label_from_aggs(
            &self.health,
            [app.stress.stress(), db.stress.stress()],
            oracle,
        );
        for t in [&mut app, &mut db] {
            if !level.reads_os() {
                t.os_mean = Vec::new();
            }
            if !level.reads_hpc() {
                t.hpc_mean = Vec::new();
            }
        }
        let combined = |t: &TierWindow| {
            if t.os_mean.is_empty() || t.hpc_mean.is_empty() {
                Vec::new()
            } else {
                [t.os_mean.as_slice(), &t.hpc_mean].concat()
            }
        };
        let combined = [combined(&app), combined(&db)];
        // `[level][tier]`, in `MetricLevel::index` and `TierId::index` order.
        let features = [
            [app.os_mean, db.os_mean],
            [app.hpc_mean, db.hpc_mean],
            combined,
        ];
        Some(WindowInstance {
            label,
            mix,
            t_start_s: self.t_start_s,
            t_end_s: self.t_end_s,
            throughput: self.health.completed as f64 / self.duration_s.max(1e-9),
            features,
        })
    }
}

/// Both halves of a window in progress, for a caller that sees whole
/// samples with both tiers' metric rows.
#[derive(Debug, Default)]
pub struct WindowAgg {
    samples: usize,
    front_end: AppWindowDigest,
    tiers: [TierAgg; 2],
}

impl WindowAgg {
    /// Fold one second in; `hpc[tier]` and `os[tier]` are the tier's
    /// metric rows (see [`TierAgg::observe`]).
    ///
    /// # Panics
    ///
    /// Panics if a family's row width changes within the window.
    pub fn observe<H, O>(&mut self, sample: &SystemSample, hpc: [H; 2], os: [O; 2])
    where
        H: AsRef<[f64]> + Into<Vec<f64>>,
        O: AsRef<[f64]> + Into<Vec<f64>>,
    {
        self.samples += 1;
        self.front_end
            .observe(sample.t_s, sample.interval_s, &sample.front);
        let [hpc_app, hpc_db] = hpc;
        let [os_app, os_db] = os;
        let [app, db] = &mut self.tiers;
        app.observe(&sample.app, hpc_app, os_app);
        db.observe(&sample.db, hpc_db, os_db);
    }

    /// Seconds folded in so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Finish the window ([`AppWindowDigest::instance`]) with every
    /// family it was fed; `None` when no second was.
    pub fn finish(self, oracle: &OracleConfig) -> Option<WindowInstance> {
        self.front_end.instance(
            self.tiers.map(TierAgg::finish),
            MetricLevel::Combined,
            oracle,
        )
    }
}

/// One aggregated 30-second instance: the paper's `u* = (a1..an, C)` plus
/// bookkeeping for evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowInstance {
    /// Oracle verdict (class variable + bottleneck ground truth).
    pub label: WindowLabel,
    /// Majority traffic mix during the window.
    pub mix: MixId,
    /// Window start, seconds.
    pub t_start_s: f64,
    /// Window end, seconds.
    pub t_end_s: f64,
    /// Mean throughput over the window.
    pub throughput: f64,
    /// Aggregated features, indexed `[level][tier]`.
    features: [[Vec<f64>; 2]; 3],
}

impl WindowInstance {
    /// The feature vector of one (level, tier) family.
    pub fn features(&self, level: MetricLevel, tier: TierId) -> &[f64] {
        tier.select(level.select(&self.features)).as_slice()
    }

    /// Class variable: `true` = overload.
    pub fn overloaded(&self) -> bool {
        self.label.overloaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(rows: &[&[f64]]) -> Vec<f64> {
        let mut acc = RowMeanAccumulator::default();
        for &row in rows {
            acc.push(row);
        }
        acc.finish()
    }

    #[test]
    fn mean_of_equal_width_rows() {
        assert_eq!(mean(&[&[1.0, 2.0], &[3.0, 6.0]]), vec![2.0, 4.0]);
    }

    #[test]
    fn empty_input_yields_empty_vector() {
        assert!(mean(&[]).is_empty());
    }

    #[test]
    fn single_row_is_unchanged() {
        assert_eq!(mean(&[&[5.0, -1.0]]), vec![5.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched row widths")]
    fn accumulator_width_mismatch_panics() {
        let mut acc = RowMeanAccumulator::default();
        acc.push(vec![1.0, 2.0]);
        acc.push(vec![3.0]);
    }

    fn stats_with_mix(mix_id: MixId) -> AppStats {
        AppStats {
            ebs_target: 0,
            ebs_active: 0,
            mix_id,
            issued: 0,
            issued_browse: 0,
            completed: 0,
            completed_browse: 0,
            response_time_sum_s: 0.0,
            response_time_max_s: 0.0,
            in_flight: 0,
            response_times: webcap_sim::RtHistogram::default(),
        }
    }

    fn majority(mixes: &[MixId]) -> Option<MixId> {
        let mut front_end = AppWindowDigest::default();
        for &m in mixes {
            front_end.observe(1.0, 1.0, &stats_with_mix(m));
        }
        front_end.majority()
    }

    #[test]
    fn majority_wins_over_last_sample() {
        let mut mixes = vec![MixId::Ordering; 20];
        mixes.extend([MixId::Browsing; 10]);
        assert_eq!(majority(&mixes), Some(MixId::Ordering));
    }

    #[test]
    fn majority_ties_break_to_the_later_first_appearance() {
        use MixId::{Browsing, Ordering};
        assert_eq!(
            majority(&[Ordering, Browsing, Ordering, Browsing]),
            Some(Browsing)
        );
        assert_eq!(
            majority(&[Browsing, Ordering, Browsing, Ordering]),
            Some(Ordering)
        );
    }

    #[test]
    fn an_instance_keeps_only_the_families_its_level_reads() {
        let stats = stats_with_mix(MixId::Ordering);
        for level in MetricLevel::EXTENDED {
            let mut front_end = AppWindowDigest::default();
            front_end.observe(1.0, 1.0, &stats);
            let tiers = [(); 2].map(|()| {
                let mut tier = TierAgg::default();
                tier.observe(&TierSample::default(), vec![1.0; 2], vec![2.0; 3]);
                tier.finish()
            });
            let window = front_end
                .instance(tiers, level, &OracleConfig::default())
                .expect("a second was observed");
            let combined = level == MetricLevel::Combined;
            for tier in TierId::ALL {
                let width = |family| window.features(family, tier).len();
                assert_eq!(width(MetricLevel::Os), usize::from(level.reads_os()) * 3);
                assert_eq!(width(MetricLevel::Hpc), usize::from(level.reads_hpc()) * 2);
                assert_eq!(width(MetricLevel::Combined), usize::from(combined) * 5);
            }
        }
    }

    #[test]
    fn empty_window_has_no_majority_and_no_instance() {
        assert_eq!(majority(&[]), None);
        assert!(WindowAgg::default()
            .finish(&OracleConfig::default())
            .is_none());
    }
}
