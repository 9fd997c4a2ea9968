//! Ground-truth labeling: application-level "healthiness".
//!
//! The paper classifies offline stress-test intervals into `overload` /
//! `underload` using application-level health (throughput stagnation,
//! response-time explosion). With a simulator we can apply the same
//! application-level criterion exactly: a window is overloaded when the
//! mean response time of the requests it completed exceeds a knee
//! threshold — in a closed-loop system this is precisely the regime where
//! offered demand exceeds capacity and backlog piles up.
//!
//! The oracle also identifies the *bottleneck tier* (for training and
//! scoring the bottleneck predictor) from resource saturation: the tier
//! whose most-utilized resource is deeper into saturation, with queue
//! pressure as tie-breaker.

use serde::{Deserialize, Serialize};
use webcap_sim::{AppStats, SystemSample, TierId};

/// Oracle configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Mean response time above which a window counts as overloaded,
    /// seconds. The default (1.0 s) sits well past the closed-loop knee of
    /// the default testbed, where healthy responses take ≲ 0.3 s.
    pub rt_overload_threshold_s: f64,
    /// A window additionally counts as overloaded if the backlog
    /// (in-flight requests) grew by at least this many requests across it.
    pub backlog_growth_threshold: f64,
    /// Optional tail-latency criterion: a window also counts as overloaded
    /// when its 95th-percentile response time exceeds this, seconds. QoS
    /// regimes with per-request guarantees set this; `None` (the default)
    /// reproduces the paper's mean-based healthiness.
    pub p95_overload_threshold_s: Option<f64>,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            rt_overload_threshold_s: 1.0,
            backlog_growth_threshold: 30.0,
            p95_overload_threshold_s: None,
        }
    }
}

/// The oracle's verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowLabel {
    /// `true` = overloaded.
    pub overloaded: bool,
    /// Which tier is the bottleneck (meaningful primarily when
    /// overloaded, but always computed).
    pub bottleneck: TierId,
    /// Mean response time across the window, seconds (0 if nothing
    /// completed).
    pub mean_response_time_s: f64,
    /// 95th-percentile response time across the window, seconds (0 if
    /// nothing completed).
    pub p95_response_time_s: f64,
    /// Backlog growth across the window (may be negative when draining).
    pub backlog_growth: f64,
}

/// Incremental application-health aggregate over one window, carrying
/// exactly the evidence [`label_window`] needs: completion and
/// response-time sums (accumulated in sample order, so the float
/// operations match the batch path bit-for-bit), the merged
/// response-time histogram, and the first/last backlog readings.
///
/// Sharded collectors ship this inside their window digests so the
/// merge node can recover the identical [`WindowLabel`] without ever
/// seeing the raw samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowHealthAgg {
    /// Requests completed across the window.
    pub completed: u64,
    /// Sum of response times across the window, seconds.
    pub rt_sum_s: f64,
    /// Merged response-time histogram (merge order = sample order).
    pub rt_hist: webcap_sim::RtHistogram,
    /// Backlog at the first observed sample, `None` before any sample.
    pub first_in_flight: Option<u32>,
    /// Backlog at the last observed sample.
    pub last_in_flight: u32,
}

impl WindowHealthAgg {
    /// Fold one second's front-end statistics in. The completion count
    /// saturates, as [`RtHistogram::merge`](webcap_sim::RtHistogram::merge)
    /// does: a collector folds counts off the wire, which may hold any
    /// value, and an honest stream never nears the limit.
    pub fn observe(&mut self, s: &AppStats) {
        self.completed = self.completed.saturating_add(s.completed);
        self.rt_sum_s += s.response_time_sum_s;
        self.rt_hist.merge(&s.response_times);
        if self.first_in_flight.is_none() {
            self.first_in_flight = Some(s.in_flight);
        }
        self.last_in_flight = s.in_flight;
    }
}

/// Incremental per-tier saturation aggregate with the float-operation
/// order of the batch stress score: utilization and queue pressure are
/// summed in sample order and normalized once at [`TierStressAgg::stress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TierStressAgg {
    /// Sum over samples of the most-utilized resource's utilization.
    pub util_sum: f64,
    /// Sum over samples of normalized queue pressure.
    pub queue_sum: f64,
    /// Samples observed.
    pub n: u64,
}

impl TierStressAgg {
    /// Fold one tier sample in.
    pub fn observe(&mut self, t: &webcap_sim::TierSample) {
        self.util_sum += t.utilization.max(t.disk_utilization);
        self.queue_sum += t.pool_queue_avg + t.disk_queue_avg + t.avg_runnable * 0.1;
        self.n += 1;
    }

    /// Saturation score of the tier: how deep its most loaded resource
    /// is into saturation, plus normalized queue pressure.
    #[must_use]
    pub fn stress(&self) -> f64 {
        let n = self.n.max(1) as f64;
        self.util_sum / n + 0.002 * (self.queue_sum / n)
    }
}

/// Label one window from pre-computed aggregates. [`label_window`] is
/// this function applied to aggregates built in sample order; a merge
/// node labeling from shipped digests therefore produces bit-identical
/// labels.
#[must_use]
pub fn label_from_aggs(
    health: &WindowHealthAgg,
    stress: [f64; 2],
    cfg: &OracleConfig,
) -> WindowLabel {
    let mean_rt = if health.completed > 0 {
        health.rt_sum_s / health.completed as f64
    } else {
        0.0
    };
    let p95 = health.rt_hist.p95().unwrap_or(0.0);
    let backlog_growth = match health.first_in_flight {
        Some(first) => health.last_in_flight as f64 - first as f64,
        None => 0.0,
    };

    let overloaded = mean_rt > cfg.rt_overload_threshold_s
        || backlog_growth >= cfg.backlog_growth_threshold
        || cfg.p95_overload_threshold_s.is_some_and(|t| p95 > t);

    let [app_stress, db_stress] = stress;
    let bottleneck = if app_stress >= db_stress {
        TierId::App
    } else {
        TierId::Db
    };

    WindowLabel {
        overloaded,
        bottleneck,
        mean_response_time_s: mean_rt,
        p95_response_time_s: p95,
        backlog_growth,
    }
}

/// Label one window of consecutive samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn label_window(samples: &[SystemSample], cfg: &OracleConfig) -> WindowLabel {
    assert!(!samples.is_empty(), "cannot label an empty window");
    let mut health = WindowHealthAgg::default();
    let mut stress = [TierStressAgg::default(); 2];
    for s in samples {
        health.observe(&s.front);
        for tier in TierId::ALL {
            tier.select_mut(&mut stress).observe(s.tier(tier));
        }
    }
    let [app_stress, db_stress] = &stress;
    label_from_aggs(&health, [app_stress.stress(), db_stress.stress()], cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcap_sim::TierSample;
    use webcap_tpcw::MixId;

    fn sample(
        rt_mean: f64,
        completed: u64,
        in_flight: u32,
        app_util: f64,
        db_util: f64,
    ) -> SystemSample {
        let mut response_times = webcap_sim::RtHistogram::new();
        for _ in 0..completed {
            response_times.record(rt_mean);
        }
        SystemSample {
            t_s: 0.0,
            interval_s: 1.0,
            front: AppStats {
                ebs_target: 100,
                ebs_active: 100,
                mix_id: MixId::Shopping,
                issued: completed,
                issued_browse: 0,
                completed,
                completed_browse: 0,
                response_time_sum_s: rt_mean * completed as f64,
                response_time_max_s: rt_mean * 2.0,
                in_flight,
                response_times,
            },
            app: TierSample {
                utilization: app_util,
                ..Default::default()
            },
            db: TierSample {
                utilization: db_util,
                ..Default::default()
            },
        }
    }

    #[test]
    fn fast_responses_are_underload() {
        let w: Vec<_> = (0..30).map(|_| sample(0.1, 50, 5, 0.5, 0.3)).collect();
        let label = label_window(&w, &OracleConfig::default());
        assert!(!label.overloaded);
        assert!((label.mean_response_time_s - 0.1).abs() < 1e-9);
    }

    #[test]
    fn slow_responses_are_overload() {
        let w: Vec<_> = (0..30).map(|_| sample(3.0, 40, 200, 1.0, 0.4)).collect();
        let label = label_window(&w, &OracleConfig::default());
        assert!(label.overloaded);
        assert_eq!(label.bottleneck, TierId::App);
    }

    #[test]
    fn backlog_growth_alone_triggers_overload() {
        let mut w: Vec<_> = (0..30).map(|_| sample(0.3, 40, 0, 0.9, 0.95)).collect();
        for (i, s) in w.iter_mut().enumerate() {
            s.front.in_flight = (i * 3) as u32; // +87 over the window
        }
        let label = label_window(&w, &OracleConfig::default());
        assert!(label.overloaded);
        assert_eq!(label.bottleneck, TierId::Db);
        assert!(label.backlog_growth > 80.0);
    }

    #[test]
    fn bottleneck_follows_utilization() {
        let w: Vec<_> = (0..10).map(|_| sample(2.0, 40, 100, 0.4, 0.99)).collect();
        assert_eq!(
            label_window(&w, &OracleConfig::default()).bottleneck,
            TierId::Db
        );
        let w: Vec<_> = (0..10).map(|_| sample(2.0, 40, 100, 0.99, 0.4)).collect();
        assert_eq!(
            label_window(&w, &OracleConfig::default()).bottleneck,
            TierId::App
        );
    }

    #[test]
    fn disk_saturation_counts_for_db_stress() {
        let mut w: Vec<_> = (0..10).map(|_| sample(2.0, 40, 100, 0.7, 0.5)).collect();
        for s in &mut w {
            s.db.disk_utilization = 1.0;
            s.db.disk_queue_avg = 30.0;
        }
        assert_eq!(
            label_window(&w, &OracleConfig::default()).bottleneck,
            TierId::Db
        );
    }

    #[test]
    fn no_completions_is_overload_only_if_backlog_grows() {
        // A silent window with stable backlog: not enough evidence.
        let w: Vec<_> = (0..5).map(|_| sample(0.0, 0, 10, 0.2, 0.2)).collect();
        assert!(!label_window(&w, &OracleConfig::default()).overloaded);
    }

    #[test]
    fn p95_criterion_catches_tail_latency() {
        // Mean rt is healthy (0.3 s) but the p95 threshold is exceeded.
        let w: Vec<_> = (0..30).map(|_| sample(0.3, 50, 5, 0.8, 0.5)).collect();
        let mean_only = label_window(&w, &OracleConfig::default());
        assert!(!mean_only.overloaded);
        assert!(mean_only.p95_response_time_s > 0.0);
        let strict = OracleConfig {
            p95_overload_threshold_s: Some(0.2),
            ..OracleConfig::default()
        };
        assert!(
            label_window(&w, &strict).overloaded,
            "tail criterion must fire"
        );
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let _ = label_window(&[], &OracleConfig::default());
    }
}
