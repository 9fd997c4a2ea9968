//! Telemetry: per-interval samples of tier and system state.
//!
//! The engine emits one [`SystemSample`] per sampling period (1 s by
//! default, matching the paper's collection rate). The HPC and OS metric
//! synthesizers consume [`TierSample`]s; the capacity meter aggregates
//! samples into 30-second training instances.

use serde::{Deserialize, Serialize};
use webcap_tpcw::MixId;

use crate::histogram::RtHistogram;

/// Per-interval statistics of one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TierSample {
    /// CPU busy fraction (0..1) over the interval.
    pub utilization: f64,
    /// CPU work units delivered during the interval.
    pub delivered_work_s: f64,
    /// Time-averaged number of runnable jobs on the CPU.
    pub avg_runnable: f64,
    /// Time-averaged tokens (threads/connections) in use.
    pub pool_in_use_avg: f64,
    /// Time-averaged token wait-queue length.
    pub pool_queue_avg: f64,
    /// Instantaneous token wait-queue length at the sample instant.
    pub pool_queue_end: usize,
    /// Instantaneous tokens in use at the sample instant.
    pub pool_in_use_end: usize,
    /// Disk busy fraction (0..1); zero on the app tier.
    pub disk_utilization: f64,
    /// Time-averaged disk queue length.
    pub disk_queue_avg: f64,
    /// Disk operations completed.
    pub disk_ops: u64,
    /// Jobs that entered this tier during the interval (requests on the
    /// app tier, DB calls on the DB tier).
    pub arrivals: u64,
    /// Jobs that left this tier during the interval.
    pub completions: u64,
    /// CPU work submitted this interval by Browse-class requests.
    pub browse_work_submitted_s: f64,
    /// CPU work submitted this interval by Order-class requests.
    pub order_work_submitted_s: f64,
}

impl TierSample {
    /// Fraction of submitted CPU work from Browse-class requests;
    /// 0.5 when no work was submitted.
    pub fn browse_work_fraction(&self) -> f64 {
        let total = self.browse_work_submitted_s + self.order_work_submitted_s;
        if total > 0.0 {
            self.browse_work_submitted_s / total
        } else {
            0.5
        }
    }
}

/// One interval's front-end statistics: what a client-facing observer
/// (the application tier's agent) sees of the whole site — request
/// counts, response times, the backlog and the traffic program's state.
/// The operational laws read throughput, response time and population
/// off one such record, and the window oracle labels from a window's
/// worth of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppStats {
    /// Traffic program's target EB population.
    pub ebs_target: u32,
    /// EBs actually active.
    pub ebs_active: u32,
    /// Identifier of the traffic mix active at the interval end.
    pub mix_id: MixId,
    /// Requests issued during the interval.
    pub issued: u64,
    /// Issued requests of Browse class.
    pub issued_browse: u64,
    /// Requests completed during the interval.
    pub completed: u64,
    /// Completed requests of Browse class.
    pub completed_browse: u64,
    /// Sum of response times of completed requests, seconds.
    pub response_time_sum_s: f64,
    /// Maximum response time among completed requests, seconds.
    pub response_time_max_s: f64,
    /// Requests in flight at the interval end.
    pub in_flight: u32,
    /// Histogram of the response times completed this interval.
    pub response_times: RtHistogram,
}

impl AppStats {
    /// The front-end statistics of a full sample.
    pub fn from_sample(s: &SystemSample) -> AppStats {
        s.front.clone()
    }
}

/// One sampling interval of the whole system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSample {
    /// Interval end, seconds since simulation start.
    pub t_s: f64,
    /// Interval length, seconds.
    pub interval_s: f64,
    /// Front-end statistics.
    pub front: AppStats,
    /// Application-tier statistics.
    pub app: TierSample,
    /// Database-tier statistics.
    pub db: TierSample,
}

impl SystemSample {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        self.front.completed as f64 / self.interval_s
    }

    /// Mean response time of requests completed this interval, or `None`
    /// if none completed.
    pub fn mean_response_time_s(&self) -> Option<f64> {
        let front = &self.front;
        (front.completed > 0).then(|| front.response_time_sum_s / front.completed as f64)
    }

    /// Tier sample by id.
    pub fn tier(&self, tier: crate::config::TierId) -> &TierSample {
        match tier {
            crate::config::TierId::App => &self.app,
            crate::config::TierId::Db => &self.db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierId;

    fn sample(completed: u64, rt_sum: f64) -> SystemSample {
        SystemSample {
            t_s: 1.0,
            interval_s: 1.0,
            front: AppStats {
                ebs_target: 10,
                ebs_active: 10,
                mix_id: MixId::Shopping,
                issued: completed + 1,
                issued_browse: 0,
                completed,
                completed_browse: 0,
                response_time_sum_s: rt_sum,
                response_time_max_s: 0.0,
                in_flight: 1,
                response_times: RtHistogram::new(),
            },
            app: TierSample::default(),
            db: TierSample::default(),
        }
    }

    #[test]
    fn throughput_and_response_time() {
        let s = sample(10, 2.5);
        assert_eq!(s.throughput(), 10.0);
        assert_eq!(s.mean_response_time_s(), Some(0.25));
        assert_eq!(sample(0, 0.0).mean_response_time_s(), None);
    }

    #[test]
    fn browse_fraction_guards_empty() {
        let t = TierSample::default();
        assert_eq!(t.browse_work_fraction(), 0.5);
        let t = TierSample {
            browse_work_submitted_s: 3.0,
            order_work_submitted_s: 1.0,
            ..TierSample::default()
        };
        assert_eq!(t.browse_work_fraction(), 0.75);
    }

    #[test]
    fn tier_accessor() {
        let s = sample(1, 0.1);
        assert_eq!(s.tier(TierId::App), &s.app);
        assert_eq!(s.tier(TierId::Db), &s.db);
    }
}
