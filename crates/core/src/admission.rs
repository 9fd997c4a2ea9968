//! A measurement-based admission controller — the paper's motivating
//! application (Section I: "knowledge about the server capacity can help a
//! measurement-based admission controller in the front-end to regulate the
//! input traffic rate so as to prevent the server from running in an
//! overloaded state").
//!
//! The controller runs an AIMD loop over the meter's online predictions:
//! while the meter reports underload, the admitted-session cap grows
//! additively; on a predicted overload it shrinks multiplicatively. The
//! experiment driver simulates consecutive steady segments (the closed
//! loop re-converges within a think cycle, so segment boundaries are a
//! faithful approximation of continuous control) and reports the
//! with/without-controller comparison.

use serde::{Deserialize, Serialize};
use webcap_tpcw::{Mix, TrafficProgram};

use crate::meter::CapacityMeter;
use crate::monitor::collect_run_for;

/// Lower bound on the admitted-session cap.
pub const MIN_EBS: u32 = 20;

/// Upper bound on the admitted-session cap: far above any realistic
/// offered load, so in effect only the floor binds.
pub const MAX_EBS: u32 = 100_000;

/// Additive increase per underloaded interval.
const INCREASE_STEP: u32 = 25;

/// Multiplicative decrease applied on a predicted overload.
const DECREASE_FACTOR: f64 = 0.75;

/// Seconds per control segment (one prediction per segment).
const SEGMENT_S: f64 = 60.0;

/// The AIMD controller state machine: the cap stays in
/// `[MIN_EBS, MAX_EBS]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionController {
    cap: u32,
}

impl AdmissionController {
    /// Create a controller with an initial admitted-session cap, clamped
    /// into `[MIN_EBS, MAX_EBS]`.
    pub fn new(initial_cap: u32) -> AdmissionController {
        AdmissionController {
            cap: initial_cap.clamp(MIN_EBS, MAX_EBS),
        }
    }

    /// Current admitted-session cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Feed one overload prediction; returns the updated cap.
    pub fn on_prediction(&mut self, overloaded: bool) -> u32 {
        if overloaded {
            self.cap = ((self.cap as f64 * DECREASE_FACTOR) as u32).max(MIN_EBS);
        } else {
            self.cap = self.cap.saturating_add(INCREASE_STEP).min(MAX_EBS);
        }
        self.cap
    }

    /// Force the cap to `cap`, clamped into `[MIN_EBS, MAX_EBS]` —
    /// the supervisor's SafeMode override. Returns the resulting cap.
    pub fn clamp_to(&mut self, cap: u32) -> u32 {
        self.cap = cap.clamp(MIN_EBS, MAX_EBS);
        self.cap
    }
}

/// One control segment's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentOutcome {
    /// Segment index.
    pub segment: usize,
    /// Sessions admitted during the segment.
    pub admitted_ebs: u32,
    /// Meter's verdict on the segment.
    pub predicted_overload: bool,
    /// Oracle verdict.
    pub actual_overload: bool,
    /// Mean throughput, requests/second.
    pub throughput: f64,
    /// Mean response time, seconds.
    pub mean_response_time_s: f64,
}

/// Outcome of an admission-control experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionOutcome {
    /// Per-segment trace.
    pub segments: Vec<SegmentOutcome>,
}

impl AdmissionOutcome {
    /// Mean response time across segments.
    pub fn mean_response_time_s(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        self.segments
            .iter()
            .map(|s| s.mean_response_time_s)
            .sum::<f64>()
            / self.segments.len() as f64
    }

    /// Mean throughput across segments.
    pub fn mean_throughput(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        self.segments.iter().map(|s| s.throughput).sum::<f64>() / self.segments.len() as f64
    }

    /// Fraction of segments the oracle marked overloaded.
    pub fn overload_fraction(&self) -> f64 {
        if self.segments.is_empty() {
            return 0.0;
        }
        self.segments.iter().filter(|s| s.actual_overload).count() as f64
            / self.segments.len() as f64
    }
}

/// Drive `segments` control segments of offered load `offered_ebs` under
/// `mix`, admitting at most the controller's cap each segment. Pass
/// `controlled = false` to measure the uncontrolled baseline (cap pinned
/// at the offered load).
pub fn run_admission_experiment(
    meter: &mut CapacityMeter,
    mix: &Mix,
    offered_ebs: u32,
    segments: usize,
    controlled: bool,
    seed: u64,
) -> AdmissionOutcome {
    let mut controller = AdmissionController::new(offered_ebs.min(MIN_EBS * 4));
    meter.reset_history();
    let window_len = meter.config().window_len;
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let admitted = if controlled {
            controller.cap().min(offered_ebs)
        } else {
            offered_ebs
        };
        let program = TrafficProgram::steady(mix.clone(), admitted, SEGMENT_S);
        let mut sim = meter.config().sim.clone();
        sim.seed = seed.wrapping_add(i as u64);
        let log = collect_run_for(
            &sim,
            &program,
            &meter.config().hpc_model,
            seed.wrapping_add(1000 + i as u64),
            meter.config().level,
        );
        // Judge the segment by its final window (steady state reached).
        let windows = log.windows(window_len, window_len, &meter.config().oracle);
        let Some(w) = windows.last() else { continue };
        let prediction = meter.predict(w);
        let completed: u64 = log.samples.iter().map(|s| s.front.completed).sum();
        let rt_sum: f64 = log
            .samples
            .iter()
            .map(|s| s.front.response_time_sum_s)
            .sum();
        out.push(SegmentOutcome {
            segment: i,
            admitted_ebs: admitted,
            predicted_overload: prediction.overloaded,
            actual_overload: w.overloaded(),
            throughput: completed as f64 / SEGMENT_S,
            mean_response_time_s: if completed > 0 {
                rt_sum / completed as f64
            } else {
                0.0
            },
        });
        if controlled {
            controller.on_prediction(prediction.overloaded);
        }
    }
    AdmissionOutcome { segments: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aimd_decreases_on_overload_increases_otherwise() {
        let mut c = AdmissionController::new(400);
        assert_eq!(c.cap(), 400);
        let after_over = c.on_prediction(true);
        assert_eq!(after_over, 300);
        let after_under = c.on_prediction(false);
        assert_eq!(after_under, 325);
    }

    #[test]
    fn cap_never_drops_below_minimum() {
        let mut c = AdmissionController::new(60);
        for _ in 0..10 {
            c.on_prediction(true);
        }
        assert_eq!(c.cap(), MIN_EBS);
    }

    #[test]
    fn initial_cap_clamps_into_bounds() {
        assert_eq!(AdmissionController::new(5).cap(), MIN_EBS);
        assert_eq!(AdmissionController::new(u32::MAX).cap(), MAX_EBS);
    }

    #[test]
    fn cap_never_exceeds_maximum() {
        let mut c = AdmissionController::new(MAX_EBS - 10);
        for _ in 0..5 {
            c.on_prediction(false);
        }
        assert_eq!(c.cap(), MAX_EBS, "additive increase saturates at MAX_EBS");
    }

    #[test]
    fn clamp_to_respects_both_bounds() {
        let mut c = AdmissionController::new(100);
        assert_eq!(c.clamp_to(5), MIN_EBS, "clamp floor");
        assert_eq!(c.clamp_to(u32::MAX), MAX_EBS, "clamp ceiling");
        assert_eq!(c.clamp_to(42), 42, "in-range value sticks");
        assert_eq!(c.cap(), 42);
    }

    #[test]
    fn outcome_statistics() {
        let outcome = AdmissionOutcome {
            segments: vec![
                SegmentOutcome {
                    segment: 0,
                    admitted_ebs: 100,
                    predicted_overload: false,
                    actual_overload: false,
                    throughput: 50.0,
                    mean_response_time_s: 0.2,
                },
                SegmentOutcome {
                    segment: 1,
                    admitted_ebs: 200,
                    predicted_overload: true,
                    actual_overload: true,
                    throughput: 40.0,
                    mean_response_time_s: 2.0,
                },
            ],
        };
        assert_eq!(outcome.mean_throughput(), 45.0);
        assert_eq!(outcome.mean_response_time_s(), 1.1);
        assert_eq!(outcome.overload_fraction(), 0.5);
    }
}
