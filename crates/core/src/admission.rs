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

/// AIMD policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Lower bound on the admitted-session cap.
    pub min_ebs: u32,
    /// Upper bound on the admitted-session cap. Defaults to a value far
    /// above any realistic offered load — effectively unbounded — so
    /// existing configs keep their behavior; a deployment that knows
    /// its front-end limit sets it explicitly.
    #[serde(default = "default_max_ebs")]
    pub max_ebs: u32,
    /// Additive increase per underloaded interval.
    pub increase_step: u32,
    /// Multiplicative decrease factor applied on predicted overload.
    pub decrease_factor: f64,
    /// Seconds per control segment (one prediction per segment).
    pub segment_s: f64,
}

/// Serde default for [`AdmissionConfig::max_ebs`]: effectively
/// unbounded, preserving pre-`max_ebs` behavior.
fn default_max_ebs() -> u32 {
    100_000
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            min_ebs: 20,
            max_ebs: default_max_ebs(),
            increase_step: 25,
            decrease_factor: 0.75,
            segment_s: 60.0,
        }
    }
}

/// Why an [`AdmissionConfig`] was rejected.
///
/// Each variant names the degenerate parameter and carries the offending
/// value, so a front-end can surface exactly what to fix instead of a
/// generic "bad config".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionConfigError {
    /// `min_ebs == 0`: the AIMD floor would admit nobody and the
    /// multiplicative decrease could collapse the cap to zero forever.
    ZeroMinEbs,
    /// `decrease_factor` outside the open interval `(0, 1)`: at `>= 1`
    /// overload would never shrink the cap (or would grow it); at `<= 0`
    /// one overload would zero it. NaN is rejected by the same arm.
    DecreaseFactorOutOfRange(f64),
    /// `segment_s <= 0` (or NaN): a control segment must span positive
    /// time for the meter to observe anything.
    NonPositiveSegment(f64),
    /// `max_ebs < min_ebs`: the admissible-cap interval is empty.
    MaxBelowMin {
        /// Configured floor.
        min_ebs: u32,
        /// Configured ceiling.
        max_ebs: u32,
    },
}

impl std::fmt::Display for AdmissionConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionConfigError::ZeroMinEbs => f.write_str("min_ebs must be positive"),
            AdmissionConfigError::DecreaseFactorOutOfRange(v) => {
                write!(f, "decrease factor must be in (0,1), got {v}")
            }
            AdmissionConfigError::NonPositiveSegment(v) => {
                write!(f, "segment must be positive, got {v} s")
            }
            AdmissionConfigError::MaxBelowMin { min_ebs, max_ebs } => {
                write!(f, "max_ebs ({max_ebs}) must be >= min_ebs ({min_ebs})")
            }
        }
    }
}

impl std::error::Error for AdmissionConfigError {}

impl AdmissionConfig {
    /// Check every parameter, returning the first violation.
    pub fn validate(&self) -> Result<(), AdmissionConfigError> {
        if self.min_ebs == 0 {
            return Err(AdmissionConfigError::ZeroMinEbs);
        }
        if self.max_ebs < self.min_ebs {
            return Err(AdmissionConfigError::MaxBelowMin {
                min_ebs: self.min_ebs,
                max_ebs: self.max_ebs,
            });
        }
        if !(self.decrease_factor > 0.0 && self.decrease_factor < 1.0) {
            return Err(AdmissionConfigError::DecreaseFactorOutOfRange(
                self.decrease_factor,
            ));
        }
        if self.segment_s.is_nan() || self.segment_s <= 0.0 {
            return Err(AdmissionConfigError::NonPositiveSegment(self.segment_s));
        }
        Ok(())
    }
}

/// The AIMD controller state machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    cap: u32,
}

impl AdmissionController {
    /// Create a controller with an initial admitted-session cap,
    /// rejecting degenerate configurations with a typed error.
    pub fn try_new(
        cfg: AdmissionConfig,
        initial_cap: u32,
    ) -> Result<AdmissionController, AdmissionConfigError> {
        cfg.validate()?;
        Ok(AdmissionController {
            cfg,
            cap: initial_cap.clamp(cfg.min_ebs, cfg.max_ebs),
        })
    }

    /// Create a controller with an initial admitted-session cap.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (`decrease_factor` outside
    /// `(0, 1)`, `min_ebs == 0`, or non-positive segment length). Use
    /// [`AdmissionController::try_new`] to handle the error instead.
    #[expect(
        clippy::panic,
        reason = "the documented panicking constructor for configs written in code; outside input goes through `try_new`"
    )]
    pub fn new(cfg: AdmissionConfig, initial_cap: u32) -> AdmissionController {
        AdmissionController::try_new(cfg, initial_cap).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Current admitted-session cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The policy parameters this controller runs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Feed one overload prediction; returns the updated cap.
    pub fn on_prediction(&mut self, overloaded: bool) -> u32 {
        if overloaded {
            self.cap = ((self.cap as f64 * self.cfg.decrease_factor) as u32).max(self.cfg.min_ebs);
        } else {
            self.cap = self
                .cap
                .saturating_add(self.cfg.increase_step)
                .min(self.cfg.max_ebs);
        }
        self.cap
    }

    /// Force the cap to `cap`, clamped into `[min_ebs, max_ebs]` —
    /// the supervisor's SafeMode override. Returns the resulting cap.
    pub fn clamp_to(&mut self, cap: u32) -> u32 {
        self.cap = cap.clamp(self.cfg.min_ebs, self.cfg.max_ebs);
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
    cfg: AdmissionConfig,
    mix: &Mix,
    offered_ebs: u32,
    segments: usize,
    controlled: bool,
    seed: u64,
) -> AdmissionOutcome {
    let mut controller = AdmissionController::new(cfg, offered_ebs.min(cfg.min_ebs * 4));
    meter.reset_history();
    let window_len = meter.config().window_len;
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let admitted = if controlled {
            controller.cap().min(offered_ebs)
        } else {
            offered_ebs
        };
        let program = TrafficProgram::steady(mix.clone(), admitted, cfg.segment_s);
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
        let completed: u64 = log.samples.iter().map(|s| s.completed).sum();
        let rt_sum: f64 = log.samples.iter().map(|s| s.response_time_sum_s).sum();
        out.push(SegmentOutcome {
            segment: i,
            admitted_ebs: admitted,
            predicted_overload: prediction.overloaded,
            actual_overload: w.overloaded(),
            throughput: completed as f64 / cfg.segment_s,
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
        let mut c = AdmissionController::new(AdmissionConfig::default(), 400);
        assert_eq!(c.cap(), 400);
        let after_over = c.on_prediction(true);
        assert_eq!(after_over, 300);
        let after_under = c.on_prediction(false);
        assert_eq!(after_under, 325);
    }

    #[test]
    fn cap_never_drops_below_minimum() {
        let cfg = AdmissionConfig {
            min_ebs: 50,
            ..AdmissionConfig::default()
        };
        let mut c = AdmissionController::new(cfg, 60);
        for _ in 0..10 {
            c.on_prediction(true);
        }
        assert_eq!(c.cap(), 50);
    }

    #[test]
    fn initial_cap_clamps_up_to_minimum() {
        let cfg = AdmissionConfig {
            min_ebs: 40,
            ..AdmissionConfig::default()
        };
        let c = AdmissionController::new(cfg, 5);
        assert_eq!(c.cap(), 40);
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

    #[test]
    #[should_panic(expected = "decrease factor")]
    fn bad_decrease_factor_rejected() {
        let cfg = AdmissionConfig {
            decrease_factor: 1.5,
            ..AdmissionConfig::default()
        };
        let _ = AdmissionController::new(cfg, 100);
    }

    #[test]
    fn zero_min_ebs_rejected_with_typed_error() {
        let cfg = AdmissionConfig {
            min_ebs: 0,
            ..AdmissionConfig::default()
        };
        assert_eq!(cfg.validate(), Err(AdmissionConfigError::ZeroMinEbs));
        assert_eq!(
            AdmissionController::try_new(cfg, 100).unwrap_err(),
            AdmissionConfigError::ZeroMinEbs
        );
    }

    #[test]
    fn out_of_range_decrease_factor_rejected_with_typed_error() {
        for bad in [0.0, 1.0, 1.5, -0.5, f64::NAN] {
            let cfg = AdmissionConfig {
                decrease_factor: bad,
                ..AdmissionConfig::default()
            };
            match AdmissionController::try_new(cfg, 100) {
                Err(AdmissionConfigError::DecreaseFactorOutOfRange(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                }
                other => panic!("decrease_factor={bad} gave {other:?}"),
            }
        }
    }

    #[test]
    fn non_positive_segment_rejected_with_typed_error() {
        for bad in [0.0, -60.0, f64::NAN] {
            let cfg = AdmissionConfig {
                segment_s: bad,
                ..AdmissionConfig::default()
            };
            match cfg.validate() {
                Err(AdmissionConfigError::NonPositiveSegment(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                }
                other => panic!("segment_s={bad} gave {other:?}"),
            }
        }
    }

    #[test]
    fn max_below_min_rejected_with_typed_error() {
        let cfg = AdmissionConfig {
            min_ebs: 50,
            max_ebs: 40,
            ..AdmissionConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(AdmissionConfigError::MaxBelowMin {
                min_ebs: 50,
                max_ebs: 40
            })
        );
        let msg = AdmissionConfigError::MaxBelowMin {
            min_ebs: 50,
            max_ebs: 40,
        }
        .to_string();
        assert!(msg.contains("max_ebs"), "{msg}");
    }

    #[test]
    fn cap_never_exceeds_maximum() {
        let cfg = AdmissionConfig {
            max_ebs: 90,
            ..AdmissionConfig::default()
        };
        let mut c = AdmissionController::new(cfg, 500);
        assert_eq!(c.cap(), 90, "initial cap clamps down to max_ebs");
        for _ in 0..5 {
            c.on_prediction(false);
        }
        assert_eq!(c.cap(), 90, "additive increase saturates at max_ebs");
    }

    #[test]
    fn clamp_to_respects_both_bounds() {
        let cfg = AdmissionConfig {
            min_ebs: 20,
            max_ebs: 200,
            ..AdmissionConfig::default()
        };
        let mut c = AdmissionController::new(cfg, 100);
        assert_eq!(c.clamp_to(5), 20, "clamp floor");
        assert_eq!(c.clamp_to(1000), 200, "clamp ceiling");
        assert_eq!(c.clamp_to(42), 42, "in-range value sticks");
        assert_eq!(c.cap(), 42);
        assert_eq!(c.config().min_ebs, 20);
    }

    #[test]
    fn config_without_max_ebs_deserializes_with_default() {
        // Configs serialized before `max_ebs` existed must keep loading.
        let json = r#"{"min_ebs":20,"increase_step":25,"decrease_factor":0.75,"segment_s":60.0}"#;
        let cfg: AdmissionConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.max_ebs, 100_000);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn valid_config_passes_validation() {
        assert_eq!(AdmissionConfig::default().validate(), Ok(()));
        let c = AdmissionController::try_new(AdmissionConfig::default(), 100).unwrap();
        assert_eq!(c.cap(), 100);
    }

    #[test]
    fn error_messages_name_the_parameter() {
        assert_eq!(
            AdmissionConfigError::ZeroMinEbs.to_string(),
            "min_ebs must be positive"
        );
        assert!(AdmissionConfigError::DecreaseFactorOutOfRange(1.5)
            .to_string()
            .contains("decrease factor must be in (0,1)"));
        assert!(AdmissionConfigError::NonPositiveSegment(-1.0)
            .to_string()
            .contains("segment must be positive"));
    }
}
