//! Online measurement of the capacity of multi-tier websites using
//! hardware performance counters — the core of the webcap reproduction
//! (Rao & Xu, ICDCS 2008).
//!
//! The crate implements the paper's contribution on top of the simulated
//! testbed substrates:
//!
//! * [`pi`] — the productivity index `PI = Yield/Cost` (Eq. 1) and the
//!   correlation measure selecting its metric pair (Eq. 2).
//! * [`oracle`] — application-level ground-truth labeling of intervals.
//! * [`monitor`] — the measurement pipeline: per-second HPC/OS collection
//!   aggregated into labeled 30-second instances, every one built by the
//!   one window builder ([`WindowAgg`], [`TierAgg`],
//!   [`AppWindowDigest::observe`], [`AppWindowDigest::instance`]).
//! * [`synopsis`] — per-(tier, workload) performance synopses with
//!   information-gain attribute selection.
//! * [`coordinator`] — the two-level coordinated predictor (GPT/LHT) and
//!   bottleneck pattern table (BPT).
//! * [`meter`] — [`CapacityMeter`]: offline training and online
//!   prediction end to end (serializable for train-offline /
//!   deploy-online).
//! * [`online`] — [`OnlineDecision`]: what the online phase emits per
//!   completed window.
//! * [`workloads`] — calibrated training/testing traffic programs.
//! * [`admission`] — a measurement-based admission controller built on
//!   the meter (the paper's motivating application).
//!
//! # Example
//!
//! ```no_run
//! use webcap_core::{CapacityMeter, MeterConfig};
//! use webcap_tpcw::Mix;
//!
//! # fn main() -> Result<(), webcap_ml::FitError> {
//! let config = MeterConfig::small_for_tests(7);
//! let mut meter = CapacityMeter::train(&config)?;
//! let report = meter.evaluate_mix(Mix::ordering(), 42);
//! println!("balanced accuracy: {:.3}", report.balanced_accuracy());
//! # Ok(())
//! # }
//! ```

// The invariant bans of DESIGN §8: determinism (configured in the root
// `clippy.toml`), no panic site in library code.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

pub mod admission;
mod agg;
pub mod coordinator;
pub mod meter;
pub mod monitor;
pub mod online;
pub mod oracle;
pub mod pi;
pub mod synopsis;
pub mod workloads;

pub use admission::AdmissionController;
pub use agg::{AppWindowDigest, TierAgg, TierWindow, WindowAgg};
pub use coordinator::{CoordinatedPrediction, CoordinatedPredictor, CoordinatorConfig, TieScheme};
pub use meter::{CapacityMeter, EvaluationReport, MeterConfig};
pub use monitor::{collect_run, collect_run_for, MetricLevel, RunLog, WindowInstance};
pub use online::OnlineDecision;
pub use oracle::{
    label_from_aggs, label_window, OracleConfig, TierStressAgg, WindowHealthAgg, WindowLabel,
};
pub use pi::{correlation, select_pi, PiDefinition, PiSelection};
pub use synopsis::{PerformanceSynopsis, SynopsisSpec};
pub use webcap_parallel::Parallelism;
