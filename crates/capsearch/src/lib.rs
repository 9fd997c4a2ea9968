//! SLO-boundary capacity search: the paper's deliverable as a number.
//!
//! Everything upstream of this crate can simulate a multi-tier site,
//! meter it from hardware counters, predict overload online, and keep
//! doing so through telemetry faults — but none of it *searches* for
//! the quantity the paper is actually about: the maximum request rate
//! the site sustains before its service-level objective is violated.
//! This crate closes that loop:
//!
//! * [`scenario`] — a library of seeded, pure-data [`Scenario`]s (load
//!   curve as fractions of a probe level, mix timeline, scheduled
//!   telemetry faults, an SLO) that the simulator and the `webcap-net`
//!   loopback plane replay identically.
//! * [`search`] — a deterministic bisection ([`bisect`]) that brackets
//!   the SLO boundary, expanding the bracket when the initial guesses
//!   miss, and [`search_scenario`] driving it through an executor.
//! * [`executor`] — the [`ScenarioExecutor`] seam with two
//!   implementations: [`SimExecutor`] (in-process simulation + window
//!   replay) and [`LoopbackExecutor`] (the real agent/collector plane
//!   over a socket, with the scenario's faults injected on schedule).
//! * [`report`] — the versioned, byte-stable [`CapacityReport`]: FNV-1a
//!   config hash, per-probe trace, converged capacity ± tolerance, and
//!   bottleneck-tier attribution from the coordinated predictor.
//!
//! The load-bearing contract is **byte-determinism**: the same scenario
//! and seed produce a byte-identical report at any thread count and on
//! either executor's decision stream (the loopback plane's decisions
//! are byte-identical to the in-process replay on surviving windows —
//! the PR 3 invariant this crate inherits).

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod executor;
pub mod report;
pub mod scenario;
pub mod search;

pub use executor::{
    score_probe, ExecError, LoopbackExecutor, ProbeMeasure, ScenarioExecutor, SimExecutor,
};
pub use report::CapacityReport;
pub use scenario::{library, FaultEvent, Scenario, ScenarioMix, ScenarioPhase, Slo};
pub use search::{bisect, search_scenario, BisectOutcome, SearchConfig};
