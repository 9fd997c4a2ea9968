//! The seam between the search and the system under test.
//!
//! A [`ScenarioExecutor`] turns one probe — a scenario replayed at a
//! candidate population — into a [`ProbeMeasure`]: the SLO verdict plus
//! everything the report needs to explain it (achieved throughput,
//! error fraction, tail latency, and how the coordinated predictor's
//! online decisions scored against the oracle's ground truth).
//!
//! Two implementations replay the **same** simulated sample stream:
//!
//! * [`SimExecutor`] — in-process: the scenario's fault schedule is
//!   mapped to poisoned windows by the pure two-tier oracle
//!   (`predicted_windows`) and the meter replays the
//!   survivors directly.
//! * [`LoopbackExecutor`] — the real telemetry plane: agents stream the
//!   samples over a socket with the scenario's faults injected on
//!   schedule, and the collector decides which windows survive.
//!
//! The equivalence suite holds the two to identical capacities and
//! identical poisoned-window sets for every library scenario.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use webcap_core::{label_window, AppWindowDigest, CapacityMeter, OnlineDecision, WindowHealthAgg};
use webcap_net::{predicted_windows, replay_windows, run_loopback_scheduled, Endpoint, FaultKnobs};
use webcap_sim::{SystemSample, TierId};

use crate::scenario::Scenario;

/// An executor failure (simulation, socket, or protocol error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExecError {}

impl From<std::io::Error> for ExecError {
    fn from(err: std::io::Error) -> ExecError {
        ExecError(format!("loopback plane: {err}"))
    }
}

/// Everything one probe measured, in report-stable form.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ProbeMeasure {
    /// Probed population (EBs).
    pub probe_ebs: u32,
    /// Whether the SLO held over the scored windows.
    pub slo_pass: bool,
    /// Mean completed-request throughput over the scored windows,
    /// requests per second.
    pub achieved_rps: f64,
    /// Completed requests over the scored windows.
    pub completed: u64,
    /// Fraction of completions slower than the SLO deadline.
    pub error_fraction: f64,
    /// 99th-percentile response time over the scored windows, seconds.
    pub p99_s: f64,
    /// Mean response time over the scored windows, seconds.
    pub mean_rt_s: f64,
    /// Windows scored against the SLO (full, post-warm-up, unpoisoned).
    pub windows_scored: u32,
    /// Scored windows the online meter also decided.
    pub windows_decided: u32,
    /// Scored windows the oracle labeled overloaded.
    pub oracle_overloaded: u32,
    /// Decided windows the coordinated predictor called overloaded.
    pub predicted_overloaded: u32,
    /// Fraction of decided windows where predictor and oracle agree.
    pub agreement: f64,
    /// Majority ground-truth bottleneck over overloaded scored windows.
    pub oracle_bottleneck: Option<TierId>,
    /// Majority predicted bottleneck over overloaded decisions.
    pub predicted_bottleneck: Option<TierId>,
    /// Windows quarantined by telemetry faults, in order.
    pub poisoned_windows: Vec<i64>,
}

/// One way of replaying a scenario probe against the meter.
pub trait ScenarioExecutor {
    /// Stable label naming the execution plane (`"sim"`, `"loopback"`).
    fn label(&self) -> &'static str;

    /// Replay `scenario` at `probe_ebs` emulated browsers and measure.
    ///
    /// # Errors
    ///
    /// Implementation-specific failures (socket errors, poisoned
    /// plane); the search aborts on the first one.
    fn measure(&mut self, scenario: &Scenario, probe_ebs: u32) -> Result<ProbeMeasure, ExecError>;
}

fn majority(tally: [u64; 2]) -> Option<TierId> {
    if tally == [0, 0] {
        None
    } else if tally[1] > tally[0] {
        Some(TierId::Db)
    } else {
        Some(TierId::App)
    }
}

/// Score one probe's sample stream against the scenario's SLO and the
/// online decisions made for it. Pure: same inputs, same measure.
///
/// Scored windows are the full windows at or past the warm-up horizon
/// that no telemetry fault poisoned; the SLO verdict aggregates their
/// response-time histograms, and predictor agreement is computed over
/// the scored windows the meter actually decided.
pub fn score_probe(
    meter: &CapacityMeter,
    scenario: &Scenario,
    samples: &[SystemSample],
    decisions: &[(i64, OnlineDecision)],
    poisoned: &BTreeSet<i64>,
    probe_ebs: u32,
) -> ProbeMeasure {
    let window_len = meter.config().window_len;
    let full = samples.len() / window_len;
    let warmup_windows = (scenario.warmup_s as usize).div_ceil(window_len);
    let decided: BTreeMap<i64, &OnlineDecision> = decisions.iter().map(|(w, d)| (*w, d)).collect();

    // The scored windows' front-end statistics, folded as one span.
    let mut front = AppWindowDigest::default();
    let mut windows_scored = 0u32;
    let mut windows_decided = 0u32;
    let mut oracle_overloaded = 0u32;
    let mut predicted_overloaded = 0u32;
    let mut agree = 0u32;
    let mut oracle_tally = [0u64; 2];
    let mut predicted_tally = [0u64; 2];

    for w in warmup_windows..full {
        if poisoned.contains(&(w as i64)) {
            continue;
        }
        let chunk = &samples[w * window_len..(w + 1) * window_len];
        windows_scored += 1;
        for s in chunk {
            front.observe(s.t_s, s.interval_s, &s.front);
        }
        let label = label_window(chunk, &meter.config().oracle);
        if label.overloaded {
            oracle_overloaded += 1;
            oracle_tally[label.bottleneck.index()] += 1;
        }
        if let Some(decision) = decided.get(&(w as i64)) {
            windows_decided += 1;
            let predicted = decision.prediction.overloaded;
            if predicted {
                predicted_overloaded += 1;
                if let Some(tier) = decision.prediction.bottleneck {
                    predicted_tally[tier.index()] += 1;
                }
            }
            if predicted == label.overloaded {
                agree += 1;
            }
        }
    }

    let AppWindowDigest {
        duration_s,
        health:
            WindowHealthAgg {
                completed,
                rt_sum_s: rt_sum,
                rt_hist: hist,
                ..
            },
        ..
    } = front;
    let error_fraction = hist.fraction_above(scenario.slo.timeout_s);
    let p99_s = hist.p99().unwrap_or(0.0);
    let mean_rt_s = if completed > 0 {
        rt_sum / completed as f64
    } else {
        0.0
    };
    let achieved_rps = if duration_s > 0.0 {
        completed as f64 / duration_s
    } else {
        0.0
    };
    let slo_pass = windows_scored > 0
        && completed > 0
        && error_fraction <= scenario.slo.max_error_fraction
        && p99_s <= scenario.slo.max_p99_s;
    ProbeMeasure {
        probe_ebs,
        slo_pass,
        achieved_rps,
        completed,
        error_fraction,
        p99_s,
        mean_rt_s,
        windows_scored,
        windows_decided,
        oracle_overloaded,
        predicted_overloaded,
        agreement: f64::from(agree) / f64::from(windows_decided.max(1)),
        oracle_bottleneck: majority(oracle_tally),
        predicted_bottleneck: majority(predicted_tally),
        poisoned_windows: poisoned.iter().copied().collect(),
    }
}

/// Simulate the probe's sample stream with the scenario's seed and the
/// meter's testbed configuration.
fn simulate(meter: &CapacityMeter, scenario: &Scenario, probe_ebs: u32) -> Vec<SystemSample> {
    let mut cfg = meter.config().sim.clone();
    cfg.seed = scenario.seed;
    webcap_sim::run(cfg, scenario.program(probe_ebs)).samples
}

/// In-process executor: simulation plus pure-oracle fault poisoning
/// plus direct window replay.
pub struct SimExecutor<'a> {
    meter: &'a CapacityMeter,
}

impl<'a> SimExecutor<'a> {
    /// Probe through `meter`'s pipeline in-process.
    pub fn new(meter: &'a CapacityMeter) -> SimExecutor<'a> {
        SimExecutor { meter }
    }
}

impl ScenarioExecutor for SimExecutor<'_> {
    fn label(&self) -> &'static str {
        "sim"
    }

    fn measure(&mut self, scenario: &Scenario, probe_ebs: u32) -> Result<ProbeMeasure, ExecError> {
        let samples = simulate(self.meter, scenario, probe_ebs);
        let window_len = self.meter.config().window_len;
        let (survivors, poisoned) =
            predicted_windows(samples.len() as u64, &scenario.schedules(), window_len, 1);
        // The replay synthesizes only the meter's families, as the
        // agents of a loopback probe do.
        let decisions = replay_windows(self.meter, &samples, scenario.seed, &survivors);
        Ok(score_probe(
            self.meter, scenario, &samples, &decisions, &poisoned, probe_ebs,
        ))
    }
}

/// Telemetry-plane executor: the same simulated stream, but agents
/// deliver it over a socket with the scenario's faults injected, and
/// the collector's decisions are scored.
pub struct LoopbackExecutor<'a> {
    meter: &'a CapacityMeter,
    endpoint: Endpoint,
}

impl<'a> LoopbackExecutor<'a> {
    /// Probe through the agent/collector plane bound to `endpoint`.
    /// Fault *knobs* are pinned to `NONE` — scenario faults are the
    /// only injected faults.
    pub fn new(meter: &'a CapacityMeter, endpoint: Endpoint) -> LoopbackExecutor<'a> {
        LoopbackExecutor { meter, endpoint }
    }
}

impl ScenarioExecutor for LoopbackExecutor<'_> {
    fn label(&self) -> &'static str {
        "loopback"
    }

    fn measure(&mut self, scenario: &Scenario, probe_ebs: u32) -> Result<ProbeMeasure, ExecError> {
        let samples = simulate(self.meter, scenario, probe_ebs);
        let outcome = run_loopback_scheduled(
            self.meter,
            &samples,
            &self.endpoint,
            scenario.seed,
            FaultKnobs::NONE,
            &scenario.schedules(),
        )?;
        let poisoned: BTreeSet<i64> = outcome.collector.poisoned_windows.iter().copied().collect();
        Ok(score_probe(
            self.meter,
            scenario,
            &samples,
            &outcome.collector.decisions,
            &poisoned,
            probe_ebs,
        ))
    }
}
