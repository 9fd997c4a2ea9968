//! Deterministic bisection to the SLO boundary.
//!
//! [`bisect`] finds the largest probed population that still meets the
//! SLO: it evaluates each candidate at most once (memoized), widens the
//! initial bracket when both guesses land on the same side of the
//! boundary, and then halves the bracket until it is no wider than the
//! tolerance or the probe budget runs out. The probe order is a pure
//! function of the configuration and the pass/fail answers, so two runs
//! against the same executor replay the identical probe sequence.

use std::collections::BTreeMap;

use crate::executor::{ExecError, ProbeMeasure, ScenarioExecutor};
use crate::report::CapacityReport;
use crate::scenario::Scenario;

/// Bracketing and budget parameters for one capacity search.
///
/// Plain data on purpose: every field combination is meaningful (the
/// driver clamps `initial_lo <= initial_hi` and respects `max_ebs`), so
/// there is no constructor to bypass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct SearchConfig {
    /// Initial lower bracket guess (EBs); expected to pass the SLO.
    pub initial_lo: u32,
    /// Initial upper bracket guess (EBs); expected to fail the SLO.
    pub initial_hi: u32,
    /// Stop once the bracket is at most this wide (EBs).
    pub tolerance: u32,
    /// Hard cap on distinct probe evaluations.
    pub max_probes: u32,
    /// Never probe above this population, even while expanding.
    pub max_ebs: u32,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            initial_lo: 8,
            initial_hi: 256,
            tolerance: 8,
            max_probes: 24,
            max_ebs: 4096,
        }
    }
}

impl SearchConfig {
    /// The coarse configuration the golden suite searches with.
    /// Changing it regenerates every golden report, so treat it like a
    /// schema version.
    pub fn quick() -> SearchConfig {
        SearchConfig {
            initial_lo: 12,
            initial_hi: 192,
            tolerance: 12,
            max_probes: 10,
            max_ebs: 1024,
        }
    }
}

/// What a bisection concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectOutcome {
    /// Largest probed population that met the SLO (0 if even one EB
    /// fails).
    pub capacity: u32,
    /// Smallest probed population that violated the SLO, if any probe
    /// failed.
    pub first_failing: Option<u32>,
    /// Every distinct probe in evaluation order, with its verdict.
    pub probes: Vec<(u32, bool)>,
    /// Whether the final bracket is within tolerance (false when the
    /// probe budget ran out first, or the boundary lies above
    /// `max_ebs`).
    pub converged: bool,
}

fn eval<E>(
    memo: &mut BTreeMap<u32, bool>,
    order: &mut Vec<(u32, bool)>,
    probe: &mut impl FnMut(u32) -> Result<bool, E>,
    ebs: u32,
) -> Result<bool, E> {
    if let Some(&pass) = memo.get(&ebs) {
        return Ok(pass);
    }
    let pass = probe(ebs)?;
    memo.insert(ebs, pass);
    order.push((ebs, pass));
    Ok(pass)
}

/// Bisect to the SLO boundary. `probe(ebs)` returns whether the SLO
/// held at that population; each distinct population is evaluated once.
///
/// # Errors
///
/// The first probe error aborts the search and is returned as-is.
pub fn bisect<E>(
    cfg: &SearchConfig,
    mut probe: impl FnMut(u32) -> Result<bool, E>,
) -> Result<BisectOutcome, E> {
    let max_ebs = cfg.max_ebs.max(1);
    let mut lo = cfg.initial_lo.clamp(1, max_ebs);
    let mut hi = cfg.initial_hi.clamp(lo, max_ebs);
    let mut memo: BTreeMap<u32, bool> = BTreeMap::new();
    let mut order: Vec<(u32, bool)> = Vec::new();
    let budget = |order: &[(u32, bool)]| (order.len() as u32) < cfg.max_probes.max(2);

    // Expand the bracket down until `lo` passes (or we hit 1 failing).
    while budget(&order) && !eval(&mut memo, &mut order, &mut probe, lo)? {
        if lo == 1 {
            return Ok(finish(&memo, order, true));
        }
        hi = lo;
        lo = (lo / 2).max(1);
    }
    // Expand up until `hi` fails (or we hit the ceiling passing).
    while budget(&order) && eval(&mut memo, &mut order, &mut probe, hi)? {
        if hi == max_ebs {
            return Ok(finish(&memo, order, false));
        }
        lo = hi;
        hi = (hi.saturating_mul(2)).min(max_ebs);
    }
    // Halve the bracket: `lo` passes and `hi` fails throughout, unless
    // the budget ran out during expansion (then `converged` is false).
    while hi - lo > cfg.tolerance && budget(&order) {
        let mid = lo + (hi - lo) / 2;
        if eval(&mut memo, &mut order, &mut probe, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let converged = hi - lo <= cfg.tolerance
        && memo.get(&lo).copied() == Some(true)
        && memo.get(&hi).copied() == Some(false);
    Ok(finish(&memo, order, converged))
}

fn finish(memo: &BTreeMap<u32, bool>, probes: Vec<(u32, bool)>, converged: bool) -> BisectOutcome {
    // The claim is always backed by an actual probe: the largest
    // population observed passing, 0 if nothing passed.
    let capacity = memo
        .iter()
        .rev()
        .find(|(_, &pass)| pass)
        .map(|(&ebs, _)| ebs)
        .unwrap_or(0);
    let first_failing = memo.iter().find(|(_, &pass)| !pass).map(|(&ebs, _)| ebs);
    BisectOutcome {
        capacity,
        first_failing,
        probes,
        converged,
    }
}

/// Run a full capacity search for one scenario through an executor and
/// assemble the byte-stable report.
///
/// # Errors
///
/// Propagates the first executor failure.
pub fn search_scenario(
    scenario: &Scenario,
    executor: &mut dyn ScenarioExecutor,
    cfg: &SearchConfig,
) -> Result<CapacityReport, ExecError> {
    let mut measures: BTreeMap<u32, ProbeMeasure> = BTreeMap::new();
    let outcome = bisect(cfg, |ebs| {
        let measure = executor.measure(scenario, ebs)?;
        let pass = measure.slo_pass;
        measures.insert(ebs, measure);
        Ok::<bool, ExecError>(pass)
    })?;
    let step = |ebs: u32| measures.get(&ebs).cloned();
    let capacity_rps = step(outcome.capacity)
        .map(|m| m.achieved_rps)
        .unwrap_or(0.0);
    let bottleneck = outcome
        .first_failing
        .and_then(|ebs| step(ebs).and_then(|m| m.predicted_bottleneck.or(m.oracle_bottleneck)));
    let probes: Vec<ProbeMeasure> = outcome
        .probes
        .iter()
        .filter_map(|&(ebs, _)| step(ebs))
        .collect();
    Ok(CapacityReport::assemble(
        scenario,
        executor.label(),
        cfg,
        &outcome,
        capacity_rps,
        bottleneck,
        probes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn threshold_probe(t: u32) -> impl FnMut(u32) -> Result<bool, Infallible> {
        move |ebs| Ok(ebs <= t)
    }

    fn run(cfg: &SearchConfig, t: u32) -> BisectOutcome {
        match bisect(cfg, threshold_probe(t)) {
            Ok(outcome) => outcome,
        }
    }

    #[test]
    fn converges_inside_the_initial_bracket() {
        let cfg = SearchConfig {
            initial_lo: 10,
            initial_hi: 200,
            tolerance: 1,
            max_probes: 32,
            max_ebs: 1024,
        };
        let out = run(&cfg, 57);
        assert_eq!(out.capacity, 57);
        assert_eq!(out.first_failing, Some(58));
        assert!(out.converged);
    }

    #[test]
    fn expands_the_bracket_when_both_guesses_pass() {
        let cfg = SearchConfig {
            initial_lo: 4,
            initial_hi: 8,
            tolerance: 1,
            max_probes: 40,
            max_ebs: 4096,
        };
        let out = run(&cfg, 300);
        assert_eq!(out.capacity, 300);
        assert!(out.converged);
    }

    #[test]
    fn expands_the_bracket_when_both_guesses_fail() {
        let cfg = SearchConfig {
            initial_lo: 100,
            initial_hi: 400,
            tolerance: 1,
            max_probes: 40,
            max_ebs: 4096,
        };
        let out = run(&cfg, 9);
        assert_eq!(out.capacity, 9);
        assert_eq!(out.first_failing, Some(10));
        assert!(out.converged);
    }

    #[test]
    fn zero_capacity_when_even_one_eb_fails() {
        let out = run(&SearchConfig::default(), 0);
        assert_eq!(out.capacity, 0);
        assert_eq!(out.first_failing, Some(1));
        assert!(out.converged);
    }

    #[test]
    fn saturating_at_the_ceiling_is_not_convergence() {
        let cfg = SearchConfig {
            max_ebs: 128,
            ..SearchConfig::default()
        };
        let out = run(&cfg, 100_000);
        assert_eq!(out.capacity, 128);
        assert_eq!(out.first_failing, None);
        assert!(!out.converged);
    }

    #[test]
    fn each_population_is_probed_once() {
        let mut calls: Vec<u32> = Vec::new();
        let out = bisect(&SearchConfig::default(), |ebs| {
            calls.push(ebs);
            Ok::<bool, Infallible>(ebs <= 77)
        });
        let Ok(out) = out;
        let mut unique = calls.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), calls.len(), "no repeat probes: {calls:?}");
        assert_eq!(
            out.probes.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            calls,
            "trace records evaluation order"
        );
    }

    #[test]
    fn probe_errors_abort_the_search() {
        let result = bisect(&SearchConfig::default(), |ebs| {
            if ebs >= 64 {
                Err("boom")
            } else {
                Ok(true)
            }
        });
        assert_eq!(result.unwrap_err(), "boom");
    }

    #[test]
    fn budget_exhaustion_reports_non_convergence() {
        let cfg = SearchConfig {
            initial_lo: 1,
            initial_hi: 4096,
            tolerance: 1,
            max_probes: 4,
            max_ebs: 4096,
        };
        let out = run(&cfg, 1000);
        assert!(!out.converged);
        assert!(out.probes.len() <= 4);
        // The reported capacity is still a population that passed.
        assert!(out.capacity <= 1000);
    }
}
