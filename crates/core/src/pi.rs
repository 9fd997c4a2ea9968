//! The productivity index (PI) and the correlation measure used to select
//! its yield/cost metric pair — Equations (1) and (2) of the paper.
//!
//! `PI = Yield / Cost` quantifies how much useful work the system gets per
//! unit of resource friction. At the hardware level the paper instantiates
//! yield as IPC and cost as the L2 miss rate (ordering mix, app tier) or
//! stalled cycles (browsing mix, DB tier); the pair with the strongest
//! Pearson correlation to application-level throughput is chosen per tier
//! (Eq. 2), and the bottleneck tier's PI references the capacity of the
//! whole site.

use serde::{Deserialize, Serialize};
use webcap_hpc::DerivedMetrics;

/// Candidate yield metrics (numerator of PI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum YieldMetric {
    /// Instructions per cycle.
    Ipc,
    /// µops per cycle.
    Upc,
    /// Instructions retired per second.
    InstructionRate,
}

impl YieldMetric {
    /// All candidates.
    pub const ALL: [YieldMetric; 3] = [
        YieldMetric::Ipc,
        YieldMetric::Upc,
        YieldMetric::InstructionRate,
    ];

    /// Extract the metric value.
    pub fn value(&self, m: &DerivedMetrics) -> f64 {
        match self {
            YieldMetric::Ipc => m.ipc,
            YieldMetric::Upc => m.upc,
            YieldMetric::InstructionRate => m.instr_per_s,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            YieldMetric::Ipc => "IPC",
            YieldMetric::Upc => "UPC",
            YieldMetric::InstructionRate => "instr/s",
        }
    }
}

/// Candidate cost metrics (denominator of PI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostMetric {
    /// L2 cache miss ratio.
    L2MissRate,
    /// Stalled-cycle fraction.
    StallFraction,
    /// L2 misses per kilo-instruction.
    L2Mpki,
    /// Bus transactions per kilo-cycle.
    BusPerKcycle,
}

impl CostMetric {
    /// All candidates.
    pub const ALL: [CostMetric; 4] = [
        CostMetric::L2MissRate,
        CostMetric::StallFraction,
        CostMetric::L2Mpki,
        CostMetric::BusPerKcycle,
    ];

    /// Extract the metric value.
    pub fn value(&self, m: &DerivedMetrics) -> f64 {
        match self {
            CostMetric::L2MissRate => m.l2_miss_rate,
            CostMetric::StallFraction => m.stall_fraction,
            CostMetric::L2Mpki => m.l2_mpki,
            CostMetric::BusPerKcycle => m.bus_per_kcycle,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            CostMetric::L2MissRate => "L2 miss rate",
            CostMetric::StallFraction => "stall cycles",
            CostMetric::L2Mpki => "L2 MPKI",
            CostMetric::BusPerKcycle => "bus/kcycle",
        }
    }
}

/// A productivity-index definition: a concrete yield/cost metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PiDefinition {
    /// Numerator metric.
    pub yield_metric: YieldMetric,
    /// Denominator metric.
    pub cost_metric: CostMetric,
}

impl PiDefinition {
    /// Evaluate PI on one interval's derived metrics.
    ///
    /// A vanishing cost is floored to avoid division blow-ups; PI is then
    /// effectively "yield per epsilon cost", still monotone in yield.
    pub fn evaluate(&self, m: &DerivedMetrics) -> f64 {
        let y = self.yield_metric.value(m);
        let c = self.cost_metric.value(m).max(1e-9);
        y / c
    }

    /// Evaluate PI over a series of intervals.
    pub fn series(&self, metrics: &[DerivedMetrics]) -> Vec<f64> {
        metrics.iter().map(|m| self.evaluate(m)).collect()
    }
}

impl std::fmt::Display for PiDefinition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {}",
            self.yield_metric.label(),
            self.cost_metric.label()
        )
    }
}

/// Pearson correlation between two equal-length series — the paper's
/// `Corr` (Eq. 2). Returns 0.0 when either series is constant or shorter
/// than two points.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let n_f = n as f64;
    let mean_a = a.iter().sum::<f64>() / n_f;
    let mean_b = b.iter().sum::<f64>() / n_f;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in a.iter().zip(b) {
        let da = x - mean_a;
        let db = y - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a < 1e-18 || var_b < 1e-18 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

/// Outcome of PI metric-pair selection on one tier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PiSelection {
    /// The winning definition.
    pub definition: PiDefinition,
    /// Its correlation with throughput.
    pub corr: f64,
    /// Correlation of every candidate, for reporting.
    pub candidates: Vec<(PiDefinition, f64)>,
}

/// Choose the PI definition whose series correlates most strongly with
/// observed throughput (Eq. 2 applied over all yield/cost candidates).
///
/// Ties and NaNs resolve by IEEE total order, so selection is
/// deterministic whatever the correlations.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn select_pi(metrics: &[DerivedMetrics], throughput: &[f64]) -> PiSelection {
    assert_eq!(metrics.len(), throughput.len(), "series length mismatch");
    let mut candidates = Vec::new();
    let mut best: Option<(PiDefinition, f64)> = None;
    for y in YieldMetric::ALL {
        for c in CostMetric::ALL {
            let def = PiDefinition {
                yield_metric: y,
                cost_metric: c,
            };
            let corr = correlation(&def.series(metrics), throughput);
            if best.is_none_or(|b| corr.total_cmp(&b.1).is_gt()) {
                best = Some((def, corr));
            }
            candidates.push((def, corr));
        }
    }
    // The candidate grids are non-empty consts, so `best` is always set;
    // the fallback is the paper's canonical pair.
    let (definition, corr) = best.unwrap_or((
        PiDefinition {
            yield_metric: YieldMetric::Ipc,
            cost_metric: CostMetric::L2MissRate,
        },
        0.0,
    ));
    PiSelection {
        definition,
        corr,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(ipc: f64, miss: f64, stall: f64) -> DerivedMetrics {
        DerivedMetrics {
            ipc,
            upc: ipc * 1.4,
            l2_miss_rate: miss,
            l2_mpki: miss * 20.0,
            l1d_mpki: 10.0,
            tc_mpki: 3.0,
            itlb_mpki: 0.4,
            dtlb_mpki: 1.5,
            branch_mispredict_rate: 0.05,
            bus_per_kcycle: 2.0,
            stall_fraction: stall,
            instr_per_s: ipc * 2e9,
        }
    }

    #[test]
    fn correlation_perfect_and_inverse() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = vec![8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_guards_degenerate() {
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
        assert_eq!(correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(correlation(&[], &[]), 0.0);
    }

    #[test]
    fn pi_evaluates_yield_over_cost() {
        let def = PiDefinition {
            yield_metric: YieldMetric::Ipc,
            cost_metric: CostMetric::L2MissRate,
        };
        let m = metrics_with(1.2, 0.06, 0.2);
        assert!((def.evaluate(&m) - 20.0).abs() < 1e-9);
        assert_eq!(def.to_string(), "IPC / L2 miss rate");
    }

    #[test]
    fn pi_floors_zero_cost() {
        let def = PiDefinition {
            yield_metric: YieldMetric::Ipc,
            cost_metric: CostMetric::L2MissRate,
        };
        let m = metrics_with(1.0, 0.0, 0.2);
        assert!(def.evaluate(&m).is_finite());
    }

    #[test]
    fn select_pi_finds_the_tracking_pair() {
        // A realistic load sweep: utilization and throughput rise to the
        // knee, then throughput declines under contention while cycles
        // stay pegged. IPC degrades and the miss rate inflates past the
        // knee, so instruction throughput over cache friction tracks the
        // application-level throughput on both sides of the knee.
        let mut metrics = Vec::new();
        let mut thr = Vec::new();
        for i in 0..40 {
            let load = i as f64 / 20.0; // 0..2, knee at 1.0
            let util = load.min(1.0);
            let congested = (load - 1.0).max(0.0);
            let t = if load <= 1.0 {
                load
            } else {
                1.0 - 0.35 * congested
            };
            thr.push(t * 100.0);
            let ipc = 1.3 / (1.0 + 0.55 * congested);
            let mut m = metrics_with(ipc, 0.05 * (1.0 + 2.0 * congested), 0.15);
            m.instr_per_s = ipc * util * 2e9;
            metrics.push(m);
        }
        let sel = select_pi(&metrics, &thr);
        assert!(sel.corr > 0.9, "best corr {}", sel.corr);
        assert_eq!(sel.candidates.len(), 12);
        assert_eq!(
            sel.definition.yield_metric,
            YieldMetric::InstructionRate,
            "instruction throughput is the yield that tracks completed work"
        );
        // The best candidate should beat a mediocre one.
        let worst = sel
            .candidates
            .iter()
            .map(|c| c.1)
            .fold(f64::INFINITY, f64::min);
        assert!(sel.corr > worst);
    }
}
