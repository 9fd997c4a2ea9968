//! The versioned, byte-stable capacity report.
//!
//! A [`CapacityReport`] is the artifact a capacity search leaves
//! behind: the converged capacity (in EBs and in achieved requests per
//! second), the bracketing failure, the bottleneck-tier attribution,
//! and the complete per-probe trace. Rendering is deliberately
//! environment-free — no timestamps, no git revision, no hostnames —
//! so the golden suite can demand byte identity across machines and
//! thread counts. The `config_hash` fingerprints the scenario's
//! canonical JSON plus the search parameters (not the executor), so a
//! sim report and a loopback report for the same search share it.

use webcap_sim::TierId;

use crate::executor::ProbeMeasure;
use crate::scenario::{Scenario, Slo};
use crate::search::{BisectOutcome, SearchConfig};

/// Bump when any rendered field changes meaning or layout.
pub const SCHEMA_VERSION: u32 = 1;

/// The rendered outcome of one scenario capacity search.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CapacityReport {
    /// Report layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed (drives the simulation and metric synthesis).
    pub seed: u64,
    /// Execution plane (`"sim"` or `"loopback"`).
    pub executor: String,
    /// FNV-1a fingerprint of the scenario JSON and search parameters.
    pub config_hash: String,
    /// The SLO the capacity is relative to.
    pub slo: Slo,
    /// The search parameters that produced this report.
    pub search: SearchConfig,
    /// Largest probed population that met the SLO.
    pub capacity_ebs: u32,
    /// Achieved throughput at the capacity probe, requests per second.
    pub capacity_rps: f64,
    /// Smallest probed population that violated the SLO, if any.
    pub bracket_failing_ebs: Option<u32>,
    /// Whether the bracket closed to within the tolerance.
    pub converged: bool,
    /// Bottleneck attribution at the first failing probe: the
    /// coordinated predictor's majority call, falling back to the
    /// oracle's ground truth when the predictor never named a tier.
    pub bottleneck: Option<TierId>,
    /// Every distinct probe in evaluation order.
    pub probes: Vec<ProbeMeasure>,
}

impl CapacityReport {
    /// Assemble the report for one finished search.
    pub(crate) fn assemble(
        scenario: &Scenario,
        executor: &'static str,
        cfg: &SearchConfig,
        outcome: &BisectOutcome,
        capacity_rps: f64,
        bottleneck: Option<TierId>,
        probes: Vec<ProbeMeasure>,
    ) -> CapacityReport {
        CapacityReport {
            schema_version: SCHEMA_VERSION,
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            executor: executor.to_string(),
            config_hash: config_hash(scenario, cfg),
            slo: scenario.slo,
            search: *cfg,
            capacity_ebs: outcome.capacity,
            capacity_rps,
            bracket_failing_ebs: outcome.first_failing,
            converged: outcome.converged,
            bottleneck,
            probes,
        }
    }

    /// Render as pretty JSON with a trailing newline — the byte-exact
    /// golden format.
    ///
    /// # Panics
    ///
    /// Never in practice: every float in the report is guarded finite
    /// at construction, and the structure contains no map keys that
    /// could fail serialization.
    pub fn render(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("report serializes");
        text.push('\n');
        text
    }
}

/// Fingerprint the capacity question being asked: the scenario and the
/// search parameters, executor excluded, as one canonical JSON array.
///
/// # Panics
///
/// Never in practice: scenarios and search configs hold no map keys
/// that could fail serialization.
pub fn config_hash(scenario: &Scenario, cfg: &SearchConfig) -> String {
    let material = serde_json::to_string(&(scenario, cfg)).expect("the question serializes");
    format!("{:016x}", fnv1a(material.as_bytes()))
}

/// FNV-1a (64-bit) over `bytes`: a stable, dependency-free fingerprint,
/// collision-weak but enough to tell two capacity questions apart.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::library;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn config_hash_separates_scenarios_and_search_configs() {
        let lib = library();
        let quick = SearchConfig::quick();
        let mut hashes: Vec<String> = lib.iter().map(|s| config_hash(s, &quick)).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), lib.len(), "distinct scenarios hash apart");
        let full = SearchConfig::default();
        assert_ne!(
            config_hash(&lib[0], &quick),
            config_hash(&lib[0], &full),
            "search parameters are part of the question"
        );
    }

    #[test]
    fn render_is_stable_and_newline_terminated() {
        let scenario = &library()[0];
        let cfg = SearchConfig::quick();
        let outcome = BisectOutcome {
            capacity: 48,
            first_failing: Some(60),
            probes: vec![(48, true), (60, false)],
            converged: true,
        };
        let report = CapacityReport::assemble(
            scenario,
            "sim",
            &cfg,
            &outcome,
            123.25,
            Some(TierId::Db),
            Vec::new(),
        );
        let a = report.render();
        let b = report.render();
        assert_eq!(a, b);
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"capacity_ebs\": 48"));
        assert!(a.contains("\"executor\": \"sim\""));
    }
}
