//! Sim-vs-loopback equivalence, per library scenario.
//!
//! The same capacity search runs twice: once through [`SimExecutor`]
//! (pure in-process poisoning oracle + window replay) and once through
//! [`LoopbackExecutor`] (real agents and collector over a TCP socket,
//! scenario faults injected on schedule). The planes must agree on
//! everything except the executor label: the converged capacity, every
//! probe measure in order — including each probe's poisoned-window
//! set — and the bottleneck attribution.
//!
//! This is the end-to-end extension of the PR 3 invariant (collector
//! decisions byte-identical to in-process replay on surviving windows)
//! up through the capacity number itself.

use std::fs;
use std::path::Path;

use webcap_capsearch::{
    search_scenario, CapacityReport, LoopbackExecutor, ProbeMeasure, ScenarioExecutor,
    SearchConfig, SimExecutor,
};
use webcap_core::{CapacityMeter, MeterConfig, MetricLevel};
use webcap_net::Endpoint;

mod common;
use common::{meter, METER_SEED};

/// Coarse on purpose: each loopback probe spins a real collector and
/// two agent threads, so keep the probe count small while still
/// exercising expansion and at least one halving step.
fn coarse() -> SearchConfig {
    SearchConfig {
        initial_lo: 16,
        initial_hi: 96,
        tolerance: 24,
        max_probes: 6,
        max_ebs: 256,
    }
}

fn check_equivalence(name: &str) {
    let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
    let cfg = coarse();
    let meter = meter();

    let mut sim = SimExecutor::new(meter);
    let sim_report = search_scenario(&scenario, &mut sim, &cfg).expect("sim search");

    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("endpoint");
    let mut loopback = LoopbackExecutor::new(meter, endpoint);
    let loop_report = search_scenario(&scenario, &mut loopback, &cfg).expect("loopback search");

    assert_agreement(name, &sim_report, &loop_report);
}

fn assert_agreement(name: &str, sim: &CapacityReport, loopback: &CapacityReport) {
    assert_eq!(sim.executor, "sim");
    assert_eq!(loopback.executor, "loopback");
    assert_eq!(
        sim.capacity_ebs, loopback.capacity_ebs,
        "{name}: planes disagree on capacity"
    );
    assert_eq!(
        sim.bracket_failing_ebs, loopback.bracket_failing_ebs,
        "{name}: planes disagree on the bracketing failure"
    );
    assert_eq!(sim.converged, loopback.converged, "{name}: convergence");
    assert_eq!(sim.bottleneck, loopback.bottleneck, "{name}: bottleneck");
    assert_eq!(
        sim.config_hash, loopback.config_hash,
        "{name}: same question"
    );
    // Probe-by-probe: identical sequences, verdicts, measures, and
    // poisoned-window sets. Serialize for a readable failure.
    let render =
        |r: &CapacityReport| serde_json::to_string_pretty(&r.probes).expect("probes serialize");
    assert_eq!(
        render(sim),
        render(loopback),
        "{name}: probe traces diverge"
    );
}

#[test]
fn equivalence_steady_shopping() {
    check_equivalence("steady-shopping");
}

#[test]
fn equivalence_flash_crowd() {
    check_equivalence("flash-crowd");
}

#[test]
fn equivalence_diurnal_ramp() {
    check_equivalence("diurnal-ramp");
}

#[test]
fn equivalence_mix_drift() {
    check_equivalence("mix-drift");
}

#[test]
fn equivalence_slow_leak() {
    check_equivalence("slow-leak");
}

#[test]
fn equivalence_replica_failure() {
    check_equivalence("replica-failure");
}

/// The faulted scenario's capacity and first failing probe, read from its
/// committed golden report (`tests/golden.rs`), so that a re-pin of the
/// simulator moves this test with the golden.
fn replica_failure_bracket() -> [(u32, bool); 2] {
    #[derive(serde::Deserialize)]
    struct Bracket {
        capacity_ebs: u32,
        bracket_failing_ebs: Option<u32>,
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/replica-failure.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden report {} is unreadable ({e})", path.display()));
    let bracket: Bracket = serde_json::from_str(&text).expect("the golden report parses");
    let failing = bracket
        .bracket_failing_ebs
        .expect("the golden search brackets a failing probe");
    [(bracket.capacity_ebs, true), (failing, false)]
}

/// The sim plane replays only the metric family its meter reads, the
/// loopback plane streams both: OS and combined meters must still score
/// every probe alike, here on the faulted scenario at its capacity and
/// at its first failing probe.
#[test]
fn equivalence_replica_failure_at_os_and_combined_levels() {
    let scenario = webcap_capsearch::scenario::find("replica-failure").expect("library scenario");
    let render = |m: &ProbeMeasure| serde_json::to_string(m).expect("a measure serializes");
    let bracket = replica_failure_bracket();
    for level in [MetricLevel::Os, MetricLevel::Combined] {
        let config = MeterConfig::small_for_tests(METER_SEED).with_level(level);
        let meter = CapacityMeter::train(&config).expect("meter trains");
        for (probe_ebs, passes) in bracket {
            let sim = SimExecutor::new(&meter)
                .measure(&scenario, probe_ebs)
                .expect("sim probe");
            let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("endpoint");
            let loopback = LoopbackExecutor::new(&meter, endpoint)
                .measure(&scenario, probe_ebs)
                .expect("loopback probe");
            assert_eq!(
                render(&sim),
                render(&loopback),
                "{level} at {probe_ebs} EBs"
            );
            assert_eq!(sim.slo_pass, passes, "{level} at {probe_ebs} EBs");
            assert!(
                !sim.poisoned_windows.is_empty(),
                "{level}: faults poison windows"
            );
        }
    }
}
