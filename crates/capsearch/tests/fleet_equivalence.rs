//! Fleet-vs-single-collector equivalence, per library scenario.
//!
//! The same capacity search runs through [`SimExecutor`] (the
//! single-collector oracle) and through [`FleetExecutor`] at K = 1, 2,
//! and 4 collectors. Every plane must agree on everything except the
//! executor label: the converged capacity, every probe measure in order
//! — including each probe's poisoned-window set — and the bottleneck
//! attribution. A final leg crashes and resumes one collector at a
//! window boundary mid-probe and demands the identical report anyway.
//!
//! This is the PR 7 headline invariant: sharding the telemetry plane
//! changes no byte of the capacity answer.

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use webcap_capsearch::{search_scenario, CapacityReport, FleetExecutor, SearchConfig, SimExecutor};
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_fleet::{run_fleet, AgentId, FleetChaos, FleetTopology, ShardMap};
use webcap_net::{FaultSchedule, WireCodec};
use webcap_sim::TierId;

fn meter() -> &'static CapacityMeter {
    static METER: OnceLock<CapacityMeter> = OnceLock::new();
    METER.get_or_init(|| {
        CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("meter trains")
    })
}

/// Coarse on purpose: each probe replays the full scenario stream
/// through every collector count, so keep the probe count small while
/// still exercising expansion and at least one halving step.
fn coarse() -> SearchConfig {
    SearchConfig {
        initial_lo: 16,
        initial_hi: 96,
        tolerance: 24,
        max_probes: 6,
        max_ebs: 256,
    }
}

fn check_fleet_equivalence(name: &str) {
    let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
    let cfg = coarse();
    let meter = meter();

    let mut sim = SimExecutor::new(meter);
    let sim_report = search_scenario(&scenario, &mut sim, &cfg).expect("sim search");

    for k in [1u32, 2, 4] {
        let mut fleet = FleetExecutor::new(meter, k);
        let fleet_report = search_scenario(&scenario, &mut fleet, &cfg).expect("fleet search");
        assert_agreement(name, k, &sim_report, &fleet_report);
    }
}

fn assert_agreement(name: &str, k: u32, sim: &CapacityReport, fleet: &CapacityReport) {
    assert_eq!(sim.executor, "sim");
    assert_eq!(fleet.executor, "fleet");
    assert_eq!(
        sim.capacity_ebs, fleet.capacity_ebs,
        "{name} K={k}: planes disagree on capacity"
    );
    assert_eq!(
        sim.bracket_failing_ebs, fleet.bracket_failing_ebs,
        "{name} K={k}: planes disagree on the bracketing failure"
    );
    assert_eq!(sim.converged, fleet.converged, "{name} K={k}: convergence");
    assert_eq!(sim.bottleneck, fleet.bottleneck, "{name} K={k}: bottleneck");
    assert_eq!(
        sim.config_hash, fleet.config_hash,
        "{name} K={k}: same question"
    );
    // Probe-by-probe: identical sequences, verdicts, measures, and
    // poisoned-window sets. On divergence, spill both transcripts to
    // target/tmp/fleet so CI can attach them as artifacts.
    let render =
        |r: &CapacityReport| serde_json::to_string_pretty(&r.probes).expect("probes serialize");
    let (sim_probes, fleet_probes) = (render(sim), render(fleet));
    if sim_probes != fleet_probes {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/fleet");
        fs::create_dir_all(&dir).ok();
        fs::write(dir.join(format!("{name}-k{k}-sim.json")), &sim_probes).ok();
        fs::write(dir.join(format!("{name}-k{k}-fleet.json")), &fleet_probes).ok();
        panic!(
            "{name} K={k}: probe traces diverge; transcripts left in {}",
            dir.display()
        );
    }
}

#[test]
fn fleet_equivalence_steady_shopping() {
    check_fleet_equivalence("steady-shopping");
}

#[test]
fn fleet_equivalence_flash_crowd() {
    check_fleet_equivalence("flash-crowd");
}

#[test]
fn fleet_equivalence_diurnal_ramp() {
    check_fleet_equivalence("diurnal-ramp");
}

#[test]
fn fleet_equivalence_mix_drift() {
    check_fleet_equivalence("mix-drift");
}

#[test]
fn fleet_equivalence_slow_leak() {
    check_fleet_equivalence("slow-leak");
}

#[test]
fn fleet_equivalence_replica_failure() {
    check_fleet_equivalence("replica-failure");
}

/// The chaos leg: a collector killed and resumed at a window boundary
/// mid-stream changes no byte of the merged outcome. Run at the
/// scenario's converged capacity so the stream is the one the search
/// would actually score.
#[test]
fn fleet_chaos_resume_is_byte_identical_at_capacity() {
    let meter = meter();
    let scenario = webcap_capsearch::scenario::find("steady-shopping").expect("library scenario");
    let window_len = meter.config().window_len as u64;

    // The probe stream at a representative population.
    let probe_ebs = 64;
    let mut cfg = meter.config().sim.clone();
    cfg.seed = scenario.seed;
    let samples = webcap_sim::run(cfg, scenario.program(probe_ebs)).samples;
    let schedules: [FaultSchedule; 2] = scenario.schedules();

    let topology = FleetTopology::two_tier(&scenario.name, scenario.seed, 2);
    let baseline = run_fleet(
        meter,
        &samples,
        scenario.seed,
        &schedules,
        &topology,
        None,
        WireCodec::Binary,
    )
    .expect("baseline fleet runs");

    // Crash the collector owning the database tier at the end of the
    // third full window.
    let victim =
        ShardMap::new(topology.seed, topology.collectors).owner(AgentId::primary(TierId::Db));
    let chaos = FleetChaos {
        collector: victim,
        crash_at_seq: 3 * window_len,
    };
    let chaotic = run_fleet(
        meter,
        &samples,
        scenario.seed,
        &schedules,
        &topology,
        Some(chaos),
        WireCodec::Binary,
    )
    .expect("chaos fleet runs");

    assert!(
        chaotic.collectors[victim as usize].resumed,
        "crash happened"
    );
    let render = |d: &webcap_fleet::MergeOutcome| {
        serde_json::to_string(&(&d.decisions, &d.poisoned_windows, &d.incomplete_windows))
            .expect("outcome serializes")
    };
    assert_eq!(
        render(&baseline.merge),
        render(&chaotic.merge),
        "boundary crash-and-resume must not change the merged outcome"
    );
}
