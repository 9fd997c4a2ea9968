//! Real-socket chaos: a live agent/collector deployment through the
//! byte-interposing TCP proxy must be byte-identical to a direct one.
//!
//! The proxy applies deterministic pacing faults — split writes at
//! schedule-drawn chunk sizes and short stalls — to the client→upstream
//! byte stream. Bytes are never altered, so the collector's event loop
//! and incremental frame reassembly are exercised at arbitrary real
//! TCP fragment boundaries while the outcome contract stays exact.

use std::cell::OnceCell;

use webcap_chaosnet::{spawn_chaos_proxy, ChaosProfile, ChaosSchedule};
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_net::loopback::run_supervised_loopback;
use webcap_net::supervisor::{SupervisedCollector, SupervisedReport};
use webcap_net::{AgentConfig, Endpoint};
use webcap_sim::{Simulation, SystemSample};
use webcap_tpcw::{Mix, TrafficProgram};

const BASE_SEED: u64 = 17;
const TOTAL_SAMPLES: usize = 240;

fn trained_meter() -> CapacityMeter {
    static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
    METER
        .get_or_init(|| {
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
        })
        .clone()
}

fn steady_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, TOTAL_SAMPLES as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), TOTAL_SAMPLES);
    samples
}

/// Run a live deployment — the agents dialing through the chaos proxy
/// when there is a schedule — and return the collector's report.
fn deploy(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    chaos: Option<ChaosSchedule>,
) -> SupervisedReport {
    // Started by the first agent's configuration, which is when the
    // collector's bound endpoint is known; stopped when it drops.
    let proxy = OnceCell::new();
    let out = run_supervised_loopback(
        SupervisedCollector::fresh(meter.clone()),
        &meter.config().hpc_model,
        samples,
        &Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"),
        0,
        |tier, collector| {
            let dial = match &chaos {
                Some(schedule) => proxy
                    .get_or_init(|| {
                        spawn_chaos_proxy(&collector, schedule.clone()).expect("proxy starts")
                    })
                    .endpoint(),
                None => collector,
            };
            AgentConfig::new(tier, dial, BASE_SEED)
        },
    );
    out.expect("deployment runs").collector
}

#[test]
fn proxied_deployment_is_byte_identical_to_direct() {
    let meter = trained_meter();
    let samples = steady_samples(&meter);

    let direct = deploy(&meter, &samples, None);
    let chaos = ChaosSchedule::new(
        23,
        ChaosProfile {
            split_per_mille: 500,
            stall_per_mille: 80,
            ..ChaosProfile::quiet()
        },
    );
    let proxied = deploy(&meter, &samples, Some(chaos));

    let render = |r: &SupervisedReport| {
        serde_json::to_string(&(&r.decisions, &r.poisoned_windows)).expect("report serializes")
    };
    assert_eq!(
        render(&direct),
        render(&proxied),
        "pacing-only interposition must not change a single byte of the outcome"
    );
    assert!(
        !direct.decisions.is_empty(),
        "the clean run must actually emit decisions"
    );
}
