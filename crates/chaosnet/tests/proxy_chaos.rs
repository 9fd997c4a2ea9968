//! Real-socket chaos: a live agent/collector deployment through the
//! byte-interposing TCP proxy must be byte-identical to a direct one.
//!
//! The proxy applies deterministic pacing faults — split writes at
//! schedule-drawn chunk sizes and short stalls — to the client→upstream
//! byte stream. Bytes are never altered, so the collector's event loop
//! and incremental frame reassembly are exercised at arbitrary real
//! TCP fragment boundaries while the outcome contract stays exact.

use webcap_chaosnet::{spawn_chaos_proxy, ChaosProfile, ChaosSchedule};
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_net::collector::{run_collector, CollectorConfig, CollectorReport};
use webcap_net::source::ScriptedSource;
use webcap_net::{run_agent, AgentConfig, Endpoint, Listener, WireCodec};
use webcap_sim::{Simulation, SystemSample, TierId};
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

/// Run a live deployment, optionally through the chaos proxy, and
/// return the collector's report.
fn deploy(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    chaos: Option<ChaosSchedule>,
) -> CollectorReport {
    let listener =
        Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint")).expect("binds");
    let collector_endpoint = listener.local_endpoint().expect("local endpoint");
    let proxy = chaos
        .map(|schedule| spawn_chaos_proxy(&collector_endpoint, schedule).expect("proxy starts"));
    let dial = proxy
        .as_ref()
        .map(|p| p.endpoint())
        .unwrap_or(collector_endpoint);

    let hpc_model = meter.config().hpc_model.clone();
    let cfg = CollectorConfig::default();
    let report = std::thread::scope(|scope| {
        let meter_clone = meter.clone();
        let cfg_ref = &cfg;
        let collector =
            scope.spawn(move || run_collector(listener, meter_clone, cfg_ref, |_, _| {}));
        let mut agents = Vec::new();
        for tier in TierId::ALL {
            let dial = dial.clone();
            let hpc_model = hpc_model.clone();
            agents.push(scope.spawn(move || {
                let mut agent_cfg = AgentConfig::new(tier, dial, BASE_SEED);
                agent_cfg.codec = WireCodec::Binary;
                let mut source = ScriptedSource::new(tier, samples);
                run_agent(&agent_cfg, hpc_model, &mut source)
            }));
        }
        for agent in agents {
            agent.join().expect("agent thread").expect("agent runs");
        }
        collector
            .join()
            .expect("collector thread")
            .expect("collector runs")
    });
    if let Some(p) = proxy {
        p.stop();
    }
    report
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

    let render = |r: &CollectorReport| {
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
