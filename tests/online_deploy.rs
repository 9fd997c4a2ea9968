//! Integration test of the production deployment story: train a meter
//! offline, persist it, reload it (as a separate process would), and
//! decide a live telemetry stream window by window, in order.

use webcap::core::workloads;
use webcap::core::{collect_run, CapacityMeter, MeterConfig, OnlineDecision};
use webcap::sim::{SimConfig, TierId};
use webcap::tpcw::{Mix, TrafficProgram};

#[test]
fn train_persist_reload_and_monitor_online() {
    // 1. Offline: train and persist.
    let config = MeterConfig::small_for_tests(2024);
    let meter = CapacityMeter::train(&config).expect("training succeeds");
    let json = meter.to_json().expect("serializes");
    assert!(
        json.len() > 1000,
        "serialized meter should carry real state"
    );

    // 2. "Another process": reload from the serialized form only.
    let mut restored = CapacityMeter::from_json(&json).expect("deserializes");

    // 3. Online: decide a knee-crossing run's disjoint windows in order.
    let sim_cfg: SimConfig = config.sim.clone();
    let knee = workloads::estimate_saturation_ebs(&sim_cfg, &Mix::ordering());
    let program = TrafficProgram::steady(Mix::ordering(), knee * 7 / 10, 120.0).then_steady(
        Mix::ordering(),
        knee * 2,
        240.0,
    );
    let mut run_cfg = sim_cfg;
    run_cfg.seed = 777;
    let log = collect_run(&run_cfg, &program, &restored.config().hpc_model, 99);
    let window_len = restored.config().window_len;
    let oracle = restored.config().oracle;
    let decisions: Vec<OnlineDecision> = log
        .windows(window_len, window_len, &oracle)
        .into_iter()
        .map(|window| OnlineDecision {
            prediction: restored.predict(&window),
            window,
        })
        .collect();
    assert_eq!(decisions.len(), 12, "one decision per 30s window");

    // Early windows (light phase) mostly healthy; late windows (2× knee)
    // must be called overloaded with the app tier named.
    let early_over = decisions[..3]
        .iter()
        .filter(|d| d.prediction.overloaded)
        .count();
    assert!(
        early_over <= 1,
        "light phase mostly healthy: {early_over}/3"
    );
    let late = &decisions[8..];
    let late_over = late.iter().filter(|d| d.prediction.overloaded).count();
    assert!(
        late_over >= 3,
        "deep overload must be flagged: {late_over}/4"
    );
    for d in late.iter().filter(|d| d.prediction.overloaded) {
        assert_eq!(d.prediction.bottleneck, Some(TierId::App));
    }

    // The windows' ground-truth labels (available in simulation) agree on
    // the extremes too.
    assert!(decisions.last().unwrap().window.overloaded());
    assert!(!decisions.first().unwrap().window.overloaded());
}
