//! Cross-crate smoke test: train a small meter through the public API,
//! round-trip it through JSON the way `webcap train`/`webcap evaluate`
//! do, replay one online window through the reloaded meter, and
//! run the distributed telemetry plane end to end over a Unix socket the
//! way `webcap agent` / `webcap collect` deploy it, and ask `webcap
//! capsearch` one question through a scenario file and the library.

use webcap_cli::args::Args;
use webcap_cli::commands;
use webcap_core::{CapacityMeter, MeterConfig, Parallelism};
use webcap_net::loopback::{all_windows, replay_windows, run_loopback_scheduled};
use webcap_net::supervisor::HealthState;
use webcap_net::{Endpoint, FaultKnobs, FaultSchedule};
use webcap_sim::Simulation;
use webcap_tpcw::{Mix, TrafficProgram};

#[test]
fn train_roundtrip_and_online_predict() {
    // Train with an explicit worker count, as `webcap train --jobs 2`
    // would configure it.
    let config = MeterConfig::small_for_tests(5).with_parallelism(Parallelism::Threads(2));
    let meter = CapacityMeter::train(&config).expect("training succeeds");
    assert_eq!(meter.synopses().len(), 4);

    // JSON round trip — the CLI's persistence format.
    let json = meter.to_json().expect("serializes");
    let restored = CapacityMeter::from_json(&json).expect("deserializes");
    assert_eq!(
        restored.to_json().expect("re-serializes"),
        json,
        "round trip is lossless"
    );

    // One full online window, replayed through the reloaded meter; the
    // five trailing seconds complete no window.
    let window_len = restored.config().window_len;
    let mut sim = restored.config().sim.clone();
    sim.seed = 999;
    let program = TrafficProgram::steady(Mix::ordering(), 60, (window_len + 5) as f64);
    let samples = Simulation::new(sim, program).run().samples;
    let decisions = replay_windows(
        &restored,
        &samples,
        12,
        &all_windows(samples.len(), window_len),
    );
    assert_eq!(decisions.len(), 1, "exactly one window completed");
    for (_, decision) in &decisions {
        assert!(
            decision.prediction.bottleneck.is_none() || decision.prediction.overloaded,
            "bottleneck is only named when overloaded"
        );
    }
}

/// The agent ↔ collector round trip: two tier agents stream a recorded
/// run over a Unix socket to a collector whose predictions must be
/// byte-identical to what the in-process `replay_windows` says about the
/// same samples.
#[cfg(unix)]
#[test]
fn distributed_loopback_matches_the_in_process_monitor() {
    let config = MeterConfig::small_for_tests(5);
    let meter = CapacityMeter::train(&config).expect("training succeeds");
    let window_len = meter.config().window_len;
    let mut sim = meter.config().sim.clone();
    sim.seed = 999;
    let program = TrafficProgram::steady(Mix::ordering(), 60, (window_len * 2) as f64);
    let samples = Simulation::new(sim, program).run().samples;

    let dir = std::env::temp_dir().join(format!("webcap-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("loopback.sock");
    let out = run_loopback_scheduled(
        &meter,
        &samples,
        &Endpoint::Unix(sock.clone()),
        12,
        FaultKnobs::NONE,
        &[FaultSchedule::NONE, FaultSchedule::NONE],
    )
    .expect("loopback deployment runs");
    let _ = std::fs::remove_file(&sock);

    assert_eq!(out.collector.decisions.len(), 2, "two full windows");
    assert!(out.collector.poisoned_windows.is_empty());
    let baseline = replay_windows(
        &meter,
        &samples,
        12,
        &all_windows(samples.len(), window_len),
    );
    assert_eq!(
        serde_json::to_string(&out.collector.decisions[0].1).expect("decision serializes"),
        serde_json::to_string(&baseline[0].1).expect("baseline serializes"),
        "the collector's first prediction equals the in-process replay's"
    );
    assert_eq!(
        serde_json::to_string(&out.collector.decisions).expect("decisions serialize"),
        serde_json::to_string(&baseline).expect("baseline serializes"),
        "every prediction matches byte-for-byte"
    );
}

/// The same deployment driven through the CLI command functions:
/// `webcap collect` and one `webcap agent` per tier over a Unix socket,
/// whose predictions are byte-identical to the in-process replay's.
#[cfg(unix)]
#[test]
fn collect_and_agent_commands_match_the_in_process_monitor() {
    let cli_args = |tokens: &[&str]| {
        Args::parse(tokens.iter().map(|s| s.to_string()), &[]).expect("args parse")
    };
    let meter = CapacityMeter::train(&MeterConfig::small_for_tests(5)).expect("training succeeds");
    let window_len = meter.config().window_len;

    let dir = std::env::temp_dir().join(format!("webcap-cli-collect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let meter_path = dir.join("meter.json");
    std::fs::write(&meter_path, meter.to_json().expect("meter serializes")).expect("meter writes");
    let meter_s = meter_path.to_str().expect("utf8 path");
    let listen = format!("unix:{}", dir.join("collect.sock").display());
    let duration_s = (window_len * 2).to_string();

    let report = std::thread::scope(|scope| {
        let collect_args = cli_args(&["--listen", listen.as_str(), "--meter", meter_s]);
        let collector = scope.spawn(move || commands::collect_report(&collect_args));
        for tier in ["app", "db"] {
            let agent_args = cli_args(&[
                "--tier",
                tier,
                "--connect",
                listen.as_str(),
                "--meter",
                meter_s,
                "--mix",
                "ordering",
                "--ebs",
                "60",
                "--duration",
                duration_s.as_str(),
                "--seed",
                "17",
                "--run-seed",
                "400",
            ]);
            scope.spawn(move || commands::agent(&agent_args).expect("agent runs"));
        }
        collector
            .join()
            .expect("collector thread completes")
            .expect("collector runs")
    });
    assert!(report.poisoned_windows.is_empty());
    assert_eq!(report.health, HealthState::Healthy);

    // The same run in process: same run-seed, EB count and metrics seed.
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, (window_len * 2) as f64);
    let samples = Simulation::new(sim, program).run().samples;
    let baseline = replay_windows(
        &meter,
        &samples,
        17,
        &all_windows(samples.len(), window_len),
    );
    assert_eq!(baseline.len(), 2);
    assert_eq!(
        serde_json::to_string(&report.decisions).expect("decisions serialize"),
        serde_json::to_string(&baseline).expect("baseline serializes"),
        "the CLI deployment's predictions match the in-process replay"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `webcap capsearch --scenario-file` and `--scenario` ask the same
/// question of a library scenario written to disk as JSON: the two
/// reports, `config_hash` included, are byte-identical.
#[test]
fn scenario_file_and_library_scenario_give_identical_reports() {
    let dir = std::env::temp_dir().join(format!("webcap-cli-capsearch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = webcap_capsearch::scenario::find("steady-shopping").expect("library scenario");
    let scenario_path = dir.join("steady-shopping.json");
    let pretty = serde_json::to_string_pretty(&scenario).expect("scenario serializes");
    std::fs::write(&scenario_path, pretty).expect("scenario writes");

    let report = |source: &str, value: &str, out: &str| {
        let out = dir.join(out);
        let out_s = out.display().to_string();
        let tokens = [source, value, "--max-probes", "2", "--out", &out_s];
        let args = Args::parse(tokens.iter().map(|s| s.to_string()), &[]).expect("args parse");
        commands::capsearch(&args).expect("capsearch runs");
        std::fs::read_to_string(out.join("steady-shopping.json")).expect("report written")
    };
    let file = scenario_path.display().to_string();
    let from_file = report("--scenario-file", &file, "file");
    let from_library = report("--scenario", "steady-shopping", "library");
    assert_eq!(from_file, from_library, "one question, one report");

    std::fs::remove_dir_all(&dir).ok();
}
