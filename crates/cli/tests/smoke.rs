//! Cross-crate smoke test: train a small meter through the public API,
//! round-trip it through JSON the way `webcap train`/`webcap evaluate`
//! do, drive one online prediction through the incremental monitor, and
//! run the distributed telemetry plane end to end over a Unix socket the
//! way `webcap agent` / `webcap collect` deploy it.

use webcap_cli::args::Args;
use webcap_cli::commands;
use webcap_core::{CapacityMeter, MeterConfig, OnlineMonitor, Parallelism};
use webcap_net::loopback::{all_windows, replay_windows, run_loopback_scheduled};
use webcap_net::supervisor::{HealthState, ResumeOutcome};
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

    // One full online window through the incremental monitor.
    let window_len = restored.config().window_len;
    let mut sim = restored.config().sim.clone();
    sim.seed = 999;
    let program = TrafficProgram::steady(Mix::ordering(), 60, (window_len + 5) as f64);
    let samples = Simulation::new(sim, program).run().samples;
    let mut monitor = OnlineMonitor::new(restored, 12);
    let mut decisions = 0usize;
    for sample in samples {
        if let Some(decision) = monitor.push_sample(sample) {
            decisions += 1;
            assert!(
                decision.prediction.bottleneck.is_none() || decision.prediction.overloaded,
                "bottleneck is only named when overloaded"
            );
        }
    }
    assert_eq!(decisions, 1, "exactly one window completed");
    assert_eq!(monitor.decisions_made(), 1);
}

/// The agent ↔ collector round trip: two tier agents stream a recorded
/// run over a Unix socket to a collector whose predictions must be
/// byte-identical to what an in-process `OnlineMonitor` says about the
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
        "the collector's first prediction equals the in-process monitor's"
    );
    assert_eq!(
        serde_json::to_string(&out.collector.decisions).expect("decisions serialize"),
        serde_json::to_string(&baseline).expect("baseline serializes"),
        "every prediction matches byte-for-byte"
    );
}

/// The crash-recovery deployment story, driven through the actual CLI
/// command functions: `collect --snapshot` persists state, the process
/// "dies", `collect --snapshot --resume` restores it while the agents
/// warm-replay their history (`--start-seq`), the resumed predictions
/// are byte-identical to an uninterrupted run, and `snapshot inspect`
/// reads the final envelope back.
#[cfg(unix)]
#[test]
fn collect_snapshot_resume_inspect_round_trip() {
    let cli_args = |tokens: &[&str], bare: &[&str]| {
        Args::parse(tokens.iter().map(|s| s.to_string()), bare).expect("args parse")
    };
    let meter = CapacityMeter::train(&MeterConfig::small_for_tests(5)).expect("training succeeds");
    let window_len = meter.config().window_len;

    let dir = std::env::temp_dir().join(format!("webcap-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let meter_path = dir.join("meter.json");
    std::fs::write(&meter_path, meter.to_json().expect("meter serializes")).expect("meter writes");
    let meter_s = meter_path.to_str().expect("utf8 path");
    let snap_path = dir.join("collector.wcapsnap");
    let snap_s = snap_path.to_str().expect("utf8 path");

    let run = |sock: &std::path::Path, duration: usize, start_seq: usize, resume: bool| {
        let listen = format!("unix:{}", sock.display());
        let duration_s = duration.to_string();
        let start_seq_s = start_seq.to_string();
        let mut collect_tokens = vec![
            "--listen",
            listen.as_str(),
            "--meter",
            meter_s,
            "--snapshot",
            snap_s,
            "--snapshot-every",
            "1",
        ];
        if resume {
            collect_tokens.push("--resume");
        }
        let collect_args = cli_args(&collect_tokens, &["resume"]);
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || commands::collect_report(&collect_args));
            for tier in ["app", "db"] {
                let agent_args = cli_args(
                    &[
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
                        "--start-seq",
                        start_seq_s.as_str(),
                    ],
                    &[],
                );
                scope.spawn(move || commands::agent(&agent_args).expect("agent runs"));
            }
            collector
                .join()
                .expect("collector thread completes")
                .expect("collector runs")
        })
    };

    // First life: two windows, snapshotted, then the process "dies".
    let first = run(&dir.join("life1.sock"), window_len * 2, 0, false);
    assert!(matches!(first.resume, ResumeOutcome::Fresh));
    let first_windows: Vec<i64> = first.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(first_windows, vec![0, 1]);
    assert!(first.snapshots_written >= 1);
    assert!(snap_path.exists());

    // Second life: resume the collector, warm-replay the agents, and
    // carry the run to four windows.
    let second = run(
        &dir.join("life2.sock"),
        window_len * 4,
        window_len * 2,
        true,
    );
    match &second.resume {
        ResumeOutcome::Resumed {
            samples_seen,
            decisions_made,
            emitted_windows,
            ..
        } => {
            assert_eq!(*samples_seen, (window_len * 2) as u64);
            assert_eq!(*decisions_made, 2);
            assert_eq!(*emitted_windows, 2);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    assert!(second.poisoned_windows.is_empty());
    let second_windows: Vec<i64> = second.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(second_windows, vec![2, 3]);
    assert_eq!(
        second.health,
        HealthState::Degraded,
        "a restart re-enters service below Healthy until the streak re-earns it"
    );

    // Byte-identity against an uninterrupted in-process run of the same
    // four windows (same run-seed, same EB count the agents replayed).
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, (window_len * 4) as f64);
    let samples = Simulation::new(sim, program).run().samples;
    let baseline = replay_windows(
        &meter,
        &samples,
        17,
        &all_windows(samples.len(), window_len),
    );
    assert_eq!(
        serde_json::to_string(&second.decisions).expect("decisions serialize"),
        serde_json::to_string(&baseline[2..]).expect("baseline serializes"),
        "resumed predictions are byte-identical to the uninterrupted monitor"
    );

    // The final snapshot reflects the whole four-window life and is
    // readable by `webcap snapshot inspect`.
    commands::snapshot(&cli_args(&["inspect", snap_s], &[])).expect("snapshot inspect runs");

    std::fs::remove_dir_all(&dir).ok();
}
