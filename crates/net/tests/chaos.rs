//! Deterministic chaos harness for the supervised telemetry plane.
//!
//! Every test here runs a *scripted* fault schedule — agent crashes,
//! collector restarts, corrupted snapshots, loss storms — against the
//! supervised collector and checks the recovery contract:
//!
//! * (a) a collector restarted from a boundary-aligned snapshot
//!   continues the decision stream **byte-identically** (JSON) to an
//!   uninterrupted oracle run;
//! * (b) a corrupt, truncated, or wrong-version snapshot is *rejected
//!   into SafeMode* — typed error, clamped cap, no panic;
//! * (c) while health is Degraded or SafeMode, **no** prediction drives
//!   the admission cap, and no admission step ever comes from a
//!   loss-touched window.
//!
//! Each test writes its health-transition log to
//! `CARGO_TARGET_TMPDIR` so CI can attach the logs as an artifact when
//! a test fails.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use webcap_core::snapshot::{read_snapshot, write_snapshot};
use webcap_core::{
    AdmissionConfig, AdmissionConfigError, AdmissionController, CapacityMeter, MeterConfig,
    SnapshotError,
};
use webcap_net::loopback::{all_windows, replay_windows, run_supervised_loopback};
use webcap_net::supervisor::{
    CollectorSnapshot, HealthState, HealthTransition, ResumeOutcome, SupervisedCollector,
    SupervisedReport, SupervisorConfig, INITIAL_CAP,
};
use webcap_net::{AgentConfig, AgentReport, AppStats, Endpoint, WireSample};
use webcap_sim::{Simulation, SystemSample, TierId, TierSample};
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

/// A steady 240 s run of the meter's own testbed — 8 full 30-sample
/// windows for the plane to carry (the same stream `faults.rs` uses).
fn steady_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, TOTAL_SAMPLES as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), TOTAL_SAMPLES);
    samples
}

fn decisions_json(decisions: &[(i64, webcap_core::OnlineDecision)]) -> String {
    serde_json::to_string(decisions).expect("decisions serialize")
}

/// One life of a loopback deployment: a collector with the default
/// supervision, snapshotting to `snapshot` and — when `resume` —
/// starting from what is there, and two default agents that warm-replay
/// `samples` below `start_seq` and stream the rest.
fn life(
    samples: &[SystemSample],
    snapshot: &Path,
    resume: bool,
    start_seq: u64,
) -> std::io::Result<(SupervisedReport, [AgentReport; 2])> {
    let meter = trained_meter();
    let admission = AdmissionController::new(AdmissionConfig::default(), INITIAL_CAP);
    let out = run_supervised_loopback(
        SupervisedCollector::start(
            meter.clone(),
            1,
            SupervisorConfig::default(),
            admission,
            Some(snapshot),
            resume,
        ),
        &meter.config().hpc_model,
        samples,
        &Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"),
        start_seq,
        |tier, dial| AgentConfig::new(tier, dial, BASE_SEED),
    )?;
    Ok((out.collector, out.agents))
}

/// Scratch directory for snapshots and transition logs; cargo puts
/// `CARGO_TARGET_TMPDIR` under `target/tmp`, which CI's `test` job
/// uploads as an artifact on failure.
fn scratch_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Persist a test's health-transition log (one JSON object per line).
fn write_transition_log(name: &str, transitions: &[HealthTransition]) {
    let mut out = String::new();
    for t in transitions {
        out.push_str(&serde_json::to_string(t).expect("transition serializes"));
        out.push('\n');
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-transitions.log"));
    std::fs::write(path, out).expect("transition log writes");
}

/// Synthetic wire sample with fixed metric rows — the deterministic
/// substrate the scripted schedules feed the supervised assembler.
fn wire(seq: u64, with_app: bool) -> WireSample {
    WireSample {
        seq,
        t_s: seq as f64 + 1.0,
        interval_s: 1.0,
        tier: TierSample {
            utilization: 0.3,
            delivered_work_s: 0.3,
            arrivals: 20,
            completions: 20,
            ..TierSample::default()
        },
        hpc: vec![0.5; 12],
        os: vec![0.1; 64],
        app: with_app.then(|| AppStats {
            ebs_target: 10,
            ebs_active: 10,
            mix_id: webcap_tpcw::MixId::Ordering,
            issued: 20,
            issued_browse: 10,
            completed: 20,
            completed_browse: 10,
            response_time_sum_s: 2.0,
            response_time_max_s: 0.4,
            in_flight: 1,
            response_times: webcap_sim::RtHistogram::new(),
        }),
    }
}

/// Chaos proof (a): kill the collector at a window boundary, restart it
/// from its snapshot with both agents warm-replaying their history, and
/// demand the post-recovery decisions match the uninterrupted oracle
/// byte for byte — while health re-earns Healthy through the Degraded
/// re-entry floor.
#[test]
fn boundary_restart_resumes_byte_identically_with_degraded_reentry() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);
    let snap_path = scratch_dir().join("boundary-restart.wcapsnap");

    // First life: 150 samples = 5 clean windows, then the process dies
    // (the run simply ends; its final snapshot is the crash point).
    let (first, _) = life(&samples[..150], &snap_path, false, 0).expect("first life runs");
    assert!(matches!(first.resume, ResumeOutcome::Fresh));
    let first_windows: Vec<i64> = first.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(first_windows, vec![0, 1, 2, 3, 4]);
    assert_eq!(first.health, HealthState::Healthy);
    assert!(first.snapshots_written >= 1, "periodic snapshots happened");
    assert!(snap_path.exists());

    // Second life: resume from the snapshot; agents warm-replay seqs
    // 0..150 (rebuilding their stateful OS synthesis) and stream
    // 150..240.
    let (second, agents) = life(&samples, &snap_path, true, 150).expect("second life runs");
    write_transition_log("chaos-boundary-restart", &second.transitions);

    match &second.resume {
        ResumeOutcome::Resumed {
            samples_seen,
            decisions_made,
            emitted_windows,
            ..
        } => {
            assert_eq!(*samples_seen, 150);
            assert_eq!(*decisions_made, 5);
            assert_eq!(*emitted_windows, 5);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    for agent in &agents {
        assert_eq!(agent.samples_produced, 90, "warm-up samples never send");
    }

    // The restart was boundary-aligned: nothing is quarantined, and the
    // remaining three windows emit.
    assert!(second.poisoned_windows.is_empty());
    let second_windows: Vec<i64> = second.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(second_windows, vec![5, 6, 7]);
    assert_eq!(
        second.decisions_made, 8,
        "monitor counters are cumulative across the restart"
    );
    assert_eq!(second.samples_seen, 240);

    // Byte-identity against the uninterrupted oracle, including the
    // meter's temporal prediction history carried through the snapshot.
    let baseline = replay_windows(
        &meter,
        &samples,
        BASE_SEED,
        &all_windows(TOTAL_SAMPLES, window_len),
    );
    assert_eq!(
        decisions_json(&second.decisions),
        decisions_json(&baseline[5..]),
        "post-recovery decisions are byte-identical to the uninterrupted oracle"
    );

    // Health re-entry: the resume floors at Degraded, predictions hold
    // the cap until the clean streak re-earns Healthy.
    assert_eq!(second.transitions[0].to, HealthState::Degraded);
    assert_eq!(second.transitions[0].reason, "resumed from snapshot");
    assert_eq!(second.health, HealthState::Healthy);
    let per_window: Vec<(i64, HealthState, bool)> = second
        .admission_trace
        .iter()
        .filter(|p| p.window >= 0)
        .map(|p| (p.window, p.health, p.from_prediction))
        .collect();
    assert_eq!(
        per_window,
        vec![
            (5, HealthState::Degraded, false),
            (6, HealthState::Degraded, false),
            (7, HealthState::Healthy, true),
        ],
        "predictions drive admission only after Healthy is re-earned"
    );
}

/// Chaos proof (b): every way a snapshot can rot — truncation, payload
/// corruption, a future version, plain garbage — and a well-formed,
/// checksum-valid one carrying an admission config no constructor
/// accepts, is a typed rejection into SafeMode with the cap clamped,
/// never a panic and never trusted state.
#[test]
fn corrupt_snapshots_are_rejected_into_safe_mode_not_panics() {
    let meter = trained_meter();
    let samples = steady_samples(&meter)[..60].to_vec();
    let dir = scratch_dir();
    let seed_path = dir.join("seed.wcapsnap");

    // Grow a legitimate snapshot to corrupt.
    let (seeded, _) = life(&samples, &seed_path, false, 0).expect("seed run completes");
    assert!(seeded.snapshots_written >= 1);
    let good = std::fs::read(&seed_path).expect("seed snapshot readable");

    // Four rots, each with the typed error resume must surface.
    let truncated = good[..good.len() - 10].to_vec();
    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let versioned = {
        let text = String::from_utf8_lossy(&good).into_owned();
        text.replacen("WCAPSNAP 1 ", "WCAPSNAP 99 ", 1).into_bytes()
    };
    let garbage = b"definitely not a snapshot".to_vec();
    // Not rot: a valid envelope around a controller whose floor is
    // above its ceiling, which `u32::clamp` would panic on at the first
    // SafeMode entry.
    let bad_admission = {
        let (mut snap, _) =
            read_snapshot::<CollectorSnapshot>(&seed_path).expect("seed snapshot verifies");
        snap.state.admission = serde_json::from_str(
            r#"{"cfg":{"min_ebs":500,"max_ebs":100,"increase_step":25,
                "decrease_factor":0.75,"segment_s":60.0},"cap":400}"#,
        )
        .expect("serde does not validate the controller");
        let path = dir.join("bad-admission.wcapsnap");
        write_snapshot(&path, &snap).expect("envelope writes");
        std::fs::read(&path).expect("envelope readable")
    };

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", truncated),
        ("bitflip", flipped),
        ("version", versioned),
        ("garbage", garbage),
        ("admission", bad_admission),
    ];
    for (name, bytes) in cases {
        let path = dir.join(format!("rotten-{name}.wcapsnap"));
        std::fs::write(&path, &bytes).expect("rotten snapshot writes");
        let (report, _) = life(&samples, &path, true, 0)
            .unwrap_or_else(|e| panic!("{name}: rotten snapshot must not kill the collector: {e}"));
        write_transition_log(&format!("chaos-rotten-{name}"), &report.transitions);

        let ResumeOutcome::Rejected(err) = &report.resume else {
            panic!(
                "{name}: expected a rejected snapshot, got {:?}",
                report.resume
            );
        };
        match name {
            "truncated" => assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "{name}: {err}"
            ),
            "bitflip" => assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. }),
                "{name}: {err}"
            ),
            "version" => assert!(
                matches!(err, SnapshotError::UnsupportedVersion { found: 99, .. }),
                "{name}: {err}"
            ),
            "garbage" => assert!(matches!(err, SnapshotError::MissingMagic), "{name}: {err}"),
            "admission" => assert!(
                matches!(
                    err,
                    SnapshotError::InvalidAdmission(AdmissionConfigError::MaxBelowMin { .. })
                ),
                "{name}: {err}"
            ),
            _ => unreachable!(),
        }

        // Fresh state, SafeMode posture: the stream still gets
        // measured, but nothing drives the cap off its clamp.
        assert_eq!(
            report.transitions[0].to,
            HealthState::SafeMode,
            "{name}: lost state is a SafeMode start"
        );
        assert_eq!(report.health, HealthState::SafeMode, "{name}");
        assert_eq!(
            report.final_cap,
            SupervisorConfig::default().safe_cap,
            "{name}: cap stays clamped"
        );
        let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
        assert_eq!(emitted, vec![0, 1], "{name}: measurement continues");
        assert!(
            report.admission_trace.iter().all(|p| !p.from_prediction),
            "{name}: no prediction may drive admission in SafeMode"
        );
    }
}

/// Chaos proof (c): a storm of gapped windows walks health to SafeMode;
/// while Degraded or SafeMode, decisions are recorded but the cap never
/// moves on their account, and no admission step ever cites a
/// loss-touched window.
#[test]
fn safe_mode_holds_admission_through_a_loss_storm() {
    let mut sc = SupervisedCollector::fresh(trained_meter());
    sc.on_session_start(TierId::App);
    sc.on_session_start(TierId::Db);
    // One app frame lost in each of windows 2, 3, 4 (seqs 65, 95, 125):
    // windows 0–1 emit Healthy, the three poisons walk health to
    // SafeMode, windows 5–7 emit clean and step back to Degraded.
    for seq in 0..240u64 {
        if !matches!(seq, 65 | 95 | 125) {
            sc.on_sample(TierId::App, wire(seq, true));
        }
        sc.on_sample(TierId::Db, wire(seq, false));
    }
    sc.on_bye(TierId::App, 239);
    sc.on_bye(TierId::Db, 239);
    let report = sc.finish();
    write_transition_log("chaos-loss-storm", &report.transitions);

    let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(emitted, vec![0, 1, 5, 6, 7]);
    assert_eq!(report.poisoned_windows, vec![2, 3, 4]);

    let states: Vec<(HealthState, HealthState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        states,
        vec![
            (HealthState::Healthy, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeMode),
            (HealthState::SafeMode, HealthState::Degraded),
        ],
        "escalate per poison, recover one level per clean streak"
    );
    assert_eq!(report.health, HealthState::Degraded);

    let poisoned: BTreeSet<i64> = report.poisoned_windows.iter().copied().collect();
    let mut clamped = false;
    for point in &report.admission_trace {
        if point.window < 0 {
            // The SafeMode entry clamp.
            clamped = true;
            assert_eq!(point.cap, SupervisorConfig::default().safe_cap);
            continue;
        }
        assert!(
            !poisoned.contains(&point.window),
            "window {} touched by loss reached admission",
            point.window
        );
        if point.from_prediction {
            assert_eq!(point.health, HealthState::Healthy);
            assert!(
                point.window <= 1,
                "only the pre-storm windows drive the cap"
            );
        } else {
            assert!(point.health > HealthState::Healthy);
        }
        if clamped {
            assert_eq!(
                point.cap,
                SupervisorConfig::default().safe_cap,
                "the cap holds its clamp through Degraded/SafeMode"
            );
        }
    }
    assert!(clamped, "SafeMode entry recorded its clamp");
    assert_eq!(report.final_cap, SupervisorConfig::default().safe_cap);
}

/// An agent crash mid-window (gap + reconnect) quarantines exactly the
/// cut window, degrades health, and recovery re-arms prediction-driven
/// admission — never from the quarantined window.
#[test]
fn an_agent_crash_quarantines_the_cut_window_and_health_recovers() {
    let mut sc = SupervisedCollector::fresh(trained_meter());
    sc.on_session_start(TierId::App);
    sc.on_session_start(TierId::Db);
    // The app agent dies after seq 39, loses seqs 40–44 on the floor,
    // and reconnects at seq 45 — all inside window 1.
    for seq in 0..240u64 {
        if seq == 45 {
            sc.on_session_start(TierId::App);
        }
        if !(40..45).contains(&seq) {
            sc.on_sample(TierId::App, wire(seq, true));
        }
        sc.on_sample(TierId::Db, wire(seq, false));
    }
    sc.on_bye(TierId::App, 239);
    sc.on_bye(TierId::Db, 239);
    let report = sc.finish();
    write_transition_log("chaos-agent-crash", &report.transitions);

    assert_eq!(report.sessions, [2, 1], "the reconnect was observed");
    let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(emitted, vec![0, 2, 3, 4, 5, 6, 7]);
    assert_eq!(report.poisoned_windows, vec![1]);

    let states: Vec<(HealthState, HealthState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        states,
        vec![
            (HealthState::Healthy, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Healthy),
        ]
    );
    assert_eq!(report.health, HealthState::Healthy);

    for point in &report.admission_trace {
        assert_ne!(point.window, 1, "the cut window never reaches admission");
        if point.from_prediction {
            assert_eq!(point.health, HealthState::Healthy);
            assert!(
                point.window == 0 || point.window >= 4,
                "window {} drove the cap during the degraded span",
                point.window
            );
        }
    }
}
