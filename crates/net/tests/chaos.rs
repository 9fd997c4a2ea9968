//! Deterministic chaos harness for the supervised telemetry plane.
//!
//! Every test here runs a *scripted* fault schedule — agent crashes,
//! collector restarts, loss storms — against the supervised collector
//! and checks the recovery contract:
//!
//! * (a) a restarted collector is a cold start: it poisons the stream
//!   history it never saw, walks to SafeMode with the cap clamped,
//!   re-earns Healthy through the clean-streak hysteresis, and from its
//!   `history_bits + 1`-th emitted window on decides **byte-identically**
//!   (JSON) to an uninterrupted oracle run;
//! * (c) while health is Degraded or SafeMode, **no** prediction drives
//!   the admission cap, and no admission step ever comes from a
//!   loss-touched window.
//!
//! Each test writes its health-transition log to
//! `CARGO_TARGET_TMPDIR` so CI can attach the logs as an artifact when
//! a test fails.

use std::collections::BTreeSet;
use std::path::Path;

use webcap_net::loopback::{all_windows, replay_windows, run_supervised_loopback};
use webcap_net::supervisor::{HealthState, HealthTransition, SupervisorConfig};
use webcap_net::{
    AdmissionPoint, AgentConfig, AgentReport, Assembler, CollectorConfig, Endpoint,
    SupervisedReport,
};
use webcap_sim::{SystemSample, TierId};

mod common;
#[path = "common/meter.rs"]
mod meter;
#[path = "common/stream.rs"]
mod stream;
use common::wire;
use meter::trained_meter;
use stream::{decisions_json, steady_run, BASE_SEED};

/// A steady 600 s run — 20 full 30-sample windows for the plane to
/// carry.
const TOTAL_SAMPLES: usize = 600;

/// One life of a loopback deployment: a fresh collector, and two
/// default agents that warm-replay `samples` below `start_seq` and
/// stream the rest — agents that were already running when this
/// collector started.
fn life(
    samples: &[SystemSample],
    start_seq: u64,
) -> std::io::Result<(SupervisedReport, [AgentReport; 2])> {
    let meter = trained_meter();
    let out = run_supervised_loopback(
        Assembler::new(meter.clone(), CollectorConfig::default().window_origin),
        samples,
        &Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"),
        start_seq,
        |tier, dial| AgentConfig::new(tier, dial, BASE_SEED),
    )?;
    Ok((out.collector, out.agents))
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

/// Chaos proof (a): restart the collector cold — on a window boundary
/// (seq 150) and mid-window (seq 160) — while both agents stream on.
/// The collector poisons every window before the restart and the cut
/// one, enters SafeMode with the cap clamped, lets no prediction drive
/// the cap until Healthy is re-earned, and from its `history_bits +
/// 1`-th emitted window on decides byte-identically to the
/// uninterrupted oracle: the meter's only online state is the last
/// `history_bits` votes, each a function of its own window.
#[test]
fn a_cold_restart_rejoins_the_uninterrupted_stream_after_h_windows() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let h = meter.config().coordinator.history_bits;
    let safe_cap = SupervisorConfig::default().safe_cap;
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let total_windows = (TOTAL_SAMPLES / window_len) as i64;
    let baseline = replay_windows(
        &meter,
        &samples,
        BASE_SEED,
        &all_windows(TOTAL_SAMPLES, window_len),
    );

    // (restart seq, first emitted window, window that re-earns Healthy:
    // the 8th emitted after the restart in both cases)
    for (restart, first_emitted, healthy_at) in [(150u64, 5i64, 12i64), (160, 6, 13)] {
        let (report, agents) = life(&samples, restart).expect("the restarted life runs");
        write_transition_log(
            &format!("chaos-cold-restart-{restart}"),
            &report.transitions,
        );
        for agent in &agents {
            assert_eq!(
                agent.samples_produced,
                TOTAL_SAMPLES as u64 - restart,
                "{restart}: warm-up samples never send"
            );
        }

        // History the collector never saw reads as a leading gap.
        let poisoned: Vec<i64> = (0..first_emitted).collect();
        assert_eq!(report.poisoned_windows, poisoned, "{restart}");
        let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
        assert_eq!(
            emitted,
            (first_emitted..total_windows).collect::<Vec<i64>>(),
            "{restart}"
        );

        // The leading gap walks health to SafeMode before any window
        // emits; the clean streak re-earns Healthy one level at a time.
        let states: Vec<(HealthState, HealthState)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            states,
            vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::SafeMode),
                (HealthState::SafeMode, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Healthy),
            ],
            "{restart}"
        );
        assert_eq!(
            report.admission_trace.first(),
            Some(&AdmissionPoint {
                window: -1,
                health: HealthState::SafeMode,
                from_prediction: false,
                cap: safe_cap,
            }),
            "{restart}: the first admission step is the SafeMode clamp"
        );
        let per_window: Vec<&AdmissionPoint> = report.admission_trace[1..].iter().collect();
        assert_eq!(per_window.len(), emitted.len(), "{restart}");
        for point in per_window {
            assert!(
                !poisoned.contains(&point.window),
                "{restart}: poisoned window {} reached admission",
                point.window
            );
            assert_eq!(
                point.from_prediction,
                point.window >= healthy_at,
                "{restart}: window {} under {}",
                point.window,
                point.health
            );
            if point.from_prediction {
                assert_eq!(point.health, HealthState::Healthy);
            } else {
                assert!(point.health > HealthState::Healthy);
                assert_eq!(point.cap, safe_cap, "{restart}: the clamp holds");
            }
        }
        assert_eq!(report.health, HealthState::Healthy, "{restart}");

        // The LHT register refills in `h` windows; every later decision
        // is the uninterrupted run's, byte for byte.
        let rejoined = usize::try_from(first_emitted).expect("window index") + h;
        assert_eq!(
            decisions_json(&report.decisions[h..]),
            decisions_json(&baseline[rejoined..]),
            "{restart}: decisions from the {}-th emitted window on match the oracle",
            h + 1
        );
    }
}

/// Chaos proof (c): a storm of gapped windows walks health to SafeMode;
/// while Degraded or SafeMode, decisions are recorded but the cap never
/// moves on their account, and no admission step ever cites a
/// loss-touched window. Run at the default safe cap and at another one
/// (`webcap collect --safe-cap`): the clamp is the cap the collector was
/// started with.
#[test]
fn safe_mode_holds_admission_through_a_loss_storm() {
    for safe_cap in [SupervisorConfig::default().safe_cap, 35] {
        let origin = CollectorConfig::default().window_origin;
        let mut sc = Assembler::start(trained_meter(), origin, SupervisorConfig { safe_cap });
        sc.on_session_start(TierId::App);
        sc.on_session_start(TierId::Db);
        // One app frame lost in each of windows 2, 3, 4 (seqs 65, 95, 125):
        // windows 0–1 emit Healthy, the three poisons walk health to
        // SafeMode, windows 5–7 emit clean and step back to Degraded.
        for seq in 0..240u64 {
            if !matches!(seq, 65 | 95 | 125) {
                sc.on_sample(TierId::App, wire(seq, true), &mut |_, _| {});
            }
            sc.on_sample(TierId::Db, wire(seq, false), &mut |_, _| {});
        }
        sc.on_bye(TierId::App, 239);
        sc.on_bye(TierId::Db, 239);
        let report = sc.finish();
        write_transition_log(
            &format!("chaos-loss-storm-cap-{safe_cap}"),
            &report.transitions,
        );

        let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
        assert_eq!(emitted, vec![0, 1, 5, 6, 7], "{safe_cap}");
        assert_eq!(report.poisoned_windows, vec![2, 3, 4], "{safe_cap}");

        let states: Vec<(HealthState, HealthState)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            states,
            vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::SafeMode),
                (HealthState::SafeMode, HealthState::Degraded),
            ],
            "{safe_cap}: escalate per poison, recover one level per clean streak"
        );
        assert_eq!(report.health, HealthState::Degraded, "{safe_cap}");

        let poisoned: BTreeSet<i64> = report.poisoned_windows.iter().copied().collect();
        let mut clamped = false;
        for point in &report.admission_trace {
            if point.window < 0 {
                // The SafeMode entry clamp.
                clamped = true;
                assert_eq!(point.cap, safe_cap);
                continue;
            }
            assert!(
                !poisoned.contains(&point.window),
                "{safe_cap}: window {} touched by loss reached admission",
                point.window
            );
            if point.from_prediction {
                assert_eq!(point.health, HealthState::Healthy);
                assert!(
                    point.window <= 1,
                    "{safe_cap}: only the pre-storm windows drive the cap"
                );
            } else {
                assert!(point.health > HealthState::Healthy);
            }
            if clamped {
                assert_eq!(
                    point.cap, safe_cap,
                    "the cap holds its clamp through Degraded/SafeMode"
                );
            }
        }
        assert!(clamped, "{safe_cap}: SafeMode entry recorded its clamp");
        assert_eq!(report.final_cap, safe_cap);
    }
}

/// An agent crash mid-window (gap + reconnect) quarantines exactly the
/// cut window, degrades health, and recovery re-arms prediction-driven
/// admission — never from the quarantined window.
#[test]
fn an_agent_crash_quarantines_the_cut_window_and_health_recovers() {
    let origin = CollectorConfig::default().window_origin;
    let mut sc = Assembler::new(trained_meter(), origin);
    sc.on_session_start(TierId::App);
    sc.on_session_start(TierId::Db);
    // The app agent dies after seq 39, loses seqs 40–44 on the floor,
    // and reconnects at seq 45 — all inside window 1.
    for seq in 0..240u64 {
        if seq == 45 {
            sc.on_session_start(TierId::App);
        }
        if !(40..45).contains(&seq) {
            sc.on_sample(TierId::App, wire(seq, true), &mut |_, _| {});
        }
        sc.on_sample(TierId::Db, wire(seq, false), &mut |_, _| {});
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
