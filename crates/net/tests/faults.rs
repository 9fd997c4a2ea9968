//! Fault-injection acceptance tests for the distributed telemetry plane.
//!
//! The contract under test: with every Nth frame dropped and reconnects
//! forced mid-run, the collector never emits a prediction from a gapped
//! window, the predictions it does emit are byte-identical (JSON) to
//! `replay_windows` over the same surviving windows, and a
//! prediction moves the admission cap only while the plane is Healthy.
//!
//! The knob-sensitive test sweeps [`KNOB_ROWS`] in-process; every
//! assertion holds for any row because the expectations come from the
//! fault-schedule oracle, not from hand-computed window lists.

use std::collections::BTreeSet;
use std::io::Write;
use std::num::NonZeroU64;
use std::time::Duration;

use webcap_core::admission::{MAX_EBS, MIN_EBS};
use webcap_core::CapacityMeter;
use webcap_net::frame::{read_frame, Frame};
use webcap_net::loopback::{
    all_windows, replay_windows, run_loopback_scheduled, run_supervised_loopback, LoopbackOutcome,
};
use webcap_net::supervisor::HealthState;
use webcap_net::transport::Conn;
use webcap_net::{AgentConfig, Assembler, CollectorConfig, Endpoint, FaultKnobs, FaultSchedule};
use webcap_sim::{SystemSample, TierId};

#[path = "common/contract.rs"]
mod contract;
#[path = "common/meter.rs"]
mod meter;
#[path = "common/stream.rs"]
mod stream;
use contract::plane_matches_the_oracle;
use meter::trained_meter;
use stream::{decisions_json, steady_run, BASE_SEED};

/// A steady 240 s run: 8 full 30-sample windows for the plane to carry.
const TOTAL_SAMPLES: usize = 240;
const NO_SCRIPT: [FaultSchedule; 2] = [FaultSchedule::NONE, FaultSchedule::NONE];

/// `(drop_every, reconnect_every)`, `0` meaning off: the built-in
/// schedule, then pure loss, pure churn, and both at once.
const KNOB_ROWS: [(u64, u64); 4] = [(37, 101), (35, 0), (0, 60), (41, 90)];

fn knobs((drop_every, reconnect_every): (u64, u64)) -> FaultKnobs {
    FaultKnobs {
        drop_every: NonZeroU64::new(drop_every),
        reconnect_every: NonZeroU64::new(reconnect_every),
    }
}

fn tcp() -> Endpoint {
    Endpoint::parse("127.0.0.1:0").expect("tcp endpoint")
}

#[test]
fn clean_run_is_byte_identical_to_the_in_process_monitor() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_run(&meter, TOTAL_SAMPLES);

    let out = run_loopback_scheduled(
        &meter,
        &samples,
        &tcp(),
        BASE_SEED,
        FaultKnobs::NONE,
        &NO_SCRIPT,
    )
    .expect("loopback runs");

    for (i, agent) in out.agents.iter().enumerate() {
        assert_eq!(agent.samples_produced, TOTAL_SAMPLES as u64, "agent {i}");
        assert_eq!(agent.frames_sent, TOTAL_SAMPLES as u64, "agent {i}");
        assert_eq!(agent.frames_dropped, 0, "agent {i}");
        assert_eq!(agent.sessions, 1, "agent {i}");
    }
    assert_eq!(
        out.collector.samples, [TOTAL_SAMPLES as u64; 2],
        "batched frames deliver every individual sample"
    );
    assert!(out.collector.poisoned_windows.is_empty());
    assert_eq!(out.collector.anomalies, 0);

    let emitted: Vec<i64> = out.collector.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        emitted,
        (0..(TOTAL_SAMPLES / window_len) as i64).collect::<Vec<i64>>(),
        "every full window emits, in order"
    );

    let baseline = replay_windows(
        &meter,
        &samples,
        BASE_SEED,
        &all_windows(TOTAL_SAMPLES, window_len),
    );
    assert_eq!(
        decisions_json(&out.collector.decisions),
        decisions_json(&baseline),
        "collector decisions are byte-identical to the in-process replay"
    );
}

#[test]
fn faulted_planes_match_the_oracle_and_never_admit_from_suspect_state() {
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let dir = std::env::temp_dir().join(format!("webcap-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = Endpoint::Unix(dir.join("collector.sock"));

    for (row, faults) in KNOB_ROWS.into_iter().map(knobs).enumerate() {
        // Printed so a failing assertion's captured output says which row.
        println!("knob row {row}: {faults:?}");
        let survivors = knobbed_plane_matches_the_oracle(&meter, &samples, &sock, faults);
        if row == 0 {
            // Sanity-pin the built-in schedule so a silent oracle regression
            // cannot hollow out the test.
            assert_eq!(survivors, [0, 5].into_iter().collect::<BTreeSet<i64>>());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A long stream at full speed with a forced reconnect every 250
    // frames: between reconnects the agents run ahead of the collector,
    // so each one finds frames written but not yet read. Half-closing
    // delivers them; a reset would drop them, and windows the oracle
    // keeps would go missing — on most runs, not on all, hence the rounds.
    let long = steady_run(&meter, 3_000);
    let churn = knobs((0, 250));
    for round in 0..3 {
        println!("long stream, round {round}");
        knobbed_plane_matches_the_oracle(&meter, &long, &tcp(), churn);
    }
}

/// Reconnects every 10 frames on both tiers, at the stock batch of 32:
/// each agent redials without waiting for the collector's `Ack{0}` and
/// drains the ended session behind the live one. Per tier the
/// collector then holds at most one waiting dial (nothing is shed as a
/// dial backlog), takes the sessions in dial order (decisions and
/// quarantine are the oracle's) and receives every sample sent, and
/// each session's accept is counted once, the pipelined ones read by
/// the drain. The knob stream is straddled in every window,
/// so a scripted stream beside it breaks mid-window only in its first
/// four windows and on window boundaries after them, leaving survivors
/// to compare decisions on.
#[test]
fn dense_reconnects_match_the_oracle_without_a_dial_backlog() {
    let meter = trained_meter();
    let window_len = meter.config().window_len as u64;
    let every_ten = knobs((0, 10));
    let long = steady_run(&meter, 1_200);
    let short = steady_run(&meter, TOTAL_SAMPLES);
    let boundaries = FaultSchedule {
        drop_ranges: vec![],
        reconnect_before: (1..TOTAL_SAMPLES as u64)
            .filter(|seq| seq % 10 == 0 && (seq < &(4 * window_len) || seq % window_len == 0))
            .collect(),
    };
    let runs = [
        (&long, every_ten, FaultSchedule::NONE),
        (&short, FaultKnobs::NONE, boundaries),
    ];
    for (samples, faults, scripted) in runs {
        let total = samples.len() as u64;
        let out = run_loopback_scheduled(
            &meter,
            samples,
            &tcp(),
            BASE_SEED,
            faults,
            &[scripted.clone(), scripted.clone()],
        )
        .expect("densely reconnecting deployment runs");
        let script = faults.schedule(total, &scripted);
        let survivors = holds_to_the_oracle_and_admits_purely(&meter, samples, &out, &script);
        assert!(
            out.collector.sheds.is_empty(),
            "no dial was shed: {:?}",
            out.collector.sheds
        );
        let reconnects = script.reconnect_before.iter().filter(|&&seq| seq < total);
        let reconnects = reconnects.collect::<BTreeSet<_>>().len() as u64;
        for (tier, agent) in TierId::ALL.into_iter().zip(&out.agents) {
            assert_eq!(agent.frames_sent, total, "{tier:?}");
            assert_eq!(
                agent.acks_received, agent.sessions,
                "{tier:?}: one accept per session"
            );
            assert_eq!(
                *tier.select(&out.collector.samples),
                agent.frames_sent,
                "{tier:?}: every sample sent was received"
            );
            assert_eq!(agent.sessions, reconnects + 1, "{tier:?}");
        }
        if faults == FaultKnobs::NONE {
            assert_eq!(survivors, (4..8).collect::<BTreeSet<i64>>());
        } else {
            assert!(survivors.is_empty(), "a break straddles every window");
        }
    }
}

/// Knobs *and* a scripted schedule in one deployment: the compile step
/// counts attempts around the scripted outage, and a batch must stop at
/// a scripted drop and at a compiled one alike. Held to the oracle over
/// the merged script.
#[test]
fn knobs_merged_into_a_scripted_schedule_match_the_oracle() {
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let faults = knobs((37, 0));
    let scripted = FaultSchedule {
        drop_ranges: vec![(90, 104)],
        reconnect_before: vec![160],
    };
    let merged = faults.schedule(TOTAL_SAMPLES as u64, &scripted);
    assert!(merged.drop_ranges.len() > scripted.drop_ranges.len());

    let schedules = [scripted.clone(), scripted];
    let out = run_loopback_scheduled(&meter, &samples, &tcp(), BASE_SEED, faults, &schedules)
        .expect("deployment runs");
    holds_to_the_oracle_and_admits_purely(&meter, &samples, &out, &merged);
}

/// Run the stock loopback plane over `samples` under `faults` alone and
/// hold it to the oracle over the compiled script. Returns the
/// survivors.
fn knobbed_plane_matches_the_oracle(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    endpoint: &Endpoint,
    faults: FaultKnobs,
) -> BTreeSet<i64> {
    let out = run_loopback_scheduled(meter, samples, endpoint, BASE_SEED, faults, &NO_SCRIPT)
        .expect("loopback survives induced faults");
    if faults.reconnect_every.is_some() {
        assert!(
            out.agents.iter().all(|a| a.sessions > 1),
            "forced reconnects actually happened"
        );
    }
    let script = faults.schedule(samples.len() as u64, &FaultSchedule::NONE);
    holds_to_the_oracle_and_admits_purely(meter, samples, &out, &script)
}

/// Hold a deployment whose agents both ran `script` to the window
/// contract ([`plane_matches_the_oracle`]) and to admission purity: a
/// prediction drives the cap only while Healthy and only from a
/// surviving window. Returns the survivors.
fn holds_to_the_oracle_and_admits_purely(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    out: &LoopbackOutcome,
    script: &FaultSchedule,
) -> BTreeSet<i64> {
    let report = &out.collector;
    let schedules = [script.clone(), script.clone()];
    let (survivors, _) = plane_matches_the_oracle(meter, samples, report, &schedules);

    for point in &report.admission_trace {
        assert!(
            (MIN_EBS..=MAX_EBS).contains(&point.cap),
            "cap {} escaped [{MIN_EBS}, {MAX_EBS}]",
            point.cap
        );
        if point.from_prediction {
            assert_eq!(
                point.health,
                HealthState::Healthy,
                "window {} drove the cap while {}",
                point.window,
                point.health
            );
            assert!(
                survivors.contains(&point.window),
                "window {} drove the cap but is not an oracle survivor",
                point.window
            );
        }
    }
    // Every emitted window left exactly one trace point.
    let traced: Vec<i64> = report
        .admission_trace
        .iter()
        .filter(|p| p.window >= 0)
        .map(|p| p.window)
        .collect();
    let emitted_in_order: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(traced, emitted_in_order);
    survivors
}

#[test]
fn a_rogue_connection_is_rejected_and_the_run_completes() {
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let samples = &samples[..60];

    // A peer that speaks HTTP at a telemetry port: the collector must
    // answer with a typed Reject and keep serving, not panic or wedge
    // the accept loop.
    let rogue_dials = |dial: &Endpoint| {
        let mut rogue = Conn::connect(dial).expect("rogue connects");
        rogue
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        rogue
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: collector\r\n\r\n")
            .expect("garbage written");
        match read_frame(&mut rogue).expect("collector answers the rogue peer") {
            Frame::Reject { reason, .. } => {
                assert!(reason.contains("malformed handshake"), "{reason}");
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    };

    // The rogue goes first — an agent is configured before it starts —
    // and real agents on the same listener still complete the run.
    let collector = Assembler::new(meter.clone(), CollectorConfig::default().window_origin);
    let out = run_supervised_loopback(collector, samples, &tcp(), 0, |tier, dial| {
        if tier == TierId::App {
            rogue_dials(&dial);
        }
        AgentConfig::new(tier, dial, BASE_SEED)
    })
    .expect("deployment runs")
    .collector;

    assert_eq!(out.rejected_handshakes, 1, "the rogue peer was counted");
    let emitted: Vec<i64> = out.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(emitted, vec![0, 1], "real traffic was unaffected");
    assert!(out.poisoned_windows.is_empty());
}
