//! Fault-injection acceptance tests for the distributed telemetry plane.
//!
//! The contract under test: with every Nth frame dropped and reconnects
//! forced mid-run, the collector never emits a prediction from a gapped
//! window, and the predictions it does emit are byte-identical (JSON) to
//! an in-process `OnlineMonitor` fed the same surviving windows.
//!
//! The two knob-sensitive tests sweep [`KNOB_ROWS`] in-process; every
//! assertion holds for any row because the expectations come from the
//! fault-schedule oracle, not from hand-computed window lists.

use std::collections::BTreeSet;
use std::io::Write;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use webcap_core::{AdmissionConfig, AdmissionController, CapacityMeter, MeterConfig};
use webcap_net::collector::{run_collector, CollectorConfig};
use webcap_net::frame::{read_frame, write_frame, write_frame_codec, Frame, WireCodec};
use webcap_net::loopback::{
    all_windows, predicted_surviving_windows, replay_windows, run_loopback, run_supervised_loopback,
};
use webcap_net::supervisor::{HealthState, SupervisorConfig};
use webcap_net::transport::{Conn, Listener};
use webcap_net::{AgentConfig, Endpoint, FaultKnobs, SampleSource, ScriptedSource, SourcePoll};
use webcap_sim::{Simulation, SystemSample, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

const BASE_SEED: u64 = 17;
const TOTAL_SAMPLES: usize = 240;

/// `(drop_every, delay_ms, reconnect_every)`, `0` meaning off: the
/// built-in schedule, then pure loss, lag + churn, and everything at
/// once.
const KNOB_ROWS: [(u64, u64, u64); 4] = [(37, 1, 101), (35, 0, 0), (0, 2, 60), (41, 1, 90)];

/// The rows as knobs; a row's index and knobs are printed so a failing
/// assertion's captured output says which row it was.
fn knob_rows() -> impl Iterator<Item = (usize, FaultKnobs)> {
    let knobs = |(drop_every, delay_ms, reconnect_every): (u64, u64, u64)| FaultKnobs {
        drop_every: NonZeroU64::new(drop_every),
        delay: (delay_ms > 0).then(|| Duration::from_millis(delay_ms)),
        reconnect_every: NonZeroU64::new(reconnect_every),
    };
    let rows = KNOB_ROWS.into_iter().map(knobs).enumerate();
    rows.inspect(|(row, faults)| println!("knob row {row}: {faults:?}"))
}

fn trained_meter() -> CapacityMeter {
    static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
    METER
        .get_or_init(|| {
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
        })
        .clone()
}

/// A steady 240 s run of the meter's own testbed — 8 full 30-sample
/// windows for the plane to carry.
fn steady_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    steady_run(meter, TOTAL_SAMPLES)
}

fn steady_run(meter: &CapacityMeter, total: usize) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, total as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), total);
    samples
}

fn decisions_json(decisions: &[(i64, webcap_core::OnlineDecision)]) -> String {
    serde_json::to_string(decisions).expect("decisions serialize")
}

#[test]
fn clean_run_is_byte_identical_to_the_in_process_monitor() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);

    let out = run_loopback(
        &meter,
        &samples,
        &Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"),
        BASE_SEED,
        FaultKnobs::NONE,
    )
    .expect("loopback runs");

    for (i, agent) in out.agents.iter().enumerate() {
        assert_eq!(agent.samples_produced, TOTAL_SAMPLES as u64, "agent {i}");
        assert_eq!(agent.frames_sent, TOTAL_SAMPLES as u64, "agent {i}");
        assert_eq!(agent.frames_dropped, 0, "agent {i}");
        assert_eq!(agent.sessions, 1, "agent {i}");
    }
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
        "collector decisions are byte-identical to the in-process monitor"
    );
}

#[test]
fn dropped_frames_and_forced_reconnects_poison_exactly_the_gapped_windows() {
    let meter = trained_meter();
    let samples = steady_samples(&meter);
    let dir = std::env::temp_dir().join(format!("webcap-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("collector.sock");

    for (row, faults) in knob_rows() {
        let survivors =
            plane_matches_the_oracle(&meter, &samples, &Endpoint::Unix(sock.clone()), faults);
        let _ = std::fs::remove_file(&sock);
        if row == 0 {
            // Sanity-pin the built-in schedule so a silent oracle regression
            // cannot hollow out the test.
            assert_eq!(survivors, [0, 5].into_iter().collect::<BTreeSet<i64>>());
        }
    }

    // A long stream at full speed with a forced reconnect every 250
    // frames: between reconnects the agents run ahead of the collector,
    // so each one finds frames written but not yet read. Half-closing
    // delivers them; a reset would drop them, and windows the oracle
    // keeps would go missing — on most runs, not on all, hence the rounds.
    let long = steady_run(&meter, 3_000);
    let churn = FaultKnobs {
        reconnect_every: NonZeroU64::new(250),
        ..FaultKnobs::NONE
    };
    let tcp = Endpoint::parse("127.0.0.1:0").expect("tcp endpoint");
    for round in 0..3 {
        println!("long stream, round {round}");
        plane_matches_the_oracle(&meter, &long, &tcp, churn);
    }
}

/// Run the loopback plane over `samples` under `faults` and hold it to
/// the fault-schedule oracle: exactly the predicted windows decided,
/// exactly the predicted windows quarantined, decisions byte-identical
/// to the in-process monitor's. Returns the survivors.
fn plane_matches_the_oracle(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    endpoint: &Endpoint,
    faults: FaultKnobs,
) -> BTreeSet<i64> {
    let window_len = meter.config().window_len;
    let (survivors, poisoned) =
        predicted_surviving_windows(samples.len() as u64, &faults, window_len, 1);
    let out = run_loopback(meter, samples, endpoint, BASE_SEED, faults)
        .expect("loopback survives induced faults");

    let emitted: BTreeSet<i64> = out.collector.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        emitted, survivors,
        "exactly the windows the fault schedule leaves intact emit"
    );
    assert!(
        emitted.is_disjoint(&poisoned),
        "no prediction ever comes from a gapped window"
    );
    let quarantined: BTreeSet<i64> = out.collector.poisoned_windows.iter().copied().collect();
    assert_eq!(
        quarantined, poisoned,
        "the collector quarantined exactly the predicted windows"
    );
    if faults.reconnect_every.is_some() {
        assert!(
            out.agents.iter().all(|a| a.sessions > 1),
            "forced reconnects actually happened"
        );
    }

    let baseline = replay_windows(meter, samples, BASE_SEED, &survivors);
    assert_eq!(
        decisions_json(&out.collector.decisions),
        decisions_json(&baseline),
        "surviving-window predictions are byte-identical to the in-process monitor"
    );
    survivors
}

#[test]
fn a_rogue_connection_is_rejected_and_the_run_completes() {
    let meter = trained_meter();
    let samples = steady_samples(&meter);
    let samples = &samples[..60];
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let cfg = CollectorConfig::default();

    let out = std::thread::scope(|scope| {
        let meter_clone = meter.clone();
        let cfg_ref = &cfg;
        let collector =
            scope.spawn(move || run_collector(listener, meter_clone, cfg_ref, |_, _| {}));

        // A peer that speaks HTTP at a telemetry port: the collector
        // must answer with a typed Reject and keep serving, not panic
        // or wedge the accept loop.
        let mut rogue = Conn::connect(&dial).expect("rogue connects");
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
        drop(rogue);

        // Real agents on the same listener still complete the run.
        let mut agent_handles = Vec::new();
        for tier in webcap_sim::TierId::ALL {
            let dial = dial.clone();
            let hpc_model = meter.config().hpc_model.clone();
            agent_handles.push(scope.spawn(move || {
                let cfg = webcap_net::AgentConfig::new(tier, dial, BASE_SEED);
                let mut source = webcap_net::ScriptedSource::new(tier, samples);
                webcap_net::run_agent(&cfg, hpc_model, &mut source)
            }));
        }
        for handle in agent_handles {
            handle
                .join()
                .expect("agent thread completes")
                .expect("agent runs");
        }
        collector
            .join()
            .expect("collector thread completes")
            .expect("collector runs")
    });

    assert_eq!(out.rejected_handshakes, 1, "the rogue peer was counted");
    let emitted: Vec<i64> = out.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(emitted, vec![0, 1], "real traffic was unaffected");
    assert!(out.poisoned_windows.is_empty());
}

#[test]
fn supervised_plane_matches_the_oracle_and_never_admits_from_suspect_state() {
    // Same knob-sensitive contract as the unsupervised sweep, plus the
    // supervision invariants: predictions only drive admission while
    // Healthy, and never from a loss-touched window.
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);
    for (_, faults) in knob_rows() {
        let (survivors, poisoned) =
            predicted_surviving_windows(TOTAL_SAMPLES as u64, &faults, window_len, 1);

        let admission =
            AdmissionController::try_new(AdmissionConfig::default(), 400).expect("valid config");
        let sup_cfg = SupervisorConfig::default();
        let (report, _agents) = run_supervised_loopback(
            &meter,
            &samples,
            &Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"),
            BASE_SEED,
            faults,
            sup_cfg,
            admission,
            None,
            false,
            0,
        )
        .expect("supervised loopback survives induced faults");

        let emitted: BTreeSet<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
        assert_eq!(
            emitted, survivors,
            "the supervised assembler emits exactly the oracle's survivors"
        );
        let quarantined: BTreeSet<i64> = report.poisoned_windows.iter().copied().collect();
        assert_eq!(quarantined, poisoned);

        let baseline = replay_windows(&meter, &samples, BASE_SEED, &survivors);
        assert_eq!(
            decisions_json(&report.decisions),
            decisions_json(&baseline),
            "supervision never alters the decision stream itself"
        );

        // Admission purity: a prediction drives the cap only while Healthy,
        // and only ever from a window the oracle says survived.
        let (min_ebs, max_ebs) = (
            AdmissionConfig::default().min_ebs,
            AdmissionConfig::default().max_ebs,
        );
        for point in &report.admission_trace {
            assert!(
                (min_ebs..=max_ebs).contains(&point.cap),
                "cap {} escaped [{min_ebs}, {max_ebs}]",
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
    }
}

/// A source that hands out its script and then idles — keeping the
/// agent's session open, heartbeating — until the test releases it.
struct HeldSource<'a> {
    script: ScriptedSource<'a>,
    release: &'a AtomicBool,
}

impl SampleSource for HeldSource<'_> {
    fn next_sample(&mut self) -> SourcePoll {
        match self.script.next_sample() {
            SourcePoll::Exhausted if !self.release.load(Ordering::Acquire) => SourcePoll::Idle,
            poll => poll,
        }
    }
}

/// An ack the network delivers in two pieces, more than a read timeout
/// apart, is still one ack: the agent's reader keeps the fragment and
/// resumes the frame, it does not restart mid-frame on the remainder,
/// read a bad magic word and leave every later ack uncounted and
/// undrained (which the collector then sheds as a write backlog).
#[test]
fn an_ack_split_across_a_read_timeout_is_still_counted() {
    const SAMPLES: u64 = 40;
    let meter = trained_meter();
    let samples = steady_samples(&meter);
    let samples = &samples[..SAMPLES as usize];
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let cfg = AgentConfig::new(
        TierId::Db,
        listener.local_endpoint().expect("bound endpoint"),
        BASE_SEED,
    );
    let release = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let agent = scope.spawn(|| {
            let mut source = HeldSource {
                script: ScriptedSource::new(TierId::Db, samples),
                release: &release,
            };
            webcap_net::run_agent(&cfg, meter.config().hpc_model.clone(), &mut source)
        });

        // The hand-rolled collector: handshake, then read until every
        // sample has arrived (heartbeats are neither counted nor acked).
        let mut conn = listener.accept().expect("agent dials");
        assert!(matches!(
            read_frame(&mut conn).expect("hello"),
            Frame::Hello { .. }
        ));
        write_frame(&mut conn, &Frame::Ack { seq: 0 }).expect("handshake ack");
        let mut seen = 0;
        while seen < SAMPLES {
            match read_frame(&mut conn).expect("sample frames") {
                Frame::Sample(_) => seen += 1,
                Frame::SampleBatch(batch) => seen += batch.len() as u64,
                Frame::Heartbeat { .. } => {}
                other => panic!("expected samples, got {other:?}"),
            }
        }

        // Every ack in one buffer, delivered as 5 bytes — a fragment of
        // the first frame's header — then, 1.2 read timeouts later, the
        // rest.
        let mut wire = Vec::new();
        for seq in 0..SAMPLES {
            write_frame_codec(
                &mut wire,
                &Frame::Ack { seq },
                WireCodec::Binary,
                &mut Vec::new(),
            )
            .expect("acks encode");
        }
        let (fragment, rest) = wire.split_at(5);
        conn.write_all(fragment).expect("fragment writes");
        std::thread::sleep(cfg.read_timeout.mul_f64(1.2));
        conn.write_all(rest).expect("remaining acks write");

        // Let the agent finish: it says Bye and waits for our close.
        release.store(true, Ordering::Release);
        loop {
            match read_frame(&mut conn).expect("frames until Bye") {
                Frame::Bye { last_seq } => break assert_eq!(last_seq, SAMPLES - 1),
                Frame::Heartbeat { .. } => {}
                other => panic!("expected Bye, got {other:?}"),
            }
        }
        drop(conn);
        agent.join().expect("agent thread").expect("agent runs")
    });

    assert_eq!(report.frames_sent, SAMPLES);
    assert_eq!(
        report.acks_received, report.frames_sent,
        "every ack is counted, the split one included"
    );
}
