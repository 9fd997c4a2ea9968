//! The socketed collector under hostile and merely awkward peers.
//!
//! Two attacks, two deliberate sheds:
//!
//! * a **half-open peer** goes silent after a partial frame header: the
//!   stall budget sheds the lane, poisons only that lane's in-flight
//!   window, and the completed window's decision still stands;
//! * a **shed storm** escalates the supervisor to Degraded with the
//!   storm named in the transition reason — overload is an audited
//!   health signal, not a silent counter.
//!
//! And one peer that is only slow: frames cut into seeded fragments at
//! arbitrary byte boundaries, some paused mid-frame, must not move a
//! byte of the decision stream.

use std::io::Write;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_net::collector::{CollectorConfig, ShedKind};
use webcap_net::supervisor::{HealthState, HealthTransition, SHED_STORM};
use webcap_net::{
    all_windows, metric_schema_hash, read_frame, replay_windows, run_supervised_collector,
    write_frame, Assembler, Conn, Endpoint, Frame, Listener, SourceSample, TierSampler, WireCaps,
    WireCodec, FRAME_MAGIC_BIN, PROTO_VERSION,
};
use webcap_sim::TierId;

mod common;
#[path = "common/meter.rs"]
mod meter;
#[path = "common/stream.rs"]
mod stream;
use common::wire;
use meter::trained_meter;
use stream::{decisions_json, steady_run, BASE_SEED};

/// Dial the collector and complete the handshake for `tier`.
fn handshaken(endpoint: &Endpoint, tier: TierId) -> Conn {
    let mut conn = Conn::connect(endpoint).expect("dials");
    write_frame(
        &mut conn,
        &Frame::Hello {
            tier,
            proto_version: PROTO_VERSION,
            metric_schema_hash: metric_schema_hash(tier),
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: 1,
            },
        },
    )
    .expect("hello writes");
    match read_frame(&mut conn).expect("handshake ack") {
        Frame::Ack { seq: 0 } => conn,
        other => panic!("expected handshake Ack, got {other:?}"),
    }
}

/// A peer that completes window 0, starts window 1, then goes silent
/// mid-frame-header must be shed on the stall budget: its in-flight
/// window is quarantined, the other lane is untouched, and the
/// completed window's decision survives.
#[test]
fn half_open_peer_is_shed_and_poisons_only_its_own_lane() {
    let cfg = CollectorConfig {
        stall_poll_budget: 50,
        idle_timeout: Duration::from_millis(400),
        ..CollectorConfig::default()
    };

    let listener =
        Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint")).expect("binds");
    let endpoint = listener.local_endpoint().expect("local endpoint");

    let sc = Assembler::new(trained_meter(), cfg.window_origin);
    let report = std::thread::scope(|scope| {
        let cfg_ref = &cfg;
        let collector =
            scope.spawn(move || run_supervised_collector(listener, sc, cfg_ref, |_, _| {}));

        // The half-open App peer: all of window 0 (keys 1..=30), five
        // samples into window 1, then four bytes of a frame header and
        // silence — the socket stays open so only the stall budget can
        // end the session.
        let mut app = handshaken(&endpoint, TierId::App);
        for seq in 0..35u64 {
            write_frame(&mut app, &Frame::Sample(wire(seq, true))).expect("app sample writes");
        }
        app.write_all(&FRAME_MAGIC_BIN.to_le_bytes())
            .expect("partial header writes");

        // A well-behaved Db peer: windows 0 and 1 complete, then Bye.
        let mut db = handshaken(&endpoint, TierId::Db);
        for seq in 0..60u64 {
            write_frame(&mut db, &Frame::Sample(wire(seq, false))).expect("db sample writes");
        }
        write_frame(&mut db, &Frame::Bye { last_seq: 59 }).expect("bye writes");

        let report = collector.join().expect("collector thread");
        // Hold the half-open socket open until the collector is done:
        // an early close would look like EOF, not a stall.
        drop(app);
        report
    });

    assert!(
        report
            .sheds
            .contains(&(TierId::App, ShedKind::StalledFrame)),
        "the half-open lane must be shed on the stall budget, got {:?}",
        report.sheds
    );
    assert!(
        !report.sheds.iter().any(|(t, _)| *t == TierId::Db),
        "the well-behaved lane must never be shed, got {:?}",
        report.sheds
    );
    let windows: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        windows,
        vec![0],
        "the window completed before the stall must still decide"
    );
    assert!(
        report.poisoned_windows.contains(&1),
        "the shed lane's in-flight window must be quarantined, got {:?}",
        report.poisoned_windows
    );
    assert!(
        !report.poisoned_windows.contains(&0),
        "the completed window must not be collateral damage"
    );
}

/// Repeated sheds inside the sliding window are a storm: the supervisor
/// escalates to Degraded with the shed count named in the transition
/// reason, and the audit log round-trips as JSON.
#[test]
fn shed_storm_escalates_to_degraded_with_an_audited_reason() {
    let mut sc = Assembler::new(trained_meter(), CollectorConfig::default().window_origin);
    sc.on_session_start(TierId::App);
    sc.on_session_start(TierId::Db);
    for _ in 0..SHED_STORM {
        sc.on_shed(TierId::App, ShedKind::DialBacklog);
    }
    let report = sc.finish();

    assert_eq!(
        report.health,
        HealthState::Degraded,
        "a shed storm is not a healthy plane"
    );
    assert_eq!(
        report.sheds.len(),
        SHED_STORM,
        "every shed must be in the audit trail"
    );
    let storm = report
        .transitions
        .iter()
        .find(|t| t.to == HealthState::Degraded)
        .expect("the escalation must be logged");
    assert_eq!(storm.from, HealthState::Healthy);
    assert!(
        storm
            .reason
            .contains(&format!("{} sheds in window", SHED_STORM)),
        "the reason must name the storm, got {:?}",
        storm.reason
    );

    // The transition log is the operator-facing audit artifact; prove
    // it round-trips and leave it where CI collects failure artifacts.
    let audit = serde_json::to_string_pretty(&report.transitions).expect("audit serializes");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("shed-storm-audit.json");
    std::fs::write(&path, &audit).expect("audit writes");
    let read_back: Vec<HealthTransition> = serde_json::from_str(&audit).expect("audit parses back");
    assert_eq!(read_back, report.transitions);
}

/// Pacing is outcome-neutral. Both tiers stream a steady 240 s run, one
/// `Sample` frame per second, interleaved by seq on one writer; each
/// frame goes out in chunks whose sizes are a pure function of `(tier,
/// seq, piece)`, and one frame in eight pauses 3 ms after its first
/// chunk. The collector's readiness polling and `FrameBuf` reassembly
/// meet every kind of cut, and the decisions must equal the in-process
/// replay of every window byte for byte, with nothing poisoned; the
/// decisions streamed to `on_decision` are the report's, in order.
#[test]
fn paced_fragmented_frames_decide_byte_identically() {
    const TOTAL: usize = 240;
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL);

    let listener =
        Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint")).expect("binds");
    let endpoint = listener.local_endpoint().expect("local endpoint");
    let cfg = CollectorConfig::default();
    let sc = Assembler::new(meter.clone(), cfg.window_origin);
    let mut streamed = Vec::new();
    let report = std::thread::scope(|scope| {
        let (cfg_ref, streamed) = (&cfg, &mut streamed);
        let collector = scope.spawn(move || {
            run_supervised_collector(listener, sc, cfg_ref, |window, decision| {
                streamed.push((window, decision.clone()));
            })
        });

        let mut conns = TierId::ALL.map(|tier| {
            let conn = handshaken(&endpoint, tier);
            // Every chunk its own segment, so the cuts reach the collector.
            if let Conn::Tcp(stream) = &conn {
                stream.set_nodelay(true).expect("nodelay sets");
            }
            conn
        });
        let mut samplers =
            TierId::ALL.map(|t| TierSampler::new(t, meter.config().hpc_model.clone(), BASE_SEED));
        let mut frame = Vec::new();
        for (seq, s) in samples.iter().enumerate() {
            let seq = seq as u64;
            for tier in TierId::ALL {
                let ws = tier
                    .select_mut(&mut samplers)
                    .wire_sample(SourceSample::of_tier(tier, seq, s));
                frame.clear();
                write_frame(&mut frame, &Frame::Sample(ws)).expect("sample encodes");
                let mut rng = StdRng::seed_from_u64((tier.index() as u64) << 32 | seq);
                let mut pause = rng.random_range(0..8u32) == 0;
                let conn = tier.select_mut(&mut conns);
                let mut rest = frame.as_slice();
                while !rest.is_empty() {
                    let (chunk, tail) =
                        rest.split_at(rng.random_range(1..=64usize).min(rest.len()));
                    conn.write_all(chunk).expect("chunk writes");
                    if std::mem::take(&mut pause) {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                    rest = tail;
                }
            }
        }
        for conn in &mut conns {
            write_frame(
                conn,
                &Frame::Bye {
                    last_seq: TOTAL as u64 - 1,
                },
            )
            .expect("bye writes");
        }
        collector.join().expect("collector thread")
    });

    let oracle = replay_windows(&meter, &samples, BASE_SEED, &all_windows(TOTAL, 30));
    assert!(!oracle.is_empty(), "the run must decide some windows");
    assert_eq!(
        serde_json::to_string(&(&report.decisions, &report.poisoned_windows))
            .expect("report serializes"),
        serde_json::to_string(&(&oracle, Vec::<i64>::new())).expect("oracle serializes"),
        "fragmenting and pausing frames must not change a byte of the outcome"
    );
    assert_eq!(
        decisions_json(&streamed),
        decisions_json(&report.decisions),
        "the decision stream is the report's decisions, in order"
    );
}
