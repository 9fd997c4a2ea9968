//! Wire-codec acceptance tests: the binary dialect must be observably
//! indistinguishable from JSON everywhere except byte count.
//!
//! Four contracts:
//!
//! * **Codec equivalence** — arbitrary frames round-trip through both
//!   codecs to the same `Frame` value (proptest over the full frame
//!   family, hostile histograms included).
//! * **Decode robustness** — truncated and bit-flipped binary frames
//!   produce typed `FrameError`s, never a panic (`fuzz_smoke` runs the
//!   same mutation engine deterministically for the lint/CI job).
//! * **Negotiation** — any version but `PROTO_VERSION`, older or newer,
//!   is refused with a `Reject` carrying both peers' versions.
//! * **Deployment byte-identity** — a faulted loopback run under the
//!   binary codec produces byte-identical decisions, poisoning, and
//!   agent reports to the same run under JSON.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::prelude::*;
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_core::{TierStressAgg, WindowHealthAgg};
use webcap_net::binary::{decode_frame, encode_frame};
use webcap_net::collector::{run_collector, CollectorConfig};
use webcap_net::frame::{
    metric_schema_hash, read_frame, try_extract_frame, write_frame, write_frame_codec, AppStats,
    AppWindowDigest, DigestFin, DigestFrame, Frame, TierWindowDigest, WireCaps, WireCodec,
    WireSample, PROTO_VERSION,
};
use webcap_net::loopback::{predicted_surviving_windows, replay_windows};
use webcap_net::supervisor::HealthState;
use webcap_net::{
    run_agent, AgentConfig, AgentReport, Endpoint, FaultKnobs, Listener, ScriptedSource,
};
use webcap_sim::{RtHistogram, Simulation, SystemSample, TierId, TierSample};
use webcap_tpcw::{Mix, MixId, TrafficProgram};

const BASE_SEED: u64 = 17;
const TOTAL_SAMPLES: usize = 240;

// ---------------------------------------------------------------------
// Frame strategies
// ---------------------------------------------------------------------

/// Finite floats only: NaN breaks `PartialEq` round-trip assertions and
/// serde_json refuses to serialize it, so neither codec can carry it.
fn f64s() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        -1e15f64..1e15f64,
        -1e-9f64..1e-9f64,
    ]
}

fn tiers() -> impl Strategy<Value = TierId> {
    prop_oneof![Just(TierId::App), Just(TierId::Db)]
}

fn mixes() -> impl Strategy<Value = MixId> {
    prop_oneof![
        Just(MixId::Browsing),
        Just(MixId::Shopping),
        Just(MixId::Ordering),
        Just(MixId::Custom),
    ]
}

fn healths() -> impl Strategy<Value = HealthState> {
    prop_oneof![
        Just(HealthState::Healthy),
        Just(HealthState::Degraded),
        Just(HealthState::SafeMode),
    ]
}

/// Any bucket layout and any total — including totals inconsistent with
/// the buckets, which a hostile peer could send and both codecs must
/// carry verbatim.
fn histograms() -> impl Strategy<Value = RtHistogram> {
    (
        proptest::collection::vec(any::<u32>(), RtHistogram::BUCKET_COUNT),
        any::<u64>(),
    )
        .prop_map(|(counts, total)| {
            RtHistogram::from_raw_parts(&counts, total).expect("exact bucket count")
        })
}

fn tier_samples() -> impl Strategy<Value = TierSample> {
    (
        (f64s(), f64s(), f64s(), f64s(), f64s()),
        (any::<u16>(), any::<u16>(), f64s(), f64s(), any::<u64>()),
        (any::<u64>(), any::<u64>(), f64s(), f64s()),
    )
        .prop_map(
            |(
                (utilization, delivered_work_s, avg_runnable, pool_in_use_avg, pool_queue_avg),
                (pool_queue_end, pool_in_use_end, disk_utilization, disk_queue_avg, disk_ops),
                (arrivals, completions, browse_work_submitted_s, order_work_submitted_s),
            )| TierSample {
                utilization,
                delivered_work_s,
                avg_runnable,
                pool_in_use_avg,
                pool_queue_avg,
                pool_queue_end: pool_queue_end as usize,
                pool_in_use_end: pool_in_use_end as usize,
                disk_utilization,
                disk_queue_avg,
                disk_ops,
                arrivals,
                completions,
                browse_work_submitted_s,
                order_work_submitted_s,
            },
        )
}

fn app_stats() -> impl Strategy<Value = AppStats> {
    (
        (any::<u32>(), any::<u32>(), mixes(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (f64s(), f64s(), any::<u32>(), histograms()),
    )
        .prop_map(
            |(
                (ebs_target, ebs_active, mix_id, issued),
                (issued_browse, completed, completed_browse),
                (response_time_sum_s, response_time_max_s, in_flight, response_times),
            )| AppStats {
                ebs_target,
                ebs_active,
                mix_id,
                issued,
                issued_browse,
                completed,
                completed_browse,
                response_time_sum_s,
                response_time_max_s,
                in_flight,
                response_times,
            },
        )
}

fn wire_samples() -> impl Strategy<Value = WireSample> {
    (
        any::<u64>(),
        f64s(),
        f64s(),
        tier_samples(),
        proptest::collection::vec(f64s(), 0..16),
        proptest::collection::vec(f64s(), 0..16),
        proptest::option::of(app_stats()),
    )
        .prop_map(|(seq, t_s, interval_s, tier, hpc, os, app)| WireSample {
            seq,
            t_s,
            interval_s,
            tier,
            hpc,
            os,
            app,
        })
}

fn window_digests() -> impl Strategy<Value = TierWindowDigest> {
    (
        (any::<i64>(), tiers(), any::<u32>()),
        proptest::collection::vec(f64s(), 0..8),
        proptest::collection::vec(f64s(), 0..8),
        (f64s(), f64s(), any::<u64>()),
        proptest::option::of((
            (f64s(), f64s(), f64s()),
            (any::<u64>(), f64s(), histograms()),
            (proptest::option::of(any::<u32>()), any::<u32>()),
            proptest::collection::vec((mixes(), any::<u32>()), 0..4),
        )),
    )
        .prop_map(
            |((window, tier, samples), hpc_mean, os_mean, stress, app)| TierWindowDigest {
                window,
                tier,
                samples,
                hpc_mean,
                os_mean,
                stress: TierStressAgg {
                    util_sum: stress.0,
                    queue_sum: stress.1,
                    n: stress.2,
                },
                app: app.map(
                    |(
                        (t_start_s, t_end_s, duration_s),
                        (completed, rt_sum_s, rt_hist),
                        (first_in_flight, last_in_flight),
                        mix_counts,
                    )| AppWindowDigest {
                        t_start_s,
                        t_end_s,
                        duration_s,
                        health: WindowHealthAgg {
                            completed,
                            rt_sum_s,
                            rt_hist,
                            first_in_flight,
                            last_in_flight,
                        },
                        mix_counts,
                    },
                ),
            },
        )
}

fn digest_frames() -> impl Strategy<Value = DigestFrame> {
    (
        (any::<u32>(), any::<u64>(), healths()),
        proptest::collection::vec(window_digests(), 0..3),
        proptest::collection::vec(any::<i64>(), 0..4),
        proptest::option::of((proptest::collection::vec(tiers(), 0..2), any::<i64>())),
    )
        .prop_map(
            |((collector, seq, health), windows, poisoned, fin)| DigestFrame {
                collector,
                seq,
                health,
                windows,
                poisoned,
                fin: fin.map(|(tiers, last_window)| DigestFin { tiers, last_window }),
            },
        )
}

fn frames() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (tiers(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(
            |(tier, proto_version, hash, max_batch)| Frame::Hello {
                tier,
                proto_version,
                metric_schema_hash: hash,
                caps: WireCaps {
                    codec: if max_batch % 2 == 0 {
                        WireCodec::Binary
                    } else {
                        WireCodec::Json
                    },
                    max_batch,
                },
            }
        ),
        wire_samples().prop_map(Frame::Sample),
        proptest::collection::vec(wire_samples(), 0..5).prop_map(Frame::SampleBatch),
        any::<u64>().prop_map(|seq| Frame::Heartbeat { seq }),
        any::<u64>().prop_map(|seq| Frame::Ack { seq }),
        ("[ -~]{0,64}", any::<u32>(), any::<u32>()).prop_map(|(reason, ours, theirs)| {
            Frame::Reject {
                reason,
                ours,
                theirs,
            }
        }),
        any::<u64>().prop_map(|last_seq| Frame::Bye { last_seq }),
        digest_frames().prop_map(Frame::Digest),
    ]
}

proptest! {
    /// The tentpole invariant: any frame encodes under either codec and
    /// decodes back to the same value — including through the
    /// event-loop's buffer-extraction path.
    #[test]
    fn any_frame_round_trips_identically_through_both_codecs(frame in frames()) {
        let mut scratch = Vec::new();
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let mut buf = Vec::new();
            write_frame_codec(&mut buf, &frame, codec, &mut scratch)
                .expect("finite frames encode");
            let back = read_frame(&mut buf.as_slice()).expect("decodes");
            prop_assert_eq!(&back, &frame, "read_frame under {}", codec);
            let (extracted, consumed) = try_extract_frame(&buf)
                .expect("extracts")
                .expect("complete frame");
            prop_assert_eq!(&extracted, &frame, "try_extract_frame under {}", codec);
            prop_assert_eq!(consumed, buf.len());
        }
    }

    /// Mixed-codec streams of arbitrary frames reassemble in order from
    /// a byte buffer fed in arbitrary chunk sizes — the exact shape the
    /// event-loop collector sees.
    #[test]
    fn mixed_codec_streams_reassemble_across_arbitrary_chunking(
        seq in proptest::collection::vec((frames(), any::<bool>()), 1..6),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for (frame, binary) in &seq {
            let codec = if *binary { WireCodec::Binary } else { WireCodec::Json };
            write_frame_codec(&mut wire, frame, codec, &mut scratch).expect("encodes");
        }
        let mut rbuf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            rbuf.extend_from_slice(piece);
            while let Some((frame, consumed)) =
                try_extract_frame(&rbuf).expect("valid stream never errors")
            {
                decoded.push(frame);
                rbuf.drain(..consumed);
            }
        }
        let expected: Vec<Frame> = seq.into_iter().map(|(f, _)| f).collect();
        prop_assert_eq!(decoded, expected);
        prop_assert!(rbuf.is_empty(), "no trailing bytes");
    }

    /// Decode robustness: bit-flipped and truncated binary payloads are
    /// typed errors or (coincidentally) valid frames — never a panic.
    #[test]
    fn mutated_binary_payloads_never_panic(
        frame in frames(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..8),
        truncate_to in any::<usize>(),
    ) {
        let mut payload = Vec::new();
        encode_frame(&frame, &mut payload);
        for &(pos, mask) in &flips {
            if payload.is_empty() {
                break;
            }
            let idx = pos % payload.len();
            payload[idx] ^= mask;
        }
        payload.truncate(truncate_to % (payload.len() + 1));
        match decode_frame(&payload) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(e.is_corrupt(), "binary decode errors are corruption: {e}");
                let _ = e.to_string();
            }
        }
    }
}

/// The deterministic "fuzz smoke" the lint/CI job runs by name: a fixed
/// xorshift PRNG drives the same mutation engine as the proptest above
/// over a few thousand cases, so a decoder panic fails CI reproducibly
/// even with proptest's randomized exploration disabled.
#[test]
fn fuzz_smoke_binary_decoder_survives_deterministic_mutations() {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let seeds: Vec<Vec<u8>> = {
        let mut seeds = Vec::new();
        let mut buf = Vec::new();
        for frame in [
            Frame::Hello {
                tier: TierId::App,
                proto_version: PROTO_VERSION,
                metric_schema_hash: metric_schema_hash(TierId::App),
                caps: WireCaps {
                    codec: WireCodec::Binary,
                    max_batch: 32,
                },
            },
            Frame::Sample(WireSample {
                seq: u64::MAX - 7,
                t_s: 1234.0,
                interval_s: 1.0,
                tier: TierSample::default(),
                hpc: vec![0.5; 12],
                os: vec![0.1; 64],
                app: None,
            }),
            Frame::SampleBatch(vec![
                WireSample {
                    seq: 3,
                    t_s: 4.0,
                    interval_s: 1.0,
                    tier: TierSample::default(),
                    hpc: vec![],
                    os: vec![],
                    app: None,
                };
                32
            ]),
            Frame::Heartbeat { seq: 0 },
            Frame::Bye { last_seq: u64::MAX },
        ] {
            buf.clear();
            encode_frame(&frame, &mut buf);
            seeds.push(buf.clone());
        }
        seeds
    };

    let mut cases = 0u32;
    for seed in &seeds {
        for _ in 0..600 {
            let mut payload = seed.clone();
            let flips = (next() % 6) as usize;
            for _ in 0..flips {
                let idx = (next() as usize) % payload.len();
                let mask = (next() % 255 + 1) as u8;
                payload[idx] ^= mask;
            }
            if next() % 2 == 0 {
                let keep = (next() as usize) % (payload.len() + 1);
                payload.truncate(keep);
            }
            match decode_frame(&payload) {
                Ok(_) => {}
                Err(e) => assert!(e.is_corrupt(), "typed corruption only: {e}"),
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 3000, "the smoke covers every seed frame");
}

// ---------------------------------------------------------------------
// Negotiation
// ---------------------------------------------------------------------

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

/// Any `proto_version` but the collector's own — the previous one as
/// much as a future one — is refused at negotiation with a `Reject`
/// carrying both peers' versions, not a post-header parse error.
#[test]
fn an_unknown_proto_version_is_rejected_with_both_versions() {
    let meter = trained_meter();
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let mut cfg = CollectorConfig::default();
    cfg.idle_timeout = Duration::from_millis(300);
    let strangers = [PROTO_VERSION - 1, 99];

    let report = std::thread::scope(|scope| {
        let meter_clone = meter.clone();
        let cfg_ref = &cfg;
        let collector =
            scope.spawn(move || run_collector(listener, meter_clone, cfg_ref, |_, _| {}));

        for version in strangers {
            let mut conn = webcap_net::Conn::connect(&dial).expect("peer connects");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout set");
            write_frame(
                &mut conn,
                &Frame::Hello {
                    tier: TierId::App,
                    proto_version: version,
                    metric_schema_hash: metric_schema_hash(TierId::App),
                    caps: WireCaps {
                        codec: WireCodec::Json,
                        max_batch: 1,
                    },
                },
            )
            .expect("hello sends");
            match read_frame(&mut conn).expect("collector answers") {
                Frame::Reject {
                    reason,
                    ours,
                    theirs,
                } => {
                    assert!(reason.contains(&format!("version {version}")), "{reason}");
                    assert_eq!(ours, PROTO_VERSION, "the collector names its version");
                    assert_eq!(theirs, version, "and echoes the peer's");
                }
                other => panic!("expected Reject, got {other:?}"),
            }
        }

        collector
            .join()
            .expect("collector thread completes")
            .expect("collector runs")
    });

    assert_eq!(report.rejected_handshakes, strangers.len() as u64);
    assert_eq!(report.sessions, [0, 0], "no session was started");
}

// ---------------------------------------------------------------------
// Deployment byte-identity
// ---------------------------------------------------------------------

/// A faulted loopback deployment pinned to an explicit codec — the same
/// wiring as `run_loopback`, but with `AgentConfig::codec` set directly
/// so the comparison does not depend on process environment.
fn run_with_codec(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    faults: FaultKnobs,
    codec: WireCodec,
) -> (webcap_net::CollectorReport, [AgentReport; 2]) {
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let hpc_model = meter.config().hpc_model.clone();
    let collector_cfg = CollectorConfig::default();
    std::thread::scope(|scope| {
        let meter_clone = meter.clone();
        let cfg_ref = &collector_cfg;
        let collector =
            scope.spawn(move || run_collector(listener, meter_clone, cfg_ref, |_, _| {}));
        let mut agent_handles = Vec::new();
        for tier in TierId::ALL {
            let dial = dial.clone();
            let hpc_model = hpc_model.clone();
            agent_handles.push(scope.spawn(move || {
                let mut cfg = AgentConfig::new(tier, dial, BASE_SEED);
                cfg.faults = faults;
                cfg.codec = codec;
                let mut source = ScriptedSource::new(tier, samples);
                run_agent(&cfg, hpc_model, &mut source)
            }));
        }
        let mut agents = Vec::new();
        for handle in agent_handles {
            agents.push(
                handle
                    .join()
                    .expect("agent thread completes")
                    .expect("agent runs"),
            );
        }
        let report = collector
            .join()
            .expect("collector thread completes")
            .expect("collector runs");
        let db = agents.pop().expect("db agent report");
        let app = agents.pop().expect("app agent report");
        (report, [app, db])
    })
}

/// The acceptance bar for the whole PR: under drops and forced
/// reconnects, the binary batched dialect produces byte-identical
/// decisions, poisoning verdicts, and agent reports to unbatched JSON.
#[test]
fn faulted_runs_are_byte_identical_across_codecs() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);
    let faults = FaultKnobs {
        drop_every: Some(37),
        delay: None,
        reconnect_every: Some(101),
    };

    let (json_report, json_agents) = run_with_codec(&meter, &samples, faults, WireCodec::Json);
    let (bin_report, bin_agents) = run_with_codec(&meter, &samples, faults, WireCodec::Binary);

    // Compare the deterministic agent counters only: ack/heartbeat
    // counts ride a concurrent reader thread and legitimately race with
    // session shutdown.
    for (i, (j, b)) in json_agents.iter().zip(&bin_agents).enumerate() {
        assert_eq!(j.samples_produced, b.samples_produced, "agent {i}");
        assert_eq!(j.frames_sent, b.frames_sent, "agent {i}");
        assert_eq!(j.frames_dropped, b.frames_dropped, "agent {i}");
        assert_eq!(j.queue_dropped, b.queue_dropped, "agent {i}");
        assert_eq!(j.sessions, b.sessions, "agent {i}");
    }
    assert_eq!(json_report.poisoned_windows, bin_report.poisoned_windows);
    assert_eq!(json_report.pending_windows, bin_report.pending_windows);
    assert_eq!(json_report.sessions, bin_report.sessions);
    assert_eq!(json_report.samples, bin_report.samples);
    assert_eq!(json_report.anomalies, bin_report.anomalies);
    assert_eq!(
        serde_json::to_string(&json_report.decisions).expect("decisions serialize"),
        serde_json::to_string(&bin_report.decisions).expect("decisions serialize"),
        "decisions are byte-identical across codecs"
    );

    // Both also match the knob oracle and the in-process monitor — the
    // codec did not merely fail identically on both sides.
    let (survivors, poisoned) = predicted_surviving_windows(
        TOTAL_SAMPLES as u64,
        &faults,
        window_len,
        CollectorConfig::default().window_origin,
    );
    let quarantined: BTreeSet<i64> = bin_report.poisoned_windows.iter().copied().collect();
    assert_eq!(quarantined, poisoned, "oracle agrees on poisoning");
    let baseline = replay_windows(&meter, &samples, BASE_SEED, &survivors);
    assert_eq!(
        serde_json::to_string(&bin_report.decisions).expect("serializes"),
        serde_json::to_string(&baseline).expect("serializes"),
        "binary-codec decisions match the in-process monitor byte-for-byte"
    );
}

/// Clean binary run: batching must not change what reaches the meter,
/// and every sample must be individually acknowledged.
#[test]
fn a_clean_binary_run_matches_the_unbatched_contract() {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);

    let (report, agents) = run_with_codec(&meter, &samples, FaultKnobs::NONE, WireCodec::Binary);
    for (i, agent) in agents.iter().enumerate() {
        assert_eq!(agent.samples_produced, TOTAL_SAMPLES as u64, "agent {i}");
        assert_eq!(
            agent.frames_sent, TOTAL_SAMPLES as u64,
            "agent {i}: batched frames count samples"
        );
        assert_eq!(agent.frames_dropped, 0, "agent {i}");
        assert_eq!(agent.sessions, 1, "agent {i}");
    }
    assert_eq!(
        report.samples,
        [TOTAL_SAMPLES as u64, TOTAL_SAMPLES as u64],
        "batched frames deliver every individual sample"
    );
    assert!(report.poisoned_windows.is_empty());
    assert_eq!(report.anomalies, 0);
    let emitted: Vec<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        emitted,
        (0..(TOTAL_SAMPLES / window_len) as i64).collect::<Vec<i64>>()
    );
}
