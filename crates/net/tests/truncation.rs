//! Exhaustive binary truncation sweep — satellite of the chaos-mesh PR.
//!
//! For **every** frame variant of the protocol, encode the binary
//! payload and present every strict prefix of it to the frame
//! extractor, each behind a correctly rewritten length header so the
//! decoder sees a complete-looking frame with a short body. The
//! contract: every prefix fails with a *typed* corrupt error
//! (`FrameError::Binary`) — no panic, no hang, no accidental decode —
//! while the untruncated frame round-trips exactly.
//!
//! The binary decoder is a bounds-checked cursor with a trailing-bytes
//! check, so this property is structural; this sweep pins it against
//! regressions for all eight variants at every byte boundary.
//!
//! The same eight variants also carry the wire's **byte pin**
//! (`every_variant_encodes_to_its_pinned_bytes`): what each one encodes
//! to is a committed string, and its frame is that string behind the
//! `"WCB3"` header, so a layout change cannot land without a visible
//! diff here. One more pin, a batch whose histograms cross both
//! spellings of the histogram block — the 48-byte one-byte run and
//! per-value varints — holds the codec's fast paths to the same bytes.

use webcap_core::{TierStressAgg, TierWindow, WindowHealthAgg};
use webcap_net::binary::encode_frame;
use webcap_net::supervisor::HealthState;
use webcap_net::{
    try_extract_frame, write_frame, AppStats, AppWindowDigest, DigestFin, DigestFrame, Frame,
    TierWindowDigest, WireCaps, WireCodec, WireSample, FRAME_MAGIC_BIN,
};
use webcap_sim::{RtHistogram, TierId, TierSample};
use webcap_tpcw::MixId;

fn sample(seq: u64) -> WireSample {
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
        app: Some(AppStats {
            ebs_target: 10,
            ebs_active: 10,
            mix_id: MixId::Ordering,
            issued: 20,
            issued_browse: 10,
            completed: 20,
            completed_browse: 10,
            response_time_sum_s: 2.0,
            response_time_max_s: 0.4,
            in_flight: 1,
            response_times: RtHistogram::new(),
        }),
    }
}

/// A batch whose histograms cross both spellings of the histogram
/// block: the first member's 48 bucket deltas are one byte each (the
/// one-byte run), the second's take multi-byte and negative deltas, up
/// to a count of `u32::MAX` (the per-value varints).
fn crossing_batch() -> Frame {
    let hist = |counts: &[u32]| {
        let total = counts.iter().map(|c| u64::from(*c)).sum();
        RtHistogram::from_raw_parts(counts, total).expect("48 buckets")
    };
    let first: Vec<u32> = (0..RtHistogram::BUCKET_COUNT as u32)
        .map(|i| i % 5)
        .collect();
    let mut second = first.clone();
    second[0] = 1000;
    second[1] = 0;
    second[2] = 2 + 63;
    second[3] = 3 + 64;
    second[4] = 0;
    second[47] = u32::MAX;
    let member = |seq: u64, counts: &[u32]| {
        let mut ws = sample(seq);
        if let Some(app) = ws.app.as_mut() {
            app.response_times = hist(counts);
        }
        ws
    };
    Frame::SampleBatch(vec![member(11, &first), member(12, &second)])
}

/// One instance of every protocol frame variant, each with its
/// optional fields populated so the sweep crosses every field decoder.
fn all_variants() -> Vec<Frame> {
    vec![
        Frame::Hello {
            tier: TierId::App,
            proto_version: 3,
            metric_schema_hash: 0x1234_5678_9abc_def0,
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: 32,
            },
        },
        Frame::Sample(sample(7)),
        Frame::SampleBatch(vec![sample(8), sample(9), sample(10)]),
        Frame::Heartbeat { seq: 41 },
        Frame::Ack { seq: 42 },
        Frame::Reject {
            reason: "schema mismatch".to_string(),
            ours: 3,
            theirs: 2,
        },
        Frame::Bye { last_seq: 239 },
        Frame::Digest(DigestFrame {
            collector: 1,
            seq: 5,
            health: HealthState::Healthy,
            windows: vec![TierWindowDigest {
                window: 3,
                tier: TierId::App,
                samples: 30,
                half: TierWindow {
                    hpc_mean: vec![0.5; 12],
                    os_mean: vec![0.1; 8],
                    stress: TierStressAgg {
                        util_sum: 9.0,
                        queue_sum: 1.5,
                        n: 30,
                    },
                },
                app: Some(AppWindowDigest {
                    t_start_s: 90.0,
                    t_end_s: 120.0,
                    duration_s: 30.0,
                    health: WindowHealthAgg {
                        completed: 600,
                        rt_sum_s: 60.0,
                        rt_hist: RtHistogram::new(),
                        first_in_flight: Some(1),
                        last_in_flight: 2,
                    },
                    mix_counts: vec![(MixId::Ordering, 30)],
                }),
            }],
            poisoned: vec![1, 2],
            fin: Some(DigestFin {
                tiers: vec![TierId::App, TierId::Db],
                last_window: 7,
            }),
        }),
    ]
}

/// Frame a binary payload prefix behind a rewritten length header.
fn framed_prefix(payload: &[u8], keep: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + keep);
    buf.extend_from_slice(&FRAME_MAGIC_BIN.to_le_bytes());
    buf.extend_from_slice(&(keep as u32).to_le_bytes());
    buf.extend_from_slice(&payload[..keep]);
    buf
}

#[test]
fn every_strict_prefix_of_every_variant_is_a_typed_error() {
    for frame in all_variants() {
        let mut payload = Vec::new();
        encode_frame(&frame, &mut payload);
        assert!(!payload.is_empty(), "no variant encodes to zero bytes");

        // The untruncated frame round-trips exactly, consuming every
        // byte.
        let full = framed_prefix(&payload, payload.len());
        match try_extract_frame(&full) {
            Ok(Some((decoded, used))) => {
                assert_eq!(
                    used,
                    full.len(),
                    "{frame:?}: full frame must consume all bytes"
                );
                assert_eq!(decoded, frame, "{frame:?}: round-trip must be exact");
            }
            other => panic!("{frame:?}: full frame failed to decode: {other:?}"),
        }

        // Every strict prefix, rewritten as a complete frame, must be a
        // typed corrupt error — never a panic, never an accidental
        // decode, never a silent Ok(None).
        for keep in 0..payload.len() {
            let buf = framed_prefix(&payload, keep);
            match try_extract_frame(&buf) {
                Err(e) => {
                    assert!(
                        e.is_corrupt(),
                        "{frame:?} prefix {keep}/{}: error must be typed corrupt, got {e:?}",
                        payload.len()
                    );
                }
                Ok(decoded) => panic!(
                    "{frame:?} prefix {keep}/{} decoded as {decoded:?} instead of failing",
                    payload.len()
                ),
            }
        }
    }
}

/// The binary payload of each [`all_variants`] frame, in order, as hex.
const PINNED_BINARY: [&str; 8] = [
    // Hello
    "000003f0debc9a785634120120",
    // Sample
    "\
     010e0000000000002040000000000000f03f333333333333d33f333333333333d33f00000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000002828000000000000000000\
     000000000000000c000000000000e03f000000000000e03f000000000000e03f000000000000e03f00000000\
     0000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f\
     000000000000e03f000000000000e03f409a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f011414022814281400000000000000409a9999999999d93f02000000000000000000000000000000000000\
     00000000000000000000000000000000000000000000000000000000000000",
    // SampleBatch
    "\
     0203100000000000002240000000000000f03f333333333333d33f333333333333d33f000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000028280000000000000000\
     00000000000000000c000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000\
     000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e0\
     3f000000000000e03f000000000000e03f409a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f011414022814281400000000000000409a9999999999d93f020000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000020000000000002440000000\
     000000f03f333333333333d33f333333333333d33f0000000000000000000000000000000000000000000000\
     00000000000000000000000000000000000000000000000000000000000000000000000000000c0000000000\
     00e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f00\
     0000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f0000000000\
     00e03f409a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a999999\
     9999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a999999\
     9999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a999999\
     9999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a999999\
     9999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a999999\
     9999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f\
     9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f010000020000000000000000\
     000000409a9999999999d93f0000000000000000000000000000000000000000000000000000000000000000\
     000000000000000000000000000000000000020000000000002640000000000000f03f333333333333d33f33\
     3333333333d33f00000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000c000000000000e03f000000000000e03f000000\
     000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e0\
     3f000000000000e03f000000000000e03f000000000000e03f000000000000e03f409a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f010000020000000000000000000000409a9999999999d93f0000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     00000000",
    // Heartbeat
    "0329",
    // Ack
    "042a",
    // Reject
    "050f736368656d61206d69736d617463680302",
    // Bye
    "06ef01",
    // Digest
    "\
     070105000106001e0c000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000\
     000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e0\
     3f000000000000e03f000000000000e03f089a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f000000000000\
     2240000000000000f83f1e0100000000008056400000000000005e400000000000003e40d804000000000000\
     4e40000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000001010201021e020204010200010e",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The byte pin. The compiler proves the codec names every field on
/// both sides and the round-trip suites prove encode and decode agree;
/// neither notices a *consistent* reorder or re-spelling, which would
/// silently fork the wire under an unchanged version number. This does:
/// the committed strings are the payloads `all_variants()` put on the
/// wire (unchanged since protocol version 3), and every frame is its
/// payload behind the `"WCB3"` magic and the payload length.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    const HINT: &str = "the wire layout changed: that is a PROTO_VERSION and frame magic \
                        decision — bump them and re-pin, or undo the layout change";
    let variants = all_variants();
    assert_eq!(
        variants.len(),
        PINNED_BINARY.len(),
        "a new variant needs a pin"
    );
    for (frame, binary) in variants.iter().zip(PINNED_BINARY) {
        let mut payload = Vec::new();
        encode_frame(frame, &mut payload);
        assert_eq!(hex(&payload), binary, "{frame:?}: {HINT}");
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).expect("variant encodes");
        assert_eq!(
            wire,
            framed_prefix(&payload, payload.len()),
            "{frame:?}: {HINT}"
        );
    }
}

/// The payload of [`crossing_batch`], as hex: 48 one-byte bucket deltas
/// in the first member, multi-byte and negative ones in the second.
const PINNED_CROSSING_BATCH: &str = "\
     0202160000000000002840000000000000f03f333333333333d33f333333333333d33f000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000028280000000000000000\
     00000000000000000c000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000\
     000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e0\
     3f000000000000e03f000000000000e03f409a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a99\
     99999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999\
     b93f011414022814281400000000000000409a9999999999d93f020002040608000204060800020406080002\
     04060800020406080002040608000204060800020406080002040608000204ba01020000000000002a400000\
     00000000f03f333333333333d33f333333333333d33f00000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000c00000000\
     0000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f\
     000000000000e03f000000000000e03f000000000000e03f000000000000e03f000000000000e03f00000000\
     0000e03f409a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999\
     999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b9\
     3f9a9999999999b93f9a9999999999b93f9a9999999999b93f9a9999999999b93f0100000200000000000000\
     00000000409a9999999999d93f00d00f017e8001070000000000000000000000000000000000000000000000\
     00000000000000000000000000000000000000faffffff1fbe91808020";

/// The byte pin across both spellings of the histogram block: a batch
/// whose first member's histogram goes out as the one-byte run and whose
/// second's as per-value varints encodes to the committed bytes (the
/// payload protocol version 5 put on the wire), round-trips exactly, and
/// fails typed at every strict prefix.
#[test]
fn a_batch_crossing_both_histogram_spellings_encodes_to_its_pinned_bytes() {
    let frame = crossing_batch();
    let mut payload = Vec::new();
    encode_frame(&frame, &mut payload);
    assert_eq!(
        hex(&payload),
        PINNED_CROSSING_BATCH,
        "the histogram block's bytes changed"
    );
    let full = framed_prefix(&payload, payload.len());
    match try_extract_frame(&full) {
        Ok(Some((decoded, used))) => {
            assert_eq!(used, full.len());
            assert_eq!(decoded, frame);
        }
        other => panic!("the crossing batch failed to decode: {other:?}"),
    }
    for keep in 0..payload.len() {
        match try_extract_frame(&framed_prefix(&payload, keep)) {
            Err(e) => assert!(e.is_corrupt(), "prefix {keep}: {e:?}"),
            Ok(decoded) => panic!("prefix {keep} decoded as {decoded:?}"),
        }
    }
}
