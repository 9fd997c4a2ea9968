//! Acceptance gate for the binary wire codec: at the agent's default
//! batch size (32 samples per `SampleBatch`), binary encode+decode must
//! beat JSON by at least 3× on the median round-trip.
//!
//! Medians are taken over many interleaved repetitions so scheduling
//! noise hits both codecs alike; each repetition round-trips the same
//! frames through one reused buffer pair, mirroring the agent's and
//! collector's steady paths.

use std::hint::black_box;
use std::time::Instant;

use webcap_net::{read_frame, write_frame_codec, AppStats, Frame, WireCodec, WireSample};
use webcap_sim::{RtHistogram, TierSample};
use webcap_tpcw::MixId;

/// The agent's default `max_batch`, so the measured frame is the
/// steady-path frame.
const WIRE_BATCH: usize = 32;

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

fn batches(n: u64) -> Vec<Frame> {
    (0..n)
        .map(|f| {
            Frame::SampleBatch(
                (0..WIRE_BATCH as u64)
                    .map(|i| sample(f * WIRE_BATCH as u64 + i))
                    .collect(),
            )
        })
        .collect()
}

/// One timed repetition: encode every frame into a reused wire buffer,
/// then decode them all back. Returns nanoseconds.
fn round_trip_ns(
    frames: &[Frame],
    codec: WireCodec,
    wire: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
) -> u128 {
    wire.clear();
    let t0 = Instant::now();
    for frame in frames {
        write_frame_codec(&mut *wire, frame, codec, scratch).expect("bench frames encode");
    }
    let mut cursor: &[u8] = wire;
    for _ in 0..frames.len() {
        let frame = read_frame(&mut cursor).expect("bench frames decode");
        black_box(&frame);
    }
    let dt = t0.elapsed().as_nanos();
    assert!(cursor.is_empty(), "every byte consumed");
    dt
}

#[test]
fn binary_beats_json_by_3x_at_batch_32() {
    const FRAMES: u64 = 24;
    const REPS: usize = 31;
    let frames = batches(FRAMES);
    let mut wire: Vec<u8> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();

    // Warm-up: touch both paths so first-use costs (allocator growth,
    // lazy serde machinery) land outside the measured repetitions.
    for codec in [WireCodec::Json, WireCodec::Binary] {
        round_trip_ns(&frames, codec, &mut wire, &mut scratch);
    }

    let mut json_ns: Vec<u128> = Vec::with_capacity(REPS);
    let mut bin_ns: Vec<u128> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        json_ns.push(round_trip_ns(
            &frames,
            WireCodec::Json,
            &mut wire,
            &mut scratch,
        ));
        bin_ns.push(round_trip_ns(
            &frames,
            WireCodec::Binary,
            &mut wire,
            &mut scratch,
        ));
    }
    json_ns.sort_unstable();
    bin_ns.sort_unstable();
    let json_med = json_ns[REPS / 2];
    let bin_med = bin_ns[REPS / 2];

    assert!(bin_med > 0, "binary round trip is measurable");
    let ratio = json_med as f64 / bin_med as f64;
    assert!(
        ratio >= 3.0,
        "binary codec must beat JSON >= 3x at batch {WIRE_BATCH}: \
         json median {json_med} ns / binary median {bin_med} ns = {ratio:.2}x"
    );

    // And the frames had better be smaller, not just faster.
    wire.clear();
    for frame in &frames {
        write_frame_codec(&mut wire, frame, WireCodec::Json, &mut scratch).expect("encodes");
    }
    let json_bytes = wire.len();
    wire.clear();
    for frame in &frames {
        write_frame_codec(&mut wire, frame, WireCodec::Binary, &mut scratch).expect("encodes");
    }
    let bin_bytes = wire.len();
    assert!(
        bin_bytes * 2 < json_bytes,
        "binary wire size ({bin_bytes} B) must be under half of JSON ({json_bytes} B)"
    );
}
