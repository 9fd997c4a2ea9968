//! Acceptance gate for the binary wire codec: at the agent's default
//! batch size (32 samples per `SampleBatch`), binary encode+decode must
//! beat JSON by at least 3× on the median round-trip, at no more than
//! 800 bytes per sample.
//!
//! Medians are taken over many interleaved repetitions so scheduling
//! noise hits both codecs alike; each repetition round-trips the same
//! frames through one reused buffer pair, mirroring the agent's and
//! collector's steady paths.

use std::hint::black_box;
use std::time::Instant;

use webcap_hpc::HpcModel;
use webcap_net::{read_frame, write_frame_codec, Frame, SourceSample, TierSampler, WireCodec};
use webcap_sim::{SimConfig, Simulation, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

/// The agent's default `max_batch`, so the measured frame is the
/// steady-path frame.
const WIRE_BATCH: usize = 32;
/// Batches per tier.
const FRAMES: usize = 12;

/// What both agents of a simulated steady run put on the wire: rows
/// synthesised by the agents' own [`TierSampler`], batched at
/// [`WIRE_BATCH`].
fn batches() -> Vec<Frame> {
    let program = TrafficProgram::steady(Mix::shopping(), 60, (FRAMES * WIRE_BATCH) as f64);
    let samples = Simulation::new(SimConfig::testbed(5), program)
        .run()
        .samples;
    let mut frames = Vec::new();
    for tier in TierId::ALL {
        let mut sampler = TierSampler::new(tier, HpcModel::testbed(), 9);
        let wire: Vec<_> = (0u64..)
            .zip(&samples)
            .map(|(seq, s)| sampler.wire_sample(SourceSample::of_tier(tier, seq, s)))
            .collect();
        frames.extend(
            wire.chunks(WIRE_BATCH)
                .map(|c| Frame::SampleBatch(c.to_vec())),
        );
    }
    frames
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
    const REPS: usize = 31;
    let frames = batches();
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

    // And small: an absolute ceiling next to the 742 B per sample the
    // benchmark ledger records for the same dialect and batch size
    // (`net.binary.encode.bytes_per_sample`), independent of which
    // JSON implementation is linked.
    wire.clear();
    for frame in &frames {
        write_frame_codec(&mut wire, frame, WireCodec::Binary, &mut scratch).expect("encodes");
    }
    let per_sample = wire.len() / (frames.len() * WIRE_BATCH);
    assert!(
        per_sample <= 800,
        "binary dialect at batch {WIRE_BATCH} costs {per_sample} B per sample, ceiling 800 B"
    );
}
