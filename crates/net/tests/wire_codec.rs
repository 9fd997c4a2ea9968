//! Wire-codec acceptance tests: the one wire dialect carries every frame
//! exactly and compactly.
//!
//! Three contracts:
//!
//! * **Round trip** — arbitrary frames encode and decode to the same
//!   `Frame` value, whole or fed in arbitrary chunks (seeded generators
//!   over the full frame family, hostile histograms included), at no
//!   more than 800 bytes per sample in the agent's batches; and the
//!   histogram block, whether it goes out as the one-byte run or as
//!   per-value varints, is plain per-value LEB128 byte for byte, and
//!   fails as it does.
//! * **Decode robustness** — truncated and bit-flipped frames produce
//!   typed `FrameError`s, never a panic (`fuzz_smoke`).
//! * **Negotiation** — any version but `PROTO_VERSION`, older or newer,
//!   is refused with a `Reject` carrying both peers' versions, and a
//!   version 3 JSON `Hello` with a `Reject` naming its bad magic.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::monitor::feature_width;
use webcap_core::MetricLevel;
use webcap_core::{TierStressAgg, TierWindow, WindowHealthAgg};
use webcap_hpc::HpcModel;
use webcap_net::binary::{decode_frame, decode_frame_into, encode_frame, Decoded};
use webcap_net::collector::CollectorConfig;
use webcap_net::frame::{
    level_schema_hash, metric_schema_hash, read_frame, try_extract_frame, write_frame,
    write_frame_codec, AppStats, AppWindowDigest, DigestFin, DigestFrame, Frame, FrameError,
    TierWindowDigest, WireCaps, WireCodec, WireSample, PROTO_VERSION,
};
use webcap_net::source::{SourceSample, TierSampler};
use webcap_net::supervisor::HealthState;
use webcap_net::{run_supervised_collector, Assembler, Endpoint, Listener};
use webcap_sim::{RtHistogram, SimConfig, Simulation, TierId, TierSample};
use webcap_tpcw::{Mix, MixId, TrafficProgram};

mod common;
#[path = "common/meter.rs"]
mod meter;
use meter::trained_meter;

// ---------------------------------------------------------------------
// Frame generators
// ---------------------------------------------------------------------

/// Cases per seeded property; a failing assertion names its seed.
const CASES: u64 = 256;

fn vec_of<T>(
    rng: &mut StdRng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    (0..rng.random_range(len)).map(|_| item(rng)).collect()
}

fn option_of<T>(rng: &mut StdRng, item: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.random::<bool>().then(|| item(rng))
}

/// Finite floats only: NaN breaks `PartialEq` round-trip assertions.
fn f64s(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u32..5) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => rng.random_range(-1e15f64..1e15),
        _ => rng.random_range(-1e-9f64..1e-9),
    }
}

fn one_of<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.random_range(0..options.len())]
}

fn tiers(rng: &mut StdRng) -> TierId {
    one_of(rng, &TierId::ALL)
}

fn mixes(rng: &mut StdRng) -> MixId {
    one_of(
        rng,
        &[
            MixId::Browsing,
            MixId::Shopping,
            MixId::Ordering,
            MixId::Custom,
        ],
    )
}

fn healths(rng: &mut StdRng) -> HealthState {
    one_of(
        rng,
        &[
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::SafeMode,
        ],
    )
}

/// Any bucket layout and any total — including totals inconsistent with
/// the buckets, which a hostile peer could send and the codec must
/// carry verbatim.
fn histograms(rng: &mut StdRng) -> RtHistogram {
    let counts: Vec<u32> = (0..RtHistogram::BUCKET_COUNT)
        .map(|_| rng.random())
        .collect();
    RtHistogram::from_raw_parts(&counts, rng.random()).expect("exact bucket count")
}

/// The two pool gauges travel as `u16`-sized values.
fn tier_samples(rng: &mut StdRng) -> TierSample {
    TierSample {
        utilization: f64s(rng),
        delivered_work_s: f64s(rng),
        avg_runnable: f64s(rng),
        pool_in_use_avg: f64s(rng),
        pool_queue_avg: f64s(rng),
        pool_queue_end: rng.random_range(0..=usize::from(u16::MAX)),
        pool_in_use_end: rng.random_range(0..=usize::from(u16::MAX)),
        disk_utilization: f64s(rng),
        disk_queue_avg: f64s(rng),
        disk_ops: rng.random(),
        arrivals: rng.random(),
        completions: rng.random(),
        browse_work_submitted_s: f64s(rng),
        order_work_submitted_s: f64s(rng),
    }
}

fn app_stats(rng: &mut StdRng) -> AppStats {
    AppStats {
        ebs_target: rng.random(),
        ebs_active: rng.random(),
        mix_id: mixes(rng),
        issued: rng.random(),
        issued_browse: rng.random(),
        completed: rng.random(),
        completed_browse: rng.random(),
        response_time_sum_s: f64s(rng),
        response_time_max_s: f64s(rng),
        in_flight: rng.random(),
        response_times: histograms(rng),
    }
}

fn wire_samples(rng: &mut StdRng) -> WireSample {
    WireSample {
        seq: rng.random(),
        t_s: f64s(rng),
        interval_s: f64s(rng),
        tier: tier_samples(rng),
        hpc: vec_of(rng, 0..16, f64s),
        os: vec_of(rng, 0..16, f64s),
        app: option_of(rng, app_stats),
    }
}

fn window_digests(rng: &mut StdRng) -> TierWindowDigest {
    TierWindowDigest {
        window: rng.random::<u64>() as i64,
        tier: tiers(rng),
        samples: rng.random(),
        half: TierWindow {
            hpc_mean: vec_of(rng, 0..8, f64s),
            os_mean: vec_of(rng, 0..8, f64s),
            stress: TierStressAgg {
                util_sum: f64s(rng),
                queue_sum: f64s(rng),
                n: rng.random(),
            },
        },
        app: option_of(rng, |rng| AppWindowDigest {
            t_start_s: f64s(rng),
            t_end_s: f64s(rng),
            duration_s: f64s(rng),
            health: WindowHealthAgg {
                completed: rng.random(),
                rt_sum_s: f64s(rng),
                rt_hist: histograms(rng),
                first_in_flight: option_of(rng, |rng| rng.random()),
                last_in_flight: rng.random(),
            },
            mix_counts: vec_of(rng, 0..4, |rng| (mixes(rng), rng.random())),
        }),
    }
}

fn digest_frames(rng: &mut StdRng) -> DigestFrame {
    DigestFrame {
        collector: rng.random(),
        seq: rng.random(),
        health: healths(rng),
        windows: vec_of(rng, 0..3, window_digests),
        poisoned: vec_of(rng, 0..4, |rng| rng.random::<u64>() as i64),
        fin: option_of(rng, |rng| DigestFin {
            tiers: vec_of(rng, 0..2, tiers),
            last_window: rng.random::<u64>() as i64,
        }),
    }
}

/// One frame of any of the eight kinds, each equally likely.
fn frames(rng: &mut StdRng) -> Frame {
    match rng.random_range(0u32..8) {
        0 => Frame::Hello {
            tier: tiers(rng),
            proto_version: rng.random(),
            metric_schema_hash: rng.random(),
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: rng.random(),
            },
        },
        1 => Frame::Sample(wire_samples(rng)),
        2 => Frame::SampleBatch(vec_of(rng, 0..5, wire_samples)),
        3 => Frame::Heartbeat { seq: rng.random() },
        4 => Frame::Ack { seq: rng.random() },
        5 => Frame::Reject {
            // Up to 64 printable ASCII characters.
            reason: (0..rng.random_range(0usize..=64))
                .map(|_| char::from(rng.random_range(0x20u32..=0x7e) as u8))
                .collect(),
            ours: rng.random(),
            theirs: rng.random(),
        },
        6 => Frame::Bye {
            last_seq: rng.random(),
        },
        _ => Frame::Digest(digest_frames(rng)),
    }
}

/// The tentpole invariant: any frame encodes and decodes back to the
/// same value — including through the event-loop's buffer-extraction
/// path.
#[test]
fn any_frame_round_trips_identically() {
    let mut scratch = Vec::new();
    for seed in 0..CASES {
        let frame = frames(&mut StdRng::seed_from_u64(seed));
        let mut buf = Vec::new();
        write_frame_codec(&mut buf, &frame, WireCodec::Binary, &mut scratch)
            .unwrap_or_else(|e| panic!("seed {seed}: finite frames encode: {e}"));
        let back = read_frame(&mut buf.as_slice())
            .unwrap_or_else(|e| panic!("seed {seed}: read_frame: {e}"));
        assert_eq!(back, frame, "seed {seed}: read_frame");
        let (extracted, consumed) = try_extract_frame(&buf)
            .unwrap_or_else(|e| panic!("seed {seed}: try_extract_frame: {e}"))
            .unwrap_or_else(|| panic!("seed {seed}: incomplete frame"));
        assert_eq!(extracted, frame, "seed {seed}: try_extract_frame");
        assert_eq!(consumed, buf.len(), "seed {seed}");
    }
}

/// Streams of arbitrary frames reassemble in order from a byte buffer
/// fed in arbitrary chunk sizes — the exact shape the event-loop
/// collector sees.
#[test]
fn streams_reassemble_across_arbitrary_chunking() {
    let mut scratch = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let expected = vec_of(&mut rng, 1..6, frames);
        let mut wire = Vec::new();
        for frame in &expected {
            write_frame_codec(&mut wire, frame, WireCodec::Binary, &mut scratch)
                .unwrap_or_else(|e| panic!("seed {seed}: encodes: {e}"));
        }
        let chunk = rng.random_range(1usize..64);
        let mut rbuf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            rbuf.extend_from_slice(piece);
            while let Some((frame, consumed)) = try_extract_frame(&rbuf)
                .unwrap_or_else(|e| panic!("seed {seed}: a valid stream never errors: {e}"))
            {
                decoded.push(frame);
                rbuf.drain(..consumed);
            }
        }
        assert_eq!(decoded, expected, "seed {seed}");
        assert!(rbuf.is_empty(), "seed {seed}: no trailing bytes");
    }
}

/// The deterministic mutation cases, by seed: up to seven byte flips
/// and, half the time, a truncation of a binary payload. The payloads
/// are five fixed frames chosen for their shapes (extreme varints, a
/// full-width sample, a 32-sample batch), 600 mutations each, and 600
/// generated frames, one mutation each.
fn mutated_payloads() -> impl Iterator<Item = (u64, Vec<u8>)> {
    let fixed = [
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
    ];
    (0..3600u64).map(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = match fixed.get(seed as usize % (fixed.len() + 1)) {
            Some(frame) => frame.clone(),
            None => frames(&mut rng),
        };
        let mut payload = Vec::new();
        encode_frame(&frame, &mut payload);
        for _ in 0..rng.random_range(0usize..8) {
            let idx = rng.random_range(0..payload.len());
            payload[idx] ^= rng.random_range(1u32..=255) as u8;
        }
        if rng.random() {
            payload.truncate(rng.random_range(0..=payload.len()));
        }
        (seed, payload)
    })
}

/// Decode robustness, the deterministic "fuzz smoke": every mutation
/// case decodes to a typed corruption error or (coincidentally) a valid
/// frame — never a panic, never another error kind.
#[test]
fn fuzz_smoke_binary_decoder_survives_deterministic_mutations() {
    for (seed, payload) in mutated_payloads() {
        if let Err(e) = decode_frame(&payload) {
            assert!(e.is_corrupt(), "seed {seed}: typed corruption only: {e}");
        }
    }
}

// ---------------------------------------------------------------------
// The histogram block, byte for byte
// ---------------------------------------------------------------------

fn leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// The histogram block as plain per-value LEB128: each bucket's
/// zigzagged delta against `prev`, then the total's, one varint each.
fn reference_hist_block(cur: &RtHistogram, prev: &RtHistogram) -> Vec<u8> {
    let mut out = Vec::new();
    for (c, p) in cur.bucket_counts().iter().zip(prev.bucket_counts()) {
        leb128(&mut out, zigzag(i64::from(*c) - i64::from(*p)));
    }
    leb128(&mut out, zigzag(cur.len().wrapping_sub(prev.len()) as i64));
    out
}

fn hist_of(counts: &[u32]) -> RtHistogram {
    let total = counts.iter().map(|c| u64::from(*c)).sum();
    RtHistogram::from_raw_parts(counts, total).expect("48 buckets")
}

/// A batch of two application-tier samples whose histograms are `first`
/// and `second`.
fn hist_batch(first: &RtHistogram, second: &RtHistogram) -> Frame {
    let member = |seq: u64, hist: &RtHistogram| {
        let mut ws = common::wire(seq, true);
        if let Some(app) = ws.app.as_mut() {
            app.response_times = hist.clone();
        }
        ws
    };
    Frame::SampleBatch(vec![member(0, first), member(1, second)])
}

/// [`hist_batch`]'s payload with its histogram blocks spelled by the
/// reference: the batch with empty histograms — each block 48 zero
/// deltas and a zero total, the last 49 bytes of its member — with
/// each block replaced.
fn reference_hist_payload(first: &RtHistogram, second: &RtHistogram) -> Vec<u8> {
    const EMPTY_BLOCK: usize = RtHistogram::BUCKET_COUNT + 1;
    let empty = RtHistogram::new();
    let whole = bits(&hist_batch(&empty, &empty));
    let Frame::SampleBatch(mut members) = hist_batch(&empty, &empty) else {
        unreachable!("a batch")
    };
    members.truncate(1);
    // A one-member batch: the same tag and one-byte count, then member 0.
    let first_end = bits(&Frame::SampleBatch(members)).len();
    let second_end = whole.len();
    for end in [first_end, second_end] {
        assert!(whole[end - EMPTY_BLOCK..end].iter().all(|b| *b == 0));
    }
    let mut out = whole[..first_end - EMPTY_BLOCK].to_vec();
    out.extend(reference_hist_block(first, &empty));
    out.extend_from_slice(&whole[first_end..second_end - EMPTY_BLOCK]);
    out.extend(reference_hist_block(second, first));
    out
}

/// Histogram pairs whose bucket deltas straddle the one-byte boundary
/// (−65, −64, 63, 64), fall (`prev > cur`) and reach counts of 0 and
/// `u32::MAX`, alone or beside one-byte deltas.
fn straddling_histograms() -> Vec<(RtHistogram, RtHistogram)> {
    const N: usize = RtHistogram::BUCKET_COUNT;
    let shifted = |base: &[u32; N], delta: &dyn Fn(usize) -> i64| {
        let counts: Vec<u32> = (0..N)
            .map(|i| u32::try_from(i64::from(base[i]) + delta(i)).expect("a count"))
            .collect();
        hist_of(&counts)
    };
    let hundred = [100u32; N];
    let mut pairs = Vec::new();
    for d in [-65i64, -64, -1, 0, 1, 63, 64] {
        pairs.push((hist_of(&hundred), shifted(&hundred, &|_| d)));
        // One bucket off the one-byte run, at either end.
        pairs.push((
            hist_of(&hundred),
            shifted(&hundred, &|i| if i == 0 { d } else { 1 }),
        ));
        pairs.push((
            hist_of(&hundred),
            shifted(&hundred, &|i| if i == N - 1 { d } else { -1 }),
        ));
    }
    let straddle = [-65i64, -64, 63, 64, 0];
    pairs.push((hist_of(&hundred), shifted(&hundred, &|i| straddle[i % 5])));
    pairs.push((hist_of(&[1000; N]), hist_of(&[0; N])));
    let edges: [u32; N] = std::array::from_fn(|i| if i % 2 == 0 { 0 } else { u32::MAX });
    let flipped: [u32; N] = std::array::from_fn(|i| if i % 2 == 0 { u32::MAX } else { 0 });
    pairs.push((hist_of(&edges), hist_of(&flipped)));
    pairs.push((hist_of(&[u32::MAX; N]), hist_of(&[u32::MAX; N])));
    pairs.push((hist_of(&[0; N]), hist_of(&[0; N])));
    // From the all-zero predecessor: a first member of one-byte deltas,
    // and one whose 64 takes two bytes.
    let small: [u32; N] = std::array::from_fn(|i| (i % 64) as u32);
    let big: [u32; N] = std::array::from_fn(|i| (i + 17) as u32);
    pairs.push((hist_of(&small), hist_of(&big)));
    pairs.push((hist_of(&big), hist_of(&small)));
    pairs
}

/// The histogram block writes what plain per-value LEB128 writes, and
/// decodes back equal, fresh or into a lane's used slots — whether its
/// deltas go out as the one-byte run or one varint each.
#[test]
fn the_histogram_block_is_per_value_leb128_byte_for_byte() {
    let mut used = Vec::new();
    decode_frame_into(&dirtying_batch(TierId::App), &mut used).expect("the batch decodes");
    for (case, (first, second)) in straddling_histograms().iter().enumerate() {
        let frame = hist_batch(first, second);
        let payload = bits(&frame);
        assert_eq!(
            payload,
            reference_hist_payload(first, second),
            "case {case}"
        );
        assert_eq!(decode_frame(&payload).unwrap(), frame, "case {case}");
        let mut slots = used.clone();
        let decoded = decode_frame_into(&payload, &mut slots).unwrap();
        assert_eq!(
            decoded,
            Decoded::Samples {
                batch: true,
                members: 2
            },
            "case {case}"
        );
        let Frame::SampleBatch(members) = frame else {
            unreachable!("a batch")
        };
        assert_eq!(slots[..2], members[..], "case {case}");
    }
}

/// 48 one-byte deltas that push a count below 0 or past `u32::MAX` fail
/// exactly as the same delta does among per-value varints (a legal
/// two-byte delta in the next bucket keeps the block off the run).
#[test]
fn a_one_byte_run_leaving_the_count_range_fails_as_per_value_deltas_do() {
    const N: usize = RtHistogram::BUCKET_COUNT;
    for (count, delta) in [
        (0u32, -1i64),
        (5, -6),
        (0, -64),
        (u32::MAX, 1),
        (u32::MAX - 62, 63),
    ] {
        let first = hist_of(&[count; N]);
        // The second member equal to the first: its block is 48 zero
        // deltas and a zero total, the payload's last 49 bytes.
        let base = reference_hist_payload(&first, &first);
        let head = &base[..base.len() - (N + 1)];
        let with_deltas = |deltas: &[i64; N]| {
            let mut payload = head.to_vec();
            for d in deltas {
                leb128(&mut payload, zigzag(*d));
            }
            payload.push(0);
            payload
        };
        let legal = if count > 64 { -65 } else { 64 };
        for bucket in [0, 17, N - 1] {
            let mut deltas = [0i64; N];
            deltas[bucket] = delta;
            let run = with_deltas(&deltas);
            assert!(run[head.len()..head.len() + N].iter().all(|b| *b < 0x80));
            deltas[(bucket + 1) % N] = legal;
            let per_value = with_deltas(&deltas);
            assert!(per_value[head.len()..head.len() + N]
                .iter()
                .any(|b| *b >= 0x80));
            let case = format!("count {count}, delta {delta} at bucket {bucket}");
            let run_err = decode_frame(&run).unwrap_err();
            let per_value_err = decode_frame(&per_value).unwrap_err();
            assert!(
                matches!(run_err, FrameError::Binary("histogram count overflow")),
                "{case}: {run_err}"
            );
            assert_eq!(run_err.to_string(), per_value_err.to_string(), "{case}");
            let mut slots = Vec::new();
            let in_place = decode_frame_into(&run, &mut slots).unwrap_err();
            assert_eq!(in_place.to_string(), run_err.to_string(), "{case}");
        }
    }
}

/// A frame's payload, re-encoded: equal bytes mean equal values, every
/// `f64` compared by its bits.
fn bits(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_frame(frame, &mut payload);
    payload
}

/// A batch of 32 full-width samples of `tier` — front-end statistics and
/// a filled histogram on the application tier — as a collector lane
/// decodes them into its slots.
fn dirtying_batch(tier: TierId) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(tier.index() as u64);
    let members = (0..32)
        .map(|seq| WireSample {
            seq,
            tier: tier_samples(&mut rng),
            hpc: vec![f64::NAN; feature_width(MetricLevel::Hpc)],
            os: vec![-1.5; feature_width(MetricLevel::Os)],
            app: (tier == TierId::App).then(|| app_stats(&mut rng)),
            ..wire_samples(&mut rng)
        })
        .collect();
    let mut payload = Vec::new();
    encode_frame(&Frame::SampleBatch(members), &mut payload);
    payload
}

/// The in-place decoder against `decode_frame`, on slots a lane has
/// already filled — with a full-width application batch, then also with
/// a database batch: every generated frame and every mutation case gets
/// the same accept or reject verdict, and a sample frame's members equal
/// the fresh decoder's bit for bit. No row, field or front-end statistic
/// of an earlier frame leaks into a later one.
#[test]
fn decoding_into_used_slots_matches_decoding_fresh() {
    let mut dirty = Vec::new();
    let mut states = Vec::new();
    for tier in [TierId::App, TierId::Db] {
        decode_frame_into(&dirtying_batch(tier), &mut dirty).expect("the batch decodes");
        states.push(dirty.clone());
    }
    let generated = (0..CASES).map(|seed| {
        let frame = frames(&mut StdRng::seed_from_u64(seed));
        (seed, bits(&frame))
    });
    for (seed, payload) in generated.chain(mutated_payloads()) {
        let fresh = decode_frame(&payload);
        for (state, used) in states.iter().enumerate() {
            let mut slots = used.clone();
            let in_place = decode_frame_into(&payload, &mut slots);
            let case = format!("seed {seed}, slots of state {state}");
            let (fresh, in_place) = match (&fresh, in_place) {
                (Ok(fresh), Ok(in_place)) => (fresh, in_place),
                (Err(_), Err(e)) => {
                    assert!(e.is_corrupt(), "{case}: {e}");
                    continue;
                }
                (fresh, in_place) => panic!("{case}: {fresh:?} fresh, {in_place:?} in place"),
            };
            let members = |n: usize| slots[..n].iter().map(|ws| bits(&Frame::Sample(ws.clone())));
            match (fresh, in_place) {
                (
                    Frame::Sample(ws),
                    Decoded::Samples {
                        batch: false,
                        members: 1,
                    },
                ) => {
                    assert!(members(1).eq([bits(&Frame::Sample(ws.clone()))]), "{case}");
                }
                (
                    Frame::SampleBatch(batch),
                    Decoded::Samples {
                        batch: true,
                        members: n,
                    },
                ) => {
                    let expected = batch.iter().map(|ws| bits(&Frame::Sample(ws.clone())));
                    assert_eq!(n, batch.len(), "{case}");
                    assert!(members(n).eq(expected), "{case}");
                }
                (fresh, Decoded::Other(frame)) => assert_eq!(bits(fresh), bits(&frame), "{case}"),
                (fresh, in_place) => panic!("{case}: {fresh:?} fresh, {in_place:?} in place"),
            }
        }
    }
}

/// And small: at the agent's default batch (32 samples per
/// `SampleBatch`), what both agents of a simulated steady run put on the
/// wire costs at most 800 bytes per sample, next to the 742 B the
/// benchmark ledger records (`net.binary.encode.bytes_per_sample`) —
/// and at most 240 bytes when they ship only the HPC family an HPC
/// meter reads.
#[test]
fn a_batch_of_32_costs_at_most_800_bytes_per_sample() {
    const BATCH: usize = 32;
    const FRAMES: usize = 12;
    let program = TrafficProgram::steady(Mix::shopping(), 60, (FRAMES * BATCH) as f64);
    let samples = Simulation::new(SimConfig::testbed(5), program)
        .run()
        .samples;
    for (level, ceiling) in [(MetricLevel::Combined, 800), (MetricLevel::Hpc, 240)] {
        let mut wire = Vec::new();
        let mut sent = 0;
        for tier in TierId::ALL {
            let mut sampler = TierSampler::for_level(tier, HpcModel::testbed(), 9, level);
            let rows: Vec<WireSample> = (0u64..)
                .zip(&samples)
                .map(|(seq, s)| sampler.wire_sample(SourceSample::of_tier(tier, seq, s)))
                .collect();
            assert!(rows.iter().all(|ws| ws.os.is_empty() != level.reads_os()));
            for batch in rows.chunks(BATCH) {
                write_frame(&mut wire, &Frame::SampleBatch(batch.to_vec())).expect("encodes");
                sent += batch.len();
            }
        }
        assert_eq!(sent, 2 * FRAMES * BATCH);
        let per_sample = wire.len() / sent;
        assert!(
            per_sample <= ceiling,
            "{level}: batch {BATCH} costs {per_sample} B per sample, ceiling {ceiling} B"
        );
    }
}

// ---------------------------------------------------------------------
// Negotiation
// ---------------------------------------------------------------------

/// Any `proto_version` but the collector's own — the previous one as
/// much as a future one — is refused at negotiation with a `Reject`
/// carrying both peers' versions, not a post-header parse error.
#[test]
fn an_unknown_proto_version_is_rejected_with_both_versions() {
    let meter = trained_meter();
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let cfg = CollectorConfig {
        idle_timeout: Duration::from_millis(300),
        ..CollectorConfig::default()
    };
    let strangers = [PROTO_VERSION - 1, 99];

    let sc = Assembler::new(meter.clone(), cfg.window_origin);
    let report = std::thread::scope(|scope| {
        let cfg_ref = &cfg;
        let collector =
            scope.spawn(move || run_supervised_collector(listener, sc, cfg_ref, |_, _| {}));

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
                        codec: WireCodec::Binary,
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

        collector.join().expect("collector thread completes")
    });

    assert_eq!(report.rejected_handshakes, strangers.len() as u64);
    assert_eq!(report.sessions, [0, 0], "no session was started");
}

/// The `Hello`'s schema hash names the families the agent ships. An
/// HPC meter's collector takes the full schema and the HPC one, and
/// refuses an agent shipping OS rows only — say, one started with
/// another `--meter` — at connect time, naming both schemas, instead
/// of poisoning every window it would send.
#[test]
fn a_hello_shipping_a_family_the_meter_does_not_read_is_rejected() {
    let meter = trained_meter();
    assert_eq!(meter.config().level, MetricLevel::Hpc);
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let cfg = CollectorConfig {
        idle_timeout: Duration::from_millis(300),
        ..CollectorConfig::default()
    };
    let hello = |level| Frame::Hello {
        tier: TierId::App,
        proto_version: PROTO_VERSION,
        metric_schema_hash: level_schema_hash(TierId::App, level),
        caps: WireCaps {
            codec: WireCodec::Binary,
            max_batch: 1,
        },
    };
    assert_eq!(
        level_schema_hash(TierId::App, MetricLevel::Combined),
        metric_schema_hash(TierId::App)
    );

    let sc = Assembler::new(meter, cfg.window_origin);
    let report = std::thread::scope(|scope| {
        let collector = scope.spawn(|| run_supervised_collector(listener, sc, &cfg, |_, _| {}));
        for level in [MetricLevel::Os, MetricLevel::Hpc, MetricLevel::Combined] {
            let mut conn = webcap_net::Conn::connect(&dial).expect("peer connects");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout set");
            write_frame(&mut conn, &hello(level)).expect("hello sends");
            match (level, read_frame(&mut conn).expect("collector answers")) {
                (MetricLevel::Os, Frame::Reject { reason, .. }) => {
                    assert!(reason.contains("HPC Level"), "{reason}");
                }
                (MetricLevel::Hpc | MetricLevel::Combined, Frame::Ack { seq: 0 }) => {}
                (level, other) => panic!("{level}: unexpected answer {other:?}"),
            }
        }
        collector.join().expect("collector thread completes")
    });

    assert_eq!(report.rejected_handshakes, 1);
}

/// A version 3 agent's opener — a JSON `Hello` under the retired
/// `"WCAP"` magic, right schema hash, current version — is no frame of
/// this protocol: it gets a (binary) `Reject` naming the bad magic, and
/// no session starts.
#[test]
fn a_json_hello_is_rejected_naming_its_magic() {
    let meter = trained_meter();
    let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").expect("tcp endpoint"))
        .expect("listener binds");
    let dial = listener.local_endpoint().expect("bound endpoint");
    let cfg = CollectorConfig {
        idle_timeout: Duration::from_millis(300),
        ..CollectorConfig::default()
    };
    let json = format!(
        r#"{{"Hello":{{"tier":"App","proto_version":{PROTO_VERSION},"metric_schema_hash":{},"caps":{{"codec":"Json","max_batch":1}}}}}}"#,
        metric_schema_hash(TierId::App)
    );
    let wcap: u32 = 0x5743_4150;
    let mut hello = wcap.to_le_bytes().to_vec();
    hello.extend_from_slice(&(json.len() as u32).to_le_bytes());
    hello.extend_from_slice(json.as_bytes());

    let sc = Assembler::new(meter, cfg.window_origin);
    let report = std::thread::scope(|scope| {
        let collector = scope.spawn(|| run_supervised_collector(listener, sc, &cfg, |_, _| {}));
        let mut conn = webcap_net::Conn::connect(&dial).expect("peer connects");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        std::io::Write::write_all(&mut conn, &hello).expect("hello sends");
        match read_frame(&mut conn).expect("collector answers") {
            Frame::Reject { reason, .. } => {
                assert!(reason.contains("magic 0x57434150"), "{reason}");
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        collector.join().expect("collector thread completes")
    });

    assert_eq!(report.rejected_handshakes, 1);
    assert_eq!(report.sessions, [0, 0], "no session was started");
}
