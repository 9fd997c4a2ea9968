//! Compact binary payload codec — the one payload encoding of the
//! framed protocol (magic `"WCB3"`), handshake included.
//!
//! Payload layout: a one-byte frame tag, then the variant's fields in
//! declaration order. Scalars use three encodings:
//!
//! * **varint** — LEB128, 7 bits per byte, low bits first; at most 10
//!   bytes for a `u64`. Unsigned counters and lengths.
//! * **zigzag varint** — signed values (and *deltas* of unsigned ones)
//!   mapped to `(v << 1) ^ (v >> 63)` before LEB128, so small
//!   magnitudes of either sign stay short. Delta arithmetic is
//!   wrapping, which makes encode/decode exact for every `u64`.
//! * **raw f64** — `to_bits()` as 8 little-endian bytes. Floats are
//!   never delta-coded or truncated: the byte-identity suites require
//!   bit-exact round-trips.
//!
//! A `SampleBatch` chains its samples: the first is encoded against an
//! all-zero predecessor, each subsequent one against the previous
//! element, so the per-second counters (sequence numbers, arrival and
//! completion counts, histogram buckets) collapse to near-zero deltas.
//! Strings are varint-length-prefixed UTF-8; `Option` is a one-byte
//! presence flag; field-less enums are one byte.
//!
//! The decoder is a bounds-checked cursor: every read is `get`-based,
//! every length is validated against the bytes actually remaining
//! before any allocation, and every failure is a typed
//! [`FrameError::Binary`] — never a panic, whatever the bytes (pinned
//! by the `fuzz_smoke` mutation sweep in `tests/wire_codec.rs`).
//!
//! Most varints of a sample are one byte, and the codec moves those in
//! runs: a varint below 0x80 is written and read as its one byte, and a
//! histogram whose 48 bucket deltas all fit one byte each is written as
//! one 48-byte run and read back by OR-testing the 48 bytes ahead. A
//! run is byte-identical to the per-value varints it stands for, and
//! decodes to the same value or the same error; any other histogram
//! takes the per-value loop inside the same routine. Metric rows move
//! as 8-byte slices.
//!
//! A sample frame's members decode in place, into sample slots the
//! caller keeps ([`decode_frame_into`]): every field of a slot is
//! written, its metric rows are refilled in the room they already have
//! and its front-end statistics in place, so a collector lane decodes
//! its steady stream without allocating or moving a sample's statistics
//! by value. [`decode_frame`] runs the same routine on fresh slots.
//!
//! Every encoder that takes a wire struct opens by destructuring it
//! without `..`, and every decoder builds its struct with a `..`-free
//! literal — the sample and front-end decoders, which fill a slot in
//! place, write through a `..`-free destructuring of it — so under the
//! `deny` below a field or variant that is added, renamed or left
//! unwritten is a compile error on both sides. What the compiler cannot
//! see — encode and decode disagreeing on order, or both changing order
//! together — the round-trip suites and the byte pins in
//! `tests/truncation.rs` catch.

#![deny(unused_variables, unreachable_patterns)]

use webcap_core::{TierStressAgg, TierWindow, WindowHealthAgg};
use webcap_sim::{RtHistogram, TierId, TierSample};
use webcap_tpcw::MixId;

use crate::frame::{
    AppStats, AppWindowDigest, DigestFin, DigestFrame, Frame, FrameError, TierWindowDigest,
    WireCaps, WireCodec, WireSample,
};
use crate::supervisor::HealthState;

const TAG_HELLO: u8 = 0;
const TAG_SAMPLE: u8 = 1;
const TAG_SAMPLE_BATCH: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_REJECT: u8 = 5;
const TAG_BYE: u8 = 6;
const TAG_DIGEST: u8 = 7;

type Res<T> = Result<T, FrameError>;

fn corrupt<T>(detail: &'static str) -> Res<T> {
    Err(FrameError::Binary(detail))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------- encode

fn put_u64v(out: &mut Vec<u8>, mut v: u64) {
    // One byte below 0x80 is the whole varint, as in `Cur::u64v`.
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_i64z(out: &mut Vec<u8>, v: i64) {
    put_u64v(out, zigzag(v));
}

/// Delta-encode `cur` against `prev` (wrapping, hence exact).
fn put_u64d(out: &mut Vec<u8>, cur: u64, prev: u64) {
    put_i64z(out, cur.wrapping_sub(prev) as i64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A metric row moves whole: its `8·n` bytes are added at once, and each
/// value is copied into its own 8-byte slice of them.
fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64v(out, vs.len() as u64);
    let start = out.len();
    out.resize(start + 8 * vs.len(), 0);
    if let Some(row) = out.get_mut(start..) {
        for (bytes, v) in row.chunks_exact_mut(8).zip(vs) {
            bytes.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64v(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_tier(out: &mut Vec<u8>, t: TierId) {
    out.push(match t {
        TierId::App => 0,
        TierId::Db => 1,
    });
}

fn put_mix(out: &mut Vec<u8>, m: MixId) {
    out.push(match m {
        MixId::Browsing => 0,
        MixId::Shopping => 1,
        MixId::Ordering => 2,
        MixId::Custom => 3,
    });
}

fn put_health(out: &mut Vec<u8>, h: HealthState) {
    out.push(match h {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::SafeMode => 2,
    });
}

/// The 48 bucket deltas are zigzagged once. When every one is below
/// 0x80 — the steady stream's per-second buckets — they are 48 one-byte
/// varints and go out as one run; otherwise each goes out as its own
/// varint. Both write the same bytes.
fn put_hist(out: &mut Vec<u8>, cur: &RtHistogram, prev: &RtHistogram) {
    let mut deltas = [0u64; RtHistogram::BUCKET_COUNT];
    let mut bits = 0;
    for ((d, c), p) in deltas
        .iter_mut()
        .zip(cur.bucket_counts())
        .zip(prev.bucket_counts())
    {
        *d = zigzag(i64::from(*c) - i64::from(*p));
        bits |= *d;
    }
    if bits < 0x80 {
        out.extend_from_slice(&deltas.map(|d| d as u8));
    } else {
        for d in deltas {
            put_u64v(out, d);
        }
    }
    put_u64d(out, cur.len(), prev.len());
}

fn put_tier_sample(out: &mut Vec<u8>, cur: &TierSample, prev: &TierSample) {
    let TierSample {
        utilization,
        delivered_work_s,
        avg_runnable,
        pool_in_use_avg,
        pool_queue_avg,
        pool_queue_end,
        pool_in_use_end,
        disk_utilization,
        disk_queue_avg,
        disk_ops,
        arrivals,
        completions,
        browse_work_submitted_s,
        order_work_submitted_s,
    } = cur;
    put_f64(out, *utilization);
    put_f64(out, *delivered_work_s);
    put_f64(out, *avg_runnable);
    put_f64(out, *pool_in_use_avg);
    put_f64(out, *pool_queue_avg);
    put_u64d(out, *pool_queue_end as u64, prev.pool_queue_end as u64);
    put_u64d(out, *pool_in_use_end as u64, prev.pool_in_use_end as u64);
    put_f64(out, *disk_utilization);
    put_f64(out, *disk_queue_avg);
    put_u64d(out, *disk_ops, prev.disk_ops);
    put_u64d(out, *arrivals, prev.arrivals);
    put_u64d(out, *completions, prev.completions);
    put_f64(out, *browse_work_submitted_s);
    put_f64(out, *order_work_submitted_s);
}

fn put_app_stats(out: &mut Vec<u8>, cur: &AppStats, prev: Option<&AppStats>) {
    let zero;
    let prev = match prev {
        Some(p) => p,
        None => {
            zero = zero_app_stats();
            &zero
        }
    };
    let AppStats {
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
    } = cur;
    put_u64d(out, u64::from(*ebs_target), u64::from(prev.ebs_target));
    put_u64d(out, u64::from(*ebs_active), u64::from(prev.ebs_active));
    put_mix(out, *mix_id);
    put_u64d(out, *issued, prev.issued);
    put_u64d(out, *issued_browse, prev.issued_browse);
    put_u64d(out, *completed, prev.completed);
    put_u64d(out, *completed_browse, prev.completed_browse);
    put_f64(out, *response_time_sum_s);
    put_f64(out, *response_time_max_s);
    put_u64d(out, u64::from(*in_flight), u64::from(prev.in_flight));
    put_hist(out, response_times, &prev.response_times);
}

/// The all-zero predecessor the first sample of a frame is delta-coded
/// against. `mix_id` never participates in deltas (it is encoded
/// absolute), so its value here is arbitrary but fixed.
pub(crate) fn zero_app_stats() -> AppStats {
    AppStats {
        ebs_target: 0,
        ebs_active: 0,
        mix_id: MixId::Custom,
        issued: 0,
        issued_browse: 0,
        completed: 0,
        completed_browse: 0,
        response_time_sum_s: 0.0,
        response_time_max_s: 0.0,
        in_flight: 0,
        response_times: RtHistogram::new(),
    }
}

fn zero_wire_sample() -> WireSample {
    WireSample {
        seq: 0,
        t_s: 0.0,
        interval_s: 0.0,
        tier: TierSample::default(),
        hpc: Vec::new(),
        os: Vec::new(),
        app: None,
    }
}

fn put_wire_sample(out: &mut Vec<u8>, cur: &WireSample, prev: Option<&WireSample>) {
    let zero;
    let prev = match prev {
        Some(p) => p,
        None => {
            zero = zero_wire_sample();
            &zero
        }
    };
    let WireSample {
        seq,
        t_s,
        interval_s,
        tier,
        hpc,
        os,
        app,
    } = cur;
    put_u64d(out, *seq, prev.seq);
    put_f64(out, *t_s);
    put_f64(out, *interval_s);
    put_tier_sample(out, tier, &prev.tier);
    put_f64s(out, hpc);
    put_f64s(out, os);
    match app {
        None => put_bool(out, false),
        Some(app) => {
            put_bool(out, true);
            put_app_stats(out, app, prev.app.as_ref());
        }
    }
}

fn put_stress(out: &mut Vec<u8>, s: &TierStressAgg) {
    let TierStressAgg {
        util_sum,
        queue_sum,
        n,
    } = s;
    put_f64(out, *util_sum);
    put_f64(out, *queue_sum);
    put_u64v(out, *n);
}

fn put_health_agg(out: &mut Vec<u8>, h: &WindowHealthAgg) {
    let WindowHealthAgg {
        completed,
        rt_sum_s,
        rt_hist,
        first_in_flight,
        last_in_flight,
    } = h;
    put_u64v(out, *completed);
    put_f64(out, *rt_sum_s);
    put_hist(out, rt_hist, &RtHistogram::new());
    match first_in_flight {
        None => put_bool(out, false),
        Some(v) => {
            put_bool(out, true);
            put_u64v(out, u64::from(*v));
        }
    }
    put_u64v(out, u64::from(*last_in_flight));
}

fn put_window_digest(out: &mut Vec<u8>, d: &TierWindowDigest) {
    let TierWindowDigest {
        window,
        tier,
        samples,
        half: TierWindow {
            hpc_mean,
            os_mean,
            stress,
        },
        app,
    } = d;
    put_i64z(out, *window);
    put_tier(out, *tier);
    put_u64v(out, u64::from(*samples));
    put_f64s(out, hpc_mean);
    put_f64s(out, os_mean);
    put_stress(out, stress);
    match app {
        None => put_bool(out, false),
        Some(AppWindowDigest {
            t_start_s,
            t_end_s,
            duration_s,
            health,
            mix_counts,
        }) => {
            put_bool(out, true);
            put_f64(out, *t_start_s);
            put_f64(out, *t_end_s);
            put_f64(out, *duration_s);
            put_health_agg(out, health);
            put_u64v(out, mix_counts.len() as u64);
            for (mix, count) in mix_counts {
                put_mix(out, *mix);
                put_u64v(out, u64::from(*count));
            }
        }
    }
}

fn put_digest(out: &mut Vec<u8>, d: &DigestFrame) {
    let DigestFrame {
        collector,
        seq,
        health,
        windows,
        poisoned,
        fin,
    } = d;
    put_u64v(out, u64::from(*collector));
    put_u64v(out, *seq);
    put_health(out, *health);
    put_u64v(out, windows.len() as u64);
    for w in windows {
        put_window_digest(out, w);
    }
    put_u64v(out, poisoned.len() as u64);
    for p in poisoned {
        put_i64z(out, *p);
    }
    match fin {
        None => put_bool(out, false),
        Some(DigestFin { tiers, last_window }) => {
            put_bool(out, true);
            put_u64v(out, tiers.len() as u64);
            for t in tiers {
                put_tier(out, *t);
            }
            put_i64z(out, *last_window);
        }
    }
}

/// Encode a sample frame's payload from borrowed samples, appending to
/// `out`: a [`Frame::SampleBatch`] of `members` when `batch` is set, a
/// [`Frame::Sample`] of its one member otherwise. Both arms of
/// [`encode_frame`] run it, and so does the agent, which frames its
/// queue in place instead of cloning it into a [`Frame`].
pub(crate) fn encode_sample_frame<'a>(
    batch: bool,
    members: impl ExactSizeIterator<Item = &'a WireSample>,
    out: &mut Vec<u8>,
) {
    if batch {
        out.push(TAG_SAMPLE_BATCH);
        put_u64v(out, members.len() as u64);
    } else {
        debug_assert_eq!(members.len(), 1, "a Sample frame carries one sample");
        out.push(TAG_SAMPLE);
    }
    let mut prev: Option<&WireSample> = None;
    for ws in members {
        put_wire_sample(out, ws, prev);
        prev = Some(ws);
    }
}

/// Encode one frame's binary payload (no header) into `out`, which is
/// appended to — callers clear it between frames to reuse capacity.
/// Infallible: every `Frame` value has a binary spelling.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello {
            tier,
            proto_version,
            metric_schema_hash,
            caps: WireCaps { codec, max_batch },
        } => {
            out.push(TAG_HELLO);
            put_tier(out, *tier);
            put_u64v(out, u64::from(*proto_version));
            out.extend_from_slice(&metric_schema_hash.to_le_bytes());
            // Byte 0 named the retired JSON dialect; it decodes as corrupt.
            out.push(match codec {
                WireCodec::Binary => 1,
            });
            put_u64v(out, u64::from(*max_batch));
        }
        Frame::Sample(ws) => encode_sample_frame(false, std::iter::once(ws), out),
        Frame::SampleBatch(batch) => encode_sample_frame(true, batch.iter(), out),
        Frame::Heartbeat { seq } => {
            out.push(TAG_HEARTBEAT);
            put_u64v(out, *seq);
        }
        Frame::Ack { seq } => {
            out.push(TAG_ACK);
            put_u64v(out, *seq);
        }
        Frame::Reject {
            reason,
            ours,
            theirs,
        } => {
            out.push(TAG_REJECT);
            put_str(out, reason);
            put_u64v(out, u64::from(*ours));
            put_u64v(out, u64::from(*theirs));
        }
        Frame::Bye { last_seq } => {
            out.push(TAG_BYE);
            put_u64v(out, *last_seq);
        }
        Frame::Digest(d) => {
            out.push(TAG_DIGEST);
            put_digest(out, d);
        }
    }
}

// ---------------------------------------------------------------- decode

/// Bounds-checked read cursor over a payload slice.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> Res<u8> {
        let Some(&b) = self.buf.get(self.pos) else {
            return corrupt("truncated");
        };
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Res<&'a [u8]> {
        let end = match self.pos.checked_add(n) {
            Some(end) => end,
            None => return corrupt("length overflow"),
        };
        let Some(s) = self.buf.get(self.pos..end) else {
            return corrupt("truncated");
        };
        self.pos = end;
        Ok(s)
    }

    fn u64v(&mut self) -> Res<u64> {
        // One byte below 0x80 is the whole varint: nearly every delta of
        // a sample, each histogram bucket's included.
        if let Some(&b) = self.buf.get(self.pos).filter(|b| **b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(b));
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return corrupt("varint overflow");
            }
            if shift > 63 {
                return corrupt("varint overflow");
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn i64z(&mut self) -> Res<i64> {
        Ok(unzigzag(self.u64v()?))
    }

    /// Decode a delta-coded value against `prev`.
    fn u64d(&mut self, prev: u64) -> Res<u64> {
        Ok(prev.wrapping_add(self.i64z()? as u64))
    }

    fn u32d(&mut self, prev: u32) -> Res<u32> {
        match u32::try_from(self.u64d(u64::from(prev))?) {
            Ok(v) => Ok(v),
            Err(_) => corrupt("u32 overflow"),
        }
    }

    fn usized(&mut self, prev: usize) -> Res<usize> {
        match usize::try_from(self.u64d(prev as u64)?) {
            Ok(v) => Ok(v),
            Err(_) => corrupt("usize overflow"),
        }
    }

    fn u32v(&mut self) -> Res<u32> {
        match u32::try_from(self.u64v()?) {
            Ok(v) => Ok(v),
            Err(_) => corrupt("u32 overflow"),
        }
    }

    fn f64(&mut self) -> Res<f64> {
        let bytes = self.take(8)?;
        let Ok(arr) = <[u8; 8]>::try_from(bytes) else {
            return corrupt("f64 split");
        };
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    fn bool(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => corrupt("bad bool"),
        }
    }

    /// An element count validated against the bytes remaining, so a
    /// corrupt count can never demand an allocation the payload could
    /// not possibly fill (`elem_size` is a lower bound per element).
    fn count(&mut self, elem_size: usize) -> Res<usize> {
        let n = self.u64v()?;
        let Ok(n) = usize::try_from(n) else {
            return corrupt("count exceeds payload");
        };
        match n.checked_mul(elem_size.max(1)) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => corrupt("count exceeds payload"),
        }
    }

    fn string(&mut self) -> Res<String> {
        let n = self.count(1)?;
        match std::str::from_utf8(self.take(n)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => corrupt("invalid utf-8"),
        }
    }

    /// A metric row moves whole: its `8·n` bytes are taken once — `count`
    /// has already held them against the bytes remaining — and converted
    /// into `row` in place of `n` bounds-checked reads. `row` is cleared
    /// first and keeps its room, so a row no longer than it held before
    /// allocates nothing.
    fn f64s(&mut self, row: &mut Vec<f64>) -> Res<()> {
        let n = self.count(8)?;
        let Some(len) = n.checked_mul(8) else {
            return corrupt("count exceeds payload");
        };
        let values = self
            .take(len)?
            .chunks_exact(8)
            .map(|value| f64::from_bits(u64::from_le_bytes(value.try_into().unwrap_or_default())));
        row.clear();
        row.extend(values);
        Ok(())
    }

    fn tier(&mut self) -> Res<TierId> {
        match self.u8()? {
            0 => Ok(TierId::App),
            1 => Ok(TierId::Db),
            _ => corrupt("bad tier"),
        }
    }

    fn mix(&mut self) -> Res<MixId> {
        match self.u8()? {
            0 => Ok(MixId::Browsing),
            1 => Ok(MixId::Shopping),
            2 => Ok(MixId::Ordering),
            3 => Ok(MixId::Custom),
            _ => corrupt("bad mix"),
        }
    }

    fn health(&mut self) -> Res<HealthState> {
        match self.u8()? {
            0 => Ok(HealthState::Healthy),
            1 => Ok(HealthState::Degraded),
            2 => Ok(HealthState::SafeMode),
            _ => corrupt("bad health state"),
        }
    }

    fn codec(&mut self) -> Res<WireCodec> {
        match self.u8()? {
            1 => Ok(WireCodec::Binary),
            _ => corrupt("bad codec"),
        }
    }

    /// Decode a histogram into `slot`, delta-coded against `prev`. When
    /// the 48 bytes ahead are all below 0x80 they are exactly the 48
    /// bucket deltas, one byte each, and decode as one run; otherwise
    /// each delta is read as its own varint. Either way a count pushed
    /// out of `0..=u32::MAX` is the same error.
    fn hist(&mut self, slot: &mut RtHistogram, prev: &RtHistogram) -> Res<()> {
        const N: usize = RtHistogram::BUCKET_COUNT;
        let mut counts = [0u32; N];
        let run = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .filter(|run| run.iter().fold(0, |acc, b| acc | b) < 0x80);
        if let Some(run) = run {
            let mut overflow = false;
            for ((count, p), b) in counts.iter_mut().zip(prev.bucket_counts()).zip(run) {
                let v = i64::from(*p) + unzigzag(u64::from(*b));
                overflow |= u32::try_from(v).is_err();
                *count = v as u32;
            }
            if overflow {
                return corrupt("histogram count overflow");
            }
            self.pos += N;
        } else {
            for (count, p) in counts.iter_mut().zip(prev.bucket_counts()) {
                let delta = self.i64z()?;
                let Some(Ok(v)) = i64::from(*p).checked_add(delta).map(u32::try_from) else {
                    return corrupt("histogram count overflow");
                };
                *count = v;
            }
        }
        let total = self.u64d(prev.len())?;
        match RtHistogram::from_raw_parts(&counts, total) {
            Some(h) => {
                *slot = h;
                Ok(())
            }
            None => corrupt("histogram size"),
        }
    }

    fn tier_sample(&mut self, prev: &TierSample) -> Res<TierSample> {
        Ok(TierSample {
            utilization: self.f64()?,
            delivered_work_s: self.f64()?,
            avg_runnable: self.f64()?,
            pool_in_use_avg: self.f64()?,
            pool_queue_avg: self.f64()?,
            pool_queue_end: self.usized(prev.pool_queue_end)?,
            pool_in_use_end: self.usized(prev.pool_in_use_end)?,
            disk_utilization: self.f64()?,
            disk_queue_avg: self.f64()?,
            disk_ops: self.u64d(prev.disk_ops)?,
            arrivals: self.u64d(prev.arrivals)?,
            completions: self.u64d(prev.completions)?,
            browse_work_submitted_s: self.f64()?,
            order_work_submitted_s: self.f64()?,
        })
    }

    /// Decode front-end statistics into `slot`, delta-coded against
    /// `prev`, every field written in place.
    fn app_stats(&mut self, slot: &mut AppStats, prev: &AppStats) -> Res<()> {
        let AppStats {
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
        } = slot;
        *ebs_target = self.u32d(prev.ebs_target)?;
        *ebs_active = self.u32d(prev.ebs_active)?;
        *mix_id = self.mix()?;
        *issued = self.u64d(prev.issued)?;
        *issued_browse = self.u64d(prev.issued_browse)?;
        *completed = self.u64d(prev.completed)?;
        *completed_browse = self.u64d(prev.completed_browse)?;
        *response_time_sum_s = self.f64()?;
        *response_time_max_s = self.f64()?;
        *in_flight = self.u32d(prev.in_flight)?;
        self.hist(response_times, &prev.response_times)
    }

    /// Decode one sample into `slot`, delta-coded against `prev`: every
    /// field is written, the metric rows in the room they have, front-end
    /// statistics into the slot's own (made once, for a slot that held
    /// none), and a member without them leaves `app` at `None`.
    fn wire_sample(&mut self, slot: &mut WireSample, prev: &WireSample) -> Res<()> {
        let WireSample {
            seq,
            t_s,
            interval_s,
            tier,
            hpc,
            os,
            app,
        } = slot;
        *seq = self.u64d(prev.seq)?;
        *t_s = self.f64()?;
        *interval_s = self.f64()?;
        *tier = self.tier_sample(&prev.tier)?;
        self.f64s(hpc)?;
        self.f64s(os)?;
        if self.bool()? {
            let zero;
            let prev = match &prev.app {
                Some(p) => p,
                None => {
                    zero = zero_app_stats();
                    &zero
                }
            };
            self.app_stats(app.get_or_insert_with(zero_app_stats), prev)?;
        } else {
            *app = None;
        }
        Ok(())
    }

    /// Decode a sample frame's `n` members into the front of `slots`,
    /// each against the one before it, the first against the all-zero
    /// sample. A slot is added only when a member needs one, so `slots`
    /// never grows past the members decoded.
    fn samples(&mut self, n: usize, slots: &mut Vec<WireSample>) -> Res<usize> {
        let zero = zero_wire_sample();
        for i in 0..n {
            if slots.len() == i {
                slots.push(zero_wire_sample());
            }
            let Some((done, rest)) = slots.split_at_mut_checked(i) else {
                return corrupt("sample slots");
            };
            let (Some(slot), prev) = (rest.first_mut(), done.last()) else {
                return corrupt("sample slots");
            };
            self.wire_sample(slot, prev.unwrap_or(&zero))?;
        }
        Ok(n)
    }

    fn stress(&mut self) -> Res<TierStressAgg> {
        Ok(TierStressAgg {
            util_sum: self.f64()?,
            queue_sum: self.f64()?,
            n: self.u64v()?,
        })
    }

    fn health_agg(&mut self) -> Res<WindowHealthAgg> {
        let completed = self.u64v()?;
        let rt_sum_s = self.f64()?;
        let mut rt_hist = RtHistogram::new();
        self.hist(&mut rt_hist, &RtHistogram::new())?;
        Ok(WindowHealthAgg {
            completed,
            rt_sum_s,
            rt_hist,
            first_in_flight: if self.bool()? {
                Some(self.u32v()?)
            } else {
                None
            },
            last_in_flight: self.u32v()?,
        })
    }

    fn row(&mut self) -> Res<Vec<f64>> {
        let mut row = Vec::new();
        self.f64s(&mut row)?;
        Ok(row)
    }

    fn window_digest(&mut self) -> Res<TierWindowDigest> {
        Ok(TierWindowDigest {
            window: self.i64z()?,
            tier: self.tier()?,
            samples: self.u32v()?,
            half: TierWindow {
                hpc_mean: self.row()?,
                os_mean: self.row()?,
                stress: self.stress()?,
            },
            app: if self.bool()? {
                Some(AppWindowDigest {
                    t_start_s: self.f64()?,
                    t_end_s: self.f64()?,
                    duration_s: self.f64()?,
                    health: self.health_agg()?,
                    mix_counts: {
                        let n = self.count(2)?;
                        let mut out = Vec::with_capacity(n);
                        for _ in 0..n {
                            out.push((self.mix()?, self.u32v()?));
                        }
                        out
                    },
                })
            } else {
                None
            },
        })
    }

    fn digest(&mut self) -> Res<DigestFrame> {
        Ok(DigestFrame {
            collector: self.u32v()?,
            seq: self.u64v()?,
            health: self.health()?,
            windows: {
                // A window digest is ≥ ~40 bytes; 8 is a safe floor.
                let n = self.count(8)?;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(self.window_digest()?);
                }
                out
            },
            poisoned: {
                let n = self.count(1)?;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(self.i64z()?);
                }
                out
            },
            fin: if self.bool()? {
                Some(DigestFin {
                    tiers: {
                        let n = self.count(1)?;
                        let mut out = Vec::with_capacity(n);
                        for _ in 0..n {
                            out.push(self.tier()?);
                        }
                        out
                    },
                    last_window: self.i64z()?,
                })
            } else {
                None
            },
        })
    }

    /// The frame a non-sample `tag` opens; [`decode_frame_into`] decodes
    /// the sample frames before it gets here.
    fn frame(&mut self, tag: u8) -> Res<Frame> {
        Ok(match tag {
            TAG_HELLO => {
                let tier = self.tier()?;
                let proto_version = self.u32v()?;
                let hash_bytes = self.take(8)?;
                let Ok(hash_arr) = <[u8; 8]>::try_from(hash_bytes) else {
                    return corrupt("hash split");
                };
                let codec = self.codec()?;
                let max_batch = self.u32v()?;
                Frame::Hello {
                    tier,
                    proto_version,
                    metric_schema_hash: u64::from_le_bytes(hash_arr),
                    caps: WireCaps { codec, max_batch },
                }
            }
            TAG_HEARTBEAT => Frame::Heartbeat { seq: self.u64v()? },
            TAG_ACK => Frame::Ack { seq: self.u64v()? },
            TAG_REJECT => Frame::Reject {
                reason: self.string()?,
                ours: self.u32v()?,
                theirs: self.u32v()?,
            },
            TAG_BYE => Frame::Bye {
                last_seq: self.u64v()?,
            },
            TAG_DIGEST => Frame::Digest(self.digest()?),
            _ => return corrupt("unknown frame tag"),
        })
    }

    fn finish(self) -> Res<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            corrupt("trailing bytes")
        }
    }
}

/// Sample slots a reused slot vector keeps from one frame to the next:
/// twice the agents' default batch. A frame with more members grows the
/// vector while it is decoded; the next frame trims it back.
const SLOTS_KEPT: usize = 64;

/// The longest metric row whose room a kept slot holds on to, above
/// every family's schema width: an honest row is refilled in place, a
/// longer one is freed before the next frame.
const ROW_KEPT: usize = 256;

/// What [`decode_frame_into`] made of a payload.
// Not boxed: `Other` never holds a sample, and a `Box` would put an
// allocation on every heartbeat a lane reads.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
pub enum Decoded {
    /// A sample frame — a [`Frame::SampleBatch`] when `batch`, else a
    /// [`Frame::Sample`] — whose members are the first `members` slots,
    /// in frame order.
    Samples {
        /// Whether the frame was a `SampleBatch`.
        batch: bool,
        /// How many slots, from the front, the frame's members fill.
        members: usize,
    },
    /// Any other frame, decoded whole.
    Other(Frame),
}

/// Decode one binary payload (no header), a sample frame's members into
/// the front of `slots`: the steady path of a collector lane, which
/// keeps its slots from frame to frame. Whatever the earlier frames
/// left in a slot is overwritten, field by field; slots past the
/// members keep stale values. Before decoding, `slots` is trimmed to
/// [`SLOTS_KEPT`] slots and any row holding room for more than
/// [`ROW_KEPT`] values is freed, so what one hostile frame made a lane
/// allocate does not stay with it. Every failure is a typed
/// [`FrameError::Binary`], trailing bytes after the frame included; the
/// slots then hold nothing to deliver.
pub fn decode_frame_into(
    payload: &[u8],
    slots: &mut Vec<WireSample>,
) -> Result<Decoded, FrameError> {
    slots.truncate(SLOTS_KEPT);
    slots.shrink_to(SLOTS_KEPT);
    for ws in slots.iter_mut() {
        for row in [&mut ws.hpc, &mut ws.os] {
            if row.capacity() > ROW_KEPT {
                *row = Vec::new();
            }
        }
    }
    let mut cur = Cur::new(payload);
    let decoded = match cur.u8()? {
        TAG_SAMPLE => Decoded::Samples {
            batch: false,
            members: cur.samples(1, slots)?,
        },
        TAG_SAMPLE_BATCH => {
            // A sample is ≥ ~97 bytes even with empty metric rows; 32
            // is a conservative floor that still caps a hostile count.
            let n = cur.count(32)?;
            Decoded::Samples {
                batch: true,
                members: cur.samples(n, slots)?,
            }
        }
        tag => Decoded::Other(cur.frame(tag)?),
    };
    cur.finish()?;
    Ok(decoded)
}

/// Decode one binary payload (no header) into a [`Frame`]: the sample
/// frames through [`decode_frame_into`] on fresh slots. Every failure is
/// a typed [`FrameError::Binary`]; trailing bytes after the frame are an
/// error.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut slots = Vec::new();
    match decode_frame_into(payload, &mut slots)? {
        Decoded::Samples {
            batch: true,
            members,
        } => {
            slots.truncate(members);
            Ok(Frame::SampleBatch(slots))
        }
        Decoded::Samples { batch: false, .. } => match slots.pop() {
            Some(ws) => Ok(Frame::Sample(ws)),
            None => corrupt("sample slots"),
        },
        Decoded::Other(frame) => Ok(frame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64v(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.u64v().unwrap(), v, "u64 {v}");
            cur.finish().unwrap();
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_i64z(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.i64z().unwrap(), v, "i64 {v}");
        }
    }

    #[test]
    fn deltas_are_exact_under_wraparound() {
        for (prev, cur) in [(0u64, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5)] {
            let mut buf = Vec::new();
            put_u64d(&mut buf, cur, prev);
            let mut c = Cur::new(&buf);
            assert_eq!(c.u64d(prev).unwrap(), cur, "{prev} -> {cur}");
        }
    }

    #[test]
    fn overlong_varint_is_a_typed_error() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        let err = Cur::new(&buf).u64v().unwrap_err();
        assert!(matches!(err, FrameError::Binary(_)), "{err}");
    }

    #[test]
    fn truncated_fields_are_typed_errors() {
        let mut payload = Vec::new();
        encode_frame(&Frame::Bye { last_seq: 300 }, &mut payload);
        for keep in 0..payload.len() {
            let err = decode_frame(&payload[..keep]).unwrap_err();
            assert!(err.is_corrupt(), "truncated to {keep}: {err}");
        }
        assert_eq!(
            decode_frame(&payload).unwrap(),
            Frame::Bye { last_seq: 300 }
        );
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            decode_frame(&[0xee]),
            Err(FrameError::Binary("unknown frame tag"))
        ));
        let mut payload = Vec::new();
        encode_frame(&Frame::Ack { seq: 9 }, &mut payload);
        payload.push(0);
        assert!(matches!(
            decode_frame(&payload),
            Err(FrameError::Binary("trailing bytes"))
        ));
    }

    #[test]
    fn a_hello_naming_codec_zero_is_a_typed_error() {
        // Codec byte 0 was the JSON dialect, which no peer speaks now.
        let mut payload = Vec::new();
        let hello = Frame::Hello {
            tier: TierId::Db,
            proto_version: crate::frame::PROTO_VERSION,
            metric_schema_hash: 7,
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: 32,
            },
        };
        encode_frame(&hello, &mut payload);
        assert_eq!(decode_frame(&payload).unwrap(), hello);
        // Tag, tier, version varint, 8 hash bytes: the codec byte is 11th.
        assert_eq!(payload[11], 1);
        payload[11] = 0;
        let err = decode_frame(&payload).unwrap_err();
        assert!(matches!(err, FrameError::Binary("bad codec")), "{err}");
        assert!(err.is_corrupt());
    }

    #[test]
    fn hostile_batch_count_cannot_demand_an_allocation() {
        let mut payload = vec![TAG_SAMPLE_BATCH];
        put_u64v(&mut payload, u64::MAX / 2);
        let err = decode_frame(&payload).unwrap_err();
        assert!(matches!(err, FrameError::Binary("count exceeds payload")));
        // Nor of a lane's slots: the count is refused before any slot.
        let mut slots = Vec::new();
        let err = decode_frame_into(&payload, &mut slots).unwrap_err();
        assert!(matches!(err, FrameError::Binary("count exceeds payload")));
        assert_eq!(slots.capacity(), 0);

        // A count the payload could hold at 32 bytes a member, over
        // zeros that decode as 97-byte empty samples until they run out:
        // slots come only as members decode, never the count's worth.
        let n = 1000;
        let mut payload = vec![TAG_SAMPLE_BATCH];
        put_u64v(&mut payload, n as u64);
        payload.resize(payload.len() + 32 * n, 0);
        let err = decode_frame_into(&payload, &mut slots).unwrap_err();
        assert!(matches!(err, FrameError::Binary("truncated")), "{err}");
        assert_eq!(
            slots.len(),
            32 * n / 97 + 1,
            "the members, and the one cut short"
        );
        assert!(
            slots.capacity() <= n,
            "{} slots for a count of {n}",
            slots.capacity()
        );
    }

    #[test]
    fn a_hostile_frame_leaves_a_lane_no_room_past_the_kept_bounds() {
        let member = |seq: u64, hpc: usize| WireSample {
            seq,
            hpc: vec![0.5; hpc],
            ..zero_wire_sample()
        };
        // A hundred members, the tenth with a row of 10 000 values.
        let hostile = (0..100).map(|seq| member(seq, if seq == 10 { 10_000 } else { 12 }));
        let mut payload = Vec::new();
        encode_frame(&Frame::SampleBatch(hostile.collect()), &mut payload);
        let mut slots = Vec::new();
        let decoded = decode_frame_into(&payload, &mut slots).unwrap();
        assert_eq!(
            decoded,
            Decoded::Samples {
                batch: true,
                members: 100
            }
        );

        // The next frame, an honest one, starts from the kept bounds.
        payload.clear();
        encode_frame(&Frame::Sample(member(100, 12)), &mut payload);
        let decoded = decode_frame_into(&payload, &mut slots).unwrap();
        assert_eq!(
            decoded,
            Decoded::Samples {
                batch: false,
                members: 1
            }
        );
        assert_eq!(slots.first().map(|ws| ws.seq), Some(100));
        assert_eq!(slots.len(), SLOTS_KEPT);
        assert!(slots.capacity() <= SLOTS_KEPT);
        let mut rows = slots.iter().flat_map(|ws| [&ws.hpc, &ws.os]);
        assert!(rows.clone().all(|row| row.capacity() <= ROW_KEPT));
        assert!(
            rows.any(|row| row.capacity() == 12),
            "honest rows keep their room"
        );
    }

    #[test]
    fn a_histogram_delta_past_i64_is_a_typed_error() {
        let mut ws = zero_wire_sample();
        let mut app = zero_app_stats();
        app.response_times.record(0.5);
        ws.app = Some(app);
        // Two equal members: the second's deltas are all zero, its 48
        // bucket deltas and its total one byte each, at the payload's end.
        let mut payload = Vec::new();
        encode_frame(&Frame::SampleBatch(vec![ws.clone(), ws]), &mut payload);
        let bucket = payload.len() - 49;
        let bucket_count = |payload: &[u8]| match decode_frame(payload) {
            Ok(Frame::SampleBatch(batch)) => batch
                .last()
                .and_then(|ws| ws.app.as_ref())
                .map(|app| app.response_times.bucket_counts().to_vec()),
            other => panic!("{other:?}"),
        };
        let counts = bucket_count(&payload).unwrap();
        let recorded = counts.iter().position(|c| *c == 1).unwrap();
        // That bucket's delta becomes i64::MAX, added to a count of one.
        let mut hostile = payload[..bucket + recorded].to_vec();
        put_i64z(&mut hostile, i64::MAX);
        hostile.extend_from_slice(&payload[bucket + recorded + 1..]);
        let err = decode_frame(&hostile).unwrap_err();
        assert!(
            matches!(err, FrameError::Binary("histogram count overflow")),
            "{err}"
        );
    }
}
