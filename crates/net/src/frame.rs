//! The versioned, length-prefixed wire protocol between per-tier agents
//! and the front-end collector.
//!
//! Every frame on the wire is
//!
//! ```text
//! +-------------------+-------------------+--------------------+
//! | magic  u32 LE     | length u32 LE     | payload            |
//! | "WCB3"            | payload byte count| one [`Frame`]      |
//! +-------------------+-------------------+--------------------+
//! ```
//!
//! The magic word rejects cross-talk from non-webcap peers at the first
//! eight bytes: anything but [`FRAME_MAGIC_BIN`] is
//! [`FrameError::BadMagic`]. The payload is the compact delta/varint
//! encoding of [`crate::binary`] — for every frame of every session, the
//! handshake included. Payloads above [`MAX_FRAME_LEN`] are refused on
//! both ends so a corrupt length cannot trigger an unbounded allocation.
//!
//! A session is `Hello → Ack{0}` (or `Reject`) followed by any number of
//! `Sample`/`SampleBatch`/`Heartbeat` frames, none of them answered, and
//! closed by `Bye{last_seq}`; a collector that drops a session sends one
//! `Reject` saying why. The `Hello` announces the agent's
//! [`PROTO_VERSION`], the [`level_schema_hash`] of the families it
//! ships, and its batch cap ([`WireCaps`]); a collector accepts the full
//! schema or its meter's level. It accepts exactly [`PROTO_VERSION`];
//! anything else is refused with a `Reject` carrying both peers'
//! versions so the operator can see exactly who must upgrade. A version
//! 3 agent, whose `Hello` was JSON under the magic `"WCAP"`, is refused
//! as a bad magic — in a binary `Reject`, which version 3 readers parse.

use std::fmt;
use std::io::{self, Read, Write};

use serde::Serialize;
use webcap_core::monitor::feature_names;
/// A window's front-end aggregates, carried in a [`TierWindowDigest`]
/// only by the application tier: what the merge node needs for the
/// window's label, throughput and majority mix.
pub use webcap_core::AppWindowDigest;
use webcap_core::{MetricLevel, TierWindow};
use webcap_sim::{TierId, TierSample};

use crate::supervisor::HealthState;

/// Protocol version announced in `Hello`. Bump on any frame-layout or
/// semantic change.
///
/// Version 2 adds the fleet back-haul [`Frame::Digest`] variant.
/// Version 3 adds the binary codec capability ([`WireCaps`] in `Hello`),
/// the batched [`Frame::SampleBatch`] variant, and version fields on
/// `Reject`. Version 4 retires the JSON dialect: the handshake is binary
/// like every other frame, and `"WCAP"` is a bad magic. Version 5 lets a
/// sample leave a metric family the collector's meter does not read
/// empty, and the `Hello`'s schema hash names the families shipped
/// ([`level_schema_hash`]), so a collector whose meter reads one the
/// agent leaves out refuses it at connect time. Version 6 answers only
/// the handshake: no sample frame or heartbeat is acknowledged, and an
/// agent reads nothing while a session streams, so a version 5
/// collector's per-frame acks would pile up unread.
pub const PROTO_VERSION: u32 = 6;

/// Frame magic word, `"WCB3"` as big-endian bytes written
/// little-endian. The codec generation is baked into the magic so a
/// future binary layout change cannot be mistaken for this one.
pub const FRAME_MAGIC_BIN: u32 = 0x5743_4233;

/// Upper bound on an encoded payload. A `Sample` frame is a few KiB; the
/// cap only exists so a corrupted or hostile length prefix cannot demand
/// an arbitrary allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The payload encoding a `Hello` announces, of which there is one. The
/// type keeps the `Hello` layout's codec byte, and the codec argument
/// the benchmark's adapter passes, where they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Delta/varint payloads under [`FRAME_MAGIC_BIN`] (see
    /// [`crate::binary`]).
    Binary,
}

/// Session capabilities an agent announces in `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCaps {
    /// Payload codec of the session: always [`WireCodec::Binary`].
    pub codec: WireCodec,
    /// Most samples the agent will pack into one `SampleBatch`.
    pub max_batch: u32,
}

/// A second's front-end statistics, shipped only by the application
/// tier's agent: the simulator's record, carried as it is.
pub use webcap_sim::AppStats;

/// One per-second measurement from one tier's agent.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSample {
    /// Monotonic sample sequence number (gaps ⇒ dropped frames).
    pub seq: u64,
    /// Interval end, seconds since run start — the cross-tier alignment
    /// key.
    pub t_s: f64,
    /// Interval length, seconds.
    pub interval_s: f64,
    /// The tier's application-telemetry sample.
    pub tier: TierSample,
    /// Derived HPC feature row for this second, index-aligned with
    /// `feature_names(MetricLevel::Hpc, tier)`; empty if nobody reads it.
    pub hpc: Vec<f64>,
    /// OS metric values for this second, index-aligned with
    /// `feature_names(MetricLevel::Os, tier)`; empty if nobody reads it.
    pub os: Vec<f64>,
    /// Front-end statistics; `Some` only from the application tier.
    pub app: Option<AppStats>,
}

/// One tier's aggregated metrics for one completed window — the unit a
/// sharded collector ships instead of thirty raw [`WireSample`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct TierWindowDigest {
    /// Window index (0-based over the run).
    pub window: i64,
    /// The tier these aggregates describe.
    pub tier: TierId,
    /// Samples folded into the aggregates (always the window length for
    /// a complete window).
    pub samples: u32,
    /// The tier's finished half of the window, from the core's window
    /// builder (`TierAgg`): its metric-row means and its saturation.
    pub half: TierWindow,
    /// Front-end statistics; `Some` only from the application tier.
    pub app: Option<AppWindowDigest>,
}

/// End-of-stream marker inside the final [`DigestFrame`] from a
/// collector: which tiers it owned and the last full window index of
/// its stream, so the merge node can tell a clean finish from a
/// collector that died with windows unreported. `Serialize` for the
/// merge outcome that reports it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DigestFin {
    /// Tiers this collector was responsible for.
    pub tiers: Vec<TierId>,
    /// Highest full window index of the collector's stream, −1 when the
    /// stream was shorter than one window.
    pub last_window: i64,
}

/// One batch of window digests from a sharded collector to the
/// front-end merge node — the fleet back-haul payload. `poisoned`
/// carries the collector's quarantine verdicts (gap-straddled windows,
/// mid-window session breaks, malformed app stats) so the merge node
/// poisons, rather than silently drops, everything the shard could not
/// vouch for; a collector reporting [`HealthState::SafeMode`] has all
/// its windows in the frame treated as poisoned at the merge.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestFrame {
    /// Index of the emitting collector in the fleet topology.
    pub collector: u32,
    /// Monotonic digest sequence per collector (gaps ⇒ lost digests).
    pub seq: u64,
    /// The emitting collector's supervisor health at emission time.
    pub health: HealthState,
    /// Completed-window aggregates, one entry per (window, tier).
    pub windows: Vec<TierWindowDigest>,
    /// Window indices the collector poisoned since its last digest.
    pub poisoned: Vec<i64>,
    /// Present on the collector's final digest of the run.
    pub fin: Option<DigestFin>,
}

/// A protocol frame.
// Not boxed: a `Box` around the sample variants would add an allocation
// per sample on the measured path and change a shape
// `benchmark/src/adapter.rs` constructs.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener: who I am, which protocol I speak, and how many
    /// samples I batch.
    Hello {
        /// The tier this agent measures.
        tier: TierId,
        /// The agent's [`PROTO_VERSION`].
        proto_version: u32,
        /// [`level_schema_hash`] of the metric families the agent
        /// ships, so a collector never averages mis-indexed feature rows
        /// nor waits for a family it reads that never comes.
        metric_schema_hash: u64,
        /// Requested session capabilities.
        caps: WireCaps,
    },
    /// One per-second measurement.
    Sample(WireSample),
    /// Several consecutive per-second measurements in one frame — the
    /// batched steady-state shape of the binary codec. To the meter,
    /// identical to the same `Sample`s sent back-to-back: the collector
    /// assembles each element individually.
    SampleBatch(Vec<WireSample>),
    /// Liveness signal while the source is idle; `seq` is the last
    /// sample sequence produced.
    Heartbeat {
        /// Last sample sequence produced by the agent.
        seq: u64,
    },
    /// Handshake accept: `Ack { seq: 0 }` answers an accepted `Hello`,
    /// and nothing else is acknowledged.
    Ack {
        /// Sequence being acknowledged.
        seq: u64,
    },
    /// Handshake refusal (version or schema mismatch, unexpected tier).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
        /// The rejecting side's [`PROTO_VERSION`].
        ours: u32,
        /// The protocol version the rejected peer announced; 0 when the
        /// refusal was not about versions (or the peer never got to
        /// announcing one).
        theirs: u32,
    },
    /// Graceful end of stream; `last_seq` is the final sequence the
    /// source produced (whether or not its frame survived the queue), so
    /// the collector can detect trailing loss.
    Bye {
        /// Final sample sequence produced by the agent.
        last_seq: u64,
    },
    /// Fleet back-haul: a batch of per-window digests from a sharded
    /// collector to the merge node. Never appears on an agent session.
    Digest(DigestFrame),
}

/// Why a frame could not be read or written.
///
/// The corruption variants ([`FrameError::BadMagic`],
/// [`FrameError::Oversized`], [`FrameError::Binary`]) mean the peer is
/// speaking bytes this protocol cannot parse — the reader should
/// `Reject` and drop the connection. [`FrameError::Io`] carries the
/// transport verdict unchanged (clean EOF, timeout, reset), which the
/// retry machinery inspects by kind.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (EOF, timeout, reset, ...).
    Io(io::Error),
    /// The first four bytes are not [`FRAME_MAGIC_BIN`] — cross-talk
    /// from a non-webcap peer, a pre-v4 JSON frame, or a desynchronized
    /// stream.
    BadMagic(u32),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; refused before any
    /// allocation.
    Oversized {
        /// Length the prefix claimed.
        len: usize,
    },
    /// The payload is not a valid [`Frame`]: truncated mid-field, an
    /// unknown tag or enum discriminant, an over-long varint, or an
    /// element count that cannot fit the remaining bytes.
    Binary(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::BadMagic(magic) => write!(f, "bad frame magic {magic:#010x}"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the cap")
            }
            FrameError::Binary(detail) => write!(f, "malformed binary frame: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Collapse a [`FrameError`] back into an [`io::Error`] so frame IO
/// composes with `io::Result` plumbing: transport errors pass through
/// unchanged (preserving their kind for retry decisions); corruption
/// variants become `InvalidData` with the typed error as message.
impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(inner) => inner,
            other @ (FrameError::BadMagic(_)
            | FrameError::Oversized { .. }
            | FrameError::Binary(_)) => {
                io::Error::new(io::ErrorKind::InvalidData, other.to_string())
            }
        }
    }
}

impl FrameError {
    /// Clean end of stream (peer closed between frames or mid-frame).
    pub fn is_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }

    /// Read-timeout verdict (WouldBlock / TimedOut, platform-dependent).
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e) if crate::transport::is_timeout(e))
    }

    /// The peer sent bytes this protocol cannot parse — grounds for a
    /// `Reject`, never for a retry.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            FrameError::BadMagic(_) | FrameError::Oversized { .. } | FrameError::Binary(_)
        )
    }
}

/// FNV-1a hash over a tier's full metric schema: every OS metric name,
/// then every HPC feature name, in index order with a separator byte.
/// Two endpoints agree on this hash iff their feature rows are
/// index-aligned — the property the synopses' attribute indices depend
/// on.
pub fn metric_schema_hash(tier: TierId) -> u64 {
    level_schema_hash(tier, MetricLevel::Combined)
}

/// [`metric_schema_hash`] over only the families `level` reads: the
/// schema of the rows an agent shipping that level sends, which its
/// `Hello` announces. At [`MetricLevel::Combined`] it is the full hash.
pub fn level_schema_hash(tier: TierId, level: MetricLevel) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for name in feature_names(level, tier) {
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h = (h ^ 0x1f).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Append one whole frame to `out` — the header, then the binary
/// payload — leaving `out` as it was when the payload exceeds
/// [`MAX_FRAME_LEN`]: tests lay wire streams out in memory here.
#[cfg(test)]
pub(crate) fn append_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), FrameError> {
    append_payload(out, |out| crate::binary::encode_frame(frame, out))
}

/// Lay one frame out at the end of `out`: the header, then the payload
/// `encode` appends, refused — `out` truncated back — above
/// [`MAX_FRAME_LEN`]. Every writer's frames are laid out here: the
/// blocking [`write_frame_codec`] and the agent's [`write_sample_frame`]
/// alike.
fn append_payload(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC_BIN.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - start - 8;
    let Some(len_field) = out
        .get_mut(start + 4..start + 8)
        .filter(|_| len <= MAX_FRAME_LEN)
    else {
        out.truncate(start);
        return Err(FrameError::Oversized { len });
    };
    len_field.copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Encode one frame into `scratch` (cleared first, capacity retained —
/// the zero-allocation steady-state path), write it with one
/// `write_all`, and flush. `codec` has one value; the argument stays
/// because the benchmark's adapter, which may not change, passes it.
pub fn write_frame_codec<W: Write>(
    w: &mut W,
    frame: &Frame,
    codec: WireCodec,
    scratch: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let WireCodec::Binary = codec;
    write_payload(w, scratch, |out| crate::binary::encode_frame(frame, out))
}

/// Write a sample frame straight from borrowed samples: one member goes
/// as a [`Frame::Sample`], several as a [`Frame::SampleBatch`], in the
/// bytes [`write_frame_codec`] writes for that frame built from clones
/// of them — the agent's steady path, which frames its queue in place.
pub(crate) fn write_sample_frame<W: Write>(
    w: &mut W,
    members: &[&WireSample],
    scratch: &mut Vec<u8>,
) -> Result<(), FrameError> {
    write_payload(w, scratch, |out| {
        crate::binary::encode_sample_frame(members.len() != 1, members.iter().copied(), out)
    })
}

/// Lay one frame out in `scratch` (cleared first, capacity retained),
/// write it with one `write_all`, and flush; nothing is written if the
/// payload is refused as oversized.
fn write_payload<W: Write>(
    w: &mut W,
    scratch: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    scratch.clear();
    append_payload(scratch, encode)?;
    w.write_all(scratch)?;
    w.flush()?;
    Ok(())
}

/// Encode, write and flush one frame through a fresh scratch buffer:
/// [`write_frame_codec`] for frames off the steady path — the
/// handshake, tests.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), FrameError> {
    write_frame_codec(w, frame, WireCodec::Binary, &mut Vec::new())
}

/// Validate a frame header — the magic word, then the
/// [`MAX_FRAME_LEN`] cap — and return the payload length it announces.
fn payload_len(header: [u8; 8]) -> Result<usize, FrameError> {
    let [m0, m1, m2, m3, l0, l1, l2, l3] = header;
    let magic = u32::from_le_bytes([m0, m1, m2, m3]);
    if magic != FRAME_MAGIC_BIN {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    Ok(len)
}

/// Read and decode one frame. [`FrameError::Io`] with `UnexpectedEof`
/// on a cleanly closed peer; a corruption variant on a bad magic word,
/// oversized length, or malformed payload. Never panics, whatever the
/// bytes.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let mut payload = vec![0u8; payload_len(header)?];
    r.read_exact(&mut payload)?;
    crate::binary::decode_frame(&payload)
}

/// The payload of the whole frame at the front of `buf`, and the bytes
/// the frame takes there, its header checked: `Ok(None)` while `buf`
/// holds only a frame prefix, a corruption error as soon as the header
/// is provably bad.
fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(header) = buf.first_chunk::<8>() else {
        return Ok(None);
    };
    let len = payload_len(*header)?;
    Ok(buf.get(8..8 + len).map(|payload| (payload, 8 + len)))
}

/// Try to extract one complete frame from the front of a reassembly
/// buffer — the event-loop collector's non-blocking read path. Returns
/// `Ok(None)` when `buf` holds only a frame prefix (read more bytes),
/// `Ok(Some((frame, consumed)))` when a whole frame decoded (drain
/// `consumed` bytes), and a corruption error as soon as the header or
/// payload is provably bad — without waiting for more bytes.
pub fn try_extract_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let Some((payload, consumed)) = split_frame(buf)? else {
        return Ok(None);
    };
    Ok(Some((crate::binary::decode_frame(payload)?, consumed)))
}

/// How much one [`FrameBuf::fill`] asks the socket for: about two
/// hundred and eighty HPC-level samples (≈ 230 B each on the wire, nine
/// batches of 32).
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// The frame-reassembly buffer behind every streaming reader — the
/// collector's lanes and the agent's session drain: [`fill`](Self::fill)
/// appends whatever one `read` returns,
/// [`next_payload`](Self::next_payload) hands out the payloads of the
/// whole frames in it, and [`next_frame`](Self::next_frame) those frames
/// decoded. A frame cut anywhere — by a short read, a read timeout, a
/// full lane — simply waits in the buffer for its remaining bytes, which
/// a [`read_frame`] that times out mid-frame cannot offer: it has
/// consumed the fragment.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// `buf[parsed..filled]` are the bytes not yet handed out as frames;
    /// what lies beyond `filled` is zeroed space for the next read.
    buf: Vec<u8>,
    parsed: usize,
    filled: usize,
}

impl FrameBuf {
    /// Bytes buffered and not yet handed out as frames.
    pub(crate) fn buffered(&self) -> usize {
        self.filled.saturating_sub(self.parsed)
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Append the bytes of one successful `read` of up to [`READ_CHUNK`]
    /// and return their count; the buffer grows to fit, exactly. The
    /// transport's verdict passes through as [`FrameError::Io`]
    /// (`is_timeout` on a nonblocking or timed-out socket), and end of
    /// stream reads as `UnexpectedEof`, as it does from [`read_frame`].
    pub fn fill<R: Read>(&mut self, r: &mut R) -> Result<usize, FrameError> {
        let end = self.filled + READ_CHUNK;
        if self.buf.len() < end {
            self.buf.reserve_exact(end - self.buf.len());
            self.buf.resize(end, 0);
        }
        let space = self.buf.get_mut(self.filled..end).unwrap_or_default();
        loop {
            match r.read(space) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                Ok(n) => {
                    self.filled += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The payload of the next whole frame, its header checked,
    /// `Ok(None)` once only a frame prefix (or nothing) is left — at which
    /// point the prefix moves to the front, so the buffer is compacted
    /// once per burst of frames rather than once per frame. A corruption
    /// error is final: the stream has no frame boundary to resume from.
    pub(crate) fn next_payload(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let unparsed = self.buf.get(self.parsed..self.filled).unwrap_or_default();
        if let Some((_, consumed)) = split_frame(unparsed)? {
            let start = self.parsed;
            self.parsed += consumed;
            return Ok(self.buf.get(start + 8..self.parsed));
        }
        if self.parsed > 0 {
            self.buf.copy_within(self.parsed..self.filled, 0);
            self.filled = self.buffered();
            self.parsed = 0;
        }
        Ok(None)
    }

    /// The next whole frame, decoded: [`next_payload`](Self::next_payload)
    /// and then [`crate::binary::decode_frame`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        self.next_payload()?
            .map(crate::binary::decode_frame)
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcap_core::{TierStressAgg, WindowHealthAgg};
    use webcap_sim::RtHistogram;
    use webcap_tpcw::MixId;

    fn sample_frame() -> Frame {
        Frame::Sample(WireSample {
            seq: 42,
            t_s: 43.0,
            interval_s: 1.0,
            tier: TierSample {
                utilization: 0.5,
                ..TierSample::default()
            },
            hpc: vec![1.0, 2.5, -0.125],
            os: vec![0.0, 9.75],
            app: None,
        })
    }

    fn digest_frame() -> DigestFrame {
        let mut rt_hist = RtHistogram::new();
        rt_hist.record(0.25);
        DigestFrame {
            collector: 1,
            seq: 3,
            health: HealthState::Degraded,
            windows: vec![TierWindowDigest {
                window: 2,
                tier: TierId::App,
                samples: 30,
                half: TierWindow {
                    hpc_mean: vec![0.5, 1.25, -0.0625],
                    os_mean: vec![0.1, 9.5],
                    stress: TierStressAgg {
                        util_sum: 15.0,
                        queue_sum: 3.5,
                        n: 30,
                    },
                },
                app: Some(AppWindowDigest {
                    t_start_s: 60.0,
                    t_end_s: 90.0,
                    duration_s: 30.0,
                    health: WindowHealthAgg {
                        completed: 120,
                        rt_sum_s: 36.5,
                        rt_hist,
                        first_in_flight: Some(2),
                        last_in_flight: 4,
                    },
                    mix_counts: vec![(MixId::Shopping, 29), (MixId::Browsing, 1)],
                }),
            }],
            poisoned: vec![0, 1],
            fin: Some(DigestFin {
                tiers: vec![TierId::App, TierId::Db],
                last_window: 2,
            }),
        }
    }

    fn all_frames() -> Vec<Frame> {
        let Frame::Sample(ws) = sample_frame() else {
            unreachable!("sample_frame builds a Sample");
        };
        let mut ws2 = ws.clone();
        ws2.seq += 1;
        ws2.t_s += 1.0;
        vec![
            Frame::Hello {
                tier: TierId::Db,
                proto_version: PROTO_VERSION,
                metric_schema_hash: metric_schema_hash(TierId::Db),
                caps: WireCaps {
                    codec: WireCodec::Binary,
                    max_batch: 32,
                },
            },
            sample_frame(),
            Frame::SampleBatch(vec![ws, ws2]),
            Frame::Heartbeat { seq: 7 },
            Frame::Ack { seq: 42 },
            Frame::Reject {
                reason: "nope".to_string(),
                ours: PROTO_VERSION,
                theirs: 1,
            },
            Frame::Bye { last_seq: 99 },
            Frame::Digest(digest_frame()),
        ]
    }

    #[test]
    fn frames_round_trip() {
        // One reused scratch buffer, as on the steady path, and the
        // same bytes as the allocate-per-frame wrapper.
        let frames = all_frames();
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        for f in &frames {
            write_frame_codec(&mut buf, f, WireCodec::Binary, &mut scratch).unwrap();
        }
        let mut again = Vec::new();
        for f in &frames {
            write_frame(&mut again, f).unwrap();
        }
        assert_eq!(buf, again);
        let mut r = buf.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.is_eof(), "{err}");
        assert!(!err.is_corrupt());
    }

    #[test]
    fn an_oversized_frame_is_refused_and_nothing_is_written() {
        let huge = Frame::Reject {
            reason: "r".repeat(MAX_FRAME_LEN),
            ours: PROTO_VERSION,
            theirs: 0,
        };
        let mut out = b"queued".to_vec();
        let err = write_frame(&mut out, &huge).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len } if len > MAX_FRAME_LEN));
        assert_eq!(out, b"queued", "nothing of the refused frame is written");
        let err = append_frame(&huge, &mut out).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert_eq!(out, b"queued", "nor queued");
    }

    #[test]
    fn bad_magic_is_a_typed_corruption_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { seq: 1 }).unwrap();
        buf[0] ^= 0xff;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)), "{err}");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("magic"));
        // The io::Error conversion keeps the corruption verdict visible.
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC_BIN.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversized { len } if len == u32::MAX as usize),
            "{err}"
        );
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn truncated_payload_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_frame()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.is_eof(), "{err}");
    }

    #[test]
    fn a_wcap_frame_is_bad_magic() {
        // A version 3 JSON frame: the retired magic `"WCAP"`, then JSON.
        let wcap: u32 = 0x5743_4150;
        let mut buf = Vec::new();
        buf.extend_from_slice(&wcap.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(b"{{{{");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(m) if m == wcap), "{err}");
        assert!(err.is_corrupt());
        assert!(err.to_string().contains("0x57434150"), "{err}");
        let err = try_extract_frame(&buf).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(m) if m == wcap), "{err}");
    }

    #[test]
    fn schema_hash_distinguishes_tiers_and_is_stable() {
        assert_eq!(
            metric_schema_hash(TierId::App),
            metric_schema_hash(TierId::App)
        );
        assert_ne!(
            metric_schema_hash(TierId::App),
            metric_schema_hash(TierId::Db)
        );
    }

    /// A stream that arrives in the given pieces — one piece per `read`,
    /// a read timeout after each — and then ends.
    struct Pieces(std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>);

    impl Pieces {
        fn new(pieces: impl IntoIterator<Item = Vec<u8>>) -> Pieces {
            // An empty piece would read as end of stream.
            let pieces = pieces.into_iter().filter(|p| !p.is_empty());
            let timed_out = io::ErrorKind::TimedOut;
            Pieces(pieces.flat_map(|p| [Ok(p), Err(timed_out)]).collect())
        }
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut piece)) => {
                    let n = piece.len().min(buf.len());
                    buf[..n].copy_from_slice(&piece[..n]);
                    if n < piece.len() {
                        self.0.push_front(Ok(piece.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Everything a [`FrameBuf`] makes of `stream`: the frames, then the
    /// error that ended it.
    fn drain(mut stream: Pieces) -> (Vec<Frame>, FrameError) {
        let mut rbuf = FrameBuf::default();
        let mut frames = Vec::new();
        loop {
            match rbuf.fill(&mut stream) {
                Ok(_) => {}
                Err(e) if e.is_timeout() => continue,
                Err(e) => return (frames, e),
            }
            loop {
                match rbuf.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(e) => return (frames, e),
                }
            }
        }
    }

    #[test]
    fn frame_buf_extracts_the_same_frames_wherever_the_stream_is_cut() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // `frames` on the wire, cut at `cut` and from there into seeded
        // pieces of up to `max_piece`.
        let wire = |frames: &[Frame]| {
            let mut stream = Vec::new();
            for frame in frames {
                write_frame(&mut stream, frame).unwrap();
            }
            stream
        };
        let check = |frames: &[Frame], stream: &[u8], cut: usize, max_piece: usize| {
            let mut rng = StdRng::seed_from_u64(cut as u64);
            let (head, mut rest) = stream.split_at(cut);
            let mut pieces = vec![head.to_vec()];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rng.random_range(1..=max_piece).min(rest.len()));
                pieces.push(piece.to_vec());
                rest = tail;
            }
            let (got, end) = drain(Pieces::new(pieces));
            assert!(got == frames, "cut at {cut}: {} frames", got.len());
            assert!(end.is_eof(), "cut at {cut}: {end}");
        };

        // Every variant, cut at every byte offset.
        let frames = all_frames();
        let stream = wire(&frames);
        for cut in 0..=stream.len() {
            check(&frames, &stream, cut, 512);
        }

        // A frame longer than one read takes several fills wherever it
        // is cut; 64 seeded offsets.
        let long = Frame::Reject {
            reason: "r".repeat(2 * READ_CHUNK),
            ours: PROTO_VERSION,
            theirs: 0,
        };
        let frames = [Frame::Ack { seq: 1 }, long, Frame::Bye { last_seq: 1 }];
        let stream = wire(&frames);
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..64 {
            let cut = rng.random_range(0..=stream.len());
            check(&frames, &stream, cut, 2 * READ_CHUNK);
        }
    }

    #[test]
    fn frame_buf_ends_on_a_bad_magic_and_on_eof_mid_frame_with_the_typed_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &Frame::Ack { seq: 1 }).unwrap();
        write_frame(&mut stream, &Frame::Ack { seq: 2 }).unwrap();
        let acks = vec![Frame::Ack { seq: 1 }, Frame::Ack { seq: 2 }];

        // Desynchronised: the third header is not a frame header.
        let mut garbled = stream.clone();
        garbled.extend_from_slice(b"GET / HTTP/1.1\r\n");
        let (got, end) = drain(Pieces::new([garbled]));
        assert_eq!(got, acks);
        assert!(matches!(end, FrameError::BadMagic(_)), "{end}");

        // Cut short: the frames before the cut, then end of stream.
        let mut cut_short = stream.clone();
        write_frame(&mut cut_short, &sample_frame()).unwrap();
        cut_short.truncate(cut_short.len() - 3);
        let (got, end) = drain(Pieces::new([cut_short]));
        assert_eq!(got, acks);
        assert!(end.is_eof() && !end.is_corrupt(), "{end}");
    }

    mod corruption_props {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A valid multi-frame stream to mutate.
        fn valid_stream() -> Vec<u8> {
            let mut buf = Vec::new();
            write_frame(
                &mut buf,
                &Frame::Hello {
                    tier: TierId::App,
                    proto_version: PROTO_VERSION,
                    metric_schema_hash: metric_schema_hash(TierId::App),
                    caps: WireCaps {
                        codec: WireCodec::Binary,
                        max_batch: 1,
                    },
                },
            )
            .unwrap();
            write_frame(&mut buf, &sample_frame()).unwrap();
            write_frame(&mut buf, &Frame::Bye { last_seq: 42 }).unwrap();
            buf
        }

        /// Decoding any byte-mutated (flipped and/or truncated)
        /// variant of a valid stream must return frames or typed
        /// errors — never panic, never allocate past the cap. The
        /// drain loop terminates because every successful read
        /// consumes at least the 8 header bytes.
        #[test]
        fn mutated_streams_decode_without_panicking() {
            let valid = valid_stream();
            for seed in 0..256u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bytes = valid.clone();
                for _ in 0..rng.random_range(0usize..8) {
                    let idx = rng.random_range(0..bytes.len());
                    bytes[idx] ^= rng.random_range(1u32..=255) as u8;
                }
                bytes.truncate(rng.random_range(0..=bytes.len()));
                let mut r = bytes.as_slice();
                loop {
                    match read_frame(&mut r) {
                        Ok(_) => {}
                        Err(e) => {
                            assert!(
                                e.is_eof() || e.is_corrupt(),
                                "seed {seed}: neither end of stream nor corruption: {e}"
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
}
