//! The per-tier telemetry agent: sample, synthesize, frame, stream.
//!
//! One agent process runs next to each tier, and it is one thread: poll
//! the [`SampleSource`], synthesize the metric rows ([`TierSampler`]),
//! enqueue, send binary frames of up to [`MAX_BATCH`] samples, each
//! encoded straight from the queue by reference (no sample is cloned to
//! be framed, and none leaves the queue before its frame is written).
//! The collector answers a connection only at its ends — the handshake's
//! `Ack{0}` or `Reject`, and a `Reject` when it drops the session — and
//! never a sample frame or a heartbeat, so nothing needs reading while a
//! session streams.
//!
//! A session's replies are read once it has ended: the agent half-closes
//! it and reads it to the collector's EOF. When a
//! session ends on a scheduled reconnect the agent redials at once and
//! leaves the ended session unread behind the live one; it drains that
//! session before ending the next, so at most one ended session waits
//! behind the live one and the collector holds at most one waiting dial
//! per tier. A session that ends on a failed write, and the final `Bye`
//! session, are drained before the agent goes on. Only the first dial
//! waits for the collector's `Ack{0}`; a redial writes its `Hello` and
//! streams at once, and the drain judges the reply: an `Ack{0}` is
//! counted as an accept, a `Reject` ends the run with
//! [`HandshakeRejected`].
//!
//! Robustness model:
//!
//! * **Bounded queue, drop-oldest.** Samples produced while the
//!   collector is unreachable accumulate in a bounded queue; when it
//!   overflows the *oldest* sample is dropped, because the freshest data
//!   is what an online capacity decision needs. Every drop becomes a
//!   sequence gap the collector detects and quarantines. A collector
//!   that is merely slow is felt here too, and only here: it reads a
//!   lane no faster than it decides, so its backlog is this agent's
//!   blocked `write` (TCP flow control), never memory growing at the
//!   collector.
//! * **Reconnect with jittered exponential backoff.** Dial failures
//!   back off exponentially (capped), with a ±25% deterministic jitter
//!   derived from the agent seed so a fleet of agents does not dial a
//!   recovering collector in lockstep.
//! * **Fault injection.** The agent knows one fault script, the
//!   [`FaultSchedule`] in its [`AgentConfig`]: exact sequences to
//!   discard silently and to reconnect before. Periodic faults are
//!   harness data that [`crate::loopback`] compiles to such a script.

use std::collections::VecDeque;
use std::io;
use std::time::Duration;

use webcap_core::MetricLevel;
use webcap_hpc::HpcModel;
use webcap_sim::TierId;

use crate::frame::{
    level_schema_hash, read_frame, write_frame, write_frame_codec, write_sample_frame, Frame,
    FrameBuf, FrameError, WireCaps, WireCodec, WireSample, PROTO_VERSION,
};
use crate::retry::RetryPolicy;
use crate::source::{SampleSource, SourcePoll, SourceSample, TierSampler};
use crate::transport::{is_timeout, Conn, Endpoint};

/// A deterministic, per-sequence fault script — the only fault
/// vocabulary the agent speaks.
///
/// A schedule names exact sample sequences: ranges the agent silently
/// discards (a tier outage) and points where it tears the connection
/// down and redials (a process restart). Both sim replay and the
/// loopback plane consume the same schedule, which is what makes
/// scenario capacity reports reproducible across the two substrates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Inclusive `(first, last)` sequence ranges whose sample frames are
    /// silently discarded at send time, producing sequence gaps.
    pub drop_ranges: Vec<(u64, u64)>,
    /// Force a clean reconnect immediately *before* sending each listed
    /// sequence (once per listed value; the frame itself is re-sent on
    /// the next session).
    pub reconnect_before: Vec<u64>,
}

impl FaultSchedule {
    /// No scheduled faults.
    pub const NONE: FaultSchedule = FaultSchedule {
        drop_ranges: Vec::new(),
        reconnect_before: Vec::new(),
    };

    /// Whether `seq` falls inside any drop range.
    pub fn drops(&self, seq: u64) -> bool {
        self.drop_ranges.iter().any(|&(a, b)| a <= seq && seq <= b)
    }
}

/// Agent runtime configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The tier this agent measures.
    pub tier: TierId,
    /// Collector endpoint to dial.
    pub endpoint: Endpoint,
    /// Redial posture: jittered backoff, attempt budget, and the
    /// per-attempt handshake timeout.
    pub retry: RetryPolicy,
    /// Deployment-wide base seed: metric-synthesis noise and backoff
    /// jitter both derive from it.
    pub seed: u64,
    /// Scheduled per-sequence faults (scenario replay, fault tests).
    pub schedule: FaultSchedule,
}

/// Most samples packed into one `SampleBatch` frame, announced in the
/// `Hello`'s [`WireCaps`]. A frame cut short by a reconnect point may
/// carry fewer, down to a one-member `Sample` frame.
pub const MAX_BATCH: u32 = 32;

/// Bounded send-queue capacity (drop-oldest beyond it).
pub const QUEUE_CAPACITY: usize = 256;

/// Read timeout on an established connection: how long the drain of an
/// ended session waits for the collector's EOF.
pub const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Send a heartbeat after this long without frames while idle.
pub const HEARTBEAT: Duration = Duration::from_millis(500);

impl AgentConfig {
    /// Defaults tuned for tests and the local demo: snappy redial, no
    /// scheduled faults.
    pub fn new(tier: TierId, endpoint: Endpoint, seed: u64) -> AgentConfig {
        AgentConfig {
            tier,
            endpoint,
            retry: RetryPolicy::dial_defaults(),
            seed,
            schedule: FaultSchedule::NONE,
        }
    }
}

/// What an agent did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentReport {
    /// Samples pulled from the source.
    pub samples_produced: u64,
    /// Samples that reached the wire, in sample frames (the name is from
    /// when every frame carried one sample).
    pub frames_sent: u64,
    /// Sample frames (`Sample` or `SampleBatch`) that reached the wire.
    pub sample_frames: u64,
    /// Samples discarded by the [`FaultSchedule`]'s drop ranges.
    pub frames_dropped: u64,
    /// Samples evicted by drop-oldest queue backpressure.
    pub queue_dropped: u64,
    /// Connections established (reconnects = `sessions - 1`).
    pub sessions: u64,
    /// Handshake accepts (`Ack{0}`) observed: one per session the
    /// collector accepted, the first dial's included.
    pub acks_received: u64,
    /// Mid-session `Reject` frames observed (the collector dropping a
    /// session on a frame it could not parse, or on a stall).
    pub rejects_received: u64,
    /// Heartbeat frames sent.
    pub heartbeats_sent: u64,
}

/// Push with bounded capacity, evicting the oldest entry when full.
/// Returns the number of evictions (0 or 1).
fn push_bounded(queue: &mut VecDeque<WireSample>, item: WireSample, capacity: usize) -> u64 {
    let mut evicted = 0;
    while queue.len() >= capacity.max(1) {
        queue.pop_front();
        evicted += 1;
    }
    queue.push_back(item);
    evicted
}

/// Outcome of one connected session.
enum SessionEnd {
    /// Source exhausted and queue flushed; `Bye` sent.
    Done,
    /// A scheduled reconnect: redial at once, drain this session behind
    /// the next.
    Reconnect,
    /// A sample write failed: drain this session, then redial.
    Broken,
}

/// A collector answered the handshake with a terminal `Reject` —
/// version skew, schema-hash mismatch, or a malformed `Hello`. Nothing
/// about redialing fixes any of these, so the agent surfaces this typed
/// error (wrapped in an `io::Error` of kind `ConnectionAborted`, which
/// the redial predicate treats as non-retryable) and exits instead of
/// burning its retry budget against a collector that will refuse every
/// attempt identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeRejected {
    /// The tier whose `Hello` was refused.
    pub tier: TierId,
    /// The collector's human-readable refusal reason.
    pub reason: String,
    /// The rejecting collector's protocol version (0 if unreported).
    pub ours: u32,
    /// The protocol version this agent announced (0 if the refusal was
    /// not about versions).
    pub theirs: u32,
}

impl std::fmt::Display for HandshakeRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "collector rejected {} agent (collector v{}, agent v{}): {}",
            self.tier.label(),
            self.ours,
            self.theirs,
            self.reason
        )
    }
}

impl std::error::Error for HandshakeRejected {}

impl HandshakeRejected {
    /// Pull the typed rejection back out of an agent's `io::Error`, if
    /// that is what ended the run.
    pub fn from_io(e: &io::Error) -> Option<&HandshakeRejected> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }
}

/// Whether a dial/handshake failure is worth retrying: the collector
/// being down (refused, socket file missing), dying mid-handshake
/// (EOF, reset), or slow to answer (timeout) all heal with backoff. A
/// handshake `Reject` ([`HandshakeRejected`], carried as
/// `ConnectionAborted`), version mismatches, and unsupported endpoints
/// do not — the collector is up and saying no.
fn dial_retryable(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::ConnectionRefused
        || e.kind() == io::ErrorKind::NotFound
        || e.kind() == io::ErrorKind::UnexpectedEof
        || e.kind() == io::ErrorKind::ConnectionReset
        || is_timeout(e)
}

/// Dial and handshake, retrying per `cfg.retry`. Returns the connected,
/// acknowledged stream.
fn dial(cfg: &AgentConfig, level: MetricLevel) -> io::Result<Conn> {
    cfg.retry
        .run(cfg.seed, dial_retryable, |_| try_handshake(cfg, level))
}

fn try_handshake(cfg: &AgentConfig, level: MetricLevel) -> io::Result<Conn> {
    let mut conn = Conn::connect(&cfg.endpoint)?;
    conn.set_read_timeout(Some(cfg.retry.attempt_timeout))?;
    write_frame(&mut conn, &hello(cfg, level))?;
    hello_reply(cfg.tier, read_frame(&mut conn)?)?;
    Ok(conn)
}

/// Redial without waiting for the handshake: connect, write the `Hello`
/// and return, the collector's reply left for the new session's drain.
/// `Ok((conn, true))` is such a pipelined dial; a failed connect falls
/// back to the retrying [`dial`], `Ok((conn, false))`.
fn redial(cfg: &AgentConfig, level: MetricLevel) -> io::Result<(Conn, bool)> {
    let pipelined = Conn::connect(&cfg.endpoint).and_then(|mut conn| {
        write_frame(&mut conn, &hello(cfg, level))?;
        Ok(conn)
    });
    match pipelined {
        Ok(conn) => Ok((conn, true)),
        Err(_) => dial(cfg, level).map(|conn| (conn, false)),
    }
}

/// The `Hello` an agent leads every connection with.
fn hello(cfg: &AgentConfig, level: MetricLevel) -> Frame {
    Frame::Hello {
        tier: cfg.tier,
        proto_version: PROTO_VERSION,
        metric_schema_hash: level_schema_hash(cfg.tier, level),
        caps: WireCaps {
            codec: WireCodec::Binary,
            max_batch: MAX_BATCH,
        },
    }
}

/// Judge the collector's first reply to a `Hello`: `Ack{0}` accepts, a
/// `Reject` is the typed [`HandshakeRejected`], anything else is
/// malformed.
fn hello_reply(tier: TierId, reply: Frame) -> io::Result<()> {
    match reply {
        Frame::Ack { seq: 0 } => Ok(()),
        Frame::Reject {
            reason,
            ours,
            theirs,
        } => Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            HandshakeRejected {
                tier,
                reason,
                ours,
                theirs,
            },
        )),
        other @ (Frame::Hello { .. }
        | Frame::Sample(_)
        | Frame::SampleBatch(_)
        | Frame::Heartbeat { .. }
        | Frame::Ack { .. }
        | Frame::Bye { .. }
        | Frame::Digest(_)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected handshake reply: {other:?}"),
        )),
    }
}

/// The agent's [`FaultSchedule`], normalized once per run — drop ranges
/// sorted and merged, reconnect points sorted and deduplicated — so the
/// per-sample questions are binary searches, not scans of the schedule.
struct Script {
    /// Disjoint inclusive drop ranges, ascending.
    drops: Vec<(u64, u64)>,
    /// Reconnect points yet to fire, ascending: a point fires once,
    /// though its frame is re-sent on the next session.
    reconnects: Vec<u64>,
}

impl Script {
    fn new(schedule: &FaultSchedule) -> Script {
        let mut ranges: Vec<(u64, u64)> = schedule
            .drop_ranges
            .iter()
            .copied()
            .filter(|&(first, last)| first <= last)
            .collect();
        ranges.sort_unstable();
        let mut drops: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (first, last) in ranges {
            match drops.last_mut() {
                Some(prev) if first <= prev.1.saturating_add(1) => prev.1 = prev.1.max(last),
                _ => drops.push((first, last)),
            }
        }
        let mut reconnects = schedule.reconnect_before.clone();
        reconnects.sort_unstable();
        reconnects.dedup();
        Script { drops, reconnects }
    }

    /// [`FaultSchedule::drops`].
    fn drops(&self, seq: u64) -> bool {
        let i = self.drops.partition_point(|&(_, last)| last < seq);
        self.drops.get(i).is_some_and(|&(first, _)| first <= seq)
    }

    /// Whether a reconnect point at `seq` has yet to fire.
    fn reconnect_pending(&self, seq: u64) -> bool {
        self.reconnects.binary_search(&seq).is_ok()
    }

    /// Fire the reconnect point at `seq`; false if there is none left.
    fn fire_reconnect(&mut self, seq: u64) -> bool {
        let Ok(i) = self.reconnects.binary_search(&seq) else {
            return false;
        };
        self.reconnects.remove(i);
        true
    }
}

/// Run an agent until its source is exhausted (graceful `Bye`) or the
/// collector stays unreachable past the retry budget. It synthesizes
/// with the collector's meter's `hpc_model` and ships the families its
/// `level` reads, announcing them in the `Hello`'s schema hash.
pub fn run_agent(
    cfg: &AgentConfig,
    hpc_model: HpcModel,
    level: MetricLevel,
    source: &mut dyn SampleSource,
) -> io::Result<AgentReport> {
    let mut stream = Stream {
        cfg,
        script: Script::new(&cfg.schedule),
        sampler: TierSampler::for_level(cfg.tier, hpc_model, cfg.seed, level),
        source,
        queue: VecDeque::new(),
        report: AgentReport::default(),
        source_done: false,
        last_seq: 0,
        scratch: Vec::new(),
    };
    let mut behind = None;
    let run = stream.sessions(level, &mut behind);
    // Never return with an ended session unread.
    let drained = behind.map_or(Ok(()), |ended| stream.drain(ended));
    drained.and(run).map(|()| stream.report)
}

/// One agent run's state across its sessions.
struct Stream<'a> {
    cfg: &'a AgentConfig,
    script: Script,
    sampler: TierSampler,
    source: &'a mut dyn SampleSource,
    queue: VecDeque<WireSample>,
    report: AgentReport,
    source_done: bool,
    last_seq: u64,
    /// One encode scratch buffer for the whole run: steady-path frame
    /// encodes borrow it instead of allocating.
    scratch: Vec<u8>,
}

impl Stream<'_> {
    /// Dial, stream, and redial until the source is flushed. A session
    /// ended by a scheduled reconnect is half-closed and left unread in
    /// `behind` while the next one streams; at most one waits there,
    /// since it is drained before the next session ends. The first dial
    /// waits for the handshake; later ones are pipelined ([`redial`]).
    fn sessions(
        &mut self,
        level: MetricLevel,
        behind: &mut Option<(Conn, bool)>,
    ) -> io::Result<()> {
        let (mut conn, mut pipelined) = (dial(self.cfg, level)?, false);
        loop {
            self.report.sessions += 1;
            // A pipelined dial's accept is counted by its drain.
            self.report.acks_received += u64::from(!pipelined);
            let streamed = conn
                .set_read_timeout(Some(READ_TIMEOUT))
                .and_then(|()| self.session(&mut conn));

            let drained = behind.take().map_or(Ok(()), |ended| self.drain(ended));
            // However the session ended, half-close it: the collector
            // closes its side on `Bye` and on end-of-stream alike.
            let _ = conn.shutdown_write();
            if drained.is_err() || !matches!(streamed, Ok(SessionEnd::Reconnect)) {
                let joined = self.drain((conn, pipelined));
                drained.and(joined)?;
                match streamed? {
                    SessionEnd::Done => return Ok(()),
                    SessionEnd::Reconnect | SessionEnd::Broken => {}
                }
            } else {
                *behind = Some((conn, pipelined));
            }
            (conn, pipelined) = redial(self.cfg, level)?;
        }
    }

    /// Read an ended session to the collector's EOF, a dead or
    /// unparseable stream, or a read timeout. A pipelined dial's first
    /// frame is its handshake reply, judged by [`hello_reply`]; after it,
    /// `Ack{0}`s and `Reject`s are counted. Every connection is read so
    /// before it is dropped: closing one with a reply unread resets it,
    /// and a reset discards samples still in the collector's receive
    /// queue.
    fn drain(&mut self, (mut conn, pipelined): (Conn, bool)) -> io::Result<()> {
        let (mut rbuf, mut hello) = (FrameBuf::default(), pipelined);
        while rbuf.fill(&mut conn).is_ok() {
            loop {
                let frame = match rbuf.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => return Ok(()),
                };
                if std::mem::take(&mut hello) {
                    hello_reply(self.cfg.tier, frame)?;
                    self.report.acks_received += 1;
                    continue;
                }
                match frame {
                    Frame::Ack { seq: 0 } => self.report.acks_received += 1,
                    Frame::Reject { .. } => self.report.rejects_received += 1,
                    Frame::Hello { .. }
                    | Frame::Sample(_)
                    | Frame::SampleBatch(_)
                    | Frame::Heartbeat { .. }
                    | Frame::Ack { .. }
                    | Frame::Bye { .. }
                    | Frame::Digest(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Synthesize one polled sample and queue it, unless it is warm-up:
    /// those are synthesized like any other (the OS synthesizer carries
    /// state) but never queued, a previous process having already
    /// delivered those sequences.
    fn take(&mut self, s: SourceSample) {
        let warmup = s.warmup;
        self.last_seq = s.seq;
        let ws = self.sampler.wire_sample(s);
        if !warmup {
            self.report.samples_produced += 1;
            self.report.queue_dropped += push_bounded(&mut self.queue, ws, QUEUE_CAPACITY);
        }
    }

    /// Stream on `conn` until the source is flushed and `Bye` sent, a
    /// scheduled reconnect point, or a failed sample write.
    fn session(&mut self, conn: &mut Conn) -> io::Result<SessionEnd> {
        let mut idle_polls: u32 = 0;
        loop {
            if self.queue.is_empty() {
                if self.source_done {
                    // Flushed everything the source will ever give:
                    // announce the final sequence so the collector can
                    // detect trailing loss, and end gracefully.
                    let bye = Frame::Bye {
                        last_seq: self.last_seq,
                    };
                    write_frame_codec(conn, &bye, WireCodec::Binary, &mut self.scratch)?;
                    return Ok(SessionEnd::Done);
                }
                match self.source.next_sample() {
                    SourcePoll::Ready(s) => {
                        self.take(s);
                        idle_polls = 0;
                    }
                    SourcePoll::Idle => {
                        // Nothing due: heartbeat so the collector's read
                        // timeout knows we are alive, then yield.
                        idle_polls += 1;
                        let poll_sleep = Duration::from_millis(5);
                        if poll_sleep * idle_polls >= HEARTBEAT {
                            let beat = Frame::Heartbeat { seq: self.last_seq };
                            write_frame_codec(conn, &beat, WireCodec::Binary, &mut self.scratch)?;
                            self.report.heartbeats_sent += 1;
                            idle_polls = 0;
                        }
                        std::thread::sleep(poll_sleep);
                        continue;
                    }
                    SourcePoll::Exhausted => {
                        self.source_done = true;
                        continue;
                    }
                }
            }

            // Top up a batch: pull whatever the source has ready — no
            // sleeping, the queue already holds data to send — until a
            // frame's worth is queued.
            while !self.source_done && self.queue.len() < MAX_BATCH as usize {
                match self.source.next_sample() {
                    SourcePoll::Ready(s) => {
                        self.take(s);
                        idle_polls = 0;
                    }
                    SourcePoll::Idle => break,
                    SourcePoll::Exhausted => self.source_done = true,
                }
            }

            // The queue is non-empty here (the refill branch above
            // `continue`s otherwise), but a `let-else` keeps this loop
            // panic-free by construction.
            let Some(seq) = self.queue.front().map(|ws| ws.seq) else {
                continue;
            };
            if self.script.fire_reconnect(seq) {
                return Ok(SessionEnd::Reconnect);
            }
            if self.script.drops(seq) {
                self.queue.pop_front();
                self.report.frames_dropped += 1;
                continue;
            }

            let written = write_queued_frame(
                conn,
                &self.queue,
                &self.script,
                MAX_BATCH as usize,
                &mut self.scratch,
            );
            let Ok(Settled { taken, sent }) = written else {
                // Everything stays queued; resend on the next session.
                return Ok(SessionEnd::Broken);
            };
            self.queue.drain(..taken);
            self.report.sample_frames += 1;
            self.report.frames_sent += sent as u64;
            self.report.frames_dropped += (taken - sent) as u64;
        }
    }
}

/// The queue entries one written frame settles.
#[derive(Debug, PartialEq, Eq)]
struct Settled {
    /// Entries from the front that leave the queue: the frame's members
    /// and the dropped samples among them.
    taken: usize,
    /// Members the frame carried.
    sent: usize,
}

/// Write the frame the queue's front opens — the front having passed its
/// gates — extended with queued successors by replaying the per-sample
/// gate sequence of one-sample frames. Extension stops at the batch cap
/// and at an unfired reconnect point: every place the sequential loop
/// would have stopped sending. The frame is encoded from the queue by
/// reference ([`write_sample_frame`]), and nothing leaves the queue here:
/// a sequential sender would never have examined a sample past a failed
/// send, and the retry reaches the same verdicts because they depend on
/// the sequence alone.
fn write_queued_frame<W: io::Write>(
    w: &mut W,
    queue: &VecDeque<WireSample>,
    script: &Script,
    batch_target: usize,
    scratch: &mut Vec<u8>,
) -> Result<Settled, FrameError> {
    let mut items = queue.iter();
    let mut members: Vec<&WireSample> = Vec::with_capacity(batch_target.min(queue.len()));
    members.extend(items.next());
    let mut taken = members.len();
    for item in items {
        if members.len() >= batch_target || script.reconnect_pending(item.seq) {
            break;
        }
        taken += 1;
        if !script.drops(item.seq) {
            members.push(item);
        }
    }
    write_sample_frame(w, &members, scratch)?;
    Ok(Settled {
        taken,
        sent: members.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use webcap_sim::TierSample;

    fn ws(seq: u64) -> WireSample {
        WireSample {
            seq,
            t_s: seq as f64 + 1.0,
            interval_s: 1.0,
            tier: TierSample::default(),
            hpc: vec![],
            os: vec![],
            app: None,
        }
    }

    #[test]
    fn bounded_queue_drops_oldest() {
        let mut q = VecDeque::new();
        let mut evicted = 0;
        for seq in 0..5 {
            evicted += push_bounded(&mut q, ws(seq), 3);
        }
        assert_eq!(evicted, 2);
        let kept: Vec<u64> = q.iter().map(|w| w.seq).collect();
        assert_eq!(kept, vec![2, 3, 4], "newest samples survive");
    }

    #[test]
    fn fault_schedule_ranges_are_inclusive() {
        let s = FaultSchedule {
            drop_ranges: vec![(10, 12), (40, 40)],
            reconnect_before: vec![20],
        };
        assert!(!s.drops(9));
        assert!(s.drops(10));
        assert!(s.drops(12));
        assert!(!s.drops(13));
        assert!(s.drops(40));
    }

    #[test]
    fn the_normalized_script_answers_like_the_schedule() {
        // Unsorted, overlapping, adjacent, empty and repeated entries.
        let schedule = FaultSchedule {
            drop_ranges: vec![(40, 44), (10, 12), (11, 15), (16, 16), (30, 29), (43, 50)],
            reconnect_before: vec![25, 7, 25, 60, 7],
        };
        let mut script = Script::new(&schedule);
        assert_eq!(script.drops, vec![(10, 16), (40, 50)]);
        for seq in 0..70 {
            assert_eq!(script.drops(seq), schedule.drops(seq), "seq {seq}");
            let listed = schedule.reconnect_before.contains(&seq);
            assert_eq!(script.reconnect_pending(seq), listed, "seq {seq}");
        }
        // Each point fires once, however often it is listed.
        assert!(script.fire_reconnect(25));
        assert!(!script.reconnect_pending(25));
        assert!(!script.fire_reconnect(25));
        assert!(!script.fire_reconnect(26));
        assert!(script.reconnect_pending(7) && script.reconnect_pending(60));
        let edge = Script::new(&FaultSchedule {
            drop_ranges: vec![(u64::MAX - 1, u64::MAX), (0, 0)],
            reconnect_before: vec![],
        });
        assert!(edge.drops(0) && !edge.drops(1) && edge.drops(u64::MAX));
    }

    /// Each tier's queue of 48 synthesized wire samples (sequences
    /// 0..48): the App tier's carry `AppStats`, the Db tier's do not.
    fn queues() -> [VecDeque<WireSample>; 2] {
        let program = webcap_tpcw::TrafficProgram::steady(webcap_tpcw::Mix::shopping(), 60, 48.0);
        let samples = webcap_sim::run(webcap_sim::SimConfig::testbed(44), program).samples;
        TierId::ALL.map(|tier| {
            let mut sampler = TierSampler::new(tier, HpcModel::testbed(), 9);
            let mut source = crate::source::ScriptedSource::new(tier, &samples);
            let mut queue = VecDeque::new();
            while let SourcePoll::Ready(s) = source.next_sample() {
                queue.push_back(sampler.wire_sample(s));
            }
            queue
        })
    }

    #[test]
    fn a_queued_frame_is_the_frame_of_its_cloned_members() {
        // (batch target, drop ranges, reconnect points, members sent,
        // queue entries settled).
        type Case = (usize, Vec<(u64, u64)>, Vec<u64>, Vec<u64>, usize);
        let cases: [Case; 6] = [
            (32, vec![], vec![], (0..32).collect(), 32),
            // Drops inside the batch are settled, not sent.
            (
                8,
                vec![(3, 5), (10, 10)],
                vec![],
                vec![0, 1, 2, 6, 7, 8, 9, 11],
                12,
            ),
            // A pending reconnect point cuts the batch.
            (32, vec![(2, 2)], vec![5, 9], vec![0, 1, 3, 4], 5),
            // One member: a `Sample` frame, unbatched or cut short.
            (1, vec![], vec![], vec![0], 1),
            (32, vec![], vec![1], vec![0], 1),
            (32, vec![(1, 3)], vec![4], vec![0], 4),
        ];
        for (tier, queue) in TierId::ALL.into_iter().zip(queues()) {
            assert_eq!(
                queue.iter().all(|ws| ws.app.is_some()),
                tier == TierId::App,
                "{tier:?}"
            );
            for (batch_target, drop_ranges, reconnect_before, members, taken) in &cases {
                let script = Script::new(&FaultSchedule {
                    drop_ranges: drop_ranges.clone(),
                    reconnect_before: reconnect_before.clone(),
                });
                let (mut wrote, mut scratch) = (Vec::new(), Vec::new());
                let settled =
                    write_queued_frame(&mut wrote, &queue, &script, *batch_target, &mut scratch)
                        .expect("the frame is written");
                assert_eq!(
                    settled,
                    Settled {
                        taken: *taken,
                        sent: members.len()
                    },
                    "{tier:?} {batch_target} {drop_ranges:?} {reconnect_before:?}"
                );
                let mut cloned: Vec<WireSample> = members
                    .iter()
                    .map(|&seq| queue.iter().find(|ws| ws.seq == seq).cloned().unwrap())
                    .collect();
                let frame = match cloned.len() {
                    1 => Frame::Sample(cloned.pop().unwrap()),
                    _ => Frame::SampleBatch(cloned),
                };
                let mut want = Vec::new();
                crate::frame::append_frame(&frame, &mut want).unwrap();
                assert!(
                    wrote == want,
                    "{tier:?} {batch_target} {drop_ranges:?} {reconnect_before:?}: the bytes differ"
                );
            }
        }
    }

    #[test]
    fn an_oversized_queued_frame_is_refused_and_writes_nothing() {
        let [mut queue, _] = queues();
        if let Some(ws) = queue.get_mut(1) {
            ws.hpc = vec![0.5; crate::frame::MAX_FRAME_LEN / 8];
        }
        let before = queue.clone();
        let (mut wrote, mut scratch) = (Vec::new(), Vec::new());
        let err = write_queued_frame(
            &mut wrote,
            &queue,
            &Script::new(&FaultSchedule::NONE),
            32,
            &mut scratch,
        )
        .expect_err("a frame over MAX_FRAME_LEN is refused");
        assert!(matches!(err, FrameError::Oversized { .. }), "{err:?}");
        assert!(wrote.is_empty(), "nothing is written");
        assert_eq!(queue, before, "the queue is unchanged");
    }

    /// A source of `total` default-telemetry samples, then exhausted.
    struct Counting {
        next: u64,
        total: u64,
    }

    impl SampleSource for Counting {
        fn next_sample(&mut self) -> SourcePoll {
            if self.next == self.total {
                return SourcePoll::Exhausted;
            }
            let seq = self.next;
            self.next += 1;
            SourcePoll::Ready(SourceSample {
                seq,
                t_s: seq as f64 + 1.0,
                interval_s: 1.0,
                tier: TierSample::default(),
                app: None,
                warmup: false,
            })
        }
    }

    #[test]
    fn a_refused_redial_is_terminal() {
        use crate::transport::Listener;
        use std::sync::atomic::AtomicU64;

        let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let dial = listener.local_endpoint().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let server_seen = Arc::clone(&accepted);
        // A collector that accepts the first `Hello` and acks that
        // session to its end, then — restarted with another schema, say
        // — refuses the redial's `Hello` and closes, the agent's
        // pipelined samples unread, as the real collector does.
        std::thread::spawn(move || loop {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            if server_seen.fetch_add(1, Ordering::SeqCst) > 0 {
                let _ = read_frame(&mut conn);
                let _ = write_frame(
                    &mut conn,
                    &Frame::Reject {
                        reason: "metric schema hash is not this collector's".to_string(),
                        ours: PROTO_VERSION,
                        theirs: PROTO_VERSION,
                    },
                );
                continue;
            }
            let _ = read_frame(&mut conn);
            let _ = write_frame(&mut conn, &Frame::Ack { seq: 0 });
            while let Ok(frame) = read_frame(&mut conn) {
                let seqs: Vec<u64> = if let Frame::SampleBatch(batch) = &frame {
                    batch.iter().map(|ws| ws.seq).collect()
                } else if let Frame::Sample(ws) = &frame {
                    vec![ws.seq]
                } else {
                    vec![]
                };
                for seq in seqs {
                    let _ = write_frame(&mut conn, &Frame::Ack { seq });
                }
            }
        });

        let mut cfg = AgentConfig::new(TierId::App, dial, 3);
        cfg.schedule.reconnect_before = vec![10];
        cfg.retry.max_attempts = 5;
        cfg.retry.initial = Duration::from_millis(1);
        cfg.retry.max = Duration::from_millis(2);
        let mut source = Counting { next: 0, total: 20 };
        let err = run_agent(
            &cfg,
            webcap_hpc::HpcModel::testbed(),
            MetricLevel::Hpc,
            &mut source,
        )
        .expect_err("a refused redial ends the agent");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        let rejected = HandshakeRejected::from_io(&err).expect("typed rejection survives");
        assert_eq!(rejected.tier, TierId::App);
        assert_eq!(
            rejected.reason,
            "metric schema hash is not this collector's"
        );
        assert_eq!(
            (rejected.ours, rejected.theirs),
            (PROTO_VERSION, PROTO_VERSION)
        );
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "the refusal ends the run: no redial after it"
        );
    }

    #[test]
    fn a_terminal_reject_is_not_retried() {
        use crate::transport::Listener;
        use std::sync::atomic::AtomicU64;

        let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let dial = listener.local_endpoint().unwrap();
        let accepted = Arc::new(AtomicU64::new(0));
        let server_seen = Arc::clone(&accepted);
        // A collector that refuses every `Hello` with a version-skew
        // `Reject`. It counts connections: a retry storm would show up
        // as more than one accept.
        std::thread::spawn(move || loop {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            server_seen.fetch_add(1, Ordering::Relaxed);
            let _ = read_frame(&mut conn);
            let _ = write_frame(
                &mut conn,
                &Frame::Reject {
                    reason: "protocol version 99 is not the supported 3".to_string(),
                    ours: PROTO_VERSION,
                    theirs: 99,
                },
            );
        });

        let mut cfg = AgentConfig::new(TierId::App, dial, 3);
        cfg.retry.max_attempts = 5;
        cfg.retry.initial = Duration::from_millis(1);
        cfg.retry.max = Duration::from_millis(2);
        let mut source = crate::source::ScriptedSource::new(TierId::App, &[]);
        let err = run_agent(
            &cfg,
            webcap_hpc::HpcModel::testbed(),
            MetricLevel::Combined,
            &mut source,
        )
        .expect_err("a rejected handshake ends the agent");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        let rejected = HandshakeRejected::from_io(&err).expect("typed rejection survives");
        assert_eq!(rejected.tier, TierId::App);
        assert_eq!(rejected.ours, PROTO_VERSION);
        assert_eq!(rejected.theirs, 99);
        assert!(rejected.reason.contains("version"), "{rejected}");
        assert_eq!(
            accepted.load(Ordering::Relaxed),
            1,
            "a terminal reject must not feed the redial path"
        );
    }

    #[test]
    fn agent_gives_up_after_the_dial_budget() {
        // Nothing listens on this port; the agent must back off and then
        // surface the dial error instead of spinning forever.
        let mut cfg = AgentConfig::new(TierId::App, Endpoint::parse("127.0.0.1:9").unwrap(), 3);
        cfg.retry.max_attempts = 2;
        cfg.retry.initial = Duration::from_millis(1);
        cfg.retry.max = Duration::from_millis(2);
        let mut source = crate::source::ScriptedSource::new(TierId::App, &[]);
        assert!(run_agent(
            &cfg,
            webcap_hpc::HpcModel::testbed(),
            MetricLevel::Combined,
            &mut source
        )
        .is_err());
    }
}
