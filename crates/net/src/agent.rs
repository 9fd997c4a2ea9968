//! The per-tier telemetry agent: sample, synthesize, frame, stream.
//!
//! One agent process runs next to each tier. Its loop is single-
//! threaded by design — poll the [`SampleSource`], synthesize the metric
//! rows ([`TierSampler`]), enqueue, send binary frames of up to
//! [`AgentConfig::max_batch`] samples — with exactly one helper
//! thread per connection that drains the collector's acknowledgments so
//! the peer's write buffer can never fill and deadlock the pair. The
//! helper sleeps in a blocking read and wakes once per collector flush:
//! one `read` takes the whole burst of acks into a reassembly buffer
//! (the one the collector's lanes use), so an ack cut in two by a short
//! read or a read timeout is simply completed by the next read.
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

use std::collections::{BTreeSet, VecDeque};
use std::io::{self};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use webcap_core::MetricLevel;
use webcap_hpc::HpcModel;
use webcap_sim::TierId;

use crate::frame::{
    level_schema_hash, read_frame, write_frame, write_frame_codec, Frame, FrameBuf, WireCaps,
    WireCodec, WireSample, PROTO_VERSION,
};
use crate::retry::RetryPolicy;
use crate::source::{SampleSource, SourcePoll, TierSampler};
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

    /// Whether the schedule does nothing.
    pub fn is_empty(&self) -> bool {
        self.drop_ranges.is_empty() && self.reconnect_before.is_empty()
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
    /// Most samples packed into one `SampleBatch` frame (0 counts as 1:
    /// every sample in a `Sample` frame of its own).
    pub max_batch: u32,
}

/// Bounded send-queue capacity (drop-oldest beyond it).
pub const QUEUE_CAPACITY: usize = 256;

/// Read timeout on an established connection (the ack drain).
pub const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Send a heartbeat after this long without frames while idle.
pub const HEARTBEAT: Duration = Duration::from_millis(500);

impl AgentConfig {
    /// Defaults tuned for tests and the local demo: snappy redial, no
    /// scheduled faults, batches of 32.
    pub fn new(tier: TierId, endpoint: Endpoint, seed: u64) -> AgentConfig {
        AgentConfig {
            tier,
            endpoint,
            retry: RetryPolicy::dial_defaults(),
            seed,
            schedule: FaultSchedule::NONE,
            max_batch: 32,
        }
    }
}

/// What an agent did over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentReport {
    /// Samples pulled from the source.
    pub samples_produced: u64,
    /// Sample frames that reached the wire.
    pub frames_sent: u64,
    /// Sample frames discarded by the [`FaultSchedule`]'s drop ranges.
    pub frames_dropped: u64,
    /// Samples evicted by drop-oldest queue backpressure.
    pub queue_dropped: u64,
    /// Connections established (reconnects = `sessions - 1`).
    pub sessions: u64,
    /// Acknowledgment frames observed.
    pub acks_received: u64,
    /// Mid-session `Reject` frames observed (the collector refusing a
    /// frame it could not parse).
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
    /// Connection lost or fault-forced; redial and continue.
    Reconnect,
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
    write_frame(
        &mut conn,
        &Frame::Hello {
            tier: cfg.tier,
            proto_version: PROTO_VERSION,
            metric_schema_hash: level_schema_hash(cfg.tier, level),
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: cfg.max_batch,
            },
        },
    )?;
    match read_frame(&mut conn)? {
        Frame::Ack { seq: 0 } => Ok(conn),
        Frame::Reject {
            reason,
            ours,
            theirs,
        } => Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            HandshakeRejected {
                tier: cfg.tier,
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
    let mut sampler = TierSampler::for_level(cfg.tier, hpc_model, cfg.seed, level);
    let mut queue: VecDeque<WireSample> = VecDeque::new();
    let mut report = AgentReport::default();
    let mut source_done = false;
    let mut last_seq: u64 = 0;
    // Scheduled reconnect points already taken, so each fires once even
    // though the triggering frame is re-sent on the next session.
    let mut sched_reconnected: BTreeSet<u64> = BTreeSet::new();
    // One encode scratch buffer for the whole run: steady-path frame
    // encodes borrow it instead of allocating.
    let mut scratch: Vec<u8> = Vec::new();
    let batch_target = cfg.max_batch.max(1) as usize;

    loop {
        let conn = dial(cfg, level)?;
        conn.set_read_timeout(Some(READ_TIMEOUT))?;
        report.sessions += 1;

        let done = AtomicBool::new(false);
        let ack_conn = conn.try_clone()?;
        let mut conn = conn;
        let end = std::thread::scope(|scope| -> io::Result<SessionEnd> {
            // The ack reader: one blocking read per burst of acks — the
            // collector flushes once per service round — counted until
            // the collector's EOF, a dead or unparseable stream, or a
            // read timeout once the session is over.
            let ack_reader = scope.spawn(|| {
                let mut ack_conn = ack_conn;
                let mut rbuf = FrameBuf::default();
                let (mut acks, mut rejects) = (0u64, 0u64);
                'read: loop {
                    match rbuf.fill(&mut ack_conn) {
                        Ok(_) => {}
                        Err(e) if e.is_timeout() && !done.load(Ordering::Relaxed) => continue,
                        Err(_) => break,
                    }
                    loop {
                        match rbuf.next_frame() {
                            Ok(Some(Frame::Ack { .. })) => acks += 1,
                            Ok(Some(Frame::Reject { .. })) => rejects += 1,
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(_) => break 'read,
                        }
                    }
                }
                (acks, rejects)
            });

            let mut idle_polls: u32 = 0;
            let end = loop {
                if queue.is_empty() {
                    if source_done {
                        // Flushed everything the source will ever give:
                        // announce the final sequence so the collector can
                        // detect trailing loss, and end gracefully.
                        write_frame_codec(
                            &mut conn,
                            &Frame::Bye { last_seq },
                            WireCodec::Binary,
                            &mut scratch,
                        )?;
                        break SessionEnd::Done;
                    }
                    match source.next_sample() {
                        SourcePoll::Ready(s) => {
                            let warmup = s.warmup;
                            last_seq = s.seq;
                            // Warm-up samples are synthesized like any
                            // other (the OS synthesizer carries state)
                            // but never queued: a previous process
                            // already delivered those sequences.
                            let ws = sampler.wire_sample(s);
                            if !warmup {
                                report.samples_produced += 1;
                                report.queue_dropped +=
                                    push_bounded(&mut queue, ws, QUEUE_CAPACITY);
                            }
                            idle_polls = 0;
                        }
                        SourcePoll::Idle => {
                            // Nothing due: heartbeat so the collector's
                            // read timeout knows we are alive, then yield.
                            idle_polls += 1;
                            let poll_sleep = Duration::from_millis(5);
                            if poll_sleep * idle_polls >= HEARTBEAT {
                                write_frame_codec(
                                    &mut conn,
                                    &Frame::Heartbeat { seq: last_seq },
                                    WireCodec::Binary,
                                    &mut scratch,
                                )?;
                                report.heartbeats_sent += 1;
                                idle_polls = 0;
                            }
                            std::thread::sleep(poll_sleep);
                            continue;
                        }
                        SourcePoll::Exhausted => {
                            source_done = true;
                            continue;
                        }
                    }
                }

                // Top up a batch: pull whatever the source has ready — no
                // sleeping, the queue already holds data to send — until a
                // frame's worth is queued. An unbatched agent (batch
                // target one) never enters this: it polls the source only
                // when the queue is empty.
                while batch_target > 1 && !source_done && queue.len() < batch_target {
                    match source.next_sample() {
                        SourcePoll::Ready(s) => {
                            let warmup = s.warmup;
                            last_seq = s.seq;
                            let ws = sampler.wire_sample(s);
                            if !warmup {
                                report.samples_produced += 1;
                                report.queue_dropped +=
                                    push_bounded(&mut queue, ws, QUEUE_CAPACITY);
                            }
                            idle_polls = 0;
                        }
                        SourcePoll::Idle => break,
                        SourcePoll::Exhausted => source_done = true,
                    }
                }

                // The queue is non-empty here (the refill branch above
                // `continue`s otherwise), but a `let-else` keeps this
                // loop panic-free by construction.
                let Some(ws) = queue.front() else { continue };
                let seq = ws.seq;
                if cfg.schedule.reconnect_before.contains(&seq) && sched_reconnected.insert(seq) {
                    break SessionEnd::Reconnect;
                }
                if cfg.schedule.drops(seq) {
                    queue.pop_front();
                    report.frames_dropped += 1;
                    continue;
                }

                // The front sample passed its gates; extend the frame with
                // queued successors, replaying the per-sample gate sequence
                // of one-sample frames. Extension stops at the batch cap
                // and at an untaken scheduled-reconnect point — every place
                // the sequential loop would have stopped sending. Nothing
                // leaves the queue until the write succeeds: a sequential
                // sender would never have examined a sample past a failed
                // send, and the retry reaches the same verdicts because
                // they depend on the sequence alone.
                let mut members: Vec<WireSample> = vec![ws.clone()];
                let mut taken: usize = 1; // queue entries the frame settles
                for item in queue.iter().skip(1) {
                    let untaken_reconnect = cfg.schedule.reconnect_before.contains(&item.seq)
                        && !sched_reconnected.contains(&item.seq);
                    if members.len() >= batch_target || untaken_reconnect {
                        break;
                    }
                    taken += 1;
                    if !cfg.schedule.drops(item.seq) {
                        members.push(item.clone());
                    }
                }
                let sent = members.len() as u64;
                let frame = if sent == 1 {
                    let Some(one) = members.pop() else { continue };
                    Frame::Sample(one)
                } else {
                    Frame::SampleBatch(members)
                };
                if write_frame_codec(&mut conn, &frame, WireCodec::Binary, &mut scratch).is_err() {
                    // Everything stays queued; resend on the next session.
                    break SessionEnd::Reconnect;
                }
                queue.drain(..taken);
                report.frames_sent += sent;
                report.frames_dropped += taken as u64 - sent;
            };
            done.store(true, Ordering::Relaxed);
            // However the session ended, half-close and let the ack
            // reader run to the collector's EOF (it closes its side on
            // `Bye` and on end-of-stream alike). Closing with acks
            // unread resets the connection, and a reset discards frames
            // still in the collector's receive queue.
            let _ = conn.shutdown_write();
            let (acks, rejects) = ack_reader
                .join()
                .map_err(|_| io::Error::other("ack reader panicked"))?;
            report.acks_received += acks;
            report.rejects_received += rejects;
            Ok(end)
        })?;

        match end {
            SessionEnd::Done => return Ok(report),
            SessionEnd::Reconnect => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(!s.is_empty());
        assert!(FaultSchedule::NONE.is_empty());
    }

    #[test]
    fn a_terminal_reject_is_not_retried() {
        use crate::transport::Listener;
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

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
