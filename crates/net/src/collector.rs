//! The front-end collector: accept one connection per tier, reassemble
//! per-second samples into per-window digests, quarantine any window
//! touched by loss or reconnection, and score the surviving windows
//! with the online meter.
//!
//! The reassembly rules live in [`crate::reassembly`] (see its module
//! docs for the gap semantics). The [`Assembler`] here is the K=1
//! fleet: one [`TierDigester`] per tier, a per-window join of their
//! digests, and [`score_window`] on every complete, unpoisoned pair.
//! Because a window only completes when *both* tiers have delivered
//! *all* of its keys, every poisoning event for a window is observed
//! before the window could complete — a window is never un-emitted. The
//! emitted decision stream is therefore a pure function of the two
//! per-tier frame sequences, which is what lets the fault-injection
//! test demand byte-identical JSON against an in-process replay.
//!
//! The socketed collector is **one thread**: `pump_events` is the poll
//! loop — accept and handshake, read each tier's lane, decode,
//! reassemble, decide, queue acks, flush — and calls its one handler,
//! [`run_supervised_collector`](crate::supervisor::run_supervised_collector)'s,
//! directly for every event.
//! There is no queue between the socket and the meter, so the only
//! buffers that grow with a slow consumer are the lanes' own, bounded
//! by [`CollectorConfig::max_lane_buffered_bytes`]; past that the
//! kernel's socket buffers fill and the overload is the agents' — a
//! blocked `write`, then their bounded queues (see [`crate::agent`]).
//! One collector decodes and decides in under a microsecond per sample,
//! far more than the paper's deployment (one agent per tier, one front
//! end) ever sends it, so no threads run inside it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Write};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use webcap_core::{CapacityMeter, OnlineDecision};
use webcap_sim::TierId;

use crate::frame::{
    append_frame, metric_schema_hash, read_frame, write_frame, Frame, FrameBuf, TierWindowDigest,
    WireSample, PROTO_VERSION,
};
use crate::reassembly::{score_window, DigesterState, TierDigester};
use crate::transport::{is_timeout, Conn, Listener};

/// Collector runtime configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Second-key of the first sample of the deployment's stream
    /// (`round(t_s)` of sequence 0); anchors window boundaries. The
    /// simulator's first per-second sample ends at `t = 1 s`.
    pub window_origin: i64,
    /// Stop when no events arrive for this long and no session is
    /// active.
    pub idle_timeout: Duration,
    /// Number of distinct tiers expected to say `Bye` before the
    /// collector concludes the run.
    pub expected_tiers: usize,
    /// Overload bound on each lane's buffered bytes, in *both*
    /// directions: a poll round stops reading once this much inbound is
    /// buffered unparsed (fairness against a blasting peer), and a lane
    /// whose outbound ack backlog exceeds it — a peer that writes but
    /// never reads — is shed. Must comfortably exceed one maximum frame
    /// (`MAX_FRAME_LEN` + header) or legitimate frames could never
    /// complete; the default is twice that.
    pub max_lane_buffered_bytes: usize,
    /// Overload bound on a lane that sits mid-frame without completing
    /// one: after this many consecutive poll rounds holding a partial
    /// frame and extracting nothing, the lane is shed. This is the
    /// accumulated-idle defence against half-open peers (silent after a
    /// partial header) and hostile slow writers (dribbling bytes so the
    /// plain idle clock never fires) — both previously pinned a lane
    /// forever whenever another lane kept the pump busy. The default
    /// matches [`READ_TIMEOUT`] at the 1 ms poll cadence.
    pub stall_poll_budget: u32,
}

/// Read timeout for the handshake `Hello`.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Per-connection read timeout; a session silent for longer (no
/// samples, no heartbeats) is dropped.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Overload bound on handshaken connections queued behind a tier's live
/// session; beyond it new dials are shed (closed) instead of growing
/// the queue — a redial storm must not grow memory.
pub const MAX_WAITING_CONNS: usize = 8;

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            window_origin: 1,
            idle_timeout: Duration::from_secs(10),
            expected_tiers: 2,
            max_lane_buffered_bytes: 2 * (crate::frame::MAX_FRAME_LEN + 8),
            stall_poll_budget: 2000,
        }
    }
}

/// Why the collector shed a connection (or a dial) under overload. Every
/// shed is deliberate and accounted: the affected tier's in-flight
/// window is quarantined exactly like loss, never silently averaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedKind {
    /// The peer's outbound (ack) backlog exceeded the lane byte bound —
    /// it writes but never reads.
    WriteBacklog,
    /// The lane sat mid-frame past the stall budget — a half-open peer
    /// or a hostile slow writer.
    StalledFrame,
    /// A handshaken dial arrived with the tier's waiting queue already
    /// full.
    DialBacklog,
}

impl std::fmt::Display for ShedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedKind::WriteBacklog => "write-backlog",
            ShedKind::StalledFrame => "stalled-frame",
            ShedKind::DialBacklog => "dial-backlog",
        })
    }
}

/// The unsharded reassembly state machine, single-threaded and fully
/// deterministic — the
/// [`SupervisedCollector`](crate::supervisor::SupervisedCollector)
/// drives it, and unit tests drive it directly. It is the K=1 fleet in one struct: a
/// [`TierDigester`] per tier, a join of their digests per window, and
/// [`score_window`] on each pair.
#[derive(Debug)]
pub struct Assembler {
    meter: CapacityMeter,
    window_len: i64,
    digesters: [TierDigester; 2],
    /// The digest of each window one tier has completed while the other
    /// tier's half is still in flight.
    halves: BTreeMap<i64, TierWindowDigest>,
    /// Union of both tiers' verdicts plus windows that failed scoring.
    poisoned: BTreeSet<i64>,
    prev_fed: Option<i64>,
    emitted: BTreeSet<i64>,
    /// Surprises of the join itself; the digesters count their own.
    anomalies: u64,
    samples_seen: u64,
    decisions_made: u64,
}

impl Assembler {
    /// Wrap a trained meter; `origin` is the key of the stream's first
    /// sample (see [`CollectorConfig::window_origin`]).
    pub fn new(meter: CapacityMeter, origin: i64) -> Assembler {
        let window_len = meter.config().window_len as i64;
        Assembler {
            meter,
            window_len,
            digesters: TierId::ALL.map(|tier| TierDigester::new(tier, window_len, origin)),
            halves: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            prev_fed: None,
            emitted: BTreeSet::new(),
            anomalies: 0,
            samples_seen: 0,
            decisions_made: 0,
        }
    }

    /// Note a (re)connection on `tier`.
    pub fn on_session_start(&mut self, tier: TierId) {
        tier.select_mut(&mut self.digesters).on_session_start();
    }

    /// Feed one received sample; emitted decisions go to `sink`.
    pub fn on_sample(
        &mut self,
        tier: TierId,
        ws: WireSample,
        sink: &mut dyn FnMut(i64, &OnlineDecision),
    ) {
        tier.select_mut(&mut self.digesters).on_sample(ws);
        self.join(tier, sink);
    }

    /// A tier finished cleanly, announcing its final sequence; detect
    /// trailing loss (frames dropped after the last one we received).
    pub fn on_bye(&mut self, tier: TierId, last_seq: u64) {
        tier.select_mut(&mut self.digesters).on_bye(last_seq);
        self.join(tier, &mut |_, _| {});
    }

    /// A tier's session ended *abnormally* (no `Bye`): its in-flight
    /// window is quarantined at once (see
    /// [`TierDigester::on_session_abort`]).
    pub fn on_session_abort(&mut self, tier: TierId) {
        tier.select_mut(&mut self.digesters).on_session_abort();
        self.join(tier, &mut |_, _| {});
    }

    fn poison(&mut self, window: i64) {
        if self.poisoned.insert(window) {
            self.halves.remove(&window);
        }
    }

    /// Absorb what `tier`'s digester produced in the last event: its
    /// verdicts first (within one event every poisoning precedes any
    /// completion), then each completed digest — held until the other
    /// tier's half of the window arrives, scored when it does.
    fn join(&mut self, tier: TierId, sink: &mut dyn FnMut(i64, &OnlineDecision)) {
        let digester = tier.select_mut(&mut self.digesters);
        let (poisons, ready) = (digester.take_new_poisons(), digester.take_ready());
        for window in poisons {
            self.poison(window);
        }
        for digest in ready {
            let window = digest.window;
            if self.poisoned.contains(&window) {
                continue;
            }
            let Some(other) = self.halves.remove(&window) else {
                self.halves.insert(window, digest);
                continue;
            };
            let (app, db) = match tier {
                TierId::App => (digest, other),
                TierId::Db => (other, digest),
            };
            match score_window(&mut self.meter, &mut self.prev_fed, app, db) {
                Some(decision) => {
                    self.emitted.insert(window);
                    self.samples_seen += self.window_len as u64;
                    self.decisions_made += 1;
                    sink(window, &decision);
                }
                None => {
                    // A digester never completes an application window
                    // without front-end evidence; quarantine rather
                    // than trust a pair that cannot be scored.
                    self.anomalies += 1;
                    self.poison(window);
                }
            }
        }
    }

    /// Windows quarantined so far.
    pub fn poisoned_windows(&self) -> Vec<i64> {
        self.poisoned.iter().copied().collect()
    }

    /// How many windows are quarantined so far.
    pub fn poisoned_count(&self) -> usize {
        self.poisoned.len()
    }

    /// Windows with partial data still buffered.
    pub fn pending_windows(&self) -> Vec<i64> {
        let pending: BTreeSet<i64> = self
            .digesters
            .iter()
            .filter_map(TierDigester::pending_window)
            .chain(self.halves.keys().copied())
            .filter(|w| !self.poisoned.contains(w))
            .collect();
        pending.into_iter().collect()
    }

    /// Protocol-order surprises counted.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
            + self
                .digesters
                .iter()
                .map(TierDigester::anomalies)
                .sum::<u64>()
    }

    /// Lifetime counters `(samples_seen, decisions_made)` of the
    /// decision stream — `window_len` samples per emitted window — what
    /// a snapshot persists.
    pub fn monitor_counters(&self) -> (u64, u64) {
        (self.samples_seen, self.decisions_made)
    }

    /// The trained meter (read-only, for snapshotting).
    pub fn meter(&self) -> &CapacityMeter {
        &self.meter
    }

    /// Capture the boundary-persistent reassembly state for a snapshot.
    ///
    /// Partial windows (the digesters' accumulators, unjoined halves)
    /// are deliberately *not* captured, for the reason
    /// `TierDigester::export_state` gives. What must survive is the
    /// per-tier stream position (`last_key`, `had_session`), the
    /// scoring continuity marker (`prev_fed`), and the emitted/poisoned
    /// ledgers that keep a restarted collector from re-emitting or
    /// un-poisoning a window.
    pub fn export_state(&self) -> AssemblerState {
        let states = self.digesters.each_ref().map(TierDigester::export_state);
        AssemblerState {
            last_key: states.each_ref().map(|s| s.last_key),
            had_session: states.each_ref().map(|s| s.had_session),
            prev_fed: self.prev_fed,
            emitted: self.emitted.iter().copied().collect(),
            poisoned: self.poisoned.iter().copied().collect(),
            anomalies: self.anomalies(),
        }
    }

    /// Rebuild an assembler from a snapshot: a fresh assembler around
    /// the persisted meter, with the boundary state restored and every
    /// tier's digester resumed with its straddle rules armed — so each
    /// tier's first post-restart sample runs the same rules as a
    /// mid-run reconnect. A restart at a window boundary therefore
    /// continues byte-identically; a restart mid-window quarantines
    /// exactly the cut windows.
    pub fn resume(
        meter: CapacityMeter,
        origin: i64,
        state: &AssemblerState,
        samples_seen: u64,
        decisions_made: u64,
    ) -> Assembler {
        let mut a = Assembler::new(meter, origin);
        let window_len = a.window_len;
        a.digesters = TierId::ALL.map(|tier| {
            let per_tier = DigesterState {
                tier,
                last_key: *tier.select(&state.last_key),
                had_session: *tier.select(&state.had_session),
                completed: state.emitted.clone(),
                poisoned: state.poisoned.clone(),
                anomalies: 0,
            };
            TierDigester::resume(&per_tier, window_len, origin)
        });
        a.prev_fed = state.prev_fed;
        a.emitted = state.emitted.iter().copied().collect();
        a.poisoned = state.poisoned.iter().copied().collect();
        a.anomalies = state.anomalies;
        a.samples_seen = samples_seen;
        a.decisions_made = decisions_made;
        a
    }
}

/// The part of [`Assembler`] state that survives a collector restart
/// (see [`Assembler::export_state`] for what is excluded and why).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssemblerState {
    /// Last key received per tier.
    pub last_key: [Option<i64>; 2],
    /// Whether each tier ever had a session.
    pub had_session: [bool; 2],
    /// The window most recently scored, if the decision stream is
    /// continuous.
    pub prev_fed: Option<i64>,
    /// Windows already emitted (never to be re-emitted).
    pub emitted: Vec<i64>,
    /// Windows quarantined (never to be trusted).
    pub poisoned: Vec<i64>,
    /// Protocol-order surprises counted so far.
    pub anomalies: u64,
}

// Not boxed: the pump hands each event to its handler by value, on the
// same stack, and a `Box` would put an allocation back on every sample.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Event {
    SessionStart {
        tier: TierId,
    },
    Sample {
        tier: TierId,
        ws: WireSample,
    },
    Bye {
        tier: TierId,
        last_seq: u64,
    },
    /// A session ended. `graceful` is true only when the peer said
    /// `Bye`; an abnormal end (EOF, shed, stall) quarantines the
    /// tier's in-flight window via [`Assembler::on_session_abort`].
    SessionEnd {
        tier: TierId,
        graceful: bool,
    },
    /// The overload policy dropped a connection or dial.
    Shed {
        tier: TierId,
        kind: ShedKind,
    },
    Rejected,
    /// Synthesized by [`pump_events`]: nothing was delivered within the
    /// idle timeout while sessions were live.
    Stale,
}

/// Handshake an accepted connection: expect `Hello`, check its version
/// and schema, answer `Ack{0}` or `Reject`. Returns the agent's tier.
///
/// Only `PROTO_VERSION` is accepted; any other version is rejected with
/// a frame carrying both peers' versions so the operator can see who
/// needs upgrading. Bytes that are no frame at all — a pre-v4 JSON
/// `Hello` under the `"WCAP"` magic among them — earn a `Reject` naming
/// the parse failure.
pub(crate) fn handshake(conn: &mut Conn) -> io::Result<TierId> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    // Turn the peer away: tell it why (best effort — it may still be
    // listening), and fail the handshake with the same reason.
    let reject = |conn: &mut Conn, reason: String, theirs: u32| {
        let _ = write_frame(
            conn,
            &Frame::Reject {
                reason: reason.clone(),
                ours: PROTO_VERSION,
                theirs,
            },
        );
        io::Error::new(io::ErrorKind::InvalidData, reason)
    };
    let hello = match read_frame(conn) {
        Ok(frame) => frame,
        Err(e) => {
            // A peer speaking bytes we cannot parse gets a Reject
            // before the connection drops; a transport error gets
            // nothing — the peer is gone.
            if e.is_corrupt() {
                reject(conn, format!("malformed handshake: {e}"), 0);
            }
            return Err(e.into());
        }
    };
    let Frame::Hello {
        tier,
        proto_version,
        metric_schema_hash: hash,
        caps: _,
    } = hello
    else {
        return Err(reject(conn, "expected Hello".to_string(), 0));
    };
    if proto_version != PROTO_VERSION {
        let reason =
            format!("protocol version {proto_version} is not the supported {PROTO_VERSION}");
        return Err(reject(conn, reason, proto_version));
    }
    let expected_hash = metric_schema_hash(tier);
    if hash != expected_hash {
        let reason = format!(
            "metric schema hash {hash:#018x} != {expected_hash:#018x} for {}",
            tier.label()
        );
        return Err(reject(conn, reason, proto_version));
    }
    write_frame(conn, &Frame::Ack { seq: 0 })?;
    Ok(tier)
}

/// Why a live session ended, as the pump observed it.
enum LaneEnd {
    /// Peer said `Bye`, hit EOF, went silent past the read timeout, or
    /// sent a frame kind that has no business mid-session.
    Closed,
    /// The overload policy dropped the session; announce the shed
    /// before the (abnormal) session end.
    Shed(ShedKind),
}

/// One tier's live connection inside the pump: the nonblocking socket
/// plus its frame-reassembly and pending-write buffers. All buffers are
/// reused for the connection's lifetime — servicing a frame on the
/// steady path allocates nothing beyond the decoded `Frame` itself.
struct ConnState {
    conn: Conn,
    tier: TierId,
    /// Inbound bytes not yet parsed into frames.
    rbuf: FrameBuf,
    /// Outbound bytes the socket has not yet accepted.
    wbuf: Vec<u8>,
    /// Accumulated pump sleep since this connection last produced
    /// bytes — the event-loop stand-in for a blocking read timeout.
    idle: Duration,
    /// Consecutive poll rounds spent holding a partial frame without
    /// completing one. The plain `idle` clock only accumulates while
    /// the *whole* pump sleeps, so a half-open or dribbling peer
    /// could sit mid-frame forever whenever another lane kept the loop
    /// busy; this counter accrues per round regardless and sheds the
    /// lane at [`CollectorConfig::stall_poll_budget`].
    stalled_polls: u32,
    /// The peer said `Bye`: the close that follows is graceful and must
    /// not quarantine the in-flight window.
    graceful: bool,
}

impl ConnState {
    fn new(conn: Conn, tier: TierId) -> ConnState {
        ConnState {
            conn,
            tier,
            rbuf: FrameBuf::default(),
            wbuf: Vec::new(),
            idle: Duration::ZERO,
            stalled_polls: 0,
            graceful: false,
        }
    }

    /// Queue `frame`'s wire bytes behind the unsent ones. A frame over
    /// the length cap is not queued — only a `Reject` with a runaway
    /// reason could be one, and it ends the session anyway.
    fn queue_frame(&mut self, frame: &Frame) {
        let _ = append_frame(frame, &mut self.wbuf);
    }

    /// Push queued bytes to the socket until it stops accepting them.
    /// `Ok(())` means "no fatal error" — bytes may remain queued.
    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.conn.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// End the session: flush what the socket will still take, close
    /// it, and announce the end.
    fn close(mut self, events: &mut Delivery<impl FnMut(Event)>) {
        let _ = self.flush();
        let _ = self.conn.shutdown();
        events.deliver(Event::SessionEnd {
            tier: self.tier,
            graceful: self.graceful,
        });
    }
}

/// One tier's slot in the pump: at most one live session, plus
/// handshaken replacements waiting for the live one to finish. Sessions
/// stay serialized **per tier** — a replacement is promoted only after
/// the previous session's `SessionEnd` — so the assembler sees each
/// tier's events in connection order.
#[derive(Default)]
struct TierLane {
    active: Option<ConnState>,
    waiting: VecDeque<Conn>,
}

/// The handler side of the pump: every event reaches `handle` through
/// [`deliver`](Self::deliver), which keeps the two facts the stop rules
/// read — which tiers have said `Bye`, and how long it has been quiet.
struct Delivery<H> {
    handle: H,
    expected_tiers: usize,
    byes: BTreeSet<usize>,
    /// Accumulated pump sleep since the last delivered event.
    quiet: Duration,
}

impl<H: FnMut(Event)> Delivery<H> {
    /// Every expected tier has said `Bye`: the run is over, and nothing
    /// more is delivered.
    fn done(&self) -> bool {
        self.byes.len() >= self.expected_tiers
    }

    fn deliver(&mut self, event: Event) {
        if self.done() {
            return;
        }
        if let Event::Bye { tier, .. } = &event {
            self.byes.insert(tier.index());
        }
        self.quiet = Duration::ZERO;
        (self.handle)(event);
    }
}

/// Service one live connection: read whatever the socket has, parse
/// every complete frame and hand its events over, flush pending acks.
/// Returns how the session ended, or `None` while it stays live.
fn service_conn(
    state: &mut ConnState,
    cfg: &CollectorConfig,
    events: &mut Delivery<impl FnMut(Event)>,
) -> Option<LaneEnd> {
    // Overload fairness: once a full lane budget of bytes is buffered
    // unparsed, stop reading and process what we have — a peer blasting
    // faster than we drain must not starve the other lanes (or grow
    // the buffer without bound this round).
    let mut eof = false;
    while state.rbuf.buffered() < cfg.max_lane_buffered_bytes {
        match state.rbuf.fill(&mut state.conn) {
            Ok(()) => state.idle = Duration::ZERO,
            Err(e) => {
                eof = !e.is_timeout();
                break;
            }
        }
    }

    // Parse every complete frame buffered so far. The early returns
    // below end the session, so they leave the buffer as it is.
    let mut extracted = false;
    loop {
        let frame = match state.rbuf.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                // A corrupt frame earns the peer a Reject naming the
                // parse failure before the session drops.
                state.queue_frame(&Frame::Reject {
                    reason: format!("unreadable frame: {e}"),
                    ours: PROTO_VERSION,
                    theirs: 0,
                });
                return Some(LaneEnd::Closed);
            }
        };
        extracted = true;
        let tier = state.tier;
        match frame {
            Frame::Sample(ws) => {
                let seq = ws.seq;
                events.deliver(Event::Sample { tier, ws });
                state.queue_frame(&Frame::Ack { seq });
            }
            Frame::SampleBatch(batch) => {
                // A batch is exactly its samples in order: one event and
                // one ack per element, indistinguishable downstream from
                // the same samples sent one frame each.
                for ws in batch {
                    let seq = ws.seq;
                    events.deliver(Event::Sample { tier, ws });
                    state.queue_frame(&Frame::Ack { seq });
                }
            }
            Frame::Heartbeat { seq } => {
                state.queue_frame(&Frame::Ack { seq });
            }
            Frame::Bye { last_seq } => {
                state.graceful = true;
                events.deliver(Event::Bye { tier, last_seq });
                return Some(LaneEnd::Closed);
            }
            // Nothing else belongs on an established agent session.
            Frame::Hello { .. } | Frame::Ack { .. } | Frame::Reject { .. } | Frame::Digest(_) => {
                return Some(LaneEnd::Closed)
            }
        }
    }

    // Stall accounting: a lane holding a partial frame that completed
    // nothing this round is mid-frame stalled — whether the peer is
    // half-open (silent after a partial header) or dribbling bytes to
    // dodge the idle clock. Unlike `idle`, this counter accrues every
    // service round even while other lanes keep the pump busy.
    if extracted || state.rbuf.buffered() == 0 {
        state.stalled_polls = 0;
    } else {
        state.stalled_polls = state.stalled_polls.saturating_add(1);
        if state.stalled_polls >= cfg.stall_poll_budget {
            state.queue_frame(&Frame::Reject {
                reason: format!(
                    "overload: mid-frame stall past {} poll rounds",
                    cfg.stall_poll_budget
                ),
                ours: PROTO_VERSION,
                theirs: 0,
            });
            let _ = state.flush();
            return Some(LaneEnd::Shed(ShedKind::StalledFrame));
        }
    }

    if state.flush().is_err() {
        return Some(LaneEnd::Closed);
    }
    // A peer that writes but never reads grows `wbuf` without bound; a
    // full lane budget of unacknowledged outbound bytes is a shed, not
    // a block — the collector never waits on a hostile socket.
    if state.wbuf.len() > cfg.max_lane_buffered_bytes {
        return Some(LaneEnd::Shed(ShedKind::WriteBacklog));
    }
    if eof || state.idle >= READ_TIMEOUT {
        return Some(LaneEnd::Closed);
    }
    None
}

/// The socketed collector's event pump — one poll loop on the caller's
/// thread that owns `listener` and every
/// connection and hands each event to `handle` by direct call, in
/// arrival order. A round accepts and handshakes whoever is waiting
/// (synchronously: handshakes are short and bounded by
/// [`HANDSHAKE_TIMEOUT`]), services each tier's live session — read,
/// decode, `handle`, queue acks, flush once — and sleeps a millisecond.
/// While `handle` runs nothing is read, so a slow handler fills the
/// lane's socket, not a queue: memory stays bounded by
/// [`CollectorConfig::max_lane_buffered_bytes`] and the overload
/// reaches the agent, as a blocked `write`, through TCP flow control.
///
/// The pump stops once every expected tier has said `Bye` — nothing is
/// delivered after the event that completes the set — or when the
/// listener fails, or when nothing has been delivered for
/// `idle_timeout` and no session is live; with sessions live that
/// silence is delivered as [`Event::Stale`] instead. Both idle clocks —
/// this one and each lane's — count the pump's own sleeps, not wall
/// time. Whatever is still connected at the end is flushed and closed.
pub(crate) fn pump_events(listener: Listener, cfg: &CollectorConfig, handle: impl FnMut(Event)) {
    let _ = listener.set_nonblocking(true);
    let mut lanes: [TierLane; 2] = [TierLane::default(), TierLane::default()];
    let mut events = Delivery {
        handle,
        expected_tiers: cfg.expected_tiers,
        byes: BTreeSet::new(),
        quiet: Duration::ZERO,
    };
    let poll_sleep = Duration::from_millis(1);

    'poll: while !events.done() {
        // Phase 1: accept and handshake every waiting connection.
        loop {
            let mut conn = match listener.accept() {
                Ok(c) => c,
                Err(e) if is_timeout(&e) => break,
                Err(_) => break 'poll,
            };
            match handshake(&mut conn) {
                Ok(tier) => {
                    if conn.set_nonblocking(true).is_err() {
                        let _ = conn.shutdown();
                        continue;
                    }
                    let Some(lane) = lanes.get_mut(tier.index()) else {
                        let _ = conn.shutdown();
                        continue;
                    };
                    if lane.waiting.len() >= MAX_WAITING_CONNS {
                        // Redial storm: shed the newest dial instead of
                        // growing the queue. The peer sees a clean close
                        // and retries on its own backoff schedule.
                        let _ = conn.shutdown();
                        let kind = ShedKind::DialBacklog;
                        events.deliver(Event::Shed { tier, kind });
                        continue;
                    }
                    lane.waiting.push_back(conn);
                }
                Err(_) => {
                    events.deliver(Event::Rejected);
                    let _ = conn.shutdown();
                }
            }
        }

        // Phase 2: service live sessions and promote replacements.
        let mut progressed = false;
        for (lane, tier) in lanes.iter_mut().zip(TierId::ALL) {
            if let Some(state) = lane.active.as_mut() {
                if let Some(end) = service_conn(state, cfg, &mut events) {
                    // A shed is announced before the session end so
                    // the supervisor sees the overload cause first;
                    // a shed close is never graceful — the assembler
                    // quarantines the lane's in-flight window.
                    if let LaneEnd::Shed(kind) = end {
                        events.deliver(Event::Shed { tier, kind });
                    }
                    if let Some(state) = lane.active.take() {
                        state.close(&mut events);
                    }
                    progressed = true;
                }
            }
            if lane.active.is_none() {
                if let Some(conn) = lane.waiting.pop_front() {
                    events.deliver(Event::SessionStart { tier });
                    lane.active = Some(ConnState::new(conn, tier));
                    progressed = true;
                }
            }
        }

        if !progressed {
            std::thread::sleep(poll_sleep);
            for lane in lanes.iter_mut() {
                if let Some(state) = lane.active.as_mut() {
                    state.idle += poll_sleep;
                }
            }
            events.quiet += poll_sleep;
            if events.quiet >= cfg.idle_timeout {
                if lanes.iter().all(|lane| lane.active.is_none()) {
                    break;
                }
                events.deliver(Event::Stale);
            }
        }
    }

    // Teardown: flush and close whatever is still connected so peers
    // see a clean shutdown. Each end is announced unless the `Bye` set
    // is what stopped the pump.
    for lane in lanes.iter_mut() {
        if let Some(state) = lane.active.take() {
            state.close(&mut events);
        }
        while let Some(conn) = lane.waiting.pop_front() {
            let _ = conn.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcap_core::MeterConfig;
    use webcap_sim::TierSample;

    fn tiny_assembler(window_len: usize) -> Assembler {
        // One shared trained meter (training is seconds, cloning is
        // cheap); every test here uses the default 30-sample window.
        static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
        let meter = METER
            .get_or_init(|| {
                CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
            })
            .clone();
        assert_eq!(meter.config().window_len, window_len, "shared test meter");
        Assembler::new(meter, 1)
    }

    fn wire(seq: u64, with_app: bool) -> WireSample {
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
            app: with_app.then(|| crate::frame::AppStats {
                ebs_target: 10,
                ebs_active: 10,
                mix_id: webcap_tpcw::MixId::Ordering,
                issued: 20,
                issued_browse: 10,
                completed: 20,
                completed_browse: 10,
                response_time_sum_s: 2.0,
                response_time_max_s: 0.4,
                in_flight: 1,
                response_times: webcap_sim::RtHistogram::new(),
            }),
        }
    }

    #[test]
    fn complete_windows_emit_and_gaps_poison() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        // Window 0 complete on both tiers; window 1 has a one-frame gap
        // on the DB tier (seq 35 dropped); window 2 complete again.
        for seq in 0..90u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            a.on_sample(TierId::App, wire(seq, true), &mut sink);
            if seq != 35 {
                a.on_sample(TierId::Db, wire(seq, false), &mut sink);
            }
        }
        a.on_bye(TierId::App, 89);
        a.on_bye(TierId::Db, 89);
        assert_eq!(emitted, vec![0, 2]);
        assert_eq!(a.poisoned_windows(), vec![1]);
        assert_eq!(a.pending_windows(), Vec::<i64>::new());
        assert_eq!(a.anomalies(), 0);
    }

    #[test]
    fn reconnect_mid_window_poisons_the_straddled_window() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        for seq in 0..90u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            if seq == 40 {
                // The APP agent reconnects between seq 39 and 40 — both
                // inside window 1 — losing nothing, but the session
                // boundary still quarantines the straddled window.
                a.on_session_start(TierId::App);
            }
            a.on_sample(TierId::App, wire(seq, true), &mut sink);
            a.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        a.on_bye(TierId::App, 89);
        a.on_bye(TierId::Db, 89);
        assert_eq!(emitted, vec![0, 2]);
        assert_eq!(a.poisoned_windows(), vec![1]);
    }

    #[test]
    fn reconnect_on_a_window_boundary_poisons_nothing() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        for seq in 0..60u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            if seq == 30 {
                // Clean break exactly between windows 0 and 1.
                a.on_session_start(TierId::Db);
            }
            a.on_sample(TierId::App, wire(seq, true), &mut sink);
            a.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        assert_eq!(emitted, vec![0, 1]);
        assert!(a.poisoned_windows().is_empty());
    }

    #[test]
    fn trailing_loss_is_detected_at_bye() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        // DB tier's last two frames (seqs 58, 59) never arrive; its Bye
        // announces last_seq 59, exposing the trailing gap.
        for seq in 0..60u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            a.on_sample(TierId::App, wire(seq, true), &mut sink);
            if seq < 58 {
                a.on_sample(TierId::Db, wire(seq, false), &mut sink);
            }
        }
        a.on_bye(TierId::App, 59);
        a.on_bye(TierId::Db, 59);
        assert_eq!(emitted, vec![0]);
        assert_eq!(a.poisoned_windows(), vec![1]);
    }

    #[test]
    fn leading_loss_poisons_the_first_window() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        // The APP tier's very first frame went missing.
        for seq in 0..60u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            if seq != 0 {
                a.on_sample(TierId::App, wire(seq, true), &mut sink);
            }
            a.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        assert_eq!(emitted, vec![1]);
        assert_eq!(a.poisoned_windows(), vec![0]);
    }

    #[test]
    fn boundary_resume_replays_byte_identically() {
        // Uninterrupted run over two windows...
        let mut full = tiny_assembler(30);
        let mut full_decisions = Vec::new();
        full.on_session_start(TierId::App);
        full.on_session_start(TierId::Db);
        for seq in 0..60u64 {
            let mut sink = |w: i64, d: &OnlineDecision| {
                full_decisions.push((w, serde_json::to_string(d).unwrap()));
            };
            full.on_sample(TierId::App, wire(seq, true), &mut sink);
            full.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        // ...versus a crash exactly at the window-0 boundary.
        let mut first = tiny_assembler(30);
        let mut resumed_decisions = Vec::new();
        first.on_session_start(TierId::App);
        first.on_session_start(TierId::Db);
        for seq in 0..30u64 {
            let mut sink = |w: i64, d: &OnlineDecision| {
                resumed_decisions.push((w, serde_json::to_string(d).unwrap()));
            };
            first.on_sample(TierId::App, wire(seq, true), &mut sink);
            first.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        let state = first.export_state();
        let (seen, made) = first.monitor_counters();
        let meter = first.meter().clone();
        let mut second = Assembler::resume(meter, 1, &state, seen, made);
        // Restart means both agents reconnect.
        second.on_session_start(TierId::App);
        second.on_session_start(TierId::Db);
        for seq in 30..60u64 {
            let mut sink = |w: i64, d: &OnlineDecision| {
                resumed_decisions.push((w, serde_json::to_string(d).unwrap()));
            };
            second.on_sample(TierId::App, wire(seq, true), &mut sink);
            second.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        assert_eq!(full_decisions, resumed_decisions);
        assert!(second.poisoned_windows().is_empty());
        let (seen2, made2) = second.monitor_counters();
        assert_eq!((seen2, made2), (60, 2), "counters are cumulative");
    }

    #[test]
    fn mid_window_resume_quarantines_the_cut_window() {
        let mut first = tiny_assembler(30);
        let mut emitted = Vec::new();
        first.on_session_start(TierId::App);
        first.on_session_start(TierId::Db);
        // Crash mid-window-1 (after seq 44).
        for seq in 0..45u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            first.on_sample(TierId::App, wire(seq, true), &mut sink);
            first.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        let state = first.export_state();
        let (seen, made) = first.monitor_counters();
        let mut second = Assembler::resume(first.meter().clone(), 1, &state, seen, made);
        second.on_session_start(TierId::App);
        second.on_session_start(TierId::Db);
        for seq in 45..90u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            second.on_sample(TierId::App, wire(seq, true), &mut sink);
            second.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        second.on_bye(TierId::App, 89);
        second.on_bye(TierId::Db, 89);
        assert_eq!(emitted, vec![0, 2], "cut window 1 never emits");
        assert_eq!(second.poisoned_windows(), vec![1]);
    }

    #[test]
    fn app_sample_without_front_end_stats_poisons_not_panics() {
        let mut a = tiny_assembler(30);
        let mut emitted = Vec::new();
        a.on_session_start(TierId::App);
        a.on_session_start(TierId::Db);
        for seq in 0..30u64 {
            let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
            // Protocol violation: app tier omits AppStats.
            a.on_sample(TierId::App, wire(seq, false), &mut sink);
            a.on_sample(TierId::Db, wire(seq, false), &mut sink);
        }
        assert!(emitted.is_empty());
        assert_eq!(a.poisoned_windows(), vec![0]);
        assert!(a.anomalies() > 0);
    }

    // ------------------------------------------------------ the pump

    use crate::frame::{WireCaps, WireCodec};
    use crate::transport::Endpoint;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run `peers` against a fresh listener on a second thread and the
    /// pump on this one; returns what the handler saw, as text, with
    /// the thread each event was handled on.
    fn pump_with_peers(
        cfg: &CollectorConfig,
        peers: impl FnOnce(Endpoint) + Send,
        mut on_event: impl FnMut(&Event),
    ) -> Vec<(String, std::thread::ThreadId)> {
        let listener = Listener::bind(&Endpoint::parse("127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(move || peers(endpoint));
            pump_events(listener, cfg, |event| {
                on_event(&event);
                let text = match event {
                    Event::SessionStart { tier } => format!("start {tier:?}"),
                    Event::Sample { tier, ws } => format!("sample {tier:?} {}", ws.seq),
                    Event::Bye { tier, last_seq } => format!("bye {tier:?} {last_seq}"),
                    Event::SessionEnd { tier, graceful } => format!("end {tier:?} {graceful}"),
                    Event::Shed { tier, kind } => format!("shed {tier:?} {kind}"),
                    Event::Rejected => "rejected".to_string(),
                    Event::Stale => "stale".to_string(),
                };
                seen.push((text, std::thread::current().id()));
            });
        });
        seen
    }

    /// Dial and complete the handshake for `tier`.
    fn handshaken(endpoint: &Endpoint, tier: TierId) -> Conn {
        let mut conn = Conn::connect(endpoint).unwrap();
        let caps = WireCaps {
            codec: WireCodec::Binary,
            max_batch: 1,
        };
        let hello = Frame::Hello {
            tier,
            proto_version: PROTO_VERSION,
            metric_schema_hash: metric_schema_hash(tier),
            caps,
        };
        write_frame(&mut conn, &hello).unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), Frame::Ack { seq: 0 });
        conn
    }

    /// Read until the collector closes its side.
    fn read_to_eof(conn: &mut Conn) {
        while read_frame(conn).is_ok() {}
    }

    #[test]
    fn the_handler_runs_on_the_callers_thread_and_nothing_follows_the_final_bye() {
        let cfg = CollectorConfig {
            expected_tiers: 1,
            ..CollectorConfig::default()
        };
        let peers = |endpoint: Endpoint| {
            // A live App session, provably serviced: three samples, three
            // acks. It never says Bye and has a fourth sample in flight.
            let mut app = handshaken(&endpoint, TierId::App);
            for seq in 0..3 {
                write_frame(&mut app, &Frame::Sample(wire(seq, true))).unwrap();
            }
            for seq in 0..3 {
                assert_eq!(read_frame(&mut app).unwrap(), Frame::Ack { seq });
            }
            write_frame(&mut app, &Frame::Sample(wire(3, true))).unwrap();
            // The Db session completes the Bye set, with one more frame
            // behind the Bye in the same write.
            let mut db = handshaken(&endpoint, TierId::Db);
            let mut burst = Vec::new();
            write_frame(&mut burst, &Frame::Sample(wire(0, false))).unwrap();
            write_frame(&mut burst, &Frame::Bye { last_seq: 0 }).unwrap();
            write_frame(&mut burst, &Frame::Sample(wire(1, false))).unwrap();
            db.write_all(&burst).unwrap();
            read_to_eof(&mut db);
            read_to_eof(&mut app);
        };
        let seen = pump_with_peers(&cfg, peers, |_| {});

        let here = std::thread::current().id();
        assert!(seen.iter().all(|(_, thread)| *thread == here), "{seen:?}");
        let mut texts: Vec<&str> = seen.iter().map(|(text, _)| text.as_str()).collect();
        assert_eq!(
            texts.pop(),
            Some("bye Db 0"),
            "the final Bye is the last event"
        );
        // Whether the App lane's fourth sample beat the Bye is a race
        // the contract leaves open; everything else is fixed — no Db
        // sample 1, no SessionEnd for either lane.
        texts.retain(|text| *text != "sample App 3");
        let expected = [
            "start App",
            "sample App 0",
            "sample App 1",
            "sample App 2",
            "start Db",
            "sample Db 0",
        ];
        assert_eq!(texts, expected);
    }

    #[test]
    fn a_heartbeat_only_session_goes_stale_and_the_pump_keeps_running() {
        let cfg = CollectorConfig {
            expected_tiers: 1,
            idle_timeout: Duration::from_millis(50),
            ..CollectorConfig::default()
        };
        let stale = AtomicBool::new(false);
        let peers = |endpoint: Endpoint| {
            // Heartbeats keep the lane alive (each one is acked) but are
            // not events: heartbeat until the handler has seen `Stale`,
            // then finish. The cap only bounds the never-stale failure.
            let mut app = handshaken(&endpoint, TierId::App);
            for seq in 0..5_000 {
                if stale.load(Ordering::Acquire) {
                    break;
                }
                write_frame(&mut app, &Frame::Heartbeat { seq }).unwrap();
                assert_eq!(read_frame(&mut app).unwrap(), Frame::Ack { seq });
            }
            write_frame(&mut app, &Frame::Bye { last_seq: 0 }).unwrap();
            read_to_eof(&mut app);
        };
        let seen = pump_with_peers(&cfg, peers, |event| {
            if matches!(event, Event::Stale) {
                stale.store(true, Ordering::Release);
            }
        });

        let mut texts: Vec<&str> = seen.iter().map(|(text, _)| text.as_str()).collect();
        texts.dedup();
        assert_eq!(texts, ["start App", "stale", "bye App 0"]);
    }

    #[test]
    fn with_no_live_session_the_pump_returns_after_the_idle_timeout() {
        let cfg = CollectorConfig {
            idle_timeout: Duration::from_millis(50),
            ..CollectorConfig::default()
        };
        // Nobody dials: no event, and not before the clock ran out (the
        // clock counts sleeps, each at least as long as it counts for).
        let started = std::time::Instant::now();
        let seen = pump_with_peers(&cfg, |_| {}, |_| {});
        assert!(started.elapsed() >= cfg.idle_timeout);
        assert!(seen.is_empty(), "{seen:?}");

        // A session that came and went leaves nothing live either.
        let seen = pump_with_peers(
            &cfg,
            |endpoint| drop(handshaken(&endpoint, TierId::Db)),
            |_| {},
        );
        let texts: Vec<&str> = seen.iter().map(|(text, _)| text.as_str()).collect();
        assert_eq!(texts, ["start Db", "end Db false"]);
    }
}
