//! The front-end collector: accept one connection per tier, reassemble
//! per-second samples into per-window digests, quarantine any window
//! touched by loss or reconnection, score the surviving windows with
//! the online meter, and let those decisions steer admission while the
//! telemetry is healthy.
//!
//! The reassembly rules live in [`crate::reassembly`] (see its module
//! docs for the gap semantics), and the health state machine in
//! [`crate::supervisor`]. The [`Assembler`] here is the one collector:
//! the K=1 fleet — one [`TierDigester`] per tier, a per-window join of
//! their digests, and [`score_window`] on every complete, unpoisoned
//! pair — with a [`Supervisor`] fed where each verdict happens and an
//! [`AdmissionController`] the decisions drive while health allows.
//! Because a window only completes when *both* tiers have delivered
//! *all* of its keys, every poisoning event for a window is observed
//! before the window could complete — a window is never un-emitted. The
//! emitted decision stream is therefore a pure function of the two
//! per-tier frame sequences, which is what lets the fault-injection
//! test demand byte-identical JSON against an in-process replay.
//! Supervision never alters that stream: health only gates whether a
//! decision may move the admission cap.
//!
//! The socketed collector is **one thread**: `pump_events` is the poll
//! loop — accept and handshake, read each tier's lane, decode,
//! reassemble, decide — and calls its one handler,
//! [`run_supervised_collector`]'s, directly for every event. A lane
//! decodes each sample frame whole into sample slots it keeps from frame
//! to frame and lends the handler each member by reference, so its
//! steady path allocates nothing per frame or per sample. It writes to
//! an agent only the handshake's `Ack{0}` or `Reject` and, when it drops
//! a session, one best-effort `Reject`: a sample frame or a heartbeat
//! goes unanswered, so a peer that never reads has nothing to back up.
//! There is no queue between the socket and the meter, and a lane parses
//! after every read, so it buffers at most one read and a frame prefix;
//! a slow consumer leaves the kernel's socket buffers full instead, and
//! the overload is the agents' — a
//! blocked `write`, then their bounded queues (see [`crate::agent`]).
//! One collector decodes and decides in under a microsecond per sample,
//! far more than the paper's deployment (one agent per tier, one front
//! end) ever sends it, so no threads run inside it.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use webcap_core::{AdmissionController, CapacityMeter, MetricLevel, OnlineDecision};
use webcap_sim::TierId;

use crate::binary::{decode_frame_into, Decoded};
use crate::frame::{
    level_schema_hash, metric_schema_hash, read_frame, write_frame, Frame, FrameBuf,
    TierWindowDigest, WireSample, PROTO_VERSION,
};
use crate::reassembly::{score_window, TierDigester};
use crate::supervisor::{HealthState, HealthTransition, Supervisor, SupervisorConfig};
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
    /// Overload bound on each lane's inbound bytes per poll round: a
    /// round stops reading a lane once it has read this much (fairness
    /// against a blasting peer; the lane parses after every read, and a
    /// partial frame carries over to the next round). The default, two
    /// maximum frames, keeps a blasting lane's round long enough for
    /// throughput.
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
            ShedKind::StalledFrame => "stalled-frame",
            ShedKind::DialBacklog => "dial-backlog",
        })
    }
}

/// One admission step in the audit trace: which window, under which
/// health, whether the prediction was allowed to drive the cap, and the
/// cap after the step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionPoint {
    /// Window index the decision came from (or -1 for a SafeMode clamp
    /// not tied to a window).
    pub window: i64,
    /// Health at the moment of the step.
    pub health: HealthState,
    /// Whether the meter's prediction drove the cap (true only when
    /// Healthy).
    pub from_prediction: bool,
    /// Admission cap after the step.
    pub cap: u32,
}

/// End-of-run account of a collector.
#[derive(Debug)]
pub struct SupervisedReport {
    /// Emitted decisions, in window order.
    pub decisions: Vec<(i64, OnlineDecision)>,
    /// Windows quarantined by gaps or reconnections.
    pub poisoned_windows: Vec<i64>,
    /// Windows still partially buffered at shutdown.
    pub pending_windows: Vec<i64>,
    /// Protocol-order surprises survived.
    pub anomalies: u64,
    /// Sessions accepted per tier.
    pub sessions: [u64; 2],
    /// Sample frames received per tier.
    pub samples: [u64; 2],
    /// Connections refused at handshake.
    pub rejected_handshakes: u64,
    /// Connections (or dials) shed by the overload policy, with the
    /// reason for each — the audit trail the overload tests read.
    pub sheds: Vec<(TierId, ShedKind)>,
    /// Final health state.
    pub health: HealthState,
    /// The full health-transition log.
    pub transitions: Vec<HealthTransition>,
    /// The admission audit trace, one point per cap-affecting step.
    pub admission_trace: Vec<AdmissionPoint>,
    /// Admission cap at shutdown.
    pub final_cap: u32,
}

/// The admission cap a collector starts from (EBs), before any
/// prediction has moved it.
pub const INITIAL_CAP: u32 = 400;

/// The collector, single-threaded and fully deterministic given its
/// event sequence: [`run_supervised_collector`] drives it from the
/// socket pump, and tests drive it event by event. It is the K=1 fleet
/// in one struct — a [`TierDigester`] per tier, a join of their digests
/// per window, and [`score_window`] on each pair — under a
/// [`Supervisor`] and an [`AdmissionController`]: each poison, emission
/// and reconnect reaches the supervisor where it happens, and an
/// emitted decision drives the admission cap only while Healthy.
#[derive(Debug)]
pub struct Assembler {
    meter: CapacityMeter,
    digesters: [TierDigester; 2],
    /// The digest of each window one tier has completed while the other
    /// tier's half is still in flight.
    halves: BTreeMap<i64, TierWindowDigest>,
    /// Union of both tiers' verdicts plus windows that failed scoring.
    poisoned: BTreeSet<i64>,
    prev_fed: Option<i64>,
    /// Surprises of the join itself; the digesters count their own.
    anomalies: u64,
    supervisor: Supervisor,
    admission: AdmissionController,
    /// Health as of the last state-entry side effect.
    last_health: HealthState,
    sessions: [u64; 2],
    samples: [u64; 2],
    rejected: u64,
    sheds: Vec<(TierId, ShedKind)>,
    decisions: Vec<(i64, OnlineDecision)>,
    admission_trace: Vec<AdmissionPoint>,
}

impl Assembler {
    /// A collector as `webcap collect` builds one when given no flags:
    /// supervised under [`SupervisorConfig::default`].
    pub fn new(meter: CapacityMeter, origin: i64) -> Assembler {
        Assembler::start(meter, origin, SupervisorConfig::default())
    }

    /// A collector around a freshly loaded meter; `origin` is the key of
    /// the stream's first sample (see [`CollectorConfig::window_origin`]).
    /// It starts Healthy, admitting through the AIMD controller
    /// from [`INITIAL_CAP`]. Its digesters read the meter's families, so
    /// a full-width row is as valid as one that carries only those.
    pub fn start(meter: CapacityMeter, origin: i64, sup_cfg: SupervisorConfig) -> Assembler {
        let window_len = meter.config().window_len as i64;
        let level = meter.config().level;
        Assembler {
            meter,
            digesters: TierId::ALL.map(|tier| TierDigester::new(tier, window_len, origin, level)),
            halves: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            prev_fed: None,
            anomalies: 0,
            supervisor: Supervisor::new(sup_cfg),
            admission: AdmissionController::new(INITIAL_CAP),
            last_health: HealthState::Healthy,
            sessions: [0, 0],
            samples: [0, 0],
            rejected: 0,
            sheds: Vec::new(),
            decisions: Vec::new(),
            admission_trace: Vec::new(),
        }
    }

    /// The meter the windows are scored with.
    pub fn meter(&self) -> &CapacityMeter {
        &self.meter
    }

    /// Note a (re)connection on `tier`; any session after the tier's
    /// first is a reconnect the supervisor hears of.
    pub fn on_session_start(&mut self, tier: TierId) {
        *tier.select_mut(&mut self.sessions) += 1;
        if tier.select_mut(&mut self.digesters).on_session_start() {
            self.supervisor.on_reconnect();
            self.sync_health();
        }
    }

    /// Feed one received sample, owned or borrowed — the socketed
    /// collector lends the lane's decoded slot; emitted decisions go to
    /// `sink`.
    pub fn on_sample(
        &mut self,
        tier: TierId,
        ws: impl Borrow<WireSample>,
        sink: &mut dyn FnMut(i64, &OnlineDecision),
    ) {
        *tier.select_mut(&mut self.samples) += 1;
        tier.select_mut(&mut self.digesters).on_sample(ws.borrow());
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

    /// The event loop timed out with live sessions — stale telemetry.
    pub fn on_stale(&mut self) {
        self.supervisor.on_stale();
        self.sync_health();
    }

    /// The overload policy shed a connection or dial on `tier`.
    pub fn on_shed(&mut self, tier: TierId, kind: ShedKind) {
        self.sheds.push((tier, kind));
        self.supervisor.on_shed();
        self.sync_health();
    }

    /// A connection was refused at handshake.
    pub fn on_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Quarantine `window`; the supervisor hears of it the first time.
    fn poison(&mut self, window: i64) {
        if self.poisoned.insert(window) {
            self.halves.remove(&window);
            self.supervisor.on_window_poisoned();
            self.sync_health();
        }
    }

    /// Apply state-entry side effects when health changed: entering
    /// SafeMode clamps the cap.
    fn sync_health(&mut self) {
        let health = self.supervisor.state();
        if health == self.last_health {
            return;
        }
        if health == HealthState::SafeMode {
            let cap = self.admission.clamp_to(self.supervisor.config().safe_cap);
            self.admission_trace.push(AdmissionPoint {
                window: -1,
                health,
                from_prediction: false,
                cap,
            });
        }
        self.last_health = health;
    }

    /// One emitted window: tell the supervisor, then let the prediction
    /// drive admission iff Healthy.
    fn admit(&mut self, window: i64, overloaded: bool) {
        self.supervisor.on_window_emitted();
        self.sync_health();
        let health = self.supervisor.state();
        let (cap, from_prediction) = if health == HealthState::Healthy {
            (self.admission.on_prediction(overloaded), true)
        } else {
            // Degraded/SafeMode: record, don't trust — the cap holds.
            (self.admission.cap(), false)
        };
        self.admission_trace.push(AdmissionPoint {
            window,
            health,
            from_prediction,
            cap,
        });
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
                    self.admit(window, decision.prediction.overloaded);
                    sink(window, &decision);
                    self.decisions.push((window, decision));
                }
                None => {
                    // A digester never completes an application window
                    // without front-end evidence, nor one missing a
                    // family the meter reads; quarantine rather than
                    // trust a pair that cannot be scored.
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

    /// Finish the run and produce the report.
    pub fn finish(self) -> SupervisedReport {
        SupervisedReport {
            poisoned_windows: self.poisoned_windows(),
            pending_windows: self.pending_windows(),
            anomalies: self.anomalies(),
            health: self.supervisor.state(),
            transitions: self.supervisor.transitions().to_vec(),
            final_cap: self.admission.cap(),
            decisions: self.decisions,
            sessions: self.sessions,
            samples: self.samples,
            rejected_handshakes: self.rejected,
            sheds: self.sheds,
            admission_trace: self.admission_trace,
        }
    }
}

/// Run `collector` on a bound listener until both tiers have said
/// `Bye` (or the idle timeout passes with no live session): the
/// socketed collector. `collector` must be anchored at
/// `cfg.window_origin`. Each emitted decision is streamed to
/// `on_decision` as it happens.
pub fn run_supervised_collector(
    listener: Listener,
    mut collector: Assembler,
    cfg: &CollectorConfig,
    mut on_decision: impl FnMut(i64, &OnlineDecision),
) -> SupervisedReport {
    let level = collector.meter().config().level;
    pump_events(listener, cfg, level, |event| match event {
        Event::SessionStart { tier } => collector.on_session_start(tier),
        Event::Sample { tier, ws } => collector.on_sample(tier, ws, &mut on_decision),
        Event::Bye { tier, last_seq } => collector.on_bye(tier, last_seq),
        Event::SessionEnd {
            tier,
            graceful: false,
        } => collector.on_session_abort(tier),
        Event::Shed { tier, kind } => collector.on_shed(tier, kind),
        Event::Rejected => collector.on_rejected(),
        Event::Stale => collector.on_stale(),
        Event::SessionEnd { graceful: true, .. } => {}
    });
    collector.finish()
}

pub(crate) enum Event<'a> {
    SessionStart {
        tier: TierId,
    },
    /// A received sample, lent from the lane's decoded slot.
    Sample {
        tier: TierId,
        ws: &'a WireSample,
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
/// and schema — the full one, or the one of the families the meter's
/// `level` reads — answer `Ack{0}` or `Reject`. Returns the agent's tier.
///
/// Only `PROTO_VERSION` is accepted; any other version is rejected with
/// a frame carrying both peers' versions so the operator can see who
/// needs upgrading. Bytes that are no frame at all — a pre-v4 JSON
/// `Hello` under the `"WCAP"` magic among them — earn a `Reject` naming
/// the parse failure.
pub(crate) fn handshake(conn: &mut Conn, level: MetricLevel) -> io::Result<TierId> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    // Turn the peer away: tell it why, and fail the handshake with the
    // same reason.
    let reject = |conn: &mut Conn, reason: String, theirs: u32| {
        send_reject(conn, reason.clone(), theirs);
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
    let (full, read) = (metric_schema_hash(tier), level_schema_hash(tier, level));
    if hash != full && hash != read {
        let reason = format!(
            "metric schema hash {hash:#018x} is neither the full schema's {full:#018x} nor \
             the {level} schema's {read:#018x} for {}",
            tier.label()
        );
        return Err(reject(conn, reason, proto_version));
    }
    write_frame(conn, &Frame::Ack { seq: 0 })?;
    Ok(tier)
}

/// Tell a peer why it is turned away, best effort: the socket takes the
/// one frame or the peer goes without it. `theirs` is the version the
/// peer announced, 0 when the refusal is not about versions.
fn send_reject(conn: &mut Conn, reason: String, theirs: u32) {
    let reject = Frame::Reject {
        reason,
        ours: PROTO_VERSION,
        theirs,
    };
    let _ = write_frame(conn, &reject);
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
/// plus its frame-reassembly buffer and its sample slots. Both are reused
/// for the connection's lifetime — servicing a sample frame on the
/// steady path allocates nothing.
struct ConnState {
    conn: Conn,
    tier: TierId,
    /// Inbound bytes not yet parsed into frames.
    rbuf: FrameBuf,
    /// The members of the last sample frame, decoded in place
    /// ([`decode_frame_into`]) and lent to the handler one by one.
    slots: Vec<WireSample>,
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
            slots: Vec::new(),
            idle: Duration::ZERO,
            stalled_polls: 0,
            graceful: false,
        }
    }

    /// End the session: close it and announce the end.
    fn close(self, events: &mut Delivery<impl FnMut(Event<'_>)>) {
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
    byes: BTreeSet<usize>,
    /// Accumulated pump sleep since the last delivered event.
    quiet: Duration,
}

impl<H: FnMut(Event<'_>)> Delivery<H> {
    /// Both tiers have said `Bye`: the run is over, and nothing more is
    /// delivered.
    fn done(&self) -> bool {
        self.byes.len() >= TierId::ALL.len()
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

/// Service one live connection: read what the socket has, parsing the
/// complete frames after every read and handing their events over.
/// Returns how the session ended, or `None` while it stays live.
fn service_conn(
    state: &mut ConnState,
    cfg: &CollectorConfig,
    events: &mut Delivery<impl FnMut(Event<'_>)>,
) -> Option<LaneEnd> {
    // Read and parse in turn, so the lane holds at most one read and a
    // frame prefix. Overload fairness: a round stops reading after a
    // lane budget of bytes — a peer blasting faster than we drain must
    // not starve the other lanes.
    let (mut eof, mut extracted, mut read) = (false, false, 0);
    while read < cfg.max_lane_buffered_bytes {
        match state.rbuf.fill(&mut state.conn) {
            Ok(n) => {
                read += n;
                state.idle = Duration::ZERO;
            }
            Err(e) => {
                eof = !e.is_timeout();
                break;
            }
        }
        // Parse every complete frame buffered so far. The early returns
        // below end the session, so they leave the buffer as it is.
        loop {
            let decoded = match state.rbuf.next_payload() {
                Ok(Some(payload)) => decode_frame_into(payload, &mut state.slots),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            let decoded = match decoded {
                Ok(decoded) => decoded,
                Err(e) => {
                    // A corrupt frame earns the peer a Reject naming the
                    // parse failure before the session drops.
                    send_reject(&mut state.conn, format!("unreadable frame: {e}"), 0);
                    return Some(LaneEnd::Closed);
                }
            };
            extracted = true;
            let tier = state.tier;
            match decoded {
                Decoded::Samples { members, .. } => {
                    // A frame is exactly its samples in order: one event
                    // per member, indistinguishable downstream from the
                    // same samples sent one frame each. The whole frame
                    // has decoded before its first member goes.
                    for ws in state.slots.get(..members).unwrap_or_default() {
                        events.deliver(Event::Sample { tier, ws });
                    }
                }
                // A heartbeat only resets the idle clock, as any read does.
                Decoded::Other(Frame::Heartbeat { .. }) => {}
                Decoded::Other(Frame::Bye { last_seq }) => {
                    state.graceful = true;
                    events.deliver(Event::Bye { tier, last_seq });
                    return Some(LaneEnd::Closed);
                }
                // Nothing else belongs on an established agent session;
                // the sample frames decode into the slots, never here.
                Decoded::Other(
                    Frame::Hello { .. }
                    | Frame::Sample(_)
                    | Frame::SampleBatch(_)
                    | Frame::Ack { .. }
                    | Frame::Reject { .. }
                    | Frame::Digest(_),
                ) => return Some(LaneEnd::Closed),
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
            let reason = format!(
                "overload: mid-frame stall past {} poll rounds",
                cfg.stall_poll_budget
            );
            send_reject(&mut state.conn, reason, 0);
            return Some(LaneEnd::Shed(ShedKind::StalledFrame));
        }
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
/// (for a meter reading `level`; synchronously: handshakes are short and bounded by
/// [`HANDSHAKE_TIMEOUT`]), services each tier's live session — read,
/// decode, `handle` — and sleeps a millisecond.
/// While `handle` runs nothing is read, so a slow handler fills the
/// lane's socket, not a queue: each lane buffers at most one read and a
/// frame prefix, and the overload reaches the agent, as a blocked
/// `write`, through TCP flow control.
///
/// The pump stops once both tiers have said `Bye` — nothing is
/// delivered after the event that completes the set — or when the
/// listener fails, or when nothing has been delivered for
/// `idle_timeout` and no session is live; with sessions live that
/// silence is delivered as [`Event::Stale`] instead. Both idle clocks —
/// this one and each lane's — count the pump's own sleeps, not wall
/// time. Whatever is still connected at the end is closed.
pub(crate) fn pump_events(
    listener: Listener,
    cfg: &CollectorConfig,
    level: MetricLevel,
    handle: impl FnMut(Event<'_>),
) {
    let _ = listener.set_nonblocking(true);
    let mut lanes: [TierLane; 2] = [TierLane::default(), TierLane::default()];
    let mut events = Delivery {
        handle,
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
            match handshake(&mut conn, level) {
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

    // Teardown: close whatever is still connected so peers
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
    use webcap_sim::TierSample;

    /// A sample for `seq`; the pump reads no front-end statistic, so
    /// the codec's all-zero record stands in for the application tier's.
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
            app: with_app.then(crate::binary::zero_app_stats),
        }
    }

    // ------------------------------------------------------ the pump

    use crate::frame::{append_frame, WireCaps, WireCodec};
    use crate::transport::Endpoint;
    use std::io::Write;
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
            pump_events(listener, cfg, MetricLevel::Combined, |event| {
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

    /// Read until the collector closes its side. After the handshake it
    /// answers nothing, so the first read ends the stream.
    fn read_to_eof(conn: &mut Conn) {
        let reply = read_frame(conn);
        assert!(reply.is_err(), "the collector answered: {reply:?}");
    }

    #[test]
    fn the_handler_runs_on_the_callers_thread_and_nothing_follows_the_final_bye() {
        let cfg = CollectorConfig::default();
        let (serviced, seen_serviced) = std::sync::mpsc::channel();
        let peers = move |endpoint: Endpoint| {
            // App's first session says Bye at once and is closed.
            let mut first = handshaken(&endpoint, TierId::App);
            write_frame(&mut first, &Frame::Bye { last_seq: 0 }).unwrap();
            read_to_eof(&mut first);
            // Its second, live session is provably serviced: three
            // samples, the third seen by the handler. It never says Bye
            // and has a fourth sample in flight.
            let mut app = handshaken(&endpoint, TierId::App);
            for seq in 0..3 {
                write_frame(&mut app, &Frame::Sample(wire(seq, true))).unwrap();
            }
            seen_serviced.recv_timeout(Duration::from_secs(5)).unwrap();
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
        let seen = pump_with_peers(&cfg, peers, |event| {
            if let Event::Sample {
                tier: TierId::App,
                ws,
            } = event
            {
                if ws.seq == 2 {
                    let _ = serviced.send(());
                }
            }
        });

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
        // sample 1, no SessionEnd for either live lane.
        texts.retain(|text| *text != "sample App 3");
        let expected = [
            "start App",
            "bye App 0",
            "end App true",
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
            idle_timeout: Duration::from_millis(50),
            ..CollectorConfig::default()
        };
        let stale = AtomicBool::new(false);
        let peers = |endpoint: Endpoint| {
            // Db comes and goes behind a live App session, so the pump
            // never sits with nothing live. Then App's heartbeats keep
            // its lane alive (none is answered) but are not events:
            // heartbeat every millisecond until the handler has seen
            // `Stale` after Db's end, then finish. The cap only bounds
            // the never-stale failure.
            let mut app = handshaken(&endpoint, TierId::App);
            let mut db = handshaken(&endpoint, TierId::Db);
            write_frame(&mut db, &Frame::Bye { last_seq: 0 }).unwrap();
            read_to_eof(&mut db);
            for seq in 0..5_000 {
                if stale.load(Ordering::Acquire) {
                    break;
                }
                write_frame(&mut app, &Frame::Heartbeat { seq }).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            write_frame(&mut app, &Frame::Bye { last_seq: 0 }).unwrap();
            read_to_eof(&mut app);
        };
        let mut db_ended = false;
        let seen = pump_with_peers(&cfg, peers, |event| match event {
            Event::SessionEnd {
                tier: TierId::Db, ..
            } => db_ended = true,
            Event::Stale if db_ended => stale.store(true, Ordering::Release),
            _ => {}
        });

        let texts: Vec<&str> = seen.iter().map(|(text, _)| text.as_str()).collect();
        // A slow peer may let `Stale` in before Db's Bye too; the one
        // after Db's end is what App's heartbeats wait for.
        let db_end = texts.iter().position(|text| *text == "end Db true");
        let stale_after = db_end.map(|at| texts.iter().skip(at).any(|text| *text == "stale"));
        assert_eq!(stale_after, Some(true), "{texts:?}");
        let events: Vec<&str> = texts.into_iter().filter(|text| *text != "stale").collect();
        assert_eq!(
            events,
            [
                "start App",
                "start Db",
                "bye Db 0",
                "end Db true",
                "bye App 0"
            ]
        );
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

    /// A batch that is corrupt at its last member delivers none of its
    /// members: the lane has delivered the batch before it, answers
    /// nothing but a `Reject` naming the parse failure, and closes.
    #[cfg(unix)]
    #[test]
    fn a_batch_corrupt_at_its_last_member_delivers_nothing() {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let batch = |seqs: std::ops::Range<u64>| {
            Frame::SampleBatch(seqs.map(|seq| wire(seq, false)).collect())
        };
        let mut stream = Vec::new();
        append_frame(&batch(0..3), &mut stream).unwrap();
        // The last byte of a database batch is its last member's
        // front-end presence flag; 2 is no `bool`.
        append_frame(&batch(3..6), &mut stream).unwrap();
        if let Some(flag) = stream.last_mut() {
            *flag = 2;
        }
        let peer = std::thread::spawn(move || {
            let mut conn = Conn::Unix(theirs);
            conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
            conn.write_all(&stream).unwrap();
            let mut replies = Vec::new();
            while let Ok(frame) = read_frame(&mut conn) {
                replies.push(frame);
            }
            replies
        });
        let mut state = ConnState::new(Conn::Unix(ours), TierId::Db);
        state.conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut delivered = Vec::new();
        let mut events = Delivery {
            handle: |event: Event<'_>| match event {
                Event::Sample { ws, .. } => delivered.push(format!("sample {}", ws.seq)),
                Event::SessionEnd { graceful, .. } => delivered.push(format!("end {graceful}")),
                Event::SessionStart { .. }
                | Event::Bye { .. }
                | Event::Shed { .. }
                | Event::Rejected
                | Event::Stale => delivered.push("other".to_string()),
            },
            byes: BTreeSet::new(),
            quiet: Duration::ZERO,
        };
        // One round reads until the socket times out, so it takes both
        // frames, however many reads they arrive in.
        let end = service_conn(&mut state, &CollectorConfig::default(), &mut events);
        assert!(matches!(end, Some(LaneEnd::Closed)));
        state.close(&mut events);
        assert_eq!(delivered, ["sample 0", "sample 1", "sample 2", "end false"]);
        let replies = peer.join().unwrap();
        let [Frame::Reject { reason, .. }] = replies.as_slice() else {
            panic!("a Reject and nothing else: {replies:?}");
        };
        assert!(reason.contains("bad bool"), "{reason}");
    }

    /// A backlog of 32-sample batches, beyond the default lane budget,
    /// read in one round: every sample is delivered in order, and the
    /// lane buffer holds no more than one read and one frame.
    #[cfg(unix)]
    #[test]
    fn one_round_over_a_backlog_parses_as_it_reads() {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let (mut backlog, mut frame_len, mut samples) = (Vec::new(), 0, 0);
        while backlog.len() < 2 << 20 {
            let before = backlog.len();
            let batch = (samples..samples + 32).map(|seq| wire(seq, false));
            append_frame(&Frame::SampleBatch(batch.collect()), &mut backlog).unwrap();
            frame_len = frame_len.max(backlog.len() - before);
            samples += 32;
        }
        // The budget is the backlog, so the round reads all of it.
        let cfg = CollectorConfig {
            max_lane_buffered_bytes: backlog.len(),
            ..CollectorConfig::default()
        };
        let peer = std::thread::spawn(move || Conn::Unix(theirs).write_all(&backlog).unwrap());
        let mut state = ConnState::new(Conn::Unix(ours), TierId::Db);
        state.conn.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut delivered = Vec::new();
        let mut events = Delivery {
            handle: |event: Event<'_>| {
                if let Event::Sample { tier, ws } = event {
                    delivered.push((tier, ws.seq));
                }
            },
            byes: BTreeSet::new(),
            quiet: Duration::ZERO,
        };
        assert!(service_conn(&mut state, &cfg, &mut events).is_none());
        peer.join().unwrap();
        let db_samples: Vec<_> = (0..samples).map(|seq| (TierId::Db, seq)).collect();
        assert_eq!(delivered, db_samples);
        let held = state.rbuf.capacity();
        assert!(
            held <= crate::frame::READ_CHUNK + frame_len,
            "the lane held {held} B for {frame_len} B frames"
        );
    }
}
