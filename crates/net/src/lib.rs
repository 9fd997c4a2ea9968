//! Distributed telemetry plane for the webcap online capacity meter.
//!
//! The in-process pipeline (`webcap-core`'s `OnlineMonitor`) assumes it
//! observes every per-second sample of every tier. This crate relaxes
//! that to a deployment shape the paper actually describes: one
//! lightweight **agent** beside each tier samples its hardware and OS
//! counters, frames them, and streams them to a front-end **collector**
//! that reassembles per-second system samples, quarantines any
//! 30-second window touched by loss or reconnection, and feeds only
//! intact windows to the online meter and admission controller.
//!
//! The crate is organized by layer:
//!
//! * [`frame`] — the versioned, length-prefixed wire protocol
//!   (`Hello` / `Sample` / `SampleBatch` / `Heartbeat` / `Ack` /
//!   `Reject` / `Bye`, plus the fleet back-haul `Digest`), every frame
//!   in one dialect: the compact binary codec in [`binary`].
//! * [`binary`] — the delta/varint payload codec of the wire protocol,
//!   handshake included.
//! * [`transport`] — the same framed protocol over TCP or Unix-domain
//!   sockets, behind one [`Endpoint`] grammar.
//! * [`source`] — the [`SampleSource`] seam an agent measures through,
//!   and the replayable per-tier metric synthesis ([`TierSampler`]).
//! * [`agent`] — the agent runtime: bounded drop-oldest queueing,
//!   sample batching, heartbeats, jittered-backoff reconnect, and the
//!   scripted [`FaultSchedule`].
//! * [`reassembly`] — the one implementation of the per-tier window
//!   rules ([`TierDigester`]: gap poisoning, straddle quarantine,
//!   trailing loss) and of digest-pair scoring ([`score_window`]),
//!   shared by this crate's collector and `webcap-fleet`'s shards.
//! * [`collector`] — the one-thread ingest pump (poll, decode,
//!   reassemble, decide, ack) and the deterministic window
//!   [`Assembler`]: one digester per tier joined per window.
//! * [`supervisor`] — the collector itself ([`SupervisedCollector`],
//!   socketed by [`run_supervised_collector`]): the assembler under the
//!   Healthy → Degraded → SafeMode health state machine over telemetry
//!   quality, safe-mode admission clamping, periodic crash-safe
//!   snapshots, and resume-from-snapshot.
//! * [`loopback`] — in-process deployments, the periodic fault knobs
//!   that compile to a [`FaultSchedule`], plus the replay/oracle
//!   baselines the integration tests check the plane against.
//!
//! The load-bearing property, proved window-by-window in the
//! fault-injection tests: the collector **never** emits a decision from
//! a window with missing or suspect samples, and on the windows it does
//! emit, its decisions are byte-identical (as JSON) to an in-process
//! monitor fed the same data.

// The invariant bans of DESIGN §8: determinism (configured in the root
// `clippy.toml`), no panic site in library code, and no wildcard arm.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm,
    )
)]

pub mod agent;
pub mod binary;
pub mod collector;
pub mod frame;
pub mod loopback;
pub mod reassembly;
pub mod source;
pub mod supervisor;
pub mod transport;

pub use agent::{run_agent, AgentConfig, AgentReport, FaultSchedule, HandshakeRejected};
pub use collector::{Assembler, AssemblerState, CollectorConfig, ShedKind};
pub use frame::{
    metric_schema_hash, read_frame, try_extract_frame, write_frame, write_frame_codec, AppStats,
    AppWindowDigest, DigestFin, DigestFrame, Frame, FrameError, TierWindowDigest, WireCaps,
    WireCodec, WireSample, FRAME_MAGIC_BIN, MAX_FRAME_LEN, PROTO_VERSION,
};
pub use loopback::{
    all_windows, predicted_windows_for_schedule, replay_windows, run_loopback_scheduled,
    run_supervised_loopback, FaultKnobs, LoopbackOutcome,
};
pub use reassembly::{score_window, TierDigester, MAX_GAP_WINDOWS};
pub use source::{SampleSource, ScriptedSource, SourcePoll, SourceSample, TierSampler};
pub use supervisor::{
    run_supervised_collector, AdmissionPoint, CollectorSnapshot, HealthState, HealthTransition,
    ResumeOutcome, SupervisedCollector, SupervisedReport, Supervisor, SupervisorConfig,
};
pub use transport::{Conn, Endpoint, Listener};
