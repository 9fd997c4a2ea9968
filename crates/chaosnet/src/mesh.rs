//! The in-process chaos mesh over the agent → collector telemetry
//! plane.
//!
//! [`run_net_mesh`] encodes each tier's per-second samples as real wire
//! frames, interposes a [`ChaosSchedule`] between the encoded bytes and
//! a [`SupervisedCollector`], and returns the supervised report together
//! with the schedule *compiled* into the telemetry plane's fault
//! vocabulary. The equivalence suite then checks that the surviving
//! decision set is byte-identical to the loopback oracle's analytic
//! prediction — under bit flips, truncations, drops, duplicates, split
//! writes, reorders, and partitions.
//!
//! The mesh drives the collector through the exact session surface the
//! real event loop uses (`on_session_start` / `on_sample` /
//! `on_session_abort` / `on_bye`), and every delivered byte passes
//! through the real incremental frame extractor, so a corrupted or
//! truncated frame exercises the same typed-error path a hostile peer
//! would.

use std::fmt;

use webcap_core::{AdmissionController, CapacityMeter};
use webcap_net::collector::CollectorConfig;
use webcap_net::frame::{write_frame, Frame, FrameBuf};
use webcap_net::source::{SourceSample, TierSampler};
use webcap_net::supervisor::{SupervisedCollector, SupervisedReport, SupervisorConfig};
use webcap_net::FaultSchedule;
use webcap_sim::{SystemSample, TierId};

use crate::schedule::{corrupt_frame, ChaosSchedule, FrameFault};

/// Error from a chaos-mesh run. Carries a human-readable description;
/// the mesh itself is deterministic, so any error is a programming or
/// configuration mistake, not a flake.
#[derive(Debug)]
pub struct MeshError(pub String);

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos mesh: {}", self.0)
    }
}

impl std::error::Error for MeshError {}

/// What a chaos-mesh run produced.
#[derive(Debug)]
pub struct MeshOutcome {
    /// The supervised collector's report (decisions, quarantine,
    /// anomalies, health trace).
    pub report: SupervisedReport,
    /// The chaos schedule compiled per tier into the telemetry plane's
    /// fault vocabulary, ready for the loopback oracle.
    pub schedules: [FaultSchedule; 2],
    /// Every non-trivial fault actually injected, in delivery order.
    pub injected: Vec<(TierId, u64, FrameFault)>,
}

/// Per-tier delivery state while the mesh drives the collector.
struct TierState {
    tier: TierId,
    needs_session: bool,
    /// The reassembly buffer the collector's lanes run.
    rbuf: FrameBuf,
}

impl TierState {
    fn new(tier: TierId) -> TierState {
        TierState {
            tier,
            needs_session: false,
            rbuf: FrameBuf::default(),
        }
    }
}

/// Encode one tier's sample stream as individual `Sample` wire frames,
/// one byte vector per sequence number.
fn encode_tier(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    tier: TierId,
) -> Result<Vec<Vec<u8>>, MeshError> {
    let hpc_model = meter.config().hpc_model.clone();
    let mut sampler = TierSampler::new(tier, hpc_model, base_seed);
    let mut out = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let seq = i as u64;
        let ws = sampler.wire_sample(SourceSample::of_tier(tier, seq, s));
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Sample(ws))
            .map_err(|e| MeshError(format!("encode {tier:?} seq {seq}: {e}")))?;
        out.push(buf);
    }
    Ok(out)
}

fn ensure_session(sc: &mut SupervisedCollector, state: &mut TierState) {
    if state.needs_session {
        sc.on_session_start(state.tier);
        state.needs_session = false;
    }
}

fn abort_session(sc: &mut SupervisedCollector, state: &mut TierState) {
    if !state.needs_session {
        sc.on_session_abort(state.tier);
    }
    state.rbuf = FrameBuf::default();
    state.needs_session = true;
}

/// Deliver one (possibly mutilated) run of encoded bytes to the
/// collector through the reassembly buffer, honouring session
/// semantics: a decode failure kills the session exactly as the real
/// event loop would. Returns whether the session survived.
fn deliver_bytes(sc: &mut SupervisedCollector, state: &mut TierState, mut bytes: &[u8]) -> bool {
    ensure_session(sc, state);
    // A `&[u8]` is a `Read`; one `fill` takes at most a read chunk of it.
    while !bytes.is_empty() {
        if state.rbuf.fill(&mut bytes).is_err() || !deliver_buffered(sc, state) {
            abort_session(sc, state);
            return false;
        }
    }
    true
}

/// Hand every whole buffered frame to the collector; `false` on a
/// decode error.
fn deliver_buffered(sc: &mut SupervisedCollector, state: &mut TierState) -> bool {
    loop {
        match state.rbuf.next_frame() {
            Ok(Some(Frame::Sample(ws))) => sc.on_sample(state.tier, ws),
            Ok(Some(_)) => {}
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

/// Deliver one tier's frame for `seq`, applying the scheduled fault.
#[allow(clippy::too_many_arguments)]
fn deliver_tier(
    sc: &mut SupervisedCollector,
    state: &mut TierState,
    frames: &[Vec<u8>],
    seq: u64,
    total: u64,
    chaos: &ChaosSchedule,
    skip_next: &mut bool,
    injected: &mut Vec<(TierId, u64, FrameFault)>,
) -> Result<(), MeshError> {
    if *skip_next {
        // This frame was already delivered early by a reorder swap.
        *skip_next = false;
        return Ok(());
    }
    let conn = state.tier.index() as u32;
    let fault = chaos.effective_fault(conn, seq, total);
    if fault != FrameFault::None {
        injected.push((state.tier, seq, fault));
    }
    let Some(bytes) = frames.get(seq as usize) else {
        return Err(MeshError(format!(
            "missing frame {seq} for {:?}",
            state.tier
        )));
    };
    match fault {
        FrameFault::None | FrameFault::Stall => {
            deliver_bytes(sc, state, bytes);
        }
        FrameFault::Drop => {}
        FrameFault::Partitioned => {
            // The first black-holed frame kills the session; the rest
            // of the partition is silence.
            if !state.needs_session {
                abort_session(sc, state);
            }
        }
        // A flipped magic byte or a cut frame cannot decode, so the
        // session dies with a typed error exactly as a hostile peer's
        // would.
        FrameFault::Corrupt => {
            deliver_bytes(sc, state, &corrupt_frame(bytes));
        }
        FrameFault::Truncate => {
            deliver_bytes(sc, state, &chaos.truncate_frame(conn, seq, bytes));
        }
        FrameFault::Duplicate => {
            deliver_bytes(sc, state, bytes);
            // The duplicate is a backward sequence: an anomaly the
            // assembler must ignore.
            deliver_bytes(sc, state, bytes);
        }
        FrameFault::Split => {
            let mut rest = bytes.as_slice();
            let mut piece: u64 = 0;
            while !rest.is_empty() {
                let n = chaos.chunk_len(conn, seq, piece).min(rest.len());
                let (head, tail) = rest.split_at(n);
                if !deliver_bytes(sc, state, head) {
                    return Ok(());
                }
                rest = tail;
                piece += 1;
            }
        }
        FrameFault::Reorder => {
            // Swap with the successor, which effective_fault guarantees
            // exists and is fault-free. The late original arrives as a
            // backward sequence the assembler counts and ignores.
            let Some(next) = frames.get(seq as usize + 1) else {
                return Err(MeshError(format!(
                    "reorder at {seq} without successor for {:?}",
                    state.tier
                )));
            };
            deliver_bytes(sc, state, next);
            deliver_bytes(sc, state, bytes);
            *skip_next = true;
        }
    }
    Ok(())
}

/// Run the telemetry plane under a chaos schedule.
///
/// Encodes `samples` per tier as real wire frames, applies
/// `chaos` to every frame of every tier connection (App is connection
/// 0, Db is connection 1), and drives a [`SupervisedCollector`] exactly
/// as the event loop would. Returns the supervised report plus the
/// compiled per-tier fault schedules for the analytic oracle.
pub fn run_net_mesh(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    chaos: &ChaosSchedule,
    admission: AdmissionController,
) -> Result<MeshOutcome, MeshError> {
    let total = samples.len() as u64;
    let origin = CollectorConfig::default().window_origin;
    let mut frames: [Vec<Vec<u8>>; 2] = Default::default();
    for tier in TierId::ALL {
        *tier.select_mut(&mut frames) = encode_tier(meter, samples, base_seed, tier)?;
    }

    let mut sc = SupervisedCollector::start(
        meter.clone(),
        origin,
        SupervisorConfig::default(),
        admission,
        None,
        false,
    );
    let mut states = TierId::ALL.map(TierState::new);
    let mut skip_next = [false; 2];
    for tier in TierId::ALL {
        sc.on_session_start(tier);
    }
    let mut injected = Vec::new();
    for seq in 0..total {
        for tier in TierId::ALL {
            deliver_tier(
                &mut sc,
                tier.select_mut(&mut states),
                tier.select(&frames).as_slice(),
                seq,
                total,
                chaos,
                tier.select_mut(&mut skip_next),
                &mut injected,
            )?;
        }
    }
    if let Some(last) = total.checked_sub(1) {
        // A Bye always arrives on a live session, mirroring the real
        // agent which reconnects before its farewell.
        for state in &mut states {
            ensure_session(&mut sc, state);
        }
        for tier in TierId::ALL {
            sc.on_bye(tier, last);
        }
    }
    let report = sc.finish();
    let schedules = TierId::ALL.map(|t| chaos.compile_tier_schedule(t.index() as u32, total));
    Ok(MeshOutcome {
        report,
        schedules,
        injected,
    })
}
