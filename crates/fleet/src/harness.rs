//! Deterministic in-process fleet harness.
//!
//! Runs a full sharded deployment over a scripted sample stream, in two
//! halves so a chaos schedule can sit between them:
//!
//! * [`collect_digest_stream`] — the shard map routes each tier's agent
//!   to its owning collector, every collector digests its shard and
//!   flushes sequenced [`DigestFrame`]s, and each is captured as encoded
//!   wire bytes stamped with the simulated tick it was flushed at.
//!   Per-tier fault schedules reproduce the loopback plane's scripted
//!   outages, and an optional [`FleetChaos`] crashes one collector
//!   mid-run and resumes it from its snapshot.
//! * [`run_fleet`] — collects, then reads the captured back-haul into
//!   the merge node and finalizes the global outcome.
//!
//! The whole run is a pure function of its inputs: same meter, samples,
//! seed, schedules, and topology → byte-identical [`FleetOutcome`],
//! regardless of the collector count.

use std::fmt;

use serde::Serialize;
use webcap_core::CapacityMeter;
use webcap_net::{
    read_frame, write_frame_codec, CollectorConfig, DigestFin, DigestFrame, FaultSchedule, Frame,
    HealthState, SourceSample, SupervisorConfig, TierSampler, WireCodec,
};
use webcap_sim::{SystemSample, TierId};

use crate::digest::{FleetCollector, FleetCollectorState};
use crate::merge::{MergeNode, MergeOutcome};
use crate::shard::{AgentId, ShardMap};
use crate::topology::FleetTopology;

/// Crash-and-resume schedule for one collector: snapshot, drop all
/// in-flight window state, and resume immediately before processing
/// sequence `crash_at_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FleetChaos {
    /// Index of the collector to crash.
    pub collector: u32,
    /// Sequence number whose processing the crash precedes.
    pub crash_at_seq: u64,
}

/// What one collector did during a fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct CollectorSummary {
    /// The collector's index in the topology.
    pub collector: u32,
    /// Tiers it owned.
    pub tiers: Vec<TierId>,
    /// Final supervisor health.
    pub health: HealthState,
    /// Digest frames it emitted.
    pub frames: u64,
    /// Bytes of its back-haul transcript.
    pub bytes: u64,
    /// Protocol anomalies it counted.
    pub anomalies: u64,
    /// Whether it was crashed and resumed by a chaos schedule.
    pub resumed: bool,
}

/// A fleet run's complete result: the merged global view plus
/// per-collector accounting.
#[derive(Debug, Clone, Serialize)]
pub struct FleetOutcome {
    /// The merge node's global outcome.
    pub merge: MergeOutcome,
    /// Per-collector summaries, by collector index.
    pub collectors: Vec<CollectorSummary>,
    /// The shard map's tier-to-collector assignment.
    pub assignment: Vec<(TierId, u32)>,
}

/// A fleet run failed (back-haul codec or snapshot serialization), or
/// its topology is not one the fleet implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError(pub String);

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FleetError {}

/// One captured digest frame: encoded wire bytes plus the simulated
/// tick at which the owning collector flushed it.
#[derive(Debug, Clone)]
pub struct TimedFrame {
    /// Simulated second (sample sequence) of the flush.
    pub tick: u64,
    /// The collector that emitted the frame.
    pub collector: u32,
    /// The full encoded wire frame, header included.
    pub bytes: Vec<u8>,
}

/// The captured back-haul of one fleet run, with the collectors' own
/// accounting of it.
#[derive(Debug, Clone)]
pub struct DigestStream {
    /// Flushed frames in emission order (non-decreasing tick; within a
    /// tick, by collector index).
    pub frames: Vec<TimedFrame>,
    /// Per-collector summaries, by collector index.
    pub collectors: Vec<CollectorSummary>,
    /// The shard map's tier-to-collector assignment.
    pub assignment: Vec<(TierId, u32)>,
    /// The tick at which the fin frames were flushed.
    pub last_tick: u64,
}

/// The collect half of a fleet run: run the sharded collectors
/// described by `topology` over `samples`, under per-tier scripted
/// fault `schedules` (indexed by [`TierId::index`]; scheduled
/// reconnects break the session before the frame, drops discard it) and
/// an optional chaos crash, flushing eagerly every tick so a crash
/// never loses a completed digest, and capture every flushed digest as
/// encoded wire bytes, a fin frame per collector last.
///
/// # Errors
///
/// [`FleetError`] when the back-haul codec or a snapshot round-trip
/// fails — never for fleet-quality events (those are evidence in the
/// stream, not errors).
pub fn collect_digest_stream(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    schedules: &[FaultSchedule; 2],
    topology: &FleetTopology,
    chaos: Option<FleetChaos>,
) -> Result<DigestStream, FleetError> {
    let window_len = (meter.config().window_len as i64).max(1);
    let origin = CollectorConfig::default().window_origin;
    let sup_cfg = SupervisorConfig::default();
    let map = ShardMap::new(topology.seed, topology.collectors);
    let owner = TierId::ALL.map(|t| map.owner(AgentId::primary(t)));
    let mut collectors: Vec<FleetCollector> = (0..map.collectors())
        .map(|c| {
            let tiers: Vec<TierId> = TierId::ALL
                .into_iter()
                .filter(|t| *t.select(&owner) == c)
                .collect();
            FleetCollector::new(c, &tiers, window_len, origin, sup_cfg)
        })
        .collect();
    let mut resumed = vec![false; collectors.len()];
    let mut samplers =
        TierId::ALL.map(|t| TierSampler::new(t, meter.config().hpc_model.clone(), base_seed));

    let mut frames: Vec<TimedFrame> = Vec::new();
    let mut scratch = Vec::new();
    let mut capture = |frame: DigestFrame, tick: u64| {
        let collector = frame.collector;
        let mut bytes = Vec::new();
        write_frame_codec(
            &mut bytes,
            &Frame::Digest(frame),
            WireCodec::Binary,
            &mut scratch,
        )
        .map_err(|e| FleetError(format!("fleet back-haul at tick {tick}: {e}")))?;
        frames.push(TimedFrame {
            tick,
            collector,
            bytes,
        });
        Ok::<(), FleetError>(())
    };

    // Initial sessions: every tier's agent connects to its owner.
    for tier in TierId::ALL {
        if let Some(col) = collectors.get_mut(*tier.select(&owner) as usize) {
            col.on_session_start(tier);
        }
    }
    for (i, s) in samples.iter().enumerate() {
        let seq = i as u64;
        if let Some(c) = chaos.filter(|c| c.crash_at_seq == seq) {
            if let Some(col) = collectors.get_mut(c.collector as usize) {
                let bytes = serde_json::to_vec(&col.export_state())
                    .map_err(|e| FleetError(format!("fleet snapshot encode: {e}")))?;
                let state: FleetCollectorState = serde_json::from_slice(&bytes)
                    .map_err(|e| FleetError(format!("fleet snapshot decode: {e}")))?;
                *col = FleetCollector::resume(&state, window_len, origin, sup_cfg);
                for tier in col.tiers() {
                    col.on_session_start(tier);
                }
                if let Some(flag) = resumed.get_mut(c.collector as usize) {
                    *flag = true;
                }
            }
        }
        for tier in TierId::ALL {
            // Metric synthesis is stateful across drops: run it for every
            // sample in order, exactly like a live agent.
            let ws = tier
                .select_mut(&mut samplers)
                .wire_sample(SourceSample::of_tier(tier, seq, s));
            let schedule = tier.select(schedules);
            let Some(col) = collectors.get_mut(*tier.select(&owner) as usize) else {
                continue;
            };
            if schedule.reconnect_before.contains(&seq) {
                col.on_session_start(tier);
            }
            if !schedule.drops(seq) {
                col.on_sample(tier, &ws);
            }
        }
        for col in &mut collectors {
            if let Some(frame) = col.flush(None) {
                capture(frame, seq)?;
            }
        }
    }

    if let Some(last_seq) = (samples.len() as u64).checked_sub(1) {
        for tier in TierId::ALL {
            if let Some(col) = collectors.get_mut(*tier.select(&owner) as usize) {
                col.on_bye(tier, last_seq);
            }
        }
    }
    let last_window = samples.len() as i64 / window_len - 1;
    let last_tick = samples.len() as u64;
    for col in &mut collectors {
        let fin = DigestFin {
            tiers: col.tiers(),
            last_window,
        };
        if let Some(frame) = col.flush(Some(fin)) {
            capture(frame, last_tick)?;
        }
    }

    let summaries = collectors
        .iter()
        .zip(resumed)
        .map(|(col, resumed)| CollectorSummary {
            collector: col.index(),
            tiers: col.tiers(),
            health: col.health(),
            frames: col.next_seq(),
            bytes: frames
                .iter()
                .filter(|f| f.collector == col.index())
                .map(|f| f.bytes.len() as u64)
                .sum(),
            anomalies: col.anomalies(),
            resumed,
        })
        .collect();
    Ok(DigestStream {
        frames,
        collectors: summaries,
        assignment: TierId::ALL
            .into_iter()
            .map(|t| (t, *t.select(&owner)))
            .collect(),
        last_tick,
    })
}

/// Run `samples` through a sharded fleet — [`collect_digest_stream`]
/// with the same arguments — and merge the captured digests into the
/// global outcome.
///
/// `_codec` names the back-haul dialect, of which one is left: the
/// argument stays only because the benchmark's adapter, which may not
/// change, passes it.
///
/// # Errors
///
/// [`FleetError`] as for [`collect_digest_stream`], or when the
/// back-haul does not read back as digest frames.
pub fn run_fleet(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    schedules: &[FaultSchedule; 2],
    topology: &FleetTopology,
    chaos: Option<FleetChaos>,
    _codec: WireCodec,
) -> Result<FleetOutcome, FleetError> {
    let stream = collect_digest_stream(meter, samples, base_seed, schedules, topology, chaos)?;
    // Emission order interleaves the collectors tick by tick; the merge
    // is order-independent, and the fleet tests shuffle the order to
    // prove it.
    let mut node = MergeNode::new(meter.clone());
    for frame in &stream.frames {
        match read_frame(&mut frame.bytes.as_slice()) {
            Ok(Frame::Digest(digest)) => node.ingest(&digest),
            Ok(_) => {
                return Err(FleetError(
                    "fleet back-haul carried a non-digest frame".to_string(),
                ))
            }
            Err(e) => return Err(FleetError(format!("fleet back-haul read: {e}"))),
        }
    }
    Ok(FleetOutcome {
        merge: node.finalize(),
        collectors: stream.collectors,
        assignment: stream.assignment,
    })
}
