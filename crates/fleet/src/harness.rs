//! Deterministic in-process fleet harness.
//!
//! [`run_fleet`] runs a full sharded deployment over a scripted sample
//! stream: the shard map routes each tier's agent to its owning
//! collector, every collector digests its shard and flushes sequenced
//! [`DigestFrame`]s, each is encoded as back-haul wire bytes, and the
//! merge node reads them back and finalizes the global outcome.
//! Per-tier fault schedules reproduce the loopback plane's scripted
//! outages.
//!
//! The whole run is a pure function of its inputs: same meter, samples,
//! seed, schedules, and topology → byte-identical [`FleetOutcome`],
//! regardless of the collector count.

use std::convert::Infallible;
use std::fmt;

use webcap_core::CapacityMeter;
use webcap_net::{
    read_frame, write_frame_codec, CollectorConfig, DigestFin, DigestFrame, FaultSchedule, Frame,
    HealthState, SourceSample, SupervisorConfig, TierSampler, WireCodec,
};
use webcap_sim::{SystemSample, TierId};

use crate::digest::FleetCollector;
use crate::merge::{MergeNode, MergeOutcome};
use crate::shard::{AgentId, ShardMap};
use crate::topology::FleetTopology;

/// What one collector did during a fleet run.
#[derive(Debug, Clone)]
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
}

/// A fleet run's complete result: the merged global view plus
/// per-collector accounting.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merge node's global outcome.
    pub merge: MergeOutcome,
    /// Per-collector summaries, by collector index.
    pub collectors: Vec<CollectorSummary>,
}

/// A fleet run failed (back-haul codec), or its topology is not one the
/// fleet implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError(pub String);

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FleetError {}

/// The encoded back-haul of one fleet run, with the collectors' own
/// accounting of it.
pub(crate) struct DigestStream {
    /// Encoded digest frames, header included, in emission order: tick
    /// by tick, within a tick by collector index, a fin frame per
    /// collector last.
    pub(crate) frames: Vec<Vec<u8>>,
    collectors: Vec<CollectorSummary>,
}

/// The collect half of [`run_fleet`]: run the sharded collectors
/// described by `topology` over `samples`, under per-tier scripted
/// fault `schedules` (indexed by [`TierId::index`]; scheduled
/// reconnects break the session before the frame, drops discard it),
/// flushing every tick, and encode every flushed digest. Agents
/// synthesize and shards fold only the families the meter's level
/// reads.
pub(crate) fn digest_stream(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    schedules: &[FaultSchedule; 2],
    topology: &FleetTopology,
) -> Result<DigestStream, FleetError> {
    topology.validate()?;
    let window_len = (meter.config().window_len as i64).max(1);
    let origin = CollectorConfig::default().window_origin;
    let sup_cfg = SupervisorConfig::default();
    let level = meter.config().level;
    let map = ShardMap::new(topology.seed, topology.collectors);
    let owner = TierId::ALL.map(|t| map.owner(AgentId::primary(t)));
    let mut collectors: Vec<FleetCollector> = (0..map.collectors())
        .map(|c| {
            let tiers: Vec<TierId> = TierId::ALL
                .into_iter()
                .filter(|t| *t.select(&owner) == c)
                .collect();
            FleetCollector::for_level(c, &tiers, window_len, origin, sup_cfg, level)
        })
        .collect();
    let mut samplers = TierId::ALL
        .map(|t| TierSampler::for_level(t, meter.config().hpc_model.clone(), base_seed, level));

    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut bytes_by_collector = vec![0u64; collectors.len()];
    let mut scratch = Vec::new();
    let mut capture = |frame: DigestFrame, tick: u64| {
        let collector = frame.collector as usize;
        let mut bytes = Vec::new();
        write_frame_codec(
            &mut bytes,
            &Frame::Digest(frame),
            WireCodec::Binary,
            &mut scratch,
        )
        .map_err(|e| FleetError(format!("fleet back-haul at tick {tick}: {e}")))?;
        if let Some(total) = bytes_by_collector.get_mut(collector) {
            *total += bytes.len() as u64;
        }
        frames.push(bytes);
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
    for col in &mut collectors {
        let fin = DigestFin {
            tiers: col.tiers(),
            last_window,
        };
        if let Some(frame) = col.flush(Some(fin)) {
            capture(frame, samples.len() as u64)?;
        }
    }

    let summaries = collectors
        .iter()
        .zip(bytes_by_collector)
        .map(|(col, bytes)| CollectorSummary {
            collector: col.index(),
            tiers: col.tiers(),
            health: col.health(),
            frames: col.next_seq(),
            bytes,
            anomalies: col.anomalies(),
        })
        .collect();
    Ok(DigestStream {
        frames,
        collectors: summaries,
    })
}

/// Run `samples` through the sharded fleet `topology` describes, under
/// per-tier scripted fault `schedules` (indexed by [`TierId::index`];
/// scheduled reconnects break the session before the frame, drops
/// discard it), and merge the encoded back-haul into the global outcome.
///
/// The whole fleet runs at the meter's level: each agent synthesizes
/// ([`TierSampler::for_level`]) and each shard digests
/// ([`FleetCollector::for_level`]) only the metric families the merge
/// node's meter reads, so the back-haul carries no family it would
/// drop. The decisions are those of a full-width fleet, because the
/// merge builds every window at the meter's level either way.
///
/// `_chaos` admits only `None`: no collector is ever crashed. `_codec`
/// names the back-haul dialect, of which one is left. Both arguments
/// stay only because the benchmark's adapter, which may not change,
/// passes them.
///
/// # Errors
///
/// [`FleetError`] when `topology` is not one the fleet implements
/// ([`FleetTopology::validate`]), when the back-haul codec fails, or
/// when the back-haul does not read back as digest frames — never for
/// fleet-quality events (those are evidence in the outcome, not
/// errors).
pub fn run_fleet(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    schedules: &[FaultSchedule; 2],
    topology: &FleetTopology,
    _chaos: Option<Infallible>,
    _codec: WireCodec,
) -> Result<FleetOutcome, FleetError> {
    let stream = digest_stream(meter, samples, base_seed, schedules, topology)?;
    // Emission order interleaves the collectors tick by tick; the merge
    // is order-independent, and the fleet tests shuffle the order to
    // prove it.
    let mut node = MergeNode::new(meter.clone());
    for frame in &stream.frames {
        match read_frame(&mut frame.as_slice()) {
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
    })
}
