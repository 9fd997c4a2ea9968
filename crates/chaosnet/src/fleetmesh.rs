//! The chaos mesh over the fleet digest back-haul.
//!
//! The fleet harness comes in two halves so a chaos schedule can sit
//! between them: `webcap_fleet::collect_digest_stream` runs the sharded
//! collectors and captures every flushed [`DigestFrame`] as encoded
//! wire bytes stamped with the simulated tick it was flushed at, and
//! [`merge_stream`] here replays that stream into a [`MergeNode`],
//! applying a [`ChaosSchedule`] to the back-haul: corrupted/truncated/
//! dropped digests are *lost* (and reported), duplicates are ingested
//! twice, reorders swap delivery order, and a scripted partition holds
//! a collector's frames until the heal tick.
//!
//! Because the merge is a pure function of the *set* of ingested
//! digests, the suite can state exact oracles: loss-free chaos must be
//! byte-identical to the unfaulted baseline, and lossy chaos must be
//! byte-identical to a clean merge of exactly the surviving frames.

use std::collections::BTreeMap;

use webcap_core::CapacityMeter;
use webcap_fleet::{DigestStream, FleetError, MergeNode, MergeOutcome};
use webcap_net::frame::{try_extract_frame, Frame};
use webcap_net::DigestFrame;

use crate::schedule::{corrupt_frame, ChaosSchedule, FrameFault};

/// A back-haul frame the chaos schedule destroyed before the merge
/// could ingest it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct LostFrame {
    /// Index into [`DigestStream::frames`].
    pub index: usize,
    /// Emitting collector.
    pub collector: u32,
    /// Flush tick of the lost frame.
    pub tick: u64,
    /// The fault that destroyed it.
    pub fault: FrameFault,
}

/// Decode one captured back-haul frame, demanding a lone `Digest`.
fn decode_digest(bytes: &[u8]) -> Result<DigestFrame, FleetError> {
    match try_extract_frame(bytes) {
        Ok(Some((Frame::Digest(d), used))) if used == bytes.len() => Ok(d),
        Ok(Some(_)) => Err(FleetError(
            "non-digest frame or trailing bytes in back-haul stream".to_string(),
        )),
        Ok(None) => Err(FleetError("incomplete digest frame".to_string())),
        Err(e) => Err(FleetError(format!("digest decode: {e}"))),
    }
}

/// A planned delivery of one stream frame.
struct Delivery {
    deliver_tick: u64,
    ord: u64,
    index: usize,
    copies: u32,
}

/// Replay a captured digest stream into a merge under a chaos schedule.
///
/// Per-collector frame indices drive the roll faults; the scripted
/// partition is keyed on *ticks* and holds a collector's frames until
/// the heal tick. Frames are ingested in delivery order — by delivery
/// tick, then emission order as the faults shifted it. Corrupted and
/// truncated frames are pushed through the real decoder (their typed
/// failure is asserted) and reported as lost together with dropped
/// frames.
///
/// Returns the merge outcome and the lost-frame list; with `chaos:
/// None` this is exactly the clean ordered merge of the whole stream.
pub fn merge_stream(
    meter: &CapacityMeter,
    stream: &DigestStream,
    chaos: Option<&ChaosSchedule>,
) -> Result<(MergeOutcome, Vec<LostFrame>), FleetError> {
    let mut plan: Vec<Delivery> = Vec::new();
    let mut lost: Vec<LostFrame> = Vec::new();
    let mut per_conn: BTreeMap<u32, u64> = BTreeMap::new();
    for (index, frame) in stream.frames.iter().enumerate() {
        let counter = per_conn.entry(frame.collector).or_insert(0);
        let idx = *counter;
        *counter += 1;
        let fault = match chaos {
            Some(c) => c.fleet_fault(frame.collector, idx, frame.tick),
            None => FrameFault::None,
        };
        let ord = (index as u64) * 2;
        let (deliver_tick, ord, copies) = match fault {
            FrameFault::Corrupt | FrameFault::Truncate | FrameFault::Drop => {
                // Destroyed frames are lost; the mangled bytes go
                // through the real decoder first, which must refuse them.
                let mangled = match (fault, chaos) {
                    (FrameFault::Corrupt, _) => Some(corrupt_frame(&frame.bytes)),
                    (FrameFault::Truncate, Some(c)) => {
                        Some(c.truncate_frame(frame.collector, idx, &frame.bytes))
                    }
                    _ => None,
                };
                if mangled.is_some_and(|m| decode_digest(&m).is_ok()) {
                    return Err(FleetError(format!(
                        "digest frame {index} decoded successfully after {fault:?}"
                    )));
                }
                lost.push(LostFrame {
                    index,
                    collector: frame.collector,
                    tick: frame.tick,
                    fault,
                });
                continue;
            }
            FrameFault::Partitioned => {
                let until = chaos
                    .and_then(|c| c.profile.partition.as_ref())
                    .map_or(frame.tick, |p| p.until);
                (until.max(frame.tick), ord, 1)
            }
            FrameFault::Duplicate => (frame.tick, ord, 2),
            // Nudge past the next delivery at the same tick; the merge
            // is order-independent, so only the delivery order moves.
            FrameFault::Reorder => (frame.tick, ord + 3, 1),
            FrameFault::None | FrameFault::Split | FrameFault::Stall => (frame.tick, ord, 1),
        };
        plan.push(Delivery {
            deliver_tick,
            ord,
            index,
            copies,
        });
    }
    plan.sort_by_key(|e| (e.deliver_tick, e.ord));
    let mut node = MergeNode::new(meter.clone());
    for entry in &plan {
        let Some(frame) = stream.frames.get(entry.index) else {
            continue;
        };
        let digest = decode_digest(&frame.bytes)?;
        for _ in 0..entry.copies {
            node.ingest(&digest);
        }
    }
    Ok((node.finalize(), lost))
}

/// Rebuild a stream with the given frame indices removed — the
/// kept-set oracle's input after a lossy chaos run.
pub fn without_frames(stream: &DigestStream, lost: &[LostFrame]) -> DigestStream {
    let gone: std::collections::BTreeSet<usize> = lost.iter().map(|l| l.index).collect();
    DigestStream {
        frames: stream
            .frames
            .iter()
            .enumerate()
            .filter(|(i, _)| !gone.contains(i))
            .map(|(_, f)| f.clone())
            .collect(),
        collectors: stream.collectors.clone(),
        assignment: stream.assignment.clone(),
        last_tick: stream.last_tick,
    }
}
