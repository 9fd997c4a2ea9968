//! The front-end merge node: assembles per-collector digest frames
//! into a global per-window view and emits admission decisions.
//!
//! The merge is **order-independent by construction**: `ingest` only
//! writes into keyed, commutative state (per-window tier slots, the
//! poisoned set, per-collector seen-sequence sets), and `finalize`
//! walks the windows in ascending index order. The outcome is
//! therefore a pure function of the *set* of ingested frames — the
//! same bytes regardless of how many collectors produced them, the
//! order their frames arrived, or how work was scheduled.
//!
//! Trust policy at the edge: a frame stamped SafeMode poisons the
//! windows it carries instead of scoring them (mirroring the unsharded
//! collector's safe-mode admission rule), and two *different* digests
//! claiming the same `(window, tier)` is a topology violation — the
//! window is quarantined rather than letting arrival order pick a
//! winner. The same digest delivered twice is a re-delivery: counted
//! as a duplicate `seq`, otherwise ignored.
//!
//! Nothing goes unaccounted: a collector's final frame carries a
//! [`DigestFin`] naming the last full window of the stream, and every
//! window up to it ends up decided, poisoned, or incomplete — even one
//! whose every digest was lost in transit.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;
use webcap_core::{CapacityMeter, OnlineDecision};
use webcap_net::{
    score_window, DigestFin, DigestFrame, HealthState, TierWindowDigest, MAX_GAP_WINDOWS,
};

/// Merge-node accumulator. Feed every collector's [`DigestFrame`]s via
/// [`MergeNode::ingest`] (any order), then [`MergeNode::finalize`].
#[derive(Debug)]
pub struct MergeNode {
    meter: CapacityMeter,
    windows: BTreeMap<i64, [Option<TierWindowDigest>; 2]>,
    poisoned: BTreeSet<i64>,
    anomalies: u64,
    seqs: BTreeMap<u32, BTreeSet<u64>>,
    safe_mode_frames: u64,
    fins: BTreeMap<u32, DigestFin>,
    frames: u64,
}

impl MergeNode {
    /// A merge node scoring with `meter` (its model state is consumed
    /// by the decision stream, exactly like the in-process monitor).
    pub fn new(meter: CapacityMeter) -> MergeNode {
        MergeNode {
            meter,
            windows: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            anomalies: 0,
            seqs: BTreeMap::new(),
            safe_mode_frames: 0,
            fins: BTreeMap::new(),
            frames: 0,
        }
    }

    /// Absorb one digest frame. Every update commutes with every other
    /// frame's, so ingestion order cannot influence [`MergeNode::finalize`].
    pub fn ingest(&mut self, frame: &DigestFrame) {
        self.frames += 1;
        if !self
            .seqs
            .entry(frame.collector)
            .or_default()
            .insert(frame.seq)
        {
            // The same (collector, seq) seen twice: a replayed or forked
            // transcript.
            self.anomalies += 1;
        }
        self.poisoned.extend(frame.poisoned.iter().copied());
        let safe = frame.health == HealthState::SafeMode;
        if safe {
            self.safe_mode_frames += 1;
        }
        for dig in &frame.windows {
            if safe {
                // Safe-mode admission at the fleet edge: evidence from a
                // collector that has lost confidence in itself is
                // quarantined, not scored.
                self.poisoned.insert(dig.window);
                continue;
            }
            let slot = self.windows.entry(dig.window).or_default();
            match dig.tier.select_mut(slot) {
                // The digest already held, delivered again: the
                // duplicate `seq` above is the whole record of it.
                Some(held) if held == dig => {}
                Some(_) => {
                    // Two different claims on one (window, tier): the
                    // shard map guarantees a unique owner, so never let
                    // arrival order pick a winner.
                    self.anomalies += 1;
                    self.poisoned.insert(dig.window);
                }
                empty => *empty = Some(dig.clone()),
            }
        }
        if let Some(fin) = &frame.fin {
            let replaced = self.fins.insert(frame.collector, fin.clone());
            if replaced.is_some_and(|held| held != *fin) {
                self.anomalies += 1;
            }
        }
    }

    /// Score every complete, unpoisoned window in ascending order and
    /// return the global outcome. The decision stream is byte-identical
    /// to the unsharded collector's over the same surviving windows:
    /// both score through [`score_window`].
    ///
    /// Every window up to the last one a received fin announces is
    /// accounted for: decided, poisoned, or incomplete — including a
    /// window no digest of which arrived at all — up to at most
    /// [`MAX_GAP_WINDOWS`] past the highest window a digest or a poison
    /// verdict names.
    pub fn finalize(self) -> MergeOutcome {
        let MergeNode {
            mut meter,
            windows,
            poisoned,
            mut anomalies,
            seqs,
            safe_mode_frames,
            fins,
            frames,
        } = self;
        let mut decisions: Vec<(i64, OnlineDecision)> = Vec::new();
        // Windows a fin announced but no digest covered are incomplete
        // from the start; the walk below adds the half-covered ones. A
        // fin comes off the wire, so like a sequence gap it may name at
        // most MAX_GAP_WINDOWS windows past any held evidence; beyond
        // that it is an anomaly, and clamped.
        let mut last_announced = fins.values().map(|fin| fin.last_window).max().unwrap_or(-1);
        let evidence = windows.keys().next_back().max(poisoned.last());
        let bound = evidence.map_or(-1, |&w| w).saturating_add(MAX_GAP_WINDOWS);
        if last_announced > bound {
            anomalies += 1;
            last_announced = bound;
        }
        let mut incomplete: BTreeSet<i64> = (0..=last_announced)
            .filter(|w| !poisoned.contains(w) && !windows.contains_key(w))
            .collect();
        let mut prev_fed: Option<i64> = None;
        for (window, pair) in windows {
            if poisoned.contains(&window) {
                continue;
            }
            let [Some(app), Some(db)] = pair else {
                incomplete.insert(window);
                continue;
            };
            match score_window(&mut meter, &mut prev_fed, app, db) {
                Some(decision) => decisions.push((window, decision)),
                None => {
                    // An application-tier digest without usable
                    // front-end evidence: the digester never emits one,
                    // so this is a forged or corrupted frame.
                    anomalies += 1;
                    incomplete.insert(window);
                }
            }
        }
        // Seqs come off the wire too: `max - (held - 1)` cannot overflow
        // (the held seqs are distinct and at most `max`), and the total
        // saturates.
        let lost_digests = seqs.values().fold(0u64, |total, s| {
            let lost = s.last().map_or(0, |&max| max - (s.len() as u64 - 1));
            total.saturating_add(lost)
        });
        MergeOutcome {
            decisions,
            poisoned_windows: poisoned.into_iter().collect(),
            incomplete_windows: incomplete.into_iter().collect(),
            anomalies,
            frames,
            lost_digests,
            safe_mode_frames,
            fins: fins.into_iter().collect(),
        }
    }
}

/// The merged global view: the admission-decision stream plus the
/// evidence ledger explaining which windows were withheld and why.
#[derive(Debug, Clone, Serialize)]
pub struct MergeOutcome {
    /// `(window, decision)` for every scored window, ascending.
    pub decisions: Vec<(i64, OnlineDecision)>,
    /// Windows quarantined by any collector, by safe-mode admission, or
    /// by conflicting ownership claims; ascending, deduplicated.
    pub poisoned_windows: Vec<i64>,
    /// Unpoisoned windows some tier never covered (fleet truncation or
    /// lost digests), ascending — among them every window up to a
    /// received fin's `last_window` that no digest covered at all.
    pub incomplete_windows: Vec<i64>,
    /// Protocol surprises: duplicate sequences, conflicting claims,
    /// malformed digests, a fin far past every window the digests name.
    pub anomalies: u64,
    /// Digest frames ingested.
    pub frames: u64,
    /// Sequence holes across collectors (frames emitted but never
    /// ingested), saturating at `u64::MAX`.
    pub lost_digests: u64,
    /// Frames that arrived stamped SafeMode.
    pub safe_mode_frames: u64,
    /// Per-collector end-of-stream announcements, by collector index.
    pub fins: Vec<(u32, DigestFin)>,
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use webcap_core::MeterConfig;
    use webcap_net::{read_frame, FaultSchedule, Frame};
    use webcap_sim::Simulation;
    use webcap_tpcw::{Mix, TrafficProgram};

    use super::*;
    use crate::harness::digest_stream;
    use crate::FleetTopology;

    fn test_meter() -> CapacityMeter {
        static METER: OnceLock<CapacityMeter> = OnceLock::new();
        METER
            .get_or_init(|| {
                CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
            })
            .clone()
    }

    /// The decoded back-haul of a clean 120 s steady run (4 windows) at
    /// fleet width `k`, in emission order, fins last.
    fn digest_frames(meter: &CapacityMeter, k: u32) -> Vec<DigestFrame> {
        let mut sim = meter.config().sim.clone();
        sim.seed = 400;
        let program = TrafficProgram::steady(Mix::ordering(), 60, 120.0);
        let samples = Simulation::new(sim, program).run().samples;
        let stream = digest_stream(
            meter,
            &samples,
            17,
            &[FaultSchedule::NONE, FaultSchedule::NONE],
            &FleetTopology::two_tier("dup", 32, k),
        )
        .expect("digest stream captures");
        stream
            .frames
            .iter()
            .map(|f| match read_frame(&mut f.as_slice()) {
                Ok(Frame::Digest(digest)) => digest,
                other => panic!("back-haul carried {other:?}"),
            })
            .collect()
    }

    /// The decision-bearing part of merging `frames` in order.
    fn merged(meter: &CapacityMeter, frames: &[DigestFrame]) -> (String, Vec<i64>, u64) {
        let mut node = MergeNode::new(meter.clone());
        for frame in frames {
            node.ingest(frame);
        }
        let out = node.finalize();
        let decisions = serde_json::to_string(&out.decisions).expect("decisions serialize");
        (decisions, out.poisoned_windows, out.anomalies)
    }

    #[test]
    fn a_redelivered_frame_changes_nothing_and_a_forked_one_poisons() {
        let meter = test_meter();
        let frames = digest_frames(&meter, 2);
        let (decisions, poisoned, anomalies) = merged(&meter, &frames);
        assert_eq!(anomalies, 0);
        assert!(poisoned.is_empty());

        // Every frame delivered twice, fins included.
        let twice: Vec<DigestFrame> = frames.iter().flat_map(|f| [f.clone(), f.clone()]).collect();
        let (dup_decisions, dup_poisoned, dup_anomalies) = merged(&meter, &twice);
        assert_eq!(dup_decisions, decisions);
        assert_eq!(dup_poisoned, poisoned);
        assert_eq!(dup_anomalies, frames.len() as u64, "one per repeated seq");

        // The same seq again with one digest altered: a second, unequal
        // claim on its (window, tier).
        let mut fork = frames
            .iter()
            .find(|f| !f.windows.is_empty())
            .expect("some frame carries a digest")
            .clone();
        let window = fork.windows[0].window;
        fork.windows[0].samples += 1;
        let mut forked = frames.clone();
        forked.push(fork);
        let (_, fork_poisoned, fork_anomalies) = merged(&meter, &forked);
        assert_eq!(fork_poisoned, vec![window]);
        assert_eq!(fork_anomalies, 2, "the repeated seq and the conflict");
    }

    #[test]
    fn windows_whose_every_digest_was_lost_are_incomplete() {
        // K = 1: one collector owns both tiers, so one lost frame takes
        // both halves of every window it carried.
        let meter = test_meter();
        let mut frames = digest_frames(&meter, 1);
        let last_window = frames
            .iter()
            .find_map(|f| f.fin.as_ref())
            .expect("the stream ends in a fin")
            .last_window;
        let lost = frames
            .iter()
            .position(|f| f.fin.is_none() && !f.windows.is_empty())
            .expect("some frame carries digests");
        let carried: Vec<i64> = frames
            .remove(lost)
            .windows
            .iter()
            .map(|d| d.window)
            .collect();

        let mut node = MergeNode::new(meter);
        for frame in &frames {
            node.ingest(frame);
        }
        let out = node.finalize();

        assert_eq!(out.lost_digests, 1);
        assert!(out.incomplete_windows.is_sorted(), "ascending");
        assert!(
            carried.iter().all(|w| out.incomplete_windows.contains(w)),
            "{carried:?} must be incomplete, got {:?}",
            out.incomplete_windows
        );
        // Decided, poisoned and incomplete partition the announced range.
        let mut accounted: Vec<i64> = out.decisions.iter().map(|(w, _)| *w).collect();
        accounted.extend(&out.poisoned_windows);
        accounted.extend(&out.incomplete_windows);
        accounted.sort_unstable();
        assert_eq!(accounted, (0..=last_window).collect::<Vec<i64>>());
    }

    /// A healthy frame carrying no digest: only its seq, poisons and fin
    /// reach the merge.
    fn bare(collector: u32, seq: u64, poisoned: Vec<i64>, fin: Option<DigestFin>) -> DigestFrame {
        DigestFrame {
            collector,
            seq,
            health: HealthState::Healthy,
            windows: Vec::new(),
            poisoned,
            fin,
        }
    }

    #[test]
    fn seqs_at_the_top_of_u64_count_lost_digests_without_overflow() {
        let mut node = MergeNode::new(test_meter());
        node.ingest(&bare(0, u64::MAX, Vec::new(), None));
        node.ingest(&bare(1, u64::MAX, Vec::new(), None));
        // Each collector's seqs 0..u64::MAX are missing: u64::MAX holes
        // apiece, and the sum saturates.
        assert_eq!(node.finalize().lost_digests, u64::MAX);
    }

    #[test]
    fn a_fin_far_past_the_evidence_is_an_anomaly_and_clamped() {
        let fin = DigestFin {
            tiers: vec![webcap_sim::TierId::App, webcap_sim::TierId::Db],
            last_window: i64::MAX,
        };
        let mut node = MergeNode::new(test_meter());
        node.ingest(&bare(0, 0, vec![3], Some(fin)));
        let out = node.finalize();

        assert_eq!(out.anomalies, 1);
        // Windows 0..=3 + MAX_GAP_WINDOWS, less the poisoned one.
        assert_eq!(out.incomplete_windows.len() as i64, 3 + MAX_GAP_WINDOWS);
        assert_eq!(out.incomplete_windows.last(), Some(&(3 + MAX_GAP_WINDOWS)));
    }
}
