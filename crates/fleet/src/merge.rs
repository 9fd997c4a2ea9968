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

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;
use webcap_core::{CapacityMeter, OnlineDecision};
use webcap_net::{score_window, DigestFin, DigestFrame, HealthState, TierWindowDigest};

/// Partition-liveness policy for the merge node, driven entirely by the
/// caller's deterministic clock (a tick is whatever unit the harness
/// stamps frames with — the fleet harness uses the sample sequence).
///
/// The default **disables** detection (`deadline_ticks == 0`): a plain
/// [`MergeNode::new`] behaves exactly as before, and liveness is pure
/// audit state even when enabled — arriving frames are always ingested,
/// so enabling it provably changes no byte of the decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MergeLivenessConfig {
    /// A collector silent for more than this many ticks (per
    /// [`MergeNode::observe_tick`]) is declared [`CollectorLiveness::Partitioned`].
    /// `0` disables detection.
    pub deadline_ticks: u64,
    /// Hysteretic rejoin: consecutive in-sequence frames a partitioned
    /// collector must deliver before it is trusted
    /// [`CollectorLiveness::Live`] again (its first frame back starts
    /// the streak; a fresh sequence gap restarts it).
    pub rejoin_clean_frames: u64,
}

impl Default for MergeLivenessConfig {
    fn default() -> MergeLivenessConfig {
        MergeLivenessConfig {
            deadline_ticks: 0,
            rejoin_clean_frames: 2,
        }
    }
}

/// A collector's liveness as the merge node sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CollectorLiveness {
    /// Frames arrive within the deadline.
    Live,
    /// Silent past the deadline. Its shard's windows stay incomplete
    /// (withheld, never scored) until digests resume; frames it emitted
    /// but never delivered surface as sequence holes in
    /// [`MergeOutcome::lost_digests`] once it rejoins.
    Partitioned,
    /// Delivering frames again but still inside the rejoin hysteresis.
    Rejoining,
}

/// One liveness transition, for the audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PartitionEvent {
    /// The collector whose state changed.
    pub collector: u32,
    /// Caller-clock tick the transition happened at.
    pub tick: u64,
    /// State after the transition.
    pub to: CollectorLiveness,
}

/// Per-collector liveness bookkeeping (audit only — never gates
/// ingestion).
#[derive(Debug, Clone)]
struct LivenessTrack {
    state: CollectorLiveness,
    last_seen: u64,
    last_seq: Option<u64>,
    clean: u64,
}

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
    liveness_cfg: MergeLivenessConfig,
    tracks: BTreeMap<u32, LivenessTrack>,
    partition_events: Vec<PartitionEvent>,
}

impl MergeNode {
    /// A merge node scoring with `meter` (its model state is consumed
    /// by the decision stream, exactly like the in-process monitor).
    pub fn new(meter: CapacityMeter) -> MergeNode {
        MergeNode::with_liveness(meter, MergeLivenessConfig::default())
    }

    /// A merge node with partition detection armed (see
    /// [`MergeLivenessConfig`]). With the default (disabled) config this
    /// is exactly [`MergeNode::new`].
    pub fn with_liveness(meter: CapacityMeter, liveness_cfg: MergeLivenessConfig) -> MergeNode {
        MergeNode {
            meter,
            windows: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            anomalies: 0,
            seqs: BTreeMap::new(),
            safe_mode_frames: 0,
            fins: BTreeMap::new(),
            frames: 0,
            liveness_cfg,
            tracks: BTreeMap::new(),
            partition_events: Vec::new(),
        }
    }

    /// Announce a collector the topology expects, so silence from it is
    /// detectable from tick zero — a fully partitioned collector never
    /// delivers a first frame to register itself with.
    pub fn register_collector(&mut self, collector: u32, tick: u64) {
        self.tracks.entry(collector).or_insert(LivenessTrack {
            state: CollectorLiveness::Live,
            last_seen: tick,
            last_seq: None,
            clean: 0,
        });
    }

    /// Absorb one digest frame stamped with the caller's deterministic
    /// clock, updating the sender's liveness. The frame is **always**
    /// ingested regardless of liveness state — rejoin hysteresis is
    /// audit-only, which is what makes it provably byte-neutral.
    pub fn ingest_at(&mut self, frame: &DigestFrame, tick: u64) {
        let cfg = self.liveness_cfg;
        let track = self.tracks.entry(frame.collector).or_insert(LivenessTrack {
            state: CollectorLiveness::Live,
            last_seen: tick,
            last_seq: None,
            clean: 0,
        });
        let in_seq = track
            .last_seq
            .is_none_or(|p| frame.seq == p.wrapping_add(1));
        track.last_seen = tick;
        if track.last_seq.is_none_or(|p| frame.seq > p) {
            track.last_seq = Some(frame.seq);
        }
        let mut events: Vec<PartitionEvent> = Vec::new();
        match track.state {
            CollectorLiveness::Live => {}
            CollectorLiveness::Partitioned => {
                track.state = CollectorLiveness::Rejoining;
                track.clean = 1;
                events.push(PartitionEvent {
                    collector: frame.collector,
                    tick,
                    to: CollectorLiveness::Rejoining,
                });
            }
            CollectorLiveness::Rejoining => {
                track.clean = if in_seq {
                    track.clean.saturating_add(1)
                } else {
                    1
                };
            }
        }
        if track.state == CollectorLiveness::Rejoining
            && track.clean >= cfg.rejoin_clean_frames.max(1)
        {
            track.state = CollectorLiveness::Live;
            track.clean = 0;
            events.push(PartitionEvent {
                collector: frame.collector,
                tick,
                to: CollectorLiveness::Live,
            });
        }
        self.partition_events.extend(events);
        self.ingest(frame);
    }

    /// Advance the caller's deterministic clock: every registered (or
    /// previously heard-from) collector silent for more than the
    /// liveness deadline flips to [`CollectorLiveness::Partitioned`].
    /// No-op while detection is disabled.
    pub fn observe_tick(&mut self, tick: u64) {
        let deadline = self.liveness_cfg.deadline_ticks;
        if deadline == 0 {
            return;
        }
        for (&collector, track) in self.tracks.iter_mut() {
            if track.state != CollectorLiveness::Partitioned
                && tick.saturating_sub(track.last_seen) > deadline
            {
                track.state = CollectorLiveness::Partitioned;
                track.clean = 0;
                self.partition_events.push(PartitionEvent {
                    collector,
                    tick,
                    to: CollectorLiveness::Partitioned,
                });
            }
        }
    }

    /// A collector's current liveness, if it ever registered or spoke.
    pub fn liveness(&self, collector: u32) -> Option<CollectorLiveness> {
        self.tracks.get(&collector).map(|t| t.state)
    }

    /// The liveness-transition audit log so far.
    pub fn partition_events(&self) -> &[PartitionEvent] {
        &self.partition_events
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
            liveness_cfg: _,
            tracks,
            partition_events,
        } = self;
        let mut decisions: Vec<(i64, OnlineDecision)> = Vec::new();
        let mut incomplete: Vec<i64> = Vec::new();
        let mut prev_fed: Option<i64> = None;
        for (window, pair) in windows {
            if poisoned.contains(&window) {
                continue;
            }
            let [Some(app), Some(db)] = pair else {
                incomplete.push(window);
                continue;
            };
            match score_window(&mut meter, &mut prev_fed, app, db) {
                Some(decision) => decisions.push((window, decision)),
                None => {
                    // An application-tier digest without usable
                    // front-end evidence: the digester never emits one,
                    // so this is a forged or corrupted frame.
                    anomalies += 1;
                    incomplete.push(window);
                }
            }
        }
        let lost_digests = seqs
            .values()
            .map(|s| {
                s.iter()
                    .next_back()
                    .map_or(0, |&max| max + 1 - s.len() as u64)
            })
            .sum();
        let partitioned = tracks
            .iter()
            .filter(|(_, t)| t.state != CollectorLiveness::Live)
            .map(|(&c, _)| c)
            .collect();
        MergeOutcome {
            decisions,
            poisoned_windows: poisoned.into_iter().collect(),
            incomplete_windows: incomplete,
            anomalies,
            frames,
            lost_digests,
            safe_mode_frames,
            fins: fins.into_iter().collect(),
            partition_events,
            partitioned,
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
    /// lost digests), ascending.
    pub incomplete_windows: Vec<i64>,
    /// Protocol surprises: duplicate sequences, conflicting claims,
    /// malformed digests.
    pub anomalies: u64,
    /// Digest frames ingested.
    pub frames: u64,
    /// Sequence holes across collectors (frames emitted but never
    /// ingested).
    pub lost_digests: u64,
    /// Frames that arrived stamped SafeMode.
    pub safe_mode_frames: u64,
    /// Per-collector end-of-stream announcements, by collector index.
    pub fins: Vec<(u32, DigestFin)>,
    /// The liveness-transition audit log, in detection order (empty
    /// while partition detection is disabled).
    pub partition_events: Vec<PartitionEvent>,
    /// Collectors not [`CollectorLiveness::Live`] at finalize,
    /// ascending.
    pub partitioned: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use webcap_core::MeterConfig;
    use webcap_net::{read_frame, FaultSchedule, Frame, WireCodec};
    use webcap_sim::Simulation;
    use webcap_tpcw::{Mix, TrafficProgram};

    use super::*;
    use crate::{collect_digest_stream, FleetTopology};

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
        let meter =
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains");
        let mut sim = meter.config().sim.clone();
        sim.seed = 400;
        let program = TrafficProgram::steady(Mix::ordering(), 60, 120.0);
        let samples = Simulation::new(sim, program).run().samples;
        let stream = collect_digest_stream(
            &meter,
            &samples,
            17,
            &[FaultSchedule::NONE, FaultSchedule::NONE],
            &FleetTopology::two_tier("dup", 32, 2),
            None,
            WireCodec::Binary,
        )
        .expect("digest stream captures");
        let frames: Vec<DigestFrame> = stream
            .frames
            .iter()
            .map(|f| match read_frame(&mut f.bytes.as_slice()) {
                Ok(Frame::Digest(digest)) => digest,
                other => panic!("back-haul carried {other:?}"),
            })
            .collect();
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
}
