//! Seeded, deterministic fault schedules for the chaos mesh.
//!
//! Every fault the mesh injects is a pure function of `(seed, conn,
//! frame index)` — there is no entropy source anywhere in the chaos
//! plane. That is the property the equivalence suites lean on: given a
//! [`ChaosSchedule`], the exact byte-level mutilation of every frame is
//! reproducible on any machine, and the schedule can be *compiled* into
//! the telemetry plane's [`FaultSchedule`] vocabulary so the loopback
//! oracle predicts the surviving window set analytically.
//!
//! The compilation step encodes the collector-observable semantics of
//! each fault family:
//!
//! | fault        | wire effect                          | oracle mapping              |
//! |--------------|--------------------------------------|-----------------------------|
//! | `Corrupt`    | magic byte flipped → typed decode error, session dies | drop + reconnect before next |
//! | `Truncate`   | strict payload prefix, header rewritten → typed decode error, session dies | drop + reconnect before next |
//! | `Drop`       | frame never arrives                  | drop                        |
//! | `Duplicate`  | frame arrives twice (second is a backward seq → anomaly) | none            |
//! | `Split`      | frame arrives in byte-level chunks   | none                        |
//! | `Stall`      | frame arrives late (pacing only)     | none                        |
//! | `Reorder`    | frame swaps with its successor (late copy → anomaly) | drop            |
//! | `Partitioned`| link black-holed for a seq range, session dies | drop range + reconnect at heal |

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use webcap_net::FaultSchedule;

/// SplitMix64: the project's standard cheap, well-mixed integer hash.
/// Used here to derive per-frame fault rolls from `(seed, conn, idx)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the chaos mesh does to one frame on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameFault {
    /// Frame delivered intact.
    None,
    /// The frame's first magic byte is flipped; the decoder must fail
    /// with a typed error and the session dies.
    Corrupt,
    /// The payload is cut to a strict prefix and the length header is
    /// rewritten to match, so the decoder sees a *complete* frame with
    /// a short payload — the hostile case for the binary codec.
    Truncate,
    /// Frame silently dropped.
    Drop,
    /// Frame delivered twice; the second copy is a backward sequence
    /// the assembler must count as an anomaly and otherwise ignore.
    Duplicate,
    /// Frame delivered byte-by-byte in deterministic chunks, exercising
    /// every resume point of the incremental frame extractor.
    Split,
    /// Frame delivered after a pacing delay. Outcome-neutral by
    /// construction; exists to exercise readiness polling and, over a
    /// real socket, the collector's stall budget.
    Stall,
    /// Frame swapped with its successor (which is guaranteed fault-free
    /// when this fault is effective — see
    /// [`ChaosSchedule::effective_fault`]).
    Reorder,
    /// Frame black-holed by a link partition; the first partitioned
    /// frame also kills the session.
    Partitioned,
}

/// A deterministic link partition: connection `conn` delivers nothing
/// for indices (or, on the fleet back-haul, ticks) in `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// The connection (tier index or collector id) that is cut off.
    pub conn: u32,
    /// First blacked-out index/tick (inclusive).
    pub from: u64,
    /// First index/tick after the partition heals (exclusive).
    pub until: u64,
}

/// Per-mille fault rates plus an optional scripted partition.
///
/// The rates are walked cumulatively in declaration order against a
/// roll in `0..1000`; their sum should stay at or below 1000 (excess
/// probability mass simply starves the later families).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Per-mille rate of [`FrameFault::Corrupt`].
    pub corrupt_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Truncate`].
    pub truncate_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Drop`].
    pub drop_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Duplicate`].
    pub dup_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Split`].
    pub split_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Stall`].
    pub stall_per_mille: u32,
    /// Per-mille rate of [`FrameFault::Reorder`].
    pub reorder_per_mille: u32,
    /// Optional scripted partition, applied before any roll.
    pub partition: Option<Partition>,
}

impl ChaosProfile {
    /// A profile with no faults at all.
    pub fn quiet() -> ChaosProfile {
        ChaosProfile {
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            split_per_mille: 0,
            stall_per_mille: 0,
            reorder_per_mille: 0,
            partition: None,
        }
    }

    /// Corruption-heavy family: bit flips, truncations, and drops with
    /// plenty of split writes to stress the incremental decoder.
    pub fn corruption_heavy() -> ChaosProfile {
        ChaosProfile {
            corrupt_per_mille: 40,
            truncate_per_mille: 30,
            drop_per_mille: 20,
            split_per_mille: 200,
            ..ChaosProfile::quiet()
        }
    }

    /// Stall/partition-heavy family: pacing stalls, split writes, a few
    /// drops, and a scripted partition of connection 0 over `[70, 100)`.
    pub fn stall_partition_heavy() -> ChaosProfile {
        ChaosProfile {
            drop_per_mille: 10,
            split_per_mille: 100,
            stall_per_mille: 150,
            partition: Some(Partition {
                conn: 0,
                from: 70,
                until: 100,
            }),
            ..ChaosProfile::quiet()
        }
    }

    /// Reorder/duplicate-heavy family: adjacent swaps and duplicated
    /// frames, which the assembler must absorb as anomalies without any
    /// window effect beyond the swapped-out slot.
    pub fn reorder_dup_heavy() -> ChaosProfile {
        ChaosProfile {
            drop_per_mille: 10,
            dup_per_mille: 40,
            split_per_mille: 120,
            reorder_per_mille: 60,
            ..ChaosProfile::quiet()
        }
    }
}

/// A seeded chaos schedule: the pure function from `(conn, frame
/// index)` to the fault injected on that frame, plus the byte-level
/// parameters (chunk sizes, truncation lengths) derived from the same
/// seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Seed mixed into every per-frame roll.
    pub seed: u64,
    /// The fault-rate profile this schedule draws from.
    pub profile: ChaosProfile,
}

impl ChaosSchedule {
    /// Construct a schedule from a seed and a profile.
    pub fn new(seed: u64, profile: ChaosProfile) -> ChaosSchedule {
        ChaosSchedule { seed, profile }
    }

    /// The per-frame mixing hash. `salt` separates independent draws
    /// about the same frame (fault roll vs. chunk size vs. truncation
    /// length).
    fn mix(&self, conn: u32, idx: u64, salt: u64) -> u64 {
        let lane = (u64::from(conn) << 48) ^ idx ^ salt.wrapping_mul(0xA5A5_A5A5_A5A5_A5A5);
        splitmix64(self.seed ^ splitmix64(lane))
    }

    /// The roll-based fault for a frame, ignoring any scripted
    /// partition. The roll is walked through the profile's cumulative
    /// per-mille thresholds in fixed order.
    pub fn roll_fault(&self, conn: u32, idx: u64) -> FrameFault {
        let roll = (self.mix(conn, idx, 1) % 1000) as u32;
        let p = &self.profile;
        let mut edge = p.corrupt_per_mille;
        if roll < edge {
            return FrameFault::Corrupt;
        }
        edge = edge.saturating_add(p.truncate_per_mille);
        if roll < edge {
            return FrameFault::Truncate;
        }
        edge = edge.saturating_add(p.drop_per_mille);
        if roll < edge {
            return FrameFault::Drop;
        }
        edge = edge.saturating_add(p.dup_per_mille);
        if roll < edge {
            return FrameFault::Duplicate;
        }
        edge = edge.saturating_add(p.split_per_mille);
        if roll < edge {
            return FrameFault::Split;
        }
        edge = edge.saturating_add(p.stall_per_mille);
        if roll < edge {
            return FrameFault::Stall;
        }
        edge = edge.saturating_add(p.reorder_per_mille);
        if roll < edge {
            return FrameFault::Reorder;
        }
        FrameFault::None
    }

    /// The fault for frame `idx` on connection `conn`: the scripted
    /// partition takes precedence over any roll.
    pub fn frame_fault(&self, conn: u32, idx: u64) -> FrameFault {
        if let Some(p) = &self.profile.partition {
            if p.conn == conn && p.from <= idx && idx < p.until {
                return FrameFault::Partitioned;
            }
        }
        self.roll_fault(conn, idx)
    }

    /// The fault for a fleet back-haul frame, where the partition is
    /// keyed on the frame's *tick* (digest flushes are sparse in frame
    /// index but dense in simulated time) while roll faults stay keyed
    /// on the per-collector frame index.
    pub fn fleet_fault(&self, conn: u32, idx: u64, tick: u64) -> FrameFault {
        if let Some(p) = &self.profile.partition {
            if p.conn == conn && p.from <= tick && tick < p.until {
                return FrameFault::Partitioned;
            }
        }
        self.roll_fault(conn, idx)
    }

    /// [`Self::frame_fault`] with the reorder degradation applied: a
    /// `Reorder` is only *effective* when a successor frame exists and
    /// is itself fault-free, because an adjacent swap is only
    /// well-defined against an intact neighbour. Everywhere a reorder
    /// cannot take effect it degrades to `None`.
    pub fn effective_fault(&self, conn: u32, idx: u64, total: u64) -> FrameFault {
        match self.frame_fault(conn, idx) {
            FrameFault::Reorder => {
                let next = idx.saturating_add(1);
                if next < total && self.frame_fault(conn, next) == FrameFault::None {
                    FrameFault::Reorder
                } else {
                    FrameFault::None
                }
            }
            fault @ (FrameFault::None
            | FrameFault::Corrupt
            | FrameFault::Truncate
            | FrameFault::Drop
            | FrameFault::Duplicate
            | FrameFault::Split
            | FrameFault::Stall
            | FrameFault::Partitioned) => fault,
        }
    }

    /// Deterministic chunk size (in bytes, at least 1) for piece
    /// `piece` of a split-delivered frame.
    pub fn chunk_len(&self, conn: u32, idx: u64, piece: u64) -> usize {
        let draw = self.mix(conn, idx ^ piece.rotate_left(17), 2);
        1 + (draw % 13) as usize
    }

    /// Deterministic *strict*-prefix length for a truncated payload:
    /// always less than `payload_len` when the payload is non-empty.
    pub fn truncate_keep(&self, conn: u32, idx: u64, payload_len: usize) -> usize {
        if payload_len == 0 {
            return 0;
        }
        (self.mix(conn, idx, 3) as usize) % payload_len
    }

    /// Rebuild a wire frame `[magic][len][payload]` as a *complete*
    /// frame carrying a strict prefix of its payload, with the length
    /// header rewritten to match. The decoder therefore sees a
    /// well-framed but internally short message — the case that must
    /// fail with a typed error rather than a panic or a hang.
    pub fn truncate_frame(&self, conn: u32, idx: u64, bytes: &[u8]) -> Vec<u8> {
        let payload = bytes.get(8..).unwrap_or(&[]);
        let keep = self.truncate_keep(conn, idx, payload.len());
        let mut out = Vec::with_capacity(8 + keep);
        out.extend_from_slice(bytes.get(..4).unwrap_or(&[]));
        out.extend_from_slice(&(keep as u32).to_le_bytes());
        out.extend_from_slice(payload.get(..keep).unwrap_or(&[]));
        out
    }

    /// Compile this schedule's effect on one connection into the
    /// telemetry plane's [`FaultSchedule`] vocabulary, using the oracle
    /// mapping documented at module level. The loopback oracle can then
    /// predict the surviving/poisoned window sets analytically.
    pub fn compile_tier_schedule(&self, conn: u32, total: u64) -> FaultSchedule {
        let mut dropped: BTreeSet<u64> = BTreeSet::new();
        let mut reconnects: BTreeSet<u64> = BTreeSet::new();
        for seq in 0..total {
            match self.effective_fault(conn, seq, total) {
                FrameFault::Corrupt | FrameFault::Truncate => {
                    dropped.insert(seq);
                    if seq + 1 < total {
                        reconnects.insert(seq + 1);
                    }
                }
                FrameFault::Drop | FrameFault::Reorder | FrameFault::Partitioned => {
                    dropped.insert(seq);
                }
                FrameFault::None
                | FrameFault::Duplicate
                | FrameFault::Split
                | FrameFault::Stall => {}
            }
        }
        if let Some(p) = &self.profile.partition {
            if p.conn == conn && p.from < total && p.until < total && p.from < p.until {
                reconnects.insert(p.until);
            }
        }
        let mut drop_ranges: Vec<(u64, u64)> = Vec::new();
        let mut run: Option<(u64, u64)> = None;
        for seq in dropped {
            run = match run {
                Some((lo, hi)) if seq == hi + 1 => Some((lo, seq)),
                Some(range) => {
                    drop_ranges.push(range);
                    Some((seq, seq))
                }
                None => Some((seq, seq)),
            };
        }
        if let Some(range) = run {
            drop_ranges.push(range);
        }
        FaultSchedule {
            drop_ranges,
            reconnect_before: reconnects.into_iter().collect(),
        }
    }
}

/// Flip the first byte (the low byte of the frame magic) of an encoded
/// wire frame, guaranteeing a typed `BadMagic` decode error rather than
/// a silent reinterpretation of the payload.
pub fn corrupt_frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(first) = out.first_mut() {
        *first ^= 0xff;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_pure_functions_of_seed_conn_idx() {
        let a = ChaosSchedule::new(9, ChaosProfile::corruption_heavy());
        let b = ChaosSchedule::new(9, ChaosProfile::corruption_heavy());
        for conn in 0..2 {
            for idx in 0..500 {
                assert_eq!(a.frame_fault(conn, idx), b.frame_fault(conn, idx));
                assert_eq!(a.chunk_len(conn, idx, 3), b.chunk_len(conn, idx, 3));
            }
        }
        let c = ChaosSchedule::new(10, ChaosProfile::corruption_heavy());
        let differs = (0..500).any(|idx| a.frame_fault(0, idx) != c.frame_fault(0, idx));
        assert!(differs, "changing the seed must change the schedule");
    }

    #[test]
    fn partition_overrides_rolls_and_compiles_to_a_drop_range() {
        let chaos = ChaosSchedule::new(3, ChaosProfile::stall_partition_heavy());
        for idx in 70..100 {
            assert_eq!(chaos.frame_fault(0, idx), FrameFault::Partitioned);
        }
        assert_ne!(chaos.frame_fault(1, 75), FrameFault::Partitioned);
        let schedule = chaos.compile_tier_schedule(0, 240);
        assert!(
            (70..100).all(|seq| schedule.drops(seq)),
            "partitioned seqs must compile to drops"
        );
        assert!(
            schedule.reconnect_before.contains(&100),
            "the heal point must compile to a reconnect"
        );
    }

    #[test]
    fn reorder_degrades_when_the_successor_is_faulted_or_missing() {
        let profile = ChaosProfile {
            reorder_per_mille: 1000,
            ..ChaosProfile::quiet()
        };
        let chaos = ChaosSchedule::new(1, profile);
        // Every frame rolls Reorder, so no successor is ever clean and
        // every reorder must degrade.
        for idx in 0..50 {
            assert_eq!(chaos.effective_fault(0, idx, 50), FrameFault::None);
        }
    }

    #[test]
    fn truncate_keep_is_a_strict_prefix() {
        let chaos = ChaosSchedule::new(7, ChaosProfile::corruption_heavy());
        for idx in 0..200 {
            for len in 1..40 {
                assert!(chaos.truncate_keep(0, idx, len) < len);
            }
        }
        assert_eq!(chaos.truncate_keep(0, 5, 0), 0);
    }

    #[test]
    fn drop_ranges_compress_consecutive_seqs() {
        let profile = ChaosProfile {
            partition: Some(Partition {
                conn: 0,
                from: 10,
                until: 13,
            }),
            ..ChaosProfile::quiet()
        };
        let chaos = ChaosSchedule::new(0, profile);
        let schedule = chaos.compile_tier_schedule(0, 20);
        assert_eq!(schedule.drop_ranges, vec![(10, 12)]);
        assert_eq!(schedule.reconnect_before, vec![13]);
    }
}
