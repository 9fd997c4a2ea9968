//! The chaos mesh: the agent → collector telemetry plane under seeded
//! byte-level hostility, against the analytic window oracle.
//!
//! [`run_net_mesh`] encodes each tier's per-second samples as real wire
//! frames, interposes a [`ChaosSchedule`] between the encoded bytes and
//! a collector ([`Assembler`]), and drives it through the
//! session surface the real event loop uses (`on_session_start` /
//! `on_sample` / `on_session_abort` / `on_bye`). Every delivered byte
//! passes through the real incremental frame extractor, so a corrupted
//! or truncated frame exercises the same typed-error path a hostile peer
//! would.
//!
//! Every fault is a pure function of `(seed, conn, frame index)`, and
//! the schedule *compiles* into the telemetry plane's [`FaultSchedule`]
//! vocabulary, so each cell demands the plane's window contract (the
//! shared check in `common/contract.rs`):
//!
//! * the emitted decision windows are **exactly** the analytically
//!   predicted survivor set (intersection over tiers),
//! * the decisions on those windows are **byte-identical** (JSON) to an
//!   in-process replay of the same samples,
//! * the quarantined set is **exactly** the predicted poison union.
//!
//! The compilation encodes the collector-observable semantics of each
//! fault family:
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
//!
//! The agent plane delivers one frame per second per tier, so heavy
//! destruction would poison every window and make the equality vacuous.
//! Every cell of a family (one per seed) must leave some window intact
//! and poison some other, which guards against exactly that.

use std::collections::BTreeSet;

use webcap_core::CapacityMeter;
use webcap_net::frame::FrameBuf;
use webcap_net::{
    write_frame, Assembler, CollectorConfig, FaultSchedule, Frame, SourceSample, SupervisedReport,
    TierSampler,
};
use webcap_sim::{SystemSample, TierId};

#[path = "common/contract.rs"]
mod contract;
#[path = "common/meter.rs"]
mod meter;
#[path = "common/stream.rs"]
mod stream;
use contract::plane_matches_the_oracle;
use meter::trained_meter;
use stream::{steady_run, BASE_SEED};

const TOTAL_SAMPLES: usize = 240;

// ------------------------------------------------------------ schedule

/// SplitMix64: derives per-frame fault rolls from `(seed, conn, idx)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the chaos mesh does to one frame on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFault {
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
    /// Frame delivered in deterministic chunks, exercising every resume
    /// point of the incremental frame extractor.
    Split,
    /// Frame delivered after a pacing delay; outcome-neutral by
    /// construction.
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
/// for frame indices in `[from, until)`.
#[derive(Debug, Clone)]
struct Partition {
    conn: u32,
    from: u64,
    until: u64,
}

/// Per-mille fault rates plus an optional scripted partition, walked
/// cumulatively in declaration order against a roll in `0..1000`.
#[derive(Debug, Clone)]
struct ChaosProfile {
    corrupt_per_mille: u32,
    truncate_per_mille: u32,
    drop_per_mille: u32,
    dup_per_mille: u32,
    split_per_mille: u32,
    stall_per_mille: u32,
    reorder_per_mille: u32,
    /// Applied before any roll.
    partition: Option<Partition>,
}

impl ChaosProfile {
    /// A profile with no faults at all.
    fn quiet() -> ChaosProfile {
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
}

/// A seeded chaos schedule: the pure function from `(conn, frame
/// index)` to the fault injected on that frame, plus the byte-level
/// parameters (chunk sizes, truncation lengths) derived from the same
/// seed.
#[derive(Debug, Clone)]
struct ChaosSchedule {
    seed: u64,
    profile: ChaosProfile,
}

impl ChaosSchedule {
    fn new(seed: u64, profile: ChaosProfile) -> ChaosSchedule {
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
    /// partition.
    fn roll_fault(&self, conn: u32, idx: u64) -> FrameFault {
        let roll = (self.mix(conn, idx, 1) % 1000) as u32;
        let p = &self.profile;
        let families = [
            (p.corrupt_per_mille, FrameFault::Corrupt),
            (p.truncate_per_mille, FrameFault::Truncate),
            (p.drop_per_mille, FrameFault::Drop),
            (p.dup_per_mille, FrameFault::Duplicate),
            (p.split_per_mille, FrameFault::Split),
            (p.stall_per_mille, FrameFault::Stall),
            (p.reorder_per_mille, FrameFault::Reorder),
        ];
        let mut edge = 0u32;
        for (rate, fault) in families {
            edge = edge.saturating_add(rate);
            if roll < edge {
                return fault;
            }
        }
        FrameFault::None
    }

    /// The fault for frame `idx` on connection `conn`: the scripted
    /// partition takes precedence over any roll.
    fn frame_fault(&self, conn: u32, idx: u64) -> FrameFault {
        if let Some(p) = &self.profile.partition {
            if p.conn == conn && p.from <= idx && idx < p.until {
                return FrameFault::Partitioned;
            }
        }
        self.roll_fault(conn, idx)
    }

    /// [`Self::frame_fault`] with the reorder degradation applied: a
    /// `Reorder` is only effective when a successor frame exists and is
    /// itself fault-free; everywhere else it degrades to `None`.
    fn effective_fault(&self, conn: u32, idx: u64, total: u64) -> FrameFault {
        match self.frame_fault(conn, idx) {
            FrameFault::Reorder => {
                let next = idx + 1;
                if next < total && self.frame_fault(conn, next) == FrameFault::None {
                    FrameFault::Reorder
                } else {
                    FrameFault::None
                }
            }
            fault => fault,
        }
    }

    /// Deterministic chunk size (in bytes, at least 1) for piece
    /// `piece` of a split-delivered frame.
    fn chunk_len(&self, conn: u32, idx: u64, piece: u64) -> usize {
        let draw = self.mix(conn, idx ^ piece.rotate_left(17), 2);
        1 + (draw % 13) as usize
    }

    /// Deterministic *strict*-prefix length for a truncated payload:
    /// always less than `payload_len` when the payload is non-empty.
    fn truncate_keep(&self, conn: u32, idx: u64, payload_len: usize) -> usize {
        if payload_len == 0 {
            return 0;
        }
        (self.mix(conn, idx, 3) as usize) % payload_len
    }

    /// Rebuild a wire frame `[magic][len][payload]` as a *complete*
    /// frame carrying a strict prefix of its payload, with the length
    /// header rewritten to match.
    fn truncate_frame(&self, conn: u32, idx: u64, bytes: &[u8]) -> Vec<u8> {
        let payload = &bytes[8..];
        let keep = self.truncate_keep(conn, idx, payload.len());
        let mut out = Vec::with_capacity(8 + keep);
        out.extend_from_slice(&bytes[..4]);
        out.extend_from_slice(&(keep as u32).to_le_bytes());
        out.extend_from_slice(&payload[..keep]);
        out
    }

    /// Compile this schedule's effect on one connection into the
    /// telemetry plane's [`FaultSchedule`] vocabulary, using the oracle
    /// mapping in the module table.
    fn compile_tier_schedule(&self, conn: u32, total: u64) -> FaultSchedule {
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
        for seq in dropped {
            match drop_ranges.last_mut() {
                Some((_, hi)) if seq == *hi + 1 => *hi = seq,
                _ => drop_ranges.push((seq, seq)),
            }
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
fn corrupt_frame(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[0] ^= 0xff;
    out
}

// ---------------------------------------------------------------- mesh

/// Per-tier delivery state while the mesh drives the collector.
struct TierState {
    tier: TierId,
    /// The tier's samples as `Sample` wire frames, one per sequence.
    frames: Vec<Vec<u8>>,
    needs_session: bool,
    /// This frame was already delivered early by a reorder swap.
    skip_next: bool,
    /// The reassembly buffer the collector's lanes run.
    rbuf: FrameBuf,
}

impl TierState {
    fn new(tier: TierId, meter: &CapacityMeter, samples: &[SystemSample]) -> TierState {
        let mut sampler = TierSampler::new(tier, meter.config().hpc_model.clone(), BASE_SEED);
        let frames = samples
            .iter()
            .enumerate()
            .map(|(seq, s)| {
                let ws = sampler.wire_sample(SourceSample::of_tier(tier, seq as u64, s));
                let mut buf = Vec::new();
                write_frame(&mut buf, &Frame::Sample(ws)).expect("sample encodes");
                buf
            })
            .collect();
        TierState {
            tier,
            frames,
            needs_session: false,
            skip_next: false,
            rbuf: FrameBuf::default(),
        }
    }

    fn ensure_session(&mut self, sc: &mut Assembler) {
        if self.needs_session {
            sc.on_session_start(self.tier);
            self.needs_session = false;
        }
    }

    fn abort_session(&mut self, sc: &mut Assembler) {
        if !self.needs_session {
            sc.on_session_abort(self.tier);
        }
        self.rbuf = FrameBuf::default();
        self.needs_session = true;
    }

    /// Deliver one (possibly mutilated) run of encoded bytes through the
    /// reassembly buffer, honouring session semantics: a decode failure
    /// kills the session exactly as the real event loop would. Returns
    /// whether the session survived.
    fn deliver_bytes(&mut self, sc: &mut Assembler, mut bytes: &[u8]) -> bool {
        self.ensure_session(sc);
        // A `&[u8]` is a `Read`; one `fill` takes at most a read chunk of it.
        while !bytes.is_empty() {
            if self.rbuf.fill(&mut bytes).is_err() || !self.deliver_buffered(sc) {
                self.abort_session(sc);
                return false;
            }
        }
        true
    }

    /// Hand every whole buffered frame to the collector; `false` on a
    /// decode error.
    fn deliver_buffered(&mut self, sc: &mut Assembler) -> bool {
        loop {
            match self.rbuf.next_frame() {
                Ok(Some(Frame::Sample(ws))) => sc.on_sample(self.tier, ws, &mut |_, _| {}),
                Ok(Some(_)) => {}
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }

    /// Deliver this tier's frame for `seq`, applying the scheduled fault;
    /// every non-trivial fault is recorded in `injected`.
    fn deliver(
        &mut self,
        sc: &mut Assembler,
        seq: u64,
        chaos: &ChaosSchedule,
        injected: &mut Vec<(TierId, u64, FrameFault)>,
    ) {
        if self.skip_next {
            self.skip_next = false;
            return;
        }
        let total = self.frames.len() as u64;
        let conn = self.tier.index() as u32;
        let fault = chaos.effective_fault(conn, seq, total);
        if fault != FrameFault::None {
            injected.push((self.tier, seq, fault));
        }
        let bytes = self.frames[seq as usize].clone();
        match fault {
            FrameFault::None | FrameFault::Stall => {
                self.deliver_bytes(sc, &bytes);
            }
            FrameFault::Drop => {}
            FrameFault::Partitioned => {
                // The first black-holed frame kills the session; the rest
                // of the partition is silence.
                if !self.needs_session {
                    self.abort_session(sc);
                }
            }
            // A flipped magic byte or a cut frame cannot decode, so the
            // session dies with a typed error exactly as a hostile peer's
            // would.
            FrameFault::Corrupt => {
                self.deliver_bytes(sc, &corrupt_frame(&bytes));
            }
            FrameFault::Truncate => {
                self.deliver_bytes(sc, &chaos.truncate_frame(conn, seq, &bytes));
            }
            FrameFault::Duplicate => {
                self.deliver_bytes(sc, &bytes);
                // The duplicate is a backward sequence: an anomaly the
                // assembler must ignore.
                self.deliver_bytes(sc, &bytes);
            }
            FrameFault::Split => {
                let mut rest = bytes.as_slice();
                let mut piece: u64 = 0;
                while !rest.is_empty() {
                    let n = chaos.chunk_len(conn, seq, piece).min(rest.len());
                    let (head, tail) = rest.split_at(n);
                    if !self.deliver_bytes(sc, head) {
                        return;
                    }
                    rest = tail;
                    piece += 1;
                }
            }
            FrameFault::Reorder => {
                // Swap with the successor, which effective_fault guarantees
                // exists and is fault-free. The late original arrives as a
                // backward sequence the assembler counts and ignores.
                let next = self.frames[seq as usize + 1].clone();
                self.deliver_bytes(sc, &next);
                self.deliver_bytes(sc, &bytes);
                self.skip_next = true;
            }
        }
    }
}

/// Run the telemetry plane under a chaos schedule: encode `samples` per
/// tier as real wire frames, apply `chaos` to every frame of every tier
/// connection (App is connection 0, Db is connection 1), and drive a
/// fresh [`Assembler`] exactly as the event loop would.
/// Returns the collector's report and every non-trivial fault injected,
/// in delivery order.
fn run_net_mesh(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    chaos: &ChaosSchedule,
) -> (SupervisedReport, Vec<(TierId, u64, FrameFault)>) {
    let mut sc = Assembler::new(meter.clone(), CollectorConfig::default().window_origin);
    let mut states = TierId::ALL.map(|tier| TierState::new(tier, meter, samples));
    for tier in TierId::ALL {
        sc.on_session_start(tier);
    }
    let mut injected = Vec::new();
    for seq in 0..samples.len() as u64 {
        for state in &mut states {
            state.deliver(&mut sc, seq, chaos, &mut injected);
        }
    }
    if let Some(last) = (samples.len() as u64).checked_sub(1) {
        // A Bye always arrives on a live session, mirroring the real
        // agent which reconnects before its farewell.
        for state in &mut states {
            state.ensure_session(&mut sc);
        }
        for tier in TierId::ALL {
            sc.on_bye(tier, last);
        }
    }
    (sc.finish(), injected)
}

// --------------------------------------------------------------- suite

/// Run one (profile, seed) cell and check the full oracle contract,
/// non-triviality included.
fn check_cell(profile: ChaosProfile, seed: u64) {
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let chaos = ChaosSchedule::new(seed, profile);

    let (report, _) = run_net_mesh(&meter, &samples, &chaos);

    // Printed so a failing contract assertion's captured output names
    // the cell.
    println!("mesh cell seed {seed}");
    let schedules = TierId::ALL
        .map(|tier| chaos.compile_tier_schedule(tier.index() as u32, TOTAL_SAMPLES as u64));
    let (survivors, poisoned) = plane_matches_the_oracle(&meter, &samples, &report, &schedules);
    assert!(
        !survivors.is_empty(),
        "seed {seed}: the cell must leave some windows intact or the equality is vacuous"
    );
    assert!(
        !poisoned.is_empty(),
        "seed {seed}: the cell must actually poison something"
    );
}

/// The family's three cells, one per seed.
fn check_family(profile: ChaosProfile) {
    for seed in [11u64, 12, 13] {
        check_cell(profile.clone(), seed);
    }
}

/// Corruption family: bit flips, header-rewritten truncations, drops,
/// and split writes — the decoder-hostile end of the spectrum.
#[test]
fn corruption_family_matches_oracle_byte_for_byte() {
    check_family(ChaosProfile {
        corrupt_per_mille: 8,
        truncate_per_mille: 6,
        drop_per_mille: 6,
        split_per_mille: 200,
        ..ChaosProfile::quiet()
    });
}

/// Stall/partition family: pacing stalls, split writes, and a scripted
/// 30-second partition of the App connection.
#[test]
fn stall_partition_family_matches_oracle_byte_for_byte() {
    check_family(ChaosProfile {
        drop_per_mille: 4,
        split_per_mille: 100,
        stall_per_mille: 150,
        partition: Some(Partition {
            conn: 0,
            from: 70,
            until: 100,
        }),
        ..ChaosProfile::quiet()
    });
}

/// Reorder/duplicate family: adjacent swaps and duplicated frames the
/// assembler must absorb as anomalies.
#[test]
fn reorder_dup_family_matches_oracle_byte_for_byte() {
    check_family(ChaosProfile {
        drop_per_mille: 4,
        dup_per_mille: 40,
        split_per_mille: 120,
        reorder_per_mille: 15,
        ..ChaosProfile::quiet()
    });
}

/// Duplicated and reordered frames are anomalies, not silent data: the
/// report must count them.
#[test]
fn duplicates_and_reorders_are_counted_as_anomalies() {
    let meter = trained_meter();
    let samples = steady_run(&meter, TOTAL_SAMPLES);
    let chaos = ChaosSchedule::new(
        21,
        ChaosProfile {
            dup_per_mille: 80,
            reorder_per_mille: 40,
            ..ChaosProfile::quiet()
        },
    );
    let (report, injected) = run_net_mesh(&meter, &samples, &chaos);
    assert!(
        !injected.is_empty(),
        "the schedule must actually inject faults"
    );
    assert!(
        report.anomalies > 0,
        "late duplicates must surface as anomalies"
    );
}

// ------------------------------------------------------ schedule units

/// The corruption-heavy profile the schedule's unit tests draw from.
fn corruption_heavy() -> ChaosProfile {
    ChaosProfile {
        corrupt_per_mille: 40,
        truncate_per_mille: 30,
        drop_per_mille: 20,
        split_per_mille: 200,
        ..ChaosProfile::quiet()
    }
}

#[test]
fn faults_are_pure_functions_of_seed_conn_idx() {
    let a = ChaosSchedule::new(9, corruption_heavy());
    let b = ChaosSchedule::new(9, corruption_heavy());
    for conn in 0..2 {
        for idx in 0..500 {
            assert_eq!(a.frame_fault(conn, idx), b.frame_fault(conn, idx));
            assert_eq!(a.chunk_len(conn, idx, 3), b.chunk_len(conn, idx, 3));
        }
    }
    let c = ChaosSchedule::new(10, corruption_heavy());
    let differs = (0..500).any(|idx| a.frame_fault(0, idx) != c.frame_fault(0, idx));
    assert!(differs, "changing the seed must change the schedule");
}

#[test]
fn partition_overrides_rolls_and_compiles_to_a_drop_range() {
    let chaos = ChaosSchedule::new(
        3,
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
        },
    );
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
    let chaos = ChaosSchedule::new(7, corruption_heavy());
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
