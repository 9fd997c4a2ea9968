//! Chaos-mesh equivalence against the analytic loopback oracle.
//!
//! Each test runs the full telemetry plane (encoded wire frames →
//! incremental decoder → supervised collector) under a seeded chaos
//! schedule, compiles the schedule into the fault vocabulary the
//! loopback oracle understands, and demands:
//!
//! * the emitted decision windows are **exactly** the analytically
//!   predicted survivor set (intersection over tiers),
//! * the decisions on those windows are **byte-identical** (JSON) to an
//!   in-process replay of the same samples,
//! * the quarantined set is **exactly** the predicted poison union.
//!
//! Rates here are deliberately lighter than the fleet presets: the
//! agent plane delivers one frame per second per tier, so heavy
//! destruction would poison every window and make the equality vacuous.
//! Every cell of a family (one per seed) must leave some window intact
//! and poison some other, which guards against exactly that.

use std::collections::BTreeSet;

use webcap_chaosnet::{run_net_mesh, ChaosProfile, ChaosSchedule, Partition};
use webcap_core::{AdmissionConfig, AdmissionController, CapacityMeter, MeterConfig};
use webcap_net::frame::FrameBuf;
use webcap_net::loopback::{predicted_windows_for_schedule, replay_windows};
use webcap_net::{write_frame, AppStats, Frame, WireSample};
use webcap_sim::{Simulation, SystemSample, TierSample};
use webcap_tpcw::{Mix, TrafficProgram};

const BASE_SEED: u64 = 17;
const TOTAL_SAMPLES: usize = 240;

fn trained_meter() -> CapacityMeter {
    static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
    METER
        .get_or_init(|| {
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
        })
        .clone()
}

fn steady_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, TOTAL_SAMPLES as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), TOTAL_SAMPLES);
    samples
}

fn admission() -> AdmissionController {
    AdmissionController::try_new(AdmissionConfig::default(), 400).expect("valid config")
}

fn decisions_json(decisions: &[(i64, webcap_core::OnlineDecision)]) -> String {
    serde_json::to_string(decisions).expect("decisions serialize")
}

/// Run one (profile, seed) cell and check the full oracle contract,
/// non-triviality included.
fn check_cell(profile: ChaosProfile, seed: u64) {
    let meter = trained_meter();
    let window_len = meter.config().window_len;
    let samples = steady_samples(&meter);
    let chaos = ChaosSchedule::new(seed, profile);

    let outcome =
        run_net_mesh(&meter, &samples, BASE_SEED, &chaos, admission()).expect("mesh runs");

    // Analytic oracle: per-tier survivors intersect, poisons union.
    let mut survivors: Option<BTreeSet<i64>> = None;
    let mut poisoned: BTreeSet<i64> = BTreeSet::new();
    for schedule in &outcome.schedules {
        let (s, p) = predicted_windows_for_schedule(samples.len() as u64, schedule, window_len, 1);
        poisoned.extend(p);
        survivors = Some(match survivors {
            Some(acc) => acc.intersection(&s).copied().collect(),
            None => s,
        });
    }
    let survivors = survivors.unwrap_or_default();

    let emitted: BTreeSet<i64> = outcome.report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        emitted, survivors,
        "seed {seed}: emitted windows must be exactly the predicted survivors"
    );
    let expected = replay_windows(&meter, &samples, BASE_SEED, &survivors);
    assert_eq!(
        decisions_json(&outcome.report.decisions),
        decisions_json(&expected),
        "seed {seed}: surviving decisions must be byte-identical to the replay oracle"
    );
    let quarantined: BTreeSet<i64> = outcome.report.poisoned_windows.iter().copied().collect();
    assert_eq!(
        quarantined, poisoned,
        "seed {seed}: quarantine must be exactly the predicted poison union"
    );
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
    let samples = steady_samples(&meter);
    let chaos = ChaosSchedule::new(
        21,
        ChaosProfile {
            dup_per_mille: 80,
            reorder_per_mille: 40,
            ..ChaosProfile::quiet()
        },
    );
    let outcome =
        run_net_mesh(&meter, &samples, BASE_SEED, &chaos, admission()).expect("mesh runs");
    assert!(
        !outcome.injected.is_empty(),
        "the schedule must actually inject faults"
    );
    assert!(
        outcome.report.anomalies > 0,
        "late duplicates must surface as anomalies"
    );
}

/// Hostile-byte sweep: flip every single byte position of a `Sample`
/// frame and push the result through the incremental decoder.
/// Any typed outcome (error, incomplete, or an accidental valid decode)
/// is acceptable; a panic is not.
#[test]
fn single_byte_flips_never_panic_the_binary_decoder() {
    let ws = WireSample {
        seq: 7,
        t_s: 8.0,
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
        app: Some(AppStats {
            ebs_target: 10,
            ebs_active: 10,
            mix_id: webcap_tpcw::MixId::Ordering,
            issued: 20,
            issued_browse: 10,
            completed: 20,
            completed_browse: 10,
            response_time_sum_s: 2.0,
            response_time_max_s: 0.4,
            in_flight: 1,
            response_times: webcap_sim::RtHistogram::new(),
        }),
    };
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &Frame::Sample(ws)).expect("sample encodes");

    for pos in 0..encoded.len() {
        let mut mangled = encoded.clone();
        mangled[pos] ^= 0xff;
        let mut rbuf = FrameBuf::default();
        // The only failure mode of interest is a panic; both Ok and Err
        // are legitimate typed outcomes.
        let _ = rbuf.fill(&mut mangled.as_slice());
        while let Ok(Some(_)) = rbuf.next_frame() {}
    }

    // A whole frame followed by a corrupt one in one delivery: the mesh,
    // like the collector's event loop, hands over the frame that decoded
    // and only then kills the session on the typed error.
    let mut delivery = encoded.clone();
    delivery.extend_from_slice(&encoded);
    delivery[encoded.len()] ^= 0xff;
    let mut rbuf = FrameBuf::default();
    rbuf.fill(&mut delivery.as_slice())
        .expect("a slice reads cleanly");
    assert!(matches!(
        rbuf.next_frame(),
        Ok(Some(Frame::Sample(ref got))) if got.seq == 7
    ));
    assert!(rbuf.next_frame().is_err());
}
