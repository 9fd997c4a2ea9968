//! Fleet equivalence suite.
//!
//! The headline contract under test: a sharded fleet produces the
//! **byte-identical** global decision stream and poisoned-window set of
//! the single-collector pipeline — at every collector count, under
//! scripted per-tier fault schedules, below and above capacity, and
//! with digests arriving in any order.

use std::collections::BTreeSet;

use webcap_core::{workloads, CapacityMeter, MeterConfig};
use webcap_fleet::{run_fleet, FleetCollector, FleetTopology, MergeNode};
use webcap_net::loopback::{all_windows, predicted_windows_for_schedule, replay_windows};
use webcap_net::{
    DigestFrame, FaultSchedule, HealthState, SourceSample, SupervisorConfig, TierSampler, WireCodec,
};
use webcap_sim::{Simulation, SystemSample, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

const BASE_SEED: u64 = 17;
const TOTAL: usize = 240;
const WINDOW: usize = 30;

fn trained_meter() -> CapacityMeter {
    static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
    METER
        .get_or_init(|| {
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
        })
        .clone()
}

/// A 240 s ordering run of the meter's own testbed at `ebs` — 8 full
/// 30-sample windows.
fn ordering_samples(meter: &CapacityMeter, ebs: u32) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), ebs, TOTAL as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), TOTAL);
    samples
}

/// The steady run at 60 EBs (the same stream the net plane's chaos
/// suite uses).
fn steady_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    ordering_samples(meter, 60)
}

/// The same run at twice the testbed's estimated saturation population,
/// so overloaded windows and their bottleneck calls cross the shards.
fn overloaded_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    let knee = workloads::estimate_saturation_ebs(&meter.config().sim, &Mix::ordering());
    ordering_samples(meter, 2 * knee)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn no_faults() -> [FaultSchedule; 2] {
    [FaultSchedule::NONE, FaultSchedule::NONE]
}

/// The replica-failure shape: the database agent loses seqs 90..=104 on
/// the floor, and the app agent is forced to reconnect before seq 160.
fn scripted_faults() -> [FaultSchedule; 2] {
    [
        FaultSchedule {
            drop_ranges: vec![],
            reconnect_before: vec![160],
        },
        FaultSchedule {
            drop_ranges: vec![(90, 104)],
            reconnect_before: vec![],
        },
    ]
}

#[test]
fn fleet_of_one_matches_the_unsharded_oracle_byte_for_byte() {
    let meter = trained_meter();
    let samples = steady_samples(&meter);
    let topo = FleetTopology::two_tier("steady", 31, 1);
    let out = run_fleet(
        &meter,
        &samples,
        BASE_SEED,
        &no_faults(),
        &topo,
        None,
        WireCodec::Binary,
    )
    .expect("fleet runs");
    let oracle = replay_windows(&meter, &samples, BASE_SEED, &all_windows(TOTAL, WINDOW));
    assert_eq!(json(&out.merge.decisions), json(&oracle));
    assert!(out.merge.poisoned_windows.is_empty());
    assert!(out.merge.incomplete_windows.is_empty());
    assert_eq!(out.merge.anomalies, 0);
    assert_eq!(out.merge.lost_digests, 0);
    assert_eq!(out.collectors.len(), 1);
    assert_eq!(out.collectors[0].health, HealthState::Healthy);
}

#[test]
fn sharded_fleets_match_the_oracle_under_scripted_faults_at_every_k() {
    let meter = trained_meter();
    let schedules = scripted_faults();

    // Predicted global quarantine: the union of each tier's schedule
    // poisons; the oracle replays exactly the survivors.
    let mut poisoned = BTreeSet::new();
    let mut survivors = all_windows(TOTAL, WINDOW);
    for schedule in &schedules {
        let (_, p) = predicted_windows_for_schedule(TOTAL as u64, schedule, WINDOW, 1);
        for w in p {
            survivors.remove(&w);
            poisoned.insert(w);
        }
    }
    assert_eq!(poisoned, [3, 5].into_iter().collect::<BTreeSet<i64>>());
    let poisoned: Vec<i64> = poisoned.into_iter().collect();

    // Below capacity, then above it: sharding must leave overloaded
    // windows and their bottleneck calls unchanged too.
    for (overloaded, samples) in [
        (false, steady_samples(&meter)),
        (true, overloaded_samples(&meter)),
    ] {
        let oracle = replay_windows(&meter, &samples, BASE_SEED, &survivors);
        if overloaded {
            assert!(
                oracle.iter().any(|(_, d)| d.window.label.overloaded),
                "the overloaded input labels some window overloaded"
            );
        }
        let oracle_json = json(&oracle);

        for k in [1u32, 2, 4] {
            let topo = FleetTopology::two_tier("faulted", 31, k);
            let out = run_fleet(
                &meter,
                &samples,
                BASE_SEED,
                &schedules,
                &topo,
                None,
                WireCodec::Binary,
            )
            .expect("fleet runs");
            assert_eq!(json(&out.merge.decisions), oracle_json, "K={k} decisions");
            assert_eq!(out.merge.poisoned_windows, poisoned, "K={k} poisons");
            assert!(out.merge.incomplete_windows.is_empty(), "K={k}");
            assert_eq!(out.merge.lost_digests, 0, "K={k}");
            assert_eq!(out.collectors.len(), k as usize, "K={k}");
            // No collector ever falls to SafeMode under this schedule.
            for c in &out.collectors {
                assert_ne!(
                    c.health,
                    HealthState::SafeMode,
                    "K={k} collector {}",
                    c.collector
                );
            }
        }
    }
}

/// The scripted agent-crash shape: the app agent loses seqs 40..=44
/// and reconnects at 45.
fn crash_schedules() -> [FaultSchedule; 2] {
    [
        FaultSchedule {
            drop_ranges: vec![(40, 44)],
            reconnect_before: vec![45],
        },
        FaultSchedule::NONE,
    ]
}

/// Drive the steady stream under [`crash_schedules`] through two
/// single-tier fleet collectors and return every frame they flushed.
fn sharded_frames_for_crash_stream(meter: &CapacityMeter) -> Vec<DigestFrame> {
    let sup = SupervisorConfig::default();
    let mut cols = [
        FleetCollector::new(0, &[TierId::App], WINDOW as i64, 1, sup),
        FleetCollector::new(1, &[TierId::Db], WINDOW as i64, 1, sup),
    ];
    let schedules = crash_schedules();
    let mut samplers =
        TierId::ALL.map(|t| TierSampler::new(t, meter.config().hpc_model.clone(), BASE_SEED));
    for tier in TierId::ALL {
        tier.select_mut(&mut cols).on_session_start(tier);
    }
    let mut frames: Vec<DigestFrame> = Vec::new();
    for (seq, s) in steady_samples(meter).iter().enumerate() {
        let seq = seq as u64;
        for tier in TierId::ALL {
            let ws = tier
                .select_mut(&mut samplers)
                .wire_sample(SourceSample::of_tier(tier, seq, s));
            let (col, schedule) = (tier.select_mut(&mut cols), tier.select(&schedules));
            if schedule.reconnect_before.contains(&seq) {
                col.on_session_start(tier);
            }
            if !schedule.drops(seq) {
                col.on_sample(tier, &ws);
            }
        }
        frames.extend(cols.iter_mut().filter_map(|col| col.flush(None)));
    }
    for tier in TierId::ALL {
        tier.select_mut(&mut cols).on_bye(tier, TOTAL as u64 - 1);
    }
    frames.extend(cols.iter_mut().filter_map(|col| col.flush(None)));
    frames
}

#[test]
fn sharded_digestion_reproduces_the_assembler_exactly() {
    let meter = trained_meter();

    // What the unsharded plane must produce, from the independent
    // oracle: the analytic survivor prediction and the in-process
    // monitor replay share no code with the reassembly core (the
    // `Assembler` is built from it, so it can no longer referee).
    let mut poisoned = BTreeSet::new();
    for schedule in &crash_schedules() {
        poisoned.extend(predicted_windows_for_schedule(TOTAL as u64, schedule, WINDOW, 1).1);
    }
    let mut survivors = all_windows(TOTAL, WINDOW);
    survivors.retain(|w| !poisoned.contains(w));
    let oracle = replay_windows(&meter, &steady_samples(&meter), BASE_SEED, &survivors);

    let frames = sharded_frames_for_crash_stream(&meter);
    let mut node = MergeNode::new(meter);
    for f in &frames {
        node.ingest(f);
    }
    let merged = node.finalize();

    assert_eq!(json(&merged.decisions), json(&oracle), "decision stream");
    assert_eq!(
        merged.poisoned_windows,
        poisoned.into_iter().collect::<Vec<i64>>(),
        "quarantine"
    );
    assert_eq!(merged.poisoned_windows, vec![1]);
    assert!(merged.incomplete_windows.is_empty());
}

#[test]
fn merge_is_independent_of_digest_arrival_order() {
    let meter = trained_meter();
    let frames = sharded_frames_for_crash_stream(&meter);
    let finalize = |order: Vec<&DigestFrame>| {
        let mut node = MergeNode::new(meter.clone());
        for f in order {
            node.ingest(f);
        }
        json(&node.finalize())
    };
    let forward = finalize(frames.iter().collect());
    // Reversed, rotated, and deterministically interleaved arrivals.
    let reversed = finalize(frames.iter().rev().collect());
    let rotated = {
        let mut order: Vec<&DigestFrame> = frames.iter().collect();
        order.rotate_left(frames.len() / 3 + 1);
        finalize(order)
    };
    let interleaved = {
        let (evens, odds): (Vec<_>, Vec<_>) =
            frames.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        finalize(odds.into_iter().chain(evens).map(|(_, f)| f).collect())
    };
    assert_eq!(forward, reversed, "reversed arrival");
    assert_eq!(forward, rotated, "rotated arrival");
    assert_eq!(forward, interleaved, "interleaved arrival");

    // Lossy and duplicated: every third frame lost, the rest delivered
    // twice in reverse order, decides like the same kept set merged once
    // in order. Anomalies and frame counts legitimately differ.
    let decided = |order: Vec<&DigestFrame>| {
        let mut node = MergeNode::new(meter.clone());
        for f in order {
            node.ingest(f);
        }
        let out = node.finalize();
        json(&(
            &out.decisions,
            &out.poisoned_windows,
            &out.incomplete_windows,
        ))
    };
    let kept: Vec<&DigestFrame> = frames
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 2)
        .map(|(_, f)| f)
        .collect();
    let redelivered = kept.iter().rev().flat_map(|f| [*f, *f]).collect();
    assert_eq!(
        decided(redelivered),
        decided(kept),
        "lossy, duplicated, reversed arrival"
    );
}

#[test]
fn run_fleet_refuses_a_topology_the_fleet_does_not_implement() {
    let meter = trained_meter();
    let topo = FleetTopology::two_tier("x", 1, 0);
    let out = run_fleet(
        &meter,
        &[],
        BASE_SEED,
        &no_faults(),
        &topo,
        None,
        WireCodec::Binary,
    );
    assert!(out.is_err(), "{topo:?} must be refused");
}

#[test]
fn safe_mode_frames_are_quarantined_not_trusted() {
    let meter = trained_meter();
    let frames = sharded_frames_for_crash_stream(&meter);
    // Baseline outcome, then the same frames with one healthy frame
    // (carrying at least one window digest) re-stamped SafeMode: every
    // window that frame carried must flip from scored to poisoned.
    let mut node = MergeNode::new(meter.clone());
    for f in &frames {
        node.ingest(f);
    }
    let baseline = node.finalize();

    let idx = frames
        .iter()
        .position(|f| !f.windows.is_empty() && f.health == HealthState::Healthy)
        .expect("some healthy frame carries a digest");
    let mut tainted = frames.clone();
    tainted[idx].health = HealthState::SafeMode;
    let carried: BTreeSet<i64> = tainted[idx].windows.iter().map(|d| d.window).collect();

    let mut node = MergeNode::new(meter);
    for f in &tainted {
        node.ingest(f);
    }
    let outcome = node.finalize();

    assert_eq!(outcome.safe_mode_frames, 1);
    let poisoned: BTreeSet<i64> = outcome.poisoned_windows.iter().copied().collect();
    for w in &carried {
        assert!(poisoned.contains(w), "window {w} from the SafeMode frame");
        assert!(
            !outcome.decisions.iter().any(|(dw, _)| dw == w),
            "window {w} must not be scored"
        );
    }
    assert!(
        outcome.decisions.len() < baseline.decisions.len(),
        "quarantine shrank the scored stream"
    );
}
