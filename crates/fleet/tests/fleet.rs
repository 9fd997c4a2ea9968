//! Fleet equivalence suite.
//!
//! The headline contract under test: a sharded fleet produces the
//! **byte-identical** global decision stream and poisoned-window set of
//! the single-collector pipeline — at every collector count, under
//! scripted per-tier fault schedules, below and above capacity, and
//! with digests arriving in any order.

use std::collections::{BTreeMap, BTreeSet};

use webcap_core::monitor::feature_width;
use webcap_core::{workloads, CapacityMeter, MeterConfig, MetricLevel};
use webcap_fleet::{run_fleet, FleetCollector, FleetTopology, MergeNode};
use webcap_net::loopback::{all_windows, predicted_windows, replay_windows};
use webcap_net::{
    DigestFrame, FaultSchedule, HealthState, SourceSample, SupervisorConfig, TierSampler, WireCodec,
};
use webcap_sim::{Simulation, SystemSample, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

// The socket suites' meter and steady stream, shared with them.
#[path = "../../net/tests/common/meter.rs"]
mod meter;
#[path = "../../net/tests/common/stream.rs"]
mod stream;

use meter::trained_meter;
use stream::{decisions_json, steady_run, BASE_SEED};

const TOTAL: usize = 240;
const WINDOW: usize = 30;

/// The steady run's testbed at twice its estimated saturation
/// population, so overloaded windows and their bottleneck calls cross
/// the shards.
fn overloaded_samples(meter: &CapacityMeter) -> Vec<SystemSample> {
    let knee = workloads::estimate_saturation_ebs(&meter.config().sim, &Mix::ordering());
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 2 * knee, TOTAL as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), TOTAL);
    samples
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
    let samples = steady_run(&meter, TOTAL);
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
    assert_eq!(
        decisions_json(&out.merge.decisions),
        decisions_json(&oracle)
    );
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

    // Predicted global quarantine; the oracle replays exactly the
    // survivors.
    let (survivors, poisoned) = predicted_windows(TOTAL as u64, &schedules, WINDOW, 1);
    assert_eq!(poisoned, [3, 5].into_iter().collect::<BTreeSet<i64>>());
    let poisoned: Vec<i64> = poisoned.into_iter().collect();

    // Below capacity, then above it: sharding must leave overloaded
    // windows and their bottleneck calls unchanged too.
    for (overloaded, samples) in [
        (false, steady_run(&meter, TOTAL)),
        (true, overloaded_samples(&meter)),
    ] {
        let oracle = replay_windows(&meter, &samples, BASE_SEED, &survivors);
        if overloaded {
            assert!(
                oracle.iter().any(|(_, d)| d.window.label.overloaded),
                "the overloaded input labels some window overloaded"
            );
        }
        let oracle_json = decisions_json(&oracle);

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
            assert_eq!(
                decisions_json(&out.merge.decisions),
                oracle_json,
                "K={k} decisions"
            );
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

/// Drive the steady stream under `schedules` through two single-tier
/// fleet collectors built by `shard` (index, owned tiers), fed rows
/// synthesized at `rows`, and return every frame they flushed.
fn shard_frames(
    meter: &CapacityMeter,
    shard: impl Fn(u32, &[TierId]) -> FleetCollector,
    rows: MetricLevel,
    schedules: &[FaultSchedule; 2],
) -> Vec<DigestFrame> {
    let mut cols = [shard(0, &[TierId::App]), shard(1, &[TierId::Db])];
    let model = &meter.config().hpc_model;
    let mut samplers =
        TierId::ALL.map(|t| TierSampler::for_level(t, model.clone(), BASE_SEED, rows));
    for tier in TierId::ALL {
        tier.select_mut(&mut cols).on_session_start(tier);
    }
    let mut frames: Vec<DigestFrame> = Vec::new();
    for (seq, s) in steady_run(meter, TOTAL).iter().enumerate() {
        let seq = seq as u64;
        for tier in TierId::ALL {
            let ws = tier
                .select_mut(&mut samplers)
                .wire_sample(SourceSample::of_tier(tier, seq, s));
            let (col, schedule) = (tier.select_mut(&mut cols), tier.select(schedules));
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

/// A meterless shard: [`FleetCollector::new`], folding every family.
fn full_width_shard(collector: u32, tiers: &[TierId]) -> FleetCollector {
    FleetCollector::new(
        collector,
        tiers,
        WINDOW as i64,
        1,
        SupervisorConfig::default(),
    )
}

/// The crash stream through two meterless shards fed full-width rows.
fn sharded_frames_for_crash_stream(meter: &CapacityMeter) -> Vec<DigestFrame> {
    shard_frames(
        meter,
        full_width_shard,
        MetricLevel::Combined,
        &crash_schedules(),
    )
}

#[test]
fn sharded_digestion_reproduces_the_assembler_exactly() {
    let meter = trained_meter();

    // What the unsharded plane must produce, from the independent
    // oracle: the analytic survivor prediction and the in-process
    // monitor replay share no code with the reassembly core (the
    // `Assembler` is built from it, so it can no longer referee).
    let (survivors, poisoned) = predicted_windows(TOTAL as u64, &crash_schedules(), WINDOW, 1);
    let oracle = replay_windows(&meter, &steady_run(&meter, TOTAL), BASE_SEED, &survivors);

    let frames = sharded_frames_for_crash_stream(&meter);
    let mut node = MergeNode::new(meter);
    for f in &frames {
        node.ingest(f);
    }
    let merged = node.finalize();

    assert_eq!(
        decisions_json(&merged.decisions),
        decisions_json(&oracle),
        "decision stream"
    );
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

#[test]
fn a_digest_missing_a_family_the_meter_reads_is_never_scored() {
    // The default meter reads HPC only: window 6's database digest with
    // its HPC mean emptied, or cut one column short, must be withheld
    // and counted, never scored on features read as zero.
    let meter = trained_meter();
    assert_eq!(meter.config().level, MetricLevel::Hpc);
    let (mut survivors, _) = predicted_windows(TOTAL as u64, &crash_schedules(), WINDOW, 1);
    survivors.remove(&6);
    let oracle = decisions_json(&replay_windows(
        &meter,
        &steady_run(&meter, TOTAL),
        BASE_SEED,
        &survivors,
    ));

    let frames = sharded_frames_for_crash_stream(&meter);
    let width = feature_width(MetricLevel::Hpc);
    for (what, keep) in [("emptied", 0), ("truncated", width - 1)] {
        let mut forged = frames.clone();
        let digest = forged
            .iter_mut()
            .flat_map(|f| f.windows.iter_mut())
            .find(|d| d.window == 6 && d.tier == TierId::Db)
            .expect("window 6 has a database digest");
        assert_eq!(digest.half.hpc_mean.len(), width);
        digest.half.hpc_mean.truncate(keep);

        let mut node = MergeNode::new(meter.clone());
        for f in &forged {
            node.ingest(f);
        }
        let out = node.finalize();
        assert_eq!(decisions_json(&out.decisions), oracle, "{what}: decisions");
        assert_eq!(out.incomplete_windows, vec![6], "{what}");
        assert_eq!(out.poisoned_windows, vec![1], "{what}");
        assert_eq!(out.anomalies, 1, "{what}");
    }
}

#[test]
fn the_fleet_decides_like_the_oracle_at_every_meter_level() {
    let schedules = scripted_faults();
    let (survivors, poisoned) = predicted_windows(TOTAL as u64, &schedules, WINDOW, 1);
    let poisoned: Vec<i64> = poisoned.into_iter().collect();

    let mut backhaul = BTreeMap::new();
    for level in MetricLevel::EXTENDED {
        let meter = if level == MetricLevel::Hpc {
            trained_meter()
        } else {
            CapacityMeter::train(&MeterConfig::small_for_tests(31).with_level(level))
                .expect("meter trains")
        };
        assert_eq!(meter.config().level, level);
        let samples = steady_run(&meter, TOTAL);
        let oracle = decisions_json(&replay_windows(&meter, &samples, BASE_SEED, &survivors));
        for k in [1u32, 2] {
            let topo = FleetTopology::two_tier("levels", 31, k);
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
            assert_eq!(
                decisions_json(&out.merge.decisions),
                oracle,
                "{level} K={k}"
            );
            assert_eq!(out.merge.poisoned_windows, poisoned, "{level} K={k}");
            assert!(out.merge.incomplete_windows.is_empty(), "{level} K={k}");
            assert_eq!(out.merge.anomalies, 0, "{level} K={k}");
            let bytes: u64 = out.collectors.iter().map(|c| c.bytes).sum();
            backhaul.insert((level, k), bytes);
        }
    }
    // The HPC fleet back-hauls neither tier's 64 OS means: under a third
    // of the combined fleet's bytes, at each K.
    for k in [1u32, 2] {
        let (hpc, combined) = (
            backhaul[&(MetricLevel::Hpc, k)],
            backhaul[&(MetricLevel::Combined, k)],
        );
        assert!(
            3 * hpc < combined,
            "K={k}: {hpc} B at HPC, {combined} B combined"
        );
    }
}

#[test]
fn a_level_shard_takes_full_or_level_rows_and_a_meterless_one_needs_full_width() {
    let meter = trained_meter();
    let hpc_shard = |collector: u32, tiers: &[TierId]| {
        FleetCollector::for_level(
            collector,
            tiers,
            WINDOW as i64,
            1,
            SupervisorConfig::default(),
            MetricLevel::Hpc,
        )
    };
    let schedules = crash_schedules();

    // An HPC shard drops the OS rows it does not read, so full-width and
    // HPC-only rows flush the same frames, poisons included.
    let full = shard_frames(&meter, hpc_shard, MetricLevel::Combined, &schedules);
    let level_only = shard_frames(&meter, hpc_shard, MetricLevel::Hpc, &schedules);
    assert!(full.iter().any(|f| !f.windows.is_empty()));
    assert!(full.iter().any(|f| !f.poisoned.is_empty()));
    assert_eq!(full, level_only);

    // A meterless shard reads every family: HPC-only rows leave the OS
    // family empty, so every window is poisoned and none digested.
    let starved = shard_frames(&meter, full_width_shard, MetricLevel::Hpc, &no_faults());
    assert!(starved.iter().all(|f| f.windows.is_empty()));
    let quarantined: BTreeSet<i64> = starved
        .iter()
        .flat_map(|f| f.poisoned.iter().copied())
        .collect();
    assert_eq!(quarantined, all_windows(TOTAL, WINDOW));
}
