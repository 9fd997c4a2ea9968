//! Fleet back-haul chaos across the full scenario library.
//!
//! Every capacity-search scenario runs at K = 1, 2, and 4 collectors;
//! the captured digest stream is then replayed into the merge under
//! three chaos families:
//!
//! * **partition** — a scripted link partition of the collector owning
//!   the Db tier: delivery is delayed but lossless, so the outcome must
//!   be byte-identical to the unfaulted baseline.
//! * **corruption** — heavy bit flips, truncations, and drops: the
//!   outcome must be byte-identical to a clean merge of exactly the
//!   surviving frames, and the lost set must match the analytic
//!   prediction frame-for-frame.
//! * **reorder/dup** — duplicated and reordered digests: lossless by
//!   construction, so byte-identical to the baseline.
//!
//! On divergence the transcripts are spilled to `target/tmp/fleet` for
//! CI to attach as artifacts.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use webcap_chaosnet::{
    merge_stream, without_frames, ChaosProfile, ChaosSchedule, FrameFault, Partition,
};
use webcap_core::{CapacityMeter, MeterConfig};
use webcap_fleet::{
    collect_digest_stream, AgentId, DigestStream, FleetTopology, MergeOutcome, ShardMap,
};
use webcap_sim::TierId;

const SCENARIOS: [&str; 6] = [
    "steady-shopping",
    "flash-crowd",
    "diurnal-ramp",
    "mix-drift",
    "slow-leak",
    "replica-failure",
];
const PROBE_EBS: u32 = 64;

fn meter() -> &'static CapacityMeter {
    static METER: OnceLock<CapacityMeter> = OnceLock::new();
    METER.get_or_init(|| {
        CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("meter trains")
    })
}

/// The scenario's probe stream and captured digest back-haul at fleet
/// width `k`.
fn captured_stream(name: &str, k: u32) -> (DigestStream, FleetTopology) {
    let meter = meter();
    let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
    let mut cfg = meter.config().sim.clone();
    cfg.seed = scenario.seed;
    let samples = webcap_sim::run(cfg, scenario.program(PROBE_EBS)).samples;
    let schedules = scenario.schedules();
    let topology = FleetTopology::two_tier(&scenario.name, scenario.seed, k);
    let stream = collect_digest_stream(meter, &samples, scenario.seed, &schedules, &topology, None)
        .expect("digest stream captures");
    (stream, topology)
}

/// The decision-bearing slice of a merge outcome: what "byte-identical"
/// quantifies over.
fn render(outcome: &MergeOutcome) -> String {
    serde_json::to_string(&(
        &outcome.decisions,
        &outcome.poisoned_windows,
        &outcome.incomplete_windows,
    ))
    .expect("outcome serializes")
}

fn assert_identical(name: &str, k: u32, family: &str, got: &MergeOutcome, want: &MergeOutcome) {
    let (got_render, want_render) = (render(got), render(want));
    if got_render != want_render {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/fleet");
        fs::create_dir_all(&dir).ok();
        fs::write(
            dir.join(format!("{name}-k{k}-{family}-chaos.json")),
            &got_render,
        )
        .ok();
        fs::write(
            dir.join(format!("{name}-k{k}-{family}-oracle.json")),
            &want_render,
        )
        .ok();
        panic!(
            "{name} K={k} {family}: outcomes diverge; transcripts left in {}",
            dir.display()
        );
    }
}

/// The analytically predicted lost-frame indices for a roll-fault
/// schedule (no partition): exactly the frames whose per-collector
/// frame index rolls a destructive fault.
fn predicted_lost(stream: &DigestStream, chaos: &ChaosSchedule) -> Vec<usize> {
    let mut per_conn: BTreeMap<u32, u64> = BTreeMap::new();
    let mut lost = Vec::new();
    for (index, frame) in stream.frames.iter().enumerate() {
        let counter = per_conn.entry(frame.collector).or_insert(0);
        let idx = *counter;
        *counter += 1;
        if matches!(
            chaos.fleet_fault(frame.collector, idx, frame.tick),
            FrameFault::Corrupt | FrameFault::Truncate | FrameFault::Drop
        ) {
            lost.push(index);
        }
    }
    lost
}

/// Partition family: delayed but lossless delivery must be
/// byte-neutral.
#[test]
fn partition_family_is_byte_neutral() {
    let meter = meter();
    for name in SCENARIOS {
        let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
        for k in [1u32, 2, 4] {
            let (stream, topology) = captured_stream(name, k);
            let (baseline, baseline_lost) =
                merge_stream(meter, &stream, None).expect("baseline merges");
            assert!(baseline_lost.is_empty());

            let victim = ShardMap::new(topology.seed, topology.collectors)
                .owner(AgentId::primary(TierId::Db));
            let chaos = ChaosSchedule::new(
                scenario.seed,
                ChaosProfile {
                    split_per_mille: 100,
                    stall_per_mille: 150,
                    partition: Some(Partition {
                        conn: victim,
                        from: 40,
                        until: 160,
                    }),
                    ..ChaosProfile::quiet()
                },
            );
            let (outcome, lost) = merge_stream(meter, &stream, Some(&chaos)).expect("chaos merges");
            assert!(
                lost.is_empty(),
                "{name} K={k}: a partition delays frames, it never destroys them"
            );
            assert_identical(name, k, "partition", &outcome, &baseline);
        }
    }
}

/// Corruption family: the outcome must equal a clean merge of exactly
/// the surviving frames, and the lost set must match the analytic
/// prediction.
#[test]
fn corruption_family_matches_kept_set_oracle() {
    let meter = meter();
    let mut total_lost = 0usize;
    for name in SCENARIOS {
        let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
        for k in [1u32, 2, 4] {
            let (stream, _topology) = captured_stream(name, k);
            let chaos = ChaosSchedule::new(scenario.seed + 1, ChaosProfile::corruption_heavy());
            let (outcome, lost) = merge_stream(meter, &stream, Some(&chaos)).expect("chaos merges");

            let got: Vec<usize> = lost.iter().map(|l| l.index).collect();
            assert_eq!(
                got,
                predicted_lost(&stream, &chaos),
                "{name} K={k}: the lost set must match the analytic prediction"
            );
            total_lost += lost.len();

            let kept = without_frames(&stream, &lost);
            let (oracle, oracle_lost) =
                merge_stream(meter, &kept, None).expect("kept-set oracle merges");
            assert!(oracle_lost.is_empty());
            assert_identical(name, k, "corruption", &outcome, &oracle);
        }
    }
    assert!(
        total_lost > 0,
        "the corruption family must actually destroy frames somewhere in the matrix"
    );
}

/// Reorder/duplicate family: lossless by construction, so the merge —
/// a pure function of the ingested digest *set* — must be
/// byte-identical to the unfaulted baseline.
#[test]
fn reorder_dup_family_is_byte_identical_to_baseline() {
    let meter = meter();
    for name in SCENARIOS {
        let scenario = webcap_capsearch::scenario::find(name).expect("library scenario");
        for k in [1u32, 2, 4] {
            let (stream, _topology) = captured_stream(name, k);
            let (baseline, _) = merge_stream(meter, &stream, None).expect("baseline merges");
            let chaos = ChaosSchedule::new(
                scenario.seed + 2,
                ChaosProfile {
                    dup_per_mille: 120,
                    split_per_mille: 120,
                    reorder_per_mille: 150,
                    ..ChaosProfile::quiet()
                },
            );
            let (outcome, lost) = merge_stream(meter, &stream, Some(&chaos)).expect("chaos merges");
            assert!(
                lost.is_empty(),
                "{name} K={k}: duplication and reordering never lose frames"
            );
            assert_identical(name, k, "reorder-dup", &outcome, &baseline);
        }
    }
}
