//! The parallel-execution invariant, end to end: training and evaluating
//! a capacity meter is **bit-for-bit deterministic** across thread
//! counts. A meter trained sequentially, with 2, 4 or 8 workers, or at
//! the auto width serializes to byte-identical JSON, and multi-run evaluation
//! produces byte-identical reports — parallelism may only change
//! wall-clock time, never results.
//!
//! Every width is a value passed in-process (`MeterConfig::parallelism`),
//! so one `cargo test` run is the whole check: no environment variable
//! sets a worker count and no CI matrix re-runs this suite.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::{workloads, CapacityMeter, MeterConfig, Parallelism};
use webcap_tpcw::{Mix, TrafficProgram};

/// Each case trains two full meters (≈ 0.5 s), so the sweep is a few
/// dozen generator seeds, not the 256 the cheap properties run.
const CASES: u64 = 32;

fn train_json(seed: u64, par: Parallelism) -> String {
    let config = MeterConfig::small_for_tests(seed).with_parallelism(par);
    CapacityMeter::train(&config)
        .expect("training succeeds")
        .to_json()
        .expect("serializes")
}

/// The sequential reference meter, trained once and shared by the tests.
fn reference_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| train_json(1, Parallelism::Sequential))
}

#[test]
fn trained_meter_json_is_byte_identical_across_thread_counts() {
    for par in [
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ] {
        assert_eq!(
            train_json(1, par),
            reference_json(),
            "{par} diverged from sequential"
        );
    }
}

#[test]
fn evaluation_reports_are_byte_identical_across_thread_counts() {
    let meter = CapacityMeter::from_json(reference_json()).expect("round-trips");
    let cfg = meter.config().clone();
    let runs: Vec<(TrafficProgram, u64)> = vec![
        (
            workloads::test_ramp(&cfg.sim, &Mix::ordering(), cfg.duration_scale),
            101,
        ),
        (
            workloads::test_ramp(&cfg.sim, &Mix::browsing(), cfg.duration_scale),
            102,
        ),
    ];
    let mut serialized = Vec::new();
    for par in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let mut m = meter.clone();
        m.set_parallelism(par);
        let reports = m.evaluate_programs(&runs);
        serialized.push((par, serde_json::to_string(&reports).expect("serializes")));
    }
    for (par, json) in &serialized[1..] {
        assert_eq!(json, &serialized[0].1, "{par} diverged from sequential");
    }
}

/// For any base seed and worker count, parallel training either
/// produces the byte-identical meter or fails with the identical error.
/// A failing assertion names the case, which reproduces it.
#[test]
fn any_seed_trains_identically_at_any_width() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.random_range(0u64..10_000);
        let threads = rng.random_range(2usize..9);
        let seq = CapacityMeter::train(
            &MeterConfig::small_for_tests(seed).with_parallelism(Parallelism::Sequential),
        );
        let par = CapacityMeter::train(
            &MeterConfig::small_for_tests(seed).with_parallelism(Parallelism::Threads(threads)),
        );
        match (seq, par) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.to_json().expect("serializes"),
                b.to_json().expect("serializes"),
                "case {case}: meter seed {seed}, {threads} threads"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
            (a, b) => panic!(
                "case {case}: meter seed {seed}, {threads} threads diverged: {:?} vs {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}
