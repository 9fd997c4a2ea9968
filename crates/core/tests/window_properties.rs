//! Property tests of the windowing invariants in
//! [`webcap_core::RunLog::windows`]: the window-count formula, time
//! monotonicity, and the throughput definition hold for *any* `(len,
//! stride)`, and degenerate parameters panic instead of looping.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::{collect_run, OracleConfig, RunLog};
use webcap_hpc::HpcModel;
use webcap_sim::SimConfig;
use webcap_tpcw::{Mix, TrafficProgram};

const CASES: u64 = 256;

/// One shared 120-sample run; collecting it is the expensive part, the
/// windowing under test is cheap.
fn shared_log() -> &'static RunLog {
    static LOG: OnceLock<RunLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let cfg = SimConfig::testbed(17);
        let program = TrafficProgram::steady(Mix::shopping(), 40, 120.0);
        collect_run(&cfg, &program, &HpcModel::testbed(), 11)
    })
}

/// Exactly `(n - len) / stride + 1` windows fit when `n >= len`,
/// zero otherwise.
#[test]
fn window_count_matches_formula() {
    let log = shared_log();
    let n = log.samples.len();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(1usize..200);
        let stride = rng.random_range(1usize..64);
        let windows = log.windows(len, stride, &OracleConfig::default());
        let expected = if n >= len { (n - len) / stride + 1 } else { 0 };
        assert_eq!(
            windows.len(),
            expected,
            "seed {seed}: len {len}, stride {stride}"
        );
    }
}

/// Every window ends after it starts, and both endpoints advance
/// strictly monotonically across the sequence.
#[test]
fn window_times_are_monotone() {
    let log = shared_log();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(1usize..64);
        let stride = rng.random_range(1usize..64);
        let windows = log.windows(len, stride, &OracleConfig::default());
        for w in &windows {
            assert!(
                w.t_start_s < w.t_end_s,
                "seed {seed}: {} !< {}",
                w.t_start_s,
                w.t_end_s
            );
        }
        for pair in windows.windows(2) {
            assert!(pair[0].t_start_s < pair[1].t_start_s, "seed {seed}");
            assert!(pair[0].t_end_s < pair[1].t_end_s, "seed {seed}");
        }
    }
}

/// A window's throughput is its completed-request count divided by
/// its wall-clock duration, recomputed here from the raw samples.
#[test]
fn window_throughput_is_completed_over_duration() {
    let log = shared_log();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(1usize..64);
        let stride = rng.random_range(1usize..64);
        let windows = log.windows(len, stride, &OracleConfig::default());
        let mut start = 0usize;
        for w in &windows {
            let slice = &log.samples[start..start + len];
            let completed: u64 = slice.iter().map(|s| s.front.completed).sum();
            let duration: f64 = slice.iter().map(|s| s.interval_s).sum();
            let expected = completed as f64 / duration;
            assert!(
                (w.throughput - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                "seed {seed}: window at {start}: {} vs {expected}",
                w.throughput
            );
            start += stride;
        }
    }
}

#[test]
#[should_panic(expected = "must be positive")]
fn zero_length_panics() {
    let _ = shared_log().windows(0, 5, &OracleConfig::default());
}

#[test]
#[should_panic(expected = "must be positive")]
fn zero_stride_panics() {
    let _ = shared_log().windows(30, 0, &OracleConfig::default());
}
