//! Property tests for [`AdmissionController`] clamping: the cap never
//! leaves `[min_ebs, max_ebs]` under arbitrary prediction sequences,
//! including arbitrary SafeMode clamp entry/exit via `clamp_to`.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::{AdmissionConfig, AdmissionController};

const CASES: u64 = 256;

/// A valid (non-degenerate) config plus an arbitrary initial cap:
/// `max_ebs = min_ebs + span` keeps the interval non-empty by
/// construction.
fn config_and_initial(rng: &mut StdRng) -> (AdmissionConfig, u32) {
    let min_ebs = rng.random_range(1u32..500);
    let span = rng.random_range(0u32..2000);
    let initial = rng.random_range(0u32..5000);
    (
        AdmissionConfig {
            min_ebs,
            max_ebs: min_ebs + span,
            increase_step: rng.random_range(1u32..100),
            decrease_factor: rng.random_range(0.1f64..0.95),
            segment_s: 60.0,
        },
        initial,
    )
}

fn assert_in_bounds(seed: u64, cfg: &AdmissionConfig, cap: u32) {
    let (min, max) = (cfg.min_ebs, cfg.max_ebs);
    assert!(cap >= min, "seed {seed}: cap {cap} fell below {min}");
    assert!(cap <= max, "seed {seed}: cap {cap} exceeded {max}");
}

#[test]
fn cap_stays_in_bounds_under_arbitrary_predictions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cfg, initial) = config_and_initial(&mut rng);
        let mut c = AdmissionController::try_new(cfg, initial).unwrap();
        assert_in_bounds(seed, &cfg, c.cap());
        for _ in 0..rng.random_range(0usize..200) {
            let cap = c.on_prediction(rng.random());
            assert_in_bounds(seed, &cfg, cap);
            assert_eq!(cap, c.cap(), "seed {seed}");
        }
    }
}

/// Interleave AIMD predictions with SafeMode-style clamp overrides: a
/// forced target models a supervisor clamping the cap (clamp entry), a
/// prediction models normal AIMD steps (clamp exit). The invariant must
/// hold through every transition.
#[test]
fn cap_stays_in_bounds_through_safemode_clamp_entry_and_exit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cfg, initial) = config_and_initial(&mut rng);
        let mut c = AdmissionController::try_new(cfg, initial).unwrap();
        for _ in 0..rng.random_range(0usize..200) {
            let cap = if rng.random() {
                c.clamp_to(rng.random_range(0u32..10_000))
            } else {
                c.on_prediction(rng.random())
            };
            assert_in_bounds(seed, &cfg, cap);
        }
    }
}

/// An in-range clamp target is honored exactly — SafeMode must get
/// precisely the conservative cap it asked for whenever that cap is
/// admissible.
#[test]
fn in_range_clamp_targets_stick_exactly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cfg, initial) = config_and_initial(&mut rng);
        let fraction = rng.random_range(0.0f64..1.0);
        let mut c = AdmissionController::try_new(cfg, initial).unwrap();
        let span = cfg.max_ebs - cfg.min_ebs;
        let target = cfg.min_ebs + (span as f64 * fraction) as u32;
        assert_eq!(c.clamp_to(target), target, "seed {seed}");
        assert_eq!(c.cap(), target, "seed {seed}");
    }
}
