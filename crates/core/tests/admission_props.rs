//! Property tests for [`AdmissionController`] clamping: the cap never
//! leaves `[MIN_EBS, MAX_EBS]` from an arbitrary initial cap, under
//! arbitrary prediction sequences, including arbitrary SafeMode clamp
//! entry/exit via `clamp_to`.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::admission::{MAX_EBS, MIN_EBS};
use webcap_core::AdmissionController;

const CASES: u64 = 256;

/// A controller from an arbitrary initial cap, below, inside and above
/// the admissible interval.
fn controller(rng: &mut StdRng) -> AdmissionController {
    let initial = if rng.random() {
        rng.random_range(0u32..5000)
    } else {
        rng.random()
    };
    AdmissionController::new(initial)
}

fn assert_in_bounds(seed: u64, cap: u32) {
    assert!(
        cap >= MIN_EBS,
        "seed {seed}: cap {cap} fell below {MIN_EBS}"
    );
    assert!(cap <= MAX_EBS, "seed {seed}: cap {cap} exceeded {MAX_EBS}");
}

#[test]
fn cap_stays_in_bounds_under_arbitrary_predictions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = controller(&mut rng);
        assert_in_bounds(seed, c.cap());
        for _ in 0..rng.random_range(0usize..200) {
            let cap = c.on_prediction(rng.random());
            assert_in_bounds(seed, cap);
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
        let mut c = controller(&mut rng);
        for _ in 0..rng.random_range(0usize..200) {
            let cap = if rng.random() {
                c.clamp_to(rng.random())
            } else {
                c.on_prediction(rng.random())
            };
            assert_in_bounds(seed, cap);
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
        let mut c = controller(&mut rng);
        let target = rng.random_range(MIN_EBS..=MAX_EBS);
        assert_eq!(c.clamp_to(target), target, "seed {seed}");
        assert_eq!(c.cap(), target, "seed {seed}");
    }
}
