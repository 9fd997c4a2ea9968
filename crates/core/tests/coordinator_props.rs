//! Property-based tests of the two-level coordinated predictor's
//! invariants.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_core::coordinator::{CoordinatedPredictor, CoordinatorConfig, TieScheme};
use webcap_sim::TierId;

const CASES: u64 = 256;

fn bools(rng: &mut StdRng, m: usize) -> Vec<bool> {
    (0..m).map(|_| rng.random()).collect()
}

/// A training stream of fewer than `len` (per-synopsis votes, label,
/// bottleneck) instances.
fn training_stream(rng: &mut StdRng, m: usize, len: usize) -> Vec<(Vec<bool>, bool, TierId)> {
    (0..rng.random_range(0..len))
        .map(|_| {
            let votes = bools(rng, m);
            let bottleneck = if rng.random() {
                TierId::App
            } else {
                TierId::Db
            };
            (votes, rng.random(), bottleneck)
        })
        .collect()
}

fn trained(
    m: usize,
    cfg: CoordinatorConfig,
    stream: &[(Vec<bool>, bool, TierId)],
) -> CoordinatedPredictor {
    let mut p = CoordinatedPredictor::new(m, cfg);
    for (votes, label, bottleneck) in stream {
        p.train_instance(votes, *label, Some(*bottleneck));
    }
    p
}

/// Counters never escape the clamp, the GPV is always in range, and
/// `peek` never mutates observable state.
#[test]
fn counters_stay_clamped_and_peek_is_pure() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = training_stream(&mut rng, 3, 120);
        let delta = rng.random_range(0i32..8);
        let cfg = CoordinatorConfig {
            history_bits: rng.random_range(1usize..5),
            delta,
            scheme: if rng.random() {
                TieScheme::Pessimistic
            } else {
                TieScheme::Optimistic
            },
            counter_clamp: delta + 10,
        };
        let mut p = trained(3, cfg, &stream);
        for gpv in 0..(1usize << 3) {
            for &hc in p.lht_row(gpv) {
                assert!(hc.abs() <= cfg.counter_clamp, "seed {seed}");
            }
            for &b in p.bpt_row(gpv) {
                assert!(b.abs() <= cfg.counter_clamp, "seed {seed}");
            }
        }
        // peek is pure: repeated peeks agree and don't disturb predict.
        let votes = vec![true, false, true];
        let first = p.peek(&votes);
        let second = p.peek(&votes);
        assert_eq!(&first, &second, "seed {seed}");
        let predicted = p.predict(&votes);
        assert_eq!(first.overloaded, predicted.overloaded, "seed {seed}");
        assert!(first.gpv < 8, "seed {seed}");
    }
}

/// Training order determinism: the same stream always produces the
/// same tables and predictions.
#[test]
fn training_is_deterministic() {
    for seed in 0..CASES {
        let stream = training_stream(&mut StdRng::seed_from_u64(seed), 2, 80);
        let a = trained(2, CoordinatorConfig::default(), &stream);
        let b = trained(2, CoordinatorConfig::default(), &stream);
        assert_eq!(&a, &b, "seed {seed}");
    }
}

/// The bottleneck answer is always one of the tiers, and only appears
/// when the state prediction is overloaded.
#[test]
fn bottleneck_is_consistent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = training_stream(&mut rng, 2, 100);
        let mut p = trained(2, CoordinatorConfig::default(), &stream);
        for _ in 0..rng.random_range(1usize..20) {
            let out = p.predict(&bools(&mut rng, 2));
            match (out.overloaded, out.bottleneck) {
                (true, Some(t)) => assert!(TierId::ALL.contains(&t), "seed {seed}"),
                (false, None) => {}
                other => panic!("seed {seed}: inconsistent pair {other:?}"),
            }
        }
    }
}

/// With δ = 0 there is no uncertainty band: any trained cell with a
/// nonzero counter yields a confident prediction matching its sign.
#[test]
fn zero_delta_predicts_counter_sign() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let votes = bools(&mut rng, 2);
        let label: bool = rng.random();
        let cfg = CoordinatorConfig {
            delta: 0,
            ..CoordinatorConfig::default()
        };
        let mut p = CoordinatedPredictor::new(2, cfg);
        for _ in 0..rng.random_range(1usize..10) {
            p.train_instance(&votes, label, Some(TierId::App));
            p.reset_history();
        }
        let out = p.peek(&votes);
        assert!(out.confident, "seed {seed}");
        assert_eq!(out.overloaded, label, "seed {seed}");
    }
}

/// A perfectly informative single synopsis dominates after enough
/// consistent training regardless of history length.
#[test]
fn informative_synopsis_dominates() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let history_bits = rng.random_range(1usize..5);
        let len = rng.random_range(40usize..120);
        let labels = bools(&mut rng, len);
        let cfg = CoordinatorConfig {
            history_bits,
            delta: 2,
            ..CoordinatorConfig::default()
        };
        let mut p = CoordinatedPredictor::new(1, cfg);
        // Three epochs of a perfect predictor.
        for _ in 0..3 {
            p.reset_history();
            for &label in &labels {
                p.train_instance(&[label], label, Some(TierId::Db));
            }
        }
        p.reset_history();
        let mut correct = 0usize;
        for &label in &labels {
            if p.predict(&[label]).overloaded == label {
                correct += 1;
            }
        }
        // Allow a short warm-up worth of mistakes per distinct history.
        let budget = (1 << history_bits) + 4;
        assert!(
            labels.len() - correct <= budget,
            "seed {seed}: mistakes {} > budget {}",
            labels.len() - correct,
            budget
        );
    }
}
