//! Property tests of the TPC-W workload model's invariants.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_tpcw::{Mix, RequestType, TrafficProgram, TransitionModel};

const CASES: u64 = 256;

fn canonical(rng: &mut StdRng) -> Mix {
    match rng.random_range(0u32..3) {
        0 => Mix::browsing(),
        1 => Mix::shopping(),
        _ => Mix::ordering(),
    }
}

/// Blending and perturbing preserve normalization and keep the browse
/// fraction inside the blend envelope.
#[test]
fn mix_algebra_preserves_normalization() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mix_a = canonical(&mut rng);
        let mix_b = canonical(&mut rng);
        let w = rng.random_range(0.0f64..1.0);
        let strength = rng.random_range(0.0f64..0.5);
        let blended = mix_a.blend(&mix_b, w);
        let sum: f64 = blended.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: sum {sum}");
        let (lo, hi) = {
            let x = mix_a.browse_fraction();
            let y = mix_b.browse_fraction();
            (x.min(y), x.max(y))
        };
        let bf = blended.browse_fraction();
        assert!(
            bf >= lo - 1e-9 && bf <= hi + 1e-9,
            "seed {seed}: {bf} outside [{lo},{hi}]"
        );

        let perturbed = blended.perturbed(strength, &mut rng);
        let sum: f64 = perturbed.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: perturbed sum {sum}");
        for (p, q) in perturbed
            .probabilities()
            .iter()
            .zip(blended.probabilities())
        {
            assert!(*p >= 0.0, "seed {seed}");
            // Perturbation is bounded multiplicatively (up to renorm).
            if *q > 0.0 {
                assert!(
                    p / q < (1.0 + strength) / (1.0 - strength) + 1e-6,
                    "seed {seed}: {p} / {q} at strength {strength}"
                );
            }
        }
    }
}

/// Sampling never produces an interaction whose mix probability is 0.
#[test]
fn sampling_respects_support() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeroed = rng.random_range(0usize..14);
        let mut weights = [1.0f64; 14];
        weights[zeroed] = 0.0;
        let mix = Mix::custom(&weights);
        for _ in 0..300 {
            let t = mix.sample(&mut rng);
            assert_ne!(
                t.index(),
                zeroed,
                "seed {seed}: sampled a zero-probability type"
            );
        }
    }
}

/// Traffic programs: population at any time is bounded by the phase
/// extrema, and the program duration is the sum of phase durations.
#[test]
fn program_population_is_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<(u32, f64)> = (0..rng.random_range(1usize..6))
            .map(|_| (rng.random_range(1u32..500), rng.random_range(10.0f64..60.0)))
            .collect();
        let probe = rng.random_range(0.0f64..400.0);
        let mut program = TrafficProgram::steady(Mix::shopping(), levels[0].0, levels[0].1);
        for &(ebs, d) in &levels[1..] {
            program = program.then_ramp(Mix::shopping(), ebs, d);
        }
        let expected: f64 = levels.iter().map(|l| l.1).sum();
        assert!(
            (program.duration_s() - expected).abs() < 1e-9,
            "seed {seed}"
        );
        let max = levels.iter().map(|l| l.0).max().unwrap();
        let min = levels.iter().map(|l| l.0).min().unwrap();
        let ebs = program.at(probe).ebs;
        assert!(
            ebs >= min && ebs <= max,
            "seed {seed}: {ebs} outside [{min},{max}]"
        );
    }
}

/// Transition chains stay row-stochastic under arbitrary blend +
/// perturbation pipelines, and their stationary distributions are
/// proper distributions over the 14 interactions.
#[test]
fn transition_chains_stay_valid() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (canonical(&mut rng), canonical(&mut rng));
        let mix = a.blend(&b, rng.random_range(0.0f64..1.0));
        let strength = rng.random_range(0.0f64..0.6);
        let chain = TransitionModel::from_mix(&mix).perturbed(strength, &mut rng);
        assert!(chain.is_valid(), "seed {seed}");
        let pi = chain.stationary();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "seed {seed}: sum {sum}");
        assert!(pi.iter().all(|p| (0.0..=1.0).contains(p)), "seed {seed}");
        // Home is reachable from everywhere, so it must carry mass.
        assert!(pi[RequestType::Home.index()] > 0.01, "seed {seed}");
    }
}
