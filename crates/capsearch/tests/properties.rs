//! Property suite for the capacity search.
//!
//! * Bisection against an exact threshold probe converges to within the
//!   tolerance, inside the probe budget, never probing one population
//!   twice.
//! * At tolerance 1, bisection is exact — and therefore monotone: a
//!   higher threshold never yields a smaller capacity.
//! * Scenario JSON is lossless: JSON → `Scenario` → JSON is
//!   byte-identical, and `Scenario` → JSON → `Scenario` is `==`.
//! * Through the real simulator, tightening the SLO never raises the
//!   measured capacity by more than the bracket tolerance.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_capsearch::{
    bisect, search_scenario, FaultEvent, Scenario, ScenarioMix, ScenarioPhase, SearchConfig,
    SimExecutor, Slo,
};
use webcap_sim::TierId;

mod common;
use common::meter;

fn run_threshold(cfg: &SearchConfig, t: u32) -> webcap_capsearch::BisectOutcome {
    match bisect(cfg, |ebs| Ok::<bool, Infallible>(ebs <= t)) {
        Ok(outcome) => outcome,
    }
}

/// Cases per seeded property; a failing assertion names its seed.
const CASES: u64 = 256;

#[test]
fn bisection_converges_within_tolerance_and_budget() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SearchConfig {
            initial_lo: rng.random_range(1u32..64),
            initial_hi: rng.random_range(1u32..512),
            tolerance: rng.random_range(1u32..32),
            max_probes: 64,
            max_ebs: rng.random_range(64u32..4096),
        };
        let threshold = rng.random_range(0u32..6000);
        let out = run_threshold(&cfg, threshold);
        let max_ebs = cfg.max_ebs.max(1);
        assert!(
            out.probes.len() as u32 <= cfg.max_probes.max(2),
            "seed {seed}"
        );
        // No population is ever probed twice.
        let mut seen: Vec<u32> = out.probes.iter().map(|&(e, _)| e).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "seed {seed}");
        // The claim is always backed by a passing probe (or nothing passed).
        assert!(out.capacity <= threshold.min(max_ebs), "seed {seed}");
        if out.converged {
            // Converged means the boundary is bracketed within tolerance.
            assert!(
                out.capacity + cfg.tolerance >= threshold.min(max_ebs),
                "seed {seed}"
            );
        } else {
            // With a 64-probe budget the only non-convergence is the
            // boundary sitting above the probe ceiling.
            assert_eq!(out.capacity, max_ebs, "seed {seed}");
            assert!(threshold >= max_ebs, "seed {seed}");
        }
    }
}

#[test]
fn tolerance_one_bisection_is_exact_and_monotone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (t1, t2) = (rng.random_range(1u32..2000), rng.random_range(1u32..2000));
        let cfg = SearchConfig {
            initial_lo: rng.random_range(1u32..64),
            initial_hi: rng.random_range(1u32..512),
            tolerance: 1,
            max_probes: 64,
            max_ebs: 2048,
        };
        let (t_lo, t_hi) = (t1.min(t2), t1.max(t2));
        let out_lo = run_threshold(&cfg, t_lo);
        let out_hi = run_threshold(&cfg, t_hi);
        assert_eq!(out_lo.capacity, t_lo, "seed {seed}: tolerance 1 is exact");
        assert_eq!(out_hi.capacity, t_hi, "seed {seed}");
        assert!(out_lo.capacity <= out_hi.capacity, "seed {seed}");
    }
}

/// `len` characters, each one of `alphabet`.
fn string_of(rng: &mut StdRng, len: usize, alphabet: &[u8]) -> String {
    (0..len)
        .map(|_| char::from(alphabet[rng.random_range(0..alphabet.len())]))
        .collect()
}

fn arb_tier(rng: &mut StdRng) -> TierId {
    if rng.random() {
        TierId::Db
    } else {
        TierId::App
    }
}

fn arb_phase(rng: &mut StdRng) -> ScenarioPhase {
    ScenarioPhase {
        mix: match rng.random_range(0u32..3) {
            0 => ScenarioMix::Browsing,
            1 => ScenarioMix::Shopping,
            _ => ScenarioMix::Ordering,
        },
        from: rng.random_range(0.01f64..16.0),
        to: rng.random_range(0.01f64..16.0),
        duration_s: rng.random_range(1.0f64..300.0),
    }
}

fn arb_fault(rng: &mut StdRng) -> FaultEvent {
    let tier = arb_tier(rng);
    if rng.random() {
        let from_s = rng.random_range(0u64..500);
        FaultEvent::AgentDown {
            tier,
            from_s,
            until_s: from_s + rng.random_range(1u64..100),
        }
    } else {
        FaultEvent::Reconnect {
            tier,
            at_s: rng.random_range(0u64..600),
        }
    }
}

/// The name matches `[a-z][a-z0-9-]{0,14}`; the description is up to 40
/// printable ASCII characters other than `"`.
fn arb_scenario(rng: &mut StdRng) -> Scenario {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const NAME_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let printable: Vec<u8> = (b' '..=b'~').filter(|&c| c != b'"').collect();
    let name_tail = rng.random_range(0usize..=14);
    let description_len = rng.random_range(0usize..=40);
    Scenario {
        name: string_of(rng, 1, LOWER) + &string_of(rng, name_tail, NAME_TAIL),
        description: string_of(rng, description_len, &printable),
        seed: rng.random(),
        warmup_s: rng.random_range(0u32..120),
        slo: Slo {
            timeout_s: rng.random_range(0.1f64..10.0),
            max_error_fraction: rng.random_range(0.0f64..1.0),
            max_p99_s: rng.random_range(0.1f64..10.0),
        },
        phases: (0..rng.random_range(1usize..4))
            .map(|_| arb_phase(rng))
            .collect(),
        faults: (0..rng.random_range(0usize..3))
            .map(|_| arb_fault(rng))
            .collect(),
    }
}

#[test]
fn scenario_json_round_trip_is_lossless() {
    let to_json = |s: &Scenario| serde_json::to_string(s).expect("scenarios serialize");
    for seed in 0..CASES {
        let scenario = arb_scenario(&mut StdRng::seed_from_u64(seed));
        let json = to_json(&scenario);
        let parsed =
            Scenario::from_json(&json).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{json}"));
        assert_eq!(parsed, scenario, "seed {seed}");
        assert_eq!(
            to_json(&parsed),
            json,
            "seed {seed}: canonical form is a fixed point"
        );
    }
}

#[test]
fn tightening_the_slo_never_raises_capacity() {
    let base = webcap_capsearch::scenario::find("steady-shopping").expect("library scenario");
    let cfg = SearchConfig::quick();
    // Strictly tightening SLO ladder: only the acceptance thresholds
    // move, so any probe passing a tighter SLO passes every looser one.
    let slos = [
        Slo {
            timeout_s: base.slo.timeout_s,
            max_error_fraction: 0.20,
            max_p99_s: 4.0,
        },
        Slo {
            timeout_s: base.slo.timeout_s,
            max_error_fraction: 0.08,
            max_p99_s: 2.5,
        },
        Slo {
            timeout_s: base.slo.timeout_s,
            max_error_fraction: 0.02,
            max_p99_s: 1.2,
        },
    ];
    let mut capacities = Vec::new();
    for slo in slos {
        let scenario = Scenario {
            slo,
            ..base.clone()
        };
        let mut executor = SimExecutor::new(meter());
        let report = search_scenario(&scenario, &mut executor, &cfg).expect("sim search");
        capacities.push(report.capacity_ebs);
    }
    for pair in capacities.windows(2) {
        assert!(
            pair[1] <= pair[0] + cfg.tolerance,
            "tightening the SLO must not raise capacity: {capacities:?}"
        );
    }
}
