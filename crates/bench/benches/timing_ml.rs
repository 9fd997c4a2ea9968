//! **Section V-B timing** — synopsis construction and decision cost per
//! learning algorithm.
//!
//! The paper reports build + single-decision times of 90 ms (LR), 10 ms
//! (Naive), 1710 ms (SVM) and 50 ms (TAN) and concludes that TAN is the
//! best accuracy/cost compromise, with every online decision under 50 ms.
//! Absolute numbers on modern hardware are far smaller; the *shape* to
//! reproduce is SVM ≫ LR/TAN > Naive, and decisions much cheaper than
//! builds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use webcap_ml::{Algorithm, Dataset};

/// A paper-sized training set: ~300 aggregated instances over 8 selected
/// attributes, with overlapping class distributions.
fn paper_sized_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = (0..8).map(|i| format!("a{i}")).collect();
    let mut data = Dataset::new(names);
    for _ in 0..300 {
        let label: bool = rng.random();
        let base = if label { 1.0 } else { 0.0 };
        let features: Vec<f64> = (0..8)
            .map(|i| {
                let informative = if i < 4 { base } else { 0.5 };
                informative + rng.random::<f64>() * 0.9
            })
            .collect();
        data.push(features, label);
    }
    data
}

fn print_paper_summary() {
    let data = paper_sized_dataset(3);
    let probe = vec![0.7; 8];
    println!("\n== Section V-B timing summary (measured vs paper, per algorithm) ==");
    println!(
        "{:<8} {:>14} {:>14} {:>16}",
        "alg", "build (ms)", "decide (us)", "paper build (ms)"
    );
    let paper = [
        ("LR", 90.0),
        ("Naive", 10.0),
        ("SVM", 1710.0),
        ("TAN", 50.0),
    ];
    let mut builds = Vec::new();
    for alg in Algorithm::PAPER_ORDER {
        let t0 = Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let _ = alg.fit(&data).expect("fit");
        }
        let build_ms = t0.elapsed().as_secs_f64() * 1000.0 / f64::from(reps);
        let model = alg.fit(&data).expect("fit");
        let t1 = Instant::now();
        let n = 10_000;
        for _ in 0..n {
            black_box(model.predict(black_box(&probe)));
        }
        let decide_us = t1.elapsed().as_secs_f64() * 1e6 / f64::from(n);
        let paper_ms = paper
            .iter()
            .find(|(n, _)| *n == alg.paper_name())
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        println!(
            "{:<8} {:>14.2} {:>14.3} {:>16.0}",
            alg.paper_name(),
            build_ms,
            decide_us,
            paper_ms
        );
        builds.push((alg, build_ms));
    }
    // Shape: SVM must dominate the cost ranking, as in the paper.
    let cost = |a: Algorithm| builds.iter().find(|(x, _)| *x == a).unwrap().1;
    assert!(
        cost(Algorithm::Svm) > 3.0 * cost(Algorithm::NaiveBayes),
        "SVM should be by far the costliest: svm {} vs naive {}",
        cost(Algorithm::Svm),
        cost(Algorithm::NaiveBayes)
    );
}

fn main() {
    print_paper_summary();
}
