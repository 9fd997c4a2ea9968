//! Equal-frequency discretization of continuous attributes.
//!
//! TAN and the information-theoretic attribute scores operate on discrete
//! attributes; the paper's WEKA pipeline discretizes continuous counters
//! first. Bin boundaries are fitted on training data only and then applied
//! to unseen values (clamping to the outer bins).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Discretizer for one continuous column: maps a value to a bin index in
/// `0..n_bins` using cut points chosen so each bin holds roughly the same
/// number of training values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EqualFrequencyDiscretizer {
    /// Ascending cut points; value `v` falls in the first bin whose cut
    /// exceeds it. `cuts.len() + 1` bins exist conceptually, but duplicate
    /// cuts are removed so the realized bin count may be smaller than
    /// requested.
    cuts: Vec<f64>,
}

impl EqualFrequencyDiscretizer {
    /// Fit cut points from training values.
    ///
    /// `n_bins` is a target; ties in the data can reduce the realized
    /// number of bins. With fewer distinct values than bins, one bin per
    /// distinct value is produced.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins == 0` or `values` is empty.
    pub fn fit(values: &[f64], n_bins: usize) -> EqualFrequencyDiscretizer {
        assert!(n_bins > 0, "n_bins must be positive");
        assert!(!values.is_empty(), "cannot fit discretizer on no values");
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            // All non-finite: degenerate single bin.
            return EqualFrequencyDiscretizer { cuts: Vec::new() };
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len();
        let mut cuts = Vec::with_capacity(n_bins.saturating_sub(1));
        for k in 1..n_bins {
            let idx = (k * n) / n_bins;
            if idx == 0 || idx >= n {
                continue;
            }
            // Midpoint between neighbours gives stable boundaries. A cut
            // between equal values separates nothing — skip it (this also
            // collapses constant columns to a single bin).
            if sorted[idx - 1] < sorted[idx] {
                cuts.push((sorted[idx - 1] + sorted[idx]) / 2.0);
            }
        }
        cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        EqualFrequencyDiscretizer { cuts }
    }

    /// Number of bins this discretizer can emit.
    pub fn n_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Map a value to its bin index in `0..self.n_bins()`. Infinities
    /// clamp to the outer bins; NaN maps to bin 0.
    pub fn bin(&self, value: f64) -> usize {
        if value.is_nan() {
            return 0;
        }
        // cuts are ascending; count how many cuts the value passes.
        self.cuts.iter().take_while(|&&c| value > c).count()
    }

    /// The fitted cut points.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }
}

/// Cache key for [`fit_cached`]: the exact bit patterns of the training
/// values plus the bin target. A hit can only occur for bit-identical
/// input, so the cached discretizer is exactly what a fresh fit would
/// produce — the cache can never change results, only skip work.
#[derive(PartialEq, Eq, Hash)]
struct FitKey {
    n_bins: usize,
    value_bits: Vec<u64>,
}

static FIT_CACHE: OnceLock<Mutex<HashMap<FitKey, EqualFrequencyDiscretizer>>> = OnceLock::new();

/// Entry cap for the fit memo; on overflow the memo resets rather than
/// growing without bound (a refit is cheap, unbounded memory is not).
const FIT_CACHE_CAP: usize = 1024;

/// Memoized [`EqualFrequencyDiscretizer::fit`].
///
/// Cross-validated forward selection re-discretizes identical fold
/// columns once per candidate attribute set (dozens of times per round);
/// this turns every repeat into a hash lookup. Safe under concurrency:
/// the key is the full input, so hits are referentially transparent.
///
/// # Panics
///
/// Same as [`EqualFrequencyDiscretizer::fit`].
pub fn fit_cached(values: &[f64], n_bins: usize) -> EqualFrequencyDiscretizer {
    let key = FitKey {
        n_bins,
        value_bits: values.iter().map(|v| v.to_bits()).collect(),
    };
    let cache = FIT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("fit cache poisoned").get(&key) {
        return hit.clone();
    }
    let fitted = EqualFrequencyDiscretizer::fit(values, n_bins);
    let mut map = cache.lock().expect("fit cache poisoned");
    if map.len() >= FIT_CACHE_CAP {
        map.clear();
    }
    map.insert(key, fitted.clone());
    fitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn four_bins_quartiles() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let d = EqualFrequencyDiscretizer::fit(&values, 4);
        assert_eq!(d.n_bins(), 4);
        assert_eq!(d.bin(0.0), 0);
        assert_eq!(d.bin(30.0), 1);
        assert_eq!(d.bin(60.0), 2);
        assert_eq!(d.bin(99.0), 3);
    }

    #[test]
    fn out_of_range_clamps() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let d = EqualFrequencyDiscretizer::fit(&values, 3);
        assert_eq!(d.bin(-100.0), 0);
        assert_eq!(d.bin(100.0), d.n_bins() - 1);
    }

    #[test]
    fn constant_column_single_bin() {
        let d = EqualFrequencyDiscretizer::fit(&[5.0; 20], 5);
        assert_eq!(d.n_bins(), 1);
        assert_eq!(d.bin(5.0), 0);
        assert_eq!(d.bin(-1.0), 0);
    }

    #[test]
    fn non_finite_values_go_to_bin_zero() {
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let d = EqualFrequencyDiscretizer::fit(&values, 3);
        assert_eq!(d.bin(f64::NAN), 0);
        assert_eq!(d.bin(f64::INFINITY), d.n_bins() - 1); // +inf passes all cuts
    }

    #[test]
    fn fit_ignores_non_finite_training_values() {
        let mut values: Vec<f64> = (0..50).map(f64::from).collect();
        values.push(f64::NAN);
        let d = EqualFrequencyDiscretizer::fit(&values, 2);
        assert_eq!(d.n_bins(), 2);
    }

    #[test]
    fn fit_cached_repeat_calls_agree() {
        let values: Vec<f64> = (0..40).map(|i| f64::from(i % 13)).collect();
        let first = fit_cached(&values, 4);
        let second = fit_cached(&values, 4);
        assert_eq!(first, second);
        assert_eq!(first, EqualFrequencyDiscretizer::fit(&values, 4));
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn fit_cached_rejects_empty_input() {
        let _ = fit_cached(&[], 3);
    }

    /// Cases per seeded property; a failing assertion names its seed.
    const CASES: u64 = 256;

    fn f64s(rng: &mut StdRng, len: std::ops::Range<usize>, bound: f64) -> Vec<f64> {
        let n = rng.random_range(len);
        (0..n).map(|_| rng.random_range(-bound..bound)).collect()
    }

    #[test]
    fn fit_cached_matches_fit() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = f64s(&mut rng, 1..120, 1e6);
            let n_bins = rng.random_range(1usize..10);
            assert_eq!(
                fit_cached(&values, n_bins),
                EqualFrequencyDiscretizer::fit(&values, n_bins),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bins_always_in_range() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = f64s(&mut rng, 1..200, 1e6);
            let probes = f64s(&mut rng, 1..50, 1e7);
            let n_bins = rng.random_range(1usize..10);
            let d = EqualFrequencyDiscretizer::fit(&values, n_bins);
            assert!(d.n_bins() >= 1 && d.n_bins() <= n_bins, "seed {seed}");
            for p in probes {
                assert!(d.bin(p) < d.n_bins(), "seed {seed}: probe {p}");
            }
        }
    }

    #[test]
    fn binning_is_monotone() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut probes = f64s(&mut rng, 2..100, 1e3);
            let n_bins = rng.random_range(2usize..8);
            let d = EqualFrequencyDiscretizer::fit(&probes, n_bins);
            probes.sort_by(f64::total_cmp);
            let mut last = 0usize;
            for p in probes {
                let b = d.bin(p);
                assert!(b >= last, "seed {seed}: bin decreased for increasing value");
                last = b;
            }
        }
    }

    #[test]
    fn cuts_are_strictly_ascending() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = f64s(&mut rng, 1..100, 1e3);
            let n_bins = rng.random_range(1usize..10);
            let d = EqualFrequencyDiscretizer::fit(&values, n_bins);
            for w in d.cuts().windows(2) {
                assert!(w[0] < w[1] + 1e-12, "seed {seed}: cuts {w:?}");
            }
        }
    }
}
