//! Information-theoretic quantities over discretized attributes: entropy,
//! information gain (the paper's attribute-relevance score, Section II-B.2)
//! and conditional mutual information (the TAN tree weight).
//!
//! Bin indices are small (equal-frequency discretization produces at most
//! a handful of bins), so all counting uses dense bin-indexed arrays:
//! no hashing on the hot path, and summation order is a fixed function of
//! the bin indices rather than of a hash map's iteration order.

/// Shannon entropy (base 2) of a discrete distribution given by counts.
///
/// Zero-count symbols contribute nothing; an empty or all-zero histogram
/// has entropy 0.
pub fn entropy_from_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy (base 2) of a boolean label sequence.
pub fn label_entropy(labels: &[bool]) -> f64 {
    let pos = labels.iter().filter(|&&l| l).count();
    entropy_from_counts(&[pos, labels.len() - pos])
}

/// Information gain `IG(C; A) = H(C) − H(C | A)` of a discretized
/// attribute `A` (bin indices) about the boolean class `C`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn information_gain(bins: &[usize], labels: &[bool]) -> f64 {
    assert_eq!(bins.len(), labels.len(), "attribute/label length mismatch");
    if bins.is_empty() {
        return 0.0;
    }
    let h_c = label_entropy(labels);
    // Dense (pos, neg) label counts per bin, indexed by bin.
    let k = bins.iter().copied().max().unwrap_or(0) + 1;
    let mut groups: Vec<(usize, usize)> = vec![(0, 0); k];
    for (&b, &l) in bins.iter().zip(labels) {
        if l {
            groups[b].0 += 1;
        } else {
            groups[b].1 += 1;
        }
    }
    let n = bins.len() as f64;
    let h_c_given_a: f64 = groups
        .iter()
        .filter(|&&(pos, neg)| pos + neg > 0)
        .map(|&(pos, neg)| {
            let w = (pos + neg) as f64 / n;
            w * entropy_from_counts(&[pos, neg])
        })
        .sum();
    (h_c - h_c_given_a).max(0.0)
}

/// Conditional mutual information `I(A; B | C)` between two discretized
/// attributes given the boolean class, in bits. This is the edge weight of
/// the Chow–Liu tree TAN builds.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn conditional_mutual_information(a: &[usize], b: &[usize], labels: &[bool]) -> f64 {
    assert_eq!(a.len(), b.len(), "attribute length mismatch");
    assert_eq!(a.len(), labels.len(), "attribute/label length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    // Dense joint and marginal counts, indexed by (class, bin).
    let ka = a.iter().copied().max().unwrap_or(0) + 1;
    let kb = b.iter().copied().max().unwrap_or(0) + 1;
    let mut joint: Vec<usize> = vec![0; 2 * ka * kb];
    let mut marg_a: Vec<usize> = vec![0; 2 * ka];
    let mut marg_b: Vec<usize> = vec![0; 2 * kb];
    let mut class_count = [0usize; 2];
    for ((&ai, &bi), &l) in a.iter().zip(b).zip(labels) {
        let c = usize::from(l);
        joint[(c * ka + ai) * kb + bi] += 1;
        marg_a[c * ka + ai] += 1;
        marg_b[c * kb + bi] += 1;
        class_count[c] += 1;
    }
    let n_f = n as f64;
    let mut cmi = 0.0;
    for (c, &cc) in class_count.iter().enumerate() {
        if cc == 0 {
            continue;
        }
        let p_c = cc as f64 / n_f;
        for ai in 0..ka {
            let ac = marg_a[c * ka + ai];
            if ac == 0 {
                continue;
            }
            let p_ac = ac as f64 / n_f;
            for bi in 0..kb {
                let count = joint[(c * ka + ai) * kb + bi];
                if count == 0 {
                    continue;
                }
                let p_abc = count as f64 / n_f;
                let p_bc = marg_b[c * kb + bi] as f64 / n_f;
                // I = Σ p(a,b,c) log2( p(a,b,c)·p(c) / (p(a,c)·p(b,c)) )
                cmi += p_abc * ((p_abc * p_c) / (p_ac * p_bc)).log2();
            }
        }
    }
    cmi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn entropy_of_fair_coin_is_one() {
        assert!((entropy_from_counts(&[5, 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_certainty_is_zero() {
        assert_eq!(entropy_from_counts(&[10, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[]), 0.0);
    }

    #[test]
    fn perfect_attribute_gains_full_entropy() {
        let bins = vec![0, 0, 0, 1, 1, 1];
        let labels = vec![false, false, false, true, true, true];
        let ig = information_gain(&bins, &labels);
        assert!((ig - 1.0).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_attribute_gains_nothing() {
        let bins = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let labels = vec![false, false, true, true, false, false, true, true];
        let ig = information_gain(&bins, &labels);
        assert!(ig.abs() < 1e-12);
    }

    #[test]
    fn cmi_zero_for_conditionally_independent() {
        // Given the class, A and B are both constant → CMI 0.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 0, 1, 1];
        let labels = vec![false, false, true, true];
        // A and B are copies, but they are constant *within* each class,
        // so conditioned on C there is no residual information.
        let cmi = conditional_mutual_information(&a, &b, &labels);
        assert!(cmi.abs() < 1e-12);
    }

    #[test]
    fn cmi_positive_for_dependent_within_class() {
        // Within each class, B copies A while A varies → strong CMI.
        let a = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let labels = vec![false, false, false, false, true, true, true, true];
        let cmi = conditional_mutual_information(&a, &b, &labels);
        assert!(cmi > 0.9, "cmi {cmi}");
    }

    #[test]
    fn label_entropy_matches_counts() {
        assert!((label_entropy(&[true, false]) - 1.0).abs() < 1e-12);
        assert_eq!(label_entropy(&[true, true]), 0.0);
        assert_eq!(label_entropy(&[]), 0.0);
    }

    /// Cases per seeded property; a failing assertion names its seed.
    const CASES: u64 = 256;

    fn bins(rng: &mut StdRng, n: usize, arity: usize) -> Vec<usize> {
        (0..n).map(|_| rng.random_range(0..arity)).collect()
    }

    fn labels(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.random()).collect()
    }

    #[test]
    fn information_gain_bounded_by_class_entropy() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..200);
            let bins = bins(&mut rng, n, 4);
            let labels = labels(&mut rng, n);
            let ig = information_gain(&bins, &labels);
            let h = label_entropy(&labels);
            assert!(ig >= 0.0, "seed {seed}: ig {ig}");
            assert!(ig <= h + 1e-9, "seed {seed}: ig {ig} > H(C) {h}");
        }
    }

    #[test]
    fn cmi_is_nonnegative_and_symmetric() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..200);
            let a = bins(&mut rng, n, 3);
            let b = bins(&mut rng, n, 3);
            let labels = labels(&mut rng, n);
            let ab = conditional_mutual_information(&a, &b, &labels);
            let ba = conditional_mutual_information(&b, &a, &labels);
            assert!(ab >= 0.0, "seed {seed}: cmi {ab}");
            assert!(
                (ab - ba).abs() < 1e-9,
                "seed {seed}: asymmetric: {ab} vs {ba}"
            );
        }
    }

    mod dense_counting_equivalence {
        //! The dense bin-indexed counters must agree with the original
        //! hash-map-grouped implementations (up to summation-order ulps).
        use super::super::*;
        use super::{bins, labels, CASES};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        /// The pre-optimization information gain: group label counts per
        /// bin in a hash map.
        fn reference_information_gain(bins: &[usize], labels: &[bool]) -> f64 {
            if bins.is_empty() {
                return 0.0;
            }
            let h_c = label_entropy(labels);
            let mut groups: HashMap<usize, (usize, usize)> = HashMap::new();
            for (&b, &l) in bins.iter().zip(labels) {
                let e = groups.entry(b).or_insert((0, 0));
                if l {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
            let n = bins.len() as f64;
            let h_c_given_a: f64 = groups
                .values()
                .map(|&(pos, neg)| {
                    let w = (pos + neg) as f64 / n;
                    w * entropy_from_counts(&[pos, neg])
                })
                .sum();
            (h_c - h_c_given_a).max(0.0)
        }

        /// The pre-optimization CMI: joint and marginal counts in hash
        /// maps, summing over the joint entries.
        fn reference_cmi(a: &[usize], b: &[usize], labels: &[bool]) -> f64 {
            let n = a.len();
            if n == 0 {
                return 0.0;
            }
            let mut joint: HashMap<(usize, usize, usize), usize> = HashMap::new();
            let mut marg_a: HashMap<(usize, usize), usize> = HashMap::new();
            let mut marg_b: HashMap<(usize, usize), usize> = HashMap::new();
            let mut class_count = [0usize; 2];
            for ((&ai, &bi), &l) in a.iter().zip(b).zip(labels) {
                let c = usize::from(l);
                *joint.entry((c, ai, bi)).or_insert(0) += 1;
                *marg_a.entry((c, ai)).or_insert(0) += 1;
                *marg_b.entry((c, bi)).or_insert(0) += 1;
                class_count[c] += 1;
            }
            let n_f = n as f64;
            let mut cmi = 0.0;
            for (&(c, ai, bi), &count) in &joint {
                let p_abc = count as f64 / n_f;
                let p_c = class_count[c] as f64 / n_f;
                let p_ac = marg_a[&(c, ai)] as f64 / n_f;
                let p_bc = marg_b[&(c, bi)] as f64 / n_f;
                cmi += p_abc * ((p_abc * p_c) / (p_ac * p_bc)).log2();
            }
            cmi.max(0.0)
        }

        #[test]
        fn information_gain_matches_hashmap_reference() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.random_range(0usize..200);
                let bins = bins(&mut rng, n, 6);
                let labels = labels(&mut rng, n);
                let dense = information_gain(&bins, &labels);
                let reference = reference_information_gain(&bins, &labels);
                assert!(
                    (dense - reference).abs() < 1e-9,
                    "seed {seed}: ig {dense} vs {reference}"
                );
            }
        }

        #[test]
        fn cmi_matches_hashmap_reference() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.random_range(0usize..200);
                let a = bins(&mut rng, n, 4);
                let b = bins(&mut rng, n, 4);
                let labels = labels(&mut rng, n);
                let dense = conditional_mutual_information(&a, &b, &labels);
                let reference = reference_cmi(&a, &b, &labels);
                assert!(
                    (dense - reference).abs() < 1e-9,
                    "seed {seed}: cmi {dense} vs {reference}"
                );
            }
        }
    }
}
