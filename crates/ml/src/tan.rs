//! Tree-augmented naive Bayes (TAN).
//!
//! TAN relaxes naive Bayes' independence assumption by allowing each
//! attribute one extra parent beside the class, chosen by building a
//! maximum-weight spanning tree over conditional mutual information
//! (Friedman et al.'s Chow–Liu construction). The paper finds TAN the best
//! accuracy/cost compromise among the four learners (Section V-B).

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::discretize::{fit_cached, EqualFrequencyDiscretizer};
use crate::info::conditional_mutual_information;
use crate::{FitError, Model};

/// Equal-frequency bins per attribute: enough resolution for counter
/// distributions while keeping conditional tables well populated at the
/// paper's training-set sizes.
const N_BINS: usize = 5;

impl TanModel {
    /// Fit the tree and its tables over attributes discretized into five
    /// equal-frequency bins.
    ///
    /// # Errors
    ///
    /// Same as [`crate::Learner::fit`].
    pub fn fit(data: &Dataset) -> Result<TanModel, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let classes = data.classes();
        if classes.len() < 2 {
            return Err(FitError::SingleClass(classes[0]));
        }
        let d = data.n_features();
        let labels: Vec<bool> = data.iter().map(|i| i.label).collect();

        // 1. Discretize each column. Bin-edge fits are memoized: forward
        // selection refits identical fold columns for every candidate
        // attribute set, and each column is extracted once and reused for
        // both the fit and the binning pass.
        let mut discretizers: Vec<EqualFrequencyDiscretizer> = Vec::with_capacity(d);
        let mut bins: Vec<Vec<usize>> = Vec::with_capacity(d);
        for c in 0..d {
            let col = data.column(c);
            let disc = fit_cached(&col, N_BINS);
            bins.push(col.iter().map(|&v| disc.bin(v)).collect());
            discretizers.push(disc);
        }

        // 2. Chow–Liu maximum spanning tree over CMI weights (Prim).
        let parents = chow_liu_parents(&bins, &labels);

        // 3. Conditional probability tables with Laplace smoothing.
        let n_pos = labels.iter().filter(|&&l| l).count();
        let n = labels.len();
        // Laplace-smoothed class prior.
        let log_prior = [
            (((n - n_pos) as f64 + 1.0) / (n as f64 + 2.0)).ln(),
            ((n_pos as f64 + 1.0) / (n as f64 + 2.0)).ln(),
        ];
        let mut tables = Vec::with_capacity(d);
        for i in 0..d {
            let k_i = discretizers[i].n_bins();
            let k_p = parents[i].map_or(1, |p| discretizers[p].n_bins());
            // counts[class][parent_bin][own_bin]
            let mut counts = vec![vec![vec![1.0f64; k_i]; k_p]; 2]; // Laplace prior 1
            for (row, &label) in labels.iter().enumerate() {
                let c = usize::from(label);
                let pb = parents[i].map_or(0, |p| bins[p][row]);
                counts[c][pb][bins[i][row]] += 1.0;
            }
            // Normalize to log-probabilities.
            for class_counts in &mut counts {
                for parent_slice in class_counts.iter_mut() {
                    let total: f64 = parent_slice.iter().sum();
                    for v in parent_slice.iter_mut() {
                        *v = (*v / total).ln();
                    }
                }
            }
            tables.push(Cpt {
                parent: parents[i],
                log_prob: counts,
            });
        }

        Ok(TanModel {
            discretizers,
            log_prior,
            tables,
        })
    }
}

/// Compute each attribute's tree parent via Prim's algorithm on the
/// complete CMI graph. Attribute 0 is the root (`None` parent); with a
/// single attribute the result is trivially `[None]`.
fn chow_liu_parents(bins: &[Vec<usize>], labels: &[bool]) -> Vec<Option<usize>> {
    let d = bins.len();
    let mut parents: Vec<Option<usize>> = vec![None; d];
    if d <= 1 {
        return parents;
    }
    // Pairwise CMI (symmetric).
    let mut weight = vec![vec![0.0f64; d]; d];
    for i in 0..d {
        for j in (i + 1)..d {
            let w = conditional_mutual_information(&bins[i], &bins[j], labels);
            weight[i][j] = w;
            weight[j][i] = w;
        }
    }
    // Prim from node 0, always taking the heaviest crossing edge.
    let mut in_tree = vec![false; d];
    in_tree[0] = true;
    let mut best_edge: Vec<(f64, usize)> = (0..d).map(|i| (weight[0][i], 0)).collect();
    for _ in 1..d {
        let mut next = usize::MAX;
        let mut next_w = f64::NEG_INFINITY;
        for i in 0..d {
            if !in_tree[i] && best_edge[i].0 > next_w {
                next_w = best_edge[i].0;
                next = i;
            }
        }
        debug_assert_ne!(next, usize::MAX);
        in_tree[next] = true;
        parents[next] = Some(best_edge[next].1);
        for i in 0..d {
            if !in_tree[i] && weight[next][i] > best_edge[i].0 {
                best_edge[i] = (weight[next][i], next);
            }
        }
    }
    parents
}

/// Conditional probability table for one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Cpt {
    parent: Option<usize>,
    /// `log_prob[class][parent_bin][own_bin]`.
    log_prob: Vec<Vec<Vec<f64>>>,
}

/// A fitted TAN classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TanModel {
    discretizers: Vec<EqualFrequencyDiscretizer>,
    log_prior: [f64; 2],
    tables: Vec<Cpt>,
}

impl TanModel {
    fn class_log_posterior(&self, class: usize, bins: &[usize]) -> f64 {
        let mut lp = self.log_prior[class];
        for (i, cpt) in self.tables.iter().enumerate() {
            let pb = cpt.parent.map_or(0, |p| bins[p]);
            lp += cpt.log_prob[class][pb][bins[i]];
        }
        lp
    }
}

impl Model for TanModel {
    fn decision(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dimension(), "feature width mismatch");
        let bins: Vec<usize> = features
            .iter()
            .zip(&self.discretizers)
            .map(|(&v, d)| d.bin(v))
            .collect();
        self.class_log_posterior(1, &bins) - self.class_log_posterior(0, &bins)
    }

    fn dimension(&self) -> usize {
        self.discretizers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn separates_threshold_data() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = f64::from(i);
            data.push(vec![x], x >= 50.0);
        }
        let model = TanModel::fit(&data).unwrap();
        assert!(model.predict(&[90.0]));
        assert!(!model.predict(&[5.0]));
    }

    #[test]
    fn captures_attribute_dependence_xor_like() {
        // Label = (a > 0.5) XOR (b > 0.5) is not naive-Bayes separable on
        // marginals alone, but with two attributes TAN links b to a and the
        // joint CPT captures the interaction.
        let mut rng = StdRng::seed_from_u64(11);
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for _ in 0..600 {
            let a: f64 = rng.random();
            let b: f64 = rng.random();
            data.push(vec![a, b], (a > 0.5) != (b > 0.5));
        }
        let model = TanModel::fit(&data).unwrap();
        let mut correct = 0;
        let cases = [
            (0.2, 0.2, false),
            (0.8, 0.8, false),
            (0.2, 0.8, true),
            (0.8, 0.2, true),
        ];
        for (a, b, want) in cases {
            if model.predict(&[a, b]) == want {
                correct += 1;
            }
        }
        assert_eq!(correct, 4, "TAN should solve XOR with a tree edge");
    }

    #[test]
    fn chow_liu_builds_spanning_tree() {
        let bins = vec![vec![0, 1, 0, 1], vec![0, 1, 0, 1], vec![1, 0, 1, 0]];
        let labels = vec![false, false, true, true];
        let parents = chow_liu_parents(&bins, &labels);
        assert_eq!(parents.len(), 3);
        assert_eq!(parents[0], None, "root has no parent");
        // Every non-root has exactly one parent and the graph is acyclic by
        // construction (parents point toward already-inserted nodes).
        for (i, p) in parents.iter().enumerate().skip(1) {
            let p = p.expect("non-root must have a parent");
            assert_ne!(p, i);
            assert!(p < 3);
        }
    }

    #[test]
    fn single_attribute_degenerates_to_naive_bayes() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..60 {
            data.push(vec![f64::from(i % 30)], i % 30 >= 15);
        }
        let model = TanModel::fit(&data).unwrap();
        assert!(model.predict(&[29.0]));
        assert!(!model.predict(&[1.0]));
    }

    #[test]
    fn unseen_extreme_values_clamp_to_outer_bins() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            data.push(vec![f64::from(i)], i >= 25);
        }
        let model = TanModel::fit(&data).unwrap();
        assert!(model.predict(&[1e9]));
        assert!(!model.predict(&[-1e9]));
        assert!(model.decision(&[f64::NAN]).is_finite());
    }
}
