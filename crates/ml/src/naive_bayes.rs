//! Gaussian naive Bayes.
//!
//! Models each attribute as class-conditionally Gaussian and independent —
//! the strong independence assumption the paper credits for Naive Bayes
//! trailing TAN in accuracy (Section V-B, observation 3).

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::{FitError, Model};

/// Variance floor: counters can be exactly constant within a class, and a
/// zero variance would produce a degenerate density.
const VAR_FLOOR: f64 = 1e-9;

impl NaiveBayesModel {
    /// Fit class-conditional Gaussians and the class priors.
    ///
    /// # Errors
    ///
    /// Same as [`crate::Learner::fit`].
    pub fn fit(data: &Dataset) -> Result<NaiveBayesModel, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let classes = data.classes();
        if classes.len() < 2 {
            return Err(FitError::SingleClass(classes[0]));
        }
        let d = data.n_features();
        let mut stats = [ClassStats::new(d), ClassStats::new(d)];
        if d > 0 {
            // One contiguous row-major pass. The accumulation visits the
            // same values in the same instance order as iterating the
            // per-instance `Vec`s, so the fitted parameters are
            // bit-identical; only the memory layout changes.
            let x = data.to_matrix();
            for (row, inst) in x.row_iter().zip(data) {
                stats[usize::from(inst.label)].accumulate(row);
            }
        } else {
            for inst in data {
                stats[usize::from(inst.label)].count += 1;
            }
        }
        let n = data.len() as f64;
        let priors = [stats[0].count as f64 / n, stats[1].count as f64 / n];
        let params: [Vec<(f64, f64)>; 2] = [stats[0].finish(), stats[1].finish()];
        Ok(NaiveBayesModel {
            log_priors: [priors[0].ln(), priors[1].ln()],
            params,
        })
    }
}

#[derive(Debug)]
struct ClassStats {
    count: usize,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl ClassStats {
    fn new(d: usize) -> ClassStats {
        ClassStats {
            count: 0,
            sum: vec![0.0; d],
            sum_sq: vec![0.0; d],
        }
    }

    fn accumulate(&mut self, features: &[f64]) {
        self.count += 1;
        for (i, &v) in features.iter().enumerate() {
            self.sum[i] += v;
            self.sum_sq[i] += v * v;
        }
    }

    /// Per-feature `(mean, variance)` with a variance floor.
    fn finish(&self) -> Vec<(f64, f64)> {
        let n = self.count.max(1) as f64;
        self.sum
            .iter()
            .zip(&self.sum_sq)
            .map(|(&s, &sq)| {
                let mean = s / n;
                let var = (sq / n - mean * mean).max(VAR_FLOOR);
                (mean, var)
            })
            .collect()
    }
}

/// A fitted Gaussian naive Bayes classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayesModel {
    log_priors: [f64; 2],
    /// Per class, per feature: `(mean, variance)`.
    params: [Vec<(f64, f64)>; 2],
}

impl NaiveBayesModel {
    fn class_log_likelihood(&self, class: usize, features: &[f64]) -> f64 {
        let mut ll = self.log_priors[class];
        for (i, &v) in features.iter().enumerate() {
            let (mean, var) = self.params[class][i];
            // log N(v; mean, var), dropping the shared 2π constant.
            ll += -0.5 * var.ln() - (v - mean).powi(2) / (2.0 * var);
        }
        ll
    }
}

impl Model for NaiveBayesModel {
    fn decision(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dimension(), "feature width mismatch");
        self.class_log_likelihood(1, features) - self.class_log_likelihood(0, features)
    }

    fn dimension(&self) -> usize {
        self.params[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
        // Box–Muller.
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    fn two_blob_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..200 {
            data.push(
                vec![gaussian(&mut rng, 0.0, 1.0), gaussian(&mut rng, 0.0, 1.0)],
                false,
            );
            data.push(
                vec![gaussian(&mut rng, 4.0, 1.0), gaussian(&mut rng, 4.0, 1.0)],
                true,
            );
        }
        data
    }

    #[test]
    fn separates_gaussian_blobs() {
        let data = two_blob_dataset(1);
        let model = NaiveBayesModel::fit(&data).unwrap();
        assert!(model.predict(&[4.0, 4.0]));
        assert!(!model.predict(&[0.0, 0.0]));
    }

    #[test]
    fn decision_sign_flips_across_midpoint() {
        let data = two_blob_dataset(2);
        let model = NaiveBayesModel::fit(&data).unwrap();
        assert!(model.decision(&[-1.0, -1.0]) < 0.0);
        assert!(model.decision(&[5.0, 5.0]) > 0.0);
    }

    #[test]
    fn respects_class_prior() {
        // 90% negative: an ambiguous point should lean negative.
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = Dataset::new(vec!["x".into()]);
        for _ in 0..180 {
            data.push(vec![gaussian(&mut rng, 0.0, 2.0)], false);
        }
        for _ in 0..20 {
            data.push(vec![gaussian(&mut rng, 1.0, 2.0)], true);
        }
        let model = NaiveBayesModel::fit(&data).unwrap();
        assert!(!model.predict(&[0.5]));
    }

    #[test]
    fn constant_feature_within_class_does_not_crash() {
        let mut data = Dataset::new(vec!["x".into(), "k".into()]);
        for i in 0..40 {
            data.push(vec![f64::from(i), 3.0], i >= 20);
        }
        let model = NaiveBayesModel::fit(&data).unwrap();
        assert!(model.predict(&[35.0, 3.0]));
        assert!(!model.predict(&[1.0, 3.0]));
    }

    #[test]
    fn extreme_inputs_stay_finite() {
        let data = two_blob_dataset(4);
        let model = NaiveBayesModel::fit(&data).unwrap();
        assert!(model.decision(&[1e9, -1e9]).is_finite());
    }

    mod matrix_equivalence {
        //! The contiguous-matrix fit must produce bit-identical parameters
        //! and log-likelihoods to the original `Vec<Vec<f64>>` row path.
        use super::super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// The pre-matrix fit path: accumulate per-instance rows directly.
        fn reference_model(rows: &[Vec<f64>], labels: &[bool]) -> NaiveBayesModel {
            let d = rows[0].len();
            let mut stats = [ClassStats::new(d), ClassStats::new(d)];
            for (r, &l) in rows.iter().zip(labels) {
                stats[usize::from(l)].accumulate(r);
            }
            let n = rows.len() as f64;
            NaiveBayesModel {
                log_priors: [
                    (stats[0].count as f64 / n).ln(),
                    (stats[1].count as f64 / n).ln(),
                ],
                params: [stats[0].finish(), stats[1].finish()],
            }
        }

        #[test]
        fn matrix_fit_matches_vec_of_vec_reference() {
            for seed in 0..256u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let cols = rng.random_range(1usize..5);
                let n = rng.random_range(2usize..30);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..cols)
                            .map(|_| rng.random_range(-100.0f64..100.0))
                            .collect()
                    })
                    .collect();
                let mut labels: Vec<bool> = (0..n).map(|_| rng.random()).collect();
                // Guarantee both classes are present.
                labels[0] = false;
                labels[n - 1] = true;
                let names = (0..cols).map(|i| format!("f{i}")).collect();
                let mut data = Dataset::new(names);
                for (r, &l) in rows.iter().zip(&labels) {
                    data.push(r.clone(), l);
                }
                let model =
                    NaiveBayesModel::fit(&data).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                let reference = reference_model(&rows, &labels);
                assert_eq!(&model.log_priors, &reference.log_priors, "seed {seed}");
                assert_eq!(&model.params, &reference.params, "seed {seed}");
                for probe in rows.iter().take(3) {
                    assert_eq!(
                        model.decision(probe),
                        reference.decision(probe),
                        "seed {seed}"
                    );
                }
            }
        }
    }
}
