//! Support vector machine trained with sequential minimal optimization
//! (Platt's SMO, simplified pair-selection variant).
//!
//! Features are standardized before training. The configuration
//! (`C = 1`, RBF kernel with `γ = 1/d`) mirrors the WEKA SMO defaults the
//! paper used. SMO's repeated full passes over the α vector make this by
//! far the costliest learner — reproducing the paper's observation that
//! SVM synopsis construction takes ~20–170× longer than the others.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::data::{Dataset, Scaler};
use crate::linalg::{dot, squared_distance, Matrix};
use crate::{FitError, Model};

/// The soft-margin parameter C.
const C: f64 = 1.0;

/// KKT violation tolerance.
const TOLERANCE: f64 = 1e-3;

/// Consecutive passes without an α change that end training.
const MAX_PASSES: usize = 5;

/// Seed of SMO's random second-index choice.
const SEED: u64 = 0x5eed;

/// `K(x, z) = exp(−γ ‖x − z‖²)`.
fn rbf(gamma: f64, a: &[f64], b: &[f64]) -> f64 {
    (-gamma * squared_distance(a, b)).exp()
}

/// Fill the dense `n × n` training RBF kernel matrix from contiguous
/// feature rows, deriving each squared distance from cached squared norms
/// and one dot product (`‖xᵢ − xⱼ‖² = ‖xᵢ‖² + ‖xⱼ‖² − 2·xᵢ·xⱼ`), so each
/// row pair is walked exactly once over contiguous memory.
pub(crate) fn kernel_matrix(gamma: f64, x: &Matrix) -> Vec<f64> {
    let n = x.rows();
    let mut k = vec![0.0f64; n * n];
    let norms: Vec<f64> = (0..n).map(|i| dot(x.row(i), x.row(i))).collect();
    for i in 0..n {
        let ri = x.row(i);
        for j in i..n {
            let d2 = (norms[i] + norms[j] - 2.0 * dot(ri, x.row(j))).max(0.0);
            let v = (-gamma * d2).exp();
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    k
}

impl SvmModel {
    /// Fit the soft-margin SVM by SMO: `C = 1`, RBF kernel with
    /// `γ = 1/d`.
    ///
    /// # Errors
    ///
    /// Same as [`crate::Learner::fit`].
    pub fn fit(data: &Dataset) -> Result<SvmModel, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let classes = data.classes();
        if classes.len() < 2 {
            return Err(FitError::SingleClass(classes[0]));
        }
        let scaler = Scaler::fit(data);
        let x = scaler.transform_matrix(data);
        let y: Vec<f64> = data
            .iter()
            .map(|i| if i.label { 1.0 } else { -1.0 })
            .collect();
        let n = x.rows();
        let d = data.n_features();
        let gamma = 1.0 / d as f64;

        // Precompute the kernel matrix; training sets here are at most a
        // few thousand instances, so O(n²) memory is acceptable.
        let k = kernel_matrix(gamma, &x);
        let kij = |i: usize, j: usize| k[i * n + j];

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(SEED);
        let f = |alpha: &[f64], b: f64, idx: usize| -> f64 {
            let mut s = b;
            for t in 0..n {
                if alpha[t] != 0.0 {
                    s += alpha[t] * y[t] * kij(t, idx);
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut iters = 0usize;
        let max_iters = 200 * n.max(100);
        while passes < MAX_PASSES && iters < max_iters {
            iters += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = f(&alpha, b, i) - y[i];
                let r_i = e_i * y[i];
                if (r_i < -TOLERANCE && alpha[i] < C) || (r_i > TOLERANCE && alpha[i] > 0.0) {
                    // Pick j ≠ i at random (simplified heuristic).
                    let mut j = rng.random_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    let e_j = f(&alpha, b, j) - y[j];
                    let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
                    let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                        (
                            (alpha[j] - alpha[i]).max(0.0),
                            (C + alpha[j] - alpha[i]).min(C),
                        )
                    } else {
                        (
                            (alpha[i] + alpha[j] - C).max(0.0),
                            (alpha[i] + alpha[j]).min(C),
                        )
                    };
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                    if eta >= 0.0 {
                        continue;
                    }
                    let mut a_j = a_j_old - y[j] * (e_i - e_j) / eta;
                    a_j = a_j.clamp(lo, hi);
                    if (a_j - a_j_old).abs() < 1e-5 {
                        continue;
                    }
                    let a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j);
                    alpha[i] = a_i;
                    alpha[j] = a_j;
                    let b1 = b
                        - e_i
                        - y[i] * (a_i - a_i_old) * kij(i, i)
                        - y[j] * (a_j - a_j_old) * kij(i, j);
                    let b2 = b
                        - e_j
                        - y[i] * (a_i - a_i_old) * kij(i, j)
                        - y[j] * (a_j - a_j_old) * kij(j, j);
                    b = if a_i > 0.0 && a_i < C {
                        b1
                    } else if a_j > 0.0 && a_j < C {
                        b2
                    } else {
                        (b1 + b2) / 2.0
                    };
                    changed += 1;
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only support vectors.
        let mut support = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support.push(SupportVector {
                    x: x.row(i).to_vec(),
                    coef: alpha[i] * y[i],
                });
            }
        }
        if support.is_empty() {
            return Err(FitError::Numeric("SMO produced no support vectors".into()));
        }
        Ok(SvmModel {
            scaler,
            gamma,
            bias: b,
            support,
            dim: d,
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SupportVector {
    x: Vec<f64>,
    /// `α_i · y_i`.
    coef: f64,
}

/// A fitted SVM classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    scaler: Scaler,
    gamma: f64,
    bias: f64,
    support: Vec<SupportVector>,
    dim: usize,
}

impl Model for SvmModel {
    fn decision(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dim, "feature width mismatch");
        let z = self.scaler.transform(features);
        let mut s = self.bias;
        for sv in &self.support {
            s += sv.coef * rbf(self.gamma, &sv.x, &z);
        }
        s
    }

    fn dimension(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for _ in 0..n {
            let a: f64 = rng.random::<f64>() * 10.0;
            let b: f64 = rng.random::<f64>() * 10.0;
            data.push(vec![a, b], a + b > 10.0);
        }
        data
    }

    #[test]
    fn rbf_kernel_separates_ring_data() {
        // Inner disk negative, outer ring positive — not linearly separable.
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..300 {
            let angle = rng.random::<f64>() * std::f64::consts::TAU;
            let inner: bool = rng.random();
            let r = if inner {
                rng.random::<f64>() * 1.0
            } else {
                2.0 + rng.random::<f64>()
            };
            data.push(vec![r * angle.cos(), r * angle.sin()], !inner);
        }
        let model = SvmModel::fit(&data).unwrap();
        assert!(model.predict(&[2.5, 0.0]));
        assert!(model.predict(&[0.0, -2.5]));
        assert!(!model.predict(&[0.1, 0.1]));
    }

    #[test]
    fn refitting_is_deterministic() {
        let data = linear_dataset(7, 80);
        let m1 = SvmModel::fit(&data).unwrap();
        let m2 = SvmModel::fit(&data).unwrap();
        for probe in [[0.0, 0.0], [5.0, 5.1], [10.0, 10.0]] {
            assert_eq!(m1.decision(&probe), m2.decision(&probe));
        }
    }

    #[test]
    fn decision_sign_matches_predict() {
        let data = linear_dataset(8, 100);
        let model = SvmModel::fit(&data).unwrap();
        for probe in [[1.0, 2.0], [8.0, 9.0], [5.0, 5.0]] {
            assert_eq!(model.predict(&probe), model.decision(&probe) > 0.0);
        }
    }

    #[test]
    fn tolerates_label_noise() {
        let mut data = linear_dataset(9, 200);
        // Flip a few labels.
        let mut noisy = Dataset::new(data.feature_names().to_vec());
        for (i, inst) in data.iter().enumerate() {
            let label = if i % 29 == 0 { !inst.label } else { inst.label };
            noisy.push(inst.features.clone(), label);
        }
        data = noisy;
        let model = SvmModel::fit(&data).unwrap();
        assert!(model.predict(&[9.5, 9.5]));
        assert!(!model.predict(&[0.5, 0.5]));
    }

    mod kernel_equivalence {
        //! The cached-dot-product kernel fill must agree with the per-pair
        //! `rbf` over `Vec<Vec<f64>>` rows.
        use super::super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn reference_kernel(gamma: f64, rows: &[Vec<f64>]) -> Vec<f64> {
            let n = rows.len();
            let mut k = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    k[i * n + j] = rbf(gamma, &rows[i], &rows[j]);
                }
            }
            k
        }

        fn rows(rng: &mut StdRng) -> Vec<Vec<f64>> {
            let cols = rng.random_range(1usize..6);
            let n = rng.random_range(1usize..12);
            (0..n)
                .map(|_| {
                    (0..cols)
                        .map(|_| rng.random_range(-50.0f64..50.0))
                        .collect()
                })
                .collect()
        }

        #[test]
        fn rbf_kernel_rows_match_reference() {
            for seed in 0..256u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let rows = rows(&mut rng);
                let gamma = rng.random_range(0.01f64..2.0);
                let x = Matrix::from_rows(&rows);
                let fast = kernel_matrix(gamma, &x);
                let slow = reference_kernel(gamma, &rows);
                for (&f, &s) in fast.iter().zip(&slow) {
                    assert!((f - s).abs() <= 1e-9, "seed {seed}: rbf entry {f} vs {s}");
                }
            }
        }

        #[test]
        fn rbf_diagonal_is_exactly_one() {
            let x = Matrix::from_rows(&[vec![1.5, -2.0], vec![0.25, 7.0], vec![3.0, 3.0]]);
            let k = kernel_matrix(0.5, &x);
            for i in 0..3 {
                assert_eq!(k[i * 3 + i], 1.0);
            }
        }
    }
}
