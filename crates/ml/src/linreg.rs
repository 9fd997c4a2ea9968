//! Linear regression on the class indicator, with a ridge term.
//!
//! The paper's LR synopsis regresses the {0,1} class variable on the
//! selected metrics and thresholds the fitted value at 1/2. A small ridge
//! term keeps the normal equations well conditioned when counters are
//! nearly collinear (as hardware counters often are); this mirrors WEKA's
//! `LinearRegression -R 1e-8`.

use serde::{Deserialize, Serialize};

use crate::data::{Dataset, Scaler};
use crate::linalg::{dot, Matrix};
use crate::{FitError, Model};

/// The ridge coefficient, WEKA's default.
const RIDGE: f64 = 1e-8;

impl LinearModel {
    /// Fit the regression on the class indicator with WEKA's ridge, 1e-8.
    ///
    /// # Errors
    ///
    /// Same as [`crate::Learner::fit`].
    pub fn fit(data: &Dataset) -> Result<LinearModel, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let classes = data.classes();
        if classes.len() < 2 {
            return Err(FitError::SingleClass(classes[0]));
        }
        let scaler = Scaler::fit(data);
        let scaled = scaler.transform_dataset(data);
        let d = data.n_features();

        // Design matrix with an intercept column.
        let rows: Vec<Vec<f64>> = scaled
            .iter()
            .map(|inst| {
                let mut r = Vec::with_capacity(d + 1);
                r.push(1.0);
                r.extend_from_slice(&inst.features);
                r
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = scaled
            .iter()
            .map(|i| if i.label { 1.0 } else { 0.0 })
            .collect();

        // (XᵀX + λI) w = Xᵀy ; do not penalize the intercept.
        let mut gram = x.gram();
        for i in 1..=d {
            gram[(i, i)] += RIDGE * x.rows() as f64;
        }
        let xty = x.transpose_mul_vec(&y);
        let weights = match gram.solve(&xty) {
            Ok(w) => w,
            Err(_) => {
                // Escalate the ridge until the system is solvable; counters
                // can be exactly collinear in degenerate workloads.
                let mut lambda = RIDGE * 1e4;
                loop {
                    let mut g = x.gram();
                    for i in 1..=d {
                        g[(i, i)] += lambda * x.rows() as f64;
                    }
                    match g.solve(&xty) {
                        Ok(w) => break w,
                        Err(e) if lambda < 1e6 => {
                            lambda *= 1e3;
                            let _ = e;
                        }
                        Err(e) => return Err(FitError::Numeric(e.to_string())),
                    }
                }
            }
        };
        Ok(LinearModel { scaler, weights })
    }
}

/// A fitted linear-regression classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    scaler: Scaler,
    /// `weights[0]` is the intercept.
    weights: Vec<f64>,
}

impl Model for LinearModel {
    fn decision(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dimension(), "feature width mismatch");
        let z = self.scaler.transform(features);
        // Fitted indicator value minus the 1/2 threshold.
        self.weights[0] + dot(&self.weights[1..], &z) - 0.5
    }

    fn dimension(&self) -> usize {
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_linear_data() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = f64::from(i) * 0.1;
            data.push(vec![x], x > 5.0);
        }
        let model = LinearModel::fit(&data).unwrap();
        assert!(model.predict(&[9.0]));
        assert!(!model.predict(&[1.0]));
        // Decision midpoint should be near the boundary.
        assert!(model.decision(&[5.0]).abs() < 0.3);
    }

    #[test]
    fn collinear_features_still_fit() {
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..50 {
            let a = f64::from(i);
            data.push(vec![a, 2.0 * a], a > 25.0); // b = 2a exactly
        }
        let model = LinearModel::fit(&data).unwrap();
        assert!(model.predict(&[40.0, 80.0]));
        assert!(!model.predict(&[5.0, 10.0]));
    }

    #[test]
    fn constant_feature_is_harmless() {
        let mut data = Dataset::new(vec!["x".into(), "k".into()]);
        for i in 0..40 {
            data.push(vec![f64::from(i), 7.0], i >= 20);
        }
        let model = LinearModel::fit(&data).unwrap();
        assert!(model.predict(&[35.0, 7.0]));
        assert!(!model.predict(&[2.0, 7.0]));
    }

    #[test]
    fn decision_is_monotone_in_informative_feature() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..60 {
            data.push(vec![f64::from(i)], i > 30);
        }
        let model = LinearModel::fit(&data).unwrap();
        assert!(model.decision(&[50.0]) > model.decision(&[10.0]));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            data.push(vec![f64::from(i)], i >= 5);
        }
        let model = LinearModel::fit(&data).unwrap();
        let _ = model.predict(&[1.0, 2.0]);
    }
}
