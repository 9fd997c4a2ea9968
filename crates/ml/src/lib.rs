//! From-scratch machine learning for the webcap capacity-measurement system.
//!
//! The paper builds *performance synopses* — binary classifiers mapping a
//! vector of low-level performance metrics to a high-level system state
//! (`underload` / `overload`) — with four learners adapted from WEKA:
//! linear regression, naive Bayes, tree-augmented naive Bayes (TAN), and a
//! support vector machine. This crate reimplements those learners, plus the
//! supporting machinery the paper's protocol requires:
//!
//! * [`Dataset`] / [`Instance`] — labeled feature vectors ([`data`]).
//! * [`Learner`] / [`Model`] — the common fit/predict interface.
//! * [`Algorithm`] — enumerates the four paper learners uniformly.
//! * Information-theoretic attribute scoring ([`info`]) and forward
//!   attribute selection validated by cross validation ([`select`]).
//! * Stratified k-fold cross validation ([`cv`]) and balanced accuracy
//!   ([`metrics`]), the paper's evaluation metric.
//!
//! # Example
//!
//! ```
//! use webcap_ml::{Algorithm, Dataset, Model};
//!
//! # fn main() -> Result<(), webcap_ml::FitError> {
//! // A linearly separable toy problem: x0 > 1.0 means overload.
//! let mut data = Dataset::new(vec!["x0".into(), "x1".into()]);
//! for i in 0..40 {
//!     let x0 = i as f64 * 0.05;
//!     data.push(vec![x0, 0.3], x0 > 1.0);
//! }
//! let model = Algorithm::Tan.fit(&data)?;
//! assert!(model.predict(&[1.8, 0.3]));
//! assert!(!model.predict(&[0.2, 0.3]));
//! # Ok(())
//! # }
//! ```

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod cv;
pub mod data;
pub mod discretize;
pub mod info;
pub mod linalg;
pub mod linreg;
pub mod metrics;
pub mod naive_bayes;
pub mod select;
pub mod svm;
pub mod tan;

use std::fmt;

pub use cv::{cross_validate, fold_assignment, CvOutcome};
pub use data::{Dataset, Instance};
pub use discretize::EqualFrequencyDiscretizer;
pub use linreg::LinearModel;
pub use metrics::{balanced_accuracy, ConfusionMatrix};
pub use naive_bayes::NaiveBayesModel;
pub use select::{forward_select, SelectionReport};
pub use svm::SvmModel;
pub use tan::TanModel;

/// Error returned when a learner cannot be fitted to a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The training set was empty.
    EmptyDataset,
    /// The training set contained only one class; a discriminative model
    /// cannot be induced. The contained value is the single class present.
    SingleClass(bool),
    /// A numeric failure occurred (singular system, non-finite values).
    Numeric(String),
    /// Instances have inconsistent dimensionality.
    DimensionMismatch {
        /// Expected number of features.
        expected: usize,
        /// Number of features found.
        found: usize,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset => write!(f, "training set is empty"),
            FitError::SingleClass(c) => {
                write!(f, "training set contains a single class ({c})")
            }
            FitError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
            FitError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected} features, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted binary classifier.
///
/// Models are immutable once fitted; prediction never fails (out-of-range
/// inputs are clamped or extrapolated by each learner as documented).
pub trait Model: Send + Sync + fmt::Debug {
    /// Predict the class of a feature vector (`true` = overload).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training dimensionality.
    fn predict(&self, features: &[f64]) -> bool {
        self.decision(features) > 0.0
    }

    /// A signed decision value; positive means the positive (overload)
    /// class, and larger magnitudes mean higher confidence.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training dimensionality.
    fn decision(&self, features: &[f64]) -> f64;

    /// Number of features the model was trained on.
    fn dimension(&self) -> usize;
}

/// A learning algorithm: fits a [`TrainedModel`] from a [`Dataset`].
///
/// Learners are stateless, hence `Send + Sync`. [`Algorithm`] is the one
/// learner of the library; the trait is the seam
/// [`forward_select`] and [`cross_validate`] fit through.
pub trait Learner: Send + Sync {
    /// Fit a model to the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if the dataset is empty, single-class, or
    /// numerically degenerate.
    fn fit(&self, data: &Dataset) -> Result<TrainedModel, FitError>;
}

/// The four learners evaluated in the paper, as a uniform handle.
///
/// Each fits at the WEKA defaults the paper used, fixed in its module:
/// ridge 1e-8 for linear regression, Gaussian class-conditional densities
/// for naive Bayes, five equal-frequency bins for TAN, and `C = 1` with an
/// RBF kernel of `γ = 1/d` for the SVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Least-squares linear regression on the {0,1} class indicator with a
    /// small ridge term; classify by thresholding at 1/2.
    LinearRegression,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Tree-augmented naive Bayes over equal-frequency-discretized
    /// attributes (Chow–Liu tree on conditional mutual information).
    Tan,
    /// Support vector machine trained with sequential minimal optimization.
    Svm,
}

impl Algorithm {
    /// All four algorithms in the order the paper's tables list them:
    /// LR, Naive, SVM, TAN.
    pub const PAPER_ORDER: [Algorithm; 4] = [
        Algorithm::LinearRegression,
        Algorithm::NaiveBayes,
        Algorithm::Svm,
        Algorithm::Tan,
    ];

    /// The algorithm as a [`Learner`] handle.
    pub fn learner(&self) -> Box<dyn Learner> {
        Box::new(*self)
    }

    /// Fit this algorithm's model.
    ///
    /// # Errors
    ///
    /// Propagates the model's [`FitError`].
    pub fn fit(&self, data: &Dataset) -> Result<TrainedModel, FitError> {
        Ok(match self {
            Algorithm::LinearRegression => TrainedModel::Linear(LinearModel::fit(data)?),
            Algorithm::NaiveBayes => TrainedModel::NaiveBayes(NaiveBayesModel::fit(data)?),
            Algorithm::Tan => TrainedModel::Tan(TanModel::fit(data)?),
            Algorithm::Svm => TrainedModel::Svm(SvmModel::fit(data)?),
        })
    }

    /// The short name used in the paper's tables.
    pub fn paper_name(&self) -> &'static str {
        match self {
            Algorithm::LinearRegression => "LR",
            Algorithm::NaiveBayes => "Naive",
            Algorithm::Tan => "TAN",
            Algorithm::Svm => "SVM",
        }
    }
}

impl Learner for Algorithm {
    fn fit(&self, data: &Dataset) -> Result<TrainedModel, FitError> {
        Algorithm::fit(self, data)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A fitted model as a concrete, serializable value: what every
/// [`Learner`] returns. Train once, serialize with serde, and deploy the
/// deserialized model online.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TrainedModel {
    /// Ridge linear regression.
    Linear(LinearModel),
    /// Gaussian naive Bayes.
    NaiveBayes(NaiveBayesModel),
    /// Tree-augmented naive Bayes.
    Tan(TanModel),
    /// SMO support vector machine.
    Svm(SvmModel),
}

impl TrainedModel {
    /// Which algorithm produced this model.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            TrainedModel::Linear(_) => Algorithm::LinearRegression,
            TrainedModel::NaiveBayes(_) => Algorithm::NaiveBayes,
            TrainedModel::Tan(_) => Algorithm::Tan,
            TrainedModel::Svm(_) => Algorithm::Svm,
        }
    }

    fn inner(&self) -> &dyn Model {
        match self {
            TrainedModel::Linear(m) => m,
            TrainedModel::NaiveBayes(m) => m,
            TrainedModel::Tan(m) => m,
            TrainedModel::Svm(m) => m,
        }
    }
}

impl Model for TrainedModel {
    fn decision(&self, features: &[f64]) -> f64 {
        self.inner().decision(features)
    }

    fn dimension(&self) -> usize {
        self.inner().dimension()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..50 {
            let a = f64::from(i) / 10.0;
            let b = 5.0 - f64::from(i) / 10.0;
            data.push(vec![a, b], a > 2.5);
        }
        data
    }

    #[test]
    fn all_algorithms_fit_and_predict_separable_data() {
        let data = toy_dataset();
        for alg in Algorithm::PAPER_ORDER {
            let model = alg.fit(&data).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(model.predict(&[4.5, 0.5]), "{alg} misclassified overload");
            assert!(!model.predict(&[0.5, 4.5]), "{alg} misclassified underload");
            assert_eq!(model.dimension(), 2);
        }
    }

    #[test]
    fn fit_error_on_empty() {
        let data = Dataset::new(vec!["a".into()]);
        for alg in Algorithm::PAPER_ORDER {
            assert_eq!(alg.fit(&data).err(), Some(FitError::EmptyDataset), "{alg}");
        }
    }

    #[test]
    fn fit_error_on_single_class() {
        let mut data = Dataset::new(vec!["a".into()]);
        for i in 0..10 {
            data.push(vec![f64::from(i)], false);
        }
        for alg in Algorithm::PAPER_ORDER {
            assert_eq!(
                alg.fit(&data).err(),
                Some(FitError::SingleClass(false)),
                "{alg}"
            );
        }
    }

    #[test]
    fn paper_names_match() {
        assert_eq!(Algorithm::LinearRegression.to_string(), "LR");
        assert_eq!(Algorithm::NaiveBayes.to_string(), "Naive");
        assert_eq!(Algorithm::Tan.to_string(), "TAN");
        assert_eq!(Algorithm::Svm.to_string(), "SVM");
    }

    #[test]
    fn a_trained_model_names_its_algorithm() {
        let data = toy_dataset();
        for alg in Algorithm::PAPER_ORDER {
            assert_eq!(alg.fit(&data).unwrap().algorithm(), alg);
        }
    }

    #[test]
    fn fit_error_display_is_informative() {
        let e = FitError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(FitError::EmptyDataset.to_string().contains("empty"));
        assert!(FitError::SingleClass(true).to_string().contains("true"));
    }
}
