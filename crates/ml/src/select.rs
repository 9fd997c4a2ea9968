//! Attribute selection: rank attributes by information gain, then add them
//! greedily while 10-fold cross-validated accuracy improves — the paper's
//! iterative selection procedure (Section II-B.2).

use crate::cv::cross_validate;
use crate::data::Dataset;
use crate::discretize::EqualFrequencyDiscretizer;
use crate::info::information_gain;
use crate::{FitError, Learner};

/// Outcome of forward attribute selection.
#[derive(Debug, Clone)]
pub struct SelectionReport {
    /// Indices (into the original dataset) of the selected attributes, in
    /// selection order.
    pub selected: Vec<usize>,
    /// Cross-validated balanced accuracy of the final attribute set.
    pub cv_balanced_accuracy: f64,
    /// Information gain of every original attribute (index-aligned).
    pub gains: Vec<f64>,
}

impl SelectionReport {
    /// Selected attribute names resolved against the dataset schema.
    pub fn selected_names(&self, data: &Dataset) -> Vec<String> {
        self.selected
            .iter()
            .map(|&i| data.feature_names()[i].clone())
            .collect()
    }
}

/// Options for [`forward_select`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SelectionOptions {
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Bins used when discretizing attributes for the information-gain
    /// ranking.
    pub gain_bins: usize,
    /// Upper bound on the number of attributes to keep.
    pub max_attributes: usize,
    /// Upper bound on the number of ranked candidates to *try* (each trial
    /// costs a full cross validation); only the top-ranked candidates by
    /// information gain are considered.
    pub max_candidates: usize,
    /// Minimum cross-validated improvement required to keep an attribute.
    pub min_improvement: f64,
    /// RNG seed for fold assignment.
    pub seed: u64,
}

impl Default for SelectionOptions {
    fn default() -> SelectionOptions {
        SelectionOptions {
            folds: 10,
            gain_bins: 5,
            max_attributes: 8,
            max_candidates: 24,
            min_improvement: 1e-3,
            seed: 0xa77,
        }
    }
}

/// Greedy forward selection of attributes by information-gain order.
///
/// Attributes are ranked once by information gain, then considered in
/// descending order; each candidate is kept only if adding it improves the
/// cross-validated balanced accuracy by at least
/// [`SelectionOptions::min_improvement`]. The first-ranked attribute is
/// always kept so the result is never empty.
///
/// # Errors
///
/// Returns a [`FitError`] if the dataset is empty or single-class, or if
/// even the best single attribute cannot be cross-validated.
pub fn forward_select(
    learner: &dyn Learner,
    data: &Dataset,
    options: &SelectionOptions,
) -> Result<SelectionReport, FitError> {
    if data.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    let classes = data.classes();
    if classes.len() < 2 {
        return Err(FitError::SingleClass(classes[0]));
    }
    let labels: Vec<bool> = data.iter().map(|i| i.label).collect();

    // Rank attributes by information gain over discretized values.
    let gains: Vec<f64> = (0..data.n_features())
        .map(|c| {
            let col = data.column(c);
            let disc = EqualFrequencyDiscretizer::fit(&col, options.gain_bins);
            let bins: Vec<usize> = col.iter().map(|&v| disc.bin(v)).collect();
            information_gain(&bins, &labels)
        })
        .collect();
    let mut order: Vec<usize> = (0..data.n_features()).collect();
    order.sort_by(|&a, &b| gains[b].partial_cmp(&gains[a]).expect("gains are finite"));

    let mut selected: Vec<usize> = Vec::new();
    let mut best_ba = 0.0f64;
    for &candidate in order.iter().take(options.max_candidates.max(1)) {
        if selected.len() >= options.max_attributes {
            break;
        }
        let mut trial = selected.clone();
        trial.push(candidate);
        let projected = data.project(&trial);
        match cross_validate(learner, &projected, options.folds, options.seed) {
            Err(e) => {
                if selected.is_empty() {
                    return Err(e);
                }
                // Unfittable trial: skip this candidate.
            }
            Ok(outcome) => {
                let ba = outcome.balanced_accuracy();
                let first = selected.is_empty();
                if first || ba >= best_ba + options.min_improvement {
                    best_ba = if first { ba } else { best_ba.max(ba) };
                    selected.push(candidate);
                }
            }
        }
    }
    Ok(SelectionReport {
        selected,
        cv_balanced_accuracy: best_ba,
        gains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dataset where feature 0 is decisive, feature 1 is weakly
    /// informative, and features 2..5 are pure noise.
    fn informative_plus_noise(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = (0..5).map(|i| format!("f{i}")).collect();
        let mut data = Dataset::new(names);
        for _ in 0..n {
            let label: bool = rng.random();
            let f0 = if label { 2.0 } else { 0.0 } + rng.random::<f64>() * 0.5;
            let f1 = if label { 1.0 } else { 0.6 } + rng.random::<f64>();
            let noise: Vec<f64> = (0..3).map(|_| rng.random::<f64>() * 10.0).collect();
            data.push(vec![f0, f1, noise[0], noise[1], noise[2]], label);
        }
        data
    }

    #[test]
    fn picks_the_decisive_attribute_first() {
        let data = informative_plus_noise(1, 300);
        let report =
            forward_select(&Algorithm::NaiveBayes, &data, &SelectionOptions::default()).unwrap();
        assert_eq!(
            report.selected[0], 0,
            "decisive attribute should rank first"
        );
        assert!(report.cv_balanced_accuracy > 0.95);
    }

    #[test]
    fn noise_attributes_are_rejected() {
        let data = informative_plus_noise(2, 300);
        let report =
            forward_select(&Algorithm::NaiveBayes, &data, &SelectionOptions::default()).unwrap();
        // Pure-noise columns (2, 3, 4) should rarely survive; allow at most
        // one slipping in by chance.
        let noise_kept = report.selected.iter().filter(|&&i| i >= 2).count();
        assert!(noise_kept <= 1, "kept noise columns: {:?}", report.selected);
    }

    #[test]
    fn gains_are_index_aligned_and_ranked() {
        let data = informative_plus_noise(3, 300);
        let report =
            forward_select(&Algorithm::NaiveBayes, &data, &SelectionOptions::default()).unwrap();
        assert_eq!(report.gains.len(), 5);
        assert!(
            report.gains[0] > report.gains[2],
            "decisive gain should beat noise"
        );
    }

    #[test]
    fn never_returns_empty_selection() {
        let data = informative_plus_noise(4, 100);
        let report = forward_select(
            &Algorithm::LinearRegression,
            &data,
            &SelectionOptions::default(),
        )
        .unwrap();
        assert!(!report.selected.is_empty());
    }

    #[test]
    fn respects_max_attributes() {
        let data = informative_plus_noise(5, 200);
        let opts = SelectionOptions {
            max_attributes: 2,
            ..SelectionOptions::default()
        };
        let report = forward_select(&Algorithm::NaiveBayes, &data, &opts).unwrap();
        assert!(report.selected.len() <= 2);
        // A cap of one stops the scan right after the always-kept
        // first-ranked attribute.
        let one = SelectionOptions {
            max_attributes: 1,
            ..SelectionOptions::default()
        };
        let report = forward_select(&Algorithm::NaiveBayes, &data, &one).unwrap();
        assert_eq!(report.selected, vec![0]);
    }

    /// A learner no fold can fit: the very first trial fails with nothing
    /// selected yet, so its error is the result.
    struct Unfittable;

    impl Learner for Unfittable {
        fn fit(&self, _: &Dataset) -> Result<crate::TrainedModel, FitError> {
            Err(FitError::Numeric("unfittable".into()))
        }
    }

    #[test]
    fn first_trial_failure_is_the_error() {
        let data = informative_plus_noise(7, 60);
        let res = forward_select(&Unfittable, &data, &SelectionOptions::default());
        assert_eq!(res.err(), Some(FitError::Numeric("unfittable".into())));
    }

    #[test]
    fn selected_names_resolve() {
        let data = informative_plus_noise(6, 150);
        let report =
            forward_select(&Algorithm::NaiveBayes, &data, &SelectionOptions::default()).unwrap();
        let names = report.selected_names(&data);
        assert_eq!(names.len(), report.selected.len());
        assert!(names.contains(&"f0".to_string()));
    }

    #[test]
    fn single_class_errors() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            data.push(vec![f64::from(i)], true);
        }
        let res = forward_select(&Algorithm::NaiveBayes, &data, &SelectionOptions::default());
        assert_eq!(res.err(), Some(FitError::SingleClass(true)));
    }
}
