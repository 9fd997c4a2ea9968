//! Stratified k-fold cross validation — the paper's synopsis-accuracy
//! validation protocol (10-fold, Section II-B.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Dataset;
use crate::metrics::ConfusionMatrix;
use crate::{FitError, Learner, Model};

/// Result of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// Aggregated confusion matrix over all folds.
    pub confusion: ConfusionMatrix,
    /// Number of folds that fitted successfully.
    pub folds_run: usize,
    /// Number of folds skipped because their training split was
    /// single-class or otherwise unfittable.
    pub folds_skipped: usize,
}

impl CvOutcome {
    /// Balanced accuracy over all validated instances; 0.0 if none ran.
    pub fn balanced_accuracy(&self) -> f64 {
        self.confusion.balanced_accuracy().unwrap_or(0.0)
    }
}

/// Stratified fold assignment: instances of each class are shuffled
/// (seeded Fisher–Yates) and dealt round-robin into `k` folds so every
/// fold preserves the class balance. Returns the fold index of every
/// instance, position-aligned with `data`.
///
/// The assignment is a pure function of `(data, k, seed)`.
pub fn fold_assignment(data: &Dataset, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold_of = vec![0usize; data.len()];
    for class in [false, true] {
        let mut idx: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.label == class)
            .map(|(i, _)| i)
            .collect();
        // Fisher–Yates.
        for i in (1..idx.len()).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        for (pos, &i) in idx.iter().enumerate() {
            fold_of[i] = pos % k;
        }
    }
    fold_of
}

/// Run stratified k-fold cross validation of `learner` on `data`.
///
/// Folds whose training portion cannot be fitted (e.g. single-class) are
/// skipped and counted in [`CvOutcome::folds_skipped`].
///
/// # Errors
///
/// Returns [`FitError::EmptyDataset`] for an empty dataset. Per-fold fit
/// errors are not fatal — they only skip folds — but if *every* fold fails,
/// the last error is returned.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn cross_validate(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<CvOutcome, FitError> {
    assert!(k >= 2, "need at least 2 folds");
    if data.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    let k = k.min(data.len());
    let fold_of = fold_assignment(data, k, seed);

    let mut confusion = ConfusionMatrix::new();
    let mut folds_run = 0;
    let mut folds_skipped = 0;
    let mut last_err = None;
    for fold in 0..k {
        let train_rows: Vec<usize> = (0..data.len()).filter(|&i| fold_of[i] != fold).collect();
        let test_rows: Vec<usize> = (0..data.len()).filter(|&i| fold_of[i] == fold).collect();
        if train_rows.is_empty() || test_rows.is_empty() {
            folds_skipped += 1;
            continue;
        }
        let train = data.select_rows(&train_rows);
        match learner.fit(&train) {
            Ok(model) => {
                for &r in &test_rows {
                    let inst = &data.instances()[r];
                    confusion.record(inst.label, model.predict(&inst.features));
                }
                folds_run += 1;
            }
            Err(e) => {
                folds_skipped += 1;
                last_err = Some(e);
            }
        }
    }
    if folds_run == 0 {
        return Err(last_err.unwrap_or(FitError::EmptyDataset));
    }
    Ok(CvOutcome {
        confusion,
        folds_run,
        folds_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;

    fn separable(n: usize) -> Dataset {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            data.push(vec![i as f64], i >= n / 2);
        }
        data
    }

    #[test]
    fn ten_fold_on_separable_data_is_accurate() {
        let data = separable(200);
        let out = cross_validate(&Algorithm::NaiveBayes, &data, 10, 1).unwrap();
        assert_eq!(out.folds_run, 10);
        assert_eq!(out.folds_skipped, 0);
        assert!(
            out.balanced_accuracy() > 0.9,
            "ba {}",
            out.balanced_accuracy()
        );
        assert_eq!(out.confusion.total(), 200);
    }

    #[test]
    fn stratification_keeps_minority_class_in_folds() {
        // 10% positives: stratified 5-fold must still run all folds.
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            data.push(vec![i as f64], i >= 90);
        }
        let out = cross_validate(&Algorithm::NaiveBayes, &data, 5, 2).unwrap();
        assert_eq!(out.folds_run, 5);
    }

    #[test]
    fn k_clamps_to_dataset_size() {
        let data = separable(4);
        let out = cross_validate(&Algorithm::NaiveBayes, &data, 10, 3).unwrap();
        assert!(out.folds_run + out.folds_skipped <= 4);
    }

    #[test]
    fn empty_dataset_errors() {
        let data = Dataset::new(vec!["x".into()]);
        let res = cross_validate(&Algorithm::NaiveBayes, &data, 5, 4);
        assert_eq!(res.err(), Some(FitError::EmptyDataset));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = separable(100);
        let a = cross_validate(&Algorithm::Tan, &data, 10, 9).unwrap();
        let b = cross_validate(&Algorithm::Tan, &data, 10, 9).unwrap();
        assert_eq!(a.confusion, b.confusion);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_rejected() {
        let data = separable(10);
        let _ = cross_validate(&Algorithm::NaiveBayes, &data, 1, 0);
    }

    #[test]
    fn fold_assignment_is_stratified_and_deterministic() {
        let data = separable(100);
        let a = fold_assignment(&data, 10, 5);
        let b = fold_assignment(&data, 10, 5);
        assert_eq!(a, b, "same seed, same assignment");
        for fold in 0..10 {
            let members: Vec<usize> = (0..data.len()).filter(|&i| a[i] == fold).collect();
            let positives = members
                .iter()
                .filter(|&&i| data.instances()[i].label)
                .count();
            assert_eq!(members.len(), 10);
            assert_eq!(positives, 5, "fold {fold} keeps the class balance");
        }
    }
}
