//! Evaluation metrics: confusion matrices and balanced accuracy, the
//! paper's prediction-quality measure (Section IV-A).

use serde::{Deserialize, Serialize};

/// A 2×2 confusion matrix for the binary overload/underload problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Overloaded intervals predicted overloaded.
    pub true_positive: usize,
    /// Underloaded intervals predicted overloaded.
    pub false_positive: usize,
    /// Overloaded intervals predicted underloaded.
    pub false_negative: usize,
    /// Underloaded intervals predicted underloaded.
    pub true_negative: usize,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix::default()
    }

    /// Tally one (actual, predicted) pair.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.true_positive += 1,
            (false, true) => self.false_positive += 1,
            (true, false) => self.false_negative += 1,
            (false, false) => self.true_negative += 1,
        }
    }

    /// Build from parallel slices of actual and predicted labels.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_labels(actual: &[bool], predicted: &[bool]) -> ConfusionMatrix {
        assert_eq!(
            actual.len(),
            predicted.len(),
            "label slices differ in length"
        );
        let mut m = ConfusionMatrix::new();
        for (&a, &p) in actual.iter().zip(predicted) {
            m.record(a, p);
        }
        m
    }

    /// Total number of recorded pairs.
    pub fn total(&self) -> usize {
        self.true_positive + self.false_positive + self.false_negative + self.true_negative
    }

    /// True-positive rate (sensitivity). `None` if no positives seen.
    pub fn true_positive_rate(&self) -> Option<f64> {
        let p = self.true_positive + self.false_negative;
        (p > 0).then(|| self.true_positive as f64 / p as f64)
    }

    /// True-negative rate (specificity). `None` if no negatives seen.
    pub fn true_negative_rate(&self) -> Option<f64> {
        let n = self.true_negative + self.false_positive;
        (n > 0).then(|| self.true_negative as f64 / n as f64)
    }

    /// Plain accuracy. `None` when empty.
    pub fn accuracy(&self) -> Option<f64> {
        let t = self.total();
        (t > 0).then(|| (self.true_positive + self.true_negative) as f64 / t as f64)
    }

    /// Balanced accuracy: the mean of the true-positive and true-negative
    /// rates — the paper's BA metric. If only one class is present, falls
    /// back to that class's rate; `None` when empty.
    pub fn balanced_accuracy(&self) -> Option<f64> {
        match (self.true_positive_rate(), self.true_negative_rate()) {
            (Some(tp), Some(tn)) => Some((tp + tn) / 2.0),
            (Some(tp), None) => Some(tp),
            (None, Some(tn)) => Some(tn),
            (None, None) => None,
        }
    }

    /// Merge another matrix's tallies into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
        self.false_negative += other.false_negative;
        self.true_negative += other.true_negative;
    }
}

/// Convenience: balanced accuracy straight from label slices.
///
/// Returns 0.0 for empty input (a deliberately pessimistic default so that
/// selection loops never favour an unevaluated candidate).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn balanced_accuracy(actual: &[bool], predicted: &[bool]) -> f64 {
    ConfusionMatrix::from_labels(actual, predicted)
        .balanced_accuracy()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let a = [true, false, true, false];
        let m = ConfusionMatrix::from_labels(&a, &a);
        assert_eq!(m.balanced_accuracy(), Some(1.0));
        assert_eq!(m.accuracy(), Some(1.0));
    }

    #[test]
    fn constant_predictor_gets_half() {
        let actual = [true, true, false, false];
        let predicted = [true, true, true, true];
        let m = ConfusionMatrix::from_labels(&actual, &predicted);
        // TPR = 1, TNR = 0 → BA = 0.5. This is why useless synopses score
        // ≈ 0.5 in the paper's Table I.
        assert_eq!(m.balanced_accuracy(), Some(0.5));
    }

    #[test]
    fn imbalance_does_not_inflate_ba() {
        // 90 negatives correctly classified, 10 positives all missed:
        // plain accuracy 0.9 but BA 0.5.
        let mut m = ConfusionMatrix::new();
        m.true_negative = 90;
        m.false_negative = 10;
        assert_eq!(m.accuracy(), Some(0.9));
        assert_eq!(m.balanced_accuracy(), Some(0.5));
    }

    #[test]
    fn single_class_falls_back() {
        let m = ConfusionMatrix::from_labels(&[false, false], &[false, true]);
        assert_eq!(m.balanced_accuracy(), Some(0.5));
        let m = ConfusionMatrix::from_labels(&[true, true], &[true, true]);
        assert_eq!(m.balanced_accuracy(), Some(1.0));
    }

    #[test]
    fn empty_is_none_and_helper_zero() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.balanced_accuracy(), None);
        assert_eq!(balanced_accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfusionMatrix::from_labels(&[true], &[true]);
        let b = ConfusionMatrix::from_labels(&[false], &[true]);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.true_positive, 1);
        assert_eq!(a.false_positive, 1);
    }

    #[test]
    fn rates_match_hand_computation() {
        let actual = [true, true, true, false, false];
        let predicted = [true, false, true, false, true];
        let m = ConfusionMatrix::from_labels(&actual, &predicted);
        assert_eq!(m.true_positive, 2);
        assert_eq!(m.false_negative, 1);
        assert_eq!(m.true_negative, 1);
        assert_eq!(m.false_positive, 1);
        let ba = m.balanced_accuracy().unwrap();
        assert!((ba - (2.0 / 3.0 + 0.5) / 2.0).abs() < 1e-12);
    }
}
