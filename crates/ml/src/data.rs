//! Labeled datasets of numeric feature vectors.

use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;

/// A single labeled observation: one aggregated sampling interval in the
/// paper's protocol (a 30-second average of per-second metric snapshots
/// plus the high-level state of that interval).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Feature values, aligned with [`Dataset::feature_names`].
    pub features: Vec<f64>,
    /// High-level state: `true` = overload, `false` = underload.
    pub label: bool,
}

/// A collection of [`Instance`]s sharing one feature schema.
///
/// This is the training/testing set `D = {u*_1, …, u*_N}` of the paper's
/// Section II-B.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    instances: Vec<Instance>,
}

impl Dataset {
    /// Create an empty dataset with the given feature schema.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            instances: Vec::new(),
        }
    }

    /// Append an instance.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` does not match the schema width.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "instance width {} != schema width {}",
            features.len(),
            self.feature_names.len()
        );
        self.instances.push(Instance { features, label });
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of instances (rows).
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` if the dataset holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instances as a slice.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Iterate over instances.
    pub fn iter(&self) -> std::slice::Iter<'_, Instance> {
        self.instances.iter()
    }

    /// The distinct labels present.
    pub fn classes(&self) -> Vec<bool> {
        let pos = self.instances.iter().any(|i| i.label);
        let neg = self.instances.iter().any(|i| !i.label);
        match (neg, pos) {
            (true, true) => vec![false, true],
            (true, false) => vec![false],
            (false, true) => vec![true],
            (false, false) => vec![],
        }
    }

    /// Values of one feature column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.n_features(), "column {col} out of range");
        self.instances.iter().map(|i| i.features[col]).collect()
    }

    /// A new dataset restricted to the given feature columns (in the given
    /// order). Used by attribute selection.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn project(&self, columns: &[usize]) -> Dataset {
        let names = columns
            .iter()
            .map(|&c| {
                assert!(c < self.n_features(), "column {c} out of range");
                self.feature_names[c].clone()
            })
            .collect();
        let mut out = Dataset::new(names);
        for inst in &self.instances {
            out.push(
                columns.iter().map(|&c| inst.features[c]).collect(),
                inst.label,
            );
        }
        out
    }

    /// A new dataset containing the rows at `rows` (in order).
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.feature_names.clone());
        for &r in rows {
            let inst = &self.instances[r];
            out.push(inst.features.clone(), inst.label);
        }
        out
    }

    /// Copy the feature vectors into one contiguous row-major [`Matrix`]
    /// (row `r` = instance `r`). Hot paths iterate this instead of chasing
    /// one heap pointer per instance.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no instances or no features.
    pub fn to_matrix(&self) -> Matrix {
        let cols = self.n_features();
        let mut data = Vec::with_capacity(self.len() * cols);
        for inst in &self.instances {
            data.extend_from_slice(&inst.features);
        }
        Matrix::from_flat(self.len(), cols, data)
    }

    /// Per-column mean and standard deviation (population), used for
    /// feature standardization. Columns with zero variance get σ = 1 so
    /// that scaling is a no-op for them.
    pub fn column_stats(&self) -> Vec<(f64, f64)> {
        let n = self.len().max(1) as f64;
        (0..self.n_features())
            .map(|c| {
                let col = self.column(c);
                let mean = col.iter().sum::<f64>() / n;
                let var = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                let sd = var.sqrt();
                (mean, if sd > 1e-12 { sd } else { 1.0 })
            })
            .collect()
    }
}

impl Extend<Instance> for Dataset {
    fn extend<T: IntoIterator<Item = Instance>>(&mut self, iter: T) {
        for inst in iter {
            assert_eq!(
                inst.features.len(),
                self.feature_names.len(),
                "instance width mismatch in extend"
            );
            self.instances.push(inst);
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Instance;
    type IntoIter = std::slice::Iter<'a, Instance>;

    fn into_iter(self) -> Self::IntoIter {
        self.instances.iter()
    }
}

/// A per-column affine standardizer (z-scoring) fitted on a training set
/// and applied to both training and test features, as required by the SVM
/// and useful for linear regression conditioning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    stats: Vec<(f64, f64)>,
}

impl Scaler {
    /// Fit a scaler to a dataset's columns.
    pub fn fit(data: &Dataset) -> Scaler {
        Scaler {
            stats: data.column_stats(),
        }
    }

    /// Standardize one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the fitted width.
    pub fn transform(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(
            features.len(),
            self.stats.len(),
            "width mismatch in transform"
        );
        features
            .iter()
            .zip(&self.stats)
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Standardize a whole dataset.
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.feature_names().to_vec());
        for inst in data {
            out.push(self.transform(&inst.features), inst.label);
        }
        out
    }

    /// Standardize a whole dataset directly into a contiguous row-major
    /// [`Matrix`], skipping the per-instance `Vec` allocations of
    /// [`Scaler::transform_dataset`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its width differs from the
    /// fitted width.
    pub fn transform_matrix(&self, data: &Dataset) -> Matrix {
        let mut out = Vec::with_capacity(data.len() * self.stats.len());
        for inst in data {
            assert_eq!(
                inst.features.len(),
                self.stats.len(),
                "width mismatch in transform"
            );
            for (v, (m, s)) in inst.features.iter().zip(&self.stats) {
                out.push((v - m) / s);
            }
        }
        Matrix::from_flat(data.len(), self.stats.len(), out)
    }

    /// Number of columns the scaler was fitted on.
    pub fn dimension(&self) -> usize {
        self.stats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        d.push(vec![1.0, 10.0], false);
        d.push(vec![2.0, 20.0], true);
        d.push(vec![3.0, 30.0], true);
        d
    }

    #[test]
    fn push_and_counts() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.classes(), vec![false, true]);
    }

    #[test]
    #[should_panic(expected = "instance width")]
    fn push_wrong_width_panics() {
        let mut d = sample();
        d.push(vec![1.0], false);
    }

    #[test]
    fn column_extraction() {
        let d = sample();
        assert_eq!(d.column(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.column(1), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn projection_keeps_order_and_labels() {
        let d = sample();
        let p = d.project(&[1]);
        assert_eq!(p.feature_names(), &["y".to_string()]);
        assert_eq!(p.column(0), vec![10.0, 20.0, 30.0]);
        let labels: Vec<bool> = p.iter().map(|i| i.label).collect();
        assert_eq!(labels, [false, true, true]);
    }

    #[test]
    fn select_rows_subsets() {
        let d = sample();
        let s = d.select_rows(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(0), vec![3.0, 1.0]);
        assert!(s.instances()[0].label);
    }

    #[test]
    fn column_stats_zero_variance_guard() {
        let mut d = Dataset::new(vec!["c".into()]);
        d.push(vec![5.0], false);
        d.push(vec![5.0], true);
        let stats = d.column_stats();
        assert_eq!(stats[0].0, 5.0);
        assert_eq!(stats[0].1, 1.0);
    }

    #[test]
    fn scaler_round_trip_zero_mean_unit_var() {
        let d = sample();
        let scaler = Scaler::fit(&d);
        let t = scaler.transform_dataset(&d);
        let stats = t.column_stats();
        for (m, s) in stats {
            assert!(m.abs() < 1e-9, "mean {m}");
            assert!((s - 1.0).abs() < 1e-9, "sd {s}");
        }
    }

    #[test]
    fn classes_single_and_empty() {
        let mut d = Dataset::new(vec!["x".into()]);
        assert!(d.classes().is_empty());
        d.push(vec![0.0], true);
        assert_eq!(d.classes(), vec![true]);
    }

    #[test]
    fn to_matrix_preserves_rows() {
        let d = sample();
        let m = d.to_matrix();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        for (r, inst) in d.iter().enumerate() {
            assert_eq!(m.row(r), inst.features.as_slice());
        }
    }

    #[test]
    fn transform_matrix_matches_transform_dataset() {
        let d = sample();
        let scaler = Scaler::fit(&d);
        let m = scaler.transform_matrix(&d);
        let t = scaler.transform_dataset(&d);
        for (r, inst) in t.iter().enumerate() {
            assert_eq!(m.row(r), inst.features.as_slice());
        }
    }
}
