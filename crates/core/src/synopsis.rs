//! Performance synopses: per-(tier, workload, level) classifiers mapping
//! low-level metrics to the binary system state — `SYN({A1..An}, C)` of
//! Section II-B.
//!
//! A synopsis is built from a specific workload's training instances on a
//! specific tier's metrics: attributes are chosen by information-gain
//! forward selection validated with 10-fold cross validation, then the
//! configured learner is fitted on the selected attributes.

use serde::{Deserialize, Serialize};
use webcap_ml::select::SelectionOptions;
use webcap_ml::{forward_select, Algorithm, Dataset, FitError, Model, TrainedModel};
use webcap_sim::TierId;
use webcap_tpcw::MixId;

use crate::monitor::{feature_names, MetricLevel, WindowInstance};

/// Identity of a synopsis: which tier's metrics, which training workload,
/// which metric family, and which learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SynopsisSpec {
    /// Tier whose metrics feed this synopsis.
    pub tier: TierId,
    /// Workload whose training run built this synopsis.
    pub workload: MixId,
    /// Metric family (OS or HPC).
    pub level: MetricLevel,
    /// Learning algorithm.
    pub algorithm: Algorithm,
}

impl std::fmt::Display for SynopsisSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.workload, self.tier, self.level, self.algorithm
        )
    }
}

/// Build the (full-width) dataset for one (tier, level) family from
/// window instances.
pub fn dataset_from_instances(
    instances: &[WindowInstance],
    tier: TierId,
    level: MetricLevel,
) -> Dataset {
    let mut data = Dataset::new(feature_names(level, tier));
    for w in instances {
        data.push(w.features(level, tier).to_vec(), w.overloaded());
    }
    data
}

/// A trained performance synopsis.
///
/// Serializable: a synopsis trained offline can be persisted and loaded
/// for online use.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerformanceSynopsis {
    spec: SynopsisSpec,
    /// Indices of the selected attributes within the full feature vector.
    selected: Vec<usize>,
    /// Names of the selected attributes.
    selected_names: Vec<String>,
    /// Cross-validated balanced accuracy achieved during selection.
    cv_balanced_accuracy: f64,
    model: TrainedModel,
}

impl PerformanceSynopsis {
    /// Train a synopsis from workload-specific training instances.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if the training set is empty, single-class,
    /// or numerically degenerate.
    pub fn train(
        spec: SynopsisSpec,
        instances: &[WindowInstance],
        selection: &SelectionOptions,
    ) -> Result<PerformanceSynopsis, FitError> {
        let data = dataset_from_instances(instances, spec.tier, spec.level);
        let report = forward_select(&spec.algorithm, &data, selection)?;
        let projected = data.project(&report.selected);
        let model = spec.algorithm.fit(&projected)?;
        Ok(PerformanceSynopsis {
            spec,
            selected_names: report.selected_names(&data),
            selected: report.selected,
            cv_balanced_accuracy: report.cv_balanced_accuracy,
            model,
        })
    }

    /// The synopsis identity.
    pub fn spec(&self) -> SynopsisSpec {
        self.spec
    }

    /// Names of the attributes the synopsis retained.
    pub fn selected_names(&self) -> &[String] {
        &self.selected_names
    }

    /// Cross-validated balanced accuracy observed during attribute
    /// selection.
    pub fn cv_balanced_accuracy(&self) -> f64 {
        self.cv_balanced_accuracy
    }

    /// Predict the system state from one instance's metrics.
    pub fn predict_instance(&self, instance: &WindowInstance) -> bool {
        self.predict_features(instance.features(self.spec.level, self.spec.tier))
    }

    /// Predict from a full-width feature vector of this synopsis's
    /// (tier, level) family. A vector narrower than the selected
    /// indices require reads the missing attributes as 0.0 (the
    /// training pipeline always supplies full-width rows, so this only
    /// arises on malformed external input — which must degrade, not
    /// panic, on the runtime path).
    pub fn predict_features(&self, full_features: &[f64]) -> bool {
        let projected: Vec<f64> = self
            .selected
            .iter()
            .map(|&i| full_features.get(i).copied().unwrap_or(0.0))
            .collect();
        self.model.predict(&projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::collect_run;
    use crate::oracle::OracleConfig;
    use webcap_hpc::HpcModel;
    use webcap_sim::SimConfig;
    use webcap_tpcw::{Mix, TrafficProgram};

    /// A ramp that crosses the ordering-mix knee, giving both classes.
    fn ordering_instances() -> Vec<WindowInstance> {
        let cfg = SimConfig::testbed(21);
        let program = TrafficProgram::ramp(Mix::ordering(), 60, 560, 420.0).then_steady(
            Mix::ordering(),
            560,
            120.0,
        );
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), 5);
        log.windows(30, 10, &OracleConfig::default())
    }

    fn quick_selection() -> SelectionOptions {
        SelectionOptions {
            folds: 5,
            max_attributes: 4,
            ..SelectionOptions::default()
        }
    }

    #[test]
    fn trains_and_predicts_on_bottleneck_tier() {
        let instances = ordering_instances();
        let n_over = instances.iter().filter(|w| w.overloaded()).count();
        assert!(
            n_over >= 3,
            "need overloaded windows, got {n_over}/{}",
            instances.len()
        );
        assert!(n_over < instances.len(), "need underloaded windows too");

        let spec = SynopsisSpec {
            tier: TierId::App,
            workload: MixId::Ordering,
            level: MetricLevel::Hpc,
            algorithm: Algorithm::Tan,
        };
        let syn = PerformanceSynopsis::train(spec, &instances, &quick_selection()).unwrap();
        assert!(!syn.selected_names().is_empty());
        assert!(
            syn.cv_balanced_accuracy() > 0.8,
            "bottleneck-tier HPC synopsis should be accurate: {}",
            syn.cv_balanced_accuracy()
        );
        // In-sample sanity: most instances classified correctly.
        let correct = instances
            .iter()
            .filter(|w| syn.predict_instance(w) == w.overloaded())
            .count();
        assert!(correct as f64 / instances.len() as f64 > 0.8);
    }

    #[test]
    fn spec_display_is_informative() {
        let spec = SynopsisSpec {
            tier: TierId::Db,
            workload: MixId::Browsing,
            level: MetricLevel::Os,
            algorithm: Algorithm::Svm,
        };
        assert_eq!(spec.to_string(), "Browsing/DB/OS Level/SVM");
    }

    #[test]
    fn dataset_construction_matches_widths() {
        let instances = ordering_instances();
        let data = dataset_from_instances(&instances, TierId::Db, MetricLevel::Os);
        assert_eq!(data.n_features(), 64);
        assert_eq!(data.len(), instances.len());
    }

    #[test]
    fn single_class_training_fails_cleanly() {
        let cfg = SimConfig::testbed(22);
        let program = TrafficProgram::steady(Mix::ordering(), 30, 120.0);
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), 5);
        let instances = log.windows(30, 30, &OracleConfig::default());
        let spec = SynopsisSpec {
            tier: TierId::App,
            workload: MixId::Ordering,
            level: MetricLevel::Hpc,
            algorithm: Algorithm::NaiveBayes,
        };
        let err = PerformanceSynopsis::train(spec, &instances, &quick_selection());
        assert!(matches!(err.err(), Some(FitError::SingleClass(false))));
    }
}
