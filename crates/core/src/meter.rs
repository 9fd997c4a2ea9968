//! The capacity meter: end-to-end training and online evaluation of the
//! two-level coordinated capacity measurement.
//!
//! [`CapacityMeter::train`] reproduces the paper's offline phase: run the
//! ramp+spike training workloads for the two representative mixes, build
//! one performance synopsis per (workload, tier), and train the
//! coordinated predictor over the synopses' outputs. The trained meter
//! then classifies unseen intervals online ([`CapacityMeter::predict`])
//! and identifies the bottleneck tier when overloaded.

use serde::{Deserialize, Serialize};
use webcap_hpc::HpcModel;
use webcap_ml::select::SelectionOptions;
use webcap_ml::{Algorithm, ConfusionMatrix, FitError};
use webcap_parallel::{par_map, Parallelism};
use webcap_sim::{SimConfig, TierId};
use webcap_tpcw::{Mix, MixId, TrafficProgram};

use crate::coordinator::{CoordinatedPrediction, CoordinatedPredictor, CoordinatorConfig};
use crate::monitor::{collect_run_for, MetricLevel, WindowInstance};
use crate::oracle::OracleConfig;
use crate::synopsis::{PerformanceSynopsis, SynopsisSpec};
use crate::workloads;

/// Full configuration of a capacity meter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeterConfig {
    /// Testbed configuration (its seed drives the training simulations).
    pub sim: SimConfig,
    /// Hardware-counter synthesis model.
    pub hpc_model: HpcModel,
    /// Metric family the synopses are built on.
    pub level: MetricLevel,
    /// Learning algorithm for all synopses (the paper settles on TAN).
    pub algorithm: Algorithm,
    /// Coordinated-predictor hyper-parameters.
    pub coordinator: CoordinatorConfig,
    /// Ground-truth oracle thresholds.
    pub oracle: OracleConfig,
    /// Attribute-selection options.
    pub selection: SelectionOptions,
    /// Window length in samples (paper: 30 × 1 s).
    pub window_len: usize,
    /// Stride between training windows (overlap multiplies training data).
    pub train_stride: usize,
    /// Stride between evaluation windows (paper: disjoint).
    pub test_stride: usize,
    /// Scale on training/testing program durations.
    pub duration_scale: f64,
    /// Extra factor on *training* run durations relative to tests. The
    /// paper's training runs are hours long; the two-level predictor needs
    /// enough per-cell counter mass for its δ confidence band.
    pub train_duration_factor: f64,
    /// Independent executions of each workload's training program. Slow
    /// environmental disturbances (OS daemon activity) differ between
    /// executions; training on several exposes the learners and the
    /// pattern tables to that variability.
    pub training_repeats: usize,
    /// Seed for metric-synthesis noise.
    pub metrics_seed: u64,
    /// Passes over the training instances when training the coordinator.
    pub coordinator_epochs: usize,
    /// Worker threads for the independent training executions, synopsis
    /// inductions, and multi-run evaluations. Results are bit-identical
    /// at every setting; this only changes wall-clock time. Deliberately
    /// **not serialized**: a trained meter's JSON must not depend on how
    /// many threads trained it, and a persisted meter re-resolves the
    /// setting on load (skipped fields deserialize to
    /// [`Parallelism::Auto`]).
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl MeterConfig {
    /// Full-scale defaults: HPC metrics, TAN synopses, 3 history bits,
    /// δ = 5, optimistic scheme, 30 s windows.
    pub fn new(seed: u64) -> MeterConfig {
        MeterConfig {
            sim: SimConfig::testbed(seed),
            hpc_model: HpcModel::testbed(),
            level: MetricLevel::Hpc,
            algorithm: Algorithm::Tan,
            coordinator: CoordinatorConfig::default(),
            oracle: OracleConfig::default(),
            selection: SelectionOptions::default(),
            window_len: 30,
            train_stride: 5,
            test_stride: 30,
            duration_scale: 1.0,
            train_duration_factor: 1.0,
            training_repeats: 2,
            metrics_seed: seed ^ 0x5eed_cafe,
            coordinator_epochs: 4,
            parallelism: Parallelism::Auto,
        }
    }

    /// A reduced configuration for fast unit/integration tests: shorter
    /// programs, lighter cross validation, fewer attributes.
    pub fn small_for_tests(seed: u64) -> MeterConfig {
        let mut cfg = MeterConfig::new(seed);
        cfg.duration_scale = 0.45;
        cfg.selection = SelectionOptions {
            folds: 5,
            max_attributes: 4,
            ..SelectionOptions::default()
        };
        // With ~10x less training data than the full-scale runs, the
        // paper's delta = 5 confidence band leaves knee-region patterns
        // permanently uncertain; scale it down with the data volume.
        cfg.coordinator.delta = 2;
        cfg
    }

    /// Builder-style override of the metric level.
    pub fn with_level(mut self, level: MetricLevel) -> MeterConfig {
        self.level = level;
        self
    }

    /// Builder-style override of the learning algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> MeterConfig {
        self.algorithm = algorithm;
        self
    }

    /// Builder-style override of the worker-thread policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> MeterConfig {
        self.parallelism = parallelism;
        self
    }
}

/// Outcome of one evaluated window during online prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceResult {
    /// Window end time within its run, seconds.
    pub t_end_s: f64,
    /// Oracle state.
    pub actual: bool,
    /// Coordinated prediction.
    pub predicted: bool,
    /// Oracle bottleneck tier.
    pub actual_bottleneck: TierId,
    /// Predicted bottleneck (only when predicted overloaded).
    pub predicted_bottleneck: Option<TierId>,
    /// Whether the predictor was outside its δ uncertainty band.
    pub confident: bool,
}

/// Aggregated evaluation of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Overload-prediction confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Overloaded windows on which a bottleneck prediction was made.
    pub bottleneck_evaluated: usize,
    /// Of those, how many named the oracle's bottleneck tier.
    pub bottleneck_correct: usize,
    /// Per-window outcomes, in time order.
    pub results: Vec<InstanceResult>,
}

impl EvaluationReport {
    /// Balanced accuracy of overload prediction (the paper's BA metric);
    /// 0.0 for an empty report.
    pub fn balanced_accuracy(&self) -> f64 {
        self.confusion.balanced_accuracy().unwrap_or(0.0)
    }

    /// Bottleneck identification accuracy over the overloaded windows the
    /// predictor flagged; `None` when no such window exists.
    pub fn bottleneck_accuracy(&self) -> Option<f64> {
        (self.bottleneck_evaluated > 0)
            .then(|| self.bottleneck_correct as f64 / self.bottleneck_evaluated as f64)
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &EvaluationReport) {
        self.confusion.merge(&other.confusion);
        self.bottleneck_evaluated += other.bottleneck_evaluated;
        self.bottleneck_correct += other.bottleneck_correct;
        self.results.extend(other.results.iter().copied());
    }
}

/// A trained capacity meter: four performance synopses (2 workloads × 2
/// tiers) and the coordinated predictor over them.
///
/// Serializable: train offline, persist with [`CapacityMeter::to_json`],
/// and deploy the deserialized meter online.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityMeter {
    config: MeterConfig,
    synopses: Vec<PerformanceSynopsis>,
    coordinator: CoordinatedPredictor,
}

impl CapacityMeter {
    /// The (workload, tier) grid of synopsis identities, in GPV bit order.
    pub fn synopsis_grid() -> [(MixId, TierId); 4] {
        [
            (MixId::Ordering, TierId::App),
            (MixId::Ordering, TierId::Db),
            (MixId::Browsing, TierId::App),
            (MixId::Browsing, TierId::Db),
        ]
    }

    /// Train the meter: run the two training workloads, induce the four
    /// synopses, and train the coordinated predictor over their outputs.
    ///
    /// The expensive stages fan out over
    /// [`MeterConfig::parallelism`] worker threads: the independent
    /// `(workload, repeat)` training executions, then the four synopsis
    /// inductions. Every execution's simulation and metric seeds are
    /// pre-derived from the config alone and results are merged in the
    /// fixed grid order, so the trained meter is bit-identical at every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if any synopsis cannot be induced (e.g. a
    /// training program too light to produce overloaded windows).
    pub fn train(config: &MeterConfig) -> Result<CapacityMeter, FitError> {
        let par = config.parallelism;
        let mixes = [Mix::ordering(), Mix::browsing()];
        let programs: Vec<TrafficProgram> = mixes
            .iter()
            .map(|mix| {
                workloads::training_program(
                    &config.sim,
                    mix,
                    config.duration_scale * config.train_duration_factor.max(0.1),
                )
            })
            .collect();

        // Phase A — several independent executions of each workload's
        // program: distinct simulation seeds and metric-disturbance
        // trajectories, all pre-derived from the config, collected
        // workload-major / repeat-minor exactly as the sequential loop
        // ordered them. Only the family the synopses read is synthesized.
        let repeats = config.training_repeats.max(1);
        let tasks: Vec<(usize, &TrafficProgram, usize)> = programs
            .iter()
            .enumerate()
            .flat_map(|(i, program)| (0..repeats).map(move |rep| (i, program, rep)))
            .collect();
        let run_instances: Vec<Vec<WindowInstance>> = par_map(par, tasks, |(i, program, rep)| {
            let mut sim = config.sim.clone();
            sim.seed = config.sim.seed.wrapping_add((i + 10 * rep) as u64);
            let log = collect_run_for(
                &sim,
                program,
                &config.hpc_model,
                config.metrics_seed.wrapping_add((i + 100 * rep) as u64),
                config.level,
            );
            log.windows(config.window_len, config.train_stride, &config.oracle)
        });
        let mut per_workload = run_instances.chunks(repeats).map(|runs| {
            runs.iter()
                .flatten()
                .cloned()
                .collect::<Vec<WindowInstance>>()
        });
        let ordering_pool = per_workload.next().unwrap_or_default();
        let browsing_pool = per_workload.next().unwrap_or_default();

        // Phase B — one synopsis per (workload, tier) grid cell, each an
        // independent induction over its workload's pooled executions;
        // the fan-out stops here (selection inside a cell is a plain
        // loop, DESIGN §5.7). Errors surface in grid order, matching the
        // sequential loop's first failure.
        let synopses = par_map(
            par,
            CapacityMeter::synopsis_grid().to_vec(),
            |(workload, tier)| {
                let spec = SynopsisSpec {
                    tier,
                    workload,
                    level: config.level,
                    algorithm: config.algorithm,
                };
                let pooled = if workload == MixId::Ordering {
                    &ordering_pool
                } else {
                    &browsing_pool
                };
                PerformanceSynopsis::train(spec, pooled, &config.selection)
            },
        )
        .into_iter()
        .collect::<Result<Vec<PerformanceSynopsis>, FitError>>()?;

        // Phase C — the coordinator folds the runs' temporal sequences
        // into its pattern tables; history order matters, so it stays
        // sequential (it is also cheap relative to phases A and B).
        let mut coordinator = CoordinatedPredictor::new(synopses.len(), config.coordinator);
        for _ in 0..config.coordinator_epochs.max(1) {
            for run in &run_instances {
                coordinator.reset_history();
                for w in run {
                    let preds: Vec<bool> = synopses.iter().map(|s| s.predict_instance(w)).collect();
                    coordinator.train_instance(&preds, w.overloaded(), Some(w.label.bottleneck));
                }
            }
        }
        coordinator.reset_history();

        Ok(CapacityMeter {
            config: config.clone(),
            synopses,
            coordinator,
        })
    }

    /// The meter's configuration.
    pub fn config(&self) -> &MeterConfig {
        &self.config
    }

    /// Override the worker-thread policy of a trained meter — e.g. after
    /// [`CapacityMeter::from_json`], where the (unserialized) field
    /// deserializes to [`Parallelism::Auto`].
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.config.parallelism = parallelism;
    }

    /// Serialize the trained meter (synopses, pattern tables, and config)
    /// to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serializer error (only possible on exotic
    /// float values; trained meters serialize cleanly).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Load a previously trained meter from JSON.
    ///
    /// # Errors
    ///
    /// Returns the deserializer error for malformed input, and an error
    /// naming the field when `window_len` or `test_stride` is zero (no
    /// window could be formed from such a meter's input).
    pub fn from_json(json: &str) -> Result<CapacityMeter, serde_json::Error> {
        let meter: CapacityMeter = serde_json::from_str(json)?;
        let config = &meter.config;
        for (field, value) in [
            ("window_len", config.window_len),
            ("test_stride", config.test_stride),
        ] {
            if value == 0 {
                return Err(serde::de::Error::custom(format_args!(
                    "`{field}` must be positive, found 0"
                )));
            }
        }
        Ok(meter)
    }

    /// The trained synopses, in GPV bit order (see
    /// [`CapacityMeter::synopsis_grid`]).
    pub fn synopses(&self) -> &[PerformanceSynopsis] {
        &self.synopses
    }

    /// The trained two-level coordinated predictor (read-only).
    pub fn coordinator(&self) -> &CoordinatedPredictor {
        &self.coordinator
    }

    /// Predict the system state of one window online (advances the
    /// predictor's temporal history).
    pub fn predict(&mut self, window: &WindowInstance) -> CoordinatedPrediction {
        let preds: Vec<bool> = self
            .synopses
            .iter()
            .map(|s| s.predict_instance(window))
            .collect();
        self.coordinator.predict(&preds)
    }

    /// Reset the temporal history (call between unrelated runs).
    pub fn reset_history(&mut self) {
        self.coordinator.reset_history();
    }

    /// Evaluate the meter over a sequence of labeled windows.
    pub fn evaluate_instances(&mut self, instances: &[WindowInstance]) -> EvaluationReport {
        self.reset_history();
        let mut report = EvaluationReport::default();
        for w in instances {
            let out = self.predict(w);
            report.confusion.record(w.overloaded(), out.overloaded);
            if w.overloaded() && out.overloaded {
                report.bottleneck_evaluated += 1;
                if out.bottleneck == Some(w.label.bottleneck) {
                    report.bottleneck_correct += 1;
                }
            }
            report.results.push(InstanceResult {
                t_end_s: w.t_end_s,
                actual: w.overloaded(),
                predicted: out.overloaded,
                actual_bottleneck: w.label.bottleneck,
                predicted_bottleneck: out.bottleneck,
                confident: out.confident,
            });
        }
        report
    }

    /// Run `program` on a fresh simulation (seeded by `sim_seed`) and
    /// evaluate the meter's online predictions over it.
    pub fn evaluate_program(
        &mut self,
        program: &TrafficProgram,
        sim_seed: u64,
    ) -> EvaluationReport {
        let mut sim = self.config.sim.clone();
        sim.seed = sim_seed;
        let log = collect_run_for(
            &sim,
            program,
            &self.config.hpc_model,
            self.config.metrics_seed.wrapping_add(sim_seed),
            self.config.level,
        );
        let instances = log.windows(
            self.config.window_len,
            self.config.test_stride,
            &self.config.oracle,
        );
        self.evaluate_instances(&instances)
    }

    /// Evaluate several independent `(program, sim_seed)` runs, fanned
    /// out over [`MeterConfig::parallelism`] worker threads.
    ///
    /// Each run is evaluated by its own clone of the meter. Because
    /// [`CapacityMeter::evaluate_program`] resets the temporal history at
    /// the start of every run and online prediction never mutates the
    /// trained tables, the reports are bit-identical to calling
    /// [`CapacityMeter::evaluate_program`] in a loop, in input order.
    pub fn evaluate_programs(&self, runs: &[(TrafficProgram, u64)]) -> Vec<EvaluationReport> {
        par_map(
            self.config.parallelism,
            runs.iter().collect(),
            |(program, sim_seed)| self.clone().evaluate_program(program, *sim_seed),
        )
    }

    /// Evaluate on a knee-crossing test ramp of the given mix.
    pub fn evaluate_mix(&mut self, mix: Mix, sim_seed: u64) -> EvaluationReport {
        let program = workloads::test_ramp(&self.config.sim, &mix, self.config.duration_scale);
        self.evaluate_program(&program, sim_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Meter training runs two full simulations; keep one shared meter.
    fn trained() -> CapacityMeter {
        CapacityMeter::train(&MeterConfig::small_for_tests(1)).expect("training succeeds")
    }

    #[test]
    fn trains_four_synopses_in_grid_order() {
        let meter = trained();
        assert_eq!(meter.synopses().len(), 4);
        for (syn, (workload, tier)) in meter.synopses().iter().zip(CapacityMeter::synopsis_grid()) {
            assert_eq!(syn.spec().workload, workload);
            assert_eq!(syn.spec().tier, tier);
            assert_eq!(syn.spec().level, MetricLevel::Hpc);
        }
    }

    #[test]
    fn bottleneck_tier_synopses_are_accurate_in_cv() {
        let meter = trained();
        // Ordering/App and Browsing/Db are the bottleneck-tier synopses.
        let ordering_app = &meter.synopses()[0];
        let browsing_db = &meter.synopses()[3];
        assert!(
            ordering_app.cv_balanced_accuracy() > 0.8,
            "ordering/app cv ba {}",
            ordering_app.cv_balanced_accuracy()
        );
        // The browsing/DB problem is the hard one (small occupancy
        // contrast); at the reduced test scale ~0.75 is expected, the
        // full-scale benches reach the paper's ~0.95.
        assert!(
            browsing_db.cv_balanced_accuracy() > 0.7,
            "browsing/db cv ba {}",
            browsing_db.cv_balanced_accuracy()
        );
    }

    #[test]
    fn known_mix_evaluation_beats_chance_comfortably() {
        let mut meter = trained();
        let report = meter.evaluate_mix(Mix::ordering(), 777);
        assert!(report.confusion.total() >= 8, "enough windows evaluated");
        // Small-scale runs expose proportionally more knee-transition
        // windows, whose labels genuinely flicker with the background
        // interference; the full-scale benches assert the paper's ~0.9.
        assert!(
            report.balanced_accuracy() > 0.65,
            "ordering BA {} (confusion {:?})",
            report.balanced_accuracy(),
            report.confusion
        );
    }

    #[test]
    fn report_merge_accumulates() {
        let mut meter = trained();
        let a = meter.evaluate_mix(Mix::ordering(), 10);
        let b = meter.evaluate_mix(Mix::browsing(), 11);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(
            merged.confusion.total(),
            a.confusion.total() + b.confusion.total()
        );
        assert_eq!(merged.results.len(), a.results.len() + b.results.len());
    }

    #[test]
    fn round_trips_through_json() {
        let mut original = trained();
        let json = original.to_json().expect("serializes");
        let mut restored = CapacityMeter::from_json(&json).expect("deserializes");
        assert_eq!(original.synopses().len(), restored.synopses().len());
        for (a, b) in original.synopses().iter().zip(restored.synopses()) {
            assert_eq!(a.spec(), b.spec());
            assert_eq!(a.selected_names(), b.selected_names());
        }
        // Identical predictions on a fresh evaluation run.
        let ra = original.evaluate_mix(Mix::ordering(), 555);
        let rb = restored.evaluate_mix(Mix::ordering(), 555);
        assert_eq!(ra.confusion, rb.confusion);
        for (x, y) in ra.results.iter().zip(&rb.results) {
            assert_eq!(x.predicted, y.predicted);
            assert_eq!(x.predicted_bottleneck, y.predicted_bottleneck);
        }
    }

    /// An SVM synopsis model as meters serialized it while the kernel was
    /// a setting (always RBF, `γ = 1/d`): fitted on the rows below, it
    /// carries a `"kernel"` entry that loading now ignores.
    const SVM_WITH_KERNEL_ENTRY: &str = r#"{"Svm":{"scaler":{"stats":[[2.75,1.7260262647673315],[1.0,0.816496580927726]]},"kernel":{"Rbf":{"gamma":null}},"gamma":0.5,"bias":-1.5766671280191547e-16,"support":[{"x":[-1.5932550136313832,-1.224744871391589],"coef":-0.6072092371180585},{"x":[-1.013889554129062,1.224744871391589],"coef":-1.0},{"x":[-0.43452409462674085,0.0],"coef":-1.0},{"x":[-0.14484136487558028,1.224744871391589],"coef":1.0},{"x":[0.14484136487558028,-1.224744871391589],"coef":-1.0},{"x":[0.43452409462674085,0.0],"coef":1.0},{"x":[1.013889554129062,-1.224744871391589],"coef":1.0},{"x":[1.5932550136313832,1.224744871391589],"coef":0.6072092371180586}],"dim":2}}"#;

    #[test]
    fn an_svm_model_written_with_a_kernel_entry_still_loads() {
        use webcap_ml::{Dataset, Model, TrainedModel};
        let old: TrainedModel =
            serde_json::from_str(SVM_WITH_KERNEL_ENTRY).expect("the old shape loads");
        let json = serde_json::to_string(&old).expect("serializes");
        assert_eq!(
            json,
            SVM_WITH_KERNEL_ENTRY.replace(r#""kernel":{"Rbf":{"gamma":null}},"#, "")
        );
        let new: TrainedModel = serde_json::from_str(&json).expect("the new shape loads");

        let mut data = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..12 {
            let a = f64::from(i) * 0.5;
            let b = f64::from(i % 3);
            data.push(vec![a, b], a + b > 3.0);
        }
        let refit = Algorithm::Svm.fit(&data).expect("fits");
        assert_eq!(serde_json::to_string(&refit).expect("serializes"), json);
        let probes = data.iter().map(|inst| inst.features.clone());
        for probe in probes.chain([vec![-3.0, 7.5], vec![100.0, -1.0]]) {
            let want = old.decision(&probe).to_bits();
            assert_eq!(new.decision(&probe).to_bits(), want, "{probe:?}");
            assert_eq!(refit.decision(&probe).to_bits(), want, "{probe:?}");
        }
    }

    #[test]
    fn loaded_meter_with_an_impossible_window_geometry_is_rejected() {
        // Each field's literal replaced, the way a hand-edited meter file
        // would carry it.
        let json = trained().to_json().expect("serializes");
        for field in ["window_len", "test_stride"] {
            let literal = format!("\"{field}\":30");
            assert_eq!(
                json.matches(&literal).count(),
                1,
                "one {field} in the meter"
            );
            let err = CapacityMeter::from_json(&json.replace(&literal, &format!("\"{field}\":0")))
                .expect_err("a zero is rejected at load");
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn config_builders_apply() {
        let cfg = MeterConfig::small_for_tests(2)
            .with_level(MetricLevel::Os)
            .with_algorithm(Algorithm::NaiveBayes)
            .with_parallelism(Parallelism::Threads(3));
        assert_eq!(cfg.level, MetricLevel::Os);
        assert_eq!(cfg.algorithm, Algorithm::NaiveBayes);
        assert_eq!(cfg.parallelism, Parallelism::Threads(3));
    }

    #[test]
    fn parallel_multi_run_evaluation_matches_sequential_loop() {
        let meter = trained();
        let cfg = meter.config().clone();
        let ramp = |mix: Mix| workloads::test_ramp(&cfg.sim, &mix, cfg.duration_scale);
        let runs = vec![
            (ramp(Mix::ordering()), 31u64),
            (ramp(Mix::browsing()), 32),
            (ramp(Mix::ordering()), 33),
        ];
        let mut sequential = meter.clone();
        let expected: Vec<EvaluationReport> = runs
            .iter()
            .map(|(p, s)| sequential.evaluate_program(p, *s))
            .collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let mut m = meter.clone();
            m.set_parallelism(par);
            let got = m.evaluate_programs(&runs);
            assert_eq!(got.len(), expected.len(), "{par}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.confusion, e.confusion, "{par}");
                assert_eq!(g.results, e.results, "{par}");
            }
        }
    }
}
