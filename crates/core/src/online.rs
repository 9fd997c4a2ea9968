//! The online deployment surface: an incremental monitor that consumes
//! one telemetry sample per second and emits a coordinated prediction
//! whenever an aggregation window completes.
//!
//! [`CapacityMeter::evaluate_program`] is the batch/offline path (run a
//! whole program, then window it); a production front-end instead receives
//! samples continuously and must decide *now*. [`OnlineMonitor`] wraps a
//! trained meter with the rolling aggregation state: per-second HPC and OS
//! collection, window assembly, and prediction — the paper's "no more than
//! 50 ms for each on-line decision" loop.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use webcap_hpc::{DerivedMetrics, HpcModel};
use webcap_os::OsCollector;
use webcap_sim::{SystemSample, TierId};

use crate::agg::{WindowAgg, WindowInstance};
use crate::coordinator::CoordinatedPrediction;
use crate::meter::CapacityMeter;

/// One emitted online decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineDecision {
    /// The coordinated prediction for the just-completed window.
    pub prediction: CoordinatedPrediction,
    /// The aggregated window the prediction was made on (its oracle label
    /// is available for post-hoc scoring when ground truth exists).
    pub window: WindowInstance,
}

/// Incremental per-second monitor around a trained [`CapacityMeter`].
#[derive(Debug)]
pub struct OnlineMonitor {
    meter: CapacityMeter,
    hpc_model: HpcModel,
    os_collectors: [OsCollector; 2],
    rng: StdRng,
    metrics_seed: u64,
    /// The window in progress: each second is folded in on arrival.
    window: WindowAgg,
    samples_seen: u64,
    decisions_made: u64,
}

impl OnlineMonitor {
    /// Wrap a trained meter for online use. `metrics_seed` seeds the
    /// metric-synthesis noise (on a real deployment the collectors would
    /// read hardware).
    pub fn new(meter: CapacityMeter, metrics_seed: u64) -> OnlineMonitor {
        let hpc_model = meter.config().hpc_model.clone();
        OnlineMonitor {
            meter,
            hpc_model,
            os_collectors: [OsCollector::new(TierId::App), OsCollector::new(TierId::Db)],
            rng: StdRng::seed_from_u64(metrics_seed),
            metrics_seed,
            window: WindowAgg::default(),
            samples_seen: 0,
            decisions_made: 0,
        }
    }

    /// Number of telemetry samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Number of window decisions emitted.
    pub fn decisions_made(&self) -> u64 {
        self.decisions_made
    }

    /// The wrapped meter.
    pub fn meter(&self) -> &CapacityMeter {
        &self.meter
    }

    /// Discard all partial-window aggregation state and return the monitor
    /// to its construction-time behavior: the window in progress is dropped,
    /// the metric-synthesis RNG is re-seeded from the original
    /// `metrics_seed`, the stateful OS collectors are replaced by fresh
    /// ones, and the meter's temporal prediction history is zeroed (after
    /// a telemetry discontinuity the history register no longer describes
    /// the *previous* window, so carrying it forward would index the LHT
    /// with a stale context).
    ///
    /// A distributed collector calls this after a sequence gap or an agent
    /// reconnection; the decisions that follow a reset are identical to a
    /// freshly constructed monitor's on the same samples. The cumulative
    /// [`OnlineMonitor::samples_seen`] / [`OnlineMonitor::decisions_made`]
    /// counters are deliberately preserved — they are telemetry about the
    /// monitor itself, not aggregation state.
    pub fn reset(&mut self) {
        self.window = WindowAgg::default();
        self.rng = StdRng::seed_from_u64(self.metrics_seed);
        self.os_collectors = [OsCollector::new(TierId::App), OsCollector::new(TierId::Db)];
        self.meter.reset_history();
    }

    /// Feed one per-second telemetry sample, synthesizing the low-level
    /// metrics in-process (the single-host deployment). Returns a decision
    /// when this sample completes an aggregation window (every
    /// `window_len` samples, disjoint windows — the paper's online
    /// regime).
    pub fn push_sample(&mut self, sample: SystemSample) -> Option<OnlineDecision> {
        let mut hpc: [Vec<f64>; 2] = Default::default();
        let mut os: [Vec<f64>; 2] = Default::default();
        for tier in TierId::ALL {
            let ts = sample.tier(tier);
            let counters = self
                .hpc_model
                .sample(tier, ts, sample.interval_s, &mut self.rng);
            *tier.select_mut(&mut hpc) = DerivedMetrics::from_sample(&counters).to_features();
            *tier.select_mut(&mut os) = tier
                .select_mut(&mut self.os_collectors)
                .sample(ts, sample.interval_s, &mut self.rng)
                .into_values();
        }
        self.push_collected(sample, hpc, os)
    }

    /// Feed one per-second telemetry sample whose low-level metric rows
    /// were collected *externally* — the distributed deployment, where
    /// per-tier agents sample counters next to the hardware and stream
    /// `(HPC features, OS metric values)` rows to a front-end collector.
    /// The monitor's own synthesis models and RNG are not consulted.
    ///
    /// `hpc[tier]` must be the tier's derived-HPC feature vector and
    /// `os[tier]` its OS metric values for this second, index-aligned
    /// with [`crate::monitor::feature_names`]. A family nobody reads may
    /// come empty for every sample; the window's features for it, and
    /// its combined vector, then stay empty.
    pub fn push_collected(
        &mut self,
        sample: SystemSample,
        hpc: [Vec<f64>; 2],
        os: [Vec<f64>; 2],
    ) -> Option<OnlineDecision> {
        self.window.observe(&sample, hpc, os);
        self.samples_seen += 1;
        if self.window.samples() < self.meter.config().window_len {
            return None;
        }
        let window = std::mem::take(&mut self.window).finish(&self.meter.config().oracle)?;
        let prediction = self.meter.predict(&window);
        self.decisions_made += 1;
        Some(OnlineDecision { prediction, window })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::MeterConfig;
    use crate::workloads;
    use webcap_sim::{SimConfig, Simulation};
    use webcap_tpcw::Mix;

    fn run_samples(cfg: &SimConfig, ebs: u32, duration: f64, seed: u64) -> Vec<SystemSample> {
        let mut sim = cfg.clone();
        sim.seed = seed;
        let program = webcap_tpcw::TrafficProgram::steady(Mix::ordering(), ebs, duration);
        Simulation::new(sim, program).run().samples
    }

    #[test]
    fn emits_one_decision_per_window() {
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let window = meter.config().window_len;
        let cfg = meter.config().sim.clone();
        let mut monitor = OnlineMonitor::new(meter, 7);
        let samples = run_samples(&cfg, 60, 95.0, 400);
        let mut decisions = 0;
        for (i, s) in samples.into_iter().enumerate() {
            let out = monitor.push_sample(s);
            if (i + 1) % window == 0 {
                assert!(out.is_some(), "sample {i} should complete a window");
                decisions += 1;
            } else {
                assert!(out.is_none(), "sample {i} should not complete a window");
            }
        }
        assert_eq!(decisions, 3);
        assert_eq!(monitor.decisions_made(), 3);
        assert_eq!(monitor.samples_seen(), 95);
    }

    #[test]
    fn online_decisions_track_overload() {
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let cfg = meter.config().sim.clone();
        let knee = workloads::estimate_saturation_ebs(&cfg, &Mix::ordering());
        let mut monitor = OnlineMonitor::new(meter, 8);

        // Deeply overloaded steady state: later windows must be called
        // overloaded with the APP bottleneck.
        let samples = run_samples(&cfg, knee * 2, 240.0, 401);
        let mut last = None;
        for s in samples {
            if let Some(d) = monitor.push_sample(s) {
                last = Some(d);
            }
        }
        let last = last.expect("decisions were emitted");
        assert!(
            last.window.overloaded(),
            "oracle agrees the system is overloaded"
        );
        assert!(
            last.prediction.overloaded,
            "online prediction flags overload"
        );
        assert_eq!(last.prediction.bottleneck, Some(TierId::App));
    }

    #[test]
    fn decision_latency_is_well_under_the_paper_budget() {
        // The paper reports ≤ 50 ms per online decision; ours must be far
        // below even in debug-ish environments.
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let cfg = meter.config().sim.clone();
        let mut monitor = OnlineMonitor::new(meter, 9);
        let samples = run_samples(&cfg, 120, 150.0, 402);
        let t0 = std::time::Instant::now();
        let mut decisions = 0;
        for s in samples {
            if monitor.push_sample(s).is_some() {
                decisions += 1;
            }
        }
        let per_decision_ms = t0.elapsed().as_secs_f64() * 1000.0 / f64::from(decisions.max(1));
        assert!(decisions >= 5);
        assert!(
            per_decision_ms < 50.0,
            "per-decision cost {per_decision_ms} ms"
        );
    }

    #[test]
    fn online_mix_label_agrees_with_batch_majority_across_a_switch() {
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let window = meter.config().window_len;
        let cfg = meter.config().sim.clone();
        let hpc_model = meter.config().hpc_model.clone();
        let oracle = meter.config().oracle;
        // The mix switches 20 s into the 30 s window: the majority mix is
        // the *pre*-switch one while the last sample carries the
        // post-switch one — exactly the case last-sample labeling got
        // wrong.
        let program = webcap_tpcw::TrafficProgram::steady(Mix::ordering(), 60, 20.0).then_steady(
            Mix::browsing(),
            60,
            10.0,
        );
        let log = crate::monitor::collect_run(&cfg, &program, &hpc_model, 5);
        let batch = log.windows(window, window, &oracle);
        assert_eq!(batch.len(), 1);
        assert_eq!(
            batch[0].mix,
            webcap_tpcw::MixId::Ordering,
            "batch majority is the pre-switch mix"
        );

        let mut monitor = OnlineMonitor::new(meter, 5);
        let mut decision = None;
        for s in log.samples.clone() {
            if let Some(d) = monitor.push_sample(s) {
                decision = Some(d);
            }
        }
        let d = decision.expect("the window completed");
        assert_eq!(
            d.window.mix, batch[0].mix,
            "online label matches batch majority"
        );
        // The whole instance, not only its mix: label, span, throughput
        // and all six feature vectors are the training window's, bit for
        // bit.
        assert_eq!(
            serde_json::to_string(&d.window).unwrap(),
            serde_json::to_string(&batch[0]).unwrap(),
            "online window differs from the training window"
        );
    }

    #[test]
    fn reset_matches_fresh_monitor() {
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let window = meter.config().window_len;
        let cfg = meter.config().sim.clone();
        let samples = run_samples(&cfg, 60, 95.0, 403);

        // Feed one full window (advancing the meter's temporal history)
        // plus half of the next, then hit a simulated telemetry
        // discontinuity.
        let mut survivor = OnlineMonitor::new(meter.clone(), 11);
        let prefix = window + window / 2;
        for s in samples.iter().take(prefix).cloned() {
            survivor.push_sample(s);
        }
        survivor.reset();

        // After the reset, the survivor must behave exactly like a monitor
        // constructed fresh from the same meter and seed: same window
        // boundaries, byte-identical decision JSON.
        let mut fresh = OnlineMonitor::new(meter, 11);
        let mut compared = 0;
        for s in samples.iter().take(window).cloned() {
            match (survivor.push_sample(s.clone()), fresh.push_sample(s)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        serde_json::to_string(&a).unwrap(),
                        serde_json::to_string(&b).unwrap(),
                        "post-reset decision differs from a fresh monitor's"
                    );
                    compared += 1;
                }
                _ => panic!("monitors disagree on window completion"),
            }
        }
        assert_eq!(compared, 1, "exactly one full window was compared");

        // The cumulative counters are telemetry, not aggregation state:
        // they survive the reset.
        assert_eq!(survivor.samples_seen(), (prefix + window) as u64);
        assert_eq!(survivor.decisions_made(), 2);
    }

    #[test]
    fn push_collected_is_the_push_sample_substrate() {
        // push_sample == synthesize + push_collected: feeding the same
        // stream through a mirror monitor that synthesizes externally
        // (with its own RNG clone) must reproduce the decisions.
        let meter = CapacityMeter::train(&MeterConfig::small_for_tests(31)).unwrap();
        let window = meter.config().window_len;
        let cfg = meter.config().sim.clone();
        let hpc_model = meter.config().hpc_model.clone();
        let samples = run_samples(&cfg, 60, 2.0 * window as f64, 404);

        let mut inline = OnlineMonitor::new(meter.clone(), 13);
        let mut external = OnlineMonitor::new(meter, 13);
        let mut rng = StdRng::seed_from_u64(13);
        let mut collectors = [OsCollector::new(TierId::App), OsCollector::new(TierId::Db)];
        for s in samples {
            let mut hpc: [Vec<f64>; 2] = Default::default();
            let mut os: [Vec<f64>; 2] = Default::default();
            for tier in TierId::ALL {
                let ts = s.tier(tier);
                let counters = hpc_model.sample(tier, ts, s.interval_s, &mut rng);
                hpc[tier.index()] = DerivedMetrics::from_sample(&counters).to_features();
                os[tier.index()] = collectors[tier.index()]
                    .sample(ts, s.interval_s, &mut rng)
                    .values()
                    .to_vec();
            }
            let a = inline.push_sample(s.clone());
            let b = external.push_collected(s, hpc, os);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "externally collected metrics diverged from inline synthesis"
            );
        }
        assert_eq!(inline.decisions_made(), 2);
        assert_eq!(external.decisions_made(), 2);
    }
}
