//! Level-aware collection against the full-width log.
//!
//! Training and evaluation synthesize only the metric family their
//! meter's level reads (`collect_run_for`); the other family's draws are
//! stepped past on the shared stream. This test holds that path to the
//! full `collect_run` at every level: the features a level reads are the
//! full log's bit for bit and the features it does not read are absent.
//! Training is a deterministic function of its windows, so a meter
//! trained on level windows is the one full-width windows would induce.

use webcap_core::{
    collect_run, collect_run_for, workloads, MeterConfig, MetricLevel, RunLog, WindowInstance,
};
use webcap_sim::TierId;
use webcap_tpcw::Mix;

const SEEDS: [u64; 2] = [1, 31];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn level_windows_carry_the_full_logs_features_for_their_family() {
    for level in MetricLevel::EXTENDED {
        for seed in SEEDS {
            let config = MeterConfig::small_for_tests(seed).with_level(level);
            let (sim, model) = (&config.sim, &config.hpc_model);
            for mix in [Mix::ordering(), Mix::browsing()] {
                let program = workloads::test_ramp(sim, &mix, config.duration_scale);
                let windows = |log: RunLog| {
                    log.windows(config.window_len, config.train_stride, &config.oracle)
                };
                let full = windows(collect_run(sim, &program, model, config.metrics_seed));
                let part = windows(collect_run_for(
                    sim,
                    &program,
                    model,
                    config.metrics_seed,
                    level,
                ));
                assert_eq!(part.len(), full.len(), "{level} seed {seed}");
                assert!(
                    full.iter().any(WindowInstance::overloaded)
                        && !full.iter().all(WindowInstance::overloaded),
                    "{level} seed {seed}: the ramp must cross the knee"
                );
                for (i, (p, f)) in part.iter().zip(&full).enumerate() {
                    assert_eq!(p.label, f.label, "{level} seed {seed} window {i}");
                    assert_eq!(p.mix, f.mix);
                    assert_eq!(p.throughput.to_bits(), f.throughput.to_bits());
                    for tier in TierId::ALL {
                        for read in MetricLevel::EXTENDED {
                            let want = if level == MetricLevel::Combined || read == level {
                                bits(f.features(read, tier))
                            } else {
                                Vec::new()
                            };
                            assert_eq!(
                                bits(p.features(read, tier)),
                                want,
                                "{level} seed {seed} window {i}: {read} features of {tier}"
                            );
                        }
                    }
                }
            }
        }
    }
}
