//! Shared infrastructure for the paper-reproduction benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper and prints the measured rows next to the values the paper
//! reports (recorded in `EXPERIMENTS.md`). This library holds the pieces
//! they share: calibrated workload programs, instance collection, table
//! formatting, and a scoped-thread parallel map for embarrassingly
//! parallel experiment grids.
//!
//! Set `WEBCAP_BENCH_SCALE` (default `1.0`) to shrink simulated durations
//! for quick smoke runs, e.g. `WEBCAP_BENCH_SCALE=0.3 cargo bench`.

use webcap_core::monitor::{collect_run, WindowInstance};
use webcap_core::oracle::OracleConfig;
use webcap_core::workloads;
use webcap_hpc::HpcModel;
use webcap_parallel::Parallelism;
use webcap_sim::SimConfig;
use webcap_tpcw::{Mix, MixId, TrafficProgram};

/// Window length (seconds/samples) used by all experiments — the paper's
/// 30-second instance aggregation.
pub const WINDOW_LEN: usize = 30;
/// Stride between training windows (overlapping, for more instances).
pub const TRAIN_STRIDE: usize = 10;
/// Stride between evaluation windows (disjoint, like the paper).
pub const TEST_STRIDE: usize = 30;

/// Duration scale from `WEBCAP_BENCH_SCALE` (default 1.0, clamped to
/// `[0.05, 10]`).
pub fn bench_scale() -> f64 {
    std::env::var("WEBCAP_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(1.0, |v| v.clamp(0.05, 10.0))
}

/// The four test workloads of the paper's evaluation (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestWorkload {
    /// Ordering-mix knee-crossing ramp.
    Ordering,
    /// Browsing-mix knee-crossing ramp.
    Browsing,
    /// Alternating browsing/ordering under- and overload phases.
    Interleaved,
    /// Perturbed blended mix unseen during training.
    Unknown,
}

impl TestWorkload {
    /// All four, in the paper's figure order.
    pub const ALL: [TestWorkload; 4] = [
        TestWorkload::Ordering,
        TestWorkload::Browsing,
        TestWorkload::Interleaved,
        TestWorkload::Unknown,
    ];

    /// Axis label used in Figure 4.
    pub fn label(&self) -> &'static str {
        match self {
            TestWorkload::Ordering => "Ordering",
            TestWorkload::Browsing => "Browsing",
            TestWorkload::Interleaved => "Interleaved",
            TestWorkload::Unknown => "Unknown",
        }
    }

    /// Build the traffic program for this workload.
    pub fn program(&self, cfg: &SimConfig, scale: f64) -> TrafficProgram {
        match self {
            TestWorkload::Ordering => workloads::test_ramp(cfg, &Mix::ordering(), scale),
            TestWorkload::Browsing => workloads::test_ramp(cfg, &Mix::browsing(), scale),
            TestWorkload::Interleaved => workloads::interleaved_test(cfg, scale),
            TestWorkload::Unknown => workloads::unknown_test(cfg, scale, 0xBADC0DE),
        }
    }
}

/// Collect labeled training instances for one representative mix
/// (ramp + spike program, overlapping windows).
pub fn training_instances(
    mix: MixId,
    cfg: &SimConfig,
    scale: f64,
    metrics_seed: u64,
) -> Vec<WindowInstance> {
    let mix_obj = match mix {
        MixId::Ordering => Mix::ordering(),
        MixId::Browsing => Mix::browsing(),
        MixId::Shopping => Mix::shopping(),
        MixId::Custom => workloads::unknown_mix(metrics_seed),
    };
    let program = workloads::training_program(cfg, &mix_obj, scale);
    let log = collect_run(cfg, &program, &HpcModel::testbed(), metrics_seed);
    log.windows(WINDOW_LEN, TRAIN_STRIDE, &OracleConfig::default())
}

/// Collect labeled evaluation instances for one test workload (disjoint
/// windows).
pub fn test_instances(
    workload: TestWorkload,
    cfg: &SimConfig,
    scale: f64,
    metrics_seed: u64,
) -> Vec<WindowInstance> {
    let program = workload.program(cfg, scale);
    let log = collect_run(cfg, &program, &HpcModel::testbed(), metrics_seed);
    log.windows(WINDOW_LEN, TEST_STRIDE, &OracleConfig::default())
}

/// Render a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<width$}  ",
                cell,
                width = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Map `inputs` through `f` on scoped worker threads, preserving order.
/// The grid experiments (32 synopses of Table I, the ablation sweep) are
/// embarrassingly parallel.
///
/// A thin wrapper over the workspace-wide deterministic fan-out
/// ([`webcap_parallel::par_map`]) at [`Parallelism::Auto`], which honours
/// the `WEBCAP_JOBS` environment variable.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    webcap_parallel::par_map(Parallelism::Auto, inputs, f)
}

/// Format a balanced accuracy as the paper prints it (three decimals).
pub fn ba3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_and_clamps() {
        // Default when unset (other tests may set it — accept any valid value).
        let s = bench_scale();
        assert!((0.05..=10.0).contains(&s));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_fine() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn workload_programs_build() {
        let cfg = SimConfig::testbed(0);
        for w in TestWorkload::ALL {
            let p = w.program(&cfg, 0.2);
            assert!(p.duration_s() > 0.0, "{}", w.label());
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ba3(0.9567), "0.957");
        assert_eq!(pct(0.905), "90.5");
    }
}
