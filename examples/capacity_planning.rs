//! Capacity planning: stress-test the simulated testbed under each TPC-W
//! mix, find the saturation knee, and report per-mix capacity with the
//! productivity-index evidence — the offline usage of the paper's
//! machinery.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use webcap::core::monitor::collect_run;
use webcap::core::oracle::{label_window, OracleConfig};
use webcap::core::pi::select_pi;
use webcap::core::workloads;
use webcap::hpc::{DerivedMetrics, HpcModel};
use webcap::sim::{SimConfig, TierId};
use webcap::tpcw::{Mix, TrafficProgram};

struct MixPlan {
    name: &'static str,
    mix: Mix,
}

fn main() {
    let cfg = SimConfig::testbed(11);
    let oracle = OracleConfig::default();
    let plans = [
        MixPlan {
            name: "Browsing (95/5)",
            mix: Mix::browsing(),
        },
        MixPlan {
            name: "Shopping (80/20)",
            mix: Mix::shopping(),
        },
        MixPlan {
            name: "Ordering (50/50)",
            mix: Mix::ordering(),
        },
    ];

    println!("capacity plan for the default two-tier testbed\n");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "mix", "est req/s", "knee EBs", "meas. knee", "peak thr", "PI at knee"
    );

    for plan in &plans {
        let est_rps = workloads::estimate_capacity_rps(&cfg, &plan.mix);
        let est_knee = workloads::estimate_saturation_ebs(&cfg, &plan.mix);

        // Stress test: ramp from 30% to 170% of the estimated knee and
        // find the first overloaded window.
        let program = TrafficProgram::ramp(
            plan.mix.clone(),
            est_knee * 3 / 10,
            est_knee * 17 / 10,
            420.0,
        );
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), 77);
        let mut measured_knee_ebs = None;
        let mut peak_thr: f64 = 0.0;
        for start in (0..log.samples.len().saturating_sub(30)).step_by(30) {
            let slice = &log.samples[start..start + 30];
            let label = label_window(slice, &oracle);
            let thr = slice.iter().map(|s| s.front.completed).sum::<u64>() as f64 / 30.0;
            peak_thr = peak_thr.max(thr);
            if label.overloaded && measured_knee_ebs.is_none() {
                measured_knee_ebs = Some(slice[0].front.ebs_target);
            }
        }

        // PI evidence on the bottleneck tier.
        let tier = if plan.mix.browse_fraction() > 0.7 {
            TierId::Db
        } else {
            TierId::App
        };
        let window = 30;
        let thr_series: Vec<f64> = log
            .throughput_series()
            .chunks(window)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let metrics: Vec<DerivedMetrics> = log.hpc[tier.index()]
            .chunks(window)
            .map(DerivedMetrics::mean)
            .collect();
        let pi_sel = select_pi(&metrics, &thr_series);

        println!(
            "{:<18} {:>10.1} {:>10} {:>12} {:>10.1} {:>14}",
            plan.name,
            est_rps,
            est_knee,
            measured_knee_ebs.map_or("none".to_string(), |e| e.to_string()),
            peak_thr,
            format!("{}", pi_sel.definition),
        );
    }

    println!("\nnotes:");
    println!("  - 'est req/s' is the analytic bottleneck service rate for the mix;");
    println!("  - 'meas. knee' is the EB population of the first overloaded 30s window;");
    println!("  - 'PI at knee' is the yield/cost pair selected by Corr (Eq. 2).");
}
