//! Counter explorer: watch the hardware counters and the sysstat metrics
//! of the DB tier side by side while the load crosses the knee — the
//! raw-data view behind everything else in this repository.
//!
//! ```sh
//! cargo run --release --example counter_explorer
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use webcap::core::workloads;
use webcap::hpc::{DerivedMetrics, HpcEvent, HpcModel};
use webcap::os::OsCollector;
use webcap::sim::{SimConfig, Simulation, TierId};
use webcap::tpcw::{Mix, TrafficProgram};

fn main() {
    let cfg = SimConfig::testbed(23);
    let mix = Mix::browsing();
    let knee = workloads::estimate_saturation_ebs(&cfg, &mix);
    let program = TrafficProgram::ramp(mix, knee / 2, knee * 3 / 2, 300.0);
    println!(
        "ramping browsing mix {}→{} EBs over 300s (knee ≈ {knee})\n",
        knee / 2,
        knee * 3 / 2
    );
    let samples = Simulation::new(cfg, program).run().samples;

    let hpc = HpcModel::testbed();
    let mut os = OsCollector::new(TierId::Db);
    let mut rng = StdRng::seed_from_u64(5);

    println!(
        "{:>5} {:>12} {:>12} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "t", "instr", "cycles", "ipc", "l2miss", "stall", "runq", "%user", "iowait"
    );
    for (i, s) in samples.iter().enumerate() {
        let ts = s.tier(TierId::Db);
        let counters = hpc.sample(TierId::Db, ts, s.interval_s, &mut rng);
        let os_sample = os.sample(ts, s.interval_s, &mut rng);
        if (i + 1) % 30 != 0 {
            continue;
        }
        let derived = DerivedMetrics::from_sample(&counters);
        println!(
            "{:>5.0} {:>12} {:>12} {:>7.3} {:>7.4} {:>7.3} | {:>7.0} {:>7.1} {:>7.1}",
            s.t_s,
            counters.count(HpcEvent::InstructionsRetired),
            counters.count(HpcEvent::CyclesUnhalted),
            derived.ipc,
            derived.l2_miss_rate,
            derived.stall_fraction,
            os_sample.value("runq_sz"),
            os_sample.value("pct_user"),
            os_sample.value("pct_iowait"),
        );
    }
    println!("\nnote how the hardware ratios (ipc, l2miss, stall) keep moving past the");
    println!("knee while %user pegs at ~100 and runq wanders — Table I's level gap.");
}
