//! Admission control: the paper's motivating application. A front-end
//! controller uses the capacity meter's online overload predictions to
//! regulate how many client sessions are admitted, and we compare response
//! times and throughput with and without control under a flash crowd.
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```

use webcap::core::admission::run_admission_experiment;
use webcap::core::{CapacityMeter, MeterConfig};
use webcap::ml::FitError;
use webcap::tpcw::Mix;

fn main() -> Result<(), FitError> {
    println!("training the capacity meter...");
    let config = MeterConfig::small_for_tests(3);
    let mut meter = CapacityMeter::train(&config)?;

    // A flash crowd: 60% more sessions than the ordering-mix capacity.
    let mix = Mix::ordering();
    let offered = webcap::core::workloads::estimate_saturation_ebs(&config.sim, &mix) * 16 / 10;
    let segments = 14;

    println!("\nflash crowd of {offered} sessions against the ordering-mix capacity\n");

    println!("-- without admission control --");
    let uncontrolled = run_admission_experiment(&mut meter, &mix, offered, segments, false, 900);
    print_trace(&uncontrolled);

    println!("\n-- with AIMD admission control driven by the meter --");
    let controlled = run_admission_experiment(&mut meter, &mix, offered, segments, true, 900);
    print_trace(&controlled);

    println!("\n-- comparison --");
    println!(
        "mean response time : {:.2}s uncontrolled vs {:.2}s controlled",
        uncontrolled.mean_response_time_s(),
        controlled.mean_response_time_s()
    );
    println!(
        "mean throughput    : {:.1} req/s uncontrolled vs {:.1} req/s controlled",
        uncontrolled.mean_throughput(),
        controlled.mean_throughput()
    );
    println!(
        "overloaded segments: {:.0}% uncontrolled vs {:.0}% controlled",
        uncontrolled.overload_fraction() * 100.0,
        controlled.overload_fraction() * 100.0
    );
    Ok(())
}

fn print_trace(outcome: &webcap::core::admission::AdmissionOutcome) {
    println!(
        "{:<6} {:>9} {:>11} {:>10} {:>9} {:>9}",
        "seg", "admitted", "predicted", "actual", "thr", "mean rt"
    );
    for s in &outcome.segments {
        println!(
            "{:<6} {:>9} {:>11} {:>10} {:>9.1} {:>8.2}s",
            s.segment,
            s.admitted_ebs,
            if s.predicted_overload {
                "OVERLOAD"
            } else {
                "ok"
            },
            if s.actual_overload { "OVERLOAD" } else { "ok" },
            s.throughput,
            s.mean_response_time_s
        );
    }
}
