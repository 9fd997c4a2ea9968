//! The shared test meter: `MeterConfig::small_for_tests(31)`, an HPC
//! meter over 30-sample windows, trained once per test binary.

use webcap_core::{CapacityMeter, MeterConfig};

/// The shared meter, cloned from the one training.
pub fn trained_meter() -> CapacityMeter {
    static METER: std::sync::OnceLock<CapacityMeter> = std::sync::OnceLock::new();
    METER
        .get_or_init(|| {
            CapacityMeter::train(&MeterConfig::small_for_tests(31)).expect("test meter trains")
        })
        .clone()
}
