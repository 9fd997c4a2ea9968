//! The capacity suites' shared meter.

use std::sync::OnceLock;

use webcap_core::{CapacityMeter, MeterConfig};

/// The training seed of the shared test meter.
pub const METER_SEED: u64 = 31;

/// `MeterConfig::small_for_tests(METER_SEED)`, trained once per test
/// binary.
pub fn meter() -> &'static CapacityMeter {
    static METER: OnceLock<CapacityMeter> = OnceLock::new();
    METER.get_or_init(|| {
        CapacityMeter::train(&MeterConfig::small_for_tests(METER_SEED)).expect("meter trains")
    })
}
