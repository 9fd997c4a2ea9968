//! The plane's window contract (DESIGN §6.3), checked in one place: a
//! system window is decided only if both tiers delivered all of it, and
//! then exactly as `replay_windows` decides it.
//!
//! Included beside `common/stream.rs`, declared as `stream`.

use std::collections::BTreeSet;

use webcap_core::CapacityMeter;
use webcap_net::{
    predicted_windows, replay_windows, CollectorConfig, FaultSchedule, SupervisedReport,
};
use webcap_sim::SystemSample;

use crate::stream::{decisions_json, BASE_SEED};

/// Hold a collector's `report` over `samples`, its agents having run
/// `schedules` (one per tier, in `TierId::ALL` order), to the two-tier
/// oracle: exactly the predicted survivors decided, none of them
/// poisoned, exactly the predicted windows quarantined, and decisions
/// byte-identical (JSON) to the in-process replay of the survivors.
/// Returns `(survivors, poisoned)`.
pub fn plane_matches_the_oracle(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    report: &SupervisedReport,
    schedules: &[FaultSchedule; 2],
) -> (BTreeSet<i64>, BTreeSet<i64>) {
    let (survivors, poisoned) = predicted_windows(
        samples.len() as u64,
        schedules,
        meter.config().window_len,
        CollectorConfig::default().window_origin,
    );

    let emitted: BTreeSet<i64> = report.decisions.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        emitted, survivors,
        "exactly the windows the fault schedules leave intact emit"
    );
    assert!(
        emitted.is_disjoint(&poisoned),
        "no prediction ever comes from a gapped window"
    );
    let quarantined: BTreeSet<i64> = report.poisoned_windows.iter().copied().collect();
    assert_eq!(
        quarantined, poisoned,
        "the collector quarantined exactly the predicted windows"
    );

    let baseline = replay_windows(meter, samples, BASE_SEED, &survivors);
    assert_eq!(
        decisions_json(&report.decisions),
        decisions_json(&baseline),
        "supervision never alters the decision stream: surviving-window \
         predictions are byte-identical to the in-process replay"
    );
    (survivors, poisoned)
}
