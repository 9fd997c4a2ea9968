//! The synthetic wire sample the socket and reassembly suites share, so
//! their fixed rows and front-end statistics cannot drift apart.

use webcap_net::{AppStats, WireSample};
use webcap_sim::{RtHistogram, TierSample};
use webcap_tpcw::MixId;

/// A well-formed sample for sequence `seq` (key `seq + 1` under
/// origin 1) with fixed metric rows, carrying the application tier's
/// front-end statistics when `with_app`.
pub fn wire(seq: u64, with_app: bool) -> WireSample {
    WireSample {
        seq,
        t_s: seq as f64 + 1.0,
        interval_s: 1.0,
        tier: TierSample {
            utilization: 0.3,
            delivered_work_s: 0.3,
            arrivals: 20,
            completions: 20,
            ..TierSample::default()
        },
        hpc: vec![0.5; 12],
        os: vec![0.1; 64],
        app: with_app.then(|| AppStats {
            ebs_target: 10,
            ebs_active: 10,
            mix_id: MixId::Ordering,
            issued: 20,
            issued_browse: 10,
            completed: 20,
            completed_browse: 10,
            response_time_sum_s: 2.0,
            response_time_max_s: 0.4,
            in_flight: 1,
            response_times: RtHistogram::new(),
        }),
    }
}
