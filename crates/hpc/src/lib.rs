//! Hardware performance-counter synthesis for the webcap testbed.
//!
//! The paper collects hardware counter statistics on each tier through the
//! PerfCtr kernel patch and trains performance synopses on them. Lacking
//! physical NetBurst machines, this crate synthesizes counters from
//! simulator tier state with micro-architecturally plausible response
//! surfaces (see [`model`] for the modeling rationale):
//!
//! * [`HpcEvent`] — the NetBurst-flavoured event set.
//! * [`HpcModel`] — turns a [`webcap_sim::TierSample`] into a
//!   [`CounterSample`] of raw counts.
//! * [`DerivedMetrics`] — IPC, L2 miss rate, stall fraction, … — the
//!   attribute values synopses are trained on.
//!
//! Counts are per interval, as the paper's collector gets them by
//! differencing consecutive PerfCtr reads.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use webcap_hpc::{DerivedMetrics, HpcModel};
//! use webcap_sim::{TierId, TierSample};
//!
//! let model = HpcModel::testbed();
//! let tier_state = TierSample { utilization: 0.9, pool_in_use_avg: 12.0, ..Default::default() };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let counters = model.sample(TierId::Db, &tier_state, 1.0, &mut rng);
//! let derived = DerivedMetrics::from_sample(&counters);
//! assert!(derived.ipc > 0.0 && derived.l2_miss_rate < 1.0);
//! ```

// The determinism bans of DESIGN §8 (configured in the root `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod events;
pub mod model;

pub use events::HpcEvent;
pub use model::{CounterSample, DerivedMetrics, HpcModel, TierArch, DERIVED_METRIC_NAMES};
