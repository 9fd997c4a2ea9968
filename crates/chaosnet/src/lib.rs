//! # webcap-chaosnet — deterministic network chaos mesh
//!
//! The telemetry plane (`webcap-net`) and the fleet back-haul
//! (`webcap-fleet`) both claim strong invariants: a collector never
//! emits a decision from a window touched by loss, and a merge outcome
//! is a pure function of the set of ingested digests. This crate
//! attacks those claims with *seeded, reproducible* network hostility —
//! every fault is a pure function of `(seed, connection, frame index)`,
//! so any divergence is replayable from its seed alone.
//!
//! Three planes of attack:
//!
//! * [`schedule`] — the deterministic fault schedule: per-mille rates
//!   for bit flips, truncations, drops, duplicates, split writes,
//!   stalls, and reorders, plus scripted link partitions; compiled into
//!   the telemetry plane's `FaultSchedule` vocabulary so the loopback
//!   oracle predicts the exact surviving window set.
//! * [`mesh`] — the in-process byte interposer between encoded wire
//!   frames and a supervised collector: every delivered byte passes
//!   through the real incremental frame extractor, every decode failure
//!   kills the session exactly as the real event loop would.
//! * [`fleetmesh`] — the same idea over the fleet digest back-haul,
//!   replaying a captured digest stream into the merge under chaos,
//!   scripted partitions holding a collector's frames until they heal.
//! * [`proxy`] — a real-socket TCP interposer applying outcome-neutral
//!   pacing faults (split writes, stalls), proving the live collector
//!   event loop digests arbitrarily fragmented byte streams without
//!   drift.
//!
//! The headline theorem, enforced by the equivalence suites: for every
//! capacity-search scenario at every fleet width, a seeded chaos
//! schedule produces byte-identical survivor decisions to the unfaulted
//! oracle, with exactly the analytically-predicted quarantine set.

// The invariant bans of DESIGN §8: determinism (configured in the root
// `clippy.toml`), no panic site in library code, and no wildcard arm.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm,
    )
)]

pub mod fleetmesh;
pub mod mesh;
pub mod proxy;
pub mod schedule;

pub use fleetmesh::{merge_stream, without_frames, LostFrame};
pub use mesh::{run_net_mesh, MeshError, MeshOutcome};
pub use proxy::{spawn_chaos_proxy, ProxyHandle};
pub use schedule::{corrupt_frame, ChaosProfile, ChaosSchedule, FrameFault, Partition};
