//! # webcap-fleet
//!
//! Sharded multi-collector telemetry fleet with a deterministic global
//! merge.
//!
//! One collector per site stops scaling when the fleet of monitored
//! tiers grows; this crate shards the telemetry plane across `K`
//! collectors without giving up a byte of the project's determinism
//! contract:
//!
//! * [`ShardMap`] — seeded rendezvous hashing assigns each `(tier,
//!   replica)` agent to its collector; a pure function of `(seed, K,
//!   agent)`, independent of which other agents exist, with minimal
//!   disruption when `K` changes (pinned by `tests/shard_props.rs`).
//! * [`TierDigester`] / [`FleetCollector`] — each collector digests its
//!   shard into compact per-window [`webcap_net::TierWindowDigest`]s
//!   with `webcap-net`'s reassembly core — the one implementation of
//!   the reassembly and quarantine rules, which the unsharded
//!   collector is built from too — batched into sequenced
//!   [`webcap_net::DigestFrame`]s stamped with the PR 4 supervisor's
//!   health.
//! * [`MergeNode`] — the front end assembles digests into the global
//!   per-window view and scores it with the capacity meter. Ingestion
//!   only touches keyed commutative state, so the outcome is a pure
//!   function of the *set* of frames: byte-identical regardless of `K`,
//!   digest arrival order, or worker count. SafeMode frames poison
//!   their windows instead of being trusted; conflicting ownership
//!   claims quarantine the window.
//! * [`run_fleet`] — the in-process harness: it runs the sharded
//!   collectors over a scripted sample stream (scripted per-tier fault
//!   schedules, an optional [`FleetChaos`] crash-and-resume of one
//!   collector), encodes their back-haul and merges it.
//!
//! The headline invariant, enforced end to end by the fleet equivalence
//! suite in `webcap-capsearch`: for every capacity-search scenario, a
//! fleet at `K = 2` or `K = 4` produces the same capacity, the same
//! bottleneck attribution, and the same poisoned-window sets as the
//! single-collector pipeline — including under a chaos schedule that
//! kills and resumes a collector mid-run.

// The invariant bans of DESIGN §8: determinism (configured in the root
// `clippy.toml`), no panic site in library code.
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
    )
)]

pub mod digest;
pub mod harness;
pub mod merge;
pub mod shard;
pub mod topology;

pub use digest::{FleetCollector, FleetCollectorState};
pub use harness::{run_fleet, CollectorSummary, FleetChaos, FleetError, FleetOutcome};
pub use merge::{MergeNode, MergeOutcome};
pub use shard::{AgentId, ShardMap};
pub use topology::FleetTopology;
pub use webcap_net::{DigesterState, TierDigester};
