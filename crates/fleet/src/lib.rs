//! # webcap-fleet
//!
//! Sharded multi-collector telemetry fleet with a deterministic global
//! merge.
//!
//! The paper deploys one collector; this crate shards the telemetry
//! plane across `K` collectors without giving up a byte of the
//! project's determinism contract. It is the benchmark's socket-free
//! `fleet_k2` control; no other crate's library links it:
//!
//! * [`ShardMap`] — seeded rendezvous hashing assigns each `(tier,
//!   replica)` agent to its collector; a pure function of `(seed, K,
//!   agent)`, independent of which other agents exist, with minimal
//!   disruption when `K` changes (pinned by `tests/shard_props.rs`).
//! * [`FleetCollector`] — each collector digests its shard into compact
//!   per-window [`webcap_net::TierWindowDigest`]s with `webcap-net`'s
//!   reassembly core ([`webcap_net::TierDigester`]) — the one
//!   implementation of the reassembly and quarantine rules, which the
//!   unsharded collector is built from too — batched into sequenced
//!   [`webcap_net::DigestFrame`]s stamped with the supervisor's health.
//! * [`MergeNode`] — the front end assembles digests into the global
//!   per-window view and scores it with the capacity meter. Ingestion
//!   only touches keyed commutative state, so the outcome is a pure
//!   function of the *set* of frames: byte-identical regardless of `K`,
//!   digest arrival order, or worker count. SafeMode frames poison
//!   their windows instead of being trusted; conflicting ownership
//!   claims quarantine the window.
//! * [`run_fleet`] — the in-process harness: it runs the sharded
//!   collectors over a scripted sample stream (scripted per-tier fault
//!   schedules), encodes their back-haul and merges it.
//!
//! The headline invariant, enforced by this crate's `tests/fleet.rs`:
//! a fleet at `K = 1`, `2` or `4` produces the same decision stream and
//! the same poisoned-window set as the replay oracle of the
//! single-collector pipeline, below and above capacity.

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

pub use digest::FleetCollector;
pub use harness::{run_fleet, CollectorSummary, FleetError, FleetOutcome};
pub use merge::{MergeNode, MergeOutcome};
pub use shard::{AgentId, ShardMap};
pub use topology::FleetTopology;
