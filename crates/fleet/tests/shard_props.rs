//! Property pins for the rendezvous shard map: total, balanced,
//! independent of the agent set, and minimally disruptive under
//! collector add/remove.
//!
//! Each property runs [`CASES`] cases, one per generator seed; a failing
//! assertion names the seed, which reproduces the case.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap_fleet::{AgentId, ShardMap};
use webcap_sim::TierId;

const CASES: u64 = 256;

/// A synthetic roster: both tiers, `replicas` replicas each.
fn roster(replicas: u32) -> Vec<AgentId> {
    (0..replicas)
        .flat_map(|r| {
            TierId::ALL.map(|t| AgentId {
                tier: t,
                replica: r,
            })
        })
        .collect()
}

/// Total: every agent gets exactly one owner, and it is in range.
#[test]
fn every_agent_has_one_in_range_owner() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.random_range(1u32..=8);
        let map = ShardMap::new(rng.random(), k);
        for a in roster(rng.random_range(1u32..=64)) {
            let owner = map.owner(a);
            assert!(
                owner < k,
                "seed {seed}: owner {owner} out of range for K={k}"
            );
            assert_eq!(map.owner(a), owner, "seed {seed}: owner must be stable");
        }
    }
}

/// Balance: over a large roster, no collector is empty and no
/// collector holds more than three times its fair share (a loose
/// bound — binomial concentration puts the true load ~10σ inside
/// it, so no seed in the search space can plausibly violate it).
#[test]
fn load_is_balanced_within_a_loose_bound() {
    let agents = roster(96); // 192 agents
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.random_range(2u32..=8);
        let load = ShardMap::new(rng.random(), k).load(&agents);
        assert_eq!(load.len(), k as usize, "seed {seed}");
        let fair = agents.len() as u32 / k;
        for (c, &n) in load.iter().enumerate() {
            assert!(
                n > 0,
                "seed {seed}: collector {c} owns nothing (load {load:?})"
            );
            assert!(
                n <= 3 * fair,
                "seed {seed}: collector {c} owns {n} of {} (fair {fair}, load {load:?})",
                agents.len()
            );
        }
    }
}

/// Independence: an agent's owner is a function of `(seed, K,
/// agent)` alone — computing it through a different roster (or no
/// roster at all) changes nothing.
#[test]
fn owner_ignores_the_rest_of_the_roster() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = ShardMap::new(rng.random(), rng.random_range(1u32..=8));
        let agent = AgentId {
            tier: if rng.random() {
                TierId::Db
            } else {
                TierId::App
            },
            replica: rng.random_range(0u32..=64),
        };
        let direct = map.owner(agent);
        let via_roster: BTreeMap<AgentId, u32> = map.assignments(&roster(65)).into_iter().collect();
        assert_eq!(via_roster.get(&agent).copied(), Some(direct), "seed {seed}");
    }
}

/// Minimal disruption: growing the fleet from K to K+1 collectors
/// only ever moves agents *to* the new collector; everyone else
/// keeps their owner.
#[test]
fn growing_the_fleet_moves_agents_only_to_the_new_collector() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (map_seed, k) = (rng.random(), rng.random_range(1u32..=7));
        let before = ShardMap::new(map_seed, k);
        let after = ShardMap::new(map_seed, k + 1);
        for a in roster(64) {
            let old = before.owner(a);
            let new = after.owner(a);
            assert!(
                new == old || new == k,
                "seed {seed}: agent {a:?} moved {old} -> {new} when collector {k} was added"
            );
        }
    }
}

/// The inverse reading: shrinking from K+1 to K only re-homes the
/// removed collector's agents.
#[test]
fn shrinking_the_fleet_moves_only_the_removed_collectors_agents() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (map_seed, k) = (rng.random(), rng.random_range(1u32..=7));
        let big = ShardMap::new(map_seed, k + 1);
        let small = ShardMap::new(map_seed, k);
        for a in roster(64) {
            if big.owner(a) != k {
                assert_eq!(
                    small.owner(a),
                    big.owner(a),
                    "seed {seed}: agent {a:?} moved although its collector survived"
                );
            }
        }
    }
}
