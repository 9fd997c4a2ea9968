//! Deterministic agent-to-collector sharding.
//!
//! A fleet topology assigns each telemetry agent — identified by its
//! `(tier, replica)` pair — to one of `K` collectors. The assignment is
//! **rendezvous hashing** (highest random weight): every `(collector,
//! agent)` pair gets a seeded hash weight, and the agent belongs to the
//! collector with the largest weight. The map is therefore a pure
//! function of `(seed, K, agent)` with the two properties the fleet's
//! determinism contract needs:
//!
//! * **independence** — one agent's owner never depends on which other
//!   agents exist, so adding or removing replicas moves nobody else;
//! * **minimal disruption** — growing the fleet from `K` to `K + 1`
//!   collectors only ever moves agents *to* the new collector (an
//!   existing pair's weight is unchanged, so an old collector can win
//!   an agent it previously lost only if the set of candidates shrank).
//!
//! Both properties are pinned by `tests/shard_props.rs`.

use serde::{Deserialize, Serialize};
use webcap_sim::TierId;

/// Identity of one telemetry agent in a fleet topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AgentId {
    /// The tier the agent measures.
    pub tier: TierId,
    /// Replica index within the tier (0 until multi-replica
    /// aggregation lands).
    pub replica: u32,
}

impl AgentId {
    /// The `(tier, replica = 0)` agent — the only replica the current
    /// aggregation model supports.
    pub fn primary(tier: TierId) -> AgentId {
        AgentId { tier, replica: 0 }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continued from `h`, with a separator byte so
/// adjacent fields cannot alias (`[1, 2] ++ [3]` vs `[1] ++ [2, 3]`).
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    (h ^ 0x1f).wrapping_mul(FNV_PRIME)
}

/// Finalizing avalanche (splitmix-style) so the rendezvous comparison
/// sees well-mixed high bits, not FNV's weak ones.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The rendezvous weight of `(collector, agent)` under `seed`.
fn weight(seed: u64, collector: u32, agent: AgentId) -> u64 {
    let mut h = FNV_OFFSET;
    h = fold(h, &seed.to_le_bytes());
    h = fold(h, &collector.to_le_bytes());
    h = fold(h, &[agent.tier.index() as u8]);
    h = fold(h, &agent.replica.to_le_bytes());
    avalanche(h)
}

/// Seeded rendezvous shard map over `K` collectors. Copyable pure
/// state: owning a `ShardMap` is owning the function, not a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    seed: u64,
    collectors: u32,
}

impl ShardMap {
    /// A map over `collectors` shards (clamped to at least one) under
    /// `seed`.
    pub fn new(seed: u64, collectors: u32) -> ShardMap {
        ShardMap {
            seed,
            collectors: collectors.max(1),
        }
    }

    /// Number of collectors in the map.
    pub fn collectors(&self) -> u32 {
        self.collectors
    }

    /// The topology seed the weights derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The collector owning `agent`: the highest-weight candidate, ties
    /// broken toward the lowest collector index (strict-greater scan).
    pub fn owner(&self, agent: AgentId) -> u32 {
        let mut best = 0u32;
        let mut best_weight = weight(self.seed, 0, agent);
        for c in 1..self.collectors {
            let w = weight(self.seed, c, agent);
            if w > best_weight {
                best_weight = w;
                best = c;
            }
        }
        best
    }

    /// Owner of every agent, in the given order.
    pub fn assignments(&self, agents: &[AgentId]) -> Vec<(AgentId, u32)> {
        agents.iter().map(|&a| (a, self.owner(a))).collect()
    }

    /// Per-collector agent counts over `agents`.
    pub fn load(&self, agents: &[AgentId]) -> Vec<u32> {
        let mut counts = vec![0u32; self.collectors as usize];
        for &a in agents {
            if let Some(slot) = counts.get_mut(self.owner(a) as usize) {
                *slot += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_collector_owns_everything() {
        let map = ShardMap::new(7, 1);
        for tier in TierId::ALL {
            for replica in 0..16 {
                assert_eq!(map.owner(AgentId { tier, replica }), 0);
            }
        }
    }

    #[test]
    fn zero_collectors_clamps_to_one() {
        let map = ShardMap::new(7, 0);
        assert_eq!(map.collectors(), 1);
        assert_eq!(map.owner(AgentId::primary(TierId::App)), 0);
    }

    #[test]
    fn owner_is_stable_across_calls() {
        let map = ShardMap::new(31, 4);
        let a = AgentId::primary(TierId::Db);
        assert_eq!(map.owner(a), map.owner(a));
        assert_eq!(ShardMap::new(31, 4).owner(a), map.owner(a));
    }

    #[test]
    fn seed_changes_the_map_somewhere() {
        // Over enough agents, two seeds must disagree on at least one
        // owner (collision of all 64 assignments is astronomically
        // unlikely and would indicate a degenerate hash).
        let a = ShardMap::new(1, 4);
        let b = ShardMap::new(2, 4);
        let agents: Vec<AgentId> = (0..32)
            .flat_map(|r| {
                TierId::ALL.map(|t| AgentId {
                    tier: t,
                    replica: r,
                })
            })
            .collect();
        assert_ne!(a.assignments(&agents), b.assignments(&agents));
    }
}
