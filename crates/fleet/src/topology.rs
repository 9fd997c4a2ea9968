//! Fleet topology: which agents exist and how many collectors shard
//! them.

use serde::{Deserialize, Serialize};
use webcap_sim::TierId;

use crate::harness::FleetError;
use crate::shard::AgentId;

/// A fleet deployment description: `collectors` shards over the listed
/// agents, with `seed` pinning the rendezvous map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    /// Topology name (reports and transcripts carry it).
    pub name: String,
    /// Seed of the rendezvous shard map.
    pub seed: u64,
    /// Number of collectors.
    pub collectors: u32,
    /// The telemetry agents to shard.
    pub agents: Vec<AgentId>,
}

impl FleetTopology {
    /// The canonical two-agent topology: one application-tier and one
    /// database-tier agent, `collectors` shards.
    pub fn two_tier(name: &str, seed: u64, collectors: u32) -> FleetTopology {
        FleetTopology {
            name: name.to_string(),
            seed,
            collectors,
            agents: vec![AgentId::primary(TierId::App), AgentId::primary(TierId::Db)],
        }
    }

    /// The shape the fleet implements: at least one collector, exactly one
    /// replica-0 agent per tier, no other replicas (multi-replica
    /// aggregation is not implemented), both tiers covered.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.name.is_empty() {
            return Err(FleetError("topology name must not be empty".into()));
        }
        if self.collectors == 0 {
            return Err(FleetError("collectors must be at least 1".into()));
        }
        if self.agents.is_empty() {
            return Err(FleetError("topology lists no agents".into()));
        }
        for (i, a) in self.agents.iter().enumerate() {
            if a.replica != 0 {
                return Err(FleetError(format!(
                    "agent {i} ({}, replica {}): multi-replica aggregation \
                     is not implemented; replica must be 0",
                    a.tier, a.replica
                )));
            }
            if self.agents.iter().take(i).any(|prev| prev == a) {
                return Err(FleetError(format!(
                    "duplicate agent ({}, replica {})",
                    a.tier, a.replica
                )));
            }
        }
        for tier in TierId::ALL {
            if !self.agents.iter().any(|a| a.tier == tier) {
                return Err(FleetError(format!("no agent covers the {tier} tier")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_canonical_topology_is_valid() {
        assert_eq!(FleetTopology::two_tier("x", 1, 2).validate(), Ok(()));
    }

    #[test]
    fn nonzero_replica_is_rejected_with_an_honest_reason() {
        let mut t = FleetTopology::two_tier("x", 1, 2);
        t.agents.push(AgentId {
            tier: TierId::App,
            replica: 1,
        });
        let e = t.validate().unwrap_err();
        assert!(e.0.contains("multi-replica"), "{e}");
    }

    #[test]
    fn missing_tier_coverage_is_rejected() {
        let mut t = FleetTopology::two_tier("x", 1, 2);
        t.agents.pop();
        let e = t.validate().unwrap_err();
        assert!(e.0.contains("DB"), "{e}");
    }

    #[test]
    fn zero_collectors_is_rejected() {
        let t = FleetTopology::two_tier("x", 1, 0);
        assert!(t.validate().is_err());
    }
}
