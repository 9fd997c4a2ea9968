//! Fleet topology: how many collectors shard the two tiers' agents.

use crate::harness::FleetError;

/// A fleet deployment description: `collectors` shards over one agent
/// per tier, with `seed` pinning the rendezvous map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTopology {
    /// Topology name; must not be empty.
    pub name: String,
    /// Seed of the rendezvous shard map.
    pub seed: u64,
    /// Number of collectors.
    pub collectors: u32,
}

impl FleetTopology {
    /// The canonical two-agent topology: one application-tier and one
    /// database-tier agent, `collectors` shards.
    pub fn two_tier(name: &str, seed: u64, collectors: u32) -> FleetTopology {
        FleetTopology {
            name: name.to_string(),
            seed,
            collectors,
        }
    }

    /// The shape the fleet implements: a name and at least one
    /// collector.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.name.is_empty() {
            return Err(FleetError("topology name must not be empty".into()));
        }
        if self.collectors == 0 {
            return Err(FleetError("collectors must be at least 1".into()));
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
    fn zero_collectors_is_rejected() {
        let t = FleetTopology::two_tier("x", 1, 0);
        assert!(t.validate().is_err());
    }
}
