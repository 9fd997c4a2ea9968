//! The shared deployment input: the steady stream the socket suites
//! carry, the seed their agents and replays synthesize metric rows
//! from, and the JSON form decision streams are compared in.

use webcap_core::{CapacityMeter, OnlineDecision};
use webcap_sim::{Simulation, SystemSample};
use webcap_tpcw::{Mix, TrafficProgram};

/// The deployment-wide seed of the agents and of the in-process replay.
pub const BASE_SEED: u64 = 17;

/// A steady `total`-second run of the meter's own testbed: simulator
/// seed 400, the ordering mix at 60 EBs.
pub fn steady_run(meter: &CapacityMeter, total: usize) -> Vec<SystemSample> {
    let mut sim = meter.config().sim.clone();
    sim.seed = 400;
    let program = TrafficProgram::steady(Mix::ordering(), 60, total as f64);
    let samples = Simulation::new(sim, program).run().samples;
    assert_eq!(samples.len(), total);
    samples
}

/// A decision stream as byte-identity checks compare it.
pub fn decisions_json(decisions: &[(i64, OnlineDecision)]) -> String {
    serde_json::to_string(decisions).expect("decisions serialize")
}
