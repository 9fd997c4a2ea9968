//! The online phase's unit of output: one decision per completed
//! aggregation window.
//!
//! [`CapacityMeter::evaluate_program`](crate::meter::CapacityMeter::evaluate_program)
//! is the batch/offline path (run a whole program, then window it). The
//! online path folds each second into a [`WindowAgg`](crate::WindowAgg)
//! as it arrives and predicts when the window completes — in process
//! (`webcap-net`'s `replay_windows`) or from a collector's pair of tier
//! digests (`webcap-net`'s `score_window`); either way it emits an
//! [`OnlineDecision`].

use serde::{Deserialize, Serialize};

use crate::agg::WindowInstance;
use crate::coordinator::CoordinatedPrediction;

/// One emitted online decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineDecision {
    /// The coordinated prediction for the just-completed window.
    pub prediction: CoordinatedPrediction,
    /// The aggregated window the prediction was made on (its oracle label
    /// is available for post-hoc scoring when ground truth exists).
    pub window: WindowInstance,
}
