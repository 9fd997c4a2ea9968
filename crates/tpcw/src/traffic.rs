//! Traffic programs: the EB population and mix as functions of time.
//!
//! The paper's training traffic is a *ramp-up* (gradually increasing
//! concurrent sessions until overload) followed by *spike* workloads
//! (occasional extreme bursts); its testing traffic adds an *interleaved*
//! mix switching between browsing and ordering, and an *unknown* mix. A
//! [`TrafficProgram`] is a sequence of [`Phase`]s, each holding a mix and a
//! shape for the EB count over the phase duration.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::mix::Mix;

/// How the EB population evolves within a phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PopulationShape {
    /// Constant population.
    Steady {
        /// Number of EBs.
        ebs: u32,
    },
    /// Linear ramp from `from` to `to` EBs across the phase.
    Ramp {
        /// Population at phase start.
        from: u32,
        /// Population at phase end.
        to: u32,
    },
}

/// One contiguous phase of a traffic program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Mix active during this phase.
    pub mix: Mix,
    /// Population shape during this phase.
    pub shape: PopulationShape,
    /// Phase duration in seconds.
    pub duration_s: f64,
}

impl Phase {
    fn ebs_at(&self, t_in_phase: f64) -> u32 {
        match self.shape {
            PopulationShape::Steady { ebs } => ebs,
            PopulationShape::Ramp { from, to } => {
                let frac = (t_in_phase / self.duration_s).clamp(0.0, 1.0);
                let v = f64::from(from) + frac * (f64::from(to) - f64::from(from));
                v.round() as u32
            }
        }
    }
}

/// Snapshot of the traffic program at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    /// Target number of concurrent emulated browsers.
    pub ebs: u32,
    /// Active mix.
    pub mix: Mix,
    /// Index of the active phase.
    pub phase_index: usize,
}

/// A piecewise traffic program: phases executed back to back. After the
/// last phase ends the final phase's end state persists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficProgram {
    phases: Vec<Phase>,
}

impl TrafficProgram {
    /// A program from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has a non-positive
    /// duration.
    pub fn new(phases: Vec<Phase>) -> TrafficProgram {
        assert!(
            !phases.is_empty(),
            "a traffic program needs at least one phase"
        );
        for (i, p) in phases.iter().enumerate() {
            assert!(
                p.duration_s > 0.0 && p.duration_s.is_finite(),
                "phase {i} has non-positive duration"
            );
        }
        TrafficProgram { phases }
    }

    /// A single steady phase.
    pub fn steady(mix: Mix, ebs: u32, duration_s: f64) -> TrafficProgram {
        TrafficProgram::new(vec![Phase {
            mix,
            shape: PopulationShape::Steady { ebs },
            duration_s,
        }])
    }

    /// A single linear ramp — the paper's ramp-up training workload.
    pub fn ramp(mix: Mix, from: u32, to: u32, duration_s: f64) -> TrafficProgram {
        TrafficProgram::new(vec![Phase {
            mix,
            shape: PopulationShape::Ramp { from, to },
            duration_s,
        }])
    }

    /// Append a steady phase.
    pub fn then_steady(mut self, mix: Mix, ebs: u32, duration_s: f64) -> TrafficProgram {
        self.phases.push(Phase {
            mix,
            shape: PopulationShape::Steady { ebs },
            duration_s,
        });
        self
    }

    /// Append a ramp phase starting from the previous phase's final
    /// population.
    pub fn then_ramp(mut self, mix: Mix, to: u32, duration_s: f64) -> TrafficProgram {
        let from = self.final_ebs();
        self.phases.push(Phase {
            mix,
            shape: PopulationShape::Ramp { from, to },
            duration_s,
        });
        self
    }

    /// Append a spike phase: an abrupt jump to `ebs` — the paper's
    /// occasional extreme traffic burst.
    pub fn then_spike(self, mix: Mix, ebs: u32, duration_s: f64) -> TrafficProgram {
        self.then_steady(mix, ebs, duration_s)
    }

    /// The paper's *interleaved* test workload: alternate between two
    /// (mix, population) configurations every `period_s` for `cycles`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or `period_s <= 0`.
    pub fn interleaved(
        a: (Mix, u32),
        b: (Mix, u32),
        period_s: f64,
        cycles: usize,
    ) -> TrafficProgram {
        assert!(cycles > 0, "need at least one cycle");
        assert!(period_s > 0.0, "period must be positive");
        let mut phases = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            phases.push(Phase {
                mix: a.0.clone(),
                shape: PopulationShape::Steady { ebs: a.1 },
                duration_s: period_s,
            });
            phases.push(Phase {
                mix: b.0.clone(),
                shape: PopulationShape::Steady { ebs: b.1 },
                duration_s: period_s,
            });
        }
        TrafficProgram::new(phases)
    }

    /// Total program duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Population at the end of the program.
    pub fn final_ebs(&self) -> u32 {
        let last = self.phases.last().expect("programs are non-empty");
        last.ebs_at(last.duration_s)
    }

    /// The traffic state at time `t` seconds from program start. Times
    /// before 0 clamp to the start; times past the end clamp to the final
    /// state.
    pub fn at(&self, t: f64) -> TrafficSnapshot {
        let mut remaining = t.max(0.0);
        for (i, p) in self.phases.iter().enumerate() {
            if remaining < p.duration_s || i == self.phases.len() - 1 {
                return TrafficSnapshot {
                    ebs: p.ebs_at(remaining.min(p.duration_s)),
                    mix: p.mix.clone(),
                    phase_index: i,
                };
            }
            remaining -= p.duration_s;
        }
        unreachable!("loop always returns on the last phase");
    }
}

impl fmt::Display for TrafficProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TrafficProgram[{} phases, {:.0}s]",
            self.phases.len(),
            self.duration_s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ramp_interpolates_linearly() {
        let p = TrafficProgram::ramp(Mix::ordering(), 0, 100, 100.0);
        assert_eq!(p.at(0.0).ebs, 0);
        assert_eq!(p.at(50.0).ebs, 50);
        assert_eq!(p.at(100.0).ebs, 100);
        assert_eq!(p.at(1e9).ebs, 100, "clamps past the end");
    }

    #[test]
    fn phases_chain_and_spike_jumps() {
        let p = TrafficProgram::ramp(Mix::ordering(), 10, 50, 10.0)
            .then_spike(Mix::ordering(), 500, 5.0)
            .then_steady(Mix::ordering(), 50, 10.0);
        assert_eq!(p.at(9.99).phase_index, 0);
        assert_eq!(p.at(12.0).ebs, 500);
        assert_eq!(p.at(20.0).ebs, 50);
        assert!((p.duration_s() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn then_ramp_continues_from_previous_population() {
        let p =
            TrafficProgram::steady(Mix::browsing(), 80, 10.0).then_ramp(Mix::browsing(), 160, 10.0);
        assert_eq!(p.at(10.0).ebs, 80);
        assert_eq!(p.at(20.0).ebs, 160);
    }

    #[test]
    fn interleaved_alternates_mixes() {
        let p =
            TrafficProgram::interleaved((Mix::browsing(), 100), (Mix::ordering(), 200), 30.0, 3);
        assert_eq!(p.phases().len(), 6);
        assert_eq!(p.at(10.0).mix.id(), crate::MixId::Browsing);
        assert_eq!(p.at(40.0).mix.id(), crate::MixId::Ordering);
        assert_eq!(p.at(70.0).mix.id(), crate::MixId::Browsing);
        assert_eq!(p.at(40.0).ebs, 200);
    }

    #[test]
    fn negative_time_clamps_to_start() {
        let p = TrafficProgram::ramp(Mix::shopping(), 5, 10, 10.0);
        assert_eq!(p.at(-3.0).ebs, 5);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_program_panics() {
        let _ = TrafficProgram::new(vec![]);
    }

    #[test]
    fn population_is_always_within_phase_bounds() {
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let from = rng.random_range(0u32..1000);
            let to = rng.random_range(0u32..1000);
            let t = rng.random_range(0.0f64..200.0);
            let p = TrafficProgram::ramp(Mix::shopping(), from, to, 100.0);
            let ebs = p.at(t).ebs;
            let (lo, hi) = (from.min(to), from.max(to));
            assert!(
                ebs >= lo && ebs <= hi,
                "seed {seed}: {ebs} outside {lo}..={hi} at t={t}"
            );
        }
    }
}
