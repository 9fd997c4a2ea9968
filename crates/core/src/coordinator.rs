//! The two-level coordinated predictor (Section III-C/D).
//!
//! Modeled after two-level adaptive branch prediction (Yeh & Patt):
//!
//! * **Level 1 — Global Pattern Table (GPT).** The m synopsis predictions
//!   of the current interval form the Global Pattern Vector (GPV), an
//!   m-bit index selecting one of `2^m` GPT rows (the *spatial*,
//!   synopsis-wise pattern).
//! * **Level 2 — Local History Tables (LHTs).** Each GPT row owns an LHT
//!   of `2^h` saturating counters (`Hc`, the Local History Bits) indexed
//!   by a shift register of the last *h* prediction outcomes (the
//!   *temporal* pattern). Training bumps `Hc` by +1 for overloaded
//!   instances and −1 otherwise. The shift register records the majority
//!   vote of the synopsis predictions: an input-derived signal that is
//!   observable both offline and online, so the history distribution seen
//!   in training matches the one seen during prediction (feeding back the
//!   final λ output instead can live-lock inside the φ band).
//! * **Decision.** `λ(Hc) = 1 if Hc > δ; φ(Hc) if |Hc| ≤ δ; 0 if Hc < −δ`
//!   where the tie handler φ is *optimistic* (underload) or *pessimistic*
//!   (overload).
//! * **Bottleneck Pattern Table (BPT).** Per GPV row, one counter per
//!   tier, trained ±1 against the known bottleneck on overloaded
//!   instances; prediction is `argmax_i b_i`, consulted only when the
//!   system state predicts overloaded.

use serde::{Deserialize, Serialize};
use webcap_sim::TierId;

/// Tie-handling scheme φ for `|Hc| ≤ δ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TieScheme {
    /// Predict underload when uncertain (the paper's default).
    Optimistic,
    /// Predict overload when uncertain.
    Pessimistic,
}

/// Coordinator hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// Number of history bits h (the paper evaluates 1–3; default 3).
    pub history_bits: usize,
    /// Confidence threshold δ on `Hc` (the paper uses 5).
    pub delta: i32,
    /// Tie scheme φ.
    pub scheme: TieScheme,
    /// Saturation bound for the `Hc` counters.
    pub counter_clamp: i32,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            history_bits: 3,
            delta: 5,
            scheme: TieScheme::Optimistic,
            counter_clamp: 64,
        }
    }
}

/// A coordinated prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordinatedPrediction {
    /// Final system state: `true` = overload.
    pub overloaded: bool,
    /// `true` when `|Hc| > δ` (outside the uncertainty band).
    pub confident: bool,
    /// Bottleneck tier (populated only when `overloaded`).
    pub bottleneck: Option<TierId>,
    /// The GPV row consulted.
    pub gpv: usize,
    /// The raw `Hc` value consulted.
    pub hc: i32,
}

/// The two-level coordinated predictor with bottleneck identification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinatedPredictor {
    m: usize,
    cfg: CoordinatorConfig,
    /// `lht[gpv][history] = Hc`.
    lht: Vec<Vec<i32>>,
    /// `bpt[gpv][tier] = b_i`.
    bpt: Vec<Vec<i32>>,
    /// Shift register of the last h outcomes (LSB = most recent).
    history: usize,
    history_mask: usize,
    trained_instances: u64,
}

impl CoordinatedPredictor {
    /// Create a predictor for `m` synopses and the two testbed tiers.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `m > 16`, `history_bits == 0` or
    /// `history_bits > 16`, or `delta < 0`.
    pub fn new(m: usize, cfg: CoordinatorConfig) -> CoordinatedPredictor {
        assert!(m > 0 && m <= 16, "supported synopsis counts are 1..=16");
        assert!(
            cfg.history_bits > 0 && cfg.history_bits <= 16,
            "supported history lengths are 1..=16"
        );
        assert!(cfg.delta >= 0, "delta must be nonnegative");
        assert!(cfg.counter_clamp > cfg.delta, "clamp must exceed delta");
        let rows = 1usize << m;
        let entries = 1usize << cfg.history_bits;
        CoordinatedPredictor {
            m,
            cfg,
            lht: vec![vec![0; entries]; rows],
            bpt: vec![vec![0; TierId::ALL.len()]; rows],
            history: 0,
            history_mask: entries - 1,
            trained_instances: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.cfg
    }

    /// Number of training instances consumed.
    pub fn trained_instances(&self) -> u64 {
        self.trained_instances
    }

    /// Pack synopsis predictions into a GPV row index (synopsis 0 is the
    /// least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != m`.
    pub fn gpv(&self, predictions: &[bool]) -> usize {
        assert_eq!(
            predictions.len(),
            self.m,
            "expected {} synopsis predictions",
            self.m
        );
        predictions
            .iter()
            .enumerate()
            .fold(0usize, |acc, (i, &p)| acc | (usize::from(p) << i))
    }

    /// Majority vote of a prediction vector (ties count as overload, the
    /// conservative direction).
    fn majority(&self, predictions: &[bool]) -> bool {
        let votes = predictions.iter().filter(|&&p| p).count();
        votes * 2 >= predictions.len()
    }

    /// Feed one training instance: the m synopsis predictions, the true
    /// class, and (for overloaded instances) the true bottleneck tier.
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != m`.
    pub fn train_instance(
        &mut self,
        predictions: &[bool],
        label: bool,
        bottleneck: Option<TierId>,
    ) {
        let gpv = self.gpv(predictions);
        let bound = self.cfg.counter_clamp;
        // Checked like `peek`'s lookup: a row a deserialized table lacks
        // is left untrained instead of indexed.
        if let Some(hc) = self
            .lht
            .get_mut(gpv)
            .and_then(|row| row.get_mut(self.history))
        {
            *hc = (*hc + if label { 1 } else { -1 }).clamp(-bound, bound);
        }
        if label {
            if let Some(b) = bottleneck {
                let row = self.bpt.get_mut(gpv).into_iter().flatten();
                for (tier, v) in TierId::ALL.iter().zip(row) {
                    let delta = if *tier == b { 1 } else { -1 };
                    *v = (*v + delta).clamp(-bound, bound);
                }
            }
        }
        let vote = self.majority(predictions);
        self.push_history(vote);
        self.trained_instances += 1;
    }

    /// Make a coordinated prediction and advance the history register with
    /// the synopsis majority vote (observable online without labels).
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != m`.
    pub fn predict(&mut self, predictions: &[bool]) -> CoordinatedPrediction {
        let out = self.peek(predictions);
        let vote = self.majority(predictions);
        self.push_history(vote);
        out
    }

    /// Compute the prediction without mutating the history register.
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != m`.
    pub fn peek(&self, predictions: &[bool]) -> CoordinatedPrediction {
        let gpv = self.gpv(predictions);
        // gpv and history are bounded by construction (gpv() masks to
        // the table width, history is masked on every push); the
        // checked lookup makes the bound a local fact rather than a
        // cross-method invariant, with a neutral Hc (= tie) fallback.
        let hc = self
            .lht
            .get(gpv)
            .and_then(|row| row.get(self.history))
            .copied()
            .unwrap_or(0);
        let (overloaded, confident) = if hc > self.cfg.delta {
            (true, true)
        } else if hc < -self.cfg.delta {
            (false, true)
        } else {
            (matches!(self.cfg.scheme, TieScheme::Pessimistic), false)
        };
        let bottleneck = overloaded.then(|| self.bottleneck_for(gpv));
        CoordinatedPrediction {
            overloaded,
            confident,
            bottleneck,
            gpv,
            hc,
        }
    }

    /// `λb(b_K..b_1) = argmax_i b_i` for one GPV row.
    fn bottleneck_for(&self, gpv: usize) -> TierId {
        let row = self.bpt.get(gpv).into_iter().flatten();
        let mut best = (TierId::App, i32::MIN);
        for (tier, &b) in TierId::ALL.iter().zip(row) {
            if b > best.1 {
                best = (*tier, b);
            }
        }
        best.0
    }

    fn push_history(&mut self, outcome: bool) {
        self.history = ((self.history << 1) | usize::from(outcome)) & self.history_mask;
    }

    /// Reset the history register (e.g. between runs).
    pub fn reset_history(&mut self) {
        self.history = 0;
    }

    /// Snapshot of one LHT row (for tests and inspection tooling);
    /// empty when `gpv` is not a row.
    pub fn lht_row(&self, gpv: usize) -> &[i32] {
        self.lht.get(gpv).map_or(&[], Vec::as_slice)
    }

    /// Snapshot of one BPT row; empty when `gpv` is not a row.
    pub fn bpt_row(&self, gpv: usize) -> &[i32] {
        self.bpt.get(gpv).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(m: usize) -> CoordinatedPredictor {
        CoordinatedPredictor::new(m, CoordinatorConfig::default())
    }

    #[test]
    fn gpv_packs_bits() {
        let p = predictor(4);
        assert_eq!(p.gpv(&[false, false, false, false]), 0b0000);
        assert_eq!(p.gpv(&[true, false, false, false]), 0b0001);
        assert_eq!(p.gpv(&[false, true, false, true]), 0b1010);
        assert_eq!(p.gpv(&[true, true, true, true]), 0b1111);
    }

    #[test]
    fn learns_to_trust_an_accurate_synopsis() {
        // Synopsis 0 is always right, synopsis 1 always wrong. After
        // training, the coordinator should side with synopsis 0.
        let mut p = predictor(2);
        for i in 0..200 {
            let label = i % 3 == 0;
            p.train_instance(&[label, !label], label, Some(TierId::App));
        }
        p.reset_history();
        // Warm the history with a few predictions, then check agreement.
        let mut correct = 0;
        let mut total = 0;
        for i in 0..60 {
            let label = i % 3 == 0;
            let out = p.predict(&[label, !label]);
            total += 1;
            if out.overloaded == label {
                correct += 1;
            }
        }
        assert!(
            correct * 10 >= total * 8,
            "coordinator should mask the bad synopsis: {correct}/{total}"
        );
    }

    #[test]
    fn delta_band_uses_tie_scheme() {
        let cfg = CoordinatorConfig {
            delta: 5,
            ..CoordinatorConfig::default()
        };
        let mut optimistic = CoordinatedPredictor::new(1, cfg);
        // Train 3 overloads on the same (gpv, history) → Hc = 3 ≤ δ.
        for _ in 0..3 {
            optimistic.train_instance(&[true], true, Some(TierId::Db));
            optimistic.reset_history();
        }
        let out = optimistic.peek(&[true]);
        assert!(!out.confident);
        assert!(!out.overloaded, "optimistic φ says underload");

        let cfg = CoordinatorConfig {
            scheme: TieScheme::Pessimistic,
            ..cfg
        };
        let mut pessimistic = CoordinatedPredictor::new(1, cfg);
        for _ in 0..3 {
            pessimistic.train_instance(&[true], true, Some(TierId::Db));
            pessimistic.reset_history();
        }
        let out = pessimistic.peek(&[true]);
        assert!(!out.confident);
        assert!(out.overloaded, "pessimistic φ says overload");
    }

    #[test]
    fn counters_saturate_at_clamp() {
        let cfg = CoordinatorConfig {
            counter_clamp: 8,
            ..CoordinatorConfig::default()
        };
        let mut p = CoordinatedPredictor::new(1, cfg);
        for _ in 0..100 {
            p.train_instance(&[true], true, Some(TierId::App));
            p.reset_history();
        }
        assert_eq!(p.lht_row(1)[0], 8);
        assert_eq!(p.bpt_row(1)[TierId::App.index()], 8);
        assert_eq!(p.bpt_row(1)[TierId::Db.index()], -8);
    }

    #[test]
    fn bottleneck_argmax_follows_training() {
        let mut p = predictor(2);
        for _ in 0..20 {
            p.train_instance(&[true, true], true, Some(TierId::Db));
            p.reset_history();
        }
        let out = p.peek(&[true, true]);
        assert!(out.overloaded);
        assert_eq!(out.bottleneck, Some(TierId::Db));
    }

    #[test]
    fn bottleneck_is_none_when_underloaded() {
        let mut p = predictor(1);
        for _ in 0..20 {
            p.train_instance(&[false], false, None);
            p.reset_history();
        }
        let out = p.peek(&[false]);
        assert!(!out.overloaded);
        assert_eq!(out.bottleneck, None);
    }

    #[test]
    fn history_distinguishes_temporal_patterns() {
        // The synopsis lags reality by one interval: the true state of
        // instance i equals the synopsis's *previous* vote. The current
        // GPV is therefore uninformative, but one history bit identifies
        // the state exactly.
        let cfg = CoordinatorConfig {
            history_bits: 1,
            ..CoordinatorConfig::default()
        };
        let mut p = CoordinatedPredictor::new(1, cfg);
        for i in 0..200usize {
            let vote = i % 2 == 0;
            let label = (i + 1) % 2 == 0; // = previous vote
            p.train_instance(&[vote], label, Some(TierId::App));
        }
        // The alternating stream visits (gpv=0, hist=1) on overloaded
        // instances and (gpv=1, hist=0) on underloaded ones: the history
        // bit, not the current vote, carries the class.
        assert!(
            p.lht_row(0)[1] > 0,
            "after a positive vote comes overload: {:?}",
            p.lht_row(0)
        );
        assert!(
            p.lht_row(1)[0] < 0,
            "after a negative vote comes underload: {:?}",
            p.lht_row(1)
        );
    }

    #[test]
    fn table_sizes_match_spec() {
        let cfg = CoordinatorConfig {
            history_bits: 3,
            ..CoordinatorConfig::default()
        };
        let p = CoordinatedPredictor::new(4, cfg);
        assert_eq!(p.lht_row(0).len(), 8, "2^h entries per LHT");
        assert_eq!(p.bpt_row(0).len(), 2, "one counter per tier");
    }

    #[test]
    #[should_panic(expected = "expected 2 synopsis predictions")]
    fn wrong_arity_panics() {
        let mut p = predictor(2);
        p.train_instance(&[true], true, None);
    }

    #[test]
    #[should_panic(expected = "clamp must exceed delta")]
    fn clamp_below_delta_rejected() {
        let cfg = CoordinatorConfig {
            delta: 10,
            counter_clamp: 5,
            ..CoordinatorConfig::default()
        };
        let _ = CoordinatedPredictor::new(1, cfg);
    }
}
