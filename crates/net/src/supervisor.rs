//! Collector supervision: a health state machine over telemetry
//! quality.
//!
//! A collector that trusted its inputs would let every surviving
//! window's prediction steer admission as if the telemetry plane were
//! healthy. The [`Supervisor`] watches observable quality signals — the
//! poisoned-window rate over a sliding window of recent window
//! outcomes, reconnect storms, overload sheds, stale sessions — and
//! walks the three-state machine below. The collector
//! ([`Assembler`](crate::collector::Assembler)) feeds it where its
//! verdicts happen and applies the admission policy of each state.
//! Supervision never alters the decision stream — every clean window's
//! decision is recorded in any health state; health only gates whether
//! it may move the admission cap.
//!
//! ```text
//!            poison rate ≥ degraded threshold,
//!            reconnect storm, or stale session          poison rate
//!  +---------+ ----------------------------> +----------+ ≥ safe  +----------+
//!  | Healthy |                               | Degraded | ------> | SafeMode |
//!  +---------+ <---- clean streak ---------- +----------+         +----------+
//!       ^                                                              |
//!       +----- clean streak (one level per streak, with hysteresis) ---+
//! ```
//!
//! Admission policy per state:
//!
//! * **Healthy** — predictions drive the AIMD controller normally.
//! * **Degraded** — predictions are *recorded but not trusted*: the cap
//!   holds. The meter still sees every clean window (its temporal
//!   history must track reality for the recovery to be seamless).
//! * **SafeMode** — on entry the cap is clamped to a conservative
//!   floor; it holds there until health recovers.
//!
//! Recovery is hysteretic: a streak of [`RECOVER_AFTER`] consecutive
//! clean windows steps the state down one level (SafeMode → Degraded →
//! Healthy), and the streak resets on every step, so one good window
//! after a storm never re-opens the throttle.
//!
//! A collector persists nothing: a restarted one is a cold start from
//! the meter file. The meter's only moving state online is the LHT
//! history register — the last `history_bits` majority votes, each a
//! function of its window's features alone — so `history_bits` windows
//! after any discontinuity every decision equals the uninterrupted
//! run's. The stream history a cold collector never saw reads as a
//! leading gap and is poisoned like any loss, which walks health to
//! SafeMode until the clean-streak hysteresis re-earns Healthy.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Collector health, ordered by severity (the derived `Ord` follows
/// declaration order, so `max` escalates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthState {
    /// Telemetry quality is good; predictions drive admission.
    Healthy,
    /// Quality is suspect (losses, churn, or staleness); predictions
    /// are recorded but the admission cap holds.
    Degraded,
    /// Quality collapsed; admission is clamped to the conservative safe
    /// cap.
    SafeMode,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::SafeMode => "safe-mode",
        })
    }
}

/// Supervisor policy knob: the one a deployment sets (`webcap collect
/// --safe-cap`). The health thresholds are the constants below.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// The admission cap SafeMode clamps to (further clamped into the
    /// controller's `[MIN_EBS, MAX_EBS]`).
    pub safe_cap: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig { safe_cap: 20 }
    }
}

/// Sliding window of recent window outcomes (emitted vs. poisoned) the
/// poison rate is computed over.
pub const QUALITY_WINDOW: usize = 8;

/// Poison rate (fraction of recent outcomes) at or above which the
/// state escalates to at least Degraded.
pub const DEGRADED_POISON_RATE: f64 = 0.25;

/// Poison rate at or above which the state escalates to SafeMode.
pub const SAFE_POISON_RATE: f64 = 0.5;

/// Minimum outcomes observed before the SafeMode rate triggers (one
/// early poisoned window must not slam the throttle shut).
pub const MIN_OBSERVATIONS: usize = 4;

/// Reconnects within the sliding window that count as a storm
/// (escalates to at least Degraded).
pub const RECONNECT_STORM: usize = 3;

/// Overload sheds within the sliding window that count as a storm
/// (escalates to at least Degraded) — a collector repeatedly dropping
/// peers to protect itself is not a healthy plane.
pub const SHED_STORM: usize = 3;

/// Consecutive clean (emitted) windows required to step the health
/// state down one level.
pub const RECOVER_AFTER: usize = 3;

/// One health transition, for the audit log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthTransition {
    /// Quality-event tick the transition happened at (monotonic count
    /// of window outcomes, reconnects, and staleness events).
    pub tick: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Human-readable cause.
    pub reason: String,
}

/// The health state machine. Pure and deterministic: feed it window
/// outcomes, reconnects, and staleness events; read the state.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    state: HealthState,
    /// Recent window outcomes, `true` = poisoned; bounded to
    /// [`QUALITY_WINDOW`].
    recent: VecDeque<bool>,
    /// Outcome-tick of each recent reconnect; pruned once older than
    /// [`QUALITY_WINDOW`] outcomes.
    reconnect_marks: VecDeque<u64>,
    /// Outcome-tick of each recent overload shed; pruned like
    /// `reconnect_marks`.
    shed_marks: VecDeque<u64>,
    /// Total window outcomes observed (the reconnect-pruning clock).
    outcomes_seen: u64,
    clean_streak: usize,
    tick: u64,
    transitions: Vec<HealthTransition>,
}

impl Supervisor {
    /// A supervisor starting Healthy.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        Supervisor {
            cfg,
            state: HealthState::Healthy,
            recent: VecDeque::new(),
            reconnect_marks: VecDeque::new(),
            shed_marks: VecDeque::new(),
            outcomes_seen: 0,
            clean_streak: 0,
            tick: 0,
            transitions: Vec::new(),
        }
    }

    /// Current health.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The policy knobs.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// The transition log so far.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Poison rate over the sliding window.
    fn poison_rate(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().filter(|&&p| p).count() as f64 / self.recent.len() as f64
    }

    fn transition(&mut self, to: HealthState, reason: String) {
        if to == self.state {
            return;
        }
        self.transitions.push(HealthTransition {
            tick: self.tick,
            from: self.state,
            to,
            reason,
        });
        self.state = to;
    }

    /// The state the quality signals demand right now (ignoring
    /// hysteresis — de-escalation additionally needs a clean streak).
    fn desired(&self) -> HealthState {
        let n = self.recent.len();
        let rate = self.poison_rate();
        if n >= MIN_OBSERVATIONS && rate >= SAFE_POISON_RATE {
            return HealthState::SafeMode;
        }
        if (n > 0 && rate >= DEGRADED_POISON_RATE)
            || self.reconnect_marks.len() >= RECONNECT_STORM
            || self.shed_marks.len() >= SHED_STORM
        {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }

    /// Escalate immediately if the signals demand a worse state than
    /// the current one. Never de-escalates (that path runs only on
    /// clean windows, with hysteresis).
    fn escalate_if_needed(&mut self) {
        let desired = self.desired();
        if desired > self.state {
            let reason = format!(
                "poison rate {:.2} over {} outcomes, {} reconnects, {} sheds in window",
                self.poison_rate(),
                self.recent.len(),
                self.reconnect_marks.len(),
                self.shed_marks.len()
            );
            self.transition(desired, reason);
        }
    }

    fn prune(&mut self) {
        while self.recent.len() > QUALITY_WINDOW {
            self.recent.pop_front();
        }
        let horizon = self.outcomes_seen.saturating_sub(QUALITY_WINDOW as u64);
        while self
            .reconnect_marks
            .front()
            .is_some_and(|&mark| mark < horizon)
        {
            self.reconnect_marks.pop_front();
        }
        while self.shed_marks.front().is_some_and(|&mark| mark < horizon) {
            self.shed_marks.pop_front();
        }
    }

    /// An agent reconnected (any session after a tier's first).
    pub fn on_reconnect(&mut self) {
        self.tick += 1;
        self.clean_streak = 0;
        self.reconnect_marks.push_back(self.outcomes_seen);
        self.prune();
        self.escalate_if_needed();
    }

    /// The overload policy shed a connection or dial. Quality-wise a
    /// shed is churn like a reconnect: it resets the clean streak and
    /// enough of them inside the sliding window is a storm.
    pub fn on_shed(&mut self) {
        self.tick += 1;
        self.clean_streak = 0;
        self.shed_marks.push_back(self.outcomes_seen);
        self.prune();
        self.escalate_if_needed();
    }

    /// No events arrived within the collector's read horizon while
    /// sessions were live — the plane is stale.
    pub fn on_stale(&mut self) {
        self.tick += 1;
        self.clean_streak = 0;
        if self.state == HealthState::Healthy {
            self.transition(
                HealthState::Degraded,
                "stale telemetry: no events within the read horizon".to_string(),
            );
        }
    }

    /// A window completed and was emitted (a clean outcome). May step
    /// the health state *down* one level when the clean streak clears
    /// the hysteresis bar.
    pub fn on_window_emitted(&mut self) {
        self.tick += 1;
        self.outcomes_seen += 1;
        self.recent.push_back(false);
        self.clean_streak += 1;
        self.prune();
        self.escalate_if_needed();
        let desired = self.desired();
        if self.state > desired && self.clean_streak >= RECOVER_AFTER {
            let next = match self.state {
                HealthState::SafeMode => HealthState::Degraded,
                HealthState::Degraded | HealthState::Healthy => HealthState::Healthy,
            };
            let next = next.max(desired);
            let reason = format!(
                "clean streak of {} windows (poison rate {:.2})",
                self.clean_streak,
                self.poison_rate()
            );
            self.clean_streak = 0;
            self.transition(next, reason);
        }
    }

    /// A window was poisoned (loss, reconnect straddle, or protocol
    /// violation touched it).
    pub fn on_window_poisoned(&mut self) {
        self.tick += 1;
        self.outcomes_seen += 1;
        self.recent.push_back(true);
        self.clean_streak = 0;
        self.prune();
        self.escalate_if_needed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig::default()
    }

    #[test]
    fn health_severity_order_escalates_with_max() {
        assert!(HealthState::Degraded > HealthState::Healthy);
        assert!(HealthState::SafeMode > HealthState::Degraded);
        assert_eq!(
            HealthState::Healthy.max(HealthState::Degraded),
            HealthState::Degraded
        );
    }

    #[test]
    fn poison_rate_escalates_to_degraded_then_safemode() {
        let mut s = Supervisor::new(cfg());
        assert_eq!(s.state(), HealthState::Healthy);
        // One poisoned window out of one: rate 1.0 ≥ 0.25 → Degraded,
        // but n < min_observations keeps SafeMode locked out.
        s.on_window_poisoned();
        assert_eq!(s.state(), HealthState::Degraded);
        s.on_window_emitted();
        s.on_window_poisoned();
        // Four outcomes, two poisoned: rate 0.5 ≥ 0.5 with n ≥ 4 → SafeMode.
        s.on_window_poisoned();
        assert_eq!(s.state(), HealthState::SafeMode);
        assert!(s.transitions().len() >= 2);
    }

    #[test]
    fn recovery_is_hysteretic_and_steps_one_level() {
        let mut s = Supervisor::new(cfg());
        for _ in 0..4 {
            s.on_window_poisoned();
        }
        assert_eq!(s.state(), HealthState::SafeMode);
        // Clean windows 1–4: the streak clears the bar (recover_after=3)
        // but the sliding rate (4 poisons of ≤8 outcomes ≥ 0.5) still
        // *demands* SafeMode, so no step down yet.
        for _ in 0..4 {
            s.on_window_emitted();
            assert_eq!(s.state(), HealthState::SafeMode);
        }
        // Clean window 5 ages the first poison out (rate 3/8 < 0.5) and
        // the accumulated streak steps exactly one level down.
        s.on_window_emitted();
        assert_eq!(s.state(), HealthState::Degraded);
        // Windows 6–7 dilute further (rate < 0.25 at window 7) but the
        // streak reset on the step; window 8 completes a fresh streak
        // of 3 and recovers Healthy.
        s.on_window_emitted();
        s.on_window_emitted();
        assert_eq!(s.state(), HealthState::Degraded);
        s.on_window_emitted();
        assert_eq!(s.state(), HealthState::Healthy);
    }

    #[test]
    fn a_poisoned_window_resets_the_clean_streak() {
        let mut s = Supervisor::new(cfg());
        for _ in 0..4 {
            s.on_window_poisoned();
        }
        assert_eq!(s.state(), HealthState::SafeMode);
        s.on_window_emitted();
        s.on_window_emitted();
        s.on_window_poisoned();
        s.on_window_emitted();
        s.on_window_emitted();
        // Streak broke at the poison; only two clean since.
        assert_eq!(s.state(), HealthState::SafeMode);
    }

    #[test]
    fn reconnect_storm_degrades_and_old_reconnects_age_out() {
        let mut s = Supervisor::new(cfg());
        s.on_reconnect();
        s.on_reconnect();
        assert_eq!(s.state(), HealthState::Healthy, "two reconnects tolerated");
        s.on_reconnect();
        assert_eq!(s.state(), HealthState::Degraded, "three is a storm");
        // A full quality window of clean outcomes ages the marks out
        // and recovers.
        for _ in 0..QUALITY_WINDOW + 1 {
            s.on_window_emitted();
        }
        assert_eq!(s.state(), HealthState::Healthy);
    }

    #[test]
    fn staleness_degrades_from_healthy_only() {
        let mut s = Supervisor::new(cfg());
        s.on_stale();
        assert_eq!(s.state(), HealthState::Degraded);
        let transitions_before = s.transitions().len();
        s.on_stale();
        assert_eq!(s.state(), HealthState::Degraded);
        assert_eq!(s.transitions().len(), transitions_before, "no churn");
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(HealthState::Healthy.to_string(), "healthy");
        assert_eq!(HealthState::Degraded.to_string(), "degraded");
        assert_eq!(HealthState::SafeMode.to_string(), "safe-mode");
    }
}
