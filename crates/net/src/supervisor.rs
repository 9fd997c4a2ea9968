//! Collector supervision: a health state machine over telemetry
//! quality, and safe-mode admission.
//!
//! An [`Assembler`] alone trusts its inputs: every surviving window
//! becomes a prediction, and whoever consumes those predictions (the
//! admission controller) would steer traffic as if the telemetry plane
//! were healthy. This module wraps the assembler in a **supervisor**
//! that watches observable quality signals — the poisoned-window rate
//! over a sliding window of recent window outcomes, reconnect storms,
//! stale sessions — and walks the three-state machine below. The
//! [`SupervisedCollector`] is the only collector there is:
//! [`run_supervised_collector`] is its socketed form (`webcap collect`
//! and the loopback harness run it), and tests drive it event by event.
//! Supervision never alters the decision stream — every clean
//! window's decision is recorded in any health state; health only gates
//! whether it may move the admission cap.
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
use webcap_core::{AdmissionConfig, AdmissionController, CapacityMeter, OnlineDecision};
use webcap_sim::TierId;

use crate::collector::{pump_events, Assembler, CollectorConfig, Event, ShedKind};
use crate::transport::Listener;

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
    /// controller's own `[min_ebs, max_ebs]`).
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
    pub fn poison_rate(&self) -> f64 {
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

/// One admission step in the audit trace: which window, under which
/// health, whether the prediction was allowed to drive the cap, and the
/// cap after the step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionPoint {
    /// Window index the decision came from (or -1 for a SafeMode clamp
    /// not tied to a window).
    pub window: i64,
    /// Health at the moment of the step.
    pub health: HealthState,
    /// Whether the meter's prediction drove the cap (true only when
    /// Healthy).
    pub from_prediction: bool,
    /// Admission cap after the step.
    pub cap: u32,
}

/// End-of-run account of a supervised collector.
#[derive(Debug)]
pub struct SupervisedReport {
    /// Emitted decisions, in window order.
    pub decisions: Vec<(i64, OnlineDecision)>,
    /// Windows quarantined by gaps or reconnections.
    pub poisoned_windows: Vec<i64>,
    /// Windows still partially buffered at shutdown.
    pub pending_windows: Vec<i64>,
    /// Protocol-order surprises survived.
    pub anomalies: u64,
    /// Sessions accepted per tier.
    pub sessions: [u64; 2],
    /// Sample frames received per tier.
    pub samples: [u64; 2],
    /// Connections refused at handshake.
    pub rejected_handshakes: u64,
    /// Connections (or dials) shed by the overload policy, with the
    /// reason for each — the audit trail the overload tests read.
    pub sheds: Vec<(TierId, ShedKind)>,
    /// Final health state.
    pub health: HealthState,
    /// The full health-transition log.
    pub transitions: Vec<HealthTransition>,
    /// The admission audit trace, one point per cap-affecting step.
    pub admission_trace: Vec<AdmissionPoint>,
    /// Admission cap at shutdown.
    pub final_cap: u32,
    /// Monitor lifetime sample counter.
    pub samples_seen: u64,
    /// Monitor lifetime decision counter.
    pub decisions_made: u64,
}

/// The supervised assembler: drives an [`Assembler`], a [`Supervisor`],
/// and an [`AdmissionController`] from the same event stream.
/// Deterministic given the event sequence — the chaos harness drives it
/// directly.
pub struct SupervisedCollector {
    assembler: Assembler,
    supervisor: Supervisor,
    admission: AdmissionController,
    sessions: [u64; 2],
    samples: [u64; 2],
    rejected: u64,
    sheds: Vec<(TierId, ShedKind)>,
    decisions: Vec<(i64, OnlineDecision)>,
    admission_trace: Vec<AdmissionPoint>,
    /// Poisoned-window count already accounted to the supervisor.
    known_poisoned: usize,
    last_health: HealthState,
}

/// The admission cap a collector starts from (EBs), before any
/// prediction has moved it.
pub const INITIAL_CAP: u32 = 400;

impl SupervisedCollector {
    /// A fresh collector as `webcap collect` builds one when given no
    /// flags: anchored at the default window origin, supervised under
    /// [`SupervisorConfig::default`], admitting through the default AIMD
    /// controller from [`INITIAL_CAP`].
    pub fn fresh(meter: CapacityMeter) -> SupervisedCollector {
        SupervisedCollector::start(
            meter,
            CollectorConfig::default().window_origin,
            SupervisorConfig::default(),
            AdmissionController::new(AdmissionConfig::default(), INITIAL_CAP),
        )
    }

    /// Build a supervised collector around a freshly loaded meter,
    /// anchored at `origin`, starting Healthy.
    pub fn start(
        meter: CapacityMeter,
        origin: i64,
        sup_cfg: SupervisorConfig,
        admission: AdmissionController,
    ) -> SupervisedCollector {
        SupervisedCollector {
            assembler: Assembler::new(meter, origin),
            supervisor: Supervisor::new(sup_cfg),
            admission,
            sessions: [0, 0],
            samples: [0, 0],
            rejected: 0,
            sheds: Vec::new(),
            decisions: Vec::new(),
            admission_trace: Vec::new(),
            known_poisoned: 0,
            last_health: HealthState::Healthy,
        }
    }

    /// The meter the collector decides with.
    pub fn meter(&self) -> &CapacityMeter {
        self.assembler.meter()
    }

    /// Current health.
    pub fn health(&self) -> HealthState {
        self.supervisor.state()
    }

    /// Current admission cap.
    pub fn cap(&self) -> u32 {
        self.admission.cap()
    }

    /// Decisions emitted so far this run.
    pub fn decisions(&self) -> &[(i64, OnlineDecision)] {
        &self.decisions
    }

    /// Feed newly poisoned windows to the supervisor and react to any
    /// health change. Runs after every assembler-touching event;
    /// within one event all poisonings precede any emission, so
    /// accounting poisons first keeps supervisor order faithful.
    fn after_event(&mut self) {
        let poisoned_now = self.assembler.poisoned_count();
        for _ in self.known_poisoned..poisoned_now {
            self.supervisor.on_window_poisoned();
        }
        self.known_poisoned = poisoned_now;
        self.sync_health();
    }

    /// Apply state-entry side effects when health changed: entering
    /// SafeMode clamps the cap.
    fn sync_health(&mut self) {
        let health = self.supervisor.state();
        if health == self.last_health {
            return;
        }
        if health == HealthState::SafeMode {
            let cap = self.admission.clamp_to(self.supervisor.config().safe_cap);
            self.admission_trace.push(AdmissionPoint {
                window: -1,
                health,
                from_prediction: false,
                cap,
            });
        }
        self.last_health = health;
    }

    /// One emitted decision: tell the supervisor, then let the
    /// prediction drive admission iff Healthy.
    fn note_decision(&mut self, window: i64, decision: OnlineDecision) {
        self.supervisor.on_window_emitted();
        self.sync_health();
        let health = self.supervisor.state();
        let (cap, from_prediction) = if health == HealthState::Healthy {
            (
                self.admission.on_prediction(decision.prediction.overloaded),
                true,
            )
        } else {
            // Degraded/SafeMode: record, don't trust — the cap holds.
            (self.admission.cap(), false)
        };
        self.admission_trace.push(AdmissionPoint {
            window,
            health,
            from_prediction,
            cap,
        });
        self.decisions.push((window, decision));
    }

    /// A tier's session started (or restarted).
    pub fn on_session_start(&mut self, tier: TierId) {
        let is_reconnect = *tier.select(&self.sessions) > 0;
        *tier.select_mut(&mut self.sessions) += 1;
        self.assembler.on_session_start(tier);
        if is_reconnect {
            self.supervisor.on_reconnect();
        }
        self.after_event();
    }

    /// One sample arrived.
    pub fn on_sample(&mut self, tier: TierId, ws: crate::frame::WireSample) {
        *tier.select_mut(&mut self.samples) += 1;
        let mut fresh: Vec<(i64, OnlineDecision)> = Vec::new();
        self.assembler
            .on_sample(tier, ws, &mut |w, d| fresh.push((w, d.clone())));
        // Poisonings this event precede its emissions (the assembler
        // poisons on the *arriving* sample before any window completes).
        self.after_event();
        for (w, d) in fresh {
            self.note_decision(w, d);
        }
        self.sync_health();
    }

    /// A tier said `Bye`.
    pub fn on_bye(&mut self, tier: TierId, last_seq: u64) {
        self.assembler.on_bye(tier, last_seq);
        self.after_event();
    }

    /// The event loop timed out with live sessions — stale telemetry.
    pub fn on_stale(&mut self) {
        self.supervisor.on_stale();
        self.sync_health();
    }

    /// The overload policy shed a connection or dial on `tier`.
    pub fn on_shed(&mut self, tier: TierId, kind: ShedKind) {
        self.sheds.push((tier, kind));
        self.supervisor.on_shed();
        self.sync_health();
    }

    /// A tier's session ended abnormally (no `Bye`): quarantine its
    /// in-flight window eagerly.
    pub fn on_session_abort(&mut self, tier: TierId) {
        self.assembler.on_session_abort(tier);
        self.after_event();
    }

    /// A connection was refused at handshake.
    pub fn on_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Finish the run and produce the report.
    pub fn finish(self) -> SupervisedReport {
        let (samples_seen, decisions_made) = self.assembler.monitor_counters();
        SupervisedReport {
            poisoned_windows: self.assembler.poisoned_windows(),
            pending_windows: self.assembler.pending_windows(),
            anomalies: self.assembler.anomalies(),
            decisions: self.decisions,
            sessions: self.sessions,
            samples: self.samples,
            rejected_handshakes: self.rejected,
            sheds: self.sheds,
            health: self.supervisor.state(),
            transitions: self.supervisor.transitions().to_vec(),
            admission_trace: self.admission_trace,
            final_cap: self.admission.cap(),
            samples_seen,
            decisions_made,
        }
    }
}

/// Run `sc` on a bound listener until every expected tier says `Bye`
/// (or the idle timeout passes with no live session): the socketed
/// collector. `sc` must be anchored at `cfg.window_origin`. Each
/// emitted decision is also streamed to `on_decision` as it happens.
pub fn run_supervised_collector(
    listener: Listener,
    mut sc: SupervisedCollector,
    cfg: &CollectorConfig,
    mut on_decision: impl FnMut(i64, &OnlineDecision),
) -> SupervisedReport {
    let level = sc.meter().config().level;
    pump_events(listener, cfg, level, |event| match event {
        Event::SessionStart { tier } => sc.on_session_start(tier),
        Event::Sample { tier, ws } => {
            let before = sc.decisions().len();
            sc.on_sample(tier, ws);
            for (w, d) in sc.decisions().iter().skip(before) {
                on_decision(*w, d);
            }
        }
        Event::Bye { tier, last_seq } => sc.on_bye(tier, last_seq),
        Event::SessionEnd {
            tier,
            graceful: false,
        } => sc.on_session_abort(tier),
        Event::Shed { tier, kind } => sc.on_shed(tier, kind),
        Event::Rejected => sc.on_rejected(),
        Event::Stale => sc.on_stale(),
        Event::SessionEnd { graceful: true, .. } => {}
    });
    sc.finish()
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
