//! In-process loopback deployments and replay baselines.
//!
//! [`run_supervised_loopback`] stands up the real collector plus one
//! real agent per tier inside one process, wired over an actual socket
//! (TCP or Unix) — the integration surface the smoke, fault-injection
//! and chaos tests, the benchmark's online workloads and capsearch's
//! loopback executor drive. [`run_loopback_scheduled`] is its stock
//! form: a default [`Assembler`], default agents, and a fault
//! script per tier, [`FaultKnobs`] compiled in.
//!
//! Two pure companions make a deployment's output *checkable*:
//!
//! * [`replay_windows`] — the chosen windows folded in process through
//!   `webcap-core`'s window builder ([`WindowAgg`]) from the same metric
//!   rows the agents synthesize, for the families the meter reads, and
//!   predicted in order. The collector's decisions must be
//!   byte-identical (JSON) to this replay on the windows it emits.
//! * [`predicted_windows_for_schedule`] — the one per-tier oracle: it
//!   replays a fault script and the collector's documented poisoning
//!   rules to predict exactly which windows survive. It shares no code
//!   with the agent or the collector, so the tests cross-validate two
//!   implementations of the semantics.
//! * [`predicted_windows`] — the two-tier rule on top of it: a system
//!   window survives iff neither tier's script poisons it. Every
//!   harness and suite that predicts a deployment's windows calls it.

use std::collections::BTreeSet;
use std::io;
use std::num::NonZeroU64;

use webcap_core::{CapacityMeter, OnlineDecision, WindowAgg};
use webcap_sim::{SystemSample, TierId};

use crate::agent::{run_agent, AgentConfig, AgentReport, FaultSchedule};
use crate::collector::{run_supervised_collector, Assembler, CollectorConfig, SupervisedReport};
use crate::source::{ScriptedSource, TierSampler};
use crate::transport::{Endpoint, Listener};

/// Periodic induced faults for exercising the loss/reconnect machinery
/// — harness-level data: [`schedule`](Self::schedule) compiles them
/// into the [`FaultSchedule`] an agent runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultKnobs {
    /// Silently discard every Nth sample frame (1-based count of send
    /// attempts), producing sequence gaps.
    pub drop_every: Option<NonZeroU64>,
    /// Force a clean shutdown + reconnect after every Nth *sent* sample
    /// frame of a connection.
    pub reconnect_every: Option<NonZeroU64>,
}

impl FaultKnobs {
    /// No induced faults.
    pub const NONE: FaultKnobs = FaultKnobs {
        drop_every: None,
        reconnect_every: None,
    };

    /// Compile these knobs over `scripted` into one script for a
    /// `total`-sample stream: everything `scripted` says, plus a drop
    /// at every sequence whose 1-based attempt index is a multiple of
    /// `drop_every` — an attempt being a send `scripted` leaves, so a
    /// scripted outage never shifts which frames the knob discards —
    /// and a `reconnect_before` at the sequence that follows each
    /// `reconnect_every`th frame sent on a connection (a scripted
    /// reconnect starts a new connection's count; an entry at `total`
    /// names no sample, and a repeated one fires once: both inert).
    /// With no knob set this is `scripted` as it is, with no walk.
    pub fn schedule(&self, total: u64, scripted: &FaultSchedule) -> FaultSchedule {
        let mut merged = scripted.clone();
        if *self == FaultKnobs::NONE {
            return merged;
        }
        let (mut attempts, mut conn_sent) = (0u64, 0u64);
        for seq in 0..total {
            if scripted.reconnect_before.contains(&seq) {
                conn_sent = 0;
            }
            if scripted.drops(seq) {
                continue;
            }
            attempts += 1;
            if self.drop_every.is_some_and(|n| attempts % n == 0) {
                merged.drop_ranges.push((seq, seq));
                continue;
            }
            conn_sent += 1;
            if self.reconnect_every.is_some_and(|n| conn_sent >= n.get()) {
                conn_sent = 0;
                merged.reconnect_before.push(seq + 1);
            }
        }
        merged
    }
}

/// What a loopback deployment produced.
#[derive(Debug)]
pub struct LoopbackOutcome {
    /// The collector's end-of-run report.
    pub collector: SupervisedReport,
    /// Per-tier agent reports, `[App, Db]`.
    pub agents: [AgentReport; 2],
}

/// Run the stock two-agent + collector deployment over `endpoint`
/// inside this process, streaming `samples` (each tier sees its own
/// view), and return everything both sides reported. `base_seed` is
/// the deployment-wide metrics seed; `faults` applies to both agents,
/// compiled over each tier's entry of `schedules` (`[App, Db]`) — with
/// no knob set, each tier runs its scripted schedule as it is.
pub fn run_loopback_scheduled(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    endpoint: &Endpoint,
    base_seed: u64,
    faults: FaultKnobs,
    schedules: &[FaultSchedule; 2],
) -> io::Result<LoopbackOutcome> {
    let total = samples.len() as u64;
    let scripts = schedules.each_ref().map(|s| faults.schedule(total, s));
    let collector = Assembler::new(meter.clone(), CollectorConfig::default().window_origin);
    run_supervised_loopback(collector, samples, endpoint, 0, |tier, dial| {
        let mut cfg = AgentConfig::new(tier, dial, base_seed);
        cfg.schedule = tier.select(&scripts).clone();
        cfg
    })
}

/// Bind `endpoint`, run `collector` on it (under
/// [`CollectorConfig::default`]) in one thread and one real agent per
/// tier in two more — each configured by `agent_cfg(tier, dial)`,
/// called here in `[App, Db]` order once the collector listens and
/// before that agent starts, synthesizing with the collector's meter's
/// HPC model and level, and streaming its own view of `samples` — and
/// join them all.
/// `start_seq` puts both agents' scripted sources into warm-up replay
/// below that sequence (synthesize, don't send): they stand in for
/// agents that outlived a restarted collector, whose streams continue
/// at `start_seq` with byte-identical wire samples.
pub fn run_supervised_loopback(
    collector: Assembler,
    samples: &[SystemSample],
    endpoint: &Endpoint,
    start_seq: u64,
    agent_cfg: impl Fn(TierId, Endpoint) -> AgentConfig,
) -> io::Result<LoopbackOutcome> {
    let hpc_model = &collector.meter().config().hpc_model.clone();
    let level = collector.meter().config().level;
    let listener = Listener::bind(endpoint)?;
    let dial = listener.local_endpoint()?;
    let collector_cfg = CollectorConfig::default();
    std::thread::scope(|scope| {
        let collector_cfg = &collector_cfg;
        let collector = scope
            .spawn(move || run_supervised_collector(listener, collector, collector_cfg, |_, _| {}));
        let agent_handles = TierId::ALL.map(|tier| {
            let cfg = agent_cfg(tier, dial.clone());
            scope.spawn(move || {
                let mut source = ScriptedSource::with_start_seq(tier, samples, start_seq);
                run_agent(&cfg, hpc_model.clone(), level, &mut source)
            })
        });
        let [app, db] = agent_handles.map(|handle| {
            handle
                .join()
                .map_err(|_| io::Error::other("agent thread panicked"))?
        });
        let agents = [app?, db?];
        let collector = collector
            .join()
            .map_err(|_| io::Error::other("collector thread panicked"))?;
        Ok(LoopbackOutcome { collector, agents })
    })
}

/// Decide `samples` in process exactly the way a collector decides
/// surviving windows: agent-style synthesis of the metric families the
/// meter's level reads, only the listed windows folded (one
/// [`WindowAgg`] each) and predicted in order, and the meter's history
/// reset ([`CapacityMeter::reset_history`]) before every window that
/// does not follow the last decided one. This rule is the replay's own,
/// not shared with the collector's. Each decision's window carries
/// features for those families alone (the combined vector only at
/// [`MetricLevel::Combined`](webcap_core::MetricLevel::Combined)). OS
/// rows are synthesized for **every** sample in order (the OS
/// synthesizer carries state across drops); without them no sampler
/// state crosses a sample, so samples outside `windows` are skipped.
pub fn replay_windows(
    meter: &CapacityMeter,
    samples: &[SystemSample],
    base_seed: u64,
    windows: &BTreeSet<i64>,
) -> Vec<(i64, OnlineDecision)> {
    let level = meter.config().level;
    let window_len = meter.config().window_len;
    let hpc_model = meter.config().hpc_model.clone();
    let mut samplers = [
        TierSampler::for_level(TierId::App, hpc_model.clone(), base_seed, level),
        TierSampler::for_level(TierId::Db, hpc_model, base_seed, level),
    ];
    let mut meter = meter.clone();
    let mut agg = WindowAgg::default();
    let mut prev_fed: Option<i64> = None;
    let mut out = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let window = (i / window_len) as i64;
        let fed = windows.contains(&window);
        if !fed && !level.reads_os() {
            continue;
        }
        let mut hpc: [Vec<f64>; 2] = Default::default();
        let mut os: [Vec<f64>; 2] = Default::default();
        for tier in TierId::ALL {
            let (h, o) = tier
                .select_mut(&mut samplers)
                .rows(i as u64, s.tier(tier), s.interval_s);
            *tier.select_mut(&mut hpc) = h;
            *tier.select_mut(&mut os) = o;
        }
        if !fed {
            continue;
        }
        if i % window_len == 0 && prev_fed != Some(window - 1) {
            meter.reset_history();
        }
        agg.observe(s, hpc, os);
        if agg.samples() < window_len {
            continue;
        }
        let Some(instance) = std::mem::take(&mut agg).finish(&meter.config().oracle) else {
            continue;
        };
        let prediction = meter.predict(&instance);
        out.push((
            window,
            OnlineDecision {
                prediction,
                window: instance,
            },
        ));
        prev_fed = Some(window);
    }
    out
}

/// Every full window of a `total`-sample stream — the no-fault window
/// set for [`replay_windows`].
pub fn all_windows(total: usize, window_len: usize) -> BTreeSet<i64> {
    (0..(total / window_len) as i64).collect()
}

/// Predict `(survivors, poisoned)` for one agent running a
/// [`FaultSchedule`]: scheduled drops silence their sequences,
/// scheduled reconnects split the send sessions, and the collector's
/// documented poisoning rules run over the resulting schedule:
///
/// * the collector poisons every window containing a missing key, plus
///   the windows straddled by a session break (unless the break falls
///   exactly on a window boundary);
/// * a full window survives iff it is not poisoned.
///
/// Shares no code with the agent or collector.
pub fn predicted_windows_for_schedule(
    total: u64,
    schedule: &FaultSchedule,
    window_len: usize,
    origin: i64,
) -> (BTreeSet<i64>, BTreeSet<i64>) {
    let mut sessions: Vec<Vec<i64>> = vec![Vec::new()];
    for seq in 0..total {
        if schedule.reconnect_before.contains(&seq) {
            sessions.push(Vec::new());
        }
        if schedule.drops(seq) {
            continue;
        }
        if let Some(session) = sessions.last_mut() {
            session.push(origin + seq as i64);
        }
    }

    // The collector's poisoning rules over that send schedule: keys
    // that reached the wire, grouped by connection, in order.
    let window_len = window_len as i64;
    let window_of = |key: i64| (key - origin).div_euclid(window_len);
    let first_key = |w: i64| origin + w * window_len;
    let last_key = |w: i64| first_key(w) + window_len - 1;

    let mut poisoned = BTreeSet::new();
    let mut last: Option<i64> = None;
    let mut fresh = false;
    for (si, session) in sessions.iter().enumerate() {
        if si > 0 {
            fresh = true;
        }
        for &key in session {
            if fresh {
                fresh = false;
                if let Some(l) = last {
                    if l != last_key(window_of(l)) {
                        poisoned.insert(window_of(l));
                    }
                }
                if key != first_key(window_of(key)) {
                    poisoned.insert(window_of(key));
                }
            }
            let expected = last.map_or(origin, |l| l + 1);
            if key > expected {
                for w in window_of(expected)..=window_of(key - 1) {
                    poisoned.insert(w);
                }
            }
            last = Some(key);
        }
    }
    if total > 0 {
        // Bye announces the final sequence; trailing drops surface here.
        let final_key = origin + (total as i64) - 1;
        let expected = last.map_or(origin, |l| l + 1);
        if final_key >= expected {
            for w in window_of(expected)..=window_of(final_key) {
                poisoned.insert(w);
            }
        }
    }

    let full_windows = total as i64 / window_len;
    let survivors = (0..full_windows)
        .filter(|w| !poisoned.contains(w))
        .collect();
    (survivors, poisoned)
}

/// Predict `(survivors, poisoned)` for a two-tier deployment, one
/// [`FaultSchedule`] per tier in [`TierId::ALL`] order. The collector
/// quarantines per system window, so a window is poisoned if either
/// tier's schedule poisons it under [`predicted_windows_for_schedule`],
/// and a full window survives iff neither does.
pub fn predicted_windows(
    total: u64,
    schedules: &[FaultSchedule; 2],
    window_len: usize,
    origin: i64,
) -> (BTreeSet<i64>, BTreeSet<i64>) {
    let poisoned: BTreeSet<i64> = schedules
        .iter()
        .flat_map(|s| predicted_windows_for_schedule(total, s, window_len, origin).1)
        .collect();
    let mut survivors = all_windows(total as usize, window_len);
    survivors.retain(|w| !poisoned.contains(w));
    (survivors, poisoned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle over knobs alone: compile, then predict.
    fn predicted_surviving_windows(
        total: u64,
        faults: &FaultKnobs,
        window_len: usize,
        origin: i64,
    ) -> (BTreeSet<i64>, BTreeSet<i64>) {
        let script = faults.schedule(total, &FaultSchedule::NONE);
        predicted_windows_for_schedule(total, &script, window_len, origin)
    }

    #[test]
    fn no_faults_means_every_full_window_survives() {
        let (survivors, poisoned) = predicted_surviving_windows(240, &FaultKnobs::NONE, 30, 1);
        assert_eq!(survivors, (0..8).collect::<BTreeSet<i64>>());
        assert!(poisoned.is_empty());
    }

    #[test]
    fn default_fault_schedule_is_the_hand_computed_one() {
        // drop_every=37 discards seqs 36, 73, 110, 147, 184, 221 →
        // keys 37, 74, 111, 148, 185, 222 → windows 1, 2, 3, 4, 6, 7.
        // reconnect_every=101 breaks after keys 103 and 207, both
        // mid-window (3 and 6, already poisoned). Windows 0 and 5
        // survive.
        let faults = FaultKnobs {
            drop_every: NonZeroU64::new(37),
            reconnect_every: NonZeroU64::new(101),
        };
        let (survivors, poisoned) = predicted_surviving_windows(240, &faults, 30, 1);
        assert_eq!(survivors, [0, 5].into_iter().collect::<BTreeSet<i64>>());
        assert_eq!(
            poisoned,
            [1, 2, 3, 4, 6, 7].into_iter().collect::<BTreeSet<i64>>()
        );
    }

    #[test]
    fn boundary_aligned_reconnects_poison_nothing() {
        // Sends 30 frames per connection with no drops: every break
        // falls exactly between windows.
        let faults = FaultKnobs {
            drop_every: None,
            reconnect_every: NonZeroU64::new(30),
        };
        let (survivors, poisoned) = predicted_surviving_windows(120, &faults, 30, 1);
        assert_eq!(survivors.len(), 4);
        assert!(poisoned.is_empty());
    }

    #[test]
    fn knobs_compile_around_a_scripted_outage() {
        // Scripted: seqs 3..=5 dropped, reconnect before seq 8. Attempts
        // skip the outage, so drop_every=4 discards seqs 6 (4th attempt)
        // and 10 (8th); reconnect_every=3 breaks after sends 0,1,2 (→ 3),
        // then counts 7 on that connection, restarts at the scripted
        // break, and breaks again after 8,9,11 (→ 12, inert).
        let scripted = FaultSchedule {
            drop_ranges: vec![(3, 5)],
            reconnect_before: vec![8],
        };
        let faults = FaultKnobs {
            drop_every: NonZeroU64::new(4),
            reconnect_every: NonZeroU64::new(3),
        };
        let merged = faults.schedule(12, &scripted);
        assert_eq!(merged.drop_ranges, vec![(3, 5), (6, 6), (10, 10)]);
        assert_eq!(merged.reconnect_before, vec![8, 3, 12]);
        assert_eq!(FaultKnobs::NONE.schedule(12, &scripted), scripted);
    }

    #[test]
    fn scheduled_outage_poisons_only_straddled_windows() {
        // Drop seqs 90..=104 → keys 91..=105, all inside window 3
        // (keys 91..=120); reconnect before seq 160 breaks between keys
        // 160 and 161, mid-window 5 (keys 151..=180).
        let schedule = FaultSchedule {
            drop_ranges: vec![(90, 104)],
            reconnect_before: vec![160],
        };
        let (survivors, poisoned) = predicted_windows_for_schedule(210, &schedule, 30, 1);
        assert_eq!(
            poisoned,
            [3, 5].into_iter().collect::<BTreeSet<i64>>(),
            "poisoned"
        );
        assert_eq!(
            survivors,
            [0, 1, 2, 4, 6].into_iter().collect::<BTreeSet<i64>>(),
            "survivors"
        );
    }

    #[test]
    fn boundary_aligned_scheduled_reconnect_poisons_nothing() {
        // Break before seq 30 = between keys 30 and 31, exactly on the
        // window-0/1 boundary.
        let schedule = FaultSchedule {
            drop_ranges: vec![],
            reconnect_before: vec![30],
        };
        let (survivors, poisoned) = predicted_windows_for_schedule(90, &schedule, 30, 1);
        assert!(poisoned.is_empty(), "poisoned {poisoned:?}");
        assert_eq!(survivors.len(), 3);
    }

    #[test]
    fn empty_schedule_matches_no_faults() {
        let (survivors, poisoned) =
            predicted_windows_for_schedule(240, &FaultSchedule::NONE, 30, 1);
        assert_eq!(survivors, (0..8).collect::<BTreeSet<i64>>());
        assert!(poisoned.is_empty());
    }

    #[test]
    fn trailing_drop_poisons_the_final_window() {
        // 60 samples, drop_every=60 → only seq 59 (key 60, window 1).
        let faults = FaultKnobs {
            drop_every: NonZeroU64::new(60),
            reconnect_every: None,
        };
        let (survivors, poisoned) = predicted_surviving_windows(60, &faults, 30, 1);
        assert_eq!(survivors, [0].into_iter().collect::<BTreeSet<i64>>());
        assert_eq!(poisoned, [1].into_iter().collect::<BTreeSet<i64>>());
    }

    #[test]
    fn a_window_either_tier_poisons_is_no_system_survivor() {
        // App: reconnect mid-window 5. Db: drops inside window 3 and a
        // trailing loss of its last sample (key 240, window 7), which
        // only the Db tier's `Bye` reveals.
        let app = FaultSchedule {
            drop_ranges: vec![],
            reconnect_before: vec![160],
        };
        let db = FaultSchedule {
            drop_ranges: vec![(90, 104), (239, 239)],
            reconnect_before: vec![],
        };
        let (app_survivors, app_poisoned) = predicted_windows_for_schedule(240, &app, 30, 1);
        let (db_survivors, db_poisoned) = predicted_windows_for_schedule(240, &db, 30, 1);
        assert_eq!(app_poisoned, [5].into_iter().collect::<BTreeSet<i64>>());
        assert_eq!(db_poisoned, [3, 7].into_iter().collect::<BTreeSet<i64>>());

        let (survivors, poisoned) = predicted_windows(240, &[app, db], 30, 1);
        assert_eq!(poisoned, [3, 5, 7].into_iter().collect::<BTreeSet<i64>>());
        assert_eq!(
            survivors,
            [0, 1, 2, 4, 6].into_iter().collect::<BTreeSet<i64>>()
        );
        assert_eq!(
            poisoned,
            app_poisoned
                .union(&db_poisoned)
                .copied()
                .collect::<BTreeSet<i64>>()
        );
        assert_eq!(
            survivors,
            app_survivors
                .intersection(&db_survivors)
                .copied()
                .collect::<BTreeSet<i64>>()
        );
    }

    #[test]
    fn replay_decides_within_the_papers_budget() {
        // The paper's online loop spends no more than 50 ms per decision;
        // here the whole loop is timed (per-second synthesis, window
        // folding and prediction), not one model's `predict`.
        let meter = CapacityMeter::train(&webcap_core::MeterConfig::small_for_tests(31))
            .expect("training succeeds");
        let window_len = meter.config().window_len;
        let mut sim = meter.config().sim.clone();
        sim.seed = 402;
        let program = webcap_tpcw::TrafficProgram::steady(webcap_tpcw::Mix::ordering(), 120, 150.0);
        let samples = webcap_sim::run(sim, program).samples;
        let t0 = std::time::Instant::now();
        let decisions =
            replay_windows(&meter, &samples, 9, &all_windows(samples.len(), window_len));
        let per_decision_ms = t0.elapsed().as_secs_f64() * 1000.0 / decisions.len() as f64;
        assert_eq!(decisions.len(), 5);
        assert!(
            per_decision_ms < 50.0,
            "per-decision cost {per_decision_ms} ms"
        );
    }
}
