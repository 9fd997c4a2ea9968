//! The reassembly core: the one implementation of the per-tier window
//! rules, and the one place a pair of window digests becomes a decision.
//!
//! A [`TierDigester`] consumes one tier's in-order [`WireSample`] stream
//! and produces a compact [`TierWindowDigest`] per complete window plus
//! poison verdicts for every window it cannot vouch for. Both planes are
//! built on it: the unsharded collector's
//! [`Assembler`](crate::collector::Assembler) runs one digester per tier
//! and joins their digests per window; a sharded `FleetCollector` runs
//! the digesters of the tiers it owns and ships the digests to the merge
//! node. Either way a complete, unpoisoned pair goes through
//! [`score_window`], so the two planes cannot disagree on a rule or on a
//! byte of a decision.
//!
//! # Gap semantics
//!
//! The core **never averages over holes**. Aggregation windows are
//! fixed spans of `window_len` consecutive second-keys (`key =
//! round(t_s)`), anchored at the deployment's window origin; window `w`
//! covers keys `origin + w·len ..= origin + (w+1)·len − 1`. A tier
//! *poisons* a window — permanently excludes it from prediction — when:
//!
//! * **a sequence gap** skips keys: every window containing a missing
//!   key is poisoned (detected the moment the first post-gap sample
//!   arrives, and at `Bye` for trailing loss), at most
//!   [`MAX_GAP_WINDOWS`] of them individually per gap;
//! * **a reconnection** straddles it: the window holding the last
//!   pre-disconnect key (unless that key ends its window) and the
//!   window holding the first post-reconnect key (unless that key
//!   starts its window) are poisoned, so no digest ever mixes two
//!   sessions mid-stream;
//! * **a session aborts** (EOF, shed, stall — no `Bye`) mid-window: the
//!   cut window is poisoned at once rather than waiting for a reconnect
//!   that may never come;
//! * **a sample cannot be aggregated**: its metric rows are not the
//!   width the tier's schema hash describes, or it is an
//!   application-tier sample without front-end statistics;
//! * **wire input names a key the window grid cannot hold** (a
//!   non-finite `t_s`, a `last_seq` beyond `i64`): the window the
//!   stream stands in is poisoned.
//!
//! Because a tier's frames arrive in order on one connection and a
//! window only completes when the tier has delivered *all* of its keys,
//! every poisoning event for a window is observed before the window
//! could complete — a digest is never retracted. The digests and poison
//! verdicts are therefore a pure function of the tier's frame sequence.

use std::collections::BTreeSet;

use webcap_core::monitor::feature_names;
use webcap_core::{
    label_from_aggs, CapacityMeter, MetricLevel, MixTally, OnlineDecision, RowMeanAccumulator,
    TierStressAgg, WindowHealthAgg, WindowInstance,
};
use webcap_sim::{TierId, TierSample};

use crate::frame::{AppStats, AppWindowDigest, TierWindowDigest, WireSample};

/// Most windows a single sequence gap may individually poison. A
/// legitimate outage of any survivable length stays far below this
/// (2^20 windows ≈ a year of 30 s windows); a hostile or corrupt
/// sequence jump (e.g. a `seq` near `u64::MAX`) would otherwise make
/// the gap-poisoning loop insert billions of ledger entries — an
/// unbounded-memory DoS. Beyond the clamp only the gap's first span
/// and its landing window are poisoned and the overflow is counted as
/// an anomaly; safety is unaffected, because the skipped windows have
/// no samples and therefore can never complete.
pub const MAX_GAP_WINDOWS: i64 = 1 << 20;

/// The fixed grid of aggregation windows over second-keys. Keys come
/// off the wire, so every operation saturates instead of overflowing;
/// [`WindowGrid::place`] is the gate that keeps saturated values out of
/// the stream position.
#[derive(Debug, Clone, Copy)]
struct WindowGrid {
    origin: i64,
    window_len: i64,
}

impl WindowGrid {
    fn window_of(&self, key: i64) -> i64 {
        key.saturating_sub(self.origin).div_euclid(self.window_len)
    }

    fn first_key(&self, window: i64) -> i64 {
        self.origin
            .saturating_add(window.saturating_mul(self.window_len))
    }

    fn last_key_of(&self, window: i64) -> i64 {
        self.first_key(window).saturating_add(self.window_len - 1)
    }

    /// The window holding `key`, or `None` when the key sits so close
    /// to an `i64` extreme that its window's bounds (or the key after
    /// it) would not be representable.
    fn place(&self, key: i64) -> Option<i64> {
        key.checked_sub(self.origin)?;
        key.checked_add(self.window_len)?;
        Some(self.window_of(key))
    }
}

/// One window's in-progress aggregates for one tier.
#[derive(Debug, Default)]
struct WindowAcc {
    window: i64,
    samples: u32,
    hpc: RowMeanAccumulator,
    os: RowMeanAccumulator,
    stress: TierStressAgg,
    // Application-tier evidence (unused by the database tier).
    t_start_s: f64,
    t_end_s: f64,
    duration_s: f64,
    health: WindowHealthAgg,
    mix: MixTally,
}

impl WindowAcc {
    fn new(window: i64) -> WindowAcc {
        WindowAcc {
            window,
            ..WindowAcc::default()
        }
    }

    /// Fold one sample in, in the exact float-operation order of the
    /// in-process monitor ([`RowMeanAccumulator`], [`WindowHealthAgg`],
    /// [`TierStressAgg`], [`MixTally`]). `front_end` is the sample's
    /// application-level statistics on the application tier.
    fn observe(&mut self, ws: WireSample, front_end: Option<AppStats>) {
        self.samples += 1;
        self.hpc.push(ws.hpc);
        self.os.push(ws.os);
        self.stress.observe(&ws.tier);
        if let Some(stats) = front_end {
            if self.samples == 1 {
                self.t_start_s = ws.t_s - ws.interval_s;
            }
            self.t_end_s = ws.t_s;
            self.duration_s += ws.interval_s;
            // `WindowHealthAgg::observe` reads only the front-end
            // fields, so reassembling with a placeholder database tier
            // is exact.
            let sample = stats.into_sample(ws.t_s, ws.interval_s, ws.tier, TierSample::default());
            self.health.observe(&sample);
            self.mix.observe(sample.mix_id);
        }
    }

    fn finish(mut self, tier: TierId) -> TierWindowDigest {
        let app = (tier == TierId::App).then(|| AppWindowDigest {
            t_start_s: self.t_start_s,
            t_end_s: self.t_end_s,
            duration_s: self.duration_s,
            health: std::mem::take(&mut self.health),
            mix_counts: self.mix.counts().to_vec(),
        });
        TierWindowDigest {
            window: self.window,
            tier,
            samples: self.samples,
            hpc_mean: self.hpc.finish(),
            os_mean: self.os.finish(),
            stress: self.stress,
            app,
        }
    }
}

/// The tier-local reassembly state machine: consumes one tier's
/// in-order [`WireSample`] stream and produces completed-window
/// digests plus poison verdicts (see the module docs for the rules).
/// Single-threaded and fully deterministic.
#[derive(Debug)]
pub struct TierDigester {
    tier: TierId,
    grid: WindowGrid,
    /// Row widths of the tier's metric schema — what
    /// [`metric_schema_hash`](crate::frame::metric_schema_hash) covers.
    hpc_width: usize,
    os_width: usize,
    last_key: Option<i64>,
    fresh_session: bool,
    had_session: bool,
    completed: BTreeSet<i64>,
    poisoned: BTreeSet<i64>,
    anomalies: u64,
    cur: Option<WindowAcc>,
    ready: Vec<TierWindowDigest>,
    new_poisons: Vec<i64>,
}

impl TierDigester {
    /// A digester for `tier` over windows of `window_len` keys anchored
    /// at `origin` (the key of sequence 0).
    pub fn new(tier: TierId, window_len: i64, origin: i64) -> TierDigester {
        TierDigester {
            tier,
            grid: WindowGrid {
                origin,
                window_len: window_len.max(1),
            },
            hpc_width: feature_names(MetricLevel::Hpc, tier).len(),
            os_width: feature_names(MetricLevel::Os, tier).len(),
            last_key: None,
            fresh_session: false,
            had_session: false,
            completed: BTreeSet::new(),
            poisoned: BTreeSet::new(),
            anomalies: 0,
            cur: None,
            ready: Vec::new(),
            new_poisons: Vec::new(),
        }
    }

    /// The tier this digester reassembles.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Note a (re)connection. The first session is just the stream
    /// starting; later ones arm the straddle-poisoning rules, applied
    /// when the session's first sample shows where the discontinuity
    /// fell. Returns `true` for those reconnects so the caller can feed
    /// its supervisor.
    pub fn on_session_start(&mut self) -> bool {
        if self.had_session {
            self.fresh_session = true;
            true
        } else {
            self.had_session = true;
            false
        }
    }

    /// The key the stream must deliver next.
    fn expected_key(&self) -> i64 {
        self.last_key
            .map_or(self.grid.origin, |l| l.saturating_add(1))
    }

    fn poison(&mut self, window: i64) {
        if window < 0 || self.completed.contains(&window) {
            // A completed window cannot be un-digested; ordered per-tier
            // streams never hit this (see the module docs) — count it
            // rather than trust it.
            self.anomalies += 1;
            return;
        }
        if self.poisoned.insert(window) {
            if self.cur.as_ref().is_some_and(|c| c.window == window) {
                self.cur = None;
            }
            self.new_poisons.push(window);
        }
    }

    /// Poison every window holding a key of the inclusive span
    /// `first_key..=last_key`, clamped to [`MAX_GAP_WINDOWS`] so a
    /// hostile sequence jump cannot grow the poison ledger without
    /// bound. The landing window is always poisoned so the gap's right
    /// edge stays quarantined even when the middle is elided.
    fn poison_gap(&mut self, first_key: i64, last_key: i64) {
        let (first_w, last_w) = (
            self.grid.window_of(first_key),
            self.grid.window_of(last_key),
        );
        let clamped = last_w.min(first_w.saturating_add(MAX_GAP_WINDOWS - 1));
        for w in first_w..=clamped {
            self.poison(w);
        }
        if clamped < last_w {
            self.anomalies += 1;
            self.poison(last_w);
        }
    }

    /// Wire input named a key the grid cannot hold, so the position it
    /// claims is meaningless: count it, and quarantine the window the
    /// stream currently stands in instead of trusting what follows.
    fn reject_unplaceable(&mut self) {
        self.anomalies += 1;
        self.poison(self.grid.window_of(self.expected_key()));
    }

    /// Feed one received sample. Completed digests and new poison
    /// verdicts accumulate until [`TierDigester::take_ready`] /
    /// [`TierDigester::take_new_poisons`].
    pub fn on_sample(&mut self, mut ws: WireSample) {
        // `as` saturates: ±∞ land on the `i64` extremes, which the grid
        // refuses to place; NaN lands on 0, a backward key.
        let key = ws.t_s.round() as i64;
        let Some(window) = self.grid.place(key) else {
            self.reject_unplaceable();
            return;
        };

        if self.fresh_session {
            self.fresh_session = false;
            // The break the new session reveals is the cut an abort
            // reports; re-applying it is idempotent on the ledger.
            self.on_session_abort();
            if key != self.grid.first_key(window) {
                self.poison(window);
            }
        }

        let expected = self.expected_key();
        if key < expected {
            // Duplicate or out-of-order: impossible on one ordered
            // stream, so never silently fold it into an aggregate.
            self.anomalies += 1;
            return;
        }
        if key > expected {
            self.poison_gap(expected, key - 1);
        }
        self.last_key = Some(key);
        if self.poisoned.contains(&window) {
            return;
        }

        let front_end = match self.tier {
            TierId::App => ws.app.take(),
            TierId::Db => None,
        };
        if ws.hpc.len() != self.hpc_width
            || ws.os.len() != self.os_width
            || (self.tier == TierId::App && front_end.is_none())
        {
            // Rows the schema hash does not describe, or an application
            // sample without front-end stats: a protocol violation that
            // must never reach an aggregate.
            self.anomalies += 1;
            self.poison(window);
            return;
        }

        if self.cur.as_ref().is_some_and(|c| c.window != window) {
            // A partial accumulator for a *different* window here would
            // mean keys were skipped without the gap rules firing —
            // impossible on an ordered stream.
            self.anomalies += 1;
            self.cur = None;
        }
        let acc = self.cur.get_or_insert_with(|| WindowAcc::new(window));
        acc.observe(ws, front_end);
        if i64::from(acc.samples) < self.grid.window_len {
            return;
        }
        if let Some(acc) = self.cur.take() {
            self.completed.insert(window);
            self.ready.push(acc.finish(self.tier));
        }
    }

    /// The tier finished cleanly, announcing its final sequence; detect
    /// trailing loss (frames dropped after the last one received).
    pub fn on_bye(&mut self, last_seq: u64) {
        let final_key = i64::try_from(last_seq)
            .ok()
            .and_then(|seq| self.grid.origin.checked_add(seq))
            .filter(|key| self.grid.place(*key).is_some());
        let Some(final_key) = final_key else {
            self.reject_unplaceable();
            return;
        };
        let expected = self.expected_key();
        if final_key >= expected {
            self.poison_gap(expected, final_key);
            self.last_key = Some(final_key);
        }
    }

    /// The tier's session ended *abnormally* — EOF, overload shed, or an
    /// idle/stall timeout, with no `Bye`. The window its last key sits
    /// in mid-stream is quarantined immediately (unless the break fell
    /// exactly on a window boundary): the in-flight window must never
    /// wait on a reconnect that may not come to be poisoned.
    pub fn on_session_abort(&mut self) {
        if let Some(k) = self.last_key {
            let window = self.grid.window_of(k);
            if k != self.grid.last_key_of(window) {
                self.poison(window);
            }
        }
    }

    /// Digests completed since the last take.
    pub fn take_ready(&mut self) -> Vec<TierWindowDigest> {
        std::mem::take(&mut self.ready)
    }

    /// Windows newly poisoned since the last take.
    pub fn take_new_poisons(&mut self) -> Vec<i64> {
        std::mem::take(&mut self.new_poisons)
    }

    /// All windows this digester has poisoned.
    pub fn poisoned_windows(&self) -> &BTreeSet<i64> {
        &self.poisoned
    }

    /// The window currently being accumulated, if any.
    pub fn pending_window(&self) -> Option<i64> {
        self.cur.as_ref().map(|c| c.window)
    }

    /// Protocol-order surprises counted.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Capture the boundary-persistent state for a snapshot. The
    /// partial-window accumulator is deliberately dropped: a snapshot is
    /// only ever restored across a process boundary, where every agent
    /// reconnects, and a resume re-arms the fresh-session straddle
    /// rules, which quarantine any window cut by the restart — exactly
    /// as they do for a mid-run reconnect.
    pub(crate) fn export_state(&self) -> DigesterState {
        DigesterState {
            tier: self.tier,
            last_key: self.last_key,
            had_session: self.had_session,
            completed: self.completed.iter().copied().collect(),
            poisoned: self.poisoned.iter().copied().collect(),
            anomalies: self.anomalies,
        }
    }

    /// Rebuild a digester from a snapshot, with `fresh_session` armed
    /// for any tier that had a session — the first post-restart sample
    /// runs the straddle rules. A restart at a window boundary
    /// continues byte-identically; a restart mid-window quarantines
    /// exactly the cut window.
    pub(crate) fn resume(state: &DigesterState, window_len: i64, origin: i64) -> TierDigester {
        let mut d = TierDigester::new(state.tier, window_len, origin);
        d.last_key = state.last_key;
        d.had_session = state.had_session;
        d.fresh_session = state.had_session;
        d.completed = state.completed.iter().copied().collect();
        d.poisoned = state.poisoned.iter().copied().collect();
        d.anomalies = state.anomalies;
        d
    }
}

/// The part of [`TierDigester`] state that survives a collector
/// restart (see [`TierDigester::export_state`] for what is excluded
/// and why).
#[derive(Debug)]
pub(crate) struct DigesterState {
    /// The digested tier.
    pub(crate) tier: TierId,
    /// Last key received.
    pub(crate) last_key: Option<i64>,
    /// Whether the tier ever had a session.
    pub(crate) had_session: bool,
    /// Windows already digested (never to be re-digested).
    pub(crate) completed: Vec<i64>,
    /// Windows quarantined (never to be trusted).
    pub(crate) poisoned: Vec<i64>,
    /// Protocol-order surprises counted so far.
    pub(crate) anomalies: u64,
}

/// Score one complete window from its two tier digests. The decision is
/// byte-identical to the in-process monitor's over the same samples:
/// the digests carry aggregates built with the same float-operation
/// order, and the meter sees the same reset-on-discontinuity cadence —
/// its recent history is reset unless `*prev_fed` is the window just
/// before this one, and `*prev_fed` advances to this window.
///
/// Returns `None`, touching neither the meter nor `prev_fed`, when the
/// application-tier digest carries no usable front-end evidence — a
/// [`TierDigester`] never emits one, so it is a forged or corrupted
/// digest the caller should count and withhold.
pub fn score_window(
    meter: &mut CapacityMeter,
    prev_fed: &mut Option<i64>,
    app: TierWindowDigest,
    db: TierWindowDigest,
) -> Option<OnlineDecision> {
    let window = app.window;
    let front_end = app.app?;
    let mix = MixTally::from_counts(front_end.mix_counts).majority()?;
    if prev_fed.and_then(|p| p.checked_add(1)) != Some(window) {
        meter.reset_history();
    }
    let label = label_from_aggs(
        &front_end.health,
        [app.stress.stress(), db.stress.stress()],
        &meter.config().oracle,
    );
    let mut features: [[Vec<f64>; 2]; 3] = Default::default();
    for (tier, hpc, os) in [
        (TierId::App, app.hpc_mean, app.os_mean),
        (TierId::Db, db.hpc_mean, db.os_mean),
    ] {
        let mut combined = os.clone();
        combined.extend_from_slice(&hpc);
        *tier.select_mut(MetricLevel::Hpc.select_mut(&mut features)) = hpc;
        *tier.select_mut(MetricLevel::Os.select_mut(&mut features)) = os;
        *tier.select_mut(MetricLevel::Combined.select_mut(&mut features)) = combined;
    }
    let throughput = front_end.health.completed as f64 / front_end.duration_s.max(1e-9);
    let instance = WindowInstance::from_parts(
        label,
        mix,
        front_end.t_start_s,
        front_end.t_end_s,
        throughput,
        features,
    );
    let prediction = meter.predict(&instance);
    *prev_fed = Some(window);
    Some(OnlineDecision {
        prediction,
        window: instance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_math_is_origin_anchored() {
        let grid = WindowGrid {
            origin: 1,
            window_len: 30,
        };
        assert_eq!(grid.window_of(1), 0);
        assert_eq!(grid.window_of(30), 0);
        assert_eq!(grid.window_of(31), 1);
        assert_eq!(grid.first_key(1), 31);
        assert_eq!(grid.last_key_of(1), 60);
    }
}
