//! The reassembly core, driven through both of its consumers.
//!
//! The unsharded [`Assembler`] and the sharded [`FleetCollector`] are
//! built from the same `webcap_net::reassembly::TierDigester`, so every
//! rule — and every piece of hostile-input hardening — must show up
//! identically on both planes. Each test feeds the same event script to
//! both and demands the same quarantine verdicts and anomaly counts,
//! except where the planes read different metric families: the
//! assembler its meter's, a fleet shard every family. A few scripts
//! drive the assembler alone, to pin the decisions it emits.

use std::collections::BTreeSet;

use webcap_core::{CapacityMeter, MeterConfig, MetricLevel, OnlineDecision};
use webcap_fleet::FleetCollector;
use webcap_net::{
    replay_windows, Assembler, SourceSample, SupervisorConfig, TierSampler, WireSample,
    MAX_GAP_WINDOWS,
};
use webcap_sim::{RtHistogram, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

mod common;
#[path = "common/meter.rs"]
mod meter;
use meter::trained_meter;

const WINDOW: i64 = 30;
const ORIGIN: i64 = 1;

/// The events the two planes share.
trait Plane {
    fn name(&self) -> &'static str;
    fn start(&mut self, tier: TierId);
    fn sample(&mut self, tier: TierId, ws: WireSample);
    fn bye(&mut self, tier: TierId, last_seq: u64);
    fn abort(&mut self, tier: TierId);
    fn poisoned(&self) -> Vec<i64>;
    fn anomalies(&self) -> u64;
    /// Windows that completed on both tiers and were handed on
    /// (decisions emitted, or digest pairs flushed).
    fn completed(&self) -> Vec<i64>;
}

struct Unsharded {
    assembler: Assembler,
    emitted: Vec<i64>,
}

impl Plane for Unsharded {
    fn name(&self) -> &'static str {
        "assembler"
    }
    fn start(&mut self, tier: TierId) {
        self.assembler.on_session_start(tier);
    }
    fn sample(&mut self, tier: TierId, ws: WireSample) {
        let emitted = &mut self.emitted;
        self.assembler
            .on_sample(tier, ws, &mut |window, _| emitted.push(window));
    }
    fn bye(&mut self, tier: TierId, last_seq: u64) {
        self.assembler.on_bye(tier, last_seq);
    }
    fn abort(&mut self, tier: TierId) {
        self.assembler.on_session_abort(tier);
    }
    fn poisoned(&self) -> Vec<i64> {
        self.assembler.poisoned_windows()
    }
    fn anomalies(&self) -> u64 {
        self.assembler.anomalies()
    }
    fn completed(&self) -> Vec<i64> {
        self.emitted.clone()
    }
}

struct Sharded {
    collector: FleetCollector,
    /// Digests flushed so far, as `(window, tier)`.
    digests: Vec<(i64, TierId)>,
}

impl Sharded {
    fn drain(&mut self) {
        if let Some(frame) = self.collector.flush(None) {
            self.digests
                .extend(frame.windows.iter().map(|d| (d.window, d.tier)));
        }
    }
}

impl Plane for Sharded {
    fn name(&self) -> &'static str {
        "fleet collector"
    }
    fn start(&mut self, tier: TierId) {
        self.collector.on_session_start(tier);
    }
    fn sample(&mut self, tier: TierId, ws: WireSample) {
        self.collector.on_sample(tier, &ws);
        self.drain();
    }
    fn bye(&mut self, tier: TierId, last_seq: u64) {
        self.collector.on_bye(tier, last_seq);
        self.drain();
    }
    fn abort(&mut self, tier: TierId) {
        self.collector.on_session_abort(tier);
        self.drain();
    }
    fn poisoned(&self) -> Vec<i64> {
        self.collector.poisoned_windows().into_iter().collect()
    }
    fn anomalies(&self) -> u64 {
        self.collector.anomalies()
    }
    fn completed(&self) -> Vec<i64> {
        let poisoned = self.collector.poisoned_windows();
        let has = |w: i64, t: TierId| self.digests.contains(&(w, t));
        let mut windows: Vec<i64> = self
            .digests
            .iter()
            .map(|(w, _)| *w)
            .filter(|w| has(*w, TierId::App) && has(*w, TierId::Db) && !poisoned.contains(w))
            .collect();
        windows.sort_unstable();
        windows.dedup();
        windows
    }
}

/// The shared test meter, held to what these scripts assume: an HPC
/// one, over 30-sample windows.
fn hpc_meter() -> CapacityMeter {
    let meter = trained_meter();
    assert_eq!(meter.config().window_len as i64, WINDOW);
    assert_eq!(meter.config().level, MetricLevel::Hpc);
    meter
}

/// Both planes, each with both tiers' sessions started.
fn planes() -> Vec<Box<dyn Plane>> {
    let mut planes: Vec<Box<dyn Plane>> = vec![
        Box::new(Unsharded {
            assembler: Assembler::new(hpc_meter(), ORIGIN),
            emitted: Vec::new(),
        }),
        Box::new(Sharded {
            collector: FleetCollector::new(
                0,
                &TierId::ALL,
                WINDOW,
                ORIGIN,
                SupervisorConfig::default(),
            ),
            digests: Vec::new(),
        }),
    ];
    for plane in &mut planes {
        for tier in TierId::ALL {
            plane.start(tier);
        }
    }
    planes
}

/// A well-formed sample of `tier` for sequence `seq` (key `seq + 1`).
fn wire(seq: u64, tier: TierId) -> WireSample {
    common::wire(seq, tier == TierId::App)
}

/// Feed sequences `seqs` of both tiers, unharmed.
fn feed(plane: &mut dyn Plane, seqs: std::ops::Range<u64>) {
    for seq in seqs {
        for tier in TierId::ALL {
            plane.sample(tier, wire(seq, tier));
        }
    }
}

#[test]
fn a_hostile_timestamp_jump_is_clamped_on_both_planes() {
    for mut plane in planes() {
        let name = plane.name();
        feed(plane.as_mut(), 0..1);
        let mut hostile = wire(1, TierId::Db);
        hostile.t_s = 1e15;
        plane.sample(TierId::Db, hostile);
        // The gap's first MAX_GAP_WINDOWS windows and its landing window.
        let poisoned = plane.poisoned();
        assert_eq!(poisoned.len() as i64, MAX_GAP_WINDOWS + 1, "{name}");
        assert_eq!(poisoned.first(), Some(&0), "{name}");
        assert_eq!(
            poisoned.last(),
            Some(&((1_000_000_000_000_000 - ORIGIN) / WINDOW)),
            "{name}: the landing window stays quarantined"
        );
        assert_eq!(plane.anomalies(), 1, "{name}: the clamp is counted once");
    }
}

#[test]
fn abort_quarantine_is_identical_on_both_planes() {
    for mut plane in planes() {
        let name = plane.name();
        // A break exactly on the window-0/1 boundary cuts nothing...
        feed(plane.as_mut(), 0..30);
        plane.abort(TierId::Db);
        assert_eq!(plane.poisoned(), Vec::<i64>::new(), "{name}: boundary");
        // ...one mid-window-1 quarantines it at once, with no reconnect
        // needed to reveal the cut.
        plane.start(TierId::Db);
        feed(plane.as_mut(), 30..45);
        plane.abort(TierId::App);
        assert_eq!(plane.poisoned(), vec![1], "{name}: mid-window");
        plane.start(TierId::App);
        feed(plane.as_mut(), 45..90);
        assert_eq!(plane.poisoned(), vec![1], "{name}: reconnect is idempotent");
        assert_eq!(plane.completed(), vec![0, 2], "{name}");
        assert_eq!(plane.anomalies(), 0, "{name}");
    }
}

#[test]
fn unplaceable_keys_count_an_anomaly_and_quarantine_instead_of_overflowing() {
    for mut plane in planes() {
        let name = plane.name();
        feed(plane.as_mut(), 0..45);
        // +∞ rounds to key i64::MAX, whose window bounds overflow; −∞
        // likewise at the other extreme.
        for (k, t_s) in [f64::INFINITY, f64::NEG_INFINITY].into_iter().enumerate() {
            let mut hostile = wire(45, TierId::App);
            hostile.t_s = t_s;
            plane.sample(TierId::App, hostile);
            assert_eq!(plane.anomalies(), k as u64 + 1, "{name}: t_s = {t_s}");
            assert_eq!(plane.poisoned(), vec![1], "{name}: t_s = {t_s}");
        }
        // NaN rounds to key 0: a backward key, counted and ignored.
        let mut hostile = wire(45, TierId::Db);
        hostile.t_s = f64::NAN;
        plane.sample(TierId::Db, hostile);
        assert_eq!(plane.anomalies(), 3, "{name}: NaN");
        // The stream position survived: the honest stream continues and
        // window 2 completes.
        feed(plane.as_mut(), 45..90);
        assert_eq!(plane.completed(), vec![0, 2], "{name}");

        // A Bye whose final sequence does not fit the key space.
        plane.bye(TierId::App, i64::MAX as u64);
        assert_eq!(plane.anomalies(), 4, "{name}: Bye");
        assert_eq!(plane.poisoned(), vec![1, 3], "{name}: Bye");
        // One that fits but is absurd is trailing loss under the clamp.
        plane.bye(TierId::Db, 1 << 60);
        assert_eq!(plane.anomalies(), 5, "{name}: clamped Bye");
        assert_eq!(
            plane.poisoned().len() as i64,
            MAX_GAP_WINDOWS + 2,
            "{name}: clamped Bye"
        );
    }
}

#[test]
fn a_row_of_the_wrong_width_poisons_its_window_instead_of_panicking() {
    for mut plane in planes() {
        let name = plane.name();
        feed(plane.as_mut(), 0..35);
        let mut narrow = wire(35, TierId::Db);
        narrow.hpc.pop();
        plane.sample(TierId::Db, narrow);
        assert_eq!(plane.poisoned(), vec![1], "{name}: narrow HPC row");
        assert_eq!(plane.anomalies(), 1, "{name}");
        plane.sample(TierId::App, wire(35, TierId::App));
        feed(plane.as_mut(), 36..65);
        let mut wide = wire(65, TierId::App);
        wide.os.push(0.0);
        plane.sample(TierId::App, wide);
        assert_eq!(plane.poisoned(), vec![1, 2], "{name}: wide OS row");
        assert_eq!(plane.anomalies(), 2, "{name}");
        assert_eq!(plane.completed(), vec![0], "{name}");
    }
}

#[test]
fn an_app_sample_without_front_end_stats_is_quarantined_at_the_same_moment() {
    for mut plane in planes() {
        let name = plane.name();
        feed(plane.as_mut(), 0..35);
        let mut bare = wire(35, TierId::App);
        bare.app = None;
        plane.sample(TierId::App, bare);
        // Judged on arrival, not when the window would have completed.
        assert_eq!(plane.poisoned(), vec![1], "{name}");
        assert_eq!(plane.anomalies(), 1, "{name}");
        plane.sample(TierId::Db, wire(35, TierId::Db));
        feed(plane.as_mut(), 36..90);
        assert_eq!(plane.poisoned(), vec![1], "{name}");
        assert_eq!(plane.anomalies(), 1, "{name}");
        assert_eq!(plane.completed(), vec![0, 2], "{name}");
    }
}

#[test]
fn hostile_counts_saturate_instead_of_overflowing_on_both_planes() {
    // A window of application samples each claiming u64::MAX completions
    // and a histogram bucket at u32::MAX: folding them must saturate, not
    // panic (debug) or wrap (release), and both planes judge alike.
    let mut counts = [0u32; RtHistogram::BUCKET_COUNT];
    counts[20] = u32::MAX;
    let hostile_hist = RtHistogram::from_raw_parts(&counts, u64::MAX).expect("48 buckets");
    let mut verdicts = Vec::new();
    for mut plane in planes() {
        for seq in 0..WINDOW as u64 {
            for tier in TierId::ALL {
                let mut ws = wire(seq, tier);
                if let Some(app) = ws.app.as_mut() {
                    app.completed = u64::MAX;
                    app.response_times = hostile_hist.clone();
                }
                plane.sample(tier, ws);
            }
        }
        verdicts.push((plane.poisoned(), plane.anomalies(), plane.completed()));
    }
    assert_eq!(verdicts[0], verdicts[1], "both planes");
    assert_eq!(verdicts[0], (vec![], 0, vec![0]));
}

// The assembler's own scripts: gaps, reconnects and loss at either end
// of the stream, judged by the decisions it emits.

#[test]
fn complete_windows_emit_and_gaps_poison() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    // Window 0 complete on both tiers; window 1 has a one-frame gap
    // on the DB tier (seq 35 dropped); window 2 complete again.
    for seq in 0..90u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        a.on_sample(TierId::App, wire(seq, TierId::App), &mut sink);
        if seq != 35 {
            a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
        }
    }
    a.on_bye(TierId::App, 89);
    a.on_bye(TierId::Db, 89);
    assert_eq!(emitted, vec![0, 2]);
    assert_eq!(a.poisoned_windows(), vec![1]);
    assert_eq!(a.pending_windows(), Vec::<i64>::new());
    assert_eq!(a.anomalies(), 0);
}

#[test]
fn reconnect_mid_window_poisons_the_straddled_window() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    for seq in 0..90u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        if seq == 40 {
            // The APP agent reconnects between seq 39 and 40 — both
            // inside window 1 — losing nothing, but the session
            // boundary still quarantines the straddled window.
            a.on_session_start(TierId::App);
        }
        a.on_sample(TierId::App, wire(seq, TierId::App), &mut sink);
        a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
    }
    a.on_bye(TierId::App, 89);
    a.on_bye(TierId::Db, 89);
    assert_eq!(emitted, vec![0, 2]);
    assert_eq!(a.poisoned_windows(), vec![1]);
}

#[test]
fn reconnect_on_a_window_boundary_poisons_nothing() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    for seq in 0..60u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        if seq == 30 {
            // Clean break exactly between windows 0 and 1.
            a.on_session_start(TierId::Db);
        }
        a.on_sample(TierId::App, wire(seq, TierId::App), &mut sink);
        a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
    }
    assert_eq!(emitted, vec![0, 1]);
    assert!(a.poisoned_windows().is_empty());
}

#[test]
fn trailing_loss_is_detected_at_bye() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    // DB tier's last two frames (seqs 58, 59) never arrive; its Bye
    // announces last_seq 59, exposing the trailing gap.
    for seq in 0..60u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        a.on_sample(TierId::App, wire(seq, TierId::App), &mut sink);
        if seq < 58 {
            a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
        }
    }
    a.on_bye(TierId::App, 59);
    a.on_bye(TierId::Db, 59);
    assert_eq!(emitted, vec![0]);
    assert_eq!(a.poisoned_windows(), vec![1]);
}

#[test]
fn leading_loss_poisons_the_first_window() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    // The APP tier's very first frame went missing.
    for seq in 0..60u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        if seq != 0 {
            a.on_sample(TierId::App, wire(seq, TierId::App), &mut sink);
        }
        a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
    }
    assert_eq!(emitted, vec![1]);
    assert_eq!(a.poisoned_windows(), vec![0]);
}

#[test]
fn app_sample_without_front_end_stats_poisons_not_panics() {
    let mut a = Assembler::new(hpc_meter(), ORIGIN);
    let mut emitted = Vec::new();
    a.on_session_start(TierId::App);
    a.on_session_start(TierId::Db);
    for seq in 0..30u64 {
        let mut sink = |w: i64, _: &OnlineDecision| emitted.push(w);
        // Protocol violation: app tier omits AppStats.
        let bare = WireSample {
            app: None,
            ..wire(seq, TierId::App)
        };
        a.on_sample(TierId::App, bare, &mut sink);
        a.on_sample(TierId::Db, wire(seq, TierId::Db), &mut sink);
    }
    assert!(emitted.is_empty());
    assert_eq!(a.poisoned_windows(), vec![0]);
    assert!(a.anomalies() > 0);
}

#[test]
fn a_read_family_arriving_empty_poisons_exactly_its_window() {
    for mut plane in planes() {
        let name = plane.name();
        // The fleet's digesters fold every family, so full-width rows
        // are what they take; the assembler's HPC meter reads no OS row.
        let reads_os = name == "fleet collector";
        feed(plane.as_mut(), 0..35);
        let mut no_hpc = wire(35, TierId::Db);
        no_hpc.hpc.clear();
        plane.sample(TierId::Db, no_hpc);
        assert_eq!(plane.poisoned(), vec![1], "{name}: empty HPC row");
        assert_eq!(plane.anomalies(), 1, "{name}");
        plane.sample(TierId::App, wire(35, TierId::App));
        feed(plane.as_mut(), 36..65);
        let mut no_os = wire(65, TierId::App);
        no_os.os.clear();
        plane.sample(TierId::App, no_os);
        plane.sample(TierId::Db, wire(65, TierId::Db));
        feed(plane.as_mut(), 66..120);
        let (poisoned, anomalies, completed) = if reads_os {
            (vec![1, 2], 2, vec![0, 3])
        } else {
            (vec![1], 1, vec![0, 2, 3])
        };
        assert_eq!(plane.poisoned(), poisoned, "{name}: empty OS row");
        assert_eq!(plane.anomalies(), anomalies, "{name}");
        assert_eq!(plane.completed(), completed, "{name}");
    }
}

/// One window through an assembler on the HPC meter, each sample's OS
/// row being `os_row(seq)`: its decisions, and the anomalies counted.
fn decide_with_os_rows(os_row: impl Fn(u64) -> Vec<f64>) -> (Vec<(i64, OnlineDecision)>, u64) {
    let mut assembler = Assembler::new(hpc_meter(), ORIGIN);
    let mut decisions = Vec::new();
    for tier in TierId::ALL {
        assembler.on_session_start(tier);
    }
    for seq in 0..WINDOW as u64 {
        for tier in TierId::ALL {
            let ws = WireSample {
                os: os_row(seq),
                ..wire(seq, tier)
            };
            assembler.on_sample(tier, ws, &mut |w, d| decisions.push((w, d.clone())));
        }
    }
    (decisions, assembler.anomalies())
}

#[test]
fn unread_rows_alternating_empty_and_full_width_decide_as_all_empty() {
    let json = |d: &[(i64, OnlineDecision)]| serde_json::to_string(d).expect("serializes");
    let (alternating, anomalies) = decide_with_os_rows(|seq| {
        if seq % 2 == 0 {
            Vec::new()
        } else {
            vec![0.1; 64]
        }
    });
    assert_eq!(anomalies, 0);
    assert_eq!(alternating.len(), 1, "the window decides");
    let (empty, _) = decide_with_os_rows(|_| Vec::new());
    assert_eq!(json(&alternating), json(&empty));
}

/// At every level, an assembler decides alike on the rows an agent of
/// that level ships and on the full-width rows `TierSampler::new` makes
/// (what the benchmark's staged pass feeds), on gapped windows, and both
/// equal `replay_windows`. A gap matters: an OS sampler still steps
/// through the samples nobody receives, or its rows drift.
#[test]
fn level_rows_and_full_width_rows_decide_alike_at_every_level() {
    let windows: BTreeSet<i64> = [0, 2, 3, 6, 7].into_iter().collect();
    for level in MetricLevel::EXTENDED {
        let config = MeterConfig::small_for_tests(31).with_level(level);
        let meter = CapacityMeter::train(&config).expect("meter trains");
        let program = TrafficProgram::steady(Mix::ordering(), 60, 240.0);
        let samples = webcap_sim::run(config.sim.clone(), program).samples;
        let decide = |sampler: &dyn Fn(TierId) -> TierSampler| {
            let mut samplers = TierId::ALL.map(sampler);
            let mut assembler = Assembler::new(meter.clone(), ORIGIN);
            for tier in TierId::ALL {
                assembler.on_session_start(tier);
            }
            let mut decisions = Vec::new();
            for (seq, s) in (0u64..).zip(&samples) {
                for tier in TierId::ALL {
                    let source = SourceSample::of_tier(tier, seq, s);
                    let ws = tier.select_mut(&mut samplers).wire_sample(source);
                    if windows.contains(&(seq as i64 / WINDOW)) {
                        assembler.on_sample(tier, ws, &mut |w, d| decisions.push((w, d.clone())));
                    }
                }
            }
            serde_json::to_string(&decisions).expect("decisions serialize")
        };
        let model = &config.hpc_model;
        let full = decide(&|tier| TierSampler::new(tier, model.clone(), 17));
        let level_only = decide(&|tier| TierSampler::for_level(tier, model.clone(), 17, level));
        let replay = replay_windows(&meter, &samples, 17, &windows);
        assert_eq!(replay.len(), windows.len(), "{level}");
        let replay = serde_json::to_string(&replay).expect("replay serializes");
        assert_eq!(full, replay, "{level}: full-width rows");
        assert_eq!(level_only, replay, "{level}: level rows");
    }
}
