//! What an agent measures: the [`SampleSource`] seam and the per-tier
//! metric synthesis that turns application telemetry into HPC/OS rows.
//!
//! Today every source is backed by `webcap-sim` telemetry: each tier's
//! view of a [`SystemSample`] is its [`TierSample`], and the application
//! tier's also the sample's front-end [`AppStats`] record, carried to
//! the collector as it is. A production agent would implement
//! [`SampleSource`] over real perf-counter and procfs readers (the
//! `webcap-hpc` crate's `CounterSample` is the natural meeting point).
//! The agent runtime only sees the trait.
//!
//! # Replayable synthesis
//!
//! [`TierSampler`] deliberately does **not** draw from one long-lived
//! RNG stream. Training's [`webcap_core::collect_run`] can do that
//! because it observes every sample; a distributed agent's frames can be
//! dropped, and any baseline that wants to check the collector's output
//! must be able to regenerate the exact metric rows of the *surviving*
//! samples. So each sample's noise comes from its own RNG seeded by
//! `derive_seed(AGENT_METRICS + tier, seq, base_seed)` — a pure function
//! of the sample's identity — and the HPC row is drawn first from it.
//!
//! An HPC row is therefore a pure function of (tier, seq, seed,
//! telemetry): a sampler that reads only HPC (the one
//! [`crate::replay_windows`] builds for an HPC meter) may synthesize
//! any subset of sequences, in any order. The OS collector
//! is stateful (load averages decay, slow environmental disturbances
//! drift), so a sampler that synthesizes OS rows must be called for
//! every sequence **in order**, even for samples the caller intends to
//! discard.

use rand::rngs::StdRng;
use rand::SeedableRng;
use webcap_core::MetricLevel;
use webcap_hpc::HpcModel;
use webcap_os::OsCollector;
use webcap_parallel::{derive_seed, seed_domain};
use webcap_sim::{AppStats, SystemSample, TierId, TierSample};

use crate::frame::WireSample;

/// One measurement handed to the agent runtime, before metric synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSample {
    /// Monotonic sequence number, starting at 0.
    pub seq: u64,
    /// Interval end, seconds since run start.
    pub t_s: f64,
    /// Interval length, seconds.
    pub interval_s: f64,
    /// The tier's telemetry for the interval.
    pub tier: TierSample,
    /// Front-end statistics; `Some` only on the application tier.
    pub app: Option<AppStats>,
    /// Warm-up replay after a restart: the sample exists only to advance
    /// the stateful parts of metric synthesis (the OS collector's load
    /// averages and slow biases). The agent must synthesize it like any
    /// other sample and then discard the result instead of sending it —
    /// the collector consumed this sequence in a previous process.
    pub warmup: bool,
}

impl SourceSample {
    /// `tier`'s view of the system sample with sequence `seq`: its own
    /// tier telemetry, plus the front-end statistics on the application
    /// tier.
    pub fn of_tier(tier: TierId, seq: u64, s: &SystemSample) -> SourceSample {
        SourceSample {
            seq,
            t_s: s.t_s,
            interval_s: s.interval_s,
            tier: *s.tier(tier),
            app: (tier == TierId::App).then(|| s.front.clone()),
            warmup: false,
        }
    }
}

/// One poll of a [`SampleSource`].
// Not boxed: `Ready` is the per-sample case on the measured path, where a
// `Box` would add an allocation to every poll.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// A measurement is ready.
    Ready(SourceSample),
    /// Nothing due yet (a timer-driven source between ticks); the agent
    /// heartbeats and polls again.
    Idle,
    /// The source has ended; the agent says `Bye` and shuts down.
    Exhausted,
}

/// Where an agent's per-second measurements come from.
pub trait SampleSource {
    /// Poll for the next measurement. Must not block: a timer-driven
    /// implementation returns [`SourcePoll::Idle`] until its next tick
    /// so the agent loop can interleave heartbeats.
    fn next_sample(&mut self) -> SourcePoll;
}

/// Deterministic synthesis of one tier's HPC/OS metric rows from its
/// telemetry, replayable sample-by-sample (see the module docs).
#[derive(Debug)]
pub struct TierSampler {
    tier: TierId,
    hpc_model: HpcModel,
    base_seed: u64,
    /// The families synthesized, fixed at construction.
    level: MetricLevel,
    os: OsCollector,
}

impl TierSampler {
    /// A sampler for `tier` that synthesizes both families. `hpc_model`
    /// must match the collector's meter configuration; `base_seed` is the
    /// deployment-wide metrics seed both agents and any replay baseline
    /// share.
    pub fn new(tier: TierId, hpc_model: HpcModel, base_seed: u64) -> TierSampler {
        TierSampler::for_level(tier, hpc_model, base_seed, MetricLevel::Combined)
    }

    /// A sampler for `tier` that synthesizes only the families `level`
    /// reads; each row it returns is bit-identical to the one
    /// [`TierSampler::new`]'s sampler returns for that family.
    pub fn for_level(
        tier: TierId,
        hpc_model: HpcModel,
        base_seed: u64,
        level: MetricLevel,
    ) -> TierSampler {
        TierSampler {
            tier,
            hpc_model,
            base_seed,
            level,
            os: OsCollector::new(tier),
        }
    }

    /// Synthesize the `(HPC features, OS values)` rows for one sample; a
    /// family the sampler's level does not read comes back empty. While
    /// it synthesizes OS rows it must be called for every sequence in
    /// order — the OS collector carries state across calls.
    pub fn rows(&mut self, seq: u64, ts: &TierSample, interval_s: f64) -> (Vec<f64>, Vec<f64>) {
        let seed = derive_seed(
            seed_domain::AGENT_METRICS + self.tier.index() as u64,
            seq,
            self.base_seed,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let hpc = if self.level.reads_hpc() {
            self.hpc_model
                .derived(self.tier, ts, interval_s, &mut rng)
                .to_features()
        } else {
            self.hpc_model.skip(&mut rng);
            Vec::new()
        };
        let os = if self.level.reads_os() {
            self.os.sample(ts, interval_s, &mut rng).into_values()
        } else {
            Vec::new()
        };
        (hpc, os)
    }

    /// Synthesize a full wire sample from a source measurement.
    pub fn wire_sample(&mut self, s: SourceSample) -> WireSample {
        let (hpc, os) = self.rows(s.seq, &s.tier, s.interval_s);
        WireSample {
            seq: s.seq,
            t_s: s.t_s,
            interval_s: s.interval_s,
            tier: s.tier,
            hpc,
            os,
            app: s.app,
        }
    }
}

/// A [`SampleSource`] replaying a pre-recorded run — one tier's view of
/// a borrowed `[SystemSample]`. The loopback harness, integration tests,
/// and the `webcap agent` subcommand all feed agents this way today.
#[derive(Debug)]
pub struct ScriptedSource<'a> {
    tier: TierId,
    samples: std::slice::Iter<'a, SystemSample>,
    next_seq: u64,
    /// Sequences below this are yielded as warm-up (synthesized, never
    /// sent) — see [`ScriptedSource::with_start_seq`].
    emit_from: u64,
}

impl<'a> ScriptedSource<'a> {
    /// `tier`'s view of `samples`, sequenced from 0 in order.
    pub fn new(tier: TierId, samples: &'a [SystemSample]) -> ScriptedSource<'a> {
        ScriptedSource::with_start_seq(tier, samples, 0)
    }

    /// `tier`'s view of `samples`, sent from `start_seq` on. Every
    /// sample is still yielded in order — metric synthesis is stateful,
    /// so skipping history would change the OS rows of everything after
    /// it (see the module docs) — but samples before `start_seq` are
    /// marked [`SourceSample::warmup`] so the agent builds its sampler
    /// state without sending them. The wire samples from `start_seq` on
    /// are therefore byte-identical to a full run's: the stream of an
    /// agent that was already running when a collector (re)started.
    pub fn with_start_seq(
        tier: TierId,
        samples: &'a [SystemSample],
        start_seq: u64,
    ) -> ScriptedSource<'a> {
        ScriptedSource {
            tier,
            samples: samples.iter(),
            next_seq: 0,
            emit_from: start_seq,
        }
    }
}

impl SampleSource for ScriptedSource<'_> {
    fn next_sample(&mut self) -> SourcePoll {
        let Some(s) = self.samples.next() else {
            return SourcePoll::Exhausted;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        SourcePoll::Ready(SourceSample {
            warmup: seq < self.emit_from,
            ..SourceSample::of_tier(self.tier, seq, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_tier() -> TierSample {
        TierSample {
            utilization: 0.6,
            delivered_work_s: 0.6,
            avg_runnable: 1.2,
            arrivals: 40,
            completions: 39,
            ..TierSample::default()
        }
    }

    #[test]
    fn rows_are_replayable_per_sequence() {
        let ts = busy_tier();
        let mut a = TierSampler::new(TierId::App, HpcModel::testbed(), 99);
        let mut b = TierSampler::new(TierId::App, HpcModel::testbed(), 99);
        // Same seq stream, called in order → identical rows, even though
        // the OS collector is stateful.
        for seq in 0..20 {
            assert_eq!(a.rows(seq, &ts, 1.0), b.rows(seq, &ts, 1.0), "seq {seq}");
        }
    }

    #[test]
    fn rows_depend_on_seq_not_call_count() {
        let ts = busy_tier();
        let mut a = TierSampler::new(TierId::Db, HpcModel::testbed(), 7);
        let mut b = TierSampler::new(TierId::Db, HpcModel::testbed(), 7);
        let (a_hpc, _) = a.rows(5, &ts, 1.0);
        b.rows(4, &ts, 1.0);
        let (b_hpc, _) = b.rows(5, &ts, 1.0);
        // The HPC row is a pure function of (tier, seq, base seed,
        // telemetry) — an extra prior call on `b` cannot shift it.
        assert_eq!(a_hpc, b_hpc);
    }

    #[test]
    fn level_samplers_return_the_full_rows_of_their_families() {
        let ts = busy_tier();
        for tier in TierId::ALL {
            for level in MetricLevel::EXTENDED {
                let mut full = TierSampler::new(tier, HpcModel::testbed(), 5);
                let mut part = TierSampler::for_level(tier, HpcModel::testbed(), 5, level);
                for seq in 0..40 {
                    let (hpc, os) = full.rows(seq, &ts, 1.0);
                    let want = (
                        if level.reads_hpc() { hpc } else { Vec::new() },
                        if level.reads_os() { os } else { Vec::new() },
                    );
                    assert_eq!(part.rows(seq, &ts, 1.0), want, "{tier:?} {level} seq {seq}");
                }
            }
        }
    }

    #[test]
    fn tiers_draw_independent_noise() {
        let ts = busy_tier();
        let mut app = TierSampler::new(TierId::App, HpcModel::testbed(), 7);
        let mut db = TierSampler::new(TierId::Db, HpcModel::testbed(), 7);
        assert_ne!(app.rows(0, &ts, 1.0).0, db.rows(0, &ts, 1.0).0);
    }

    #[test]
    fn scripted_source_splits_per_tier_views() {
        let base = SystemSample {
            t_s: 1.0,
            interval_s: 1.0,
            front: AppStats {
                ebs_target: 10,
                ebs_active: 10,
                mix_id: webcap_tpcw::MixId::Shopping,
                issued: 5,
                issued_browse: 2,
                completed: 4,
                completed_browse: 2,
                response_time_sum_s: 0.5,
                response_time_max_s: 0.2,
                in_flight: 1,
                response_times: webcap_sim::RtHistogram::new(),
            },
            app: busy_tier(),
            db: TierSample::default(),
        };
        let stream = [base.clone()];
        let mut app_src = ScriptedSource::new(TierId::App, &stream);
        let mut db_src = ScriptedSource::new(TierId::Db, &stream);
        let SourcePoll::Ready(a) = app_src.next_sample() else {
            panic!("app sample ready");
        };
        let SourcePoll::Ready(d) = db_src.next_sample() else {
            panic!("db sample ready");
        };
        assert_eq!(a.seq, 0);
        assert_eq!(a.tier, base.app);
        assert!(a.app.is_some(), "app tier carries front-end stats");
        assert_eq!(d.tier, base.db);
        assert!(d.app.is_none(), "db tier does not");
        assert_eq!(app_src.next_sample(), SourcePoll::Exhausted);
    }

    #[test]
    fn warmup_replay_is_byte_identical_from_start_seq() {
        let base = SystemSample {
            t_s: 1.0,
            interval_s: 1.0,
            front: AppStats {
                ebs_target: 10,
                ebs_active: 10,
                mix_id: webcap_tpcw::MixId::Shopping,
                issued: 5,
                issued_browse: 2,
                completed: 4,
                completed_browse: 2,
                response_time_sum_s: 0.5,
                response_time_max_s: 0.2,
                in_flight: 1,
                response_times: webcap_sim::RtHistogram::new(),
            },
            app: busy_tier(),
            db: TierSample::default(),
        };
        let samples: Vec<SystemSample> = (0..10)
            .map(|i| SystemSample {
                t_s: i as f64 + 1.0,
                ..base.clone()
            })
            .collect();
        // An uninterrupted agent's view of the stream…
        let mut full = ScriptedSource::new(TierId::App, &samples);
        let mut full_sampler = TierSampler::new(TierId::App, HpcModel::testbed(), 99);
        let mut full_wire = Vec::new();
        while let SourcePoll::Ready(s) = full.next_sample() {
            assert!(!s.warmup, "plain sources never warm up");
            full_wire.push(full_sampler.wire_sample(s));
        }
        // …and a restarted agent resuming at seq 6: the first six
        // samples come back marked warm-up, and after synthesizing
        // them (never sending), the remaining wire samples — OS rows
        // included, despite the stateful collector — are identical.
        let mut resumed = ScriptedSource::with_start_seq(TierId::App, &samples, 6);
        let mut resumed_sampler = TierSampler::new(TierId::App, HpcModel::testbed(), 99);
        let mut resumed_wire = Vec::new();
        while let SourcePoll::Ready(s) = resumed.next_sample() {
            assert_eq!(s.warmup, s.seq < 6, "seq {}", s.seq);
            let warmup = s.warmup;
            let ws = resumed_sampler.wire_sample(s);
            if !warmup {
                resumed_wire.push(ws);
            }
        }
        assert_eq!(resumed_wire, full_wire[6..].to_vec());
    }
}
