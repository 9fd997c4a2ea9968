//! Every call the benchmark makes into the repository's crates.
//!
//! The five workloads and their self-checks are written against the
//! functions in this file only, so a change to a crate's public API
//! (ROADMAP item 3 moves several) is absorbed here. Each operation has
//! two forms: the plain one calls the crate's single public entry point
//! and is what the end-to-end metrics time; the `*_staged` one redoes
//! the same work from the entry point's public building blocks with a
//! [`Ledger`] span or tally around each call, and is what the per-layer
//! metrics come from. The staged forms return what the plain forms
//! return, and the workloads check the two agree.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use webcap_capsearch::scenario::Scenario;
use webcap_capsearch::{
    score_probe, search_scenario, CapacityReport, ExecError, ProbeMeasure, ScenarioExecutor,
    SearchConfig, SimExecutor,
};
use webcap_core::synopsis::dataset_from_instances;
use webcap_core::{
    collect_run, workloads, CoordinatedPredictor, MeterConfig, Parallelism, PerformanceSynopsis,
    SynopsisSpec, WindowInstance,
};
use webcap_fleet::{AgentId, FleetCollector, FleetError, MergeNode, ShardMap};
use webcap_ml::forward_select;
use webcap_net::{
    all_windows, predicted_windows_for_schedule, read_frame, replay_windows,
    run_loopback_scheduled, try_extract_frame, write_frame_codec, AgentReport, AppStats, Assembler,
    CollectorConfig, DigestFin, Endpoint, FaultKnobs, Frame, LoopbackOutcome, SourceSample,
    SupervisorConfig, TierSampler, WireCaps, WireCodec, WireSample,
};
use webcap_os::OsCollector;
use webcap_sim::{SimConfig, SystemSample, TierId};
use webcap_tpcw::{Mix, MixId, TrafficProgram};

use crate::ledger::Ledger;
use crate::sys::sub_seed;

pub use webcap_core::{CapacityMeter, OnlineDecision};
pub use webcap_fleet::FleetTopology;
pub use webcap_ml::FitError;
pub use webcap_net::FaultSchedule;

/// Samples per `SampleBatch` frame: the agent's default `max_batch`.
const BATCH: usize = 32;
/// Sequences synthesized, encoded, decoded and reassembled together by
/// the staged stream pass; a whole number of batches.
const PASS_CHUNK: usize = 30 * BATCH;
/// The collector event loop's read size, which the staged decode feeds
/// [`try_extract_frame`] in.
const READ_CHUNK: usize = 16 * 1024;

/// `(window, decision)` pairs in window order — what every plane of the
/// system produces for a stream.
pub type Decisions = Vec<(i64, OnlineDecision)>;

/// What set-up builds and every workload shares: a trained meter `M`
/// and a simulated stream `S` of one-second samples.
pub struct Fixtures {
    pub seed: u64,
    pub meter: CapacityMeter,
    pub stream: Vec<SystemSample>,
}

/// The small meter configuration every training in the benchmark uses.
/// Sequential, so a timing is one thread's work; the trained meter is
/// bit-identical at every thread count.
pub fn train_config(seed: u64) -> MeterConfig {
    MeterConfig::small_for_tests(seed).with_parallelism(Parallelism::Sequential)
}

pub fn train(config: &MeterConfig) -> Result<CapacityMeter, FitError> {
    CapacityMeter::train(config)
}

/// Train `M` and simulate `S` (`stream_len` samples of the paper's
/// interleaved test program, stretched to that length).
pub fn build_fixtures(seed: u64, stream_len: usize) -> Result<Fixtures, FitError> {
    let config = train_config(seed);
    let meter = train(&config)?;
    let mut sim = config.sim.clone();
    sim.seed = sub_seed(seed, 0x57, 0);
    // The program has nine equal phases of 240 s at scale 1.
    let program = workloads::interleaved_test(&sim, stream_len as f64 / 2160.0);
    let mut stream = webcap_sim::run(sim, program).samples;
    assert!(
        stream.len() >= stream_len,
        "the interleaved program yields {} samples, {stream_len} wanted",
        stream.len()
    );
    stream.truncate(stream_len);
    Ok(Fixtures {
        seed,
        meter,
        stream,
    })
}

/// The collector's key for the stream's first sample.
fn window_origin() -> i64 {
    CollectorConfig::default().window_origin
}

pub fn window_len(meter: &CapacityMeter) -> usize {
    meter.config().window_len
}

/// FNV-1a digest of one decision's JSON — the byte-stable form the
/// repository's equivalence suites compare (`OnlineDecision` has no
/// `PartialEq`). A digest, so that an oracle or a repetition's output
/// held for a later check costs 16 bytes a window rather than kilobytes.
fn decision_digest(decision: &OnlineDecision) -> u64 {
    let json = serde_json::to_string(decision).expect("a decision serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(window, digest)` of every decision a plane made.
pub fn digests(decisions: &Decisions) -> Vec<(i64, u64)> {
    decisions
        .iter()
        .map(|(w, d)| (*w, decision_digest(d)))
        .collect()
}

// ---------------------------------------------------------------- faults

/// A per-tier fault script drawn from `seed`: one drop burst of 5–45
/// samples and one forced reconnect per 900 samples of stream (40 of
/// each on the full stream, about 5 % of samples dropped).
pub fn fault_schedules(seed: u64, total: u64) -> [FaultSchedule; 2] {
    let events = (total / 900).max(1);
    [0u64, 1].map(|tier| {
        let draw = |kind: u64, k: u64| sub_seed(seed, 0xfa17 + 16 * tier + kind, k);
        let mut drop_ranges: Vec<(u64, u64)> = (0..events)
            .map(|k| {
                let first = draw(0, k) % (total - 45);
                (first, first + 4 + draw(1, k) % 41)
            })
            .collect();
        drop_ranges.sort_unstable();
        let reconnects: BTreeSet<u64> = (0..events).map(|k| 1 + draw(2, k) % (total - 1)).collect();
        FaultSchedule {
            drop_ranges,
            reconnect_before: reconnects.into_iter().collect(),
        }
    })
}

pub fn no_faults() -> [FaultSchedule; 2] {
    [FaultSchedule::NONE, FaultSchedule::NONE]
}

/// What the repository's own oracles say a stream plane must produce
/// under `schedules`: the decisions of the surviving windows and the
/// set of quarantined ones.
pub struct Expected {
    pub decisions: BTreeMap<i64, u64>,
    pub poisoned: BTreeSet<i64>,
}

pub fn expected_outcome(fx: &Fixtures, schedules: &[FaultSchedule; 2]) -> Expected {
    let len = window_len(&fx.meter);
    let mut poisoned = BTreeSet::new();
    for schedule in schedules {
        let (_, p) =
            predicted_windows_for_schedule(fx.stream.len() as u64, schedule, len, window_origin());
        poisoned.extend(p);
    }
    let survivors: BTreeSet<i64> = all_windows(fx.stream.len(), len)
        .into_iter()
        .filter(|w| !poisoned.contains(w))
        .collect();
    let decisions = digests(&replay_windows(&fx.meter, &fx.stream, fx.seed, &survivors))
        .into_iter()
        .collect();
    Expected {
        decisions,
        poisoned,
    }
}

impl Expected {
    /// Windows on which a plane disagrees with the oracle: a decision
    /// missing, extra or different, or a quarantine verdict that differs.
    pub fn mismatches(&self, decisions: &Decisions, poisoned: &[i64]) -> u64 {
        let got: BTreeMap<i64, u64> = digests(decisions).into_iter().collect();
        let got_poisoned: BTreeSet<i64> = poisoned.iter().copied().collect();
        let windows: BTreeSet<i64> = self.decisions.keys().chain(got.keys()).copied().collect();
        let wrong = windows
            .iter()
            .filter(|w| self.decisions.get(w) != got.get(w))
            .count();
        (wrong + self.poisoned.symmetric_difference(&got_poisoned).count()) as u64
    }

    /// The first half of the safety reading of the same comparison, for
    /// a plane that may lose frames the schedule did not drop:
    /// `(lost, contradictory)`. A window the oracle lets survive that the
    /// plane did not decide (it quarantined it, or never completed it) is
    /// lost: a missing measurement, never a wrong one. A window the plane
    /// decided although the oracle, or the plane itself, quarantines it
    /// is contradictory, and that is a failure.
    pub fn losses(&self, decisions: &Decisions, poisoned: &[i64]) -> (u64, u64) {
        let decided: BTreeSet<i64> = decisions.iter().map(|(w, _)| *w).collect();
        let lost = self
            .decisions
            .keys()
            .filter(|w| !decided.contains(w))
            .count();
        let contradictory = decided
            .iter()
            .filter(|w| self.poisoned.contains(w) || poisoned.contains(w))
            .count();
        (lost as u64, contradictory as u64)
    }
}

/// The second half: decisions (given by their [`digests`]) that differ
/// from a `replay_windows` over exactly the windows the plane decided.
/// Costs a pass over the stream.
pub fn differing_from_replay(fx: &Fixtures, decided: &[(i64, u64)]) -> u64 {
    let windows: BTreeSet<i64> = decided.iter().map(|(w, _)| *w).collect();
    let replayed = digests(&replay_windows(&fx.meter, &fx.stream, fx.seed, &windows));
    let differing = replayed
        .iter()
        .zip(decided)
        .filter(|(want, have)| want != have)
        .count();
    (replayed.len().abs_diff(decided.len()) + differing) as u64
}

// ------------------------------------------------------------ train_meter

/// The four test programs of the paper's evaluation, with the
/// simulation seed each is run under.
fn test_programs(config: &MeterConfig, seed: u64) -> [(TrafficProgram, u64); 4] {
    let (sim, scale) = (&config.sim, config.duration_scale);
    let sim_seed = |k: u64| sub_seed(seed, 0xe7a1, k);
    [
        (
            workloads::test_ramp(sim, &Mix::ordering(), scale),
            sim_seed(0),
        ),
        (
            workloads::test_ramp(sim, &Mix::browsing(), scale),
            sim_seed(1),
        ),
        (workloads::interleaved_test(sim, scale), sim_seed(2)),
        (
            workloads::unknown_test(sim, scale, sim_seed(4)),
            sim_seed(3),
        ),
    ]
}

/// Mean balanced accuracy of `meter` over the four test programs.
pub fn balanced_accuracy(meter: &CapacityMeter, seed: u64) -> f64 {
    let mut meter = meter.clone();
    let programs = test_programs(meter.config(), seed);
    let total: f64 = programs
        .iter()
        .map(|(program, sim_seed)| {
            meter
                .evaluate_program(program, *sim_seed)
                .balanced_accuracy()
        })
        .sum();
    total / programs.len() as f64
}

/// The `(program, sim config, metrics seed)` of every training
/// execution `CapacityMeter::train` makes, in its order.
fn training_executions(config: &MeterConfig) -> Vec<(TrafficProgram, SimConfig, u64)> {
    let scale = config.duration_scale * config.train_duration_factor.max(0.1);
    let repeats = config.training_repeats.max(1);
    [Mix::ordering(), Mix::browsing()]
        .iter()
        .enumerate()
        .flat_map(|(i, mix)| {
            let program = workloads::training_program(&config.sim, mix, scale);
            (0..repeats).map(move |rep| {
                let mut sim = config.sim.clone();
                sim.seed = config.sim.seed.wrapping_add((i + 10 * rep) as u64);
                let metrics_seed = config.metrics_seed.wrapping_add((i + 100 * rep) as u64);
                (program.clone(), sim, metrics_seed)
            })
        })
        .collect()
}

/// One-second samples one `CapacityMeter::train` simulates.
pub fn training_samples(config: &MeterConfig) -> u64 {
    training_executions(config)
        .iter()
        .map(|(program, sim, _)| (program.duration_s() / sim.sample_period_s) as u64)
        .sum()
}

/// The parts of a meter the staged training rebuilds, as JSON, for
/// comparison with the meter `CapacityMeter::train` returns.
pub fn meter_parts_json(meter: &CapacityMeter) -> (String, String) {
    (
        serde_json::to_string(meter.synopses()).expect("synopses serialize"),
        serde_json::to_string(meter.coordinator()).expect("a coordinator serializes"),
    )
}

/// `CapacityMeter::train`, stage by stage. Returns what
/// [`meter_parts_json`] returns for the meter `train` would build.
pub fn train_staged(
    config: &MeterConfig,
    ledger: &mut Ledger,
) -> Result<(String, String), FitError> {
    let executions = training_executions(config);
    let repeats = config.training_repeats.max(1);
    let mut runs: Vec<Vec<WindowInstance>> = Vec::new();
    for (program, sim, metrics_seed) in &executions {
        // `collect_run` simulates internally; the same simulation alone
        // is timed first so synthesis + logging is the difference.
        let output = ledger.span("sim.run", |_| webcap_sim::run(sim.clone(), program.clone()));
        ledger.add("sim.run.samples", output.samples.len() as u64, 0);
        time_synthesis(config, &output.samples, *metrics_seed, ledger);
        let log = ledger.span("core.monitor.collect_run", |_| {
            collect_run(sim, program, &config.hpc_model, *metrics_seed)
        });
        let windows = ledger.span("core.monitor.windows", |_| {
            log.windows(config.window_len, config.train_stride, &config.oracle)
        });
        ledger.add("core.monitor.windows.count", windows.len() as u64, 0);
        runs.push(windows);
    }
    let pooled: Vec<Vec<WindowInstance>> = runs
        .chunks(repeats)
        .map(|r| r.iter().flatten().cloned().collect())
        .collect();

    let mut synopses = Vec::new();
    for (workload, tier) in CapacityMeter::synopsis_grid() {
        let spec = SynopsisSpec {
            tier,
            workload,
            level: config.level,
            algorithm: config.algorithm,
        };
        let instances = &pooled[usize::from(workload != MixId::Ordering)];
        // Forward selection alone, then the whole induction it is part of.
        let data = dataset_from_instances(instances, tier, config.level);
        let learner = config.algorithm.learner();
        ledger.span("ml.select.forward", |_| {
            forward_select(learner.as_ref(), &data, &config.selection).map(drop)
        })?;
        synopses.push(ledger.span("core.synopsis.train", |_| {
            PerformanceSynopsis::train(spec, instances, &config.selection)
        })?);
    }

    let coordinator = ledger.span("core.coordinator.train", |ledger| {
        let mut coordinator = CoordinatedPredictor::new(synopses.len(), config.coordinator);
        for _ in 0..config.coordinator_epochs.max(1) {
            for run in &runs {
                coordinator.reset_history();
                for w in run {
                    let votes: Vec<bool> = synopses.iter().map(|s| s.predict_instance(w)).collect();
                    coordinator.train_instance(&votes, w.overloaded(), Some(w.label.bottleneck));
                }
                ledger.add("core.coordinator.train.instances", run.len() as u64, 0);
            }
        }
        coordinator.reset_history();
        coordinator
    });
    Ok((
        serde_json::to_string(&synopses).expect("synopses serialize"),
        serde_json::to_string(&coordinator).expect("a coordinator serializes"),
    ))
}

/// The two per-sample synthesis calls `collect_run` makes, timed alone.
fn time_synthesis(config: &MeterConfig, samples: &[SystemSample], seed: u64, ledger: &mut Ledger) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut os = TierId::ALL.map(OsCollector::new);
    for sample in samples {
        for tier in TierId::ALL {
            let ts = sample.tier(tier);
            std::hint::black_box(ledger.tally("hpc.model.sample", || {
                config
                    .hpc_model
                    .sample(tier, ts, sample.interval_s, &mut rng)
            }));
            std::hint::black_box(ledger.tally("os.collector.sample", || {
                tier.select_mut(&mut os)
                    .sample(ts, sample.interval_s, &mut rng)
            }));
        }
    }
}

/// One training at two worker threads — the denominator of
/// `parallel.par_map.speedup_2`.
pub fn train_two_threads(config: &MeterConfig) -> Result<CapacityMeter, FitError> {
    train(&config.clone().with_parallelism(Parallelism::Threads(2)))
}

// -------------------------------------------------------- capacity_search

/// The steady-shopping scenario from the repository's library, run
/// under `seed`.
fn search_scenario_for(seed: u64) -> Scenario {
    let mut scenario =
        webcap_capsearch::scenario::find("steady-shopping").expect("the library has the scenario");
    scenario.seed = seed;
    scenario
}

/// What capacity searches concluded and how much they simulated.
#[derive(Default)]
pub struct SearchOutcome {
    /// Mean over the searches.
    pub capacity_ebs: f64,
    pub probes: u64,
    /// One-second samples simulated: every probe runs the whole scenario.
    pub samples: u64,
    /// The byte-stable reports; equal fingerprints, equal searches.
    pub fingerprint: String,
}

/// How many sites (runs of the scenario under seeds of their own) one
/// `capacity_search` repetition finds the capacity of. A search's cost
/// depends on where its site's capacity lies, by ±10 % from seed to
/// seed, and the driver runs every measurement at another seed; the sum
/// over this many sites moves half as much.
pub const SEARCH_SITES: u64 = 5;

/// `one` search per site drawn from `seed`, summed.
pub fn search_sites(
    seed: u64,
    mut one: impl FnMut(u64) -> Result<SearchOutcome, ExecError>,
) -> Result<SearchOutcome, ExecError> {
    let mut total = SearchOutcome::default();
    for site in 0..SEARCH_SITES {
        let found = one(sub_seed(seed, 0x517e, site))?;
        total.capacity_ebs += found.capacity_ebs / SEARCH_SITES as f64;
        total.probes += found.probes;
        total.samples += found.samples;
        total.fingerprint += &found.fingerprint;
    }
    Ok(total)
}

fn search_outcome(report: &CapacityReport, scenario: &Scenario) -> SearchOutcome {
    SearchOutcome {
        capacity_ebs: f64::from(report.capacity_ebs),
        probes: report.probes.len() as u64,
        samples: report.probes.len() as u64 * scenario.duration_s() as u64,
        fingerprint: serde_json::to_string(report).expect("a report serializes"),
    }
}

/// "What is this site's capacity?": bisect the steady-shopping scenario
/// (simulated under `seed`) to its SLO boundary through the in-process
/// executor.
pub fn search(meter: &CapacityMeter, seed: u64) -> Result<SearchOutcome, ExecError> {
    let scenario = search_scenario_for(seed);
    let report = search_scenario(
        &scenario,
        &mut SimExecutor::new(meter),
        &SearchConfig::quick(),
    )?;
    Ok(search_outcome(&report, &scenario))
}

/// A [`SimExecutor`] that records one span per probe.
struct TimedExecutor<'a> {
    inner: SimExecutor<'a>,
    ledger: &'a mut Ledger,
}

impl ScenarioExecutor for TimedExecutor<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn measure(&mut self, scenario: &Scenario, probe_ebs: u32) -> Result<ProbeMeasure, ExecError> {
        let inner = &mut self.inner;
        self.ledger
            .span("capsearch.probe", |_| inner.measure(scenario, probe_ebs))
    }
}

/// [`search`] with a span per probe, then each probe's three stages
/// (simulate, replay, score) re-run alone. `Err` also when a re-run
/// probe scores differently from the search's own measurement.
pub fn search_staged(
    meter: &CapacityMeter,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<SearchOutcome, ExecError> {
    let scenario = &search_scenario_for(seed);
    let mut executor = TimedExecutor {
        inner: SimExecutor::new(meter),
        ledger,
    };
    let report = search_scenario(scenario, &mut executor, &SearchConfig::quick())?;
    let ledger = executor.ledger;
    let len = window_len(meter);
    for probe in &report.probes {
        let mut sim = meter.config().sim.clone();
        sim.seed = scenario.seed;
        let program = scenario.program(probe.probe_ebs);
        let samples = ledger.span("sim.run", |_| webcap_sim::run(sim, program).samples);
        ledger.add("sim.run.samples", samples.len() as u64, 0);
        // Steady-shopping schedules no faults: every window survives.
        let windows = all_windows(samples.len(), len);
        let decisions = ledger.span("core.online.replay", |_| {
            replay_windows(meter, &samples, scenario.seed, &windows)
        });
        let rescored = ledger.span("capsearch.score", |_| {
            score_probe(
                meter,
                scenario,
                &samples,
                &decisions,
                &BTreeSet::new(),
                probe.probe_ebs,
            )
        });
        if rescored != *probe {
            return Err(ExecError(format!(
                "probe at {} EBs re-scored differently from the search",
                probe.probe_ebs
            )));
        }
    }
    Ok(search_outcome(&report, scenario))
}

// ------------------------------------------------------- online_* streams

/// What a whole plane (loopback deployment or fleet) made of a stream,
/// with the counters its reports carry, named as the per-layer metrics
/// that publish them.
pub struct PlaneOutcome {
    pub decisions: Decisions,
    pub poisoned: Vec<i64>,
    pub counters: Vec<(&'static str, f64)>,
}

/// Two real agents and a real collector over host-loopback TCP, binary
/// dialect, batches of 32 — `run_loopback` when `schedules` is empty.
pub fn loopback(fx: &Fixtures, schedules: &[FaultSchedule; 2]) -> io::Result<PlaneOutcome> {
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0")?;
    let LoopbackOutcome { collector, agents } = run_loopback_scheduled(
        &fx.meter,
        &fx.stream,
        &endpoint,
        fx.seed,
        FaultKnobs::NONE,
        schedules,
    )?;
    let both = |f: fn(&AgentReport) -> u64| agents.iter().map(f).sum::<u64>() as f64;
    let counters = vec![
        ("net.agent.frames_sent", both(|a| a.frames_sent)),
        ("net.agent.acks_received", both(|a| a.acks_received)),
        ("net.agent.queue_dropped", both(|a| a.queue_dropped)),
        ("net.agent.sessions", both(|a| a.sessions)),
        (
            "net.collector.samples",
            collector.samples.iter().sum::<u64>() as f64,
        ),
        (
            "net.collector.poisoned_windows",
            collector.poisoned_windows.len() as f64,
        ),
        ("net.collector.anomalies", collector.anomalies as f64),
    ];
    Ok(PlaneOutcome {
        decisions: collector.decisions,
        poisoned: collector.poisoned_windows,
        counters,
    })
}

/// What a single-thread pass over the stream produced.
pub struct PassOutcome {
    pub decisions: Decisions,
    pub poisoned: Vec<i64>,
    pub anomalies: u64,
    /// Duration of each `Assembler::on_sample` call that closed a window
    /// and emitted its decision, µs.
    pub decide_us: Vec<f64>,
    /// Whether every sample came back from encode → decode bit for bit
    /// (staged passes only; vacuously true otherwise).
    pub codec_exact: bool,
    /// Binary-dialect bytes per sample sent (staged passes only).
    pub wire_bytes_per_sample: f64,
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The online chain in one thread, with no sockets: per-tier synthesis,
/// then reassembly and decision in a collector [`Assembler`], under the
/// per-tier fault `schedules`. Every `on_sample` call is timed; the
/// emitting ones are the paper's per-window decision latency.
///
/// With a ledger the pass is staged: each tier's samples also go through
/// the binary codec in batches of 32 and back out of [`try_extract_frame`]
/// in 16 KiB reads before reassembly, and every stage is tallied.
pub fn stream_pass(
    fx: &Fixtures,
    schedules: &[FaultSchedule; 2],
    mut ledger: Option<&mut Ledger>,
) -> PassOutcome {
    let hpc_model = fx.meter.config().hpc_model.clone();
    let mut samplers = TierId::ALL.map(|t| TierSampler::new(t, hpc_model.clone(), fx.seed));
    let mut assembler = Assembler::new(fx.meter.clone(), window_origin());
    for tier in TierId::ALL {
        assembler.on_session_start(tier);
    }
    let mut out = PassOutcome {
        decisions: Vec::new(),
        poisoned: Vec::new(),
        anomalies: 0,
        decide_us: Vec::new(),
        codec_exact: true,
        wire_bytes_per_sample: 0.0,
    };
    let mut reassembly = (0u64, 0u64); // (calls, ns) of non-emitting on_sample
    let mut scratch = Vec::new();

    for (chunk_index, chunk) in fx.stream.chunks(PASS_CHUNK).enumerate() {
        let first_seq = (chunk_index * PASS_CHUNK) as u64;
        // Synthesis runs for every sequence in order (the OS collector
        // carries state across drops); dropped ones never reach the wire.
        let mut lanes: [VecDeque<WireSample>; 2] = Default::default();
        for (offset, sample) in chunk.iter().enumerate() {
            let seq = first_seq + offset as u64;
            for tier in TierId::ALL {
                let source = SourceSample {
                    seq,
                    t_s: sample.t_s,
                    interval_s: sample.interval_s,
                    tier: *sample.tier(tier),
                    app: (tier == TierId::App).then(|| AppStats::from_sample(sample)),
                    warmup: false,
                };
                let sampler = tier.select_mut(&mut samplers);
                let ws = match ledger.as_deref_mut() {
                    Some(l) => l.tally("net.source.wire_sample", || sampler.wire_sample(source)),
                    None => sampler.wire_sample(source),
                };
                if !tier.select(schedules).drops(seq) {
                    tier.select_mut(&mut lanes).push_back(ws);
                }
            }
        }
        if let Some(l) = ledger.as_deref_mut() {
            for tier in TierId::ALL {
                let reconnects = &tier.select(schedules).reconnect_before;
                let lane = tier.select_mut(&mut lanes);
                out.codec_exact &= through_codec(lane, reconnects, &mut scratch, l);
            }
        }
        for offset in 0..chunk.len() {
            let seq = first_seq + offset as u64;
            for tier in TierId::ALL {
                if tier.select(schedules).reconnect_before.contains(&seq) {
                    assembler.on_session_start(tier);
                }
                let lane = tier.select_mut(&mut lanes);
                if lane.front().is_none_or(|ws| ws.seq != seq) {
                    continue;
                }
                let Some(ws) = lane.pop_front() else { continue };
                let mut emitted = false;
                let start = Instant::now();
                assembler.on_sample(tier, ws, &mut |window, decision| {
                    emitted = true;
                    out.decisions.push((window, decision.clone()));
                });
                let ns = start.elapsed().as_nanos() as u64;
                if emitted {
                    out.decide_us.push(ns as f64 / 1e3);
                } else {
                    reassembly = (reassembly.0 + 1, reassembly.1 + ns);
                }
            }
        }
    }
    if let Some(last_seq) = (fx.stream.len() as u64).checked_sub(1) {
        for tier in TierId::ALL {
            assembler.on_bye(tier, last_seq);
        }
    }
    out.poisoned = assembler.poisoned_windows();
    out.anomalies = assembler.anomalies();
    if let Some(l) = ledger {
        out.wire_bytes_per_sample =
            l.calls("net.binary.encode.bytes") as f64 / l.calls("net.binary.encode").max(1) as f64;
        l.add("net.collector.reassembly", reassembly.0, reassembly.1);
        let decide_ns: f64 = out.decide_us.iter().sum::<f64>() * 1e3;
        l.add(
            "core.online.decide",
            out.decide_us.len() as u64,
            decide_ns as u64,
        );
        // The coordinated prediction alone, on the windows just decided.
        let mut meter = fx.meter.clone();
        for (_, decision) in &out.decisions {
            std::hint::black_box(l.tally("core.meter.predict", || meter.predict(&decision.window)));
        }
    }
    out
}

/// Send one tier's surviving samples of a chunk through the wire codec
/// and back: `SampleBatch` frames of up to [`BATCH`] samples (a batch
/// never spans a scheduled reconnect), decoded from [`READ_CHUNK`]-sized
/// reads. `lane` is replaced by the decoded samples; returns whether
/// they equal the originals bit for bit.
fn through_codec(
    lane: &mut VecDeque<WireSample>,
    reconnects: &[u64],
    scratch: &mut Vec<u8>,
    ledger: &mut Ledger,
) -> bool {
    let originals: Vec<WireSample> = lane.drain(..).collect();
    let mut wire: Vec<u8> = Vec::new();
    let mut batch: Vec<WireSample> = Vec::with_capacity(BATCH);
    let mut flush = |batch: &mut Vec<WireSample>, wire: &mut Vec<u8>, ledger: &mut Ledger| {
        if batch.is_empty() {
            return;
        }
        let frame = Frame::SampleBatch(std::mem::take(batch));
        ledger.tally("net.binary.encode.frame", || {
            write_frame_codec(wire, &frame, WireCodec::Binary, scratch)
                .expect("writing to a Vec cannot fail")
        });
    };
    for ws in &originals {
        if batch.len() == BATCH || reconnects.contains(&ws.seq) {
            flush(&mut batch, &mut wire, ledger);
        }
        batch.push(ws.clone());
    }
    flush(&mut batch, &mut wire, ledger);
    ledger.add("net.binary.encode", originals.len() as u64, 0);
    ledger.add("net.binary.encode.bytes", wire.len() as u64, 0);

    // The event-loop read path: bytes arrive in reads of READ_CHUNK and
    // whole frames are extracted from the front of a reassembly buffer.
    let mut buffer: Vec<u8> = Vec::new();
    let start = Instant::now();
    for read in wire.chunks(READ_CHUNK) {
        buffer.extend_from_slice(read);
        let mut consumed = 0;
        while let Some((frame, used)) =
            try_extract_frame(&buffer[consumed..]).expect("the codec reads its own output")
        {
            consumed += used;
            match frame {
                Frame::SampleBatch(samples) => lane.extend(samples),
                Frame::Sample(sample) => lane.push_back(sample),
                other => panic!("the sample lane decoded {other:?}"),
            }
        }
        buffer.drain(..consumed);
    }
    ledger.add(
        "net.frame.decode",
        lane.len() as u64,
        start.elapsed().as_nanos() as u64,
    );

    lane.len() == originals.len()
        && lane.iter().zip(&originals).all(|(got, want)| {
            got == want && same_bits(&got.hpc, &want.hpc) && same_bits(&got.os, &want.os)
        })
}

// ---------------------------------------------------------------- fleet_k2

/// The first topology seed derived from `seed` whose shard map puts the
/// two tiers on different collectors, so both collectors and the merge
/// do real work.
pub fn split_topology(seed: u64) -> FleetTopology {
    let topo_seed = (0..)
        .map(|k| sub_seed(seed, 0xf1ee7, k))
        .find(|s| {
            let map = ShardMap::new(*s, 2);
            map.owner(AgentId::primary(TierId::App)) != map.owner(AgentId::primary(TierId::Db))
        })
        .expect("half of all seeds split the tiers");
    FleetTopology::two_tier("bench", topo_seed, 2)
}

/// The sharded plane in one thread: `run_fleet` at K = 2, no faults, no
/// chaos, binary back-haul.
pub fn fleet(fx: &Fixtures, topology: &FleetTopology) -> Result<PlaneOutcome, FleetError> {
    let outcome = webcap_fleet::run_fleet(
        &fx.meter,
        &fx.stream,
        fx.seed,
        &no_faults(),
        topology,
        None,
        WireCodec::Binary,
    )?;
    let bytes: u64 = outcome.collectors.iter().map(|c| c.bytes).sum();
    let samples = 2 * fx.stream.len().max(1);
    Ok(PlaneOutcome {
        decisions: outcome.merge.decisions,
        poisoned: outcome.merge.poisoned_windows,
        counters: vec![(
            "fleet.backhaul.bytes_per_sample",
            bytes as f64 / samples as f64,
        )],
    })
}

/// `run_fleet` for the fault-free K-collector case, stage by stage:
/// synthesis, per-collector digestion and flush, back-haul codec, merge
/// ingest, merge finalize. Returns the merged decisions.
pub fn fleet_staged(fx: &Fixtures, topology: &FleetTopology, ledger: &mut Ledger) -> Decisions {
    let len = window_len(&fx.meter) as i64;
    let map = ShardMap::new(topology.seed, topology.collectors);
    let owner = TierId::ALL.map(|t| map.owner(AgentId::primary(t)) as usize);
    let mut collectors: Vec<FleetCollector> = (0..map.collectors())
        .map(|c| {
            let tiers: Vec<TierId> = TierId::ALL
                .into_iter()
                .filter(|t| *t.select(&owner) == c as usize)
                .collect();
            FleetCollector::new(c, &tiers, len, window_origin(), SupervisorConfig::default())
        })
        .collect();
    let mut transcripts: Vec<Vec<u8>> = vec![Vec::new(); collectors.len()];
    let mut scratch = Vec::new();
    let hpc_model = fx.meter.config().hpc_model.clone();
    let mut samplers = TierId::ALL.map(|t| TierSampler::new(t, hpc_model.clone(), fx.seed));
    for tier in TierId::ALL {
        collectors[*tier.select(&owner)].on_session_start(tier);
    }

    let mut backhaul = |collectors: &mut [FleetCollector],
                        fin: Option<i64>,
                        ledger: &mut Ledger| {
        for (collector, transcript) in collectors.iter_mut().zip(&mut transcripts) {
            let fin = fin.map(|last_window| DigestFin {
                tiers: collector.tiers(),
                last_window,
            });
            let Some(frame) = ledger.tally("fleet.digest.flush", || collector.flush(fin)) else {
                continue;
            };
            ledger.add("fleet.digest.frames", 1, 0);
            ledger.tally("fleet.backhaul.codec", || {
                write_frame_codec(
                    transcript,
                    &Frame::Digest(frame),
                    WireCodec::Binary,
                    &mut scratch,
                )
                .expect("writing to a Vec cannot fail")
            });
        }
    };
    for (i, sample) in fx.stream.iter().enumerate() {
        for tier in TierId::ALL {
            let sampler = tier.select_mut(&mut samplers);
            let (hpc, os) = ledger.tally("net.source.wire_sample", || {
                sampler.rows(i as u64, sample.tier(tier), sample.interval_s)
            });
            let ws = WireSample {
                seq: i as u64,
                t_s: sample.t_s,
                interval_s: sample.interval_s,
                tier: *sample.tier(tier),
                hpc,
                os,
                app: (tier == TierId::App).then(|| AppStats::from_sample(sample)),
            };
            let collector = &mut collectors[*tier.select(&owner)];
            ledger.tally("fleet.digest.on_sample", || collector.on_sample(tier, &ws));
        }
        backhaul(&mut collectors, None, ledger);
    }
    if let Some(last_seq) = (fx.stream.len() as u64).checked_sub(1) {
        for tier in TierId::ALL {
            collectors[*tier.select(&owner)].on_bye(tier, last_seq);
        }
    }
    backhaul(
        &mut collectors,
        Some(fx.stream.len() as i64 / len - 1),
        ledger,
    );
    ledger.add(
        "fleet.backhaul.bytes",
        transcripts.iter().map(|t| t.len() as u64).sum(),
        0,
    );

    let mut node = MergeNode::new(fx.meter.clone());
    let mut readers: Vec<&[u8]> = transcripts.iter().map(Vec::as_slice).collect();
    while readers.iter().any(|r| !r.is_empty()) {
        for reader in readers.iter_mut().filter(|r| !r.is_empty()) {
            let frame = ledger.tally("fleet.backhaul.codec", || {
                read_frame(reader).expect("the back-haul reads its own output")
            });
            let Frame::Digest(digest) = frame else {
                panic!("the back-haul carried a non-digest frame");
            };
            ledger.tally("fleet.merge.ingest", || node.ingest(&digest));
        }
    }
    ledger
        .span("fleet.merge.finalize", |_| node.finalize())
        .decisions
}

// ------------------------------------------------------------ self-checks

/// One frame of every variant of the wire protocol.
fn every_frame_variant(sample: WireSample) -> Vec<Frame> {
    let digest = {
        let mut collector = FleetCollector::new(
            0,
            &TierId::ALL,
            1,
            window_origin(),
            SupervisorConfig::default(),
        );
        for tier in TierId::ALL {
            collector.on_session_start(tier);
            let mut ws = sample.clone();
            ws.t_s = window_origin() as f64;
            ws.app = (tier == TierId::App).then(|| sample.app.clone()).flatten();
            collector.on_sample(tier, &ws);
        }
        collector
            .flush(Some(DigestFin {
                tiers: TierId::ALL.to_vec(),
                last_window: 0,
            }))
            .expect("a fin always flushes")
    };
    vec![
        Frame::Hello {
            tier: TierId::Db,
            proto_version: webcap_net::PROTO_VERSION,
            metric_schema_hash: webcap_net::metric_schema_hash(TierId::Db),
            caps: WireCaps {
                codec: WireCodec::Binary,
                max_batch: BATCH as u32,
            },
        },
        Frame::Sample(sample.clone()),
        Frame::SampleBatch(vec![sample.clone(), sample]),
        Frame::Heartbeat { seq: u64::MAX },
        Frame::Ack { seq: 1 << 53 },
        Frame::Reject {
            reason: "schema \"mismatch\"\n".into(),
            ours: 3,
            theirs: 2,
        },
        Frame::Bye { last_seq: 35_999 },
        Frame::Digest(digest),
    ]
}

/// Whether the JSON dialect (that is, the serde stand-ins the handshake
/// runs through) round-trips every frame variant to an equal frame and
/// identical bytes. Returns the number of variants that do not.
pub fn json_frame_failures(fx: &Fixtures) -> (u64, u64) {
    let hpc_model = fx.meter.config().hpc_model.clone();
    let first = fx.stream.first().expect("the stream is not empty");
    let sample = TierSampler::new(TierId::App, hpc_model, fx.seed).wire_sample(SourceSample {
        seq: 0,
        t_s: first.t_s,
        interval_s: first.interval_s,
        tier: *first.tier(TierId::App),
        app: Some(AppStats::from_sample(first)),
        warmup: false,
    });
    let frames = every_frame_variant(sample);
    let failed = frames
        .iter()
        .filter(|frame| {
            let mut bytes = Vec::new();
            let mut again = Vec::new();
            let ok = webcap_net::write_frame(&mut bytes, frame).is_ok()
                && read_frame(&mut bytes.as_slice()).is_ok_and(|back| {
                    back == **frame && webcap_net::write_frame(&mut again, &back).is_ok()
                })
                && again == bytes;
            !ok
        })
        .count();
    (frames.len() as u64, failed as u64)
}

/// Whether the meter survives `to_json` → `from_json`: identical JSON
/// again, and identical predictions on every window of `decisions`.
pub fn meter_json_round_trips(fx: &Fixtures, decisions: &Decisions) -> bool {
    let Ok(json) = fx.meter.to_json() else {
        return false;
    };
    let Ok(mut back) = CapacityMeter::from_json(&json) else {
        return false;
    };
    let mut original = fx.meter.clone();
    back.to_json().is_ok_and(|again| again == json)
        && decisions
            .iter()
            .all(|(_, d)| original.predict(&d.window) == back.predict(&d.window))
}
