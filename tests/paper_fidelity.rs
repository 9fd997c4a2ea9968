//! Paper-fidelity gates: every claim of the paper's evaluation (Fig. 3,
//! Table I, Fig. 4, §V-B/C/D) and the two §VII extensions as a
//! pass/fail check over a sweep of base seeds.
//!
//! Counter-derived accuracies move by several points from one seeded
//! execution to the next — the paper averages executions for the same
//! reason — so every gate computes its statistic once per seed in
//! [`SEEDS`] at full duration scale (`MeterConfig::new`, not
//! `small_for_tests`) and asserts on the seed-mean, or on the mean of
//! the per-seed difference for an ordering claim. Each bound sits at
//! least three standard errors of that mean (seed-to-seed s.d. / √K)
//! from the measured value, so one different seed moves a sample, not a
//! verdict. A failure names the paper's value, the measured mean, range
//! and standard error, and the bound.
//!
//! A claim the seed-mean does not support is `#[ignore]`d with the
//! measured-vs-paper numbers and listed under "Known deviations" in
//! EXPERIMENTS.md, whose tables are what these tests print:
//!
//! ```sh
//! cargo test --test paper_fidelity -- --nocapture
//! ```

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webcap::core::coordinator::TieScheme;
use webcap::core::monitor::{collect_run, MetricLevel, WindowInstance};
use webcap::core::oracle::OracleConfig;
use webcap::core::pi::{select_pi, CostMetric, PiDefinition, PiSelection, YieldMetric};
use webcap::core::synopsis::{PerformanceSynopsis, SynopsisSpec};
use webcap::core::workloads;
use webcap::core::{CapacityMeter, EvaluationReport, MeterConfig};
use webcap::hpc::{DerivedMetrics, HpcModel};
use webcap::ml::select::SelectionOptions;
use webcap::ml::{balanced_accuracy, Algorithm, Dataset, Model};
use webcap::sim::{run, DemandProfile, SimConfig, TierId};
use webcap::tpcw::{Mix, MixId, TrafficProgram};
use Bound::{Max, Min, Print};

/// Base seeds every gate sweeps (K = 10). A gate derives its simulation
/// and metric-noise seeds from the base seed alone.
const SEEDS: [u64; 10] = [7, 31, 99, 101, 202, 303, 404, 606, 1234, 2008];

/// What a row's seed-mean must satisfy.
#[derive(Debug, Clone, Copy)]
enum Bound {
    Min(f64),
    Max(f64),
    /// Reported in the table, not gated.
    Print,
}

/// The rows of one table. Each is printed as EXPERIMENTS.md quotes it;
/// the ones whose seed-mean breaks its bound fail the test together,
/// once the whole table is out.
struct Gates(Vec<String>);

fn gates(title: &str, rows: impl FnOnce(&mut Gates)) {
    println!("\n== {title} ==");
    let mut g = Gates(Vec::new());
    rows(&mut g);
    assert!(g.0.is_empty(), "{title}\n{}", g.0.join("\n"));
}

impl Gates {
    fn row(&mut self, cell: &str, paper: &str, values: &[f64], bound: Bound) {
        let k = values.len() as f64;
        let mean = values.iter().sum::<f64>() / k;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (k - 1.0);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let se = (var / k).sqrt();
        let measured = format!("{mean:.3} ({min:.3}–{max:.3}, s.e. {se:.3}, K = {k})");
        println!("{cell:<36} paper {paper:<8} measured {measured}");
        let holds = match bound {
            Min(b) => mean >= b,
            Max(b) => mean <= b,
            Print => true,
        };
        if !holds {
            let failure = format!("{cell}: paper {paper}, measured {measured}, bound {bound:?}");
            self.0.push(failure);
        }
    }
}

/// Per-seed `a − b`, for ordering claims.
fn differences(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

// ---- Workloads and instance collection ----

/// The four test workloads of the paper's evaluation (Section IV-A), in
/// the paper's figure order: two knee-crossing ramps, alternating
/// browsing/ordering under- and overload phases, and a perturbed
/// blended mix unseen during training.
#[derive(Debug, Clone, Copy)]
enum TestWorkload {
    Ordering,
    Browsing,
    Interleaved,
    Unknown,
}
use TestWorkload::{Browsing, Interleaved, Ordering, Unknown};

impl TestWorkload {
    fn program(self, cfg: &SimConfig) -> TrafficProgram {
        match self {
            Ordering => workloads::test_ramp(cfg, &Mix::ordering(), 1.0),
            Browsing => workloads::test_ramp(cfg, &Mix::browsing(), 1.0),
            Interleaved => workloads::interleaved_test(cfg, 1.0),
            Unknown => workloads::unknown_test(cfg, 1.0, 0xBADC0DE),
        }
    }
}

/// Labeled 30 s windows of one run of `program`, `stride` samples apart
/// (10 for training, for more instances; 30, disjoint, for evaluation).
fn instances(
    cfg: &SimConfig,
    program: &TrafficProgram,
    metrics_seed: u64,
    stride: usize,
) -> Vec<WindowInstance> {
    let log = collect_run(cfg, program, &HpcModel::testbed(), metrics_seed);
    log.windows(30, stride, &OracleConfig::default())
}

/// Three independently seeded executions of one test workload, pooled —
/// the paper averages executions; a single run of ~32 windows carries
/// ±7 % binomial noise on top of the slow environmental disturbances.
fn pooled_test_instances(w: TestWorkload, seed: u64) -> Vec<WindowInstance> {
    let execution = |rep: u64| {
        let cfg = SimConfig::testbed(seed ^ (0xF4 + 1000 * rep) ^ w as u64);
        instances(&cfg, &w.program(&cfg), 0xF4 ^ w as u64 ^ rep, 30)
    };
    (0..3).flat_map(execution).collect()
}

/// A full-scale meter (HPC level, TAN synopses, h = 3, optimistic,
/// δ = 5 unless `tweak` says otherwise) on the testbed seeded by `seed`.
fn train_meter(seed: u64, tweak: impl FnOnce(&mut MeterConfig)) -> CapacityMeter {
    let mut cfg = MeterConfig::new(seed);
    tweak(&mut cfg);
    CapacityMeter::train(&cfg).unwrap_or_else(|e| panic!("seed {seed}: training failed: {e}"))
}

// ---- Figure 3 — PI tracks throughput ----

/// Drive the testbed into overload with `mix`, as the paper does — after
/// a ramp to the knee the load keeps oscillating across it, so
/// throughput and productivity fluctuate together — and select the PI
/// pair on `tier` by the `Corr` measure, once per seed.
///
/// Series are 60-second means, smoothing the timescale decoupling
/// between when work is consumed and when its request completes; the
/// cold ramp is excluded because PI (a productivity measure, high when
/// idle) is not expected to track throughput (a load measure) across it.
fn fig3_sweep(mix: &Mix, tier: TierId) -> Vec<PiSelection> {
    const PHASE_S: f64 = 150.0;
    const AGG: usize = 60;
    let selection = |seed: u64| {
        let cfg = SimConfig::testbed(seed);
        let knee = workloads::estimate_saturation_ebs(&cfg, mix);
        let load = |f: f64| (f64::from(knee) * f) as u32;
        let mut program = TrafficProgram::ramp(mix.clone(), load(0.5), load(1.3), PHASE_S);
        for f in [0.85, 1.45, 0.9, 1.6, 0.95, 1.35] {
            program = program.then_steady(mix.clone(), load(f), PHASE_S);
        }
        let log = collect_run(&cfg, &program, &HpcModel::testbed(), seed ^ 0xF16);
        let skip = PHASE_S as usize / AGG;
        let throughput: Vec<f64> = log
            .throughput_series()
            .chunks(AGG)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .skip(skip)
            .collect();
        let metrics: Vec<DerivedMetrics> = log.hpc[tier.index()]
            .chunks(AGG)
            .map(DerivedMetrics::mean)
            .skip(skip)
            .collect();
        select_pi(&metrics, &throughput)
    };
    SEEDS.into_iter().map(selection).collect()
}

/// `Corr` of the selected pair and of the pair the paper reports — IPC
/// over L2 miss rate on the app tier (ordering), IPC over stalled
/// cycles on the DB tier (browsing) — both gated.
fn fig3_rows(g: &mut Gates, run: &str, paper_cost: CostMetric, sweep: &[PiSelection], min: f64) {
    let paper_pair = PiDefinition {
        yield_metric: YieldMetric::Ipc,
        cost_metric: paper_cost,
    };
    let paper_corr = |s: &PiSelection| {
        let pair = s.candidates.iter().find(|(d, _)| *d == paper_pair);
        pair.expect("every yield/cost pair is a candidate").1
    };
    for (seed, s) in SEEDS.iter().zip(sweep) {
        println!("{run} seed {seed}: Corr selects `{}`", s.definition);
    }
    let selected: Vec<f64> = sweep.iter().map(|s| s.corr).collect();
    let papers: Vec<f64> = sweep.iter().map(paper_corr).collect();
    g.row(&format!("{run} selected"), "high", &selected, Min(min));
    g.row(&format!("{run} {paper_pair}"), "high", &papers, Min(min));
}

#[test]
fn fig3_pi_tracks_throughput() {
    gates("Fig. 3 — Corr of PI with throughput", |g| {
        let ordering = fig3_sweep(&Mix::ordering(), TierId::App);
        fig3_rows(g, "ordering/APP", CostMetric::L2MissRate, &ordering, 0.85);
        let browsing = fig3_sweep(&Mix::browsing(), TierId::Db);
        fig3_rows(g, "browsing/DB", CostMetric::StallFraction, &browsing, 0.5);
    });
}

#[test]
#[ignore = "Fig. 3 browsing pair: paper selects DB IPC / stalled cycles; measured: Corr selects a per-cycle yield over stall cycles on 0 of 10 seeds (instr/s yield on 9, four distinct pairs)"]
fn fig3_browsing_pair_is_a_per_cycle_yield_over_stalled_cycles() {
    let per_cycle_over_stalls = |s: &PiSelection| {
        let (y, c) = (s.definition.yield_metric, s.definition.cost_metric);
        let per_cycle = matches!(y, YieldMetric::Ipc | YieldMetric::Upc);
        f64::from(u8::from(per_cycle && c == CostMetric::StallFraction))
    };
    let sweep = fig3_sweep(&Mix::browsing(), TierId::Db);
    let share: Vec<f64> = sweep.iter().map(per_cycle_over_stalls).collect();
    gates("Fig. 3 — browsing/DB pair, share of seeds", |g| {
        g.row("IPC|UPC / stall cycles", "always", &share, Min(0.9));
    });
}

// ---- Table I — individual synopses ----

// Table I index names, `[input][workload][tier][level]`: a sub-table's
// input mix and a synopsis's training workload share the first two.
const BROWSING: usize = 0;
const ORDERING: usize = 1;
const APP: usize = 0;
const DB: usize = 1;
const OS: usize = 0;
const HPC: usize = 1;

/// Table I on one seed. The sweep covers TAN at both metric levels in
/// every cell and all four learners on the HPC cell each sub-table is
/// about (Browsing/DB under browsing input, Ordering/APP under
/// ordering input); the paper's other 42 cells are wrong-workload or
/// wrong-tier synopses under LR, Naive or SVM, or the diagonal at OS
/// level.
struct Table1 {
    /// TAN balanced accuracies, `[input][workload][tier][level]`.
    tan: [[[[f64; 2]; 2]; 2]; 2],
    /// `[input][learner]` in `Algorithm::PAPER_ORDER`.
    diagonal: [[f64; 4]; 2],
}

/// Two training executions per workload and three test executions per
/// input mix on each seed, because slow environmental disturbances
/// differ between runs.
fn table1_sweep() -> &'static Vec<Table1> {
    static SWEEP: OnceLock<Vec<Table1>> = OnceLock::new();
    let mixes = [
        (MixId::Browsing, Mix::browsing(), Browsing),
        (MixId::Ordering, Mix::ordering(), Ordering),
    ];
    let one_seed = |seed: u64| {
        let train = [BROWSING, ORDERING].map(|i| -> Vec<WindowInstance> {
            let (id, mix, _) = &mixes[i];
            let execution = |rep: u64| {
                let cfg = SimConfig::testbed(seed ^ (31 * rep));
                let program = workloads::training_program(&cfg, mix, 1.0);
                instances(&cfg, &program, 0x7AB1 ^ *id as u64 ^ rep, 10)
            };
            (0..2).flat_map(execution).collect()
        });
        let inputs = [BROWSING, ORDERING].map(|i| -> Vec<WindowInstance> {
            let execution = |rep: u64| {
                let cfg = SimConfig::testbed(seed ^ (7700 + 13 * rep));
                instances(&cfg, &mixes[i].2.program(&cfg), (0xB0 + i as u64) ^ rep, 30)
            };
            (0..3).flat_map(execution).collect()
        });
        let accuracy = |input: usize, workload: usize, tier, level, algorithm| {
            let spec = SynopsisSpec {
                tier,
                workload: mixes[workload].0,
                level,
                algorithm,
            };
            let synopsis =
                PerformanceSynopsis::train(spec, &train[workload], &SelectionOptions::default())
                    .unwrap_or_else(|e| panic!("seed {seed}: training {spec} failed: {e}"));
            let input = &inputs[input];
            let actual: Vec<bool> = input.iter().map(|w| w.overloaded()).collect();
            let predicted: Vec<bool> = input.iter().map(|w| synopsis.predict_instance(w)).collect();
            balanced_accuracy(&actual, &predicted)
        };
        Table1 {
            tan: [BROWSING, ORDERING].map(|input| {
                [BROWSING, ORDERING].map(|workload| {
                    TierId::ALL.map(|tier| {
                        MetricLevel::ALL
                            .map(|level| accuracy(input, workload, tier, level, Algorithm::Tan))
                    })
                })
            }),
            diagonal: [(BROWSING, TierId::Db), (ORDERING, TierId::App)].map(|(mix, tier)| {
                Algorithm::PAPER_ORDER.map(|a| accuracy(mix, mix, tier, MetricLevel::Hpc, a))
            }),
        }
    };
    SWEEP.get_or_init(|| SEEDS.into_iter().map(one_seed).collect())
}

/// One Table I TAN cell over the seeds.
fn table1_cell(input: usize, workload: usize, tier: usize, level: usize) -> Vec<f64> {
    let cell = |t: &Table1| t.tan[input][workload][tier][level];
    table1_sweep().iter().map(cell).collect()
}

/// Paper values of the TAN column, `[input][workload][tier][level]`.
const TABLE1_PAPER_TAN: [[[[f64; 2]; 2]; 2]; 2] = [
    [
        [[0.603, 0.515], [0.635, 0.965]],
        [[0.545, 0.505], [0.587, 0.646]],
    ],
    [
        [[0.547, 0.588], [0.572, 0.694]],
        [[0.935, 0.952], [0.665, 0.840]],
    ],
];
/// Paper values of the diagonal HPC cell per learner, `[input][learner]`.
const TABLE1_PAPER_DIAGONAL: [[f64; 4]; 2] =
    [[0.859, 0.935, 0.957, 0.965], [0.805, 0.883, 0.921, 0.952]];

/// One sub-table's TAN cells. A wrong-workload synopsis must be near
/// chance; the matching workload's bottleneck-tier synopsis must clear
/// `diagonal[level]` and beat its other-tier sibling at HPC level by
/// `margin`.
fn table1_rows(g: &mut Gates, input: usize, bottleneck: usize, diagonal: [Bound; 2], margin: f64) {
    for (w, workload) in ["Browsing", "Ordering"].into_iter().enumerate() {
        for (t, tier) in ["APP", "DB"].into_iter().enumerate() {
            for (l, level) in ["OS", "HPC"].into_iter().enumerate() {
                let cell = format!("{workload}/{tier} {level}/TAN");
                let paper = format!("{:.3}", TABLE1_PAPER_TAN[input][w][t][l]);
                let bound = match (w == input, t == bottleneck) {
                    (false, _) => Max(0.65),
                    (true, true) => diagonal[l],
                    (true, false) => Print,
                };
                g.row(&cell, &paper, &table1_cell(input, w, t, l), bound);
            }
        }
    }
    let [this, other] = [bottleneck, 1 - bottleneck].map(|t| table1_cell(input, input, t, HPC));
    let paper = TABLE1_PAPER_TAN[input][input];
    let paper = format!(
        "{:+.3}",
        paper[bottleneck][HPC] - paper[1 - bottleneck][HPC]
    );
    let cell = "bottleneck − other tier (HPC/TAN)";
    g.row(cell, &paper, &differences(&this, &other), Min(margin));
}

#[test]
fn table1a_only_the_browsing_db_synopsis_is_accurate_on_browsing_input() {
    gates("Table I(a) — browsing-mix input", |g| {
        table1_rows(g, BROWSING, DB, [Print, Min(0.85)], 0.05);
    });
}

#[test]
fn table1b_only_the_ordering_app_synopsis_is_accurate_on_ordering_input() {
    gates("Table I(b) — ordering-mix input", |g| {
        table1_rows(g, ORDERING, APP, [Min(0.9), Min(0.9)], 0.2);
    });
}

#[test]
fn table1_every_learner_is_accurate_on_the_diagonal_and_tan_leads() {
    gates("Table I — four learners, diagonal HPC cell", |g| {
        let subs = ["(a) Browsing/DB", "(b) Ordering/APP"];
        for (input, sub) in subs.into_iter().enumerate() {
            for (a, algorithm) in Algorithm::PAPER_ORDER.into_iter().enumerate() {
                let cell = format!("{sub} {}", algorithm.paper_name());
                let paper = format!("{:.3}", TABLE1_PAPER_DIAGONAL[input][a]);
                let values: Vec<f64> = table1_sweep()
                    .iter()
                    .map(|t| t.diagonal[input][a])
                    .collect();
                g.row(&cell, &paper, &values, Min(0.65));
            }
        }
        // The paper settles on TAN: per seed, TAN minus the mean of the
        // other three learners, averaged over the two diagonal cells.
        let lead = |[lr, naive, svm, tan]: [f64; 4]| tan - (lr + naive + svm) / 3.0;
        let tan_lead = |t: &Table1| (lead(t.diagonal[BROWSING]) + lead(t.diagonal[ORDERING])) / 2.0;
        let tan_lead: Vec<f64> = table1_sweep().iter().map(tan_lead).collect();
        g.row("TAN − mean of others", "+0.065", &tan_lead, Min(0.03));
    });
}

/// Per-seed HPC − OS on the Browsing/DB TAN synopsis under browsing
/// input, the cell the paper's "HPC ≫ OS" rests on (0.965 vs 0.635).
fn table1a_hpc_os_gap(bound: Bound) {
    let [hpc, os] = [HPC, OS].map(|level| table1_cell(BROWSING, BROWSING, DB, level));
    gates("Table I(a) — HPC vs OS on Browsing/DB (TAN)", |g| {
        g.row("HPC − OS", "+0.330", &differences(&hpc, &os), bound);
    });
}

#[test]
fn table1a_hpc_beats_os_on_the_browsing_db_synopsis() {
    table1a_hpc_os_gap(Min(0.0));
}

#[test]
#[ignore = "Table I(a) HPC ≫ OS: paper 0.965 vs 0.635 (gap 0.330); measured gap 0.164 (0.094–0.275) — OS/TAN on Browsing/DB reaches 0.765, not 0.635"]
fn table1a_hpc_beats_os_by_at_least_0_2_on_the_browsing_db_synopsis() {
    table1a_hpc_os_gap(Min(0.2));
}

#[test]
#[ignore = "Table I(a) Browsing/APP: paper 0.603 OS / 0.515 HPC (useless off the bottleneck tier); measured 0.557 / 0.705 — the front end still sees browsing overload through its queue"]
fn table1a_the_wrong_tier_synopsis_is_no_better_than_chance() {
    gates("Table I(a) — Browsing/APP under browsing input", |g| {
        let cell = |level| table1_cell(BROWSING, BROWSING, APP, level);
        g.row("OS/TAN", "0.603", &cell(OS), Max(0.6));
        g.row("HPC/TAN", "0.515", &cell(HPC), Max(0.6));
    });
}

#[test]
#[ignore = "Table I(b) Ordering/DB HPC/TAN: paper 0.840; measured 0.703 (0.534–0.857) — the DB tier sees almost nothing when the app tier is the bottleneck"]
fn table1b_ordering_db_hpc_synopsis_retains_signal() {
    let cell = table1_cell(ORDERING, ORDERING, DB, HPC);
    gates("Table I(b) — Ordering/DB under ordering input", |g| {
        g.row("HPC/TAN", "0.840", &cell, Min(0.75));
    });
}

// ---- Figure 4 — coordinated prediction ----

/// Paper bar heights read off Figure 4, `[workload][level]`.
const FIG4A_PAPER: [[f64; 2]; 4] = [[0.88, 0.92], [0.62, 0.91], [0.70, 0.87], [0.65, 0.80]];
const FIG4B_PAPER: [[f64; 2]; 4] = [[0.86, 0.91], [0.60, 0.90], [0.68, 0.86], [0.63, 0.78]];

const WORKLOADS: [TestWorkload; 4] = [Ordering, Browsing, Interleaved, Unknown];

/// Figure 4 on every seed: `[workload][level]` evaluation reports of the
/// OS- and HPC-level meters (TAN, h = 3, optimistic, δ = 5) over three
/// pooled executions of each test workload.
fn fig4_sweep() -> &'static Vec<[[EvaluationReport; 2]; 4]> {
    static SWEEP: OnceLock<Vec<[[EvaluationReport; 2]; 4]>> = OnceLock::new();
    let one_seed = |seed: u64| {
        let mut meters = MetricLevel::ALL.map(|level| train_meter(seed, |c| c.level = level));
        WORKLOADS.map(|workload| {
            let instances = pooled_test_instances(workload, seed);
            [OS, HPC].map(|level| meters[level].evaluate_instances(&instances))
        })
    };
    SWEEP.get_or_init(|| SEEDS.into_iter().map(one_seed).collect())
}

type Fig4Stat = fn(&EvaluationReport) -> f64;
const OVERLOAD: Fig4Stat = |r| r.balanced_accuracy();
const BOTTLENECK: Fig4Stat = |r| r.bottleneck_accuracy().unwrap_or(0.0);

/// Per-seed mean of one Figure 4 statistic over `workloads`.
fn fig4_mean(workloads: &[TestWorkload], level: usize, stat: Fig4Stat) -> Vec<f64> {
    let one_seed = |s: &[[EvaluationReport; 2]; 4]| {
        let sum: f64 = workloads.iter().map(|&w| stat(&s[w as usize][level])).sum();
        sum / workloads.len() as f64
    };
    fig4_sweep().iter().map(one_seed).collect()
}

/// Per-seed HPC − OS of one Figure 4 statistic, averaged over `workloads`.
fn fig4_level_gap(workloads: &[TestWorkload], stat: Fig4Stat) -> Vec<f64> {
    differences(
        &fig4_mean(workloads, HPC, stat),
        &fig4_mean(workloads, OS, stat),
    )
}

/// One panel: the OS column printed, the HPC column gated by `hpc`.
fn fig4_rows(g: &mut Gates, paper: &[[f64; 2]; 4], stat: Fig4Stat, hpc: [Bound; 4]) {
    for (workload, hpc) in WORKLOADS.into_iter().zip(hpc) {
        let paper = paper[workload as usize].map(|p| format!("{p:.2}"));
        let cell = |level| fig4_mean(&[workload], level, stat);
        g.row(&format!("{workload:?} OS"), &paper[OS], &cell(OS), Print);
        g.row(&format!("{workload:?} HPC"), &paper[HPC], &cell(HPC), hpc);
    }
}

#[test]
fn fig4a_coordinated_overload_prediction() {
    gates("Fig. 4(a) — overload prediction BA", |g| {
        let hpc = [Min(0.85), Min(0.85), Min(0.85), Min(0.65)];
        fig4_rows(g, &FIG4A_PAPER, OVERLOAD, hpc);
        let level_gap = fig4_level_gap(&WORKLOADS, OVERLOAD);
        g.row("HPC − OS, all workloads", "+0.163", &level_gap, Min(0.0));
        // Not gated: the drop matches the paper's in the mean but sits
        // only 2.4 standard errors from zero.
        let known = fig4_mean(&[Ordering, Browsing], HPC, OVERLOAD);
        let unknown_drop = differences(&known, &fig4_mean(&[Unknown], HPC, OVERLOAD));
        g.row("HPC known − unknown mix", "+0.115", &unknown_drop, Print);
    });
}

#[test]
#[ignore = "Fig. 4(a) OS level on browsing: paper 0.62 (0.29 under HPC); measured 0.753, 0.112 under HPC — one consistent 64-metric generator is kinder than a real Sysstat pipeline"]
fn fig4a_os_level_trails_hpc_by_the_papers_margin_on_browsing() {
    gates("Fig. 4(a) — browsing workload", |g| {
        let gap = fig4_level_gap(&[Browsing], OVERLOAD);
        g.row("HPC − OS", "+0.29", &gap, Min(0.25));
    });
}

#[test]
fn fig4b_coordinated_bottleneck_identification() {
    gates("Fig. 4(b) — bottleneck identification", |g| {
        let hpc = [Min(0.85), Min(0.85), Min(0.85), Print];
        fig4_rows(g, &FIG4B_PAPER, BOTTLENECK, hpc);
    });
}

#[test]
#[ignore = "Fig. 4(b) OS level: paper 0.60–0.86, 0.05–0.30 under HPC; measured 0.938–0.998, ≤ 0.022 under HPC — with two tiers and a resource-stress oracle the argmax is rarely wrong once the state call is right"]
fn fig4b_os_level_trails_hpc_on_bottleneck_identification() {
    gates("Fig. 4(b) — the three labeled workloads", |g| {
        let gap = fig4_level_gap(&[Ordering, Browsing, Interleaved], BOTTLENECK);
        g.row("HPC − OS", "+0.18", &gap, Min(0.1));
    });
}

#[test]
#[ignore = "Fig. 4(b) unknown mix: paper 0.78; measured 0.381 (0.286–0.424) — the perturbed mix sits where the two tiers' capacities cross, so the oracle's bottleneck flips window to window"]
fn fig4b_bottleneck_identification_on_the_unknown_mix() {
    gates("Fig. 4(b) — unknown mix", |g| {
        let cell = fig4_mean(&[Unknown], HPC, BOTTLENECK);
        g.row("Unknown HPC", "0.78", &cell, Min(0.65));
    });
}

// ---- §V-B — learner cost ordering ----

/// A paper-sized training set: ~300 aggregated instances over 8 selected
/// attributes, with overlapping class distributions.
fn paper_sized_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new((0..8).map(|i| format!("a{i}")).collect());
    for _ in 0..300 {
        let label: bool = rng.random();
        let informative = if label { 1.0 } else { 0.0 };
        let feature = |i| (if i < 4 { informative } else { 0.5 }) + rng.random::<f64>() * 0.9;
        data.push((0..8).map(feature).collect(), label);
    }
    data
}

/// Milliseconds `f` takes, best of three — which sheds the scheduler's
/// share when the other gates run beside this one.
fn best_of_three_ms(mut f: impl FnMut()) -> f64 {
    let once = |_| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    (0..3).map(once).fold(f64::INFINITY, f64::min)
}

/// Paper build + decide: LR 90 ms, Naive 10 ms, SVM 1710 ms, TAN 50 ms.
/// Absolute numbers on modern hardware are far smaller; the shape is
/// SVM ≫ the rest, Naive cheapest, and every decision far under the
/// paper's 50 ms.
#[test]
fn sec5b_svm_is_by_far_the_costliest_learner_and_decisions_are_cheap() {
    let probe = vec![0.7; 8];
    let mut build_ms = [const { Vec::new() }; 4];
    let mut decide_us = [const { Vec::new() }; 4];
    for seed in SEEDS {
        let data = paper_sized_dataset(seed);
        for (a, algorithm) in Algorithm::PAPER_ORDER.into_iter().enumerate() {
            build_ms[a].push(best_of_three_ms(|| drop(black_box(algorithm.fit(&data)))));
            let model = algorithm.fit(&data).expect("fit");
            // Milliseconds per thousand decisions are µs per decision.
            decide_us[a].push(best_of_three_ms(|| {
                for _ in 0..1000 {
                    black_box(model.predict(black_box(&probe)));
                }
            }));
        }
    }
    let ratio = |a: usize, b: usize| -> Vec<f64> {
        let (a, b) = (&build_ms[a], &build_ms[b]);
        a.iter().zip(b).map(|(x, y)| x / y).collect()
    };
    // Indices into `Algorithm::PAPER_ORDER`.
    let (lr, naive, svm, tan) = (0, 1, 2, 3);
    gates("§V-B — synopsis build and decision cost", |g| {
        let paper = ["90 ms", "10 ms", "1710 ms", "50 ms"];
        for (a, algorithm) in Algorithm::PAPER_ORDER.into_iter().enumerate() {
            let name = algorithm.paper_name();
            g.row(&format!("{name} build, ms"), paper[a], &build_ms[a], Print);
            let decide = format!("{name} decide, µs");
            g.row(&decide, "< 50 ms", &decide_us[a], Max(1000.0));
        }
        g.row("SVM / LR build", "19x", &ratio(svm, lr), Min(3.0));
        g.row("SVM / Naive build", "171x", &ratio(svm, naive), Min(3.0));
        g.row("SVM / TAN build", "34x", &ratio(svm, tan), Min(3.0));
        g.row("LR / Naive build", "9x", &ratio(lr, naive), Min(2.0));
        g.row("TAN / Naive build", "5x", &ratio(tan, naive), Min(2.0));
    });
}

// ---- §V-C — history length and tie scheme ----

/// HPC-level meters on the interleaved workload, the hardest labeled
/// one: h ∈ {1, 3, 5} under both tie schemes at the paper's δ = 5.
#[test]
fn sec5c_short_history_wins_and_the_tie_scheme_matters_little() {
    const HISTORY_BITS: [usize; 3] = [1, 3, 5];
    const SCHEMES: [TieScheme; 2] = [TieScheme::Optimistic, TieScheme::Pessimistic];
    // `ba[h][scheme]` over the seeds.
    let mut ba = [const { [const { Vec::new() }; 2] }; 3];
    for seed in SEEDS {
        let instances = pooled_test_instances(Interleaved, seed);
        for (h, history_bits) in HISTORY_BITS.into_iter().enumerate() {
            for (s, scheme) in SCHEMES.into_iter().enumerate() {
                let mut meter = train_meter(seed, |cfg| {
                    cfg.coordinator.history_bits = history_bits;
                    cfg.coordinator.scheme = scheme;
                });
                ba[h][s].push(meter.evaluate_instances(&instances).balanced_accuracy());
            }
        }
    }
    // Per seed: a history length averaged over the schemes, a scheme
    // averaged over the history lengths.
    let per_seed = |cells: &[&Vec<f64>]| -> Vec<f64> {
        let one_seed = |i| cells.iter().map(|c| c[i]).sum::<f64>() / cells.len() as f64;
        (0..SEEDS.len()).map(one_seed).collect()
    };
    let [h1, h3, h5] = [0, 1, 2].map(|h| per_seed(&[&ba[h][0], &ba[h][1]]));
    let [optimistic, pessimistic] = [0, 1].map(|s| per_seed(&[&ba[0][s], &ba[1][s], &ba[2][s]]));
    let mut gap = differences(&optimistic, &pessimistic);
    gap.iter_mut().for_each(|d| *d = d.abs());
    gates("§V-C — BA on the interleaved workload", |g| {
        for (h, history_bits) in HISTORY_BITS.into_iter().enumerate() {
            for (s, scheme) in SCHEMES.into_iter().enumerate() {
                let cell = format!("h = {history_bits} {scheme:?}");
                g.row(&cell, "-", &ba[h][s], Print);
            }
        }
        let (h1_h5, h3_h5) = (differences(&h1, &h5), differences(&h3, &h5));
        g.row("h = 1 − h = 5", "≈ +0.10", &h1_h5, Min(0.05));
        g.row("h = 3 − h = 5", "marginal", &h3_h5, Min(0.0));
        g.row("|optimistic − pessimistic|", "little", &gap, Max(0.15));
    });
}

// ---- §V-D — collection overhead ----

/// Collector CPU cost is a fraction of one tier's capacity: PerfCtr
/// global-mode reads are a handful of register reads per sample,
/// Sysstat parses and aggregates /proc text. One 1800 s saturated
/// ordering-mix execution per seed and collector (the paper: five
/// 30-minute executions), normalized to the same seed's
/// no-collection run.
#[test]
fn sec5d_counter_collection_is_nearly_free_and_sysstat_costs_a_few_percent() {
    const HPC_COLLECTOR_COST: f64 = 0.004;
    const OS_COLLECTOR_COST: f64 = 0.040;
    let throughput = |seed: u64, collector_cost: f64| -> f64 {
        let mut cfg = SimConfig::testbed(seed);
        cfg.app.collector_overhead = collector_cost;
        cfg.db.collector_overhead = collector_cost;
        let mix = Mix::ordering();
        let knee = workloads::estimate_saturation_ebs(&cfg, &mix);
        let program = TrafficProgram::steady(mix, knee + knee / 5, 1800.0);
        let samples = run(cfg, program).samples;
        let completed: u64 = samples.iter().map(|s| s.front.completed).sum();
        let duration_s: f64 = samples.iter().map(|s| s.interval_s).sum();
        completed as f64 / duration_s
    };
    let uncollected = SEEDS.map(|seed| throughput(seed, 0.0));
    let [hpc, os] = [HPC_COLLECTOR_COST, OS_COLLECTOR_COST].map(|cost| -> Vec<f64> {
        let loss = |(seed, none)| 100.0 * (1.0 - throughput(seed, cost) / none);
        SEEDS.into_iter().zip(uncollected).map(loss).collect()
    });
    gates("§V-D — throughput loss under collection, %", |g| {
        // The paper's < 0.5 % is inside one standard error of this mean.
        g.row("hardware counters", "< 0.5", &hpc, Max(1.5));
        g.row("Sysstat (OS)", "≈ 4", &os, Max(8.0));
        let gap = differences(&os, &hpc);
        g.row("Sysstat − counters", "≈ 3.5", &gap, Min(2.0));
    });
}

// ---- §VII extensions ----

/// Balanced accuracy per metric level (`MetricLevel::EXTENDED` order)
/// on the archival testbed — disk demands ×5 make the browsing mix
/// disk-bound, so under overload the DB CPU idles while the disk queue
/// explodes — over the seeds.
fn combined_io_sweep() -> &'static [Vec<f64>; 3] {
    static SWEEP: OnceLock<[Vec<f64>; 3]> = OnceLock::new();
    let mix = Mix::browsing();
    let accuracy = |level: MetricLevel, seed: u64| {
        let mut base = SimConfig::testbed(seed);
        base.profile = DemandProfile::testbed().with_disk_scale(5.0);
        let cap = workloads::estimate_capacity_rps(&base, &mix);
        let db_cpu_cap = f64::from(base.db.cores) * base.db.effective_speed()
            / base.profile.mean_db_cpu_demand(&mix);
        assert!(cap < 0.6 * db_cpu_cap, "testbed must be disk-bound");
        let mut meter = train_meter(seed, |cfg| {
            cfg.sim = base.clone();
            cfg.level = level;
        });
        let program = workloads::test_ramp(&base, &mix, 1.0);
        let mut report = EvaluationReport::default();
        for rep in 0u64..3 {
            report.merge(&meter.evaluate_program(&program, seed ^ (0xD15C + 1000 * rep)));
        }
        report.balanced_accuracy()
    };
    let sweep = |level| SEEDS.map(|seed| accuracy(level, seed)).to_vec();
    SWEEP.get_or_init(|| MetricLevel::EXTENDED.map(sweep))
}

#[test]
fn sec7_combined_metrics_handle_io_bound_overload() {
    let [os, hpc, combined] = combined_io_sweep();
    gates("§VII — disk-bound browsing overload, BA", |g| {
        g.row("OS level", "-", os, Print);
        g.row("HPC level", "-", hpc, Print);
        g.row("Combined", "-", combined, Min(0.8));
    });
}

#[test]
#[ignore = "§VII combined metrics never lose to either family: paper predicts HPC alone cannot reflect I/O-bound overload; measured seed-means OS 0.798 / HPC 0.879 / Combined 0.877, and Combined trails the better family by more than 0.02 on 4 of 10 seeds"]
fn sec7_combined_metrics_never_lose_to_either_family() {
    let [os, hpc, combined] = combined_io_sweep();
    let keeps_up = |i: usize| f64::from(u8::from(combined[i] + 0.02 >= os[i].max(hpc[i])));
    let share: Vec<f64> = (0..SEEDS.len()).map(keeps_up).collect();
    gates("§VII — disk-bound browsing, share of seeds", |g| {
        g.row("Combined ≥ best − 0.02", "always", &share, Min(0.9));
    });
}

/// Two choices the paper fixes without exploration. Training volume
/// bounds the coordinated predictor's confidence (the pattern-table
/// counters need repeated visits to clear the δ band); window length
/// trades detection latency against starving the pattern tables.
#[test]
fn sec7_sensitivity_to_training_volume_and_window_length() {
    // (The default volume, 1x duration and 2 runs, is Fig. 4(a)'s
    // interleaved HPC cell: same meter, same pooled executions.)
    const VOLUMES: [(f64, usize); 2] = [(0.5, 1), (1.5, 2)];
    const WINDOWS: [usize; 3] = [10, 30, 60];
    let mut volume = [const { Vec::new() }; 2];
    let mut window = [const { Vec::new() }; 3];
    for seed in SEEDS {
        let base = SimConfig::testbed(seed);
        let interleaved = pooled_test_instances(Interleaved, seed);
        for (v, (factor, repeats)) in VOLUMES.into_iter().enumerate() {
            let mut meter = train_meter(seed, |cfg| {
                cfg.train_duration_factor = factor;
                cfg.training_repeats = repeats;
            });
            volume[v].push(meter.evaluate_instances(&interleaved).balanced_accuracy());
        }
        for (w, window_len) in WINDOWS.into_iter().enumerate() {
            let mut meter = train_meter(seed, |cfg| {
                cfg.window_len = window_len;
                cfg.train_stride = window_len / 3;
                cfg.test_stride = window_len;
            });
            // The meter re-windows each run at its own length.
            let program = Ordering.program(&base);
            let mut report = EvaluationReport::default();
            for rep in 0u64..3 {
                report.merge(&meter.evaluate_program(&program, seed ^ (0x5e2 + 1000 * rep)));
            }
            window[w].push(report.balanced_accuracy());
        }
    }
    gates("§VII — training volume, window length", |g| {
        g.row("0.5x duration, 1 run", "-", &volume[0], Print);
        g.row("1.5x duration, 2 runs", "-", &volume[1], Print);
        let gain = differences(&volume[1], &volume[0]);
        g.row("gain from volume", "-", &gain, Min(0.03));
        g.row("10 s windows", "-", &window[0], Print);
        g.row("30 s windows", "30 s", &window[1], Min(0.88));
        g.row("60 s windows", "-", &window[2], Print);
    });
}
