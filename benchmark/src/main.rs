//! Hermetic end-to-end benchmark of the webcap pipeline.
//!
//! One invocation runs one workload in one process:
//!
//! ```text
//! webcap-e2e-bench --workload <name> [--seed <u64>] [--seconds <n>]
//!                  [--trace <0|1>] [--smoke] [--out <file>]
//! ```
//!
//! It builds the shared fixtures (set-up, timed on its own and never
//! inside a measured region), repeats the workload's body for
//! `--seconds`, checks every output against the repository's own
//! oracles, prints each metric with its unit, quartiles and sample
//! count, and ends with one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer ledger and
//! writes the spans to `results/trace_<workload>.json`. No environment
//! variable is read, and the ones the library crates read are removed.
//! `README.md` has the method; `../BENCHMARK.json` the contract.

mod adapter;
mod calibrate;
mod ledger;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::calibrate::Reference;
use crate::ledger::{Ledger, Summary};
use crate::sys::sub_seed;
use crate::workloads::{Bench, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: webcap-e2e-bench --workload <train_meter|capacity_search|online_clean|\
online_faulty|fleet_k2> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke] [--out <file>]";

/// The default `--seed`.
const DEFAULT_SEED: u64 = 0xB11;
/// The default `--seconds`: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;
/// One-second samples in the stream `S`: 1 200 windows of 30, enough
/// for a decision-latency p99 with more than ten decisions beyond it.
const STREAM_LEN: usize = 36_000;
const SMOKE_STREAM_LEN: usize = 3_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 3;
/// Fewest repetitions a median is taken over.
const MIN_REPS: usize = 5;
const MIN_TRACED_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::TrainMeter,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// A reported metric: the value and, for medians, what it rests on.
/// `plain` is the same statistic of the times as the clock gave them,
/// before calibration.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    spread: Option<Summary>,
    plain: Option<f64>,
}

/// One metric of the result line, the form the driver reads.
#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: &'static str,
}

/// The last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricOut>,
}

/// One metric of an `--out` record: what [`Metric`] holds.
#[derive(Serialize)]
struct MetricRecord {
    value: f64,
    unit: &'static str,
    q1: Option<f64>,
    q3: Option<f64>,
    n: Option<usize>,
    plain: Option<f64>,
}

/// One line of the `--out` file.
#[derive(Serialize)]
struct Record {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricRecord>,
}

fn main() -> ExitCode {
    sys::scrub_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stream_len = if args.smoke {
        SMOKE_STREAM_LEN
    } else {
        STREAM_LEN
    };

    // Set-up, several times over: each builds the fixtures from a
    // sub-seed of its own; the last is the one measured on.
    let reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut fixtures = None;
    for k in 0..if args.smoke { 1 } else { SETUPS } {
        let (built, scale) = reference.around(|| {
            let start = Instant::now();
            let fx = adapter::build_fixtures(sub_seed(args.seed, 0x5e7, k), stream_len);
            (fx, start.elapsed().as_secs_f64())
        });
        match built {
            (Ok(fx), wall_s) => {
                fixtures = Some(fx);
                setup_s.push((wall_s, scale));
            }
            (Err(e), _) => {
                eprintln!("set-up: the fixture meter failed to train: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let fx = fixtures.expect("at least one set-up ran");
    let mut bench = Bench::new(args.workload, &fx, &reference);
    println!(
        "workload {} | seed {} | stream {} one-second samples x 2 tiers | {} s | closed loop, \
         1 process, nproc {} | traffic crosses the host loopback interface, not a link",
        args.workload.name(),
        args.seed,
        stream_len,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let measuring = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Self-checks first, before any number is printed: the in-process
    // chain (codec included) must match the oracle, and its decisions
    // feed the meter round-trip check. They count against `--seconds`.
    let (pass, wrong) = bench.check_pass();
    attempted += (stream_len / adapter::window_len(&fx.meter)) as u64 + 1;
    failed += wrong + u64::from(!pass.codec_exact);
    let (checks, wrong) = bench.self_checks(&pass.decisions);
    attempted += checks;
    failed += wrong;

    let more = |done: usize, least: usize| {
        if args.smoke {
            done == 0
        } else {
            done < least || measuring.elapsed() < budget
        }
    };
    let metrics: Vec<Metric> = if args.trace {
        let mut ledger = Ledger::new();
        let mut reps = Vec::new();
        while more(reps.len(), MIN_TRACED_REPS) {
            let rep = bench.traced_rep(reps.len() as u64, &mut ledger);
            attempted += rep.attempted;
            failed += rep.failed;
            reps.push(rep);
        }
        let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("trace_{}.json", args.workload.name()));
        match ledger.write(&trace_file) {
            Ok(()) => println!(
                "spans of {} traced repetitions in {}",
                reps.len(),
                trace_file.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", trace_file.display());
                failed += 1;
            }
        }
        let layers = bench.layer_metrics(&ledger, &reps);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
                spread: None,
                plain: None,
            })
            .collect()
    } else {
        let mut reps = Vec::new();
        while more(reps.len(), MIN_REPS) {
            let rep = bench.rep(reps.len() as u64);
            attempted += rep.attempted;
            failed += rep.failed;
            reps.push(rep);
        }
        // Every time is calibrated by the reference kernel run around
        // it; the plain readings are printed beside the calibrated ones.
        let of = |f: &dyn Fn(&workloads::Rep) -> f64| Summary::of(reps.iter().map(f).collect());
        let setup = |f: &dyn Fn(&(f64, f64)) -> f64| Summary::of(setup_s.iter().map(f).collect());
        // CPU time ticks in hundredths of a second, too coarse for one
        // repetition: it is summed over the run.
        let samples: u64 = reps.iter().map(|r| r.samples).sum();
        let cpu_ms_per_ksample = |f: &dyn Fn(&workloads::Rep) -> f64| {
            reps.iter().map(f).sum::<f64>() * 1e6 / samples.max(1) as f64
        };
        println!(
            "  reference kernel at {:.3} of nominal speed (median of {} readings)",
            of(&|r| r.scale).median,
            reps.len()
        );
        let median = |calibrated: Summary, plain: Summary| {
            (calibrated.median, Some(calibrated), Some(plain.median))
        };
        let peak_rss = of(&|r| r.peak_rss_mb);
        let values = [
            median(
                setup(&|(wall_s, scale)| wall_s * scale),
                setup(&|(wall_s, _)| *wall_s),
            ),
            median(of(&|r| r.wall_s * r.scale), of(&|r| r.wall_s)),
            median(
                of(&|r| r.samples as f64 / (r.wall_s * r.scale)),
                of(&|r| r.samples as f64 / r.wall_s),
            ),
            (
                cpu_ms_per_ksample(&|r| r.cpu_s * r.scale),
                None,
                Some(cpu_ms_per_ksample(&|r| r.cpu_s)),
            ),
            (peak_rss.median, Some(peak_rss), None),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, spread, plain))| Metric {
                name,
                unit,
                value,
                spread,
                plain,
            })
            .collect()
    };

    failed += bench.settle_deferred();
    report(&args, &bench, &metrics, attempted, failed)
}

/// Print the metrics for a reader, append the full record to `--out`,
/// and end with the one JSON line the driver parses.
fn report(args: &Args, bench: &Bench, metrics: &[Metric], attempted: u64, failed: u64) -> ExitCode {
    for m in metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!("  (q1 {:.6}, q3 {:.6}, n {})", s.q1, s.q3, s.n)
        });
        println!("  {:<40} {:>16.6} {:<6}{spread}", m.name, m.value, m.unit);
        if let Some(plain) = m.plain {
            println!("  {:<40} {plain:>16.6} {:<6}  uncalibrated", "", m.unit);
        }
    }
    for (name, values) in &bench.notes {
        let s = Summary::of(values.clone());
        println!(
            "  note {name}: median {:.6} (q1 {:.6}, q3 {:.6}, max {:.6}, n {})",
            s.median,
            s.q1,
            s.q3,
            values.iter().copied().fold(f64::MIN, f64::max),
            s.n
        );
    }
    println!(
        "  failed_share {failed} / {attempted} ({})",
        if failed == 0 {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );

    let mut exit = if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if let Some(path) = &args.out {
        let record = Record {
            workload: args.workload.name(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            correct: failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics: metrics
                .iter()
                .map(|m| {
                    let record = MetricRecord {
                        value: m.value,
                        unit: m.unit,
                        q1: m.spread.map(|s| s.q1),
                        q3: m.spread.map(|s| s.q3),
                        n: m.spread.map(|s| s.n),
                        plain: m.plain,
                    };
                    (m.name.to_owned(), record)
                })
                .collect(),
        };
        let line = serde_json::to_string(&record).expect("a record serializes");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            exit = ExitCode::FAILURE;
        }
    }
    let result = ResultLine {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: metrics
            .iter()
            .map(|m| {
                let out = MetricOut {
                    value: m.value,
                    unit: m.unit,
                };
                (m.name.to_owned(), out)
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("a result serializes")
    );
    exit
}
