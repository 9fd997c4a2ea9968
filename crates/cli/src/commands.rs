//! The CLI subcommands: simulate, train, evaluate, info, plan, agent,
//! collect, capsearch.

use std::fmt;
use std::path::Path;

use webcap_capsearch::{
    search_scenario, CapacityReport, LoopbackExecutor, Scenario, ScenarioExecutor, SearchConfig,
    SimExecutor,
};

use webcap_core::meter::{CapacityMeter, EvaluationReport, MeterConfig};
use webcap_core::monitor::MetricLevel;
use webcap_core::oracle::{label_window, OracleConfig};
use webcap_core::workloads;
use webcap_ml::Algorithm;
use webcap_net::{
    run_agent, run_supervised_collector, AgentConfig, Assembler, CollectorConfig, Endpoint,
    Listener, ScriptedSource, SupervisedReport, SupervisorConfig,
};
use webcap_sim::{SimConfig, Simulation, TierId};
use webcap_tpcw::{Mix, TrafficProgram};

use crate::args::{Args, ArgsError};

/// Any failure a subcommand can produce.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgsError),
    /// Training failed.
    Fit(webcap_ml::FitError),
    /// Reading or writing a meter file failed.
    Io(std::io::Error),
    /// Meter (de)serialization failed.
    Json(serde_json::Error),
    /// Free-form validation error.
    Message(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Fit(e) => write!(f, "training failed: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "meter file error: {e}"),
            CliError::Message(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> CliError {
        CliError::Args(e)
    }
}
impl From<webcap_ml::FitError> for CliError {
    fn from(e: webcap_ml::FitError) -> CliError {
        CliError::Fit(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> CliError {
        CliError::Json(e)
    }
}

/// Parse a mix name.
pub fn parse_mix(name: &str) -> Result<Mix, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "browsing" => Ok(Mix::browsing()),
        "shopping" => Ok(Mix::shopping()),
        "ordering" => Ok(Mix::ordering()),
        other => Err(CliError::Message(format!(
            "unknown mix '{other}' (expected browsing, shopping, or ordering)"
        ))),
    }
}

/// Parse a metric level name.
pub fn parse_level(name: &str) -> Result<MetricLevel, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "os" => Ok(MetricLevel::Os),
        "hpc" => Ok(MetricLevel::Hpc),
        "combined" => Ok(MetricLevel::Combined),
        other => Err(CliError::Message(format!(
            "unknown metric level '{other}' (expected os, hpc, or combined)"
        ))),
    }
}

/// Parse an algorithm name.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "lr" | "linear" => Ok(Algorithm::LinearRegression),
        "naive" | "nb" => Ok(Algorithm::NaiveBayes),
        "tan" => Ok(Algorithm::Tan),
        "svm" => Ok(Algorithm::Svm),
        other => Err(CliError::Message(format!(
            "unknown algorithm '{other}' (expected lr, naive, tan, or svm)"
        ))),
    }
}

fn print_report(report: &EvaluationReport) {
    println!(
        "{:<8} {:<10} {:<10} {:<12} {:<10}",
        "t(s)", "actual", "predicted", "bottleneck", "hc"
    );
    for r in &report.results {
        println!(
            "{:<8.0} {:<10} {:<10} {:<12} {:<10}",
            r.t_end_s,
            if r.actual { "OVERLOAD" } else { "ok" },
            if r.predicted { "OVERLOAD" } else { "ok" },
            r.predicted_bottleneck
                .map_or("-".to_string(), |t| t.to_string()),
            if r.confident { "confident" } else { "in-band" },
        );
    }
    println!(
        "\nbalanced accuracy {:.3}   bottleneck accuracy {}   windows {}",
        report.balanced_accuracy(),
        report
            .bottleneck_accuracy()
            .map_or("n/a".to_string(), |a| format!("{a:.3}")),
        report.confusion.total()
    );
}

/// `webcap simulate` — run a traffic program and print per-window health.
pub fn simulate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["mix", "ebs", "duration", "seed"])?;
    let mix = parse_mix(args.get_or("mix", "shopping"))?;
    let seed = args.get_parsed("seed", 1u64, "integer")?;
    let cfg = SimConfig::testbed(seed);
    let knee = workloads::estimate_saturation_ebs(&cfg, &mix);
    let ebs = args.get_parsed("ebs", knee, "integer")?;
    let duration = args.get_parsed("duration", 300.0, "number")?;
    if duration < 30.0 {
        return Err(CliError::Message(
            "duration must be at least 30 seconds".into(),
        ));
    }

    println!(
        "simulating {ebs} EBs of {} for {duration:.0}s (knee ≈ {knee} EBs)",
        args.get_or("mix", "shopping")
    );
    let program = TrafficProgram::steady(mix, ebs, duration);
    let samples = webcap_sim::run(cfg, program).samples;
    let oracle = OracleConfig::default();
    println!(
        "{:<8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "t(s)", "thr", "rt(s)", "app util", "db util", "disk", "state"
    );
    for chunk in samples.chunks(30) {
        let label = label_window(chunk, &oracle);
        let n = chunk.len() as f64;
        let thr = chunk.iter().map(|s| s.front.completed).sum::<u64>() as f64 / n;
        let app = chunk.iter().map(|s| s.app.utilization).sum::<f64>() / n;
        let db = chunk.iter().map(|s| s.db.utilization).sum::<f64>() / n;
        let disk = chunk.iter().map(|s| s.db.disk_utilization).sum::<f64>() / n;
        println!(
            "{:<8.0} {:>8.1} {:>8.2} {:>9.3} {:>9.3} {:>9.3} {:>10}",
            chunk.last().map_or(0.0, |s| s.t_s),
            thr,
            label.mean_response_time_s,
            app,
            db,
            disk,
            if label.overloaded {
                format!("OVER/{}", label.bottleneck)
            } else {
                "ok".into()
            }
        );
    }
    Ok(())
}

/// `webcap train` — train a capacity meter and save it as JSON.
pub fn train(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["out", "level", "algorithm", "seed", "scale", "jobs"])?;
    let out = args.require("out")?;
    let mut cfg = MeterConfig::new(args.get_parsed("seed", 1u64, "integer")?);
    cfg.level = parse_level(args.get_or("level", "hpc"))?;
    cfg.algorithm = parse_algorithm(args.get_or("algorithm", "tan"))?;
    cfg.parallelism = args.jobs()?;
    cfg.duration_scale = args.get_parsed("scale", 1.0, "number")?;
    if cfg.duration_scale <= 0.0 {
        return Err(CliError::Message("scale must be positive".into()));
    }
    if cfg.duration_scale < 0.8 {
        cfg.coordinator.delta = 2;
    }

    println!(
        "training {} / {} meter at scale {} (jobs: {}) ...",
        cfg.level, cfg.algorithm, cfg.duration_scale, cfg.parallelism
    );
    let meter = CapacityMeter::train(&cfg)?;
    for synopsis in meter.synopses() {
        println!(
            "  {:<30} cv-BA {:.3}  [{}]",
            synopsis.spec().to_string(),
            synopsis.cv_balanced_accuracy(),
            synopsis.selected_names().join(", ")
        );
    }
    std::fs::write(out, meter.to_json()?)?;
    println!("meter written to {out}");
    Ok(())
}

/// `webcap evaluate` — load a meter and score it on a test workload.
pub fn evaluate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["meter", "workload", "seed", "scale"])?;
    let path = args.require("meter")?;
    let mut meter = CapacityMeter::from_json(&std::fs::read_to_string(path)?)?;
    let seed = args.get_parsed("seed", 4242u64, "integer")?;
    let scale = args.get_parsed("scale", meter.config().duration_scale, "number")?;
    let sim = meter.config().sim.clone();
    let workload = args.get_or("workload", "ordering").to_ascii_lowercase();
    let program = match workload.as_str() {
        "interleaved" => workloads::interleaved_test(&sim, scale),
        "unknown" => workloads::unknown_test(&sim, scale, seed),
        name => workloads::test_ramp(&sim, &parse_mix(name)?, scale),
    };
    println!("evaluating on {workload} (seed {seed}, scale {scale})");
    let report = meter.evaluate_program(&program, seed);
    print_report(&report);
    Ok(())
}

/// `webcap info` — describe a saved meter.
pub fn info(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["meter"])?;
    let path = args.require("meter")?;
    let meter = CapacityMeter::from_json(&std::fs::read_to_string(path)?)?;
    let cfg = meter.config();
    println!("metric level : {}", cfg.level);
    println!("algorithm    : {}", cfg.algorithm);
    println!(
        "coordinator  : h={} delta={} scheme={:?}",
        cfg.coordinator.history_bits, cfg.coordinator.delta, cfg.coordinator.scheme
    );
    println!(
        "window       : {}s x stride {}s",
        cfg.window_len, cfg.test_stride
    );
    println!("synopses     :");
    for synopsis in meter.synopses() {
        println!(
            "  {:<30} cv-BA {:.3}  [{}]",
            synopsis.spec().to_string(),
            synopsis.cv_balanced_accuracy(),
            synopsis.selected_names().join(", ")
        );
    }
    Ok(())
}

/// `webcap plan` — analytic + measured capacity for each canonical mix.
pub fn plan(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["seed"])?;
    let seed = args.get_parsed("seed", 11u64, "integer")?;
    let cfg = SimConfig::testbed(seed);
    println!(
        "{:<12} {:>12} {:>12} {:>14}",
        "mix", "est req/s", "knee EBs", "bottleneck"
    );
    for (name, mix) in [
        ("browsing", Mix::browsing()),
        ("shopping", Mix::shopping()),
        ("ordering", Mix::ordering()),
    ] {
        let cap = workloads::estimate_capacity_rps(&cfg, &mix);
        let knee = workloads::estimate_saturation_ebs(&cfg, &mix);
        let app_rate = f64::from(cfg.app.cores) * cfg.app.effective_speed()
            / cfg.profile.mean_app_demand(&mix);
        let bottleneck = if (app_rate - cap).abs() < 1e-9 {
            "APP"
        } else {
            "DB"
        };
        println!("{name:<12} {cap:>12.1} {knee:>12} {bottleneck:>14}");
    }
    Ok(())
}

/// Parse a tier name.
pub fn parse_tier(name: &str) -> Result<TierId, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "app" => Ok(TierId::App),
        "db" => Ok(TierId::Db),
        other => Err(CliError::Message(format!(
            "unknown tier '{other}' (expected app or db)"
        ))),
    }
}

/// `webcap agent` — run one tier's telemetry agent against a collector.
///
/// Today the agent replays the meter's simulated testbed (one shared
/// `--run-seed` makes both tiers' agents replay the same run); the
/// `SampleSource` seam in `webcap-net` is where real perf-counter
/// readers plug in.
pub fn agent(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "tier", "connect", "meter", "mix", "ebs", "duration", "seed", "run-seed",
    ])?;
    let tier = parse_tier(args.require("tier")?)?;
    let endpoint = Endpoint::parse(args.require("connect")?)?;
    let meter = CapacityMeter::from_json(&std::fs::read_to_string(args.require("meter")?)?)?;
    let mix_name = args.get_or("mix", "ordering").to_ascii_lowercase();
    let mix = parse_mix(&mix_name)?;
    let seed = args.get_parsed("seed", 17u64, "integer")?;
    let run_seed = args.get_parsed("run-seed", 400u64, "integer")?;
    let duration = args.get_parsed("duration", 240.0, "number")?;
    if duration < f64::from(meter.config().window_len as u32) {
        return Err(CliError::Message(format!(
            "duration must cover at least one {}-second window",
            meter.config().window_len
        )));
    }
    let mut sim = meter.config().sim.clone();
    sim.seed = run_seed;
    let knee = workloads::estimate_saturation_ebs(&sim, &mix);
    let ebs = args.get_parsed("ebs", knee, "integer")?;

    println!("agent[{tier}]: replaying {ebs} EBs of {mix_name} for {duration:.0}s into {endpoint}");
    let samples = Simulation::new(sim, TrafficProgram::steady(mix, ebs, duration))
        .run()
        .samples;
    let cfg = AgentConfig::new(tier, endpoint, seed);
    let hpc_model = meter.config().hpc_model.clone();
    let mut source = ScriptedSource::new(tier, &samples);
    let report = run_agent(&cfg, hpc_model, meter.config().level, &mut source)?;
    println!(
        "agent[{tier}]: {} samples sent in {} frames over {} session(s), {} accepted, \
         {} fault-dropped, {} queue-evicted, {} heartbeats",
        report.frames_sent,
        report.sample_frames,
        report.sessions,
        report.acks_received,
        report.frames_dropped,
        report.queue_dropped,
        report.heartbeats_sent,
    );
    Ok(())
}

/// `webcap collect` — run the supervised front-end collector, printing
/// one line per intact window as its prediction comes out of the meter.
pub fn collect(args: &Args) -> Result<(), CliError> {
    let report = collect_report(args)?;
    println!(
        "collector: {} decisions, {} windows quarantined, {} still partial, \
         {} anomalies, sessions app={} db={}",
        report.decisions.len(),
        report.poisoned_windows.len(),
        report.pending_windows.len(),
        report.anomalies,
        report.sessions[0],
        report.sessions[1],
    );
    println!(
        "collector: health {}, admission cap {} EBs",
        report.health, report.final_cap,
    );
    Ok(())
}

/// The body of `webcap collect`, returning the full supervised report
/// (the CLI smoke tests drive the deployment through this seam).
///
/// # Errors
///
/// Argument validation, meter IO, and socket errors.
pub fn collect_report(args: &Args) -> Result<SupervisedReport, CliError> {
    args.reject_unknown(&["listen", "meter", "safe-cap"])?;
    let endpoint = Endpoint::parse(args.require("listen")?)?;
    let meter = CapacityMeter::from_json(&std::fs::read_to_string(args.require("meter")?)?)?;
    run_collect(&endpoint, meter, args)
}

fn run_collect(
    endpoint: &Endpoint,
    meter: CapacityMeter,
    args: &Args,
) -> Result<SupervisedReport, CliError> {
    let sup_cfg = SupervisorConfig {
        safe_cap: args.get_parsed("safe-cap", SupervisorConfig::default().safe_cap, "integer")?,
    };
    let listener = Listener::bind(endpoint)?;
    let cfg = CollectorConfig::default();
    println!(
        "collector: listening on {} for {} tier agents",
        listener.local_endpoint()?,
        TierId::ALL.len(),
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12}",
        "window", "t(s)", "thr", "state", "hc"
    );
    let collector = Assembler::start(meter, cfg.window_origin, sup_cfg);
    Ok(run_supervised_collector(
        listener,
        collector,
        &cfg,
        |window, decision| {
            println!(
                "{:<8} {:>10.0} {:>10.1} {:>10} {:>12}",
                window,
                decision.window.t_end_s,
                decision.window.throughput,
                if decision.prediction.overloaded {
                    decision
                        .prediction
                        .bottleneck
                        .map_or("OVERLOAD".to_string(), |t| format!("OVER/{t}"))
                } else {
                    "ok".to_string()
                },
                if decision.prediction.confident {
                    "confident"
                } else {
                    "in-band"
                },
            );
        },
    ))
}

/// `webcap capsearch` — search scenarios for their SLO-boundary
/// capacity and emit byte-stable reports.
pub fn capsearch(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "list",
        "loopback",
        "scenario",
        "scenario-file",
        "seed",
        "meter",
        "out",
        "endpoint",
        "lo",
        "hi",
        "tolerance",
        "max-probes",
        "max-ebs",
        "jobs",
    ])?;
    if args.flag("list") {
        for s in webcap_capsearch::library() {
            println!(
                "{:<18} seed {:<6} {:>4.0}s, {} phase(s), {} fault(s)  {}",
                s.name,
                s.seed,
                s.duration_s(),
                s.phases.len(),
                s.faults.len(),
                s.description
            );
        }
        return Ok(());
    }

    let mut scenarios: Vec<Scenario> = if let Some(path) = args.get("scenario-file") {
        let text = std::fs::read_to_string(path)?;
        vec![Scenario::from_json(&text).map_err(|e| CliError::Message(format!("{path}: {e}")))?]
    } else {
        match args.get_or("scenario", "all") {
            "all" => webcap_capsearch::library(),
            name => vec![webcap_capsearch::scenario::find(name).ok_or_else(|| {
                CliError::Message(format!(
                    "unknown scenario '{name}'; run `webcap capsearch --list`"
                ))
            })?],
        }
    };
    if args.get("seed").is_some() {
        let seed: u64 = args.get_parsed("seed", 0, "a u64 seed")?;
        for s in &mut scenarios {
            s.seed = seed;
        }
    }

    let cfg = capsearch_config(args)?;
    let meter = match args.get("meter") {
        Some(path) => CapacityMeter::from_json(&std::fs::read_to_string(path)?)?,
        None => {
            CapacityMeter::train(&MeterConfig::small_for_tests(31).with_parallelism(args.jobs()?))?
        }
    };

    for scenario in &scenarios {
        let report = if args.flag("loopback") {
            let endpoint = Endpoint::parse(args.get_or("endpoint", "tcp:127.0.0.1:0"))?;
            let mut executor = LoopbackExecutor::new(&meter, endpoint);
            run_capsearch(scenario, &mut executor, &cfg)?
        } else {
            let mut executor = SimExecutor::new(&meter);
            run_capsearch(scenario, &mut executor, &cfg)?
        };
        println!(
            "{:<18} [{}] capacity {:>4} EBs  {:>7.1} rps  {}  bottleneck {}  \
             ({} probes, config {})",
            report.scenario,
            report.executor,
            report.capacity_ebs,
            report.capacity_rps,
            if report.converged {
                "converged"
            } else {
                "NOT converged"
            },
            report
                .bottleneck
                .map_or("none".to_string(), |t| t.to_string()),
            report.probes.len(),
            report.config_hash
        );
        if let Some(dir) = args.get("out") {
            std::fs::create_dir_all(dir)?;
            let path = Path::new(dir).join(format!("{}.json", report.scenario));
            std::fs::write(&path, report.render())?;
            println!("  report written to {}", path.display());
        }
    }
    Ok(())
}

fn run_capsearch(
    scenario: &Scenario,
    executor: &mut dyn ScenarioExecutor,
    cfg: &SearchConfig,
) -> Result<CapacityReport, CliError> {
    search_scenario(scenario, executor, cfg).map_err(|e| CliError::Message(e.to_string()))
}

/// Resolve the search parameters, starting from the default bracket.
fn capsearch_config(args: &Args) -> Result<SearchConfig, CliError> {
    let defaults = SearchConfig::default();
    Ok(SearchConfig {
        initial_lo: args.get_parsed("lo", defaults.initial_lo, "a population")?,
        initial_hi: args.get_parsed("hi", defaults.initial_hi, "a population")?,
        tolerance: args
            .get_parsed("tolerance", defaults.tolerance, "a population width")?
            .max(1),
        max_probes: args.get_parsed("max-probes", defaults.max_probes, "a probe count")?,
        max_ebs: args
            .get_parsed("max-ebs", defaults.max_ebs, "a population ceiling")?
            .max(1),
    })
}

/// Top-level usage text.
pub const USAGE: &str = "\
webcap — online capacity measurement of multi-tier websites (ICDCS'08 reproduction)

USAGE:
  webcap <COMMAND> [OPTIONS]

COMMANDS:
  simulate   run a steady workload and print per-window health
             --mix <browsing|shopping|ordering> --ebs <N> --duration <s> --seed <N>
  train      train a capacity meter and save it as JSON
             --out <file> [--level os|hpc|combined] [--algorithm lr|naive|tan|svm]
             [--scale <f>] [--seed <N>] [--jobs <N|auto>]
             (--jobs only changes wall-clock time: training is
             bit-for-bit deterministic at any thread count)
  evaluate   score a saved meter on a test workload
             --meter <file> [--workload ordering|browsing|interleaved|unknown]
             [--seed <N>] [--scale <f>]
  info       describe a saved meter
             --meter <file>
  plan       analytic capacity of the testbed per canonical mix
             [--seed <N>]
  collect    run the supervised front-end collector of the distributed
             telemetry plane; prints one prediction per intact 30 s
             window, tracks health (healthy/degraded/safe-mode), and
             drives the admission cap
             --listen <tcp:host:port|unix:/path> --meter <file>
             [--safe-cap <N>]
             (persists nothing: a restarted collector is a cold start
             and re-earns healthy through safe-mode)
  agent      run one tier's telemetry agent against a collector
             --tier <app|db> --connect <endpoint> --meter <file>
             [--mix <m>] [--ebs <N>] [--duration <s>] [--seed <N>]
             [--run-seed <N>]
             (every frame, the handshake included, is binary —
             batched delta/varint samples)
  capsearch  bisect scenarios to their SLO-boundary capacity and emit
             byte-stable capacity reports
             [--list] [--scenario <name|all>] [--scenario-file <json>]
             [--loopback [--endpoint <ep>]] [--seed <N>] [--meter <file>]
             [--out <dir>] [--lo <N>] [--hi <N>] [--tolerance <N>]
             [--max-probes <N>] [--max-ebs <N>] [--jobs <N|auto>]
             (--loopback probes through the real agent/collector plane
             instead of the in-process replay)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()), &[]).unwrap()
    }

    #[test]
    fn mix_level_algorithm_parsing() {
        assert!(parse_mix("Browsing").is_ok());
        assert!(parse_mix("nope").is_err());
        assert_eq!(parse_level("HPC").unwrap(), MetricLevel::Hpc);
        assert_eq!(parse_level("combined").unwrap(), MetricLevel::Combined);
        assert!(parse_level("x").is_err());
        assert_eq!(parse_algorithm("tan").unwrap(), Algorithm::Tan);
        assert_eq!(parse_algorithm("nb").unwrap(), Algorithm::NaiveBayes);
        assert!(parse_algorithm("zz").is_err());
    }

    #[test]
    fn tier_parsing() {
        assert_eq!(parse_tier("App").unwrap(), TierId::App);
        assert_eq!(parse_tier("db").unwrap(), TierId::Db);
        assert!(parse_tier("cache").is_err());
    }

    #[test]
    fn agent_and_collect_require_their_endpoints() {
        let err = agent(&args(&["--tier", "app"])).unwrap_err();
        assert!(err.to_string().contains("--connect"));
        let err = collect(&args(&[])).unwrap_err();
        assert!(err.to_string().contains("--listen"));
    }

    #[test]
    fn plan_runs() {
        plan(&args(&[])).unwrap();
    }

    #[test]
    fn simulate_validates_duration() {
        let err = simulate(&args(&["--duration", "5"])).unwrap_err();
        assert!(err.to_string().contains("at least 30"));
    }

    #[test]
    fn simulate_runs_small() {
        simulate(&args(&[
            "--mix",
            "shopping",
            "--ebs",
            "20",
            "--duration",
            "60",
        ]))
        .unwrap();
    }

    #[test]
    fn unknown_option_is_reported() {
        let err = simulate(&args(&["--bogus", "1"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"));
        let err = collect(&args(&["--snapshot", "x"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{err}");
    }

    #[test]
    fn train_requires_out() {
        let err = train(&args(&[])).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn train_then_info_then_evaluate_round_trip() {
        let dir = std::env::temp_dir().join("webcap-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meter.json");
        let path_s = path.to_str().unwrap();
        train(&args(&[
            "--out", path_s, "--scale", "0.45", "--seed", "3", "--jobs", "2",
        ]))
        .unwrap();
        info(&args(&["--meter", path_s])).unwrap();
        evaluate(&args(&[
            "--meter",
            path_s,
            "--workload",
            "ordering",
            "--seed",
            "9",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
    }
}
