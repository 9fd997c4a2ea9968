//! `webcap` — the command-line interface of the webcap reproduction.
//!
//! Run `webcap` with no arguments for usage.

use webcap_cli::args::Args;
use webcap_cli::commands::{
    agent, capsearch, collect, evaluate, info, plan, simulate, train, CliError, USAGE,
};

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let command = raw.remove(0);
    // Subcommands with bare (value-less) flags.
    let bare_flags: &[&str] = match command.as_str() {
        "capsearch" => &["list", "loopback"],
        _ => &[],
    };
    let result = Args::parse(raw, bare_flags)
        .map_err(CliError::from)
        .and_then(|args| match command.as_str() {
            "simulate" => simulate(&args),
            "train" => train(&args),
            "evaluate" => evaluate(&args),
            "info" => info(&args),
            "plan" => plan(&args),
            "agent" => agent(&args),
            "collect" => collect(&args),
            "capsearch" => capsearch(&args),
            other => Err(CliError::Message(format!(
                "unknown command '{other}'; run `webcap --help`"
            ))),
        });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
