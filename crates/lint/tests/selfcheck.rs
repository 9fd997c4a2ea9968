//! Self-check: the committed workspace must have zero findings, every
//! registered entry point and sink must still resolve against the real
//! tree (a rename must not silently disable an analysis), and injecting
//! a known-bad snippet into a scratch workspace must produce a failing
//! report — the directions of the CI gate.

use std::fs;
use std::path::{Path, PathBuf};

use webcap_lint::taint::{ENTRY_POINTS, SINKS};
use webcap_lint::{lint_workspace, taint, CallGraph, SourceUnit};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn the_committed_workspace_has_zero_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(report.files_scanned > 10, "workspace walk found the crates");
    assert!(
        !report.failed(),
        "findings — nothing suppresses one; make the code unable to produce it:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.note))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_registered_entry_point_and_sink_resolves_in_the_real_tree() {
    let root = workspace_root();
    let sources = webcap_lint::workspace_sources(&root).expect("workspace walk");
    let units: Vec<SourceUnit> = sources
        .iter()
        .map(|(rel, abs)| {
            let text = fs::read_to_string(abs).unwrap_or_else(|e| panic!("{rel}: {e}"));
            SourceUnit::new(rel, &text)
        })
        .collect();
    let g = CallGraph::build(&units);
    assert_eq!(
        taint::unresolved(&g, ENTRY_POINTS),
        Vec::<(String, String)>::new(),
        "renamed/removed entry point: update taint::ENTRY_POINTS"
    );
    assert_eq!(
        taint::unresolved(&g, SINKS),
        Vec::<(String, String)>::new(),
        "renamed/removed sink: update taint::SINKS"
    );
}

#[test]
fn injected_finding_fails_a_scratch_workspace() {
    // A minimal workspace with one bad file; unique per test process so
    // parallel runs never collide.
    let scratch =
        std::env::temp_dir().join(format!("webcap-lint-selfcheck-{}", std::process::id()));
    let src_dir = scratch.join("crates").join("net").join("src");
    fs::create_dir_all(&src_dir).expect("scratch workspace dirs");
    fs::write(
        src_dir.join("lib.rs"),
        "//! Scratch crate.\n\
         pub fn run_collector(v: Vec<u32>) -> u32 {\n\
             helper(&v)\n\
         }\n\
         fn helper(v: &[u32]) -> u32 {\n\
             let first = *v.first().unwrap();\n\
             first + v[1]\n\
         }\n\
         fn unreachable_helper(v: &[u32]) -> u32 {\n\
             v[0]\n\
         }\n",
    )
    .expect("scratch source");

    let report = lint_workspace(&scratch).expect("scratch lints");
    assert!(report.failed(), "injected snippet must fail the run");
    let got: Vec<(&str, u32, &[String])> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.chain.as_slice()))
        .collect();
    // Both panic sites in `helper` are entry-reachable with the same
    // two-call chain; `unreachable_helper` is proved away.
    let chain = ["run_collector".to_string(), "helper".to_string()];
    assert_eq!(
        got,
        vec![
            ("panic-reachability", 6, &chain[..]),
            ("panic-reachability", 7, &chain[..]),
        ]
    );

    fs::remove_dir_all(&scratch).ok();
}
