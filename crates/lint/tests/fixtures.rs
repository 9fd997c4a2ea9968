//! Fixture tests, two tiers:
//!
//! - single-file fixtures under `tests/fixtures/*.rs` pin the local
//!   rules to exact `(rule, line)` output under a virtual path;
//! - seeded fixture *crates* under `tests/fixtures/{panic_reach,
//!   taint_flow}/` pin the interprocedural analyses to exact
//!   `(rule, file, line, chain)` output through the full
//!   [`webcap_lint::lint_sources`] pipeline — proving each analysis
//!   fires, with the right evidence, and nowhere else.

use webcap_lint::{lint_source, lint_sources, WorkspaceIndex};

/// Lint a fixture under a virtual workspace path and return the
/// `(rule, line)` pairs it produces, in report order.
fn run(fixture: &str, as_path: &str, index: &WorkspaceIndex) -> Vec<(String, u32)> {
    lint_source(as_path, fixture, index)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn expect(fixture: &str, as_path: &str, expected: &[(&str, u32)]) {
    let got = run(fixture, as_path, &WorkspaceIndex::default());
    let want: Vec<(String, u32)> = expected.iter().map(|(r, l)| (r.to_string(), *l)).collect();
    assert_eq!(got, want, "fixture linted as {as_path}");
}

/// Run the full pipeline over a virtual fixture crate and return every
/// finding as `(rule, file, line, chain)`.
fn run_crate(srcs: &[(&str, &str)]) -> Vec<(String, String, u32, Vec<String>)> {
    let sources: Vec<(String, String)> = srcs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_sources(&sources)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.file, f.line, f.chain))
        .collect()
}

#[test]
fn nondet_time_fires_on_clocks_and_entropy() {
    expect(
        include_str!("fixtures/nondet_time.rs"),
        "crates/sim/src/fixture.rs",
        &[("nondet-time", 6), ("nondet-time", 7), ("nondet-time", 12)],
    );
}

#[test]
fn nondet_time_is_scoped_to_deterministic_crates() {
    // The same snippet in `net` (wall clocks are part of its job) is clean.
    let got = run(
        include_str!("fixtures/nondet_time.rs"),
        "crates/net/src/fixture.rs",
        &WorkspaceIndex::default(),
    );
    assert_eq!(got, Vec::<(String, u32)>::new());
}

#[test]
fn nondet_iteration_fires_on_hash_iteration_only() {
    expect(
        include_str!("fixtures/nondet_iteration.rs"),
        "crates/ml/src/fixture.rs",
        &[("nondet-iteration", 7), ("nondet-iteration", 15)],
    );
}

#[test]
fn protocol_wildcard_fires_in_the_protocol_file_only() {
    let fixture = include_str!("fixtures/protocol_wildcard.rs");
    expect(
        fixture,
        "crates/net/src/frame.rs",
        &[("protocol-wildcard-match", 13)],
    );
    // The same match elsewhere in `net` is ordinary Rust.
    let got = run(
        fixture,
        "crates/net/src/collector.rs",
        &WorkspaceIndex::default(),
    );
    assert_eq!(got, Vec::<(String, u32)>::new());
}

#[test]
fn config_bypass_flags_literal_construction() {
    let index = WorkspaceIndex {
        validated_configs: vec![(
            "AdmissionConfig".to_string(),
            "crates/core/src/admission.rs".to_string(),
        )],
    };
    let got = run(
        include_str!("fixtures/config_bypass.rs"),
        "crates/cli/src/fixture.rs",
        &index,
    );
    assert_eq!(got, vec![("config-bypass".to_string(), 6)]);
    // The defining file itself may build literals (its Default impl).
    let got = run(
        include_str!("fixtures/config_bypass.rs"),
        "crates/core/src/admission.rs",
        &index,
    );
    assert_eq!(got, Vec::<(String, u32)>::new());
}

#[test]
fn clean_fixture_passes_the_strictest_scope() {
    expect(
        include_str!("fixtures/clean.rs"),
        "crates/core/src/fixture.rs",
        &[],
    );
}

#[test]
fn panic_reach_crate_reports_the_entry_connected_chain_only() {
    let got = run_crate(&[(
        "crates/net/src/collector.rs",
        include_str!("fixtures/panic_reach/collector.rs"),
    )]);
    // `orphan`'s unwrap is proved unreachable: exactly one finding, at
    // the indexing site, with the shortest entry chain as evidence.
    assert_eq!(
        got,
        vec![(
            "panic-reachability".to_string(),
            "crates/net/src/collector.rs".to_string(),
            16,
            vec![
                "run_collector".to_string(),
                "step".to_string(),
                "decode".to_string(),
            ],
        )]
    );
}

#[test]
fn taint_flow_crate_reports_the_source_with_the_sink_chain() {
    let got = run_crate(&[
        (
            "crates/capsearch/src/report.rs",
            include_str!("fixtures/taint_flow/report.rs"),
        ),
        (
            "crates/net/src/clock.rs",
            include_str!("fixtures/taint_flow/clock.rs"),
        ),
    ]);
    // The clock is legal in `net` locally; the finding sits at the
    // source site with the sink → source chain attached.
    assert_eq!(
        got,
        vec![(
            "determinism-taint".to_string(),
            "crates/net/src/clock.rs".to_string(),
            8,
            vec!["CapacityReport::render".to_string(), "stamp".to_string()],
        )]
    );
}
