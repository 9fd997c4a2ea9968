//! `webcap-lint` — the workspace invariant analyzer.
//!
//! PRs 1–4 established the properties this codebase depends on:
//! byte-identical determinism in the measurement/training pipeline, an
//! unwrap-free runtime in the capacity-critical crates, an exhaustively
//! matched and versioned wire protocol, and validated configuration.
//! The [`lexer`] feeds a hand-rolled recursive-descent [`parser`]
//! (item trees: fns, impls, `cfg(test)` scoping), the item trees feed a
//! conservative [`callgraph`], and on top of the graph run the
//! interprocedural analyses in [`taint`] (panic-reachability from the
//! runtime entry points, determinism taint from the byte-stable sinks).
//! Local rules live in [`rules`].
//!
//! Every finding fails the run: there is no allowlist, because what
//! used to need one is now discharged by a type (typed selectors, an
//! `Option` return, exhaustive patterns in the binary codec).
//!
//! Entry points:
//! - [`lint_workspace`] — walk a workspace root and produce a [`Report`]
//!   (what the `webcap lint` subcommand calls);
//! - [`lint_sources`] — run the full pipeline over in-memory files (the
//!   seam the analysis fixture tests use);
//! - [`lint_source`] — local rules only, one file (the seam of the
//!   single-file fixtures).
//!
//! The analyzer is deliberately dependency-free — not even `syn` — so
//! it builds in hermetic environments and can never be the reason the
//! workspace fails to resolve. Rules that would require full type
//! resolution belong in clippy, not here; everything the graph cannot
//! resolve is over-approximated in the sound direction.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use callgraph::{CallGraph, SourceUnit};

/// Finding severity. Every current rule is [`Severity::Error`]; the
/// distinction exists so future advisory rules can ride the same
/// report without gating CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, never fails the run.
    Warning,
    /// Violation of an enforced invariant: fails the run.
    Error,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `panic-reachability`); static because
    /// rules are compiled in.
    pub rule: &'static str,
    /// Severity of the violation.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation including which invariant is at risk.
    pub note: String,
    /// For interprocedural findings: the shortest call chain as
    /// qualified names (entry → … → site, or sink → … → source).
    pub chain: Vec<String>,
}

/// Cross-file facts gathered before per-file linting: currently the
/// set of validated config types (name, defining file) used by the
/// `config-bypass` rule.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceIndex {
    /// `(type name, workspace-relative defining file)` for every
    /// `*Config` type with a `try_new`/`validate` impl.
    pub validated_configs: Vec<(String, String)>,
}

/// The outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, sorted by `(file, line, rule)`; any fails the run.
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when the run should exit nonzero.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// Errors from walking or reading the workspace.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure, with the path that produced it.
    Io(PathBuf, io::Error),
    /// The workspace root doesn't look like this workspace.
    BadRoot(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::BadRoot(path) => write!(
                f,
                "{} does not contain a `crates/` directory; pass the workspace root via --root",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Lint a single in-memory source file with the *local* rules only.
/// `rel_path` selects which rules apply (crate scoping, protocol-file
/// detection, test-file exemption).
pub fn lint_source(rel_path: &str, source: &str, index: &WorkspaceIndex) -> Vec<Finding> {
    rules::lint_file(&SourceUnit::new(rel_path, source), index)
}

/// Run the full pipeline — local rules, panic-reachability,
/// determinism taint — over in-memory files. Findings are sorted by
/// `(file, line, rule)` and deduplicated.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let units: Vec<SourceUnit> = sources
        .iter()
        .map(|(rel, text)| SourceUnit::new(rel, text))
        .collect();
    let index = build_index_from_units(&units);
    let graph = CallGraph::build(&units);
    let mut findings: Vec<Finding> = Vec::new();
    for unit in &units {
        findings.extend(rules::lint_file(unit, &index));
    }
    findings.extend(taint::panic_reachability(&units, &graph));
    findings.extend(taint::determinism_taint(&units, &graph));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

/// Collect every workspace `.rs` source file under `root`, as
/// `(workspace-relative path, absolute path)` pairs sorted by relative
/// path. Covers `crates/*/src/**` and the root facade's `src/**`;
/// `target/` and hidden directories are never entered.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, LintError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::BadRoot(root.to_path_buf()));
    }
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let entries = fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(crates_dir.clone(), e))?;
        let path = entry.path();
        if path.is_dir() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        // Only src/ trees: integration tests and benches are linted by
        // rustc/clippy, and the rules exempt them anyway.
        roots.push(dir.join("src"));
    }
    for sub in roots {
        if sub.is_dir() {
            walk_rs(root, &sub, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Build the cross-file [`WorkspaceIndex`] from already-loaded sources.
pub fn build_index(sources: &[(String, String)]) -> WorkspaceIndex {
    let units: Vec<SourceUnit> = sources
        .iter()
        .map(|(rel, text)| SourceUnit::new(rel, text))
        .collect();
    build_index_from_units(&units)
}

fn build_index_from_units(units: &[SourceUnit]) -> WorkspaceIndex {
    let mut validated_configs = Vec::new();
    for unit in units {
        validated_configs.extend(rules::collect_validated_configs(unit));
    }
    validated_configs.sort();
    validated_configs.dedup();
    WorkspaceIndex { validated_configs }
}

/// Lint every workspace source under `root`. Findings are
/// deterministic: sorted by `(file, line, rule)` and deduplicated.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = workspace_sources(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, abs) in &files {
        let text = fs::read_to_string(abs).map_err(|e| LintError::Io(abs.clone(), e))?;
        sources.push((rel.clone(), text));
    }
    Ok(Report {
        files_scanned: sources.len(),
        findings: lint_sources(&sources),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_crate_scoping() {
        let index = WorkspaceIndex::default();
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lint_source("crates/core/src/x.rs", src, &index).len(), 1);
        assert!(lint_source("crates/net/src/x.rs", src, &index).is_empty());
    }

    #[test]
    fn any_finding_fails_the_report() {
        let mut r = Report::default();
        assert!(!r.failed());
        r.findings.push(Finding {
            rule: "nondet-time",
            severity: Severity::Error,
            file: "f".into(),
            line: 1,
            note: "n".into(),
            chain: Vec::new(),
        });
        assert!(r.failed());
    }

    #[test]
    fn build_index_collects_configs_across_files() {
        let sources = vec![(
            "crates/core/src/cfg.rs".to_string(),
            "pub struct TierConfig { pub n: u32 }\n\
             impl TierConfig { pub fn try_new(n: u32) -> Result<Self, ()> { Ok(TierConfig { n }) } }"
                .to_string(),
        )];
        let index = build_index(&sources);
        assert_eq!(
            index.validated_configs,
            vec![(
                "TierConfig".to_string(),
                "crates/core/src/cfg.rs".to_string()
            )]
        );
    }

    #[test]
    fn lint_sources_runs_the_interprocedural_analyses() {
        let sources = vec![
            (
                "crates/net/src/collector.rs".to_string(),
                "pub fn run_collector() { helper(); }\nfn helper() { x.unwrap(); }".to_string(),
            ),
            (
                "crates/core/src/quiet.rs".to_string(),
                "pub fn fine() -> u32 { 1 }".to_string(),
            ),
        ];
        let findings = lint_sources(&sources);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "panic-reachability");
        assert_eq!(findings[0].chain, vec!["run_collector", "helper"]);
    }
}
