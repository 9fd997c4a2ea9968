//! Interprocedural analyses over the call graph: panic-reachability
//! and determinism taint.
//!
//! **Panic-reachability** replaces the v1 line-local `panic-*` rules.
//! Instead of flagging every `.unwrap()` / `x[i]` in a panic-free
//! crate, it walks the conservative call graph from the runtime entry
//! points and reports only the panic sites an entry point can actually
//! reach — with the shortest call chain as evidence. Everything else is
//! proved unreachable by the graph's sound over-approximation.
//!
//! **Determinism taint** closes the interprocedural gap in the local
//! `nondet-*` rules: a nondeterministic source (wall clock, ambient
//! entropy, unordered hash iteration, raw env read) buried in a helper
//! crate must not be *callable from* a byte-stable sink — the
//! serializers whose output the golden suites pin byte-for-byte. The
//! analysis BFSes forward from each sink and flags any reachable
//! source, chain attached.
//!
//! Both analyses skip `#[cfg(test)]` code and silently skip entry
//! points / sinks that do not resolve in the unit set (fixture trees
//! rarely define all of them); the workspace self-check test asserts
//! that every registered entry point and sink resolves in the real
//! tree, so a rename cannot quietly disable an analysis.

use crate::callgraph::{enclosing_fn, CallGraph, SourceUnit};
use crate::rules::{
    clock_entropy_sites, env_read_sites, hash_iteration_sites, panic_sites, test_adjacent_path,
    Site, DETERMINISTIC_CRATES, PANIC_FREE_CRATES,
};
use crate::{Finding, Severity};

/// Runtime entry points, as `(crate, fn-spec)`. These are the
/// functions a deployment actually invokes: the agent and collector
/// event loops, the loopback/supervised harness drivers, the fleet
/// merge surface, the capsearch executors, and the chaos mesh.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("net", "run_agent"),
    ("net", "run_collector"),
    ("net", "run_loopback"),
    ("net", "run_loopback_scheduled"),
    ("net", "run_supervised_loopback"),
    ("net", "run_supervised_collector"),
    ("fleet", "run_fleet"),
    ("fleet", "collect_digest_stream"),
    ("fleet", "MergeNode::ingest"),
    ("fleet", "MergeNode::ingest_at"),
    ("fleet", "MergeNode::finalize"),
    ("capsearch", "score_probe"),
    ("capsearch", "SimExecutor::measure"),
    ("capsearch", "LoopbackExecutor::measure"),
    ("capsearch", "FleetExecutor::measure"),
    ("chaosnet", "run_net_mesh"),
    ("chaosnet", "merge_stream"),
];

/// Byte-stable sinks, as `(crate, fn-spec)`: serializers whose output
/// the golden/equivalence suites pin byte-for-byte.
pub const SINKS: &[(&str, &str)] = &[
    ("core", "CapacityMeter::to_json"),
    ("capsearch", "CapacityReport::render"),
    ("capsearch", "config_hash"),
    ("capsearch", "Scenario::to_toml"),
    ("fleet", "MergeNode::finalize"),
    ("fleet", "FleetTopology::to_toml"),
];

/// Map `(file_idx, fn_idx)` to its graph node id.
fn node_of(g: &CallGraph, file_idx: usize, fn_idx: usize) -> Option<usize> {
    g.nodes
        .iter()
        .position(|n| n.file_idx == file_idx && n.fn_idx == fn_idx)
}

/// Resolve a `(crate, spec)` list against the graph, deduplicated and
/// sorted for deterministic traversal order.
fn resolve_all(g: &CallGraph, specs: &[(&str, &str)]) -> Vec<usize> {
    let mut ids = Vec::new();
    for (crate_name, spec) in specs {
        ids.extend(g.resolve_entry(crate_name, spec));
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `(crate, spec)` pairs in `specs` that resolve to no function in the
/// graph — used by the workspace self-check to catch silent renames.
pub fn unresolved(g: &CallGraph, specs: &[(&str, &str)]) -> Vec<(String, String)> {
    specs
        .iter()
        .filter(|(c, s)| g.resolve_entry(c, s).is_empty())
        .map(|(c, s)| (c.to_string(), s.to_string()))
        .collect()
}

fn render_chain(chain: &[String]) -> String {
    chain.join(" -> ")
}

/// Panic-reachability: every panic site in a panic-free crate that an
/// entry point can reach, with its shortest call chain.
pub fn panic_reachability(units: &[SourceUnit], g: &CallGraph) -> Vec<Finding> {
    let entries = resolve_all(g, ENTRY_POINTS);
    let mut findings = Vec::new();
    if entries.is_empty() {
        return findings;
    }
    let reach = g.bfs(&entries);
    for (file_idx, unit) in units.iter().enumerate() {
        if !PANIC_FREE_CRATES.contains(&unit.crate_name.as_str())
            || test_adjacent_path(&unit.rel_path)
        {
            continue;
        }
        for site in panic_sites(unit) {
            let Some(fn_idx) = enclosing_fn(&unit.parsed, site.tok) else {
                // Top-level position (const initializer): evaluated at
                // compile time, so a panic there cannot reach runtime.
                continue;
            };
            if unit.parsed.fns[fn_idx].is_test {
                continue;
            }
            let Some(node) = node_of(g, file_idx, fn_idx) else {
                continue;
            };
            let Some(chain) = reach.chain(g, node) else {
                continue; // Proved unreachable from every entry point.
            };
            findings.push(Finding {
                rule: "panic-reachability",
                severity: Severity::Error,
                file: unit.rel_path.clone(),
                line: site.line,
                note: format!(
                    "{} in `{}` is reachable from entry point `{}` via {} \
                     ({} call{}); runtime paths of panic-free crate `{}` \
                     must fail with typed errors (PR 4 invariant)",
                    site.what,
                    unit.parsed.fns[fn_idx].qual,
                    chain[0],
                    render_chain(&chain),
                    chain.len() - 1,
                    if chain.len() == 2 { "" } else { "s" },
                    unit.crate_name,
                ),
                chain,
            });
        }
    }
    findings
}

/// True when the enclosing function is a typed env shim (`*_env` by
/// convention: `try_from_env`, `parse_jobs_env`, ...) — the one place
/// raw environment reads are allowed.
fn is_env_shim(name: &str) -> bool {
    name.ends_with("_env")
}

/// Nondeterministic source sites in one unit, for the taint analysis.
/// Clock/entropy and hash-iteration sources are only collected in
/// crates *outside* [`DETERMINISTIC_CRATES`] — inside them the local
/// `nondet-*` rules already flag the same token, and reporting it
/// twice helps nobody. Env reads are collected everywhere (no local
/// rule covers them), minus the typed `*_env` shims.
fn taint_sources(unit: &SourceUnit) -> Vec<Site> {
    let mut sites = Vec::new();
    if !DETERMINISTIC_CRATES.contains(&unit.crate_name.as_str()) {
        sites.extend(clock_entropy_sites(unit));
        sites.extend(hash_iteration_sites(unit));
    }
    for site in env_read_sites(unit) {
        let shim = enclosing_fn(&unit.parsed, site.tok)
            .map(|fi| is_env_shim(&unit.parsed.fns[fi].name))
            .unwrap_or(false);
        if !shim {
            sites.push(site);
        }
    }
    sites.sort_by_key(|s| s.tok);
    sites
}

/// Determinism taint: a byte-stable sink must not be able to call its
/// way to a nondeterministic source. Reported at the source site with
/// the chain sink → ... → source.
pub fn determinism_taint(units: &[SourceUnit], g: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Pre-compute per-unit sources once (most units have none).
    let sources: Vec<Vec<Site>> = units
        .iter()
        .map(|u| {
            if test_adjacent_path(&u.rel_path) {
                Vec::new()
            } else {
                taint_sources(u)
            }
        })
        .collect();
    if sources.iter().all(Vec::is_empty) {
        return findings;
    }
    for (crate_name, spec) in SINKS {
        let sink_ids = g.resolve_entry(crate_name, spec);
        if sink_ids.is_empty() {
            continue;
        }
        let reach = g.bfs(&sink_ids);
        for (file_idx, unit) in units.iter().enumerate() {
            for site in &sources[file_idx] {
                let Some(fn_idx) = enclosing_fn(&unit.parsed, site.tok) else {
                    continue;
                };
                if unit.parsed.fns[fn_idx].is_test {
                    continue;
                }
                let Some(node) = node_of(g, file_idx, fn_idx) else {
                    continue;
                };
                let Some(chain) = reach.chain(g, node) else {
                    continue;
                };
                findings.push(Finding {
                    rule: "determinism-taint",
                    severity: Severity::Error,
                    file: unit.rel_path.clone(),
                    line: site.line,
                    note: format!(
                        "{} in `{}` can influence byte-stable sink \
                         `{}::{}` via {}; pinned outputs must be pure \
                         functions of their inputs (PR 1/5 invariant)",
                        site.what,
                        unit.parsed.fns[fn_idx].qual,
                        crate_name,
                        spec,
                        render_chain(&chain),
                    ),
                    chain,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(srcs: &[(&str, &str)]) -> Vec<SourceUnit> {
        srcs.iter().map(|(p, s)| SourceUnit::new(p, s)).collect()
    }

    fn panic_hits(srcs: &[(&str, &str)]) -> Vec<(String, u32, Vec<String>)> {
        let us = units(srcs);
        let g = CallGraph::build(&us);
        panic_reachability(&us, &g)
            .into_iter()
            .map(|f| (f.file, f.line, f.chain))
            .collect()
    }

    fn taint_hits(srcs: &[(&str, &str)]) -> Vec<(String, u32, Vec<String>)> {
        let us = units(srcs);
        let g = CallGraph::build(&us);
        determinism_taint(&us, &g)
            .into_iter()
            .map(|f| (f.file, f.line, f.chain))
            .collect()
    }

    #[test]
    fn reachable_panic_reports_shortest_chain() {
        let hits = panic_hits(&[
            (
                "crates/net/src/collector.rs",
                "pub fn run_collector() { step(); }\n\
                 fn step() { decode(); }\n\
                 fn decode() { let v: Vec<u32> = Vec::new(); v[0]; }",
            ),
            (
                "crates/net/src/unused.rs",
                "fn orphan() { let v: Vec<u32> = Vec::new(); v[0]; }",
            ),
        ]);
        // The orphan's indexing is proved unreachable; only the
        // entry-connected chain is reported.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "crates/net/src/collector.rs");
        assert_eq!(hits[0].1, 3);
        assert_eq!(hits[0].2, vec!["run_collector", "step", "decode"]);
    }

    #[test]
    fn panic_sites_outside_panic_free_crates_are_not_reported() {
        let hits = panic_hits(&[(
            "crates/capsearch/src/executor.rs",
            "pub fn score_probe() { helper(); }\n\
             fn helper() { Some(1).unwrap(); }",
        )]);
        // capsearch is deterministic but not panic-free; reachable
        // unwraps there are a (pre-existing) policy choice, not a
        // finding.
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn shortest_chain_wins_when_two_paths_reach_a_site() {
        let hits = panic_hits(&[(
            "crates/net/src/collector.rs",
            "pub fn run_collector() { a(); deep(); }\n\
             fn deep() { mid(); }\n\
             fn mid() { a(); }\n\
             fn a() { x.unwrap(); }",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].2, vec!["run_collector", "a"]);
    }

    #[test]
    fn taint_flags_env_read_reachable_from_sink() {
        let hits = taint_hits(&[(
            "crates/fleet/src/topology.rs",
            "pub struct FleetTopology;\n\
             impl FleetTopology {\n\
               pub fn to_toml(&self) -> String { label() }\n\
             }\n\
             fn label() -> String { std::env::var(\"HOST\").unwrap_or_default() }",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1, 5);
        assert_eq!(hits[0].2, vec!["FleetTopology::to_toml", "label"]);
    }

    #[test]
    fn env_shims_are_exempt_and_clocks_outside_sink_reach_are_clean() {
        let hits = taint_hits(&[(
            "crates/fleet/src/topology.rs",
            "pub struct FleetTopology;\n\
             impl FleetTopology {\n\
               pub fn to_toml(&self) -> String { parse_host_env() }\n\
             }\n\
             fn parse_host_env() -> String { std::env::var(\"HOST\").unwrap_or_default() }\n\
             fn unrelated() { let _ = std::env::var(\"OTHER\"); }",
        )]);
        // The shim is allowed; `unrelated` is not reachable from the
        // sink, so its raw read is out of scope for taint.
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn clock_source_in_nondeterministic_crate_taints_sink_through_crates() {
        let hits = taint_hits(&[
            (
                "crates/capsearch/src/report.rs",
                "pub struct CapacityReport;\n\
                 impl CapacityReport {\n\
                   pub fn render(&self) -> String { stamp() }\n\
                 }",
            ),
            (
                "crates/net/src/clock.rs",
                "pub fn stamp() -> String { let _t = std::time::Instant::now(); String::new() }",
            ),
        ]);
        // `Instant::now` in net is fine locally (nondet-time does not
        // apply there) but must not flow into a pinned report.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "crates/net/src/clock.rs");
        assert_eq!(hits[0].2, vec!["CapacityReport::render", "stamp"]);
    }

    #[test]
    fn unresolved_lists_missing_specs() {
        let us = units(&[("crates/net/src/a.rs", "pub fn run_agent() {}")]);
        let g = CallGraph::build(&us);
        let missing = unresolved(&g, &[("net", "run_agent"), ("net", "run_collector")]);
        assert_eq!(
            missing,
            vec![("net".to_string(), "run_collector".to_string())]
        );
    }
}
