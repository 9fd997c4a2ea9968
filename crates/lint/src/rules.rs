//! Site detectors and the local (single-file) rules — each rule makes a
//! PR's manually-audited invariant machine-checked.
//!
//! | rule | scope | guards |
//! |------|-------|--------|
//! | `nondet-time` | deterministic crates | PR 1's byte-identical determinism: no wall clocks or entropy in deterministic paths |
//! | `nondet-iteration` | deterministic crates | PR 1/3: no unordered `HashMap`/`HashSet` iteration that could reorder serialized output |
//! | `protocol-wildcard-match` | net/src/frame.rs | PR 2: wire-enum matches stay exhaustive so a new `Frame` variant forces every site to be revisited |
//! | `config-bypass` | workspace | PR 2/4: validated config structs are built through their checked constructors, not struct literals |
//!
//! The v1 line-local `panic-unwrap`/`panic-indexing` rules are gone:
//! panic sites are now detected here ([`panic_sites`]) but *reported*
//! interprocedurally by [`crate::taint`]'s panic-reachability analysis,
//! which only flags sites an actual runtime entry point can reach — and
//! proves the rest unreachable.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt
//! from the determinism and panic detectors: tests legitimately unwrap.

use crate::lexer::{Tok, TokKind};
use crate::{Finding, Severity, SourceUnit, WorkspaceIndex};

/// Crates whose outputs must be byte-identical across runs and thread
/// counts (the PR 1 determinism harness covers these, the capsearch
/// golden suite extends the same contract to capacity reports, the
/// PR 7 fleet merge must be a pure function of its input frame set, and
/// the PR 9 chaos schedule must be a pure function of
/// `(seed, connection, frame index)` or its oracles are meaningless).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "ml",
    "sim",
    "parallel",
    "capsearch",
    "fleet",
    "chaosnet",
];

/// Crates whose runtime paths must be panic-free (the PR 4 audit; the
/// PR 7 fleet digest/merge path inherits the same contract, and the
/// PR 9 chaos interposer must survive every byte stream it fabricates).
pub const PANIC_FREE_CRATES: &[&str] = &["core", "net", "fleet", "chaosnet"];

/// The wire-protocol definition file; the `protocol-*` rules apply here.
pub const PROTOCOL_FILE_SUFFIX: &str = "net/src/frame.rs";

/// Methods whose calls on a hash collection iterate it in
/// nondeterministic order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = ..`, `return [x]`, `in [1, 2]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "return", "if", "else", "match", "mut", "ref", "move", "as", "const", "static",
    "where", "for", "while", "loop", "break", "continue", "use", "pub", "fn", "type", "struct",
    "enum", "impl", "trait", "mod", "dyn", "unsafe", "box", "await", "yield",
];

/// One detected site: token index, 1-based line, and a human
/// description of the operation.
pub struct Site {
    /// Token index into the unit's stream.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// What the operation is (`\`.unwrap()\``, `\`Instant::now()\``, ...).
    pub what: String,
}

fn finding(unit: &SourceUnit, rule: &'static str, line: u32, note: String) -> Finding {
    Finding {
        rule,
        severity: Severity::Error,
        file: unit.rel_path.clone(),
        line,
        note,
        chain: Vec::new(),
    }
}

/// Short crate name for a workspace-relative path: `crates/net/src/..`
/// → `net`; the root package's `src/..` → `webcap`.
pub fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        match rest.split('/').next() {
            Some(name) => name.to_string(),
            None => "webcap".to_string(),
        }
    } else {
        "webcap".to_string()
    }
}

/// True for paths the analyzer skips wholesale: integration tests,
/// benches, and examples are test-adjacent by construction.
pub fn test_adjacent_path(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
}

/// Mark every token inside a `#[cfg(test)]` / `#[test]`-guarded block
/// as exempt. The attribute applies to the next braced item (`mod` or
/// `fn`); an attribute consumed by a non-block item (`use`, `const`)
/// clears at its `;`.
pub(crate) fn test_exempt_mask(toks: &[Tok]) -> Vec<bool> {
    let matches = crate::parser::brace_matches(toks);
    let mut exempt = vec![false; toks.len()];
    let mut pending = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            // Scan the attribute to its matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            while j < toks.len() {
                let a = &toks[j];
                if a.is_punct("[") {
                    depth += 1;
                } else if a.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if has_test {
                pending = true;
            }
            i = j + 1;
            continue;
        }
        if pending {
            if t.is_punct("{") {
                if let Some(close) = matches[i] {
                    for e in exempt.iter_mut().take(close + 1).skip(i) {
                        *e = true;
                    }
                    pending = false;
                    i = close + 1;
                    continue;
                }
                // Unbalanced file: exempt the rest.
                for e in exempt.iter_mut().skip(i) {
                    *e = true;
                }
                return exempt;
            }
            if t.is_punct(";") {
                pending = false;
            }
        }
        i += 1;
    }
    exempt
}

/// Run every applicable local rule over one file.
pub fn lint_file(unit: &SourceUnit, index: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    if test_adjacent_path(&unit.rel_path) {
        return findings;
    }
    if DETERMINISTIC_CRATES.contains(&unit.crate_name.as_str()) {
        for s in clock_entropy_sites(unit) {
            findings.push(finding(
                unit,
                "nondet-time",
                s.line,
                format!(
                    "{} in deterministic crate `{}`: results must be \
                     byte-identical across runs (PR 1 invariant)",
                    s.what, unit.crate_name
                ),
            ));
        }
        for s in hash_iteration_sites(unit) {
            findings.push(finding(
                unit,
                "nondet-iteration",
                s.line,
                format!(
                    "{} iterates a hash collection in arbitrary order in \
                     deterministic crate `{}`; use a BTreeMap/BTreeSet, sort \
                     first, or count densely (PR 1/3 invariant)",
                    s.what, unit.crate_name
                ),
            ));
        }
    }
    if unit.rel_path.ends_with(PROTOCOL_FILE_SUFFIX) {
        rule_protocol_wildcard_match(unit, &mut findings);
    }
    rule_config_bypass(unit, index, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Wall clocks and ambient entropy: `SystemTime::now`, `Instant::now`,
/// `thread_rng`, `rand::rng`, `from_entropy`, `from_os_rng`, `OsRng`.
pub fn clock_entropy_sites(unit: &SourceUnit) -> Vec<Site> {
    let toks = &unit.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        let t = &toks[i];
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("now")
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("`{}::now()`", t.text),
            });
        }
        let ambient = t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
            || t.is_ident("from_os_rng")
            || t.is_ident("OsRng")
            || (t.is_ident("rand")
                && i + 2 < toks.len()
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_ident("rng"));
        if ambient {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("ambient entropy (`{}`)", t.text),
            });
        }
    }
    out
}

/// Iteration-shaped uses of names declared with a `HashMap`/`HashSet`
/// type in this file. Names are resolved lexically.
pub fn hash_iteration_sites(unit: &SourceUnit) -> Vec<Site> {
    let toks = &unit.toks;
    let mut out = Vec::new();
    // Pass 1: names declared with a hash-collection type.
    let mut hash_names: Vec<String> = Vec::new();
    let note_name = |name: &str, hash_names: &mut Vec<String>| {
        if !hash_names.iter().any(|n| n == name) {
            hash_names.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if unit.exempt[i] || !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            // A name declared inside test code is out of scope for
            // runtime code; collecting it would only manufacture
            // false positives (e.g. a test-only HashMap reference
            // implementation shadowing a runtime Vec of the same name).
            continue;
        }
        // `name: [&[mut]] [std::collections::] HashMap<..>` — walk back
        // over the optional path and reference tokens to the `:`.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct("::")
                || p.is_ident("std")
                || p.is_ident("collections")
                || p.is_punct("&")
                || p.is_ident("mut")
                || p.kind == TokKind::Lifetime
            {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            note_name(&toks[j - 2].text, &mut hash_names);
        }
        // `name = HashMap::new()` / `= HashSet::from(..)`.
        if j >= 2 && toks[j - 1].is_punct("=") && toks[j - 2].kind == TokKind::Ident {
            note_name(&toks[j - 2].text, &mut hash_names);
        }
    }
    if hash_names.is_empty() {
        return out;
    }
    // Pass 2: iteration-shaped uses of those names.
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !hash_names.contains(&t.text) {
            continue;
        }
        // `name.iter()` and friends.
        if i + 2 < toks.len()
            && toks[i + 1].is_punct(".")
            && toks[i + 2].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("`{}.{}()`", t.text, toks[i + 2].text),
            });
        }
        // `for k in [&[mut]] name {`.
        let mut back = i;
        while back > 0 && (toks[back - 1].is_punct("&") || toks[back - 1].is_ident("mut")) {
            back -= 1;
        }
        if back > 0
            && toks[back - 1].is_ident("in")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("{")
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("`for .. in {}`", t.text),
            });
        }
    }
    out
}

/// Environment reads: `env::var(..)` / `env::var_os(..)` (with or
/// without a `std::` prefix). Shim exemption (functions whose name
/// marks them as the typed env seam) is applied by the taint analysis,
/// which knows the enclosing function.
pub fn env_read_sites(unit: &SourceUnit) -> Vec<Site> {
    let toks = &unit.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        let t = &toks[i];
        if !(t.is_ident("var") || t.is_ident("var_os")) {
            continue;
        }
        if i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("env")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("`env::{}()`", t.text),
            });
        }
    }
    out
}

/// Panic sites: `.unwrap()`/`.expect()`, panicking macros, and direct
/// indexing/slicing (`x[i]`). Reported by panic-reachability only when
/// an entry point can actually reach the enclosing function.
pub fn panic_sites(unit: &SourceUnit) -> Vec<Site> {
    let toks = &unit.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_punct(".")
            && i + 2 < toks.len()
            && (toks[i + 1].is_ident("unwrap") || toks[i + 1].is_ident("expect"))
            && toks[i + 2].is_punct("(")
        {
            out.push(Site {
                tok: i + 1,
                line: toks[i + 1].line,
                what: format!("`.{}()`", toks[i + 1].text),
            });
        }
        let panicky = t.is_ident("panic")
            || t.is_ident("unreachable")
            || t.is_ident("todo")
            || t.is_ident("unimplemented");
        if panicky && i + 1 < toks.len() && toks[i + 1].is_punct("!") {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("`{}!`", t.text),
            });
        }
        if i > 0 && t.is_punct("[") {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if indexes {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: "direct indexing".to_string(),
                });
            }
        }
    }
    out
}

/// `protocol-wildcard-match`: a `_ =>` arm in the protocol file
/// silently swallows future `Frame` variants instead of forcing every
/// match site to be revisited when the wire dialect grows.
fn rule_protocol_wildcard_match(unit: &SourceUnit, findings: &mut Vec<Finding>) {
    let toks = &unit.toks;
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        if toks[i].is_ident("_") && i + 1 < toks.len() && toks[i + 1].is_punct("=>") {
            findings.push(finding(
                unit,
                "protocol-wildcard-match",
                toks[i].line,
                "wildcard `_ =>` arm in the wire-protocol file: matches on wire \
                 enums must stay exhaustive so adding a Frame variant is a \
                 compile-time event at every site (PR 2 invariant)"
                    .to_string(),
            ));
        }
    }
}

/// `config-bypass`: struct-literal construction of a validated config
/// type outside its defining file skips `validate()` — exactly the bug
/// class `try_new` exists to prevent.
fn rule_config_bypass(unit: &SourceUnit, index: &WorkspaceIndex, findings: &mut Vec<Finding>) {
    if index.validated_configs.is_empty() {
        return;
    }
    let toks = &unit.toks;
    for i in 0..toks.len() {
        if unit.exempt[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some((_, def_file)) = index
            .validated_configs
            .iter()
            .find(|(name, _)| *name == t.text)
        else {
            continue;
        };
        if *def_file == unit.rel_path {
            continue;
        }
        if i + 1 >= toks.len() || !toks[i + 1].is_punct("{") {
            continue;
        }
        // Walk back past item-definition keywords: `struct X {`,
        // `impl X {`, `impl T for X {` are definitions, and
        // `fn f() -> X {` is a return type followed by the body brace —
        // none of them literals.
        let mut back = i;
        let mut is_definition = false;
        let mut steps = 0;
        while back > 0 && steps < 8 {
            let p = &toks[back - 1];
            if p.is_punct("->") {
                is_definition = true;
                break;
            }
            if p.is_punct("{")
                || p.is_punct("}")
                || p.is_punct(";")
                || p.is_punct("(")
                || p.is_punct(",")
                || p.is_punct("=")
            {
                break;
            }
            if p.kind == TokKind::Ident
                && matches!(
                    p.text.as_str(),
                    "struct" | "enum" | "impl" | "trait" | "mod" | "for" | "fn" | "union"
                )
            {
                is_definition = true;
                break;
            }
            back -= 1;
            steps += 1;
        }
        if !is_definition {
            findings.push(finding(
                unit,
                "config-bypass",
                t.line,
                format!(
                    "struct-literal construction of validated config `{}` \
                     bypasses its checked constructor; build it via \
                     Default/try_new and mutate fields, or call validate() \
                     (PR 2/4 invariant)",
                    t.text
                ),
            ));
        }
    }
}

/// Scan one file for validated config types: any `impl X {{ .. }}`
/// block containing `fn try_new` or `fn validate`, where `X` ends in
/// `Config`, marks `X` as validated (defined in this file).
pub fn collect_validated_configs(unit: &SourceUnit) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for f in &unit.parsed.fns {
        if f.is_test || !(f.name == "try_new" || f.name == "validate") {
            continue;
        }
        if let Some((ty, _)) = f.qual.split_once("::") {
            if ty.ends_with("Config") {
                out.push((ty.to_string(), unit.rel_path.clone()));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> SourceUnit {
        SourceUnit::new(path, src)
    }

    fn rules_on(path: &str, src: &str) -> Vec<Finding> {
        lint_file(&unit(path, src), &WorkspaceIndex::default())
    }

    #[test]
    fn crate_names_resolve_from_paths() {
        assert_eq!(crate_of("crates/net/src/frame.rs"), "net");
        assert_eq!(crate_of("src/lib.rs"), "webcap");
    }

    #[test]
    fn instant_now_flagged_in_deterministic_crate_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let hits = rules_on("crates/sim/src/engine.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "nondet-time");
        assert_eq!(hits[0].line, 1);
        // `net` is not a deterministic crate (wall clocks are part of
        // its job: timeouts, heartbeats).
        assert!(rules_on("crates/net/src/agent.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); let t = Instant::now(); }\n}";
        assert!(rules_on("crates/core/src/meter.rs", src).is_empty());
        assert!(panic_sites(&unit("crates/core/src/meter.rs", src)).is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged_by_declared_name() {
        let src = "struct S { counts: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> String { s.counts.iter().map(|_| String::new()).collect() }";
        let hits = rules_on("crates/ml/src/info.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "nondet-iteration");
        assert_eq!(hits[0].line, 2);
        // Keyed access is fine.
        let keyed = "fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(rules_on("crates/ml/src/info.rs", keyed).is_empty());
    }

    #[test]
    fn panic_sites_detect_each_construct() {
        let src = "fn f(v: Vec<u32>) -> u32 {\n let x = v.first().unwrap();\n v[0] + x;\n panic!(\"no\")\n}";
        let sites = panic_sites(&unit("crates/net/src/agent.rs", src));
        let at: Vec<(u32, &str)> = sites.iter().map(|s| (s.line, s.what.as_str())).collect();
        assert_eq!(
            at,
            vec![(2, "`.unwrap()`"), (3, "direct indexing"), (4, "`panic!`")]
        );
        // unwrap_or is not unwrap; slice patterns and array literals
        // are not indexing.
        let ok = "fn f(v: [u32; 2]) -> u32 { let [a, _b] = v; v.first().copied().unwrap_or(a) }";
        assert!(panic_sites(&unit("crates/net/src/agent.rs", ok)).is_empty());
    }

    #[test]
    fn env_reads_are_detected() {
        let src = "fn try_from_env() { let _ = std::env::var(\"X\"); }\n\
                   fn other() { let _ = env::var_os(\"Y\"); }";
        let sites = env_read_sites(&unit("crates/net/src/frame.rs", src));
        let at: Vec<u32> = sites.iter().map(|s| s.line).collect();
        assert_eq!(at, vec![1, 2]);
    }

    #[test]
    fn wildcard_arm_flagged_only_in_protocol_file() {
        let src = "fn f(x: u32) -> u32 { match x { 1 => 0, _ => 1 } }";
        let hits = rules_on("crates/net/src/frame.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "protocol-wildcard-match");
        assert!(rules_on("crates/net/src/collector.rs", src).is_empty());
    }

    #[test]
    fn config_bypass_flagged_outside_defining_file() {
        let index = WorkspaceIndex {
            validated_configs: vec![(
                "AdmissionConfig".to_string(),
                "crates/core/src/admission.rs".to_string(),
            )],
        };
        let src = "fn f() { let c = AdmissionConfig { min_ebs: 0 }; }";
        let hits = lint_file(&unit("crates/cli/src/commands.rs", src), &index);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "config-bypass");
        // The defining file may construct literals (Default impl).
        assert!(lint_file(&unit("crates/core/src/admission.rs", src), &index).is_empty());
        // try_new is not a literal.
        let ok = "fn f() { let c = AdmissionController::try_new(AdmissionConfig::default(), 1); }";
        assert!(lint_file(&unit("crates/cli/src/commands.rs", ok), &index).is_empty());
        // A return type followed by the body brace is not a literal.
        let ret = "fn f() -> AdmissionConfig { AdmissionConfig::default() }";
        assert!(lint_file(&unit("crates/cli/src/commands.rs", ret), &index).is_empty());
    }

    #[test]
    fn validated_config_collection_sees_validate_impls() {
        let src = "pub struct FooConfig { pub x: u32 }\n\
                   impl FooConfig { pub fn validate(&self) -> Result<(), ()> { Ok(()) } }\n\
                   pub struct Bar;\n\
                   impl Bar { pub fn try_new() -> Result<Bar, ()> { Ok(Bar) } }";
        let got = collect_validated_configs(&unit("crates/core/src/x.rs", src));
        // Bar has try_new but is not a *Config type.
        assert_eq!(
            got,
            vec![("FooConfig".to_string(), "crates/core/src/x.rs".to_string())]
        );
    }

    #[test]
    fn integration_test_files_are_fully_exempt() {
        let src = "fn f() { x.unwrap(); let t = Instant::now(); }";
        assert!(rules_on("crates/core/tests/determinism.rs", src).is_empty());
    }
}
