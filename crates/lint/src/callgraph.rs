//! Workspace symbol index and conservative call graph.
//!
//! Built from the [`crate::parser`] item trees of every workspace file,
//! this is the substrate the interprocedural analyses
//! (panic-reachability, determinism taint) walk. Resolution is
//! deliberately *conservative in the sound direction*: when a call
//! site's callee cannot be pinned to one function, edges are added to
//! **every** plausible target, so reachability over-approximates — a
//! function the graph calls unreachable really is unreachable through
//! any call chain the source spells out.
//!
//! What resolves exactly:
//! - `Type::method(..)` and `Self::method(..)` paths (uppercase
//!   qualifier → associated function);
//! - `module::path::func(..)` (lowercase qualifier → free function by
//!   final segment);
//! - `self.method(..)` inside an impl (the impl target's method);
//! - `x.method(..)` where `x` is a parameter or `let x = Type::..` /
//!   `let x: Type` binding whose type names a workspace type.
//!
//! What over-approximates: a method call whose receiver type is unknown
//! links to *every* workspace method of that name; function paths
//! passed as values (`map(Self::f)`) link as calls. Calls into the
//! standard library produce no edges — std panics surface at our call
//! sites as panic ops, not as graph nodes.
//!
//! Known blind spot (shared with every syntactic call graph): a bare
//! identifier passed as a callback (`run(handler)`) is indistinguishable
//! from a variable and produces no edge. The workspace idiom is
//! `Type::method` paths for callbacks, which do resolve.

use std::collections::HashMap;

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;

/// One source file, parsed — the unit the graph builder consumes.
pub struct SourceUnit {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Short crate name (`core`, `net`, ... `webcap` for the root).
    pub crate_name: String,
    /// The full token stream.
    pub toks: Vec<Tok>,
    /// Per-token `#[cfg(test)]` mask (token-granular, used by the local
    /// rules; the graph uses the parser's per-fn flag).
    pub exempt: Vec<bool>,
    /// The item tree.
    pub parsed: ParsedFile,
}

impl SourceUnit {
    /// Lex, mask, and parse one file.
    pub fn new(rel_path: &str, source: &str) -> SourceUnit {
        let toks = crate::lexer::lex(source);
        let exempt = crate::rules::test_exempt_mask(&toks);
        let parsed = crate::parser::parse(&toks);
        SourceUnit {
            rel_path: rel_path.to_string(),
            crate_name: crate::rules::crate_of(rel_path),
            toks,
            exempt,
            parsed,
        }
    }
}

/// One function node in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Qualified name (`MergeNode::ingest` or `run_collector`).
    pub qual: String,
    /// Bare name.
    pub name: String,
    /// Short crate name.
    pub crate_name: String,
    /// Index into the unit slice the graph was built from.
    pub file_idx: usize,
    /// Index into that unit's `parsed.fns`.
    pub fn_idx: usize,
    /// Test-only function (excluded from traversals).
    pub is_test: bool,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All function nodes, in (file, fn) order — deterministic.
    pub nodes: Vec<FnNode>,
    /// `edges[n]` = sorted, deduplicated callee node ids of `n`.
    pub edges: Vec<Vec<usize>>,
    /// qual → node ids (lookup only; never iterated).
    by_qual: HashMap<String, Vec<usize>>,
    /// method name → node ids of associated fns (lookup only).
    methods_by_name: HashMap<String, Vec<usize>>,
    /// free-fn name → node ids (lookup only).
    free_by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over every function in `units` (test fns get
    /// nodes, for stable ids, but no edges and no traversal).
    pub fn build(units: &[SourceUnit]) -> CallGraph {
        let mut nodes = Vec::new();
        for (file_idx, u) in units.iter().enumerate() {
            for (fn_idx, f) in u.parsed.fns.iter().enumerate() {
                nodes.push(FnNode {
                    qual: f.qual.clone(),
                    name: f.name.clone(),
                    crate_name: u.crate_name.clone(),
                    file_idx,
                    fn_idx,
                    is_test: f.is_test,
                });
            }
        }
        let mut by_qual: HashMap<String, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            by_qual.entry(n.qual.clone()).or_default().push(id);
            if n.qual.contains("::") {
                methods_by_name.entry(n.name.clone()).or_default().push(id);
            } else {
                free_by_name.entry(n.name.clone()).or_default().push(id);
            }
        }
        let mut g = CallGraph {
            edges: vec![Vec::new(); nodes.len()],
            nodes,
            by_qual,
            methods_by_name,
            free_by_name,
        };
        for id in 0..g.nodes.len() {
            if g.nodes[id].is_test {
                continue;
            }
            g.edges[id] = g.callees_of(units, id);
        }
        g
    }

    /// Node ids whose qualified name is exactly `qual` (non-test only).
    pub fn resolve_qual(&self, qual: &str) -> &[usize] {
        self.by_qual.get(qual).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Node ids matching `spec` within `crate_name`: `spec` is either a
    /// qualified `Type::name` or a bare free-fn name.
    pub fn resolve_entry(&self, crate_name: &str, spec: &str) -> Vec<usize> {
        self.resolve_qual(spec)
            .iter()
            .copied()
            .filter(|&id| self.nodes[id].crate_name == crate_name)
            .collect()
    }

    /// Extract and resolve every call site in node `id`'s body.
    fn callees_of(&self, units: &[SourceUnit], id: usize) -> Vec<usize> {
        let node = &self.nodes[id];
        let unit = &units[node.file_idx];
        let f = &unit.parsed.fns[node.fn_idx];
        let Some((open, close)) = f.body else {
            return Vec::new();
        };
        let toks = &unit.toks;
        // The impl target for Self:: / self. resolution.
        let self_ty: Option<&str> = f.qual.split_once("::").map(|(ty, _)| ty);
        // Light local type environment: parameter types plus
        // `let x = Type::..` / `let x: Type` bindings.
        let mut env: HashMap<&str, Vec<String>> = HashMap::new();
        for p in &f.params {
            let tys = type_idents(&p.ty);
            if !tys.is_empty() {
                env.insert(p.name.as_str(), tys);
            }
        }
        for i in open..close {
            if toks[i].is_ident("let") {
                bind_local(toks, i, close, &mut env);
            }
        }

        let mut out: Vec<usize> = Vec::new();
        let mut i = open;
        while i <= close {
            let t = &toks[i];
            if t.kind != TokKind::Ident || is_keyword(&t.text) {
                i += 1;
                continue;
            }
            let prev = if i > 0 { toks.get(i - 1) } else { None };
            let next = toks.get(i + 1);
            let after_dot = prev.is_some_and(|p| p.is_punct("."));
            let after_path = prev.is_some_and(|p| p.is_punct("::"));
            let called = next.is_some_and(|n| n.is_punct("("));

            if after_dot && called {
                // `recv.name(..)` — method call.
                let recv = if i >= 2 { toks.get(i - 2) } else { None };
                self.resolve_method(&t.text, recv, self_ty, &env, &mut out);
                i += 1;
                continue;
            }
            if !after_dot && !after_path && next.is_some_and(|n| n.is_punct("::")) {
                // Head of a path `a::b::..`: resolve at its last
                // segment, whether called or passed as a fn value —
                // unless it's a macro path.
                let (last, qualifier, end) = path_tail(toks, i, close);
                let is_macro = toks.get(end).is_some_and(|n| n.is_punct("!"));
                if !is_macro {
                    self.resolve_path(&last, qualifier.as_deref(), self_ty, &mut out);
                }
                i = end;
                continue;
            }
            if !after_dot && !after_path && called {
                // Plain `name(..)` — free fn (same crate first, then
                // anywhere: cross-crate imports make the name ambient).
                let candidates = self
                    .free_by_name
                    .get(&t.text)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let local: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| self.nodes[c].crate_name == node.crate_name)
                    .collect();
                if !local.is_empty() {
                    out.extend(local);
                } else {
                    out.extend(candidates.iter().copied());
                }
            }
            i += 1;
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&c| c != id);
        out
    }

    /// Resolve a `recv.name(..)` method call.
    fn resolve_method(
        &self,
        name: &str,
        recv: Option<&Tok>,
        self_ty: Option<&str>,
        env: &HashMap<&str, Vec<String>>,
        out: &mut Vec<usize>,
    ) {
        let mut tys: Vec<&str> = Vec::new();
        if let Some(r) = recv {
            if r.is_ident("self") {
                if let Some(ty) = self_ty {
                    tys.push(ty);
                }
            } else if r.kind == TokKind::Ident {
                if let Some(bound) = env.get(r.text.as_str()) {
                    tys.extend(bound.iter().map(String::as_str));
                }
            }
        }
        let mut hit = false;
        for ty in &tys {
            let ids = self.resolve_qual(&format!("{ty}::{name}"));
            if !ids.is_empty() {
                out.extend(ids.iter().copied());
                hit = true;
            }
        }
        if hit {
            return;
        }
        // Unknown receiver: every workspace method of this name.
        if let Some(all) = self.methods_by_name.get(name) {
            out.extend(all.iter().copied());
        }
    }

    /// Resolve a path whose final segment is `last`, preceded by
    /// `qualifier` (the segment before it, if any).
    fn resolve_path(
        &self,
        last: &str,
        qualifier: Option<&str>,
        self_ty: Option<&str>,
        out: &mut Vec<usize>,
    ) {
        match qualifier {
            Some("Self") => {
                if let Some(ty) = self_ty {
                    out.extend(self.resolve_qual(&format!("{ty}::{last}")).iter().copied());
                }
            }
            Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                // `Type::last` — associated fn; an enum path
                // (`TierId::App`) names a variant, not a fn, and simply
                // resolves to nothing.
                out.extend(self.resolve_qual(&format!("{q}::{last}")).iter().copied());
            }
            _ => {
                // `module::last` — free fn by final segment.
                if let Some(all) = self.free_by_name.get(last) {
                    out.extend(all.iter().copied());
                }
            }
        }
    }

    /// Breadth-first shortest distances and predecessors from `entries`.
    /// Deterministic: frontiers are visited in sorted order and edge
    /// lists are pre-sorted, so ties break toward the smallest node id.
    pub fn bfs(&self, entries: &[usize]) -> Reach {
        let mut dist: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut frontier: Vec<usize> = entries.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        for &e in &frontier {
            dist[e] = Some(0);
        }
        let mut d = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &n in &frontier {
                for &c in &self.edges[n] {
                    if dist[c].is_none() && !self.nodes[c].is_test {
                        dist[c] = Some(d + 1);
                        pred[c] = Some(n);
                        next.push(c);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
            d += 1;
        }
        Reach { dist, pred }
    }
}

/// BFS result: per-node shortest distance and predecessor.
pub struct Reach {
    /// `dist[n]` = shortest hop count from any entry, `None` if
    /// unreachable.
    pub dist: Vec<Option<u32>>,
    /// Predecessor on one shortest path (smallest-id tiebreak).
    pub pred: Vec<Option<usize>>,
}

impl Reach {
    /// The shortest call chain entry → .. → `target` as qualified
    /// names, or `None` when unreachable.
    pub fn chain(&self, g: &CallGraph, target: usize) -> Option<Vec<String>> {
        self.dist[target]?;
        let mut chain = vec![g.nodes[target].qual.clone()];
        let mut cur = target;
        while let Some(p) = self.pred[cur] {
            chain.push(g.nodes[p].qual.clone());
            cur = p;
        }
        chain.reverse();
        Some(chain)
    }
}

/// Find the fn of `parsed` (by index) whose body contains token
/// `tok_idx`; innermost wins.
pub fn enclosing_fn(parsed: &ParsedFile, tok_idx: usize) -> Option<usize> {
    parsed
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.body
                .is_some_and(|(open, close)| open <= tok_idx && tok_idx <= close)
        })
        .max_by_key(|(_, f)| f.body.map(|(open, _)| open))
        .map(|(i, _)| i)
}

/// Uppercase-initial type idents mentioned in a normalized type string,
/// excluding wrapper/container types whose methods are std's, not ours.
fn type_idents(ty: &str) -> Vec<String> {
    const WRAPPERS: &[&str] = &[
        "Option",
        "Result",
        "Vec",
        "VecDeque",
        "Box",
        "Rc",
        "Arc",
        "RefCell",
        "Cell",
        "Mutex",
        "RwLock",
        "String",
        "PathBuf",
        "Path",
        "HashMap",
        "HashSet",
        "BTreeMap",
        "BTreeSet",
        "Cow",
        "Instant",
        "Duration",
        "SystemTime",
        "TcpStream",
        "TcpListener",
        "Self",
    ];
    ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .filter(|s| !WRAPPERS.contains(s))
        .map(str::to_string)
        .collect()
}

/// Record `let name [: Ty] [= Ty::..]` type bindings into `env`.
fn bind_local<'t>(
    toks: &'t [Tok],
    let_idx: usize,
    close: usize,
    env: &mut HashMap<&'t str, Vec<String>>,
) {
    // `let [mut] name` — only simple ident patterns.
    let mut j = let_idx + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return;
    };
    let name = name_tok.text.as_str();
    // `: Type` annotation.
    if toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
        if let Some(ty_tok) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
            let tys = type_idents(&ty_tok.text);
            if !tys.is_empty() {
                env.insert(name, tys);
                return;
            }
        }
    }
    // `= Type::..` initializer (walk past `&`/`mut`).
    let mut k = j + 1;
    while k <= close && !toks[k].is_punct("=") && !toks[k].is_punct(";") {
        k += 1;
    }
    if k > close || !toks[k].is_punct("=") {
        return;
    }
    let mut v = k + 1;
    while v <= close && (toks[v].is_punct("&") || toks[v].is_ident("mut")) {
        v += 1;
    }
    if let Some(head) = toks.get(v).filter(|t| t.kind == TokKind::Ident) {
        if toks.get(v + 1).is_some_and(|t| t.is_punct("::")) {
            let tys = type_idents(&head.text);
            if !tys.is_empty() {
                env.insert(name, tys);
            }
        }
    }
}

/// Walk a `a::b::c` path starting at its head ident; return the final
/// segment, the segment before it, and the token index just past the
/// path.
fn path_tail(toks: &[Tok], head: usize, close: usize) -> (String, Option<String>, usize) {
    let mut last = toks[head].text.clone();
    let mut qualifier: Option<String> = None;
    let mut i = head + 1;
    while i < close
        && toks.get(i).is_some_and(|t| t.is_punct("::"))
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
    {
        qualifier = Some(std::mem::take(&mut last));
        last = toks[i + 1].text.clone();
        i += 2;
    }
    (last, qualifier, i)
}

/// Rust keywords that head expressions, not calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "return"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "use"
            | "pub"
            | "const"
            | "static"
            | "where"
            | "unsafe"
            | "dyn"
            | "box"
            | "await"
            | "async"
            | "true"
            | "false"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules;

    fn units(srcs: &[(&str, &str)]) -> Vec<SourceUnit> {
        srcs.iter()
            .map(|(path, src)| {
                let toks = lex(src);
                let parsed = parse(&toks);
                SourceUnit {
                    rel_path: path.to_string(),
                    crate_name: rules::crate_of(path),
                    exempt: vec![false; toks.len()],
                    toks,
                    parsed,
                }
            })
            .collect()
    }

    fn node_id(g: &CallGraph, qual: &str) -> usize {
        g.resolve_qual(qual)[0]
    }

    fn callee_quals(g: &CallGraph, qual: &str) -> Vec<String> {
        g.edges[node_id(g, qual)]
            .iter()
            .map(|&c| g.nodes[c].qual.clone())
            .collect()
    }

    #[test]
    fn plain_and_qualified_calls_link() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "fn top() { helper(); Window::push(1); other::mod_fn(); }\n\
             fn helper() {}\n\
             struct Window;\n\
             impl Window { fn push(_x: u32) {} }\n\
             fn mod_fn() {}",
        )]);
        let g = CallGraph::build(&u);
        let callees = callee_quals(&g, "top");
        assert!(callees.contains(&"helper".to_string()));
        assert!(callees.contains(&"Window::push".to_string()));
        assert!(callees.contains(&"mod_fn".to_string()));
        assert_eq!(callees.len(), 3, "{callees:?}");
    }

    #[test]
    fn method_calls_resolve_via_param_and_let_types() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "struct Meter; impl Meter { fn read(&self) {} }\n\
             struct Gauge; impl Gauge { fn read(&self) {} }\n\
             fn typed(m: &Meter) { m.read(); }\n\
             fn bound() { let g = Gauge::new(); g.read(); }\n\
             impl Gauge { fn new() -> Gauge { Gauge } }",
        )]);
        let g = CallGraph::build(&u);
        // Param-typed receiver: only Meter::read.
        assert_eq!(callee_quals(&g, "typed"), vec!["Meter::read".to_string()]);
        // Let-bound receiver: only Gauge::read (plus Gauge::new).
        let bound = callee_quals(&g, "bound");
        assert!(bound.contains(&"Gauge::read".to_string()));
        assert!(bound.contains(&"Gauge::new".to_string()));
        assert!(!bound.contains(&"Meter::read".to_string()), "{bound:?}");
    }

    #[test]
    fn unknown_receiver_over_approximates_to_all_methods() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "struct A; impl A { fn go(&self) {} }\n\
             struct B; impl B { fn go(&self) {} }\n\
             fn call() { make().go(); }\n\
             fn make() -> A { A }",
        )]);
        let g = CallGraph::build(&u);
        let callees = callee_quals(&g, "call");
        // `make().go()` has an untyped receiver: both A::go and B::go.
        assert!(callees.contains(&"A::go".to_string()));
        assert!(callees.contains(&"B::go".to_string()));
        assert!(callees.contains(&"make".to_string()));
    }

    #[test]
    fn self_calls_resolve_to_the_impl_target() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "struct S; impl S {\n\
               fn outer(&self) { self.inner(); Self::assoc(); }\n\
               fn inner(&self) {}\n\
               fn assoc() {}\n\
             }",
        )]);
        let g = CallGraph::build(&u);
        let callees = callee_quals(&g, "S::outer");
        assert!(callees.contains(&"S::inner".to_string()));
        assert!(callees.contains(&"S::assoc".to_string()));
        assert_eq!(callees.len(), 2, "{callees:?}");
    }

    #[test]
    fn fn_path_references_count_as_calls() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "struct S; impl S { fn hook(_x: u32) {} }\n\
             fn top(xs: Vec<u32>) { xs.into_iter().for_each(S::hook); }",
        )]);
        let g = CallGraph::build(&u);
        assert!(callee_quals(&g, "top").contains(&"S::hook".to_string()));
    }

    #[test]
    fn test_fns_are_excluded_from_graph_and_bfs() {
        let u = units(&[(
            "crates/core/src/a.rs",
            "fn runtime() { shared(); }\n\
             fn shared() {}\n\
             #[cfg(test)]\nmod tests { fn test_only() { super::shared(); } }",
        )]);
        let g = CallGraph::build(&u);
        assert!(g.resolve_qual("test_only").is_empty());
        let reach = g.bfs(&g.resolve_entry("core", "runtime"));
        let shared = node_id(&g, "shared");
        assert_eq!(reach.dist[shared], Some(1));
    }

    #[test]
    fn bfs_reports_shortest_chains_deterministically() {
        let u = units(&[(
            "crates/net/src/a.rs",
            "fn entry() { mid_a(); mid_b(); }\n\
             fn mid_a() { deep(); }\n\
             fn mid_b() { deep(); }\n\
             fn deep() { leaf(); }\n\
             fn leaf() {}\n\
             fn orphan() { leaf(); }",
        )]);
        let g = CallGraph::build(&u);
        let reach = g.bfs(&g.resolve_entry("net", "entry"));
        let leaf = node_id(&g, "leaf");
        let chain = reach.chain(&g, leaf).unwrap();
        assert_eq!(chain.first().map(String::as_str), Some("entry"));
        assert_eq!(chain.last().map(String::as_str), Some("leaf"));
        assert_eq!(chain.len(), 4, "{chain:?}");
        // The shortest path goes through mid_a (smallest node id wins
        // the tie), and a second run is identical.
        assert_eq!(chain[1], "mid_a");
        let again = g.bfs(&g.resolve_entry("net", "entry"));
        assert_eq!(again.chain(&g, leaf).unwrap(), chain);
        // orphan is not reachable from entry.
        let orphan = node_id(&g, "orphan");
        assert_eq!(reach.dist[orphan], None);
        assert!(reach.chain(&g, orphan).is_none());
    }

    #[test]
    fn cross_file_and_cross_crate_free_calls_link() {
        let u = units(&[
            (
                "crates/net/src/collector.rs",
                "fn run_collector() { snapshot_stats(); }",
            ),
            ("crates/core/src/monitor.rs", "pub fn snapshot_stats() {}"),
        ]);
        let g = CallGraph::build(&u);
        let reach = g.bfs(&g.resolve_entry("net", "run_collector"));
        let target = node_id(&g, "snapshot_stats");
        assert_eq!(reach.dist[target], Some(1));
    }

    #[test]
    fn enclosing_fn_attributes_tokens_to_their_item_level_fn() {
        // Nested fns are not item-level: their tokens (and call sites)
        // attribute to the enclosing item fn, which over-approximates
        // reachability in the sound direction.
        let toks = lex("fn outer() { fn inner() { mark(); } inner(); }\nfn other() {}");
        let parsed = parse(&toks);
        let mark = toks.iter().position(|t| t.is_ident("mark")).unwrap();
        let idx = enclosing_fn(&parsed, mark).unwrap();
        assert_eq!(parsed.fns[idx].name, "outer");
        assert!(enclosing_fn(&parsed, toks.len() - 1).is_some());
    }
}
