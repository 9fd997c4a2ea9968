//! A hand-rolled recursive-descent parser over the [`crate::lexer`]
//! token stream — the item-level structure the interprocedural
//! analyses need, and nothing more.
//!
//! The grammar covered is the *item* grammar: functions (name, params
//! with their type text, body token range), `impl` blocks (target type,
//! methods qualified as `Type::method`), inline modules, and attributes
//! (`#[cfg(test)]` / `#[test]` scoping). Struct, enum, `const` and
//! `static` items are recognized only to be skipped. Expression grammar
//! is deliberately *not* parsed: the analyses that walk function bodies
//! (call extraction,
//! panic sites, nondet sources) work on the body's token range
//! directly, which is robust against every expression form rustc will
//! ever add.
//!
//! Like the lexer, the parser never fails: source that already compiles
//! parses cleanly, and hostile fixture input degrades to fewer items,
//! not errors.

use crate::lexer::{Tok, TokKind};

/// One function parameter: the pattern's binding name (best effort) and
/// its type rendered as normalized token text (e.g. `& AppStats`,
/// `Option < & WireSample >`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name; `self` for receivers, `_` when the pattern has no
    /// single name.
    pub name: String,
    /// Normalized type text (tokens joined by single spaces); empty for
    /// bare receivers (`self`, `&mut self`).
    pub ty: String,
}

/// A parsed function (free or associated).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`ingest`).
    pub name: String,
    /// Qualified name: `Type::name` for associated fns (impl or trait
    /// body), bare `name` for free fns.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Token index range `[open_brace, close_brace]` of the body in the
    /// file's token stream; `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
    /// True when the fn is test-only: `#[test]`, `#[cfg(test)]`, or
    /// inside a `#[cfg(test)]` module.
    pub is_test: bool,
}

/// Everything the parser extracts from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Functions (free and associated), in source order.
    pub fns: Vec<FnDef>,
}

impl ParsedFile {
    /// The function whose body token range contains `tok_idx`, if any.
    /// Nested scopes resolve to the innermost (last-starting) match.
    pub fn fn_at(&self, tok_idx: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| {
                f.body
                    .is_some_and(|(open, close)| open <= tok_idx && tok_idx <= close)
            })
            .max_by_key(|f| f.body.map(|(open, _)| open))
    }
}

/// For each `{` token index, the index of its matching `}` (best effort
/// on unbalanced input).
pub fn brace_matches(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
            }
        }
    }
    out
}

/// Parser state threaded through the recursive descent.
struct Parser<'a> {
    toks: &'a [Tok],
    matches: Vec<Option<usize>>,
    out: ParsedFile,
}

/// Parse one file's token stream into its item tree.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let matches = brace_matches(toks);
    let mut p = Parser {
        toks,
        matches,
        out: ParsedFile::default(),
    };
    let end = toks.len();
    p.items(0, end, false, None);
    p.out
}

impl Parser<'_> {
    /// Parse items in `[from, to)`. `in_test` marks a `#[cfg(test)]`
    /// scope; `impl_target` qualifies fns inside an impl/trait body.
    fn items(&mut self, from: usize, to: usize, in_test: bool, impl_target: Option<&str>) {
        let mut i = from;
        // A `#[test]` / `#[cfg(test)]` attribute seen since the last
        // item: it clings to the next item keyword.
        let mut has_test = false;
        while i < to {
            let t = &self.toks[i];
            if t.is_punct("#") {
                // `#![...]` inner attributes apply to the enclosing
                // scope; treat like outer ones for test detection.
                let mut j = i + 1;
                if j < to && self.toks[j].is_punct("!") {
                    j += 1;
                }
                if j < to && self.toks[j].is_punct("[") {
                    let (test, after) = self.scan_attr(j, to);
                    has_test |= test;
                    i = after;
                    continue;
                }
                i += 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                // Stray punctuation at item level: `;` ends an item (the
                // one after a unit struct, say); an unexpected brace is
                // skipped as a block.
                if t.is_punct(";") {
                    has_test = false;
                } else if t.is_punct("{") {
                    i = self.close_of(i, to);
                    continue;
                }
                i += 1;
                continue;
            }
            let test = in_test || has_test;
            match t.text.as_str() {
                "pub" => {
                    // Visibility, possibly `pub(crate)` / `pub(in ...)`.
                    i += 1;
                    if i < to && self.toks[i].is_punct("(") {
                        i = self.skip_parens(i, to);
                    }
                }
                "fn" => {
                    i = self.parse_fn(i, to, test, impl_target);
                    has_test = false;
                }
                "impl" | "trait" => {
                    i = self.parse_impl(i, to, test);
                    has_test = false;
                }
                "mod" => {
                    // `mod name { items }` or `mod name;`.
                    let mut j = i + 1;
                    while j < to && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
                        j += 1;
                    }
                    if j < to && self.toks[j].is_punct("{") {
                        let close = self.close_of_idx(j, to);
                        self.items(j + 1, close, test, None);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    has_test = false;
                }
                "const" if self.toks.get(i + 1).is_some_and(|n| n.is_ident("fn")) => {
                    // `const fn` is a function, not a const item.
                    i += 1;
                }
                "unsafe" | "async" | "extern" | "default" => {
                    // Qualifiers before fn/impl/trait; `extern "C"` may
                    // carry a string literal.
                    i += 1;
                    if i < to && self.toks[i].kind == TokKind::Str {
                        i += 1;
                    }
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }`.
                    let mut j = i + 1;
                    while j < to && !self.toks[j].is_punct("{") {
                        j += 1;
                    }
                    i = if j < to { self.close_of(j, to) } else { to };
                    has_test = false;
                }
                _ => {
                    // Items no analysis reads (`struct`, `enum`, `const`,
                    // `static`, `use`, `type`), a macro invocation at
                    // item level (`ident! { .. }` / `ident!(..);`), or
                    // something we don't model: skip to the next `;` or
                    // past a balanced block, whichever comes first.
                    i = self.skip_to_semi(i, to);
                    has_test = false;
                }
            }
        }
    }

    /// Scan an attribute starting at its `[` token; return whether it
    /// mentions `test` (`#[test]`, `#[cfg(test)]` — any attribute
    /// containing the ident, an over-approximation) and the index just
    /// past the closing `]`.
    fn scan_attr(&self, open: usize, to: usize) -> (bool, usize) {
        let mut depth = 0usize;
        let mut j = open;
        let mut has_test = false;
        while j < to {
            let a = &self.toks[j];
            if a.is_punct("[") || a.is_punct("(") {
                depth += 1;
            } else if a.is_punct("]") || a.is_punct(")") {
                depth = depth.saturating_sub(1);
                if depth == 0 && a.is_punct("]") {
                    return (has_test, j + 1);
                }
            } else if a.is_ident("test") {
                has_test = true;
            }
            j += 1;
        }
        (has_test, to)
    }

    /// Index just past the block opened by the `{` at or after `at`.
    fn close_of(&self, open: usize, to: usize) -> usize {
        self.close_of_idx(open, to) + 1
    }

    /// Index of the `}` matching the `{` at `open` (or `to - 1`).
    fn close_of_idx(&self, open: usize, to: usize) -> usize {
        match self.matches.get(open).copied().flatten() {
            Some(close) if close < to => close,
            _ => to.saturating_sub(1),
        }
    }

    /// Skip past a balanced `( .. )` group starting at `open`.
    fn skip_parens(&self, open: usize, to: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < to {
            if self.toks[j].is_punct("(") {
                depth += 1;
            } else if self.toks[j].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        to
    }

    /// Skip to just past the next item-terminating `;` at group depth 0,
    /// or past a balanced `{ .. }` block if one opens first (macro
    /// invocations with brace bodies need no `;`).
    fn skip_to_semi(&self, from: usize, to: usize) -> usize {
        let mut j = from;
        let mut depth = 0i32;
        while j < to {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                return self.close_of(j, to);
            } else if t.is_punct(";") && depth == 0 {
                return j + 1;
            }
            j += 1;
        }
        to
    }

    /// Parse `fn name <generics>? ( params ) -> ret? where..? { body }`
    /// starting at the `fn` token; returns the index just past the item.
    fn parse_fn(
        &mut self,
        at: usize,
        to: usize,
        is_test: bool,
        impl_target: Option<&str>,
    ) -> usize {
        let line = self.toks[at].line;
        let mut j = at + 1;
        let Some(name_tok) = self.toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            return j;
        };
        let name = name_tok.text.clone();
        j += 1;
        // Generics: skip a balanced `< .. >` run.
        if j < to && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, to);
        }
        // Params.
        let mut params = Vec::new();
        if j < to && self.toks[j].is_punct("(") {
            let close = self.skip_parens(j, to);
            params = self.parse_params(j + 1, close.saturating_sub(1));
            j = close;
        }
        // Return type / where clause: scan to the body `{` or `;` at
        // group depth 0 (angle depth tracked so `Result<T, {..}>` never
        // arises; const generics in return types are rare enough).
        let mut depth = 0i32;
        let mut body = None;
        while j < to {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                let close = self.close_of_idx(j, to);
                body = Some((j, close));
                j = close + 1;
                break;
            } else if t.is_punct(";") && depth == 0 {
                j += 1;
                break;
            }
            j += 1;
        }
        let qual = match impl_target {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        self.out.fns.push(FnDef {
            name,
            qual,
            line,
            params,
            body,
            is_test,
        });
        j
    }

    /// Skip a balanced angle-bracket run starting at `<`. `<<`/`>>`
    /// arrive merged from the lexer and count double.
    fn skip_angles(&self, from: usize, to: usize) -> usize {
        let mut depth = 0i32;
        let mut j = from;
        while j < to {
            match self.toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                "->" | "=>" => {}
                _ => {}
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        to
    }

    /// Parse a parameter list's tokens (exclusive of the parens) into
    /// [`Param`]s: split on top-level commas; each item is
    /// `pattern : type` (receivers have no `:`).
    fn parse_params(&self, from: usize, to: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut start = from;
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut j = from;
        let flush = |lo: usize, hi: usize, params: &mut Vec<Param>, toks: &[Tok]| {
            if lo >= hi {
                return;
            }
            // Find the top-level `:` (not `::`).
            let mut d = 0i32;
            let mut a = 0i32;
            let mut colon = None;
            for (k, t) in toks.iter().enumerate().take(hi).skip(lo) {
                if t.is_punct("(") || t.is_punct("[") {
                    d += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    d -= 1;
                } else if t.is_punct("<") {
                    a += 1;
                } else if t.is_punct(">") {
                    a -= 1;
                } else if t.is_punct(":") && d == 0 && a <= 0 {
                    colon = Some(k);
                    break;
                }
            }
            match colon {
                Some(c) => {
                    // Pattern name: last ident before the colon (covers
                    // `mut x`, plain `x`; tuple patterns get `_`).
                    let name = toks[lo..c]
                        .iter()
                        .rev()
                        .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                        .map(|t| t.text.clone())
                        .unwrap_or_else(|| "_".to_string());
                    let ty = toks[c + 1..hi]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join(" ");
                    params.push(Param { name, ty });
                }
                None => {
                    // Receiver (`self`, `&self`, `&mut self`, `mut self`).
                    if toks[lo..hi].iter().any(|t| t.is_ident("self")) {
                        params.push(Param {
                            name: "self".to_string(),
                            ty: String::new(),
                        });
                    }
                }
            }
        };
        while j < to {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(",") && depth == 0 && angle <= 0 {
                flush(start, j, &mut params, self.toks);
                start = j + 1;
            }
            j += 1;
        }
        flush(start, to, &mut params, self.toks);
        params
    }

    /// Parse `impl .. { items }` / `trait Name { items }` starting at the
    /// keyword; recurses into the body with the target type as qualifier.
    fn parse_impl(&mut self, at: usize, to: usize, is_test: bool) -> usize {
        // Collect the target: the last type ident at angle-depth 0
        // before the body brace; `for` resets it (trait impls qualify by
        // the implementing type, not the trait).
        let mut angle = 0i32;
        let mut target: Option<String> = None;
        let mut j = at + 1;
        while j < to {
            let t = &self.toks[j];
            if t.is_punct("{") && angle <= 0 {
                break;
            }
            if t.is_punct(";") {
                return j + 1;
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if t.kind == TokKind::Ident && angle <= 0 => target = None,
                "where" if t.kind == TokKind::Ident && angle <= 0 => {
                    // Skip the where clause to the body brace.
                    while j < to && !self.toks[j].is_punct("{") {
                        j += 1;
                    }
                    break;
                }
                _ => {
                    if t.kind == TokKind::Ident && angle <= 0 && t.text != "dyn" && t.text != "impl"
                    {
                        target = Some(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        if j >= to || !self.toks[j].is_punct("{") {
            return j;
        }
        let close = self.close_of_idx(j, to);
        let target = target.unwrap_or_else(|| "?".to_string());
        self.items(j + 1, close, is_test, Some(&target));
        close + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_and_associated_fns_are_qualified() {
        let p = parse_src(
            "pub fn free(a: u32) -> u32 { a }\n\
             struct S;\n\
             impl S { pub fn method(&self, b: &str) {} }\n\
             impl Display for S { fn fmt(&self) {} }",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["free", "S::method", "S::fmt"]);
        assert_eq!(
            p.fns[0].params,
            vec![Param {
                name: "a".into(),
                ty: "u32".into()
            }]
        );
        assert_eq!(p.fns[1].params[0].name, "self");
        assert_eq!(p.fns[1].params[1].ty, "& str");
    }

    #[test]
    fn cfg_test_scoping_marks_fns_and_nested_mods() {
        let p = parse_src(
            "fn runtime() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
               fn helper() {}\n\
               #[test]\n\
               fn case() {}\n\
             }\n\
             #[test]\nfn top_level_case() {}",
        );
        let tests: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            tests,
            vec![
                ("runtime", false),
                ("helper", true),
                ("case", true),
                ("top_level_case", true)
            ]
        );
    }

    #[test]
    fn fn_bodies_cover_their_token_ranges() {
        let src = "fn a() { inner(); }\nfn b() {}";
        let toks = lex(src);
        let p = parse(&toks);
        let a = &p.fns[0];
        let (open, close) = a.body.unwrap();
        assert!(toks[open].is_punct("{") && toks[close].is_punct("}"));
        let idx_inner = toks.iter().position(|t| t.is_ident("inner")).unwrap();
        assert_eq!(p.fn_at(idx_inner).unwrap().name, "a");
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn generics_where_clauses_and_lifetimes_do_not_derail() {
        let p = parse_src(
            "impl<'a, T: Clone> Holder<'a, T> where T: Send {\n\
               fn get<const N: usize>(&self, arr: &[T; N]) -> Option<&T> { arr.first() }\n\
             }",
        );
        assert_eq!(p.fns[0].qual, "Holder::get");
        assert_eq!(p.fns[0].params[1].name, "arr");
    }

    #[test]
    fn trait_signatures_without_bodies_parse() {
        let p =
            parse_src("trait Source { fn next(&mut self) -> Option<u32>; fn reset(&mut self) {} }");
        assert_eq!(p.fns[0].qual, "Source::next");
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn type_and_const_items_are_skipped_without_losing_the_fns_around_them() {
        let p = parse_src(
            "struct Unit;\nstruct Tuple(u32, String);\n\
             #[derive(Debug)]\nstruct After { x: u32 }\n\
             enum E { A { x: u32 }, B(u8), C }\n\
             const ZERO: After = After { x: 0 };\nstatic N: [u8; 2] = [1, 2];\n\
             const fn konst() -> u32 { 1 }\n\
             fn last() {}",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["konst", "last"]);
        assert!(p.fns.iter().all(|f| !f.is_test && f.body.is_some()));
    }
}
