//! The committed allowlist: known findings tracked as explicit debt.
//!
//! The baseline file is a TOML subset — an optional header comment and
//! a sequence of `[[finding]]` tables with string/integer keys:
//!
//! ```toml
//! [[finding]]
//! rule = "panic-reachability"
//! file = "crates/core/src/agg.rs"
//! fingerprint = "b85f1c3932b56b81"
//! note = "documented panic: majority_mix requires a non-empty window"
//! ```
//!
//! Entries carry a content-addressed `fingerprint` (computed by the
//! analyzer from rule + enclosing item + normalized snippet), so the
//! baseline survives line renumbering: a formatting-only commit needs
//! zero baseline edits.
//!
//! Only *new* findings fail the lint run; baseline entries that no
//! longer match anything are reported as stale (a warning, not a
//! failure) so the allowlist shrinks over time instead of fossilizing.
//!
//! Parsing is hand-rolled (the crate is dependency-free by design) and
//! deliberately strict: unknown keys, non-`[[finding]]` tables, or
//! malformed lines are errors rather than silently ignored allowances.

use std::fmt;

use crate::Finding;

/// One allowlisted finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule identifier, e.g. `panic-reachability`.
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// Content-addressed identity.
    pub fingerprint: String,
    /// Why this finding is accepted (required: debt needs a reason).
    pub note: String,
}

impl BaselineEntry {
    /// True if this entry matches `f`: same rule, file and fingerprint.
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule && self.file == f.file && self.fingerprint == f.fingerprint
    }
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<BaselineEntry>,
}

/// Baseline parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// Line in the baseline file where parsing failed.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for BaselineError {}

impl Baseline {
    /// Parse the TOML-subset baseline format.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let err = |line: u32, msg: String| BaselineError { line, msg };
        let mut entries: Vec<BaselineEntry> = Vec::new();
        let mut open: Option<(BaselineEntry, u32)> = None; // entry, start line

        let flush = |open: &mut Option<(BaselineEntry, u32)>,
                     entries: &mut Vec<BaselineEntry>|
         -> Result<(), BaselineError> {
            if let Some((entry, at)) = open.take() {
                entries.push(finish_entry(entry, at)?);
            }
            Ok(())
        };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[finding]]" {
                flush(&mut open, &mut entries)?;
                open = Some((
                    BaselineEntry {
                        rule: String::new(),
                        file: String::new(),
                        fingerprint: String::new(),
                        note: String::new(),
                    },
                    lineno,
                ));
                continue;
            }
            if line.starts_with('[') {
                return Err(err(lineno, format!("unexpected table `{line}`")));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            let value = value.trim();
            let Some((entry, _)) = open.as_mut() else {
                return Err(err(lineno, format!("`{key}` outside a [[finding]] table")));
            };
            match key {
                "rule" => entry.rule = unquote(value).map_err(|m| err(lineno, m))?,
                "file" => entry.file = unquote(value).map_err(|m| err(lineno, m))?,
                "note" => entry.note = unquote(value).map_err(|m| err(lineno, m))?,
                "fingerprint" => {
                    entry.fingerprint = unquote(value).map_err(|m| err(lineno, m))?
                }
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
        }
        flush(&mut open, &mut entries)?;
        Ok(Baseline { entries })
    }

    /// Render a findings list as a baseline file (`--write-baseline`).
    /// Output is deterministic: entries sorted by `(file, line, rule)`;
    /// the line appears only as an informational comment, so a line
    /// shift alone never changes a key.
    ///
    /// `previous` is the baseline being regenerated over: curated notes
    /// are carried forward for every finding an existing entry matches.
    pub fn render(findings: &[Finding], previous: &Baseline) -> String {
        let mut sorted: Vec<&Finding> = findings.iter().collect();
        sorted.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        let mut out = String::from(
            "# webcap lint baseline — explicitly tracked findings.\n\
             # Regenerate with: webcap lint --write-baseline\n\
             # Matching is on (rule, file, fingerprint); fingerprints are\n\
             # content-addressed (enclosing item + snippet), so line shifts\n\
             # never require regeneration. `note` records why the finding is\n\
             # accepted. Shrink this file, never grow it silently.\n",
        );
        for f in sorted {
            let note = previous
                .entries
                .iter()
                .find(|e| e.matches(f))
                .map(|e| e.note.as_str())
                .filter(|n| !n.is_empty())
                .unwrap_or(f.note.as_str());
            out.push('\n');
            out.push_str("[[finding]]\n");
            out.push_str(&format!("# {}:{}\n", f.file, f.line));
            out.push_str(&format!("rule = {}\n", quote(f.rule)));
            out.push_str(&format!("file = {}\n", quote(&f.file)));
            out.push_str(&format!("fingerprint = {}\n", quote(&f.fingerprint)));
            out.push_str(&format!("note = {}\n", quote(note)));
        }
        out
    }

    /// True if `f` matches an entry.
    pub fn covers(&self, f: &Finding) -> bool {
        self.entries.iter().any(|e| e.matches(f))
    }

    /// Entries that no longer match any current finding — stale debt
    /// that should be deleted from the baseline file.
    pub fn stale<'a>(&'a self, findings: &[Finding]) -> Vec<&'a BaselineEntry> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| e.matches(f)))
            .collect()
    }
}

fn finish_entry(entry: BaselineEntry, at: u32) -> Result<BaselineEntry, BaselineError> {
    let missing = |what: &str| BaselineError {
        line: at,
        msg: format!("[[finding]] is missing `{what}`"),
    };
    if entry.rule.is_empty() {
        return Err(missing("rule"));
    }
    if entry.file.is_empty() {
        return Err(missing("file"));
    }
    if entry.fingerprint.is_empty() {
        return Err(missing("fingerprint"));
    }
    if entry.note.is_empty() {
        return Err(missing("note"));
    }
    Ok(entry)
}

/// Strip surrounding double quotes and resolve `\"` / `\\` escapes.
fn unquote(v: &str) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got `{v}`"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => return Err(format!("unsupported escape `\\{other}`")),
                None => return Err("dangling backslash".to_string()),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Double-quote a string, escaping quotes and backslashes.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn finding(rule: &'static str, file: &str, line: u32, fp: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            note: "why".to_string(),
            fingerprint: fp.to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let findings = vec![
            finding("nondet-time", "crates/bench/src/harness.rs", 196, "aa00"),
            finding("panic-reachability", "crates/core/src/agg.rs", 123, "bb11"),
        ];
        let text = Baseline::render(&findings, &Baseline::default());
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 2);
        // Render sorts by (file, line, rule).
        assert_eq!(parsed.entries[0].file, "crates/bench/src/harness.rs");
        assert!(parsed.covers(&findings[0]));
        assert!(parsed.covers(&findings[1]));
        // Same site, different content → different fingerprint → not
        // covered, even at the same line.
        assert!(!parsed.covers(&finding(
            "panic-reachability",
            "crates/core/src/agg.rs",
            123,
            "cc22"
        )));
        // A pure line shift with the same fingerprint stays covered:
        // zero baseline edits for formatting commits.
        assert!(parsed.covers(&finding(
            "panic-reachability",
            "crates/core/src/agg.rs",
            999,
            "bb11"
        )));
    }

    #[test]
    fn regeneration_preserves_curated_notes_by_fingerprint() {
        // The --write-baseline note-dropping bug: a curated note must
        // survive regeneration when the fingerprint is unchanged.
        let curated = "[[finding]]\nrule = \"nondet-time\"\nfile = \"f.rs\"\n\
                       fingerprint = \"aa00\"\nnote = \"curated: the bench clock is the point\"\n";
        let previous = Baseline::parse(curated).unwrap();
        let regenerated = Baseline::render(
            &[finding("nondet-time", "f.rs", 42, "aa00")],
            &previous,
        );
        let parsed = Baseline::parse(&regenerated).unwrap();
        assert_eq!(parsed.entries[0].note, "curated: the bench clock is the point");
        // A *changed* fingerprint means the code changed: the finding's
        // fresh note wins, not the stale curation.
        let regenerated = Baseline::render(
            &[finding("nondet-time", "f.rs", 42, "bb11")],
            &previous,
        );
        let parsed = Baseline::parse(&regenerated).unwrap();
        assert_eq!(parsed.entries[0].note, "why");
    }

    #[test]
    fn stale_entries_are_reported() {
        let text = Baseline::render(
            &[finding("panic-reachability", "crates/core/src/agg.rs", 1, "aa00")],
            &Baseline::default(),
        );
        let parsed = Baseline::parse(&text).unwrap();
        let stale = parsed.stale(&[]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "crates/core/src/agg.rs");
        assert!(parsed
            .stale(&[finding(
                "panic-reachability",
                "crates/core/src/agg.rs",
                1,
                "aa00"
            )])
            .is_empty());
    }

    #[test]
    fn missing_keys_and_unknown_keys_are_errors() {
        let missing = "[[finding]]\nrule = \"r\"\nfile = \"f\"\nfingerprint = \"aa\"\n";
        let e = Baseline::parse(missing).unwrap_err();
        assert!(e.msg.contains("note"), "{e}");
        let no_identity = "[[finding]]\nrule = \"r\"\nfile = \"f\"\nnote = \"n\"\n";
        let e = Baseline::parse(no_identity).unwrap_err();
        assert!(e.msg.contains("fingerprint"), "{e}");
        let unknown = "[[finding]]\nrule = \"r\"\nseverity = \"error\"\n";
        let e = Baseline::parse(unknown).unwrap_err();
        assert!(e.msg.contains("unknown key"), "{e}");
        let outside = "rule = \"r\"\n";
        let e = Baseline::parse(outside).unwrap_err();
        assert!(e.msg.contains("outside"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n[[finding]]\n# f.rs:1\nrule = \"r\"\nfile = \"f\"\n\
                    fingerprint = \"aa\"\nnote = \"n\"\n";
        let parsed = Baseline::parse(text).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].rule, "r");
    }

    #[test]
    fn escapes_round_trip() {
        let f = Finding {
            rule: "panic-reachability",
            severity: Severity::Error,
            file: "crates/core/src/x.rs".to_string(),
            line: 1,
            note: "quote \" and backslash \\ and\nnewline".to_string(),
            fingerprint: "aa00".to_string(),
            chain: Vec::new(),
        };
        let parsed = Baseline::parse(&Baseline::render(&[f.clone()], &Baseline::default())).unwrap();
        assert_eq!(parsed.entries[0].note, f.note);
    }
}
