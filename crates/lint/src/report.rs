//! Deterministic rendering of lint reports.
//!
//! Two formats: `human` (one line per finding, grep-friendly, with the
//! call chain indented under interprocedural findings) and `json`
//! (hand-rolled emission — the crate is dependency-free — with stable
//! key order and findings pre-sorted, so identical inputs produce
//! byte-identical reports suitable for CI artifact diffing).

use crate::{Finding, Report};

/// Render the report as stable, pretty-printed JSON.
pub fn to_json(report: &Report) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"new_findings\": {},\n",
        report.new_findings.len()
    ));
    out.push_str(&format!(
        "  \"baselined_findings\": {},\n",
        report.baselined_findings.len()
    ));
    out.push_str(&format!(
        "  \"stale_baseline_entries\": {},\n",
        report.stale_baseline.len()
    ));
    out.push_str("  \"findings\": [");
    let all: Vec<(&Finding, bool)> = report
        .new_findings
        .iter()
        .map(|f| (f, false))
        .chain(report.baselined_findings.iter().map(|f| (f, true)))
        .collect();
    for (i, (f, baselined)) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
        out.push_str(&format!(
            "\"severity\": {}, ",
            json_str(f.severity.as_str())
        ));
        out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"fingerprint\": {}, ", json_str(&f.fingerprint)));
        out.push_str(&format!("\"baselined\": {}, ", baselined));
        out.push_str("\"chain\": [");
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(hop));
        }
        out.push_str("], ");
        out.push_str(&format!("\"note\": {}", json_str(&f.note)));
        out.push('}');
    }
    if all.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"stale_baseline\": [");
    for (i, e) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(&e.rule)));
        out.push_str(&format!("\"file\": {}, ", json_str(&e.file)));
        out.push_str(&format!("\"fingerprint\": {}", json_str(&e.fingerprint)));
        out.push('}');
    }
    if report.stale_baseline.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

fn push_finding(out: &mut String, f: &Finding, label: &str) {
    out.push_str(&format!(
        "{}:{}: [{}] {} — {}\n",
        f.file, f.line, label, f.rule, f.note
    ));
    if !f.chain.is_empty() {
        out.push_str(&format!("    chain: {}\n", f.chain.join(" -> ")));
    }
}

/// Render the report as grep-friendly text, one `file:line: rule` line
/// per finding (call chain indented beneath it) plus a summary tail.
pub fn to_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.new_findings {
        push_finding(&mut out, f, f.severity.as_str());
    }
    for f in &report.baselined_findings {
        push_finding(&mut out, f, "baselined");
    }
    for e in &report.stale_baseline {
        out.push_str(&format!(
            "{}:{}: [stale-baseline] {} — entry no longer matches any finding; delete it\n",
            e.file, e.fingerprint, e.rule
        ));
    }
    out.push_str(&format!(
        "webcap lint: {} file(s) scanned, {} new finding(s), {} baselined, {} stale baseline entr{}\n",
        report.files_scanned,
        report.new_findings.len(),
        report.baselined_findings.len(),
        report.stale_baseline.len(),
        if report.stale_baseline.len() == 1 { "y" } else { "ies" },
    ));
    out
}

/// JSON-escape a string (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEntry;
    use crate::Severity;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            note: "note \"with quotes\"".to_string(),
            fingerprint: "deadbeef00112233".to_string(),
            chain: vec!["run_collector".to_string(), "helper".to_string()],
        }
    }

    fn report() -> Report {
        Report {
            files_scanned: 3,
            new_findings: vec![finding("panic-reachability", "crates/net/src/a.rs", 7)],
            baselined_findings: vec![finding("nondet-time", "crates/bench/src/h.rs", 196)],
            stale_baseline: vec![BaselineEntry {
                rule: "panic-unwrap".to_string(),
                file: "crates/core/src/old.rs".to_string(),
                fingerprint: "0011223344556677".to_string(),
                note: "gone".to_string(),
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = report();
        let a = to_json(&r);
        let b = to_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\"new_findings\": 1"));
        assert!(a.contains("\\\"with quotes\\\""));
        assert!(a.contains("\"baselined\": true"));
        assert!(a.contains("\"baselined\": false"));
        assert!(a.contains("\"fingerprint\": \"deadbeef00112233\""));
        assert!(a.contains("\"chain\": [\"run_collector\", \"helper\"]"));
        assert!(a.contains("\"stale_baseline\""));
    }

    #[test]
    fn empty_report_renders_valid_json_shape() {
        let r = Report {
            files_scanned: 0,
            new_findings: vec![],
            baselined_findings: vec![],
            stale_baseline: vec![],
        };
        let j = to_json(&r);
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"stale_baseline\": []"));
    }

    #[test]
    fn human_output_lists_each_category_and_chains() {
        let h = to_human(&report());
        assert!(h.contains("crates/net/src/a.rs:7: [error] panic-reachability"));
        assert!(h.contains("    chain: run_collector -> helper"));
        assert!(h.contains("[baselined] nondet-time"));
        assert!(h.contains("[stale-baseline] panic-unwrap"));
        assert!(h.contains("1 new finding(s), 1 baselined, 1 stale"));
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
