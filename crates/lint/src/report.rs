//! Deterministic rendering of lint reports.
//!
//! Two formats: `human` (one line per finding, grep-friendly, with the
//! call chain indented under interprocedural findings) and `json`
//! (hand-rolled emission — the crate is dependency-free — with stable
//! key order and findings pre-sorted, so identical inputs produce
//! byte-identical reports suitable for CI artifact diffing).

use crate::Report;

/// Render the report as stable, pretty-printed JSON.
pub fn to_json(report: &Report) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
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
    if report.findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Render the report as grep-friendly text, one `file:line: rule` line
/// per finding (call chain indented beneath it) plus a summary tail.
pub fn to_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {} — {}\n",
            f.file,
            f.line,
            f.severity.as_str(),
            f.rule,
            f.note
        ));
        if !f.chain.is_empty() {
            out.push_str(&format!("    chain: {}\n", f.chain.join(" -> ")));
        }
    }
    out.push_str(&format!(
        "webcap lint: {} file(s) scanned, {} finding(s)\n",
        report.files_scanned,
        report.findings.len(),
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
    use crate::{Finding, Severity};

    fn report() -> Report {
        Report {
            files_scanned: 3,
            findings: vec![Finding {
                rule: "panic-reachability",
                severity: Severity::Error,
                file: "crates/net/src/a.rs".to_string(),
                line: 7,
                note: "note \"with quotes\"".to_string(),
                chain: vec!["run_collector".to_string(), "helper".to_string()],
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = report();
        let a = to_json(&r);
        let b = to_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\"files_scanned\": 3"));
        assert!(a.contains("\\\"with quotes\\\""));
        assert!(a.contains("\"chain\": [\"run_collector\", \"helper\"]"));
    }

    #[test]
    fn empty_report_renders_valid_json_shape() {
        let j = to_json(&Report::default());
        assert!(j.contains("\"findings\": []"));
    }

    #[test]
    fn human_output_lists_findings_and_chains() {
        let h = to_human(&report());
        assert!(h.contains("crates/net/src/a.rs:7: [error] panic-reachability"));
        assert!(h.contains("    chain: run_collector -> helper"));
        assert!(h.contains("3 file(s) scanned, 1 finding(s)"));
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
