//! SARIF 2.1.0 output.
//!
//! [`to_sarif`] renders a run as a SARIF 2.1.0 log (hand-rolled
//! std-only JSON) so CI systems and editors can ingest `oa_lint`
//! results without parsing our text format. One `run` object, the
//! rule catalogue under `tool.driver.rules`, one `result` per finding
//! with the full entry→site chain in `message.text`.
//!
//! Each result carries a line-number-insensitive [`fingerprint`] under
//! `partialFingerprints`: `path|rule|message` with every `:<digits>`
//! in the message collapsed to `:_`, so pure code motion (a function
//! shifting down ten lines) keeps a finding's identity and external
//! viewers can dedup results across runs. The finding's own `line`
//! field is deliberately excluded for the same reason.

use crate::engine::Report;
use crate::lint::{Finding, RULES};
use std::collections::BTreeSet;

/// Stable identity of a finding across line renumbering: the path,
/// rule, and message with `:<digits>` spans normalized to `:_`.
pub fn fingerprint(f: &Finding) -> String {
    let mut msg = String::with_capacity(f.message.len());
    let bytes = f.message.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b':' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            msg.push_str(":_");
            i += 1;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        } else {
            // Message text is ASCII-safe to copy bytewise only when we
            // stay on char boundaries; pushing the full char does.
            let ch = f.message[i..].chars().next().expect("in-bounds slice");
            msg.push(ch);
            i += ch.len_utf8();
        }
    }
    format!("{}|{}|{}", f.path, f.rule, msg)
}

/// Renders a report as a SARIF 2.1.0 log with one run object.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::with_capacity(4096 + report.findings.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"oa_lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");

    // Every rule that fired, in first-seen-sorted order; catalogue
    // descriptions when we have them (`bad_annotation` has none).
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    for (k, rule) in fired.iter().enumerate() {
        let desc = RULES
            .iter()
            .find(|r| r.name == *rule)
            .map(|r| r.description)
            .unwrap_or("malformed lint annotation");
        out.push_str("            {");
        out.push_str(&format!(
            "\"id\": {}, \"shortDescription\": {{\"text\": {}}}",
            json_str(rule),
            json_str(desc)
        ));
        out.push('}');
        if k + 1 < fired.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (k, f) in report.findings.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": {},\n", json_str(f.rule)));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            json_str(&f.message)
        ));
        out.push_str(&format!(
            "          \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}],\n",
            json_str(&f.path),
            f.line.max(1)
        ));
        out.push_str(&format!(
            "          \"partialFingerprints\": {{\"oaLintFingerprint/v1\": {}}}\n",
            json_str(&fingerprint(f))
        ));
        out.push_str("        }");
        if k + 1 < report.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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

    fn finding(path: &str, line: u32, rule: &'static str, message: &str) -> Finding {
        Finding {
            path: path.to_owned(),
            line,
            rule,
            message: message.to_owned(),
        }
    }

    /// Minimal JSON well-formedness check: strings lex, braces and
    /// brackets balance, nothing trails the top-level value.
    fn assert_well_formed_json(text: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escape = false;
        let mut closed = false;
        for c in text.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => {
                    assert!(!closed, "content after top-level value");
                    depth += 1;
                }
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close");
                    if depth == 0 {
                        closed = true;
                    }
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced braces");
        assert!(closed, "no top-level value");
    }

    #[test]
    fn sarif_log_is_well_formed_and_versioned() {
        let report = Report {
            findings: vec![
                finding(
                    "crates/serve/src/server.rs",
                    12,
                    "panic",
                    "quote \" backslash \\ newline \n done",
                ),
                finding("crates/par/src/pool.rs", 7, "lock_across_blocking", "m"),
            ],
            files: 2,
            fns: 0,
            edges: 0,
            discharged: Vec::new(),
            timings: Default::default(),
        };
        let s = to_sarif(&report);
        assert_well_formed_json(&s);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"runs\""));
        assert!(s.contains("\"ruleId\": \"lock_across_blocking\""));
        assert!(s.contains("oaLintFingerprint/v1"));
    }

    #[test]
    fn empty_report_still_has_one_run() {
        let s = to_sarif(&Report::default());
        assert_well_formed_json(&s);
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn fingerprint_is_line_number_insensitive() {
        let a = finding(
            "a.rs",
            10,
            "panic",
            "v[0]; reachable from f: f -> g (at a.rs:12)",
        );
        let b = finding(
            "a.rs",
            99,
            "panic",
            "v[0]; reachable from f: f -> g (at a.rs:57)",
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = finding(
            "b.rs",
            10,
            "panic",
            "v[0]; reachable from f: f -> g (at a.rs:12)",
        );
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
