//! Workspace-invariant lint rules over the token stream, the rule
//! catalogue, and the annotation grammar every rule shares.
//!
//! These are the invariants the serving determinism contract
//! (DESIGN.md §7) relies on but `clippy` cannot express, enforced
//! mechanically instead of by code-review vigilance:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `wall_clock` | all workspace code | no `SystemTime` / `Instant::now` — wall-clock must never reach response bytes |
//! | `float_format` | `oa-serve`, `oa-store`, `oa-router`, `oa-bench` | exponent-format floats in caches/stores/wire encodings only via the exact `{:.17e}` round-trip form |
//! | `forbid_unsafe` | every crate root | `#![forbid(unsafe_code)]` must be present |
//!
//! The other rules of [`RULES`] are whole-program analyses over the
//! call graph ([`crate::engine`]); they read their waivers through
//! [`annotations_of`].
//!
//! ## Annotation grammar
//!
//! A finding is waived by a line comment of the form
//!
//! ```text
//! // lint: allow(<rule>, <reason>)
//! ```
//!
//! placed on the offending line (trailing) or on the line immediately
//! above it (more precisely: it covers its own line and the next line
//! that holds a non-comment token). The reason is mandatory — an
//! annotation without one, or naming an unknown rule, is itself a
//! finding (`bad_annotation`). Test code (`#[cfg(test)]` / `#[test]`
//! items) and doc comments are exempt from all rules.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// Identifiers of the lint rules (stable names used in annotations).
pub const RULE_NAMES: &[&str] = &[
    "wall_clock",
    "float_format",
    "panic",
    "forbid_unsafe",
    "lock_order",
    "determinism",
    "alloc_free_kernel",
    "lock_across_blocking",
    "wire_undeclared",
    "wire_dead",
    "wire_client_match",
    "wire_router_coverage",
    "wire_spec",
];

/// Catalogue entry describing one rule for `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name (used in `lint: allow(...)`).
    pub name: &'static str,
    /// One-line description of the enforced invariant.
    pub description: &'static str,
}

/// The rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall_clock",
        description: "no SystemTime / Instant::now outside the annotated allowlist \
                      (wall-clock must never influence response bytes)",
    },
    RuleInfo {
        name: "float_format",
        description: "exponent-format floats in caches/stores/wire encodings must use \
                      the exact {:.17e} round-trip form",
    },
    RuleInfo {
        name: "panic",
        description: "no unwrap/expect/panic!/slice-indexing reachable from a serving \
                      entry point in a hardened crate without a justifying annotation \
                      (indexing the value-range analysis proves in bounds needs none)",
    },
    RuleInfo {
        name: "forbid_unsafe",
        description: "#![forbid(unsafe_code)] must be present in every crate root",
    },
    RuleInfo {
        name: "lock_order",
        description: "the interprocedural lock-acquisition graph must be acyclic \
                      (ast engine; annotation waives one edge of a cycle)",
    },
    RuleInfo {
        name: "determinism",
        description: "no dataflow from HashMap/HashSet iteration to serialization \
                      sinks (ast engine; annotation at source or sink waives the flow)",
    },
    RuleInfo {
        name: "alloc_free_kernel",
        description: "no Allocates-effect site reachable from the oa-linalg LANES \
                      factor/solve kernels (ast engine, effect inference)",
    },
    RuleInfo {
        name: "lock_across_blocking",
        description: "no Blocks-effect call while a lock guard is live (ast engine, \
                      effect inference over the held-guard walk)",
    },
    RuleInfo {
        name: "wire_undeclared",
        description: "every op and error kind the code emits, routes or issues must \
                      be declared in crates/serve/protocol.spec (ast engine, wire pass)",
    },
    RuleInfo {
        name: "wire_dead",
        description: "every declared op must be dispatched or routed and every \
                      declared kind emitted somewhere (ast engine, wire pass)",
    },
    RuleInfo {
        name: "wire_client_match",
        description: "retryable error kinds of client-issued ops must be matched on \
                      the consumer side, or retries silently never happen (wire pass)",
    },
    RuleInfo {
        name: "wire_router_coverage",
        description: "every declared op needs a route_of arm of the declared class; \
                      session ops must route as session or shard pinning is lost",
    },
    RuleInfo {
        name: "wire_spec",
        description: "crates/serve/protocol.spec must exist and parse (wire pass)",
    },
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule that fired (or `bad_annotation`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative
/// path. Pure so the scoping policy is unit-testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// `wall_clock` applies (all non-vendored workspace code).
    pub wall_clock: bool,
    /// `float_format` applies.
    pub float_format: bool,
    /// `forbid_unsafe` applies (crate roots only).
    pub forbid_unsafe: bool,
}

/// Derives the rule scope of a workspace-relative path (forward
/// slashes). See the module table for the policy.
pub fn scope_of(path: &str) -> Scope {
    let in_crate = |name: &str| path.starts_with(&format!("crates/{name}/src/"));
    // The router splices response bytes and renders merged stats, so it
    // sits on the same serialization bar as serve and the store.
    let serialization = in_crate("serve") || in_crate("store") || in_crate("router");
    Scope {
        wall_clock: true,
        float_format: serialization || in_crate("bench"),
        forbid_unsafe: path.ends_with("src/lib.rs"),
    }
}

/// Lints one file's source text under the rules `scope_of(path)`
/// selects. Findings come back in line order.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_source_scoped(path, source, scope_of(path))
}

/// Lints one file under an explicit scope (the fixture tests use this
/// to exercise rules regardless of path).
pub fn lint_source_scoped(path: &str, source: &str, scope: Scope) -> Vec<Finding> {
    let tokens = lex(source);
    let mut findings = Vec::new();
    let (allowed, mut annotation_findings) = collect_annotations(path, &tokens);
    findings.append(&mut annotation_findings);
    let skip = test_code_mask(&tokens);

    // Code tokens with their index in the full stream, comments and
    // test code removed — the view every token rule scans.
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| !skip[*i] && !t.is_comment())
        .map(|(_, t)| t)
        .collect();

    let mut report = |rule: &'static str, line: u32, message: String| {
        if !allowed.get(rule).is_some_and(|lines| lines.contains(&line)) {
            findings.push(Finding {
                path: path.to_owned(),
                line,
                rule,
                message,
            });
        }
    };

    if scope.wall_clock {
        for (k, t) in code.iter().enumerate() {
            if t.is_ident("SystemTime") {
                report(
                    "wall_clock",
                    t.line,
                    "SystemTime is wall-clock; it must never influence served bytes".to_owned(),
                );
            }
            if t.is_ident("Instant")
                && code.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && code.get(k + 3).is_some_and(|t| t.is_ident("now"))
            {
                report(
                    "wall_clock",
                    t.line,
                    "Instant::now() reads the clock; annotate if provably stats-only".to_owned(),
                );
            }
        }
    }

    if scope.float_format {
        for t in &code {
            if t.kind == TokenKind::Str {
                for (line, spec) in bad_float_specs(t) {
                    report(
                        "float_format",
                        line,
                        format!(
                            "float exponent format `{{{spec}}}` is not the exact-round-trip \
                             `{{:.17e}}` form"
                        ),
                    );
                }
            }
        }
    }

    if scope.forbid_unsafe {
        let has = tokens.windows(7).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].is_ident("forbid")
                && w[4].is_punct('(')
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(')')
        });
        if !has {
            report(
                "forbid_unsafe",
                1,
                "crate root is missing #![forbid(unsafe_code)]".to_owned(),
            );
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Public entry for the whole-program analyses: parses a file's `lint: allow(...)`
/// annotations. Returns rule → covered lines, plus `bad_annotation`
/// findings for malformed ones.
pub fn annotations_of(
    path: &str,
    source: &str,
) -> (BTreeMap<&'static str, Vec<u32>>, Vec<Finding>) {
    collect_annotations(path, &lex(source))
}

/// Parses `lint: allow(rule, reason)` annotations out of line comments.
/// Returns the per-rule set of covered lines plus findings for
/// malformed annotations. An annotation on line `L` covers `L` and the
/// next line holding a non-comment token.
fn collect_annotations<'a>(
    path: &str,
    tokens: &[Token<'a>],
) -> (BTreeMap<&'static str, Vec<u32>>, Vec<Finding>) {
    let mut allowed: BTreeMap<&'static str, Vec<u32>> = BTreeMap::new();
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let Some(rest) = t
            .text
            .trim_start_matches('/')
            .trim_start()
            .strip_prefix("lint:")
        else {
            continue;
        };
        let rest = rest.trim_start();
        let mut bad = |message: String| {
            findings.push(Finding {
                path: path.to_owned(),
                line: t.line,
                rule: "bad_annotation",
                message,
            });
        };
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|s| s.rfind(')').map(|end| &s[..end]))
        else {
            bad(format!(
                "malformed lint annotation `{}`; expected `lint: allow(<rule>, <reason>)`",
                t.text.trim_start_matches('/').trim()
            ));
            continue;
        };
        let (rule_txt, reason) = match args.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (args.trim(), ""),
        };
        let Some(rule) = RULE_NAMES.iter().find(|n| **n == rule_txt) else {
            bad(format!(
                "unknown lint rule `{rule_txt}` in allow annotation"
            ));
            continue;
        };
        if reason.is_empty() {
            bad(format!(
                "allow({rule}) annotation is missing its mandatory reason"
            ));
            continue;
        }
        // Covered lines: the annotation's own line (trailing-comment
        // form) and the next line with a non-comment token.
        let mut lines = vec![t.line];
        if let Some(next) = tokens[i + 1..]
            .iter()
            .find(|n| !n.is_comment() && n.line > t.line)
        {
            lines.push(next.line);
        }
        allowed.entry(rule).or_default().extend(lines);
    }
    (allowed, findings)
}

/// Marks tokens belonging to `#[cfg(test)]` / `#[test]` items so rules
/// skip them. The item following the attribute is consumed up to its
/// closing `}` (brace-tracked) or a `;` at depth zero.
fn test_code_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let code_idx: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let at = |k: usize| code_idx.get(k).map(|&i| &tokens[i]);
    let mut k = 0usize;
    while k < code_idx.len() {
        let is_cfg_test = at(k).is_some_and(|t| t.is_punct('#'))
            && at(k + 1).is_some_and(|t| t.is_punct('['))
            && at(k + 2).is_some_and(|t| t.is_ident("cfg"))
            && at(k + 3).is_some_and(|t| t.is_punct('('))
            && at(k + 4).is_some_and(|t| t.is_ident("test"))
            && at(k + 5).is_some_and(|t| t.is_punct(')'))
            && at(k + 6).is_some_and(|t| t.is_punct(']'));
        let is_test_attr = at(k).is_some_and(|t| t.is_punct('#'))
            && at(k + 1).is_some_and(|t| t.is_punct('['))
            && at(k + 2).is_some_and(|t| t.is_ident("test"))
            && at(k + 3).is_some_and(|t| t.is_punct(']'));
        if !(is_cfg_test || is_test_attr) {
            k += 1;
            continue;
        }
        let start = k;
        k += if is_cfg_test { 7 } else { 4 };
        // Skip any further attributes on the same item.
        while at(k).is_some_and(|t| t.is_punct('#')) && at(k + 1).is_some_and(|t| t.is_punct('[')) {
            k += 2;
            let mut depth = 1i32;
            while depth > 0 && k < code_idx.len() {
                if at(k).is_some_and(|t| t.is_punct('[')) {
                    depth += 1;
                } else if at(k).is_some_and(|t| t.is_punct(']')) {
                    depth -= 1;
                }
                k += 1;
            }
        }
        // Consume the item: until `;` at depth 0 or the matching `}` of
        // its first `{`.
        let mut depth = 0i32;
        while k < code_idx.len() {
            let t = at(k).expect("k < len");
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        for &i in &code_idx[start..k.min(code_idx.len())] {
            skip[i] = true;
        }
    }
    skip
}

/// Scans a string literal for format specs of exponent type (`…e}`)
/// that are not the exact `:.17e`. Returns `(line, spec)` pairs. Only
/// specs containing a `:` count, so prose braces never match.
fn bad_float_specs(token: &Token<'_>) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let text = token.text;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut line = token.line;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'{' if bytes.get(i + 1) == Some(&b'{') => i += 2, // escaped brace
            b'{' => {
                let Some(close) = text[i..].find('}').map(|d| i + d) else {
                    break;
                };
                let group = &text[i + 1..close];
                if let Some((_, spec)) = group.split_once(':') {
                    if spec.ends_with('e') && spec != ".17e" {
                        out.push((line, format!(":{spec}")));
                    }
                }
                i = close + 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: Scope = Scope {
        wall_clock: true,
        float_format: true,
        forbid_unsafe: false,
    };

    fn rules_fired(src: &str) -> Vec<&'static str> {
        lint_source_scoped("fixture.rs", src, ALL)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_fires_on_instant_now_and_system_time() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_fired(src), vec!["wall_clock"]);
        let src = "fn f() -> SystemTime { SystemTime::now() }";
        assert_eq!(rules_fired(src), vec!["wall_clock", "wall_clock"]);
    }

    #[test]
    fn wall_clock_ignores_bare_instant_ident() {
        assert!(rules_fired("use std::time::Instant;").is_empty());
    }

    #[test]
    fn wall_clock_respects_trailing_annotation() {
        let src = "let t = Instant::now(); // lint: allow(wall_clock, stats only)";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn wall_clock_respects_preceding_annotation() {
        let src = "// lint: allow(wall_clock, stats only)\nlet t = Instant::now();";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn annotation_does_not_cover_two_lines_down() {
        let src = "// lint: allow(wall_clock, stats only)\nlet a = 1;\nlet t = Instant::now();";
        assert_eq!(rules_fired(src), vec!["wall_clock"]);
    }

    #[test]
    fn float_format_fires_on_non_roundtrip_exponent() {
        let src = r#"fn f(v: f64) -> String { format!("{v:.3e}") }"#;
        let f = lint_source_scoped("fixture.rs", src, ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float_format");
        assert!(f[0].message.contains(":.3e"), "{}", f[0].message);
    }

    #[test]
    fn float_format_accepts_the_exact_form_and_prose_braces() {
        let src = r#"fn f(v: f64) { format!("{v:.17e}"); println!("{{not a spec}} {v}"); }"#;
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { Instant::now(); }\n}";
        assert!(rules_fired(src).is_empty());
        let src = "#[test]\nfn t() { Instant::now(); }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn code_after_test_item_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests { fn f() {} }\nfn g() { Instant::now(); }";
        assert_eq!(rules_fired(src), vec!["wall_clock"]);
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots() {
        let scope = Scope {
            forbid_unsafe: true,
            ..ALL
        };
        let f = lint_source_scoped("crates/x/src/lib.rs", "pub fn f() {}", scope);
        assert_eq!(f[0].rule, "forbid_unsafe");
        let ok = lint_source_scoped(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
            scope,
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn bad_annotations_are_findings() {
        let f = lint_source_scoped("f.rs", "// lint: allow(panic)\nlet x = 1;", ALL);
        assert_eq!(f[0].rule, "bad_annotation");
        let f = lint_source_scoped("f.rs", "// lint: allow(made_up_rule, why)\n", ALL);
        assert_eq!(f[0].rule, "bad_annotation");
        assert!(f[0].message.contains("made_up_rule"));
        let f = lint_source_scoped("f.rs", "// lint: allowing stuff\n", ALL);
        assert_eq!(f[0].rule, "bad_annotation");
    }

    #[test]
    fn string_and_comment_contents_never_fire_code_rules() {
        let src = r#"fn f() { let s = "Instant::now() HashMap v.unwrap()"; } // HashMap"#;
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn scope_policy_matches_the_table() {
        let s = scope_of("crates/serve/src/service.rs");
        assert!(s.float_format && s.wall_clock);
        assert!(!s.forbid_unsafe);
        let s = scope_of("crates/router/src/router.rs");
        assert!(s.float_format, "the router splices response bytes");
        let s = scope_of("crates/par/src/pool.rs");
        assert!(s.wall_clock && !s.float_format);
        let s = scope_of("crates/sim/src/lib.rs");
        assert!(s.forbid_unsafe && s.wall_clock && !s.float_format);
        let s = scope_of("crates/bench/src/cache.rs");
        assert!(s.float_format);
    }

    #[test]
    fn findings_display_like_compiler_diagnostics() {
        let f = Finding {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "panic",
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "crates/x/src/a.rs:7: [panic] boom");
    }
}
