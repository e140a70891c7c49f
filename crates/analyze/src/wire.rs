//! Wire-schema extraction: what the workspace *actually* puts on the
//! wire, recovered from the AST, checked against the declaration.
//!
//! The pass walks the parsed workspace ([`Workspace`]) and recovers
//! every NDJSON frame fact from its anchor sites:
//!
//! * **`const`** — the canonical kind table (`oa_serve::wire_kinds`
//!   string constants). Identifier reads everywhere else resolve
//!   through this table, so renaming a constant moves every dependent
//!   row with it.
//! * **`op-emit`** — the ops `Service::stage` (the cheap stage of
//!   `Service::handle_line`) dispatches on: inside the match over
//!   `request.get("op")`, every arm with a `Some(…)` pattern
//!   contributes its string literal.
//! * **`op-request`** — the ops the client builders issue: a string
//!   literal `"op"` immediately followed by another wire-shaped
//!   literal in the same statement of `serve/src/client.rs`.
//! * **`op-route`** — the router's `route_of` table: each arm's
//!   literals paired with the `Route::…` variant it maps to.
//! * **`kind-emit` / `kind-match` / `kind-ref`** — every read of a
//!   kind constant, sectioned by the file's role (producers:
//!   service/session/router/core error codes; consumers: client and
//!   the chaos harnesses; everything else is a neutral reference).
//!   `EvalErrorKind::code` contributes its literal arms as emissions.
//! * **`fields`** — response-field literals inside the `*_json`
//!   renderers and `shard_map_response`.
//! * **`frame`** — `format!` skeletons containing `"name":` patterns
//!   (the envelope and typed-error frames built by string formatting).
//!
//! [`check`] compares the extraction against
//! [`crate::protocol::ProtocolSpec`] both ways and
//! reports five rules: `wire_undeclared` (the code ships a frame the
//! spec does not declare), `wire_dead` (the spec declares a frame no
//! code produces), `wire_client_match` (the client issues an op but
//! never matches a retryable kind that op may answer with),
//! `wire_router_coverage` (an op is missing from `route_of` or routed
//! under the wrong class — session ops *must* route as `session` or
//! sticky shard pinning is silently lost), and `wire_spec` (the spec
//! file itself is missing or malformed). The soundness envelope —
//! which emission shapes the anchors can and cannot see — is
//! documented in DESIGN.md §14.

use crate::ast::{Block, CallTarget, Event, SourceFile, Stmt, StmtPart};
use crate::callgraph::Workspace;
use crate::lint::Finding;
use crate::protocol::ProtocolSpec;
use std::collections::{BTreeMap, BTreeSet};

/// One extracted wire fact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WireSite {
    /// Catalogue section (`const`, `op-emit`, `op-route`, …).
    pub section: &'static str,
    /// The wire string (op name, kind string, field name, or a
    /// comma-joined frame field list).
    pub name: String,
    /// Context: the defining constant, the enclosing function, or the
    /// routing class.
    pub detail: String,
    /// Workspace-relative file path.
    pub path: String,
    /// The item holding the site: the enclosing function's qualified
    /// name, or the constant's name for `const` rows.
    pub item: String,
    /// 1-based source line (diagnostics only; the snapshot pins sites
    /// by path and item, so edits elsewhere in a file do not move it).
    pub line: u32,
}

/// Whether a decoded literal looks like a wire identifier: a short
/// `snake_case` word (op names, kind strings, field names). Filters
/// out human-readable messages, which contain spaces or punctuation.
pub fn is_wire_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 24
        && s.as_bytes()[0].is_ascii_lowercase()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b == b'_' || b.is_ascii_digit())
}

/// Visits `stmt` and every statement nested in its blocks.
fn each_stmt<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        for part in &stmt.parts {
            if let StmtPart::Block(b) = part {
                each_stmt(b, f);
            }
        }
    }
}

/// The statement's own string-literal events, in source order (not
/// recursing into nested blocks — a match arm's literals stay with
/// the arm).
fn direct_strs(stmt: &Stmt) -> Vec<(u32, &str)> {
    stmt.parts
        .iter()
        .filter_map(|p| match p {
            StmtPart::Event(Event::Str { line, text }) => Some((*line, text.as_str())),
            _ => None,
        })
        .collect()
}

/// Whether the statement directly calls a free/path function whose
/// last segment is `name` (`Some(…)` patterns parse as such a call).
fn has_free_call(stmt: &Stmt, name: &str) -> bool {
    stmt.parts.iter().any(|p| match p {
        StmtPart::Event(Event::Call(cs)) => match &cs.target {
            CallTarget::Free { path } => path.last().is_some_and(|s| s == name),
            _ => false,
        },
        _ => false,
    })
}

/// The role a file plays for kind constants: producer, consumer, or
/// neutral reference.
fn kind_section(path: &str) -> &'static str {
    if path.ends_with("serve/src/client.rs")
        || path.ends_with("serve/src/chaos.rs")
        || path.ends_with("router/src/chaos.rs")
        || path.contains("crates/fault/")
    {
        "kind-match"
    } else if path.ends_with("serve/src/service.rs")
        || path.ends_with("serve/src/session.rs")
        || path.ends_with("router/src/router.rs")
        || path.ends_with("core/src/error.rs")
    {
        "kind-emit"
    } else {
        "kind-ref"
    }
}

/// `"name":` field patterns inside a `format!` skeleton.
fn frame_fields(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'"' {
            if let Some(rel) = s[i + 1..].find('"') {
                let j = i + 1 + rel;
                let name = &s[i + 1..j];
                if b.get(j + 1) == Some(&b':') && is_wire_token(name) {
                    out.push(name.to_owned());
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Whether the path belongs to a crate that talks on the wire (frame
/// and field rows are restricted to these so e.g. the SARIF renderer's
/// JSON skeletons do not pollute the catalogue).
fn wire_crate(path: &str) -> bool {
    path.contains("crates/serve/")
        || path.contains("crates/router/")
        || path.contains("crates/core/")
}

/// Extracts the full wire catalogue from a parsed workspace. Rows are
/// sorted and deduplicated, so equal workspaces give byte-equal
/// catalogues.
pub fn extract(ws: &Workspace) -> Vec<WireSite> {
    let mut sites = Vec::new();

    // The canonical kind table, and the name→value map identifier
    // reads resolve through.
    let mut const_map: BTreeMap<&str, &str> = BTreeMap::new();
    for file in &ws.files {
        if !file.path.ends_with("serve/src/wire_kinds.rs") {
            continue;
        }
        for cs in &file.const_strs {
            const_map.insert(&cs.name, &cs.value);
            sites.push(WireSite {
                section: "const",
                name: cs.value.clone(),
                detail: cs.name.clone(),
                path: file.path.clone(),
                item: cs.name.clone(),
                line: cs.line,
            });
        }
    }

    for file in &ws.files {
        for def in &file.fns {
            if def.is_test {
                continue;
            }
            let Some(body) = &def.body else { continue };

            // op-emit: the serve dispatch match.
            if def.qual == "Service::stage" && file.path.ends_with("serve/src/service.rs") {
                for stmt in &body.stmts {
                    let is_dispatch = direct_strs(stmt).iter().any(|(_, s)| *s == "op")
                        && stmt.parts.iter().any(|p| matches!(p, StmtPart::Block(_)));
                    if !is_dispatch {
                        continue;
                    }
                    for part in &stmt.parts {
                        let StmtPart::Block(b) = part else { continue };
                        each_stmt(b, &mut |arm| {
                            if !has_free_call(arm, "Some") {
                                return;
                            }
                            for (line, s) in direct_strs(arm) {
                                if is_wire_token(s) {
                                    push(
                                        &mut sites, "op-emit", s, &def.qual, file, &def.qual, line,
                                    );
                                }
                            }
                        });
                    }
                }
            }

            // op-request: client builders pair "op" with the op name.
            if file.path.ends_with("serve/src/client.rs") {
                each_stmt(body, &mut |stmt| {
                    let strs = direct_strs(stmt);
                    for w in strs.windows(2) {
                        if w[0].1 == "op" && is_wire_token(w[1].1) {
                            push(
                                &mut sites,
                                "op-request",
                                w[1].1,
                                &def.qual,
                                file,
                                &def.qual,
                                w[0].0,
                            );
                        }
                    }
                });
            }

            // op-route: the router's routing table.
            if def.qual == "route_of" && file.path.ends_with("router/src/router.rs") {
                each_stmt(body, &mut |stmt| {
                    let class = stmt
                        .reads
                        .iter()
                        .position(|r| r == "Route")
                        .and_then(|i| stmt.reads.get(i + 1));
                    let Some(class) = class else { return };
                    for (line, s) in direct_strs(stmt) {
                        if is_wire_token(s) {
                            push(
                                &mut sites,
                                "op-route",
                                s,
                                &class.to_lowercase(),
                                file,
                                &def.qual,
                                line,
                            );
                        }
                    }
                });
            }

            // kind reads, resolved through the constant table.
            let section = kind_section(&file.path);
            each_stmt(body, &mut |stmt| {
                for r in &stmt.reads {
                    if let Some(value) = const_map.get(r.as_str()) {
                        push(
                            &mut sites, section, value, &def.qual, file, &def.qual, stmt.line,
                        );
                    }
                }
            });

            // EvalErrorKind::code — the batch-item kinds are emitted as
            // bare literals, not constant reads.
            if def.qual == "EvalErrorKind::code" && file.path.ends_with("core/src/error.rs") {
                each_stmt(body, &mut |stmt| {
                    for (line, s) in direct_strs(stmt) {
                        if is_wire_token(s) {
                            push(&mut sites, "kind-emit", s, &def.qual, file, &def.qual, line);
                        }
                    }
                });
            }

            // fields: the response renderers.
            if wire_crate(&file.path)
                && (def.name.ends_with("_json") || def.name == "shard_map_response")
            {
                each_stmt(body, &mut |stmt| {
                    for (line, s) in direct_strs(stmt) {
                        if is_wire_token(s) {
                            push(&mut sites, "fields", s, &def.qual, file, &def.qual, line);
                        }
                    }
                });
            }

            // frame: format! skeletons with `"name":` patterns.
            if wire_crate(&file.path) {
                each_stmt(body, &mut |stmt| {
                    for (line, s) in direct_strs(stmt) {
                        let fields = frame_fields(s);
                        if !fields.is_empty() {
                            push(
                                &mut sites,
                                "frame",
                                &fields.join(","),
                                &def.qual,
                                file,
                                &def.qual,
                                line,
                            );
                        }
                    }
                });
            }
        }
    }

    sites.sort();
    sites.dedup();
    sites
}

/// Records one site found in the body of the function `item`.
#[allow(clippy::too_many_arguments)]
fn push(
    sites: &mut Vec<WireSite>,
    section: &'static str,
    name: &str,
    detail: &str,
    file: &SourceFile,
    item: &str,
    line: u32,
) {
    sites.push(WireSite {
        section,
        name: name.to_owned(),
        detail: detail.to_owned(),
        path: file.path.clone(),
        item: item.to_owned(),
        line,
    });
}

/// Renders the catalogue as a TSV document — the snapshot format
/// committed under `crates/analyze/tests/snapshots/wire.tsv`. A site is
/// pinned as `path::item` rather than by line, so the snapshot moves
/// only when an emitter moves between items; sites that differ only by
/// line collapse into one row.
pub fn render_tsv(sites: &[WireSite]) -> String {
    let rows: BTreeSet<String> = sites
        .iter()
        .map(|s| {
            format!(
                "{}\t{}\t{}\t{}::{}\n",
                s.section, s.name, s.detail, s.path, s.item
            )
        })
        .collect();
    let mut out = String::from("# section\tname\tdetail\tsite\n");
    out.extend(rows);
    out
}

/// The finding `oa_lint` reports when the spec file itself is missing
/// or fails to parse (rule `wire_spec`).
pub fn spec_finding(spec_path: &str, detail: &str) -> Finding {
    Finding {
        path: spec_path.to_owned(),
        line: 1,
        rule: "wire_spec",
        message: format!("protocol spec unusable: {detail}"),
    }
}

/// Checks the extraction against the declared protocol, both ways.
pub fn check(ws: &Workspace, spec: &ProtocolSpec, spec_path: &str) -> Vec<Finding> {
    let sites = extract(ws);
    check_sites(&sites, spec, spec_path)
}

/// [`check`] over an already-extracted catalogue.
pub fn check_sites(sites: &[WireSite], spec: &ProtocolSpec, spec_path: &str) -> Vec<Finding> {
    let mut findings = Vec::new();

    let names = |section: &str| -> BTreeSet<&str> {
        sites
            .iter()
            .filter(|s| s.section == section)
            .map(|s| s.name.as_str())
            .collect()
    };
    let emitted = names("op-emit");
    let requested = names("op-request");
    let matched = names("kind-match");
    let kind_emitted = names("kind-emit");
    let routed: BTreeMap<&str, &str> = sites
        .iter()
        .filter(|s| s.section == "op-route")
        .map(|s| (s.name.as_str(), s.detail.as_str()))
        .collect();

    // wire_undeclared: the code ships something the spec does not know.
    for site in sites {
        let (what, declared) = match site.section {
            "op-emit" => (
                "emitted by the serve dispatch",
                spec.op(&site.name).is_some(),
            ),
            "op-request" => ("issued by the client", spec.op(&site.name).is_some()),
            "op-route" => ("routed by the router", spec.op(&site.name).is_some()),
            "const" => ("defined in the kind table", spec.kind(&site.name).is_some()),
            "kind-emit" | "kind-match" | "kind-ref" => {
                ("used as an error kind", spec.kind(&site.name).is_some())
            }
            _ => continue,
        };
        if !declared {
            findings.push(Finding {
                path: site.path.clone(),
                line: site.line,
                rule: "wire_undeclared",
                message: format!("'{}' is {what} but not declared in {spec_path}", site.name),
            });
        }
    }

    // wire_dead: the spec declares something no code produces.
    for op in &spec.ops {
        if !emitted.contains(op.name.as_str()) && !routed.contains_key(op.name.as_str()) {
            findings.push(Finding {
                path: spec_path.to_owned(),
                line: op.line,
                rule: "wire_dead",
                message: format!(
                    "declared op '{}' is neither dispatched by serve nor routed by the router",
                    op.name
                ),
            });
        }
    }
    for kind in &spec.kinds {
        if !kind_emitted.contains(kind.name.as_str()) {
            findings.push(Finding {
                path: spec_path.to_owned(),
                line: kind.line,
                rule: "wire_dead",
                message: format!("declared error kind '{}' is never emitted", kind.name),
            });
        }
    }

    // wire_client_match: ops the client issues must have their
    // retryable kinds matched somewhere on the consumer side, or the
    // retry loop silently treats them as terminal.
    for op in &spec.ops {
        if !requested.contains(op.name.as_str()) {
            continue;
        }
        for k in &op.errors {
            let Some(kd) = spec.kind(k) else { continue };
            if kd.retry && !kd.router_origin && !matched.contains(k.as_str()) {
                findings.push(Finding {
                    path: spec_path.to_owned(),
                    line: op.line,
                    rule: "wire_client_match",
                    message: format!(
                        "client issues '{}' but never matches its retryable error kind '{k}'",
                        op.name
                    ),
                });
            }
        }
    }

    // wire_router_coverage: every declared op must have a routing arm
    // of the declared class. Session ops pinned to the wrong class
    // lose sticky shard pinning — the exact bug class this rule exists
    // to catch.
    for op in &spec.ops {
        match routed.get(op.name.as_str()) {
            None => findings.push(Finding {
                path: spec_path.to_owned(),
                line: op.line,
                rule: "wire_router_coverage",
                message: format!("declared op '{}' has no routing arm in route_of", op.name),
            }),
            Some(class) if *class != op.route => findings.push(Finding {
                path: spec_path.to_owned(),
                line: op.line,
                rule: "wire_router_coverage",
                message: format!(
                    "op '{}' routes as '{class}' but is declared route={}",
                    op.name, op.route
                ),
            }),
            Some(_) => {}
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
kind injected class=retry
kind overloaded class=retry origin=router
op eval route=key request=spec response=fom errors=injected
op open_session route=session request=session response=session errors=injected
lifecycle open_session from=any to=open counter=reset
";

    const KINDS_RS: &str = "\
pub const INJECTED: &str = \"injected\";
pub const OVERLOADED: &str = \"overloaded\";
";

    const SERVICE_RS: &str = "\
pub struct Service;
impl Service {
    pub fn stage(&self, request: &Json) -> String {
        let outcome = match request.get(\"op\").and_then(Json::as_str) {
            Some(\"eval\") => self.op_eval(request),
            Some(\"open_session\") => self.op_open(request),
            Some(\"teleport\") => self.op_teleport(request),
            _ => err(),
        };
        outcome
    }
    fn fail(&self) -> String {
        typed(INJECTED)
    }
}
";

    const CLIENT_RS: &str = "\
pub fn eval(id: u64) -> String {
    Json::Obj(vec![
        (\"id\".into(), Json::num(id as f64)),
        (\"op\".into(), Json::str(\"eval\")),
        (\"spec\".into(), Json::str(\"s\")),
    ]).encode()
}
pub fn is_retry(kind: &str) -> bool {
    matches!(kind, INJECTED)
}
";

    const ROUTER_RS: &str = "\
fn route_of(op: &str) -> Route {
    match op {
        \"eval\" => Route::Key,
        _ => Route::Unknown,
    }
}
fn shed() -> String {
    typed_failure(OVERLOADED)
}
";

    fn workspace() -> Workspace {
        Workspace::parse(&[
            (
                "crates/serve/src/wire_kinds.rs".to_owned(),
                KINDS_RS.to_owned(),
            ),
            (
                "crates/serve/src/service.rs".to_owned(),
                SERVICE_RS.to_owned(),
            ),
            (
                "crates/serve/src/client.rs".to_owned(),
                CLIENT_RS.to_owned(),
            ),
            (
                "crates/router/src/router.rs".to_owned(),
                ROUTER_RS.to_owned(),
            ),
        ])
    }

    fn rows(sites: &[WireSite], section: &str) -> Vec<(String, String)> {
        sites
            .iter()
            .filter(|s| s.section == section)
            .map(|s| (s.name.clone(), s.detail.clone()))
            .collect()
    }

    #[test]
    fn extraction_recovers_every_anchor() {
        let sites = extract(&workspace());
        assert_eq!(
            rows(&sites, "op-emit")
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["eval", "open_session", "teleport"]
        );
        assert_eq!(
            rows(&sites, "op-request"),
            [("eval".to_owned(), "eval".to_owned())]
        );
        assert_eq!(
            rows(&sites, "op-route"),
            [("eval".to_owned(), "key".to_owned())]
        );
        assert_eq!(
            rows(&sites, "const"),
            [
                ("injected".to_owned(), "INJECTED".to_owned()),
                ("overloaded".to_owned(), "OVERLOADED".to_owned()),
            ]
        );
        // service.rs is a producer, client.rs a consumer.
        assert_eq!(
            rows(&sites, "kind-emit"),
            [
                ("injected".to_owned(), "Service::fail".to_owned()),
                ("overloaded".to_owned(), "shed".to_owned()),
            ]
        );
        assert_eq!(
            rows(&sites, "kind-match"),
            [("injected".to_owned(), "is_retry".to_owned())]
        );
    }

    #[test]
    fn undeclared_and_unrouted_ops_are_caught() {
        let spec = ProtocolSpec::parse(SPEC).unwrap();
        let findings = check(&workspace(), &spec, "protocol.spec");
        assert!(
            findings.iter().any(|f| f.rule == "wire_undeclared"
                && f.message.contains("'teleport'")
                && f.path.ends_with("service.rs")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.rule == "wire_router_coverage"
                && f.message.contains("'open_session'")
                && f.path == "protocol.spec"),
            "{findings:?}"
        );
        // Everything declared is alive and the client matches the
        // retryable kind, so neither other rule fires.
        assert!(
            !findings.iter().any(|f| f.rule == "wire_dead"),
            "{findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == "wire_client_match"),
            "{findings:?}"
        );
    }

    #[test]
    fn dead_declarations_and_unmatched_retry_kinds_are_caught() {
        // A spec with an op nothing emits and a retryable kind the
        // client never matches.
        let spec = ProtocolSpec::parse(
            "kind injected class=retry\n\
             kind overloaded class=retry origin=router\n\
             kind slow class=retry\n\
             op eval route=key request=spec response=fom errors=slow\n\
             op open_session route=session request=session response=session errors=\n\
             op ghost route=key request= response= errors=\n\
             lifecycle open_session from=any to=open counter=reset\n",
        )
        .unwrap();
        let findings = check(&workspace(), &spec, "protocol.spec");
        assert!(
            findings.iter().any(|f| f.rule == "wire_dead"
                && f.message.contains("declared op 'ghost'")
                && f.line == 6),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "wire_dead" && f.message.contains("kind 'slow'")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.rule == "wire_client_match"
                && f.message.contains("retryable error kind 'slow'")),
            "{findings:?}"
        );
    }

    #[test]
    fn tsv_is_deterministic_and_sorted() {
        let ws = workspace();
        let a = render_tsv(&extract(&ws));
        let b = render_tsv(&extract(&ws));
        assert_eq!(a, b);
        assert!(a.starts_with("# section\tname\tdetail\tsite\n"));
        let body: Vec<&str> = a.lines().skip(1).collect();
        let mut sorted = body.clone();
        sorted.sort_unstable();
        assert_eq!(body, sorted, "rows must be sorted");
    }

    #[test]
    fn tsv_pins_sites_by_item_not_line() {
        let before = render_tsv(&extract(&workspace()));
        // Shift every line of the service file and emit the same kind
        // twice more in the same function.
        let service = format!(
            "\n\n{}",
            SERVICE_RS.replace(
                "typed(INJECTED)",
                "typed(INJECTED);\n        typed(INJECTED)"
            )
        );
        let shifted = Workspace::parse(&[
            (
                "crates/serve/src/wire_kinds.rs".to_owned(),
                KINDS_RS.to_owned(),
            ),
            ("crates/serve/src/service.rs".to_owned(), service),
            (
                "crates/serve/src/client.rs".to_owned(),
                CLIENT_RS.to_owned(),
            ),
            (
                "crates/router/src/router.rs".to_owned(),
                ROUTER_RS.to_owned(),
            ),
        ]);
        assert_eq!(render_tsv(&extract(&shifted)), before);
        assert!(
            before.contains(
                "kind-emit\tinjected\tService::fail\tcrates/serve/src/service.rs::Service::fail\n"
            ),
            "{before}"
        );
    }

    #[test]
    fn wire_tokens_filter_prose() {
        assert!(is_wire_token("eval_batch"));
        assert!(is_wire_token("x"));
        assert!(is_wire_token("gbw_hz"));
        assert!(!is_wire_token("finite request"));
        assert!(!is_wire_token("BAD"));
        assert!(!is_wire_token(""));
        assert!(!is_wire_token("a-b"));
    }
}
