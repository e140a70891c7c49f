//! Engine orchestration: runs the full workspace analysis and merges
//! the findings.
//!
//! Every file is parsed ([`crate::parser`]) into the workspace call
//! graph ([`crate::callgraph`]), which the whole-program analyses walk:
//!
//! * `panic` — sites *reachable from a serving entry point*, with the
//!   call chain ([`crate::reachability`]), minus the indexing sites the
//!   value-range analysis proves in-bounds ([`crate::ranges`]);
//! * `determinism` — iteration-order taint from `HashMap`/`HashSet`
//!   to serialization sinks ([`crate::taint`]);
//! * `lock_order` — lock-acquisition cycles ([`crate::locks`]);
//! * the effect rules ([`crate::effects`]) and, given the declared
//!   protocol, the wire rules ([`crate::wire`]).
//!
//! The token-shaped rules (`wall_clock`, `float_format`,
//! `forbid_unsafe`, annotation hygiene) run per file through
//! [`crate::lint::lint_source`] — they are token-shaped properties and
//! the token scanner is the right tool for them.

use crate::callgraph::{CallGraph, Workspace};
use crate::lint::{annotations_of, lint_source, Finding};
use crate::protocol::ProtocolSpec;
use crate::ranges::Discharge;
use crate::reachability::Allowed;
use crate::{effects, locks, ranges, reachability, taint, wire};
use std::collections::BTreeSet;

/// The declared wire protocol handed to the wire pass: the spec's
/// display path (used in findings) and its text, `None` when the file
/// could not be read. `run_with(.., Some(..))` enables the pass; the
/// pass is skipped entirely when absent (unit tests, fixtures).
#[derive(Debug, Clone)]
pub struct WireInput {
    /// Display path of the spec file (workspace-relative).
    pub path: String,
    /// Spec text; `None` reports `wire_spec` (missing file).
    pub text: Option<String>,
}

/// Wall-clock milliseconds per analysis phase, for `--timings` and
/// `scripts/bench_smoke.sh`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimings {
    /// Parsing plus the token-shaped rules.
    pub parse_ms: u128,
    /// Call-graph construction.
    pub callgraph_ms: u128,
    /// Value-range discharge.
    pub ranges_ms: u128,
    /// Reachability, lock order, taint, and effect inference.
    pub effects_ms: u128,
    /// Wire-schema extraction and spec conformance.
    pub wire_ms: u128,
}

/// The outcome of a workspace analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions in the call graph.
    pub fns: usize,
    /// Call edges resolved.
    pub edges: usize,
    /// Indexing sites the value-range analysis proved in-bounds —
    /// printed under `--explain-discharges`.
    pub discharged: Vec<Discharge>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

/// Runs the analysis over `(path, source)` pairs for the whole
/// workspace. Paths are workspace-relative with forward slashes.
/// Equivalent to [`run_with`] without a wire spec.
pub fn run(inputs: &[(String, String)]) -> Report {
    run_with(inputs, None)
}

/// [`run`], optionally with the declared wire protocol: when
/// `wire_input` is present the wire schema is extracted and checked against the
/// spec (rules `wire_*`).
pub fn run_with(inputs: &[(String, String)], wire_input: Option<&WireInput>) -> Report {
    let mut timings = PhaseTimings::default();
    // lint: allow(wall_clock, phase timing for --timings, not a response path)
    let t = std::time::Instant::now();

    // Token-shaped rules. Annotation-hygiene findings
    // (`bad_annotation`) come from this pass; `annotations_of` below is
    // used only for its line map.
    let ws = Workspace::parse(inputs);
    let mut findings = Vec::new();
    let mut allowed = Allowed::new();
    for (path, source) in inputs {
        findings.extend(lint_source(path, source));
        let (rules, _) = annotations_of(path, source);
        allowed.insert(path.clone(), rules);
    }
    timings.parse_ms = t.elapsed().as_millis();

    // lint: allow(wall_clock, phase timing for --timings, not a response path)
    let t = std::time::Instant::now();
    let graph = CallGraph::build(&ws);
    timings.callgraph_ms = t.elapsed().as_millis();

    // Value-range analysis first: its proven sites are subtracted from
    // the panic-reachability findings (and need no annotation).
    // lint: allow(wall_clock, phase timing for --timings, not a response path)
    let t = std::time::Instant::now();
    let discharged = ranges::discharges(&graph);
    let discharged_lines: BTreeSet<(String, u32)> = discharged
        .iter()
        .map(|d| (d.path.clone(), d.line))
        .collect();
    timings.ranges_ms = t.elapsed().as_millis();

    // lint: allow(wall_clock, phase timing for --timings, not a response path)
    let t = std::time::Instant::now();
    findings.extend(reachability::check(&graph, &allowed, &discharged_lines));
    findings.extend(locks::check(&graph, &allowed));
    findings.extend(taint::check(&graph, &allowed));
    findings.extend(effects::check(&graph, &allowed));
    timings.effects_ms = t.elapsed().as_millis();

    // Wire-schema extraction vs the declared protocol.
    // lint: allow(wall_clock, phase timing for --timings, not a response path)
    let t = std::time::Instant::now();
    if let Some(w) = wire_input {
        match &w.text {
            None => findings.push(wire::spec_finding(&w.path, "file is missing or unreadable")),
            Some(text) => match ProtocolSpec::parse(text) {
                Err(e) => findings.push(wire::spec_finding(&w.path, &e)),
                Ok(spec) => findings.extend(wire::check(&ws, &spec, &w.path)),
            },
        }
    }
    timings.wire_ms = t.elapsed().as_millis();

    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup();

    let edges = graph.edges.iter().map(Vec::len).sum();
    Report {
        findings,
        files: inputs.len(),
        fns: graph.nodes.len(),
        edges,
        discharged,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect()
    }

    #[test]
    fn ast_engine_skips_unreachable_panic() {
        // An unwrap in a request-path file, but in a function no entry
        // point reaches.
        let files = inputs(&[(
            "crates/serve/src/service.rs",
            "fn offline_tool(v: Option<u8>) -> u8 { v.unwrap() }",
        )]);
        let ast = run(&files);
        assert!(
            !ast.findings.iter().any(|f| f.rule == "panic"),
            "{:?}",
            ast.findings
        );
    }

    #[test]
    fn ast_engine_still_runs_the_token_shaped_rules() {
        let files = inputs(&[(
            "crates/serve/src/service.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        )]);
        let ast = run(&files);
        assert!(
            ast.findings.iter().any(|f| f.rule == "wall_clock"),
            "{:?}",
            ast.findings
        );
    }

    #[test]
    fn ast_engine_finds_reachable_panics_with_chain() {
        let files = inputs(&[(
            "crates/serve/src/service.rs",
            "pub struct Service;\n\
             impl Service { pub fn handle_line(&self, v: Option<u8>) -> u8 { v.unwrap() } }",
        )]);
        let ast = run(&files);
        let panics: Vec<_> = ast.findings.iter().filter(|f| f.rule == "panic").collect();
        assert_eq!(panics.len(), 1, "{:?}", ast.findings);
        assert!(panics[0]
            .message
            .contains("reachable from Service::handle_line"));
    }

    #[test]
    fn report_counts_are_populated_under_ast() {
        let files = inputs(&[("crates/core/src/lib.rs", "pub fn a() { b(); }\nfn b() {}")]);
        let r = run(&files);
        assert_eq!(r.files, 1);
        assert_eq!(r.fns, 2);
        assert_eq!(r.edges, 1);
    }
}
