//! Properties of the real workspace's call graph that the analyses
//! rely on but cannot report themselves:
//!
//! * **Every analysis root resolves.** `reachability::ROOTS` names the
//!   functions the `panic` and effect rules walk from. A renamed root
//!   resolves to nothing, and its rule then checks nothing while still
//!   reporting clean.
//! * **The lock graph has no cycle, waived or not.** A `lock_order`
//!   annotation waives a cycle for the lint; the workspace itself
//!   carries none.
//!
//! A seeded regression proves the check names the root that broke.
//! Cycle detection itself is pinned by `fixtures/locks_bad.rs`.

use oa_analyze::callgraph::{CallGraph, Workspace};
use oa_analyze::reachability::{resolve_root, ROOTS};
use oa_analyze::{locks, read_workspace};
use std::path::Path;

/// Every violated property of the workspace `inputs`, one line each.
fn violations(inputs: &[(String, String)]) -> Vec<String> {
    let ws = Workspace::parse(inputs);
    let graph = CallGraph::build(&ws);
    let mut out: Vec<String> = ROOTS
        .iter()
        .filter(|&&(_, qual, krate)| resolve_root(&graph, qual, krate).is_empty())
        .map(|(rule, qual, _)| format!("{rule} root {qual} resolves to no function"))
        .collect();
    for cycle in locks::lock_graph(&graph).cycles() {
        let names: Vec<&str> = cycle.iter().map(|(a, _)| a.as_str()).collect();
        out.push(format!("lock cycle: {}", names.join(" -> ")));
    }
    out
}

/// Same file set as `oa_lint`.
fn workspace_inputs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap();
    read_workspace(root).unwrap()
}

#[test]
fn roots_resolve_and_lock_graph_is_acyclic() {
    let found = violations(&workspace_inputs());
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn renamed_root_is_named() {
    let mut inputs = workspace_inputs();
    let service = inputs
        .iter_mut()
        .find(|(p, _)| p == "crates/serve/src/service.rs")
        .unwrap();
    let seeded = service
        .1
        .replace("pub fn handle_line(", "pub fn handle_request_line(");
    assert_ne!(seeded, service.1, "seed site must exist");
    service.1 = seeded;

    assert_eq!(
        violations(&inputs),
        vec!["panic root Service::handle_line resolves to no function"]
    );
}
