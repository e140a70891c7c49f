//! Panic reachability (rule `panic`).
//!
//! The analysis asks the question that matters for the serving
//! contract: *can a client request, a pool job, or a store recovery
//! transitively reach this panic site?* It BFS-walks the call graph
//! from the `panic` entries of [`ROOTS`], collects panic sites in
//! functions of the [`HARDENED_CRATES`], and reports each
//! un-annotated site together with the full call chain from the entry
//! point — the chain is the diagnostic's payload; "this can panic" is
//! only useful if you can see *how* it is reached.
//!
//! Functions in non-hardened crates (the numeric domain layer:
//! linalg, sim, core, …) are still *traversed* — a handler calling
//! into `oa-linalg` keeps walking through it — but their own indexing
//! sites are not collected: the domain layer's panic policy is "panics
//! are bugs caught by the sweep tests", not "panics are annotated".
//! DESIGN.md §10 records this boundary.

use crate::ast::{CallTarget, Event, Stmt};
use crate::callgraph::CallGraph;
use crate::lint::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Every function a reachability-driven rule walks the call graph
/// from, as `(rule, qualified name, crate)`; a `None` crate accepts a
/// definition in any crate. The `panic` roots are the functions client
/// work enters through — the serve handler, connection loop and pool
/// worker, store recovery, and the router's thread entry functions; the
/// effect rules ([`crate::effects`]) read theirs here too. A root that resolves to nothing silently leaves its
/// rule checking nothing, so the workspace property test asserts every
/// root resolves.
pub const ROOTS: &[(&str, &str, Option<&str>)] = &[
    ("panic", "Service::handle_line", None),
    ("panic", "connection_loop", None),
    ("panic", "worker_loop", None),
    ("panic", "Store::open_with_faults", None),
    ("panic", "accept_loop", Some("oa_router")),
    ("panic", "client_loop", Some("oa_router")),
    ("panic", "link_loop", Some("oa_router")),
    ("panic", "Outbound::write_loop", Some("oa_router")),
    (
        "alloc_free_kernel",
        "SymbolicPlan::factor",
        Some("oa_linalg"),
    ),
    (
        "alloc_free_kernel",
        "SymbolicPlan::solve_gated",
        Some("oa_linalg"),
    ),
];

/// The call-graph nodes named `qual`, restricted to lib crate `krate`
/// when given.
pub fn resolve_root(graph: &CallGraph<'_>, qual: &str, krate: Option<&str>) -> Vec<usize> {
    graph
        .find_qual(qual)
        .into_iter()
        .filter(|&id| krate.is_none_or(|k| graph.file(id).crate_name == k))
        .collect()
}

/// The resolved nodes of every root of `rule`, in [`ROOTS`] order.
pub(crate) fn roots_of(graph: &CallGraph<'_>, rule: &str) -> Vec<usize> {
    ROOTS
        .iter()
        .filter(|(r, _, _)| *r == rule)
        .flat_map(|&(_, qual, krate)| resolve_root(graph, qual, krate))
        .collect()
}

/// Lib names of the crates whose panic sites must be annotated when
/// reachable. `oa_bo`, `oa_gp` and `oa_graph` joined when the session
/// ops put the BO propose/observe loop and the WL-GP fit on the
/// `Service::handle_line` request path (DESIGN.md §13).
pub const HARDENED_CRATES: &[&str] = &[
    "oa_serve",
    "oa_par",
    "oa_store",
    "oa_fault",
    "oa_router",
    "oa_bo",
    "oa_gp",
    "oa_graph",
];

/// Macros that unconditionally (or assertion-conditionally) panic.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Per-file allowed lines per rule, as collected by
/// [`crate::lint::annotations_of`].
pub type Allowed = BTreeMap<String, BTreeMap<&'static str, Vec<u32>>>;

/// Runs the analysis. `allowed` maps file path → rule → annotated
/// lines; `discharged` holds `(path, line)` indexing sites the
/// value-range analysis proved in-bounds (see [`crate::ranges`]) —
/// those report nothing and need no annotation.
pub fn check(
    graph: &CallGraph<'_>,
    allowed: &Allowed,
    discharged: &BTreeSet<(String, u32)>,
) -> Vec<Finding> {
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];
    let mut reached: Vec<bool> = vec![false; graph.nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    for id in roots_of(graph, "panic") {
        if !reached[id] {
            reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.edges[id] {
            if !reached[e.callee] {
                reached[e.callee] = true;
                parent[e.callee] = Some((id, e.line));
                queue.push_back(e.callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (id, &is_reached) in reached.iter().enumerate() {
        if !is_reached {
            continue;
        }
        let file = graph.file(id);
        if !HARDENED_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let def = graph.def(id);
        let Some(body) = &def.body else { continue };
        let allowed_lines = allowed
            .get(&file.path)
            .and_then(|rules| rules.get("panic"))
            .cloned()
            .unwrap_or_default();
        body.walk(&mut |_stmt: &Stmt, ev: &Event| {
            let (line, what) = match ev {
                Event::Call(call) => match &call.target {
                    CallTarget::Macro { name } if PANIC_MACROS.contains(&name.as_str()) => {
                        (call.line, format!("{name}! panics"))
                    }
                    CallTarget::Method { name, .. }
                        if matches!(name.as_str(), "unwrap" | "expect") =>
                    {
                        (call.line, format!(".{name}() can panic"))
                    }
                    _ => return,
                },
                Event::Index { line, .. } => {
                    if discharged.contains(&(file.path.clone(), *line)) {
                        return; // proven in-bounds by the range analysis
                    }
                    (*line, "slice/array indexing can panic".to_owned())
                }
                Event::DropVar { .. } | Event::Guard { .. } | Event::Str { .. } => return,
            };
            if allowed_lines.contains(&line) {
                return;
            }
            findings.push(Finding {
                path: file.path.clone(),
                line,
                rule: "panic",
                message: format!("{what}; {}", chain_text(graph, &parent, id)),
            });
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Formats the entry→site call chain from the BFS parent pointers:
/// `reachable from Service::handle_line: Service::handle_line ->
/// Store::put (service.rs:88) -> parse_record (log.rs:102)`. Shared
/// with the effect rules, which BFS from their own entry points.
pub(crate) fn chain_text(
    graph: &CallGraph<'_>,
    parent: &[Option<(usize, u32)>],
    id: usize,
) -> String {
    // hops[i] = (node, line of the call in node's body that reaches
    // hops[i+1]); the last hop carries no outgoing line.
    let mut hops: Vec<(usize, Option<u32>)> = Vec::new();
    let mut cur = id;
    let mut via: Option<u32> = None;
    loop {
        hops.push((cur, via));
        match parent[cur] {
            Some((p, line)) if hops.len() <= 64 => {
                via = Some(line);
                cur = p;
            }
            _ => break,
        }
    }
    hops.reverse();
    let entry = graph.def(hops[0].0).qual.clone();
    let mut text = format!("reachable from {entry}: {entry}");
    for i in 1..hops.len() {
        let (caller, call_line) = hops[i - 1];
        let base = graph.file(caller).path.rsplit('/').next().unwrap_or("");
        text.push_str(&format!(
            " -> {} (at {base}:{})",
            graph.def(hops[i].0).qual,
            call_line.unwrap_or(0)
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        let ws = Workspace::parse(&inputs);
        let graph = CallGraph::build(&ws);
        let mut allowed = Allowed::new();
        for (path, src) in &inputs {
            let (rules, _) = crate::lint::annotations_of(path, src);
            allowed.insert(path.clone(), rules);
        }
        check(&graph, &allowed, &BTreeSet::new())
    }

    #[test]
    fn panic_reachable_from_handler_is_reported_with_chain() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct Service;
            impl Service {
                pub fn handle_line(&self) { step_one(); }
            }
            fn step_one() { step_two(); }
            fn step_two(v: &[u8]) -> u8 { v[17] }
            "#,
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panic");
        assert!(f[0].message.contains("indexing"), "{}", f[0].message);
        assert!(
            f[0].message
                .contains("Service::handle_line -> step_one (at service.rs:4) -> step_two"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn unreachable_panic_sites_are_silent() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            "fn offline_tool(v: &[u8]) -> u8 { v[0] }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_sites_are_silent() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct Service;
            impl Service {
                pub fn handle_line(&self, v: &[u8]) -> u8 {
                    // lint: allow(panic, length checked by framing layer)
                    v[0]
                }
            }
            "#,
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn domain_crates_are_traversed_but_not_collected() {
        let f = run(&[
            (
                "crates/serve/src/service.rs",
                "pub struct Service;\nimpl Service { pub fn handle_line(&self) { solve(); } }",
            ),
            (
                "crates/linalg/src/lu.rs",
                "pub fn solve(a: &[f64]) -> f64 { a[0] }",
            ),
        ]);
        assert!(
            f.is_empty(),
            "domain-layer indexing is not collected: {f:?}"
        );
    }

    #[test]
    fn panic_macro_and_unwrap_in_pool_are_reported() {
        let f = run(&[(
            "crates/par/src/pool.rs",
            r#"
            pub fn worker_loop(rx: Receiver<Job>) {
                let job = rx.recv().unwrap();
                if job.poison { panic!("poisoned"); }
            }
            "#,
        )]);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["panic", "panic"]);
        assert!(f[0].message.contains(".unwrap() can panic"));
        assert!(f[1].message.contains("panic! panics"));
    }
}
