//! Lock-order deadlock detection over an interprocedural
//! lock-acquisition graph.
//!
//! A deadlock needs two threads acquiring the same locks in different
//! orders. The analysis builds a directed graph whose nodes are *lock
//! classes* and whose edge `A → B` means "somewhere, `B` is acquired
//! while `A` is held" — directly in one function, or transitively: a
//! call made while holding `A` reaches a function that may acquire
//! `B`. A cycle in that graph is a potential deadlock and is rejected.
//!
//! **Lock classes.** A lock stored in a struct field gets the
//! workspace-global class `Type.field` (`Service.store`) — the same
//! field reached through any receiver chain is one lock. A lock that
//! is only visible as a parameter or local gets a function-qualified
//! class (`worker_loop#rx`): distinct classes per function, an
//! under-approximation for locks passed across calls (DESIGN.md §10).
//!
//! **Guard scopes.** `let g = x.lock()…;` holds to the end of the
//! enclosing block or an explicit `drop(g)`; any other acquisition
//! (a temporary like `x.lock().unwrap().push(..)`, or a `match
//! x.lock()` scrutinee) holds to the end of its statement. The parser
//! marks the former via [`Stmt::guard_bind`](crate::ast::Stmt) and
//! refuses the marking when control flow intervenes, so `match`-arm
//! temporaries are never over-extended.

use crate::ast::{Block, CallTarget, Event, StmtPart};
use crate::callgraph::{CallGraph, TypeEnv};
use crate::lint::Finding;
use crate::reachability::Allowed;
use std::collections::{BTreeMap, BTreeSet};

/// Where a lock-order edge was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeOrigin {
    /// File of the acquisition (or call) that created the edge.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable context (`in Service::handle_line`, possibly
    /// `via call to Store::put`).
    pub via: String,
}

/// The lock-acquisition order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` → first observed origin.
    pub edges: BTreeMap<(String, String), EdgeOrigin>,
}

/// One lock being held during traversal.
struct Held {
    class: String,
    guard_var: Option<String>,
    stmt_scoped: bool,
    block_level: usize,
}

/// Per-function context for the intra-procedural walk.
struct FnCtx<'g, 'w> {
    graph: &'g CallGraph<'w>,
    env: TypeEnv,
    fn_qual: String,
    file: String,
    /// fn node id → classes it may acquire (transitive).
    may_acquire: &'g [BTreeSet<String>],
    edges: &'g mut BTreeMap<(String, String), EdgeOrigin>,
}

/// Classifies a method event as a lock acquisition, returning the lock
/// class. `read`/`write` require a receiver that provably resolves to
/// `RwLock` (they are common io method names); `lock` also accepts an
/// unresolvable receiver, classed per-function (opaque). Shared with
/// the effect inference (`AcquiresLock` seeding and the
/// `lock_across_blocking` held-set walk).
pub(crate) fn acquisition_class(
    graph: &CallGraph<'_>,
    env: &TypeEnv,
    fn_qual: &str,
    name: &str,
    recv: &str,
) -> Option<String> {
    if !matches!(name, "lock" | "read" | "write") {
        return None;
    }
    match graph.resolve_chain(env, recv) {
        Some(ty) => {
            let head = crate::ast::deref_head(&ty);
            let is_lock = match name {
                "lock" => head == "Mutex",
                _ => head == "RwLock",
            };
            if !is_lock {
                return None;
            }
            if let Some((owner, field)) = graph.resolve_field_owner(env, recv) {
                Some(format!("{owner}.{field}"))
            } else {
                Some(format!("{fn_qual}#{recv}"))
            }
        }
        // `.lock()` strongly implies a mutex even when the receiver
        // type is unknown (match-bound vars, Arc locals without
        // generics evidence); `.read()`/`.write()` do not.
        None if name == "lock" => {
            let tag = if recv.is_empty() { "<expr>" } else { recv };
            Some(format!("{fn_qual}#{tag}"))
        }
        None => None,
    }
}

/// Builds the lock graph for the whole workspace.
pub fn lock_graph(graph: &CallGraph<'_>) -> LockGraph {
    // Pass 1: direct acquisitions per fn (for the may-acquire sets).
    let mut direct: Vec<BTreeSet<String>> = Vec::with_capacity(graph.nodes.len());
    for id in 0..graph.nodes.len() {
        let mut set = BTreeSet::new();
        let def = graph.def(id);
        if let Some(body) = &def.body {
            let env = graph.type_env(id);
            body.walk(&mut |_s, ev| {
                if let Event::Call(call) = ev {
                    if let CallTarget::Method { name, recv } = &call.target {
                        if let Some(class) = acquisition_class(graph, &env, &def.qual, name, recv) {
                            set.insert(class);
                        }
                    }
                }
            });
        }
        direct.push(set);
    }
    // Fixpoint: may_acquire = direct ∪ callees' may_acquire.
    let mut may = direct;
    loop {
        let mut changed = false;
        for id in 0..graph.nodes.len() {
            let mut add: Vec<String> = Vec::new();
            for e in &graph.edges[id] {
                for c in &may[e.callee] {
                    if !may[id].contains(c) {
                        add.push(c.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                may[id].extend(add);
            }
        }
        if !changed {
            break;
        }
    }
    // Pass 2: ordered walk with held-set tracking.
    let mut edges = BTreeMap::new();
    for id in 0..graph.nodes.len() {
        let def = graph.def(id);
        let Some(body) = &def.body else { continue };
        let mut ctx = FnCtx {
            graph,
            env: graph.type_env(id),
            fn_qual: def.qual.clone(),
            file: graph.file(id).path.clone(),
            may_acquire: &may,
            edges: &mut edges,
        };
        let mut held: Vec<Held> = Vec::new();
        walk_block(&mut ctx, body, &mut held, 0, id);
    }
    LockGraph { edges }
}

fn walk_block(
    ctx: &mut FnCtx<'_, '_>,
    block: &Block,
    held: &mut Vec<Held>,
    level: usize,
    fn_id: usize,
) {
    for stmt in &block.stmts {
        let mut first_acquisition = true;
        for part in &stmt.parts {
            match part {
                StmtPart::Block(b) => walk_block(ctx, b, held, level + 1, fn_id),
                StmtPart::Event(Event::DropVar { name, .. }) => {
                    held.retain(|h| h.guard_var.as_deref() != Some(name));
                }
                StmtPart::Event(Event::Index { .. } | Event::Guard { .. } | Event::Str { .. }) => {}
                StmtPart::Event(Event::Call(call)) => match &call.target {
                    CallTarget::Method { name, recv } => {
                        if let Some(class) =
                            acquisition_class(ctx.graph, &ctx.env, &ctx.fn_qual, name, recv)
                        {
                            for h in held.iter() {
                                if h.class != class {
                                    record_edge(ctx, &h.class, &class, call.line, None);
                                }
                            }
                            let is_guard = stmt.guard_bind.is_some() && first_acquisition;
                            first_acquisition = false;
                            held.push(Held {
                                class,
                                guard_var: if is_guard {
                                    stmt.guard_bind.clone()
                                } else {
                                    None
                                },
                                stmt_scoped: !is_guard,
                                block_level: level,
                            });
                        } else {
                            callee_edges(ctx, call.line, held, fn_id);
                        }
                    }
                    CallTarget::Free { .. } => {
                        callee_edges(ctx, call.line, held, fn_id);
                    }
                    CallTarget::Macro { .. } => {}
                },
            }
        }
        // Statement temporaries die here (only this level's — an outer
        // statement still in progress keeps its temporaries).
        held.retain(|h| !(h.stmt_scoped && h.block_level == level));
    }
    held.retain(|h| h.block_level != level);
}

/// Records `held → everything a callee may acquire` for every call
/// made while locks are held. Callees come from the already-resolved
/// call graph, matched by call-site line.
fn callee_edges(ctx: &mut FnCtx<'_, '_>, line: u32, held: &[Held], fn_id: usize) {
    if held.is_empty() {
        return;
    }
    let callees: Vec<usize> = ctx.graph.edges[fn_id]
        .iter()
        .filter(|e| e.line == line)
        .map(|e| e.callee)
        .collect();
    for callee in callees {
        let acquired: Vec<String> = ctx.may_acquire[callee].iter().cloned().collect();
        let callee_qual = ctx.graph.def(callee).qual.clone();
        for h in held {
            for class in &acquired {
                if &h.class != class {
                    record_edge(ctx, &h.class, class, line, Some(&callee_qual));
                }
            }
        }
    }
}

fn record_edge(ctx: &mut FnCtx<'_, '_>, from: &str, to: &str, line: u32, via_call: Option<&str>) {
    let key = (from.to_owned(), to.to_owned());
    let via = match via_call {
        Some(callee) => format!("in {} via call to {callee}", ctx.fn_qual),
        None => format!("in {}", ctx.fn_qual),
    };
    ctx.edges.entry(key).or_insert(EdgeOrigin {
        file: ctx.file.clone(),
        line,
        via,
    });
}

impl LockGraph {
    /// All elementary cycles found by DFS, each as the ordered list of
    /// its edges, deduplicated by normalized rotation. Deterministic.
    pub fn cycles(&self) -> Vec<Vec<(String, String)>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            adj.entry(from).or_default().push(to);
        }
        let mut found: BTreeSet<Vec<(String, String)>> = BTreeSet::new();
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for start in nodes {
            let mut stack: Vec<&str> = vec![start];
            let mut on_stack: BTreeSet<&str> = [start].into();
            dfs(start, &adj, &mut stack, &mut on_stack, &mut found);
        }
        found.into_iter().collect()
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    stack: &mut Vec<&'a str>,
    on_stack: &mut BTreeSet<&'a str>,
    found: &mut BTreeSet<Vec<(String, String)>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = stack.iter().position(|&n| n == next) {
            // Cycle: stack[pos..] + back edge. Normalize rotation to
            // start at the lexicographically smallest node.
            let cyc: Vec<&str> = stack[pos..].to_vec();
            let min = cyc
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map_or(0, |(i, _)| i);
            let rotated: Vec<&str> = cyc[min..]
                .iter()
                .chain(cyc[..min].iter())
                .copied()
                .collect();
            let edges: Vec<(String, String)> = rotated
                .iter()
                .zip(rotated.iter().cycle().skip(1))
                .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
                .collect();
            found.insert(edges);
        } else if !on_stack.contains(next) && stack.len() < 32 {
            stack.push(next);
            on_stack.insert(next);
            dfs(next, adj, stack, on_stack, found);
            stack.pop();
            on_stack.remove(next);
        }
    }
}

/// Runs the analysis: builds the lock graph, reports each cycle not
/// waived by a `lock_order` annotation on one of its edges.
pub fn check(graph: &CallGraph<'_>, allowed: &Allowed) -> Vec<Finding> {
    let lg = lock_graph(graph);
    let mut findings = Vec::new();
    for cycle in lg.cycles() {
        let origins: Vec<&EdgeOrigin> = cycle.iter().filter_map(|key| lg.edges.get(key)).collect();
        let waived = origins.iter().any(|o| {
            allowed
                .get(&o.file)
                .and_then(|rules| rules.get("lock_order"))
                .is_some_and(|lines| lines.contains(&o.line))
        });
        if waived {
            continue;
        }
        let mut desc = String::from("lock-order cycle: ");
        for (i, ((from, to), origin)) in cycle.iter().zip(&origins).enumerate() {
            if i > 0 {
                desc.push_str("; ");
            }
            let base = origin.file.rsplit('/').next().unwrap_or("");
            desc.push_str(&format!(
                "{from} -> {to} (at {base}:{} {})",
                origin.line, origin.via
            ));
        }
        let first = origins.first();
        findings.push(Finding {
            path: first.map_or_else(String::new, |o| o.file.clone()),
            line: first.map_or(0, |o| o.line),
            rule: "lock_order",
            message: desc,
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, LockGraph) {
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
        let f = check(&graph, &allowed);
        let ws2 = Workspace::parse(&inputs);
        let graph2 = CallGraph::build(&ws2);
        (f, lock_graph(&graph2))
    }

    const PAIR: &str = "pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn ab_ba_cycle_is_detected_with_both_sites() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(lg.edges.contains_key(&("Pair.a".into(), "Pair.b".into())));
        assert!(lg.edges.contains_key(&("Pair.b".into(), "Pair.a".into())));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("Pair.a -> Pair.b"),
            "{}",
            f[0].message
        );
        assert!(
            f[0].message.contains("Pair.b -> Pair.a"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn consistent_order_is_silent() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ab_again(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
        assert!(!lg.edges.contains_key(&("Pair.b".into(), "Pair.a".into())));
    }

    #[test]
    fn interprocedural_cycle_through_a_call_is_detected() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    self.take_b();
                }}
                fn take_b(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    self.take_a();
                }}
                fn take_a(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("via call to"), "{}", f[0].message);
    }

    #[test]
    fn inner_block_scope_releases_the_guard() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn scoped(&self) {{
                    {{
                        let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    }}
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, lg) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(
            !lg.edges.contains_key(&("Pair.a".into(), "Pair.b".into())),
            "guard released at block end: {lg:?}"
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn sequential(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    drop(ga);
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn match_scrutinee_lock_is_statement_scoped() {
        let src = "
            pub struct Q { q: Mutex<Vec<u32>> }
            impl Q {
                fn dequeue(&self) -> Option<u32> {
                    let item = match self.q.lock() { Ok(mut g) => g.pop(), Err(p) => None };
                    self.other(item)
                }
                fn other(&self, x: Option<u32>) -> Option<u32> { x }
            }";
        let (_, lg) = run(&[("crates/serve/src/a.rs", src)]);
        // The scrutinee guard must not be held across `self.other(..)`
        // on the following statement.
        assert!(
            lg.edges.is_empty(),
            "statement-scoped scrutinee leaked: {lg:?}"
        );
    }

    #[test]
    fn annotation_on_a_cycle_edge_waives_it() {
        let src = format!(
            "{PAIR}
            impl Pair {{
                fn ab(&self) {{
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                }}
                fn ba(&self) {{
                    let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
                    // lint: allow(lock_order, ba only runs single-threaded at startup)
                    let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
                }}
            }}"
        );
        let (f, _) = run(&[("crates/serve/src/a.rs", &src)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
