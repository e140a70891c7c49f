//! Effect inference: a bottom-up fixpoint over the call graph.
//!
//! Every function gets an *effect set* — a small lattice of facts
//! about what running it may do:
//!
//! | effect         | seeded from                                        |
//! |----------------|----------------------------------------------------|
//! | `Blocks`       | `thread::sleep`, `connect`, channel `recv`/`send`, |
//! |                | condvar `wait*`, io on sockets/unknown receivers   |
//! | `Allocates`    | `push`/`insert`/`collect`/`to_vec`/…, `format!`,   |
//! |                | `vec!`, `Box::new`, `with_capacity`                |
//! | `AcquiresLock` | `Mutex::lock` / `RwLock::read`/`write` (via the    |
//! |                | lock analysis' acquisition classifier)             |
//! | `PerformsIo`   | file/socket reads and writes, `accept`, `fs::*`    |
//! | `WallClock`    | `Instant::now`, `SystemTime::now`, `.elapsed()`    |
//! | `Panics`       | `unwrap`/`expect`, indexing, `panic!`-family       |
//!
//! The fixpoint unions every callee's set into its callers until
//! nothing changes, recording for each effect bit a deterministic
//! *witness* — the direct site or the call edge that introduced it —
//! so every diagnostic can print the full entry→site chain.
//!
//! `Blocks` deliberately means *may park the thread indefinitely on
//! external progress*: io on a socket or an unknown receiver — buffered
//! or single-shot `read`/`write`/`accept` alike, since every socket in
//! the workspace is blocking — is `Blocks`, while bounded disk or memory
//! io (`File` reads and writes, `sync_data`) is `PerformsIo` only.
//! DESIGN.md §12 records this soundness envelope.
//!
//! Two rules consume the inference:
//!
//! * `alloc_free_kernel` — no `Allocates` site reachable from the
//!   `oa_linalg` LANES factor/solve kernels;
//! * `lock_across_blocking` — no `Blocks` call while a lock guard is
//!   live (extends the lock analysis' guard-scope walk).

use crate::ast::{CallTarget, Event, Stmt, StmtPart};
use crate::callgraph::{CallGraph, TypeEnv};
use crate::lint::Finding;
use crate::locks::acquisition_class;
use crate::reachability::{chain_text, roots_of, Allowed};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// May park the thread indefinitely (socket/channel/condvar waits,
/// `thread::sleep`, `connect`).
pub const BLOCKS: u8 = 1 << 0;
/// May allocate on the heap.
pub const ALLOCATES: u8 = 1 << 1;
/// May acquire a `Mutex`/`RwLock`.
pub const ACQUIRES_LOCK: u8 = 1 << 2;
/// May perform file or socket io (bounded or not).
pub const PERFORMS_IO: u8 = 1 << 3;
/// May read the wall clock.
pub const WALL_CLOCK: u8 = 1 << 4;
/// May panic.
pub const PANICS: u8 = 1 << 5;

/// The six effect bits in display order.
const BITS: [(u8, &str); 6] = [
    (BLOCKS, "Blocks"),
    (ALLOCATES, "Allocates"),
    (ACQUIRES_LOCK, "AcquiresLock"),
    (PERFORMS_IO, "PerformsIo"),
    (WALL_CLOCK, "WallClock"),
    (PANICS, "Panics"),
];

/// Renders an effect set as `{Blocks, PerformsIo}`.
pub fn set_text(set: u8) -> String {
    let names: Vec<&str> = BITS
        .iter()
        .filter(|(bit, _)| set & bit != 0)
        .map(|(_, n)| *n)
        .collect();
    format!("{{{}}}", names.join(", "))
}

/// How a function came to carry an effect bit.
#[derive(Debug, Clone, Default)]
enum Origin {
    /// Not carried.
    #[default]
    None,
    /// A direct site in this function's body.
    Site {
        /// 1-based line.
        line: u32,
        /// Human-readable description of the seeded operation.
        what: String,
    },
    /// Inherited from a callee.
    Call {
        /// 1-based line of the call.
        line: u32,
        /// Callee node id.
        callee: usize,
    },
}

/// Per-function inferred effects with per-bit witnesses.
pub struct Effects {
    /// Effect set per call-graph node.
    pub sets: Vec<u8>,
    /// `origin[id][bit_index]` — first witness for each effect bit.
    origins: Vec<[Origin; 6]>,
    /// Direct (seeded) sites per node: `(line, bits, what)`.
    direct_sites: Vec<Vec<(u32, u8, String)>>,
}

/// Names of calls that resolved to workspace functions, keyed by call
/// line. Their std seeding is skipped — the callee's own inferred
/// effects flow through the call edge instead, so a local `connect`
/// helper is not mistaken for `TcpStream::connect`.
fn resolved_call_names(graph: &CallGraph<'_>, id: usize) -> BTreeSet<(u32, String)> {
    graph.edges[id]
        .iter()
        .map(|e| {
            let qual = graph.def(e.callee).qual.as_str();
            let name = qual.rsplit("::").next().unwrap_or(qual).to_owned();
            (e.line, name)
        })
        .collect()
}

/// Classifies one body event, returning its seeded effect bits and a
/// human-readable description of the operation. `resolved` is the
/// [`resolved_call_names`] set of the enclosing function.
fn event_effects(
    graph: &CallGraph<'_>,
    env: &TypeEnv,
    fn_qual: &str,
    resolved: &BTreeSet<(u32, String)>,
    stmt: &Stmt,
    ev: &Event,
) -> Option<(u32, u8, String)> {
    match ev {
        Event::Index { line, .. } => Some((*line, PANICS, "slice/array indexing".to_owned())),
        Event::Guard { .. } | Event::DropVar { .. } | Event::Str { .. } => None,
        Event::Call(call) => {
            let line = call.line;
            let called = match &call.target {
                CallTarget::Method { name, .. } => name.as_str(),
                CallTarget::Free { path } => path.last().map(String::as_str).unwrap_or(""),
                CallTarget::Macro { .. } => "",
            };
            if !called.is_empty() && resolved.contains(&(line, called.to_owned())) {
                return None;
            }
            match &call.target {
                CallTarget::Method { name, recv } => {
                    if let Some(class) = acquisition_class(graph, env, fn_qual, name, recv) {
                        return Some((line, ACQUIRES_LOCK, format!("acquires lock `{class}`")));
                    }
                    let head = receiver_head(graph, env, stmt, recv);
                    method_effects(name, &head).map(|(bits, what)| (line, bits, what))
                }
                CallTarget::Free { path } => {
                    free_effects(path).map(|(bits, what)| (line, bits, what))
                }
                CallTarget::Macro { name } => {
                    macro_effects(name).map(|(bits, what)| (line, bits, what))
                }
            }
        }
    }
}

/// Methods that grow or copy into heap storage.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "to_owned",
    "to_vec",
    "to_string",
    "collect",
    "with_capacity",
    "reserve",
    "extend",
    "extend_from_slice",
    "resize",
    "append",
    "into_owned",
    "join",
    "concat",
    "repeat",
    "split_off",
];

/// Io methods that park until the peer makes progress — the buffered
/// forms until the whole transfer completes, the single-shot ones until
/// any byte (or connection) arrives.
const PEER_IO: &[&str] = &[
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "write_fmt",
    "flush",
    "read",
    "write",
    "accept",
];

/// Receiver type heads whose io is bounded by local work (disk or
/// memory), not by a remote peer. `OpenOptions` appears as a
/// chain head for locals bound via the builder (`let f = OpenOptions::
/// new()…open(p)?`), whose product is a `File`.
const BOUNDED_IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "BufWriter",
    "BufReader",
    "Vec",
    "VecDeque",
    "String",
    "Cursor",
];

/// The type head a method call's receiver chain starts from: the
/// resolved receiver, or — for a receiver the parser cannot name, such
/// as the builder chain `OpenOptions::new().read(true)` — the type of
/// the path call that opens the statement. Empty when unknown.
fn receiver_head(graph: &CallGraph<'_>, env: &TypeEnv, stmt: &Stmt, recv: &str) -> String {
    if let Some(ty) = graph.resolve_chain(env, recv) {
        return crate::ast::deref_head(&ty);
    }
    if !recv.is_empty() {
        return String::new();
    }
    let first_call = stmt.parts.iter().find_map(|part| match part {
        StmtPart::Event(Event::Call(call)) => Some(&call.target),
        _ => None,
    });
    match first_call {
        Some(CallTarget::Free { path }) if path.len() >= 2 => path[path.len() - 2].clone(),
        _ => String::new(),
    }
}

fn method_effects(name: &str, head: &str) -> Option<(u8, String)> {
    match name {
        "recv" | "recv_timeout" | "wait" | "wait_timeout" | "wait_while" => Some((
            BLOCKS,
            format!(".{name}() parks on a channel/condvar until signaled"),
        )),
        "send" => Some((
            BLOCKS,
            ".send() parks when a bounded channel is full".to_owned(),
        )),
        _ if PEER_IO.contains(&name) => {
            if BOUNDED_IO_TYPES.contains(&head) {
                Some((PERFORMS_IO, format!(".{name}() on {head} (bounded io)")))
            } else {
                Some((
                    BLOCKS | PERFORMS_IO,
                    format!(".{name}() parks until the peer makes progress"),
                ))
            }
        }
        "sync_all" | "sync_data" => Some((PERFORMS_IO, format!(".{name}() flushes to disk"))),
        "elapsed" => Some((WALL_CLOCK, ".elapsed() reads the wall clock".to_owned())),
        "unwrap" | "expect" => Some((PANICS, format!(".{name}() can panic"))),
        _ if ALLOC_METHODS.contains(&name) => Some((ALLOCATES, format!(".{name}() allocates"))),
        _ => None,
    }
}

fn free_effects(path: &[String]) -> Option<(u8, String)> {
    let last = path.last().map(String::as_str).unwrap_or("");
    let prev = path
        .len()
        .checked_sub(2)
        .map(|i| path[i].as_str())
        .unwrap_or("");
    match (prev, last) {
        ("thread", "sleep") => Some((BLOCKS, "thread::sleep parks the thread".to_owned())),
        ("TcpStream" | "UnixStream", "connect" | "connect_timeout") => Some((
            BLOCKS | PERFORMS_IO,
            format!("{prev}::{last} blocks until the peer answers"),
        )),
        ("fs", _) => Some((PERFORMS_IO, format!("fs::{last} touches the filesystem"))),
        ("File" | "OpenOptions", _) => Some((
            PERFORMS_IO,
            format!("{prev}::{last} touches the filesystem"),
        )),
        ("Instant" | "SystemTime", "now") => {
            Some((WALL_CLOCK, format!("{prev}::now() reads the wall clock")))
        }
        ("Box" | "Arc" | "Rc", "new") => Some((ALLOCATES, format!("{prev}::new allocates"))),
        ("Vec" | "String", "with_capacity" | "from") => {
            Some((ALLOCATES, format!("{prev}::{last} allocates")))
        }
        _ => None,
    }
}

fn macro_effects(name: &str) -> Option<(u8, String)> {
    match name {
        "format" | "vec" => Some((ALLOCATES, format!("{name}! allocates"))),
        "println" | "eprintln" | "print" | "eprint" => {
            Some((PERFORMS_IO, format!("{name}! writes to the terminal")))
        }
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne" => Some((PANICS, format!("{name}! panics"))),
        _ => None,
    }
}

/// Runs the inference: seeds direct effects per function, then unions
/// callee sets into callers until the fixpoint.
pub fn infer(graph: &CallGraph<'_>) -> Effects {
    let n = graph.nodes.len();
    let mut eff = Effects {
        sets: vec![0u8; n],
        origins: std::iter::repeat_with(Default::default).take(n).collect(),
        direct_sites: vec![Vec::new(); n],
    };
    for id in 0..n {
        let def = graph.def(id);
        let Some(body) = &def.body else { continue };
        let env = graph.type_env(id);
        let resolved = resolved_call_names(graph, id);
        body.walk(&mut |stmt, ev| {
            if let Some((line, bits, what)) =
                event_effects(graph, &env, &def.qual, &resolved, stmt, ev)
            {
                eff.direct_sites[id].push((line, bits, what.clone()));
                eff.sets[id] |= bits;
                for (i, (bit, _)) in BITS.iter().enumerate() {
                    if bits & bit != 0 && matches!(eff.origins[id][i], Origin::None) {
                        eff.origins[id][i] = Origin::Site {
                            line,
                            what: what.clone(),
                        };
                    }
                }
            }
        });
    }
    loop {
        let mut changed = false;
        for id in 0..n {
            for e in &graph.edges[id] {
                let add = eff.sets[e.callee] & !eff.sets[id];
                if add == 0 {
                    continue;
                }
                changed = true;
                eff.sets[id] |= add;
                for (i, (bit, _)) in BITS.iter().enumerate() {
                    if add & bit != 0 {
                        eff.origins[id][i] = Origin::Call {
                            line: e.line,
                            callee: e.callee,
                        };
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    eff
}

impl Effects {
    /// Formats the witness chain from `id` down to the seeded site for
    /// one effect bit: `-> Store::put (at log.rs:262): .write_all() …`.
    fn witness_text(&self, graph: &CallGraph<'_>, mut id: usize, bit: u8) -> String {
        let idx = BITS.iter().position(|(b, _)| *b == bit).unwrap_or(0);
        let mut text = String::new();
        for _ in 0..64 {
            match &self.origins[id][idx] {
                Origin::Site { line, what } => {
                    let base = graph.file(id).path.rsplit('/').next().unwrap_or("");
                    text.push_str(&format!(" -> {what} (at {base}:{line})"));
                    return text;
                }
                Origin::Call { line, callee } => {
                    let base = graph.file(id).path.rsplit('/').next().unwrap_or("");
                    text.push_str(&format!(
                        " -> {} (at {base}:{line})",
                        graph.def(*callee).qual
                    ));
                    id = *callee;
                }
                Origin::None => return text,
            }
        }
        text
    }
}

/// BFS with parent pointers from a set of entry node ids.
fn bfs(graph: &CallGraph<'_>, entries: &[usize]) -> (Vec<bool>, Vec<Option<(usize, u32)>>) {
    let mut reached = vec![false; graph.nodes.len()];
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for &id in entries {
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
    (reached, parent)
}

/// Flags every direct site carrying `bits` in any function reachable
/// from `entries`, unless annotated under `rule`.
#[allow(clippy::too_many_arguments)]
fn reachability_rule(
    graph: &CallGraph<'_>,
    eff: &Effects,
    allowed: &Allowed,
    entries: &[usize],
    bits: u8,
    rule: &'static str,
    verb: &str,
    findings: &mut Vec<Finding>,
) {
    let (reached, parent) = bfs(graph, entries);
    for (id, &is_reached) in reached.iter().enumerate() {
        if !is_reached {
            continue;
        }
        let file = graph.file(id);
        let allowed_lines = allowed
            .get(&file.path)
            .and_then(|rules| rules.get(rule))
            .cloned()
            .unwrap_or_default();
        for (line, site_bits, what) in &eff.direct_sites[id] {
            if site_bits & bits == 0 || allowed_lines.contains(line) {
                continue;
            }
            findings.push(Finding {
                path: file.path.clone(),
                line: *line,
                rule,
                message: format!("{what} — {verb}; {}", chain_text(graph, &parent, id)),
            });
        }
    }
}

/// Runs the two effect rules; `allowed` is the annotation map.
pub fn check(graph: &CallGraph<'_>, allowed: &Allowed) -> Vec<Finding> {
    let eff = infer(graph);
    let mut findings = Vec::new();

    // Rule 1: no allocation in the LANES batch kernels.
    reachability_rule(
        graph,
        &eff,
        allowed,
        &roots_of(graph, "alloc_free_kernel"),
        ALLOCATES,
        "alloc_free_kernel",
        "allocates in the LANES hot path",
        &mut findings,
    );

    // Rule 2: nothing blocking while a lock guard is live.
    check_lock_across_blocking(graph, &eff, allowed, &mut findings);

    findings
}

/// One lock being held during the `lock_across_blocking` walk.
struct HeldGuard {
    class: String,
    guard_var: Option<String>,
    stmt_scoped: bool,
    block_level: usize,
}

fn check_lock_across_blocking(
    graph: &CallGraph<'_>,
    eff: &Effects,
    allowed: &Allowed,
    findings: &mut Vec<Finding>,
) {
    for id in 0..graph.nodes.len() {
        let def = graph.def(id);
        let Some(body) = &def.body else { continue };
        let file = graph.file(id);
        let allowed_lines = allowed
            .get(&file.path)
            .and_then(|rules| rules.get("lock_across_blocking"))
            .cloned()
            .unwrap_or_default();
        let mut edges_by_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for e in &graph.edges[id] {
            edges_by_line.entry(e.line).or_default().push(e.callee);
        }
        let mut ctx = BlockingCtx {
            graph,
            eff,
            env: graph.type_env(id),
            fn_qual: def.qual.clone(),
            file_path: file.path.clone(),
            resolved: resolved_call_names(graph, id),
            edges_by_line,
            allowed_lines,
            reported: BTreeSet::new(),
            findings,
        };
        let mut held: Vec<HeldGuard> = Vec::new();
        walk_blocking(&mut ctx, body, &mut held, 0);
    }
}

struct BlockingCtx<'g, 'w, 'f> {
    graph: &'g CallGraph<'w>,
    eff: &'g Effects,
    env: TypeEnv,
    fn_qual: String,
    file_path: String,
    resolved: BTreeSet<(u32, String)>,
    edges_by_line: BTreeMap<u32, Vec<usize>>,
    allowed_lines: Vec<u32>,
    reported: BTreeSet<(u32, String)>,
    findings: &'f mut Vec<Finding>,
}

fn held_text(held: &[HeldGuard]) -> String {
    let classes: Vec<&str> = held.iter().map(|h| h.class.as_str()).collect();
    classes.join(", ")
}

fn walk_blocking(
    ctx: &mut BlockingCtx<'_, '_, '_>,
    block: &crate::ast::Block,
    held: &mut Vec<HeldGuard>,
    level: usize,
) {
    for stmt in &block.stmts {
        let mut first_acquisition = true;
        for part in &stmt.parts {
            match part {
                crate::ast::StmtPart::Block(b) => walk_blocking(ctx, b, held, level + 1),
                crate::ast::StmtPart::Event(Event::DropVar { name, .. }) => {
                    held.retain(|h| h.guard_var.as_deref() != Some(name));
                }
                crate::ast::StmtPart::Event(
                    Event::Index { .. } | Event::Guard { .. } | Event::Str { .. },
                ) => {}
                crate::ast::StmtPart::Event(ev @ Event::Call(call)) => {
                    if let CallTarget::Method { name, recv } = &call.target {
                        if let Some(class) =
                            acquisition_class(ctx.graph, &ctx.env, &ctx.fn_qual, name, recv)
                        {
                            let is_guard = stmt.guard_bind.is_some() && first_acquisition;
                            first_acquisition = false;
                            held.push(HeldGuard {
                                class,
                                guard_var: if is_guard {
                                    stmt.guard_bind.clone()
                                } else {
                                    None
                                },
                                stmt_scoped: !is_guard,
                                block_level: level,
                            });
                            continue;
                        }
                    }
                    if held.is_empty() {
                        continue;
                    }
                    // Direct blocking operation while a guard is live.
                    if let Some((line, bits, what)) =
                        event_effects(ctx.graph, &ctx.env, &ctx.fn_qual, &ctx.resolved, stmt, ev)
                    {
                        if bits & BLOCKS != 0 {
                            report_blocking(ctx, line, what, held, None);
                        }
                    }
                    // A call into a function whose effects carry Blocks.
                    if let Some(callees) = ctx.edges_by_line.get(&call.line).cloned() {
                        for callee in callees {
                            if ctx.eff.sets[callee] & BLOCKS != 0 {
                                let what = format!("call to {}", ctx.graph.def(callee).qual);
                                report_blocking(ctx, call.line, what, held, Some(callee));
                            }
                        }
                    }
                }
            }
        }
        held.retain(|h| !(h.stmt_scoped && h.block_level == level));
    }
    held.retain(|h| h.block_level != level);
}

fn report_blocking(
    ctx: &mut BlockingCtx<'_, '_, '_>,
    line: u32,
    what: String,
    held: &[HeldGuard],
    callee: Option<usize>,
) {
    if ctx.allowed_lines.contains(&line) || !ctx.reported.insert((line, what.clone())) {
        return;
    }
    let witness = callee
        .map(|c| ctx.eff.witness_text(ctx.graph, c, BLOCKS))
        .unwrap_or_default();
    ctx.findings.push(Finding {
        path: ctx.file_path.clone(),
        line,
        rule: "lock_across_blocking",
        message: format!(
            "{what} may block while holding lock(s) {{{}}} in {}{witness}",
            held_text(held),
            ctx.fn_qual
        ),
    });
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
        check(&graph, &allowed)
    }

    #[test]
    fn allocation_in_kernel_is_flagged_transitively() {
        let f = run(&[(
            "crates/linalg/src/sparse.rs",
            r#"
            pub struct SymbolicPlan;
            impl SymbolicPlan {
                pub fn factor(&self) { inner(); }
            }
            fn inner(out: &mut Vec<f64>) { out.push(1.0); }
            "#,
        )]);
        let alloc: Vec<&Finding> = f.iter().filter(|f| f.rule == "alloc_free_kernel").collect();
        assert_eq!(alloc.len(), 1, "{f:?}");
        assert!(alloc[0]
            .message
            .contains("reachable from SymbolicPlan::factor"));
    }

    #[test]
    fn blocking_while_guard_held_is_flagged() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    std::thread::sleep(d);
                }
            }
            "#,
        )]);
        let lock: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == "lock_across_blocking")
            .collect();
        assert_eq!(lock.len(), 1, "{f:?}");
        assert!(lock[0].message.contains("S.m"), "{}", lock[0].message);
    }

    #[test]
    fn dropping_the_guard_before_blocking_is_clean() {
        let f = run(&[(
            "crates/serve/src/service.rs",
            r#"
            pub struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.m.lock().unwrap();
                    drop(g);
                    std::thread::sleep(d);
                }
            }
            "#,
        )]);
        assert!(f.iter().all(|f| f.rule != "lock_across_blocking"), "{f:?}");
    }
}
