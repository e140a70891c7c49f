//! The workspace-wide call graph the interprocedural analyses run on.
//!
//! [`Workspace::parse`] parses every file; [`CallGraph::build`] then
//! resolves each call site to workspace function definitions:
//!
//! * **free calls** — `helper(..)` resolves same-file first, then
//!   same-crate, then workspace-unique; `Type::assoc(..)` and
//!   `module::f(..)` resolve through the qualified-name index, with
//!   `use` aliases rewritten to their target names;
//! * **method calls** — `recv.name(..)` resolves the receiver's type
//!   through the function's [`TypeEnv`] (params, ascribed and inferred
//!   locals, lock-guard inner types, `self`) and struct field types,
//!   peeling `Arc`/`Rc`/`Box`; an unresolvable receiver falls back to
//!   the workspace-unique method of that name, if any.
//!
//! Calls into `std` (or anything else with no workspace definition)
//! resolve to nothing and produce no edge. Test functions are not
//! nodes. The soundness consequences of this design (closures attach
//! to their enclosing function, `dyn` dispatch is unresolved, macro
//! bodies are opaque) are documented in DESIGN.md §10.

use crate::ast::{deref_head, mutex_inner, CallTarget, Event, FnDef, SourceFile, Stmt};
use crate::parser::{crate_name_of, parse_file};
use std::collections::{BTreeMap, BTreeSet};

/// All parsed files of the workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Parses `(path, source)` pairs. Paths are workspace-relative with
    /// forward slashes; input order does not matter (files are sorted
    /// by path so every downstream artifact is deterministic).
    pub fn parse(inputs: &[(String, String)]) -> Workspace {
        let mut sorted: Vec<&(String, String)> = inputs.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        Workspace {
            files: sorted
                .into_iter()
                .map(|(path, src)| parse_file(path, &crate_name_of(path), src))
                .collect(),
        }
    }
}

/// A call edge: the callee's node id and the call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
}

/// The resolved call graph. Node ids index [`CallGraph::nodes`]; test
/// functions are excluded entirely.
#[derive(Debug)]
pub struct CallGraph<'w> {
    /// The parsed workspace.
    pub ws: &'w Workspace,
    /// `(file index, fn index)` per node.
    pub nodes: Vec<(usize, usize)>,
    /// Outgoing edges per node, deduplicated, in body order.
    pub edges: Vec<Vec<Edge>>,
    /// Struct name → field name → declared type text, workspace-wide.
    pub fields: BTreeMap<String, BTreeMap<String, String>>,
    by_qual: BTreeMap<String, Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
}

/// A function's name→type-text environment: `self`, parameters, typed
/// locals, and lock-guard bindings (typed as the mutex's inner type).
#[derive(Debug, Default, Clone)]
pub struct TypeEnv {
    /// Variable name → type text (token-joined).
    pub vars: BTreeMap<String, String>,
}

impl<'w> CallGraph<'w> {
    /// The `FnDef` of a node.
    pub fn def(&self, id: usize) -> &'w FnDef {
        let (f, i) = self.nodes[id];
        &self.ws.files[f].fns[i]
    }

    /// The `SourceFile` containing a node.
    pub fn file(&self, id: usize) -> &'w SourceFile {
        &self.ws.files[self.nodes[id].0]
    }

    /// Builds the graph: indexes definitions, then resolves every call
    /// site of every non-test function.
    pub fn build(ws: &'w Workspace) -> CallGraph<'w> {
        let mut graph = CallGraph {
            ws,
            nodes: Vec::new(),
            edges: Vec::new(),
            fields: BTreeMap::new(),
            by_qual: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for s in &file.structs {
                let entry = graph.fields.entry(s.name.clone()).or_default();
                for (fname, fty) in &s.fields {
                    entry.entry(fname.clone()).or_insert_with(|| fty.clone());
                }
            }
            for (di, def) in file.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                let id = graph.nodes.len();
                graph.nodes.push((fi, di));
                graph.by_qual.entry(def.qual.clone()).or_default().push(id);
                if def.self_ty.is_some() {
                    graph
                        .methods_by_name
                        .entry(def.name.clone())
                        .or_default()
                        .push(id);
                } else {
                    graph
                        .free_by_name
                        .entry(def.name.clone())
                        .or_default()
                        .push(id);
                }
            }
        }
        for id in 0..graph.nodes.len() {
            let out = graph.resolve_fn(id);
            graph.edges.push(out);
        }
        graph
    }

    /// Builds the type environment of a node: `self`, params, locals,
    /// and lock guards (in body order, later entries shadowing).
    pub fn type_env(&self, id: usize) -> TypeEnv {
        let def = self.def(id);
        let mut env = TypeEnv::default();
        if let Some(ty) = &def.self_ty {
            env.vars.insert("self".to_owned(), ty.clone());
        }
        for p in &def.params {
            env.vars.insert(p.name.clone(), p.ty.clone());
        }
        for (name, ty) in &def.locals {
            env.vars.insert(name.clone(), ty.clone());
        }
        // Lock guards: `let g = recv.lock()…` types `g` as the inner
        // type of `recv`'s Mutex/RwLock. Guards resolve in body order
        // so a guard can name another guard's field.
        if let Some(body) = &def.body {
            body.walk(&mut |stmt: &Stmt, ev: &Event| {
                let Some(guard) = &stmt.guard_bind else {
                    return;
                };
                if let Event::Call(call) = ev {
                    if let CallTarget::Method { name, recv } = &call.target {
                        if matches!(name.as_str(), "lock" | "read" | "write") {
                            if let Some(ty) = self.resolve_chain(&env, recv) {
                                if let Some(inner) = mutex_inner(&ty) {
                                    env.vars.insert(guard.clone(), inner);
                                }
                            }
                        }
                    }
                }
            });
        }
        env
    }

    /// Resolves a receiver chain `a.b.c` to its type text: `a` through
    /// the environment, then each `.seg` through struct fields (peeling
    /// smart pointers at every step).
    pub fn resolve_chain(&self, env: &TypeEnv, recv: &str) -> Option<String> {
        let mut parts = recv.split('.');
        let mut ty = env.vars.get(parts.next()?)?.clone();
        for seg in parts {
            let owner = deref_head(&ty);
            ty = self.fields.get(&owner)?.get(seg)?.clone();
        }
        Some(ty)
    }

    /// Resolves a receiver chain to the struct that owns its *final*
    /// field, for lock identity: `self.store` on `Service` →
    /// `("Service", "store")`. Chains of length 1 return `None`.
    pub fn resolve_field_owner(&self, env: &TypeEnv, recv: &str) -> Option<(String, String)> {
        let parts: Vec<&str> = recv.split('.').collect();
        if parts.len() < 2 {
            return None;
        }
        let prefix = parts[..parts.len() - 1].join(".");
        let owner_ty = self.resolve_chain(env, &prefix)?;
        let owner = deref_head(&owner_ty);
        let field = parts[parts.len() - 1];
        self.fields.get(&owner)?.get(field)?;
        Some((owner, field.to_owned()))
    }

    fn resolve_fn(&self, id: usize) -> Vec<Edge> {
        let def = self.def(id);
        let file = self.file(id);
        let env = self.type_env(id);
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let Some(body) = &def.body else {
            return out;
        };
        body.walk(&mut |_stmt: &Stmt, ev: &Event| {
            let Event::Call(call) = ev else { return };
            for callee in self.resolve_target(file, id, &env, &call.target) {
                if callee != id && seen.insert((callee, call.line)) {
                    out.push(Edge {
                        callee,
                        line: call.line,
                    });
                }
            }
        });
        out
    }

    /// Resolves one call target to callee node ids (usually 0 or 1).
    fn resolve_target(
        &self,
        file: &SourceFile,
        caller: usize,
        env: &TypeEnv,
        target: &CallTarget,
    ) -> Vec<usize> {
        match target {
            CallTarget::Macro { .. } => Vec::new(),
            CallTarget::Method { name, recv } => {
                if let Some(ty) = self.resolve_chain(env, recv) {
                    let head = deref_head(&ty);
                    if let Some(ids) = self.by_qual.get(&format!("{head}::{name}")) {
                        return ids.clone();
                    }
                    // Typed receiver of a workspace type, but the
                    // method is not the workspace's (std or derived):
                    // do not guess.
                    if self.fields.contains_key(&head) {
                        return Vec::new();
                    }
                }
                // Untyped receiver: a workspace-unique method name is
                // an unambiguous target — but only for a plain
                // identifier-chain receiver. Compound receivers
                // (iterator adaptors, builder chains: `xs.iter()
                // .enumerate()`) are overwhelmingly std methods, and
                // claiming the workspace-unique name manufactured
                // edges like `factor_impl -> Topology::enumerate`.
                if recv.is_empty() {
                    return Vec::new();
                }
                match self.methods_by_name.get(name) {
                    Some(ids) if ids.len() == 1 => ids.clone(),
                    _ => Vec::new(),
                }
            }
            CallTarget::Free { path } => self.resolve_free(file, caller, path),
        }
    }

    fn resolve_free(&self, file: &SourceFile, caller: usize, path: &[String]) -> Vec<usize> {
        let Some(name) = path.last() else {
            return Vec::new();
        };
        if path.len() >= 2 {
            // Qualifier: a type (`Store::open`) or module (`json::enc`),
            // possibly through a `use` alias.
            let mut qual = path[path.len() - 2].clone();
            if let Some(import) = file.uses.iter().find(|u| u.alias == qual) {
                if let Some(real) = import.path.last() {
                    qual = real.clone();
                }
            }
            if let Some(ids) = self.by_qual.get(&format!("{qual}::{name}")) {
                return ids.clone();
            }
            // Module-qualified free fn: falls through to name search.
        }
        if let Some(ids) = self.free_by_name.get(name) {
            let caller_file = self.nodes[caller].0;
            let same_file: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].0 == caller_file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let same_crate: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&c| self.file(c).crate_name == file.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            // Cross-crate: accept when imported or workspace-unique.
            let imported = file.uses.iter().any(|u| &u.alias == name);
            if imported || ids.len() == 1 {
                return ids.clone();
            }
        }
        // UFCS of an inherent method: `Self::method(x)` rewrites `Self`
        // to the caller's own type; any other qualifier already had its
        // chance at the exact `by_qual` lookup above. Falling back to a
        // workspace-unique method name for *foreign* qualifiers
        // manufactured edges like `TcpStream::connect` →
        // `Client::connect`.
        if path.len() >= 2 && path[path.len() - 2] == "Self" {
            let caller_qual = &self.def(caller).qual;
            if let Some((owner, _)) = caller_qual.rsplit_once("::") {
                if let Some(ids) = self.by_qual.get(&format!("{owner}::{name}")) {
                    return ids.clone();
                }
            }
            if let Some(ids) = self.methods_by_name.get(name) {
                if ids.len() == 1 {
                    return ids.clone();
                }
            }
        }
        Vec::new()
    }

    /// The node ids whose qualified name equals `qual`.
    pub fn find_qual(&self, qual: &str) -> Vec<usize> {
        self.by_qual.get(qual).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        Workspace::parse(&inputs)
    }

    fn edge_quals(g: &CallGraph<'_>, caller: &str) -> Vec<String> {
        let id = g.find_qual(caller)[0];
        g.edges[id]
            .iter()
            .map(|e| g.def(e.callee).qual.clone())
            .collect()
    }

    #[test]
    fn free_calls_resolve_same_file_then_unique() {
        let w = ws(&[
            (
                "crates/serve/src/a.rs",
                "fn caller() { helper(); remote(); }\nfn helper() {}",
            ),
            ("crates/store/src/b.rs", "pub fn remote() {}"),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(edge_quals(&g, "caller"), vec!["helper", "remote"]);
    }

    #[test]
    fn assoc_calls_resolve_through_use_aliases() {
        let w = ws(&[
            (
                "crates/serve/src/a.rs",
                "use crate::store::Store as Db;\nfn open() { Db::new(); }",
            ),
            (
                "crates/serve/src/store.rs",
                "pub struct Store;\nimpl Store { pub fn new() -> Store { Store } }",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(edge_quals(&g, "open"), vec!["Store::new"]);
    }

    #[test]
    fn method_calls_resolve_through_field_types_and_guards() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            r#"
            struct Service { store: Mutex<Store> }
            struct Store { n: u64 }
            impl Store { fn put(&mut self) {} }
            impl Service {
                fn handle(&self) {
                    let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
                    store.put();
                }
            }
            "#,
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(edge_quals(&g, "Service::handle"), vec!["Store::put"]);
    }

    #[test]
    fn unique_method_name_resolves_untyped_receivers() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "struct Wire;\nimpl Wire { fn encode_frame(&self) {} }\nfn f(w: &W) { w.encode_frame(); }",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(edge_quals(&g, "f"), vec!["Wire::encode_frame"]);
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "#[cfg(test)]\nmod tests { fn t() {} }\nfn live() {}",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.def(0).qual, "live");
    }

    #[test]
    fn std_calls_resolve_to_nothing() {
        let w = ws(&[(
            "crates/serve/src/a.rs",
            "fn f(v: Vec<u8>) { v.push(1); String::from(\"x\"); }",
        )]);
        let g = CallGraph::build(&w);
        assert!(g.edges[g.find_qual("f")[0]].is_empty());
    }
}
