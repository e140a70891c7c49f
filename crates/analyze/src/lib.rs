//! Static analysis for the INTO-OA workspace.
//!
//! Two independent layers:
//!
//! * **Domain layer** ([`structural`]) — a pre-numeric verifier for
//!   elaborated netlists. It proves, from the sparsity pattern alone,
//!   that the MNA system a netlist induces is structurally non-singular
//!   (every node grounded through conducting elements, no empty KCL
//!   rows or voltage columns, and a perfect row–column matching of the
//!   pattern — Hall's condition). Degenerate candidates are rejected
//!   before an LU factorization or an optimizer evaluation slot is
//!   spent on them.
//! * **Source layer** ([`lexer`] → [`parser`] → [`ast`] →
//!   [`callgraph`], orchestrated by [`engine`]) — one std-only analysis
//!   engine behind the `oa_lint` binary. The token-shaped rules of
//!   [`lint`] enforce local invariants of DESIGN.md §8 (no wall-clock
//!   in response paths, exact-round-trip float formatting,
//!   `#![forbid(unsafe_code)]` everywhere, annotation hygiene); the
//!   whole-program analyses over the workspace call graph add panic
//!   *reachability* from service entry points with printed call chains
//!   ([`reachability`]), lock-order cycle detection over an
//!   interprocedural lock-acquisition graph ([`locks`]),
//!   HashMap-iteration determinism taint from sources to serialization
//!   sinks ([`taint`]), the effect rules ([`effects`]) and wire-schema
//!   conformance ([`wire`]). DESIGN.md §10 documents the architecture
//!   and the soundness envelope.
//!
//! The `oa_sweep` binary applies the structural verifier exhaustively
//! to all 30,625 topologies of the design space and exits non-zero if
//! any fails — the domain layer's CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod effects;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod locks;
pub mod parser;
pub mod protocol;
pub mod ranges;
pub mod reachability;
pub mod sarif;
pub mod structural;
pub mod taint;
pub mod wire;

pub use error::StructuralError;
pub use lint::{lint_source, Finding};
pub use structural::{
    is_structurally_valid, structural_rank, sweep_design_space, verify_netlist, verify_structure,
    verify_topology, SweepReport,
};

use std::path::{Path, PathBuf};

/// Reads every first-party `.rs` file under `<root>/crates/*/src/`
/// into `(workspace-relative path, source)` pairs, sorted by path —
/// the file set `oa_lint` analyzes.
pub fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "no crates/ directory under {}; run from the workspace root",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for krate in sorted_dirs(&crates_dir) {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    let mut inputs = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        inputs.push((relative_to(path, root), source));
    }
    Ok(inputs)
}

/// Immediate subdirectories of `dir`, sorted by name for deterministic
/// output across filesystems.
fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Recursively collects `.rs` files under `dir` (which is always a
/// crate `src/` tree, so no skip-list is needed below it).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative display path with forward slashes (the form
/// `lint::scope_of` and the analyses' crate mapping key on).
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
