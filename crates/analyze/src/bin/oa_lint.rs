//! Workspace lint driver: one analysis engine, SARIF output, and
//! wire-schema conformance.
//!
//! Usage:
//!
//! ```text
//! oa_lint [--list-rules] [--timings] [--sarif=<path>]
//!         [--explain-discharges] [<workspace-root>]
//! oa_lint wire [--check] [<workspace-root>]
//! ```
//!
//! The lint parses every first-party file, builds the workspace call
//! graph, and runs the interprocedural analyses (panic reachability
//! with value-range discharge, lock-order cycles, determinism taint,
//! the effect rules `alloc_free_kernel` / `lock_across_blocking`, and
//! the wire-schema conformance rules
//! `wire_*` against `crates/serve/protocol.spec`) alongside the
//! token-shaped rules.
//!
//! * `--sarif=<path>` additionally writes the run as a SARIF 2.1.0 log.
//! * `--timings` appends `files=… fns=… edges=… discharged=…
//!   parse_ms=… callgraph_ms=… ranges_ms=… effects_ms=… wire_ms=…
//!   elapsed_ms=…` to the stderr summary, for
//!   `scripts/bench_smoke.sh`.
//! * `--explain-discharges` prints each indexing site the value-range
//!   analysis proved in-bounds, with its evidence.
//!
//! `wire` prints the extracted wire-schema catalogue as TSV (every op
//! the dispatch emits, every routing arm, every kind constant and its
//! read sites, response-field and frame-skeleton rows). `--check`
//! instead diffs it against the committed snapshot
//! (`crates/analyze/tests/snapshots/wire.tsv`) — the CI gate that
//! makes any wire-surface change show up in review as a snapshot
//! diff. Regenerate with `oa_lint wire > <snapshot>`.
//!
//! Scans `crates/*/src/**` under the workspace root (default: the
//! current directory). Findings print one per line in deterministic
//! path/line order; exit status is 1 if any rule fired and 0
//! otherwise.

use oa_analyze::callgraph::Workspace;
use oa_analyze::engine::{self, WireInput};
use oa_analyze::{read_workspace, sarif, wire};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WIRE_SNAPSHOT: &str = "crates/analyze/tests/snapshots/wire.tsv";
const SPEC_PATH: &str = "crates/serve/protocol.spec";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut wire_cmd = false;
    let mut check = false;
    let mut timings = false;
    let mut explain_discharges = false;
    let mut sarif_path: Option<PathBuf> = None;
    for arg in args.iter() {
        match arg.as_str() {
            "--list-rules" => {
                for rule in oa_analyze::lint::RULES {
                    println!("{:<22} {}", rule.name, rule.description);
                }
                return ExitCode::SUCCESS;
            }
            "wire" => wire_cmd = true,
            "--check" => check = true,
            "--timings" => timings = true,
            "--explain-discharges" => explain_discharges = true,
            other => {
                if let Some(path) = other.strip_prefix("--sarif=") {
                    sarif_path = Some(PathBuf::from(path));
                } else if other.starts_with("--") {
                    eprintln!("oa_lint: unknown flag {other:?}");
                    return ExitCode::FAILURE;
                } else if Path::new(other).is_dir() {
                    root = PathBuf::from(other);
                } else {
                    eprintln!("oa_lint: unknown argument {other:?} (not `wire` or a directory)");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let inputs = match read_workspace(&root) {
        Ok(inputs) => inputs,
        Err(msg) => {
            eprintln!("oa_lint: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if wire_cmd {
        return run_wire(&root, &inputs, check);
    }

    // The wire pass reads the declared protocol; a missing or
    // unreadable spec is itself a finding (`wire_spec`), not an abort.
    let wire_input = WireInput {
        path: SPEC_PATH.to_owned(),
        text: std::fs::read_to_string(root.join(SPEC_PATH)).ok(),
    };

    // lint: allow(wall_clock, CLI timing line, not a response path)
    let started = std::time::Instant::now();
    let report = engine::run_with(&inputs, Some(&wire_input));

    if let Some(path) = &sarif_path {
        if let Err(err) = std::fs::write(path, sarif::to_sarif(&report)) {
            eprintln!("oa_lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("oa_lint: wrote SARIF log to {}", path.display());
    }
    if explain_discharges {
        for d in &report.discharged {
            println!(
                "{}:{}: [discharged] in {}: {}",
                d.path, d.line, d.fn_qual, d.evidence
            );
        }
    }
    for finding in &report.findings {
        println!("{finding}");
    }

    let timing = if timings {
        let t = &report.timings;
        format!(
            " (files={} fns={} edges={} discharged={} \
             parse_ms={} callgraph_ms={} ranges_ms={} effects_ms={} wire_ms={} elapsed_ms={})",
            report.files,
            report.fns,
            report.edges,
            report.discharged.len(),
            t.parse_ms,
            t.callgraph_ms,
            t.ranges_ms,
            t.effects_ms,
            t.wire_ms,
            started.elapsed().as_millis()
        )
    } else {
        String::new()
    };
    if report.findings.is_empty() {
        eprintln!("oa_lint: clean{timing}");
        ExitCode::SUCCESS
    } else {
        eprintln!("oa_lint: {} finding(s){timing}", report.findings.len());
        ExitCode::FAILURE
    }
}

/// The `wire` subcommand: dump the extracted wire-schema catalogue as
/// TSV, or `--check` it against the committed snapshot.
fn run_wire(root: &Path, inputs: &[(String, String)], check: bool) -> ExitCode {
    let ws = Workspace::parse(inputs);
    let tsv = wire::render_tsv(&wire::extract(&ws));
    if !check {
        print!("{tsv}");
        return ExitCode::SUCCESS;
    }
    let snap_path = root.join(WIRE_SNAPSHOT);
    match std::fs::read_to_string(&snap_path) {
        Ok(snap) if snap == tsv => {
            eprintln!(
                "oa_lint: wire catalogue matches snapshot ({} row(s))",
                tsv.lines().count() - 1
            );
            ExitCode::SUCCESS
        }
        Ok(snap) => {
            eprintln!(
                "oa_lint: wire catalogue drifted from snapshot ({} rows now, {} in snapshot);\n\
                 regenerate with `oa_lint wire > {WIRE_SNAPSHOT}` and review the diff",
                tsv.lines().count() - 1,
                snap.lines().count() - 1
            );
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("oa_lint: cannot read {}: {err}", snap_path.display());
            ExitCode::FAILURE
        }
    }
}
