//! Pins the wire-schema catalogue and checks the workspace against the
//! declared protocol — the extraction side of the wire-conformance
//! gate.
//!
//! * The TSV dump of every extracted wire fact is committed at
//!   `tests/snapshots/wire.tsv` and must match what the sources on
//!   disk produce: any change to the wire surface (a new op, a renamed
//!   kind, a moved emitter) shows up in review as a snapshot diff.
//!   Regenerate with:
//!
//!   ```text
//!   OA_REGEN_SNAPSHOT=1 cargo test -p oa-analyze --test wire_snapshot
//!   ```
//!
//!   or `oa_lint wire > crates/analyze/tests/snapshots/wire.tsv`.
//!
//! * The real workspace must be *clean* against the real
//!   `crates/serve/protocol.spec` — every emitted frame declared,
//!   every declaration alive, every op routed under its declared
//!   class.
//!
//! * Seeded regressions prove the rules actually catch the bug they
//!   exist for: a new op wired into the serve dispatch without a spec
//!   entry fires `wire_undeclared`, and a session op dropped from the
//!   router's table fires `wire_router_coverage` (the session-fork
//!   hazard).

use oa_analyze::callgraph::Workspace;
use oa_analyze::protocol::ProtocolSpec;
use oa_analyze::{read_workspace, wire};
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/snapshots/wire.tsv";
const SPEC: &str = "crates/serve/protocol.spec";

#[test]
fn workspace_wire_catalogue_matches_snapshot() {
    let tsv = wire::render_tsv(&wire::extract(&Workspace::parse(&workspace_inputs())));
    let snap_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT);
    if std::env::var_os("OA_REGEN_SNAPSHOT").is_some() {
        std::fs::write(&snap_path, &tsv).unwrap();
        return;
    }
    let snapshot = std::fs::read_to_string(&snap_path).unwrap_or_default();
    if snapshot != tsv {
        let old: std::collections::BTreeSet<&str> = snapshot.lines().collect();
        let new: std::collections::BTreeSet<&str> = tsv.lines().collect();
        let mut diff: Vec<String> = new
            .difference(&old)
            .take(10)
            .map(|l| format!("+ {l}"))
            .collect();
        diff.extend(old.difference(&new).take(10).map(|l| format!("- {l}")));
        panic!(
            "wire catalogue drifted from snapshot; review and regenerate \
             with OA_REGEN_SNAPSHOT=1\n{}",
            diff.join("\n")
        );
    }
}

#[test]
fn workspace_conforms_to_the_declared_protocol() {
    let ws = Workspace::parse(&workspace_inputs());
    let spec = load_spec();
    let findings = wire::check(&ws, &spec, SPEC);
    assert!(
        findings.is_empty(),
        "workspace drifted from protocol.spec:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn new_op_without_spec_entry_is_caught() {
    // Seed the regression this PR exists to prevent: wire a new op
    // into the serve dispatch, declare nothing.
    let mut inputs = workspace_inputs();
    let service = inputs
        .iter_mut()
        .find(|(p, _)| p == "crates/serve/src/service.rs")
        .unwrap();
    let seeded = service.1.replace("Some(\"stats\")", "Some(\"teleport\")");
    assert_ne!(seeded, service.1, "seed site must exist");
    service.1 = seeded;

    let findings = wire::check(&Workspace::parse(&inputs), &load_spec(), SPEC);
    assert!(
        findings.iter().any(|f| f.rule == "wire_undeclared"
            && f.message.contains("'teleport'")
            && f.path == "crates/serve/src/service.rs"),
        "{findings:?}"
    );
}

#[test]
fn session_op_dropped_from_router_table_is_caught() {
    // The session-fork hazard: `step` no longer pinned to the owning
    // shard. The rule must flag the spec line of the orphaned op.
    let mut inputs = workspace_inputs();
    let router = inputs
        .iter_mut()
        .find(|(p, _)| p == "crates/router/src/router.rs")
        .unwrap();
    let seeded = router
        .1
        .replace("\"open_session\" | \"step\" |", "\"open_session\" |");
    assert_ne!(seeded, router.1, "seed site must exist");
    router.1 = seeded;

    let spec = load_spec();
    let findings = wire::check(&Workspace::parse(&inputs), &spec, SPEC);
    let step_line = spec.op("step").unwrap().line;
    assert!(
        findings.iter().any(|f| f.rule == "wire_router_coverage"
            && f.message.contains("'step'")
            && f.path == SPEC
            && f.line == step_line),
        "{findings:?}"
    );
}

fn load_spec() -> ProtocolSpec {
    let text = std::fs::read_to_string(workspace_root().join(SPEC)).unwrap();
    ProtocolSpec::parse(&text).unwrap()
}

/// Same file set as `oa_lint`.
fn workspace_inputs() -> Vec<(String, String)> {
    read_workspace(&workspace_root()).unwrap()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}
