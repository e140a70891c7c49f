//! Fixture corpus for the interprocedural engine: each analysis has a
//! `*_bad.rs` fixture it must fire on (with the expected diagnostic
//! shape — the call chain or flow is part of the contract, not just
//! the fact of a finding) and a `*_good.rs` twin it must stay silent
//! on. The twins are the regression net against over-approximation:
//! an engine change that starts flagging the good twins is rejecting
//! correct code.

use oa_analyze::engine::{run, Report};
use oa_analyze::lint::Finding;

/// Runs the ast engine on one fixture under a virtual file name, so
/// entry points and rule scopes engage exactly as they do for the
/// real workspace.
fn report_at(path: &str, fixture: &str) -> Report {
    let inputs = vec![(path.to_owned(), fixture.to_owned())];
    run(&inputs)
}

/// [`report_at`], keeping only the findings for `rule`.
fn findings_at(rule: &str, path: &str, fixture: &str) -> Vec<Finding> {
    report_at(path, fixture)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// The original request-path helper: fixtures that model `oa-serve`
/// handlers load under the service file name.
fn findings(rule: &str, fixture: &str) -> Vec<Finding> {
    findings_at(rule, "crates/serve/src/service.rs", fixture)
}

const PANIC_BAD: &str = include_str!("fixtures/panic_bad.rs");
const PANIC_GOOD: &str = include_str!("fixtures/panic_good.rs");
const LOCKS_BAD: &str = include_str!("fixtures/locks_bad.rs");
const LOCKS_GOOD: &str = include_str!("fixtures/locks_good.rs");
const TAINT_BAD: &str = include_str!("fixtures/taint_bad.rs");
const TAINT_GOOD: &str = include_str!("fixtures/taint_good.rs");
const IO_LOCK_BAD: &str = include_str!("fixtures/io_lock_bad.rs");
const IO_LOCK_GOOD: &str = include_str!("fixtures/io_lock_good.rs");
const ALLOC_BAD: &str = include_str!("fixtures/alloc_bad.rs");
const ALLOC_GOOD: &str = include_str!("fixtures/alloc_good.rs");
const RANGE_BAD: &str = include_str!("fixtures/range_bad.rs");
const RANGE_GOOD: &str = include_str!("fixtures/range_good.rs");

#[test]
fn panic_fixture_fires_on_all_three_reachable_sites() {
    let f = findings("panic", PANIC_BAD);
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("indexing")));
    assert!(f.iter().any(|x| x.message.contains(".unwrap() can panic")));
    assert!(f.iter().any(|x| x.message.contains("panic! panics")));
}

#[test]
fn panic_fixture_chains_run_entry_to_site() {
    let f = findings("panic", PANIC_BAD);
    let indexing = f.iter().find(|x| x.message.contains("indexing")).unwrap();
    assert!(
        indexing
            .message
            .contains("Service::handle_line -> decode_frame (at service.rs:10) -> read_header"),
        "{}",
        indexing.message
    );
}

#[test]
fn panic_fixture_skips_the_unreachable_function() {
    // offline_debug_dump indexes too, but nothing reaches it.
    let f = findings("panic", PANIC_BAD);
    assert!(
        f.iter().all(|x| x.line < 35),
        "unreachable site reported: {f:#?}"
    );
}

#[test]
fn panic_good_twin_is_silent() {
    let f = findings("panic", PANIC_GOOD);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn lock_fixture_fires_on_the_ab_ba_cycle() {
    let f = findings("lock_order", LOCKS_BAD);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].message.contains("Service.stats") && f[0].message.contains("Service.store"),
        "{}",
        f[0].message
    );
}

#[test]
fn lock_good_twin_is_silent() {
    let f = findings("lock_order", LOCKS_GOOD);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn taint_fixture_fires_with_the_source_line() {
    let f = findings("determinism", TAINT_BAD);
    assert!(!f.is_empty(), "expected a determinism flow");
    assert!(f[0].message.contains("iteration order"), "{}", f[0].message);
    // The source is the `counters.keys()` loop in collect_rows.
    assert!(f[0].message.contains("service.rs:15"), "{}", f[0].message);
}

#[test]
fn taint_good_twin_is_silent() {
    let f = findings("determinism", TAINT_GOOD);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn io_lock_fixture_flags_the_socket_read_under_the_guard() {
    let f = findings_at(
        "lock_across_blocking",
        "crates/router/src/net.rs",
        IO_LOCK_BAD,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].line, 15, "{f:#?}");
    assert!(
        f[0].message.contains(
            ".read() parks until the peer makes progress may block while holding \
             lock(s) {Link.routes} in Link::pump"
        ),
        "{}",
        f[0].message
    );
}

#[test]
fn io_lock_good_twin_is_silent() {
    let f = findings_at(
        "lock_across_blocking",
        "crates/router/src/net.rs",
        IO_LOCK_GOOD,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn alloc_fixture_fires_with_the_kernel_chain() {
    let f = findings_at(
        "alloc_free_kernel",
        "crates/linalg/src/sparse.rs",
        ALLOC_BAD,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].line, 17, "{f:#?}");
    assert!(
        f[0].message.contains(
            ".push() allocates — allocates in the LANES hot path; reachable from \
             SymbolicPlan::factor: SymbolicPlan::factor -> scale_rows (at sparse.rs:11)"
        ),
        "{}",
        f[0].message
    );
}

#[test]
fn alloc_good_twin_is_silent() {
    let f = findings_at(
        "alloc_free_kernel",
        "crates/linalg/src/sparse.rs",
        ALLOC_GOOD,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn range_fixture_reports_only_the_unguarded_site() {
    let r = report_at("crates/serve/src/service.rs", RANGE_BAD);
    let panics: Vec<&Finding> = r.findings.iter().filter(|f| f.rule == "panic").collect();
    assert_eq!(panics.len(), 1, "{panics:#?}");
    assert_eq!(panics[0].line, 19, "{panics:#?}");
    assert!(
        panics[0].message.contains(
            "slice/array indexing can panic; reachable from Service::handle_line: \
             Service::handle_line -> checksum (at service.rs:13)"
        ),
        "{}",
        panics[0].message
    );
    // The guarded twin on line 23 is discharged, not reported.
    let d = r.discharged.iter().find(|d| d.line == 23).unwrap();
    assert!(
        d.evidence.contains("`k < bytes.len()` guard"),
        "{}",
        d.evidence
    );
}

#[test]
fn range_good_twin_is_silent_with_every_site_discharged() {
    let r = report_at("crates/serve/src/service.rs", RANGE_GOOD);
    assert!(
        r.findings.iter().all(|f| f.rule != "panic"),
        "{:#?}",
        r.findings
    );
    let lines: Vec<u32> = r.discharged.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![16, 19, 22], "{:#?}", r.discharged);
    let evidence: Vec<&str> = r.discharged.iter().map(|d| d.evidence.as_str()).collect();
    assert!(evidence[0].contains("early-exit guard"), "{evidence:#?}");
    assert!(evidence[1].contains("upper bound"), "{evidence:#?}");
    assert!(
        evidence[2].contains("`k < head.len()` guard"),
        "{evidence:#?}"
    );
}
