#!/usr/bin/env bash
# Smoke test for the performance benches that back the tracked snapshot
# files at the repository root:
#
#   1. run the `ac_sweep` and `evals_per_sec` benches in quick mode
#      (CRITERION_QUICK=1, ~10x shorter measurement windows) and assert
#      every expected row is present — a panic or a silently dropped
#      bench function fails the step;
#   2. check the committed BENCH_ac_sweep.json / BENCH_evals_per_sec.json
#      snapshots still carry the keys the benches emit, so a bench rename
#      cannot drift away from the recorded numbers unnoticed;
#   3. run `oa_lint --timings` and assert the stderr timing
#      line still parses (files/fns/edges/discharged plus the
#      per-pass parse_ms/callgraph_ms/ranges_ms/effects_ms/wire_ms and
#      total elapsed_ms), and that the committed BENCH_lint.json
#      snapshot carries the same fields.
#
# This is a schema/liveness gate, not a perf gate: CI machines are too
# noisy to compare nanoseconds against the snapshots.
#
# Usage: scripts/bench_smoke.sh
set -euo pipefail

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

run_bench() {
    local bench="$1"
    shift
    echo "running $bench (quick mode)"
    CRITERION_QUICK=1 cargo bench -p oa-bench --bench "$bench" >"$OUT/$bench.txt" 2>&1 || {
        cat "$OUT/$bench.txt" >&2
        echo "FAIL: bench $bench did not run to completion" >&2
        exit 1
    }
    for row in "$@"; do
        if ! grep -q "^bench: $row " "$OUT/$bench.txt"; then
            cat "$OUT/$bench.txt" >&2
            echo "FAIL: bench $bench did not report row '$row'" >&2
            exit 1
        fi
    done
}

check_snapshot() {
    local file="$1"
    shift
    [ -f "$file" ] || { echo "FAIL: missing snapshot $file" >&2; exit 1; }
    for key in results_ns_per_iter "$@"; do
        if ! grep -q "\"$key\"" "$file"; then
            echo "FAIL: snapshot $file lost key '$key'" >&2
            exit 1
        fi
    done
}

run_bench ac_sweep \
    ac_sweep_naive_241pts \
    ac_sweep_prepared_241pts \
    ac_sweep_symbolic_241pts \
    ac_transfer_prepared_single_freq
run_bench evals_per_sec \
    eval_full_cached \
    eval_full_uncached

check_snapshot BENCH_ac_sweep.json \
    ac_sweep_naive_241pts \
    ac_sweep_prepared_241pts \
    ac_sweep_symbolic_241pts \
    speedup_symbolic_over_naive \
    speedup_symbolic_over_prepared
check_snapshot BENCH_evals_per_sec.json \
    eval_full_cached \
    eval_full_uncached \
    evals_per_sec

echo "running oa_lint --timings (timing-line schema)"
cargo run -q -p oa-analyze --bin oa_lint -- --timings \
    >"$OUT/lint.out" 2>"$OUT/lint.err" || {
    cat "$OUT/lint.out" "$OUT/lint.err" >&2
    echo "FAIL: oa_lint reported findings or did not run" >&2
    exit 1
}
if ! grep -Eq 'files=[0-9]+ fns=[0-9]+ edges=[0-9]+ discharged=[0-9]+ parse_ms=[0-9]+ callgraph_ms=[0-9]+ ranges_ms=[0-9]+ effects_ms=[0-9]+ wire_ms=[0-9]+ elapsed_ms=[0-9]+' "$OUT/lint.err"; then
    cat "$OUT/lint.err" >&2
    echo "FAIL: oa_lint --timings stderr line lost its schema" >&2
    exit 1
fi

[ -f BENCH_lint.json ] || { echo "FAIL: missing snapshot BENCH_lint.json" >&2; exit 1; }
for key in files fns edges discharged parse_ms callgraph_ms ranges_ms effects_ms wire_ms elapsed_ms timing_line; do
    if ! grep -q "\"$key\"" BENCH_lint.json; then
        echo "FAIL: snapshot BENCH_lint.json lost key '$key'" >&2
        exit 1
    fi
done

echo "OK: benches ran all rows in quick mode, the lint timing line parses, snapshots carry the expected schema"
