#!/usr/bin/env sh
# Bench guard: re-runs the committed-baseline benchmarks and fails when a
# guarded median regresses more than BENCH_TOLERANCE (fraction, default
# 0.05) against its committed baseline:
#
#   - BENCH_PR4.json / pr4_spatial — the end-to-end `sharded_engine`
#     centralized placement at the paper scale (2000 points);
#   - BENCH_PR6.json / pr6_scale — the hierarchical-core area-failure
#     restoration at the smallest sweep size (PR6_MAX_POINTS=2000 keeps
#     the guard run seconds-fast; the larger sizes are perf-tracked via
#     the committed sweep, not gated per-push);
#   - BENCH_PR9.json / pr8_throughput — the scenario-matrix runner's
#     64-run batch on the worker arena (PR8_RUNS=200 shrinks the ungated
#     saturation phase; the full 10k-run saturation check runs when the
#     bench is invoked without the cap).
#
# The committed baselines were measured on the reference machine, so the
# 5% default is meant for local runs per EXPERIMENTS.md; CI sets a
# looser tolerance (absolute-hardware noise, not a regression signal).
#
#   scripts/bench_guard.sh                 # 5% gate vs every baseline
#   BENCH_TOLERANCE=0.50 scripts/bench_guard.sh
set -eu
cd "$(dirname "$0")/.."

tol=${BENCH_TOLERANCE:-0.05}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

# guard <baseline.json> <bench-target> <bench-id>
# Re-runs <bench-target>, extracts <bench-id>'s median from the fresh run
# and the committed baseline, and fails beyond the tolerance.
guard() {
    baseline=$1
    bench=$2
    bench_id=$3
    [ -f "$baseline" ] || { echo "bench_guard: missing $baseline" >&2; exit 1; }

    : > "$out"
    CRITERION_JSON="$out" \
    CRITERION_SAMPLES="${CRITERION_SAMPLES:-20}" \
        cargo bench -q -p decor-bench --bench "$bench" >&2

    old=$(awk -F'"median_ns":' -v id="$bench_id" \
        'index($0, "\"" id "\"") { split($2, a, /[,}]/); print a[1] }' "$baseline")
    new=$(awk -F'"median_ns":' -v id="$bench_id" \
        'index($0, "\"" id "\"") { split($2, a, /[,}]/); print a[1] }' "$out")
    [ -n "$old" ] || { echo "bench_guard: $bench_id missing from $baseline" >&2; exit 1; }
    [ -n "$new" ] || { echo "bench_guard: $bench_id missing from fresh run" >&2; exit 1; }

    awk -v old="$old" -v new="$new" -v tol="$tol" -v id="$bench_id" 'BEGIN {
        ratio = new / old
        printf "bench_guard: %s median %d ns vs baseline %d ns (%+.1f%%, tolerance %.0f%%)\n", \
            id, new, old, (ratio - 1) * 100, tol * 100
        if (ratio > 1 + tol) {
            print "bench_guard: REGRESSION beyond tolerance" > "/dev/stderr"
            exit 1
        }
    }'
}

guard BENCH_PR4.json pr4_spatial "pr4/centralized_greedy_k2_2000pts/sharded_engine"
PR6_MAX_POINTS=2000 guard BENCH_PR6.json pr6_scale "pr6/restore_area_r24/n2000"
PR8_RUNS=200 guard BENCH_PR9.json pr8_throughput "pr8/matrix/serve_batch_64"

# pr9_alloc self-asserts against ALLOC_BUDGET.json (allocation counts are
# deterministic — no tolerance). Running it here pins the rotation code
# to the committed steady-state budget alongside the timing gates.
echo "bench_guard: pr9_alloc vs ALLOC_BUDGET.json"
cargo bench -q -p decor-bench --features alloc-counter --bench pr9_alloc >&2
