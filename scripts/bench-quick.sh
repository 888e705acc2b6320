#!/usr/bin/env bash
# Quick benchmark sweep: runs all the Criterion benches with a reduced
# sample count and appends one JSON line per benchmark to a BENCH_*.json
# file, seeding the repo's perf trajectory.
#
# Usage:
#   scripts/bench-quick.sh                # 3 samples/bench -> BENCH_<date>.json
#   SAMPLES=5 scripts/bench-quick.sh out.json
#   SKIP_LONG=1 scripts/bench-quick.sh    # drop the slow end-to-end rows
#
# The vendored criterion stand-in (vendor/criterion) reads:
#   SIRUM_BENCH_SAMPLES     — timed samples per benchmark
#   SIRUM_BENCH_MIN_SAMPLES — sample floor the budget cutoff cannot cross
#   SIRUM_BENCH_JSON        — JSON-lines output path (appended)
#   SIRUM_BENCH_SKIP        — comma-separated substrings of benches to skip
#
# JSON lines whose benchmark was budget-truncated below its requested
# sample count carry "sub_floor": true — treat those medians as thin.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_$(date +%Y%m%d_%H%M%S).json"
if [[ $# -ge 1 && $1 != -* ]]; then
    OUT="$1"
    shift
fi
# Bench binaries run with the package dir as cwd; keep the output here.
case "$OUT" in
/*) ;;
*) OUT="$(pwd)/$OUT" ;;
esac
SAMPLES="${SAMPLES:-3}"
# The floor defaults to the requested count, so quick runs never report a
# median over fewer samples than asked for; the vendored harness caps the
# floor at the request anyway.
MIN_SAMPLES="${MIN_SAMPLES:-$SAMPLES}"
# SKIP_LONG=1 drops the slow end-to-end rows (full baseline profiles and
# the staged-pipeline mine) for a faster smoke loop; SKIP overrides.
SKIP="${SKIP:-}"
if [[ -n "${SKIP_LONG:-}" && -z "$SKIP" ]]; then
    SKIP="baseline_profile,mine/staged-sequential"
fi
# The top of the row-count axis (2M/8M rows) materializes multi-hundred-MB
# tables; quick sweeps skip those sizes unless ROWSCALE_FULL=1. The bench
# checks the skip list before generating, so skipped sizes cost nothing.
if [[ -z "${ROWSCALE_FULL:-}" ]]; then
    for size in 2048000 8192000; do
        for side in raw compressed; do
            SKIP="${SKIP:+$SKIP,}rowscale/$side/$size"
        done
    done
fi

# Start fresh if the target file already exists (re-runs shouldn't mix).
# The file is touched up front so a filter matching no benchmark still
# leaves a (empty) results file rather than failing the final count.
rm -f "$OUT"
touch "$OUT"

echo "== bench-quick: $SAMPLES samples/bench (floor $MIN_SAMPLES) -> $OUT"
[[ -n "$SKIP" ]] && echo "== skipping benches matching: $SKIP"
SIRUM_BENCH_SAMPLES="$SAMPLES" SIRUM_BENCH_MIN_SAMPLES="$MIN_SAMPLES" \
    SIRUM_BENCH_SKIP="$SKIP" SIRUM_BENCH_JSON="$OUT" \
    cargo bench -p sirum_bench "$@"

echo "== wrote $(wc -l < "$OUT") benchmark results to $OUT"
SUB_FLOOR="$(grep -c '"sub_floor": true' "$OUT" || true)"
if [[ "$SUB_FLOOR" -gt 0 ]]; then
    echo "== WARNING: $SUB_FLOOR result(s) budget-truncated below $SAMPLES samples (marked \"sub_floor\")"
fi

# Paired comparisons: each snapshot carries, at a glance, the numbers
# needed to spot a regression of the packed-code / combine-strategy sweep
# accumulators (ISSUE 6), the wire overhead and the compressed scans.
# Tolerates a missing benchmark (empty output): a filtered run — e.g.
# `bench-quick.sh out.json --bench rowscale` — leaves most pairs absent,
# and under `set -eo pipefail` a bare failing grep would kill the script.
median() {
    grep -F "\"bench\": \"$1\"" "$OUT" | head -1 |
        sed -n 's/.*"median_ns": \([0-9]*\).*/\1/p' || true
}
compare() {
    local label="$1" base_name="$2" base="$3" new_name="$4" new="$5"
    local base_ns new_ns
    base_ns="$(median "$base")"
    new_ns="$(median "$new")"
    if [[ -n "$base_ns" && -n "$new_ns" && "$new_ns" -gt 0 ]]; then
        awk -v l="$label" -v bn="$base_name" -v b="$base_ns" \
            -v nn="$new_name" -v n="$new_ns" 'BEGIN {
            printf "==   %-34s %-9s %8.2fms  %-9s %8.2fms  (%.2fx)\n",
                l, bn, b / 1e6, nn, n / 1e6, b / n
        }'
    fi
}
echo "== paired medians (from $OUT):"
compare "sweep accumulator keying (1 worker)" \
    rule-key "gain_sweep/sweep-pass-rulekey/1threads" \
    packed "gain_sweep/sweep-pass/1threads"
compare "sweep combine: hash vs radix-group" \
    hash "gain_sweep/sweep-pass-hashprobe/1threads" \
    radix "gain_sweep/sweep-pass-radixgroup/1threads"
compare "sweep combine: slot table vs radix-group" \
    radix "gain_sweep/sweep-pass-radixgroup/1threads" \
    slots "gain_sweep/sweep-pass/1threads"
compare "serving cached-mine latency" \
    in-proc "serving/in-process/mine-cached" \
    wire "serving/wire/mine-cached"
for size in 20000 128000 512000 2048000 8192000; do
    compare "rowscale seed-fit scan ${size} rows" \
        raw "rowscale/raw/$size" \
        compressed "rowscale/compressed/$size"
done
