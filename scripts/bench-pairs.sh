#!/bin/sh
# Alternating parent/change pairs of one sirum-bench workload — the rule a
# performance claim is held to (choosing-metrics §8): at least ten pairs,
# the side that runs first alternating, a fresh seed per pair; per
# end-to-end metric each side's median and quartiles, how many pairs the
# change won, and failed/attempted on each side.
#
#   scripts/bench-pairs.sh <parent-rev> <workload>|all [pairs=10] [seconds=15]
#
# `all` runs the workloads BENCHMARK.json names, one after another, and
# prints one table per workload.
#
# "change" is the working tree as it stands (committed or not); "parent" is
# <parent-rev>, exported with `git archive` (nothing is registered in .git)
# and built once per revision. Everything lives under
# ${CARGO_TARGET_DIR:-target}/bench-pairs/. Both binaries are built
# --release --offline --locked, copied, and the copies run with --trace 0;
# the metrics are read off the `name value unit` lines the benchmark prints
# on standard error, the directions off BENCHMARK.json. Seeds start at 2017:
# 2016 is the seed of the golden digests, the one every change is written
# against.
#
# Both sides inherit the environment. A `peak_rss_mb` move can be split into
# live heap and glibc's per-thread arenas keeping freed memory by running
# the same pairs again under `MALLOC_ARENA_MAX=1 scripts/bench-pairs.sh …`:
# one arena for all threads, so what still differs is not arena retention.
set -eu

if [ $# -lt 2 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify --short=12 "$1^{commit}")
if [ "$2" = all ]; then
    workloads=$(sed -n '/"workloads"/,/^  \]/ s/.*"name": *"\([a-z_]*\)".*/\1/p' BENCHMARK.json)
else
    workloads=$2
fi
pairs=${3:-10}
seconds=${4:-15}

work=${CARGO_TARGET_DIR:-target}/bench-pairs
mkdir -p "$work"
work=$(cd "$work" && pwd)
parent=$work/parent-$rev

if [ ! -d "$parent/src" ]; then
    mkdir -p "$parent/src"
    git archive "$rev" | tar -x -C "$parent/src"
fi
echo "== building parent $rev" >&2
cargo build --release --offline --locked --quiet \
    --manifest-path "$parent/src/sirum-bench/Cargo.toml" --target-dir "$parent/target"
echo "== building change (working tree)" >&2
cargo build --release --offline --locked --quiet --manifest-path sirum-bench/Cargo.toml
mkdir -p "$work/parent" "$work/change"
cp "$parent/target/release/sirum-bench" "$work/parent/sirum-bench"
cp "${CARGO_TARGET_DIR:-sirum-bench/target}/release/sirum-bench" "$work/change/sirum-bench"

samples=$work/samples.tsv

# One run of one side: its metric lines and its failed/attempted go to
# $samples as `side pair name value unit`.
run_side() {
    side=$1
    pair=$2
    seed=$3
    status=0
    CARGO_TARGET_DIR=$work/$side/out "$work/$side/sirum-bench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$work/$side/stdout" 2>"$work/$side/stderr" || status=$?
    # 1 = an operation failed a check (counted below); anything else is a
    # usage or set-up error and no measurement.
    if [ "$status" -gt 1 ]; then
        cat "$work/$side/stderr" >&2
        exit "$status"
    fi
    awk -v side="$side" -v pair="$pair" \
        'NF == 3 && $2 ~ /^[0-9.]+$/ { print side, pair, $1, $2, $3 }' \
        "$work/$side/stderr" >>"$samples"
    tail -n 1 "$work/$side/stdout" | awk -v side="$side" -v pair="$pair" '{
        gsub(/[{}",:]/, " ")
        for (i = 1; i < NF; i++) {
            if ($i == "attempted") print side, pair, "attempted", $(i + 1), "ops"
            if ($i == "failed") print side, pair, "failed", $(i + 1), "ops"
        }
    }' >>"$samples"
}

for workload in $workloads; do
    : >"$samples"
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        seed=$((2016 + pair))
        if [ $((pair % 2)) -eq 1 ]; then
            order="parent change"
        else
            order="change parent"
        fi
        for side in $order; do
            echo "== pair $pair/$pairs seed $seed: $side" >&2
            run_side "$side" "$pair" "$seed"
        done
        pair=$((pair + 1))
    done

    echo "$workload: $pairs pair(s) of ${seconds}s, parent $rev vs working tree, seeds 2017..$((2016 + pairs))"
    awk '
    function sorted(side, name,    i, j, n, t) {
        n = 0
        for (i = 1; i <= pairs; i++) v[++n] = val[side, name, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n
    }
    function quantile(n, p,    pos, lo) {
        pos = 1 + (n - 1) * p
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, name,    n) {
        n = sorted(side, name)
        med[side] = quantile(n, 0.5); q1[side] = quantile(n, 0.25); q3[side] = quantile(n, 0.75)
        return sprintf("%10.4g [%.4g, %.4g]", med[side], q1[side], q3[side])
    }
    FILENAME == ARGV[1] {
        if (/"end_to_end"/) on = 1
        if (/"per_layer"/) on = 0
        if (on && /"name"/) { gsub(/[",]/, ""); name = $2; names[++count] = name }
        if (on && /"better"/) { gsub(/[",]/, ""); better[name] = $2 }
        next
    }
    { val[$1, $3, $2] = $4 + 0; unit[$3] = $5; if ($2 > pairs) pairs = $2 + 0 }
    END {
        printf "%-12s %-7s %-34s %-34s %8s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", \
            "change median [q1, q3]", "chg/par", "wins", "medians apart > parent IQR"
        for (k = 1; k <= count; k++) {
            name = names[k]
            if (!(("parent", name, 1) in val)) continue
            p = summary("parent", name); c = summary("change", name)
            wins = 0; ties = 0
            for (i = 1; i <= pairs; i++) {
                d = val["change", name, i] - val["parent", name, i]
                if (better[name] == "lower") d = -d
                if (d > 0) wins++; else if (d == 0) ties++
            }
            gap = med["change"] - med["parent"]; if (gap < 0) gap = -gap
            printf "%-12s %-7s %-34s %-34s %8.3f %3d/%-2d  %s%s\n", name, unit[name], p, c, \
                (med["parent"] ? med["change"] / med["parent"] : 0), wins, pairs, \
                (gap > q3["parent"] - q1["parent"] ? "yes" : "no"), (ties ? " (" ties " tie(s))" : "")
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"; failed = 0; attempted = 0
            for (i = 1; i <= pairs; i++) { failed += val[side, "failed", i]; attempted += val[side, "attempted", i] }
            printf "%s failed/attempted: %d/%d\n", side, failed, attempted
        }
    }' BENCHMARK.json "$samples"
done
