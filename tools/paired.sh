#!/usr/bin/env sh
# Compare two commits on one e2e_bench workload in alternating pairs.
#
#   tools/paired.sh <base> <head> <workload> <pairs> [trace]
#
# Builds each commit's `e2e_bench` from a `git archive` export of that
# commit, with its own CARGO_TARGET_DIR, under
# ${TMPDIR:-/tmp}/elan-paired/<sha>/ (a second call reuses the builds).
# Then it runs <pairs> pairs one process at a time, pair i with seed
# 100+i; odd pairs run base first and even pairs head first, so slow
# drift of the host falls on both sides alike. Every run lasts
# BENCHMARK.json's run_seconds. `trace` defaults to 0 (the end-to-end
# metrics; 1 gives the per-layer rows).
#
# Every run must print `"correct": true` and `"failed": 0`; otherwise
# the script names the run and exits 1 without writing history.
#
# Per metric it prints both medians, the median of the per-pair ratios
# head/base (null when no pair has a nonzero base), how many pairs head
# won (direction from BENCHMARK.json; `?` for a metric not listed there)
# and both interquartile ranges. It
# appends one JSON line per metric to BENCH_history.jsonl at the
# repository root. Nothing under e2e_bench/ is written.
set -eu

usage() {
    echo "usage: tools/paired.sh <base> <head> <workload> <pairs> [trace]" >&2
    exit 2
}
[ $# -ge 4 ] && [ $# -le 5 ] || usage
repo=$(cd "$(dirname "$0")/.." && pwd)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}") || usage
head=$(git -C "$repo" rev-parse --verify "$2^{commit}") || usage
workload=$3
pairs=$4
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$repo/BENCHMARK.json")
trace=${5:-0}
root=${TMPDIR:-/tmp}/elan-paired

# Builds the e2e bench of commit $1 and prints the binary's path.
build() {
    dir=$root/$1
    bin=$dir/target/release/elan-e2e-bench
    if [ ! -x "$bin" ]; then
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git -C "$repo" archive "$1" | tar -x -C "$dir/src"
        CARGO_TARGET_DIR=$dir/target cargo build --release --quiet --offline \
            --manifest-path "$dir/src/e2e_bench/Cargo.toml" >&2
    fi
    echo "$bin"
}

echo "building $base (base)" >&2
base_bin=$(build "$base")
echo "building $head (head)" >&2
head_bin=$(build "$head")

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# Runs side $1 of pair $2 and keeps its result line.
run() {
    if [ "$1" = base ]; then bin=$base_bin; else bin=$head_bin; fi
    seed=$((100 + $2))
    echo "pair $2 $1 seed $seed" >&2
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        2>"$runs/$1-$2.err" | tail -n 1 >"$runs/$1-$2.json" || true
    if ! grep -q '"correct": true' "$runs/$1-$2.json" ||
        ! grep -q '"failed": 0,' "$runs/$1-$2.json"; then
        echo "pair $2 $1 (seed $seed) is not a correct run:" >&2
        cat "$runs/$1-$2.json" "$runs/$1-$2.err" >&2
        exit 1
    fi
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
    i=$((i + 1))
done

# One `side pair metric value` line per metric of every run.
for f in "$runs"/*.json; do
    name=$(basename "$f" .json)
    grep -o '"[^"]*": {"value": [-0-9.eE+]*' "$f" |
        sed "s/^\"\\([^\"]*\\)\": {\"value\": /${name%-*} ${name#*-} \\1 /"
done >"$runs/values"

# `metric lower|higher` for every metric BENCHMARK.json lists.
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' \
    "$repo/BENCHMARK.json" >"$runs/better"

awk -v base="$base" -v head="$head" -v workload="$workload" -v pairs="$pairs" \
    -v seconds="$seconds" -v trace="$trace" -v cpus="$(nproc)" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v history="$repo/BENCH_history.jsonl" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Quantile q of sorted a[1..n], linear between order statistics.
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function stats(side, m,    a, n, i) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, m) in v) a[++n] = v[side, i, m]
    sort(a, n)
    med[side] = quantile(a, n, 0.5)
    iqr[side] = quantile(a, n, 0.75) - quantile(a, n, 0.25)
}
FILENAME ~ /better$/ { better[$1] = $2; next }
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
END {
    printf "%s %s vs %s, %d pairs, %s s, trace %s\n", workload, substr(head, 1, 7), \
        substr(base, 1, 7), pairs, seconds, trace
    printf "%-32s %6s %12s %12s %8s %5s %10s %10s\n", "metric", "better", "base", "head", \
        "ratio", "wins", "base_iqr", "head_iqr"
    for (k = 1; k <= metrics; k++) {
        m = order[k]
        stats("base", m)
        stats("head", m)
        dir = (m in better) ? better[m] : "?"
        n = 0
        wins = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("base", i, m) in v) || !(("head", i, m) in v)) continue
            b = v["base", i, m]
            h = v["head", i, m]
            if (b != 0) r[++n] = h / b
            if ((dir == "lower" && h < b) || (dir == "higher" && h > b)) wins++
        }
        sort(r, n)
        ratio = n ? sprintf("%.6g", quantile(r, n, 0.5)) : "null"
        if (dir == "?") wins = "null"
        printf "%-32s %6s %12.4g %12.4g %8s %5s %10.4g %10.4g\n", m, dir, med["base"], \
            med["head"], n ? sprintf("%.3f", ratio) : "-", dir == "?" ? "?" : wins "/" pairs, \
            iqr["base"], iqr["head"]
        line = sprintf("{\"commit\": \"%s\", \"base\": \"%s\", \"workload\": \"%s\", " \
            "\"trace\": %s, \"seconds\": %s, \"pairs\": %d, \"cpus\": %d, \"date\": \"%s\", " \
            "\"metric\": \"%s\", \"median\": %.6g, \"iqr\": %.6g, \"base_median\": %.6g, " \
            "\"base_iqr\": %.6g, \"median_ratio\": %s, \"wins\": %s}", head, base, workload, \
            trace, seconds, pairs, cpus, date, m, med["head"], iqr["head"], med["base"], \
            iqr["base"], ratio, wins)
        print line >> history
    }
}' "$runs/better" "$runs/values"
