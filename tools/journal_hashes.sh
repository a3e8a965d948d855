#!/usr/bin/env sh
# Print the seedsweep journal hash of every seed of every scenario.
#
# Runs `seedsweep --quick` (64 seeds, each executed twice under virtual
# time) for the chaos, partition, allreduce-adjust and churn scenarios
# and prints one `scenario seed hash` line per seed. A seed whose two
# runs diverged or that failed prints its verdict in place of the hash.
# Two checkouts have byte-identical journals iff their outputs are equal:
#
#   tools/journal_hashes.sh > before.txt     # at the parent commit
#   tools/journal_hashes.sh > after.txt      # at the change
#   diff before.txt after.txt
#
# The exit status is non-zero iff any seed diverged or failed.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -q -p bench --bin seedsweep
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for scenario in chaos partition allreduce-adjust churn; do
    cargo run --release -q -p bench --bin seedsweep -- \
        --quick --scenario "$scenario" --out "$tmp/sweep.json" \
        2>"$tmp/sweep.log" || status=1
    sed -n -E \
        -e "s/^seed ([0-9]+): ok ([0-9a-f]+)$/$scenario \\1 \\2/p" \
        -e "s/^seed ([0-9]+): (DIVERGENT|FAILED)(.*)$/$scenario \\1 \\2\\3/p" \
        "$tmp/sweep.log"
done
exit "$status"
