#!/usr/bin/env sh
# Count production Rust lines per crate.
#
# For every workspace crate (`crates/*/src`, plus the facade's `src/`)
# sums the lines of each `.rs` file up to its `#[cfg(test)] mod` block.
# A test module sits at the end of its file, so everything from that
# attribute on is skipped; a `#[cfg(test)]` on any other item counts.
# Prints one `lines crate` row per crate, then the total. Not a gate: it
# makes the line counts quoted in ROADMAP.md and CHANGES.md reproducible.
#
# Usage:
#   tools/loc.sh            # every crate
#   tools/loc.sh elan-rt    # one crate (the facade is `elan`)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' | LC_ALL=C sort | while IFS= read -r f; do
        awk '/^#\[cfg\(test\)\]/{getline n; if (n ~ /^mod /) exit; c++} {c++} END{print c+0}' "$f"
    done | awk '{s+=$1} END{print s+0}'
}

total=0
for dir in src crates/*/src; do
    if [ "$dir" = src ]; then name=elan; else name=$(basename "$(dirname "$dir")"); fi
    if [ $# -gt 0 ] && [ "$1" != "$name" ]; then continue; fi
    n=$(count "$dir")
    total=$((total + n))
    echo "$n $name"
done
echo "$total total"
