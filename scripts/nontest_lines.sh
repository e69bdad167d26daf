#!/usr/bin/env bash
# Non-test source lines: for every .rs file under crates/*/src and src/,
# the lines above its first `#[cfg(test)]` or `#![cfg(test)]` (the whole
# file when it has neither; a test-only module file that opens with
# `#![cfg(test)]` counts as test code). Prints one row per crate and a
# total; with --files, one row per file instead of per crate; with
# --against REV, each crate's count at REV, in the working tree, and the
# difference.
#
#   bash scripts/nontest_lines.sh                 # per crate + total
#   bash scripts/nontest_lines.sh --files         # per file + total
#   bash scripts/nontest_lines.sh --against HEAD~ # REV vs working tree
set -euo pipefail
cd "$(dirname "$0")/.."

per_file() {
    for f in $(find crates/*/src src -name '*.rs' | sort); do
        awk -v f="$f" '/^[[:space:]]*#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
    done
}

# "<lines> <crate>" per crate, then "<lines> total".
per_crate() {
    local rows
    rows=$(per_file)
    awk '{
        split($2, p, "/")
        n[(p[1] == "crates") ? p[2] : "src"] += $1
        t += $1
    } END { for (c in n) print n[c], c; print t, "total" }' <<<"$rows"
}

case "${1:-}" in
--files)
    rows=$(per_file)
    awk '{ printf "%7d  %s\n", $1, $2 }' <<<"$rows"
    awk '{ t += $1 } END { printf "%7d  total\n", t }' <<<"$rows"
    ;;
--against)
    rev=${2:?usage: nontest_lines.sh --against REV}
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$rev" crates src | tar -x -C "$tmp"
    before=$(cd "$tmp" && per_crate)
    after=$(per_crate)
    printf "%7s  %7s  %7s  %s\n" "$rev" "tree" "diff" "crate"
    # Join on the crate name; a crate on one side only counts 0 on the other.
    awk 'NR == FNR { b[$2] = $1; seen[$2] = 1; next }
         { a[$2] = $1; seen[$2] = 1 }
         END {
             for (c in seen) if (c != "total") printf "%7d  %7d  %+7d  %s\n", b[c], a[c], a[c] - b[c], c
         }' <(echo "$before") <(echo "$after") | sort -k4
    awk 'NR == FNR { if ($2 == "total") b = $1; next }
         $2 == "total" { printf "%7d  %7d  %+7d  total\n", b, $1, $1 - b }' \
        <(echo "$before") <(echo "$after")
    ;;
*)
    counts=$(per_crate)
    awk '$2 != "total" { printf "%7d  %s\n", $1, ($2 == "src") ? "src (the yardstick binary)" : $2 }' <<<"$counts" | sort -k2
    awk '$2 == "total" { printf "%7d  total\n", $1 }' <<<"$counts"
    ;;
esac
