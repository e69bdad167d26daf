#!/usr/bin/env bash
# Non-test source lines: for every .rs file under crates/*/src and src/,
# the lines above its first `#[cfg(test)]` (the whole file when it has
# none). Prints one row per crate and a total; with --files, one row per
# file instead of per crate.
#
#   bash scripts/nontest_lines.sh            # per crate + total
#   bash scripts/nontest_lines.sh --files    # per file + total
set -euo pipefail
cd "$(dirname "$0")/.."

per_file() {
    for f in $(find crates/*/src src -name '*.rs' | sort); do
        awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
    done
}

rows=$(per_file)
if [ "${1:-}" = "--files" ]; then
    awk '{ printf "%7d  %s\n", $1, $2 }' <<<"$rows"
else
    awk '{
        split($2, p, "/")
        n[(p[1] == "crates") ? p[2] : "src (the yardstick binary)"] += $1
    } END { for (c in n) printf "%7d  %s\n", n[c], c }' <<<"$rows" | sort -k2
fi
awk '{ t += $1 } END { printf "%7d  total\n", t }' <<<"$rows"
