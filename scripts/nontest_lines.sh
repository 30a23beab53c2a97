#!/usr/bin/env bash
# Count the workspace's non-test lines: every `crates/*/src/**/*.rs` file up
# to (not including) its first `#[cfg(test)]` line, blank lines and comments
# included. Prints one line per crate, then the total.
#
#   bash scripts/nontest_lines.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

total=0
for dir in crates/*/; do
    crate="$(basename "$dir")"
    [ -d "$dir/src" ] || continue
    n="$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { skip[FILENAME] = 1 }
                      !skip[FILENAME] { n++ }
                      END { print n + 0 }')"
    printf '%-10s %7d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"
