#!/usr/bin/env bash
# Non-test code lines per crate: the line count each change reports.
#
# Usage: ./scripts/loc.sh [git-rev]
#
# Counts the Rust sources under crates/*/src and src/ (the root package),
# from the working tree or, given a rev, from that commit via `git show`.
# A counted line is one that is not blank, not a comment (`//`, `///`,
# `//!`, or inside `/* */`), and not inside an item marked `#[cfg(test)]`
# (the unit-test modules). Test files under tests/, benches and examples
# are not counted. Informational only: no check depends on it.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"

# Reads one Rust file on stdin and prints its counted lines.
count() {
    awk '
        function braces(line,   opens, closes) {
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            return opens - closes
        }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (in_block) {
                if (index(line, "*/")) in_block = 0
                next
            }
            if (skipping) {
                if (!started && line == "") next
                depth += braces(line)
                if (index(line, "{")) started = 1
                if ((started && depth <= 0) || (!started && line ~ /;[ \t]*$/)) {
                    skipping = 0
                }
                next
            }
            if (line == "" || line ~ /^\/\//) next
            if (line ~ /^\/\*/) {
                if (!index(substr(line, 3), "*/")) in_block = 1
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) {
                skipping = 1; started = 0; depth = 0
                next
            }
            n++
        }
        END { print n + 0 }
    '
}

if [[ -n "$rev" ]]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates src)
else
    files=$(find crates src -name '*.rs' | sort)
fi

declare -A per_crate=()
total=0
while IFS= read -r path; do
    case "$path" in
        crates/*/src/*.rs) crate=${path#crates/}; crate=${crate%%/*} ;;
        src/*.rs) crate="(root)" ;;
        *) continue ;;
    esac
    if [[ -n "$rev" ]]; then
        lines=$(git show "$rev:$path" | count)
    else
        lines=$(count < "$path")
    fi
    per_crate[$crate]=$(( ${per_crate[$crate]:-0} + lines ))
    total=$(( total + lines ))
done <<< "$files"

for crate in $(printf '%s\n' "${!per_crate[@]}" | sort); do
    printf '%-14s %7d\n' "$crate" "${per_crate[$crate]}"
done
printf '%-14s %7d\n' "total" "$total"
