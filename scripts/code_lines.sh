#!/usr/bin/env bash
# Counts code lines the way ROADMAP's size rule defines them: non-blank
# lines that do not start with `//` (after leading whitespace), in every
# `.rs` file under a crate's `src/`, up to the file's first `#[cfg(test)]`.
#
# Prints one line per crate (`crates/<name>/src <count>`), then the
# core + exec + cluster + trace + bench total the simplicity target is
# measured on.
#
# Usage: scripts/code_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count_dir() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }
    '
}

five=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    n="$(count_dir "$dir")"
    printf '%s %d\n' "$dir" "$n"
    case "$crate" in
        core | exec | cluster | trace | bench) five=$((five + n)) ;;
    esac
done
printf 'core+exec+cluster+trace+bench %d\n' "$five"
