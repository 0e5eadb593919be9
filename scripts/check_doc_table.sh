#!/usr/bin/env bash
# Drift guard for the machine-checked inventory tables: the markdown
# table rows between `<!-- <marker>:begin -->` and `<!-- <marker>:end -->`
# in <doc> must match the tab-separated output of a cargo command
# exactly — same cells, same order, however many columns the rows have.
# An inventory row added, removed, or reworded in the source without
# updating the document (or vice versa) fails CI here.
#
# Usage: scripts/check_doc_table.sh <marker> <doc> -- <cargo args…>
#
#   wire-frames            docs/WIRE.md    -- run -q -p flstore-net --bin flstore-net -- --list-frames
#   ledger-records         docs/LEDGER.md  -- run -q -p flstore-durability --bin flstore-durability -- --list-records
#   cluster-failure-events docs/CLUSTER.md -- run -q -p flstore-cluster --bin flstore-cluster -- --list-events
#   analyze-rules          README.md       -- run -q -p flstore-analyze -- --list-rules
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 4 ] || [ "$3" != "--" ]; then
    echo "usage: scripts/check_doc_table.sh <marker> <doc> -- <cargo args…>" >&2
    exit 2
fi
marker="$1"
doc="$2"
shift 3

actual="$(cargo "$@")"

# Reduce each `| `first` | cell | … |` row to the tab-separated shape
# the command prints: cells trimmed, the first cell's backticks dropped.
documented="$(
    awk -v begin="<!-- $marker:begin -->" -v end="<!-- $marker:end -->" '
        index($0, begin) { inside = 1; next }
        index($0, end) { inside = 0 }
        inside && /^\| `/ {
            sub(/^\|[[:space:]]*/, ""); sub(/[[:space:]]*\|[[:space:]]*$/, "")
            cells = split($0, cell, /[[:space:]]*\|[[:space:]]*/)
            gsub(/`/, "", cell[1])
            row = cell[1]
            for (i = 2; i <= cells; i++) row = row "\t" cell[i]
            print row
        }' "$doc"
)"

if diff <(printf '%s\n' "$actual") <(printf '%s\n' "$documented") >/dev/null; then
    echo "$marker in sync: $(printf '%s\n' "$actual" | wc -l) rows match between \`cargo $*\` and $doc"
else
    echo "the $marker table in $doc has drifted from \`cargo $*\`:" >&2
    diff <(printf '%s\n' "$actual") <(printf '%s\n' "$documented") >&2 || true
    echo >&2
    echo "update the table between <!-- $marker:begin/end --> in $doc" >&2
    echo "(or the inventory the command prints) so they agree." >&2
    exit 1
fi
