#!/usr/bin/env bash
# Asserts that every experiment id emitted its JSON output. The expected
# file list comes from `figures -- --list` — the same table that runs the
# experiments — so this check can never drift from the binary: adding an
# experiment automatically adds its output to the requirement, and a
# mismatch between the table's declared output and the runner's actual
# save_json name shows up here as a missing file.
#
# Shared by the CI figures-smoke job and scripts/verify.sh.
#
# Usage: scripts/check_figures_outputs.sh [results-dir]
# The directory defaults to $FLSTORE_RESULTS_DIR, then "results".
set -euo pipefail

cd "$(dirname "$0")/.."
dir="${1:-${FLSTORE_RESULTS_DIR:-results}}"

expected="$(cargo run -q --release --bin figures -- --list)"
if [ -z "$expected" ]; then
    echo "figures -- --list returned no experiments" >&2
    exit 1
fi

# Experiments the suite must never silently lose: the quota/pressure
# sweep (tenancy) feeds the parallel-determinism gate, and the durability
# drill is the only figures-level coverage of crash recovery and the
# cold tier, so deregistering either would shrink coverage without any
# file going missing.
for required in tenancy jobs overhead durability; do
    if ! echo "$expected" | grep -qx "$required"; then
        echo "required experiment '$required' missing from figures -- --list" >&2
        exit 1
    fi
done

missing=0
count=0
for f in $expected; do
    count=$((count + 1))
    if [ ! -s "$dir/$f.json" ]; then
        echo "missing or empty: $dir/$f.json"
        missing=1
    fi
done
if [ "$missing" -eq 0 ]; then
    echo "all $count figure outputs present in $dir/"
fi

exit "$missing"
