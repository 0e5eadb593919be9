#!/usr/bin/env bash
# Type-checks the standalone benchmark package (benchmark/) against the
# crates in this tree, so a change that renames or deletes a path the
# benchmark imports fails here instead of only when the benchmark runs.
#
# The benchmark is its own workspace with its own Cargo.lock, which is
# one `serde_json` line behind the crates it builds; cargo rewrites it
# on the way (so no --locked), and this script puts the committed bytes
# back whether or not the check passes.
#
# Shared by the CI tier-1 job and scripts/verify.sh.
#
# Usage: scripts/check_benchmark.sh
set -euo pipefail

cd "$(dirname "$0")/.."

saved_lock="$(mktemp)"
cp benchmark/Cargo.lock "$saved_lock"
status=0
CARGO_TARGET_DIR=benchmark/target cargo check --offline --manifest-path benchmark/Cargo.toml ||
    status=$?
cp "$saved_lock" benchmark/Cargo.lock
rm -f "$saved_lock"
exit "$status"
