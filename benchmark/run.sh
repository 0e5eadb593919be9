#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--sets K] [--trace] [--quick]
#       the whole suite: every workload in its own child process, every
#       metric printed by name, results in benchmark/out/
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of standard output is one JSON object
#       (the form BENCHMARK.json's `command` is run in)
#
# The package is a workspace of its own with path dependencies on
# ../crates/* and ../vendor/*, so it only builds inside a full checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to standard error: standard output belongs to results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/flstore-benchmark" "$@"
