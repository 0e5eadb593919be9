#!/usr/bin/env bash
# Tier-1 verification for the FLStore reproduction workspace.
#
# Usage: scripts/verify.sh [--skip-smoke]
#
# Runs the SAME steps as .github/workflows/ci.yml, in the same order, so
# local verify and CI cannot drift:
#   1. cargo build --release                   (tier1: whole workspace)
#   2. cargo test -q                           (tier1: unit + property + integration + doctests)
#   3. benchmark compile: scripts/check_benchmark.sh type-checks the
#      standalone benchmark/ package against this tree (its Cargo.lock
#      left byte-identical)
#   4. cargo clippy --all-targets -D warnings  (lint: BLOCKING, like CI)
#   5. cargo fmt --check                       (lint: BLOCKING, like CI)
#   6. cargo doc --no-deps -D warnings         (lint: public API stays documented)
#   7. analyze lint (BLOCKING, like CI): the determinism rules plus
#      dead_pub; the doc inventory tables are checked by
#      tests/doc_tables.rs in step 2
#   8. lock-order detector tests: parking_lot unit tests + the exec
#      stress/batch-shape/seeded-inversion suite + the net socket suite,
#      all --features lock-order
#   9. figures smoke: every experiment id end-to-end at --fast scale into
#      results-smoke/ (so full-scale results/ are never clobbered), its
#      stdout captured as results-smoke/stdout.txt, then
#      scripts/check_figures_outputs.sh — the same check CI runs — and
#      `sha256sum -c FIGURES.sha256`: every result byte is committed.
#  10. parallel determinism: the same sweep again with --threads 4 (an
#      executor on four kernel threads, work-stealing serves, built with
#      the lock-order detector armed) into results-smoke-threads4/,
#      compared with the sequential run by a plain `diff -r` — every
#      JSON file and the captured stdout, no normalization: the helper
#      threads may not show in a result byte.
#  11. net smoke: the real server binary + load generator over loopback
#      via scripts/smoke.sh net — closed-loop reports byte-diffed across
#      thread counts, overload asserted typed (zero transport errors),
#      paced arrivals asserted result-transparent.
#  12. recovery smoke: a durable server SIGKILL'd mid-life and recovered
#      from its write-ahead ledger via scripts/smoke.sh recovery —
#      served responses byte-diffed against an uninterrupted run.
#  13. cluster smoke: the net server fronting a 3-node rf=2 cluster with
#      a node killed mid-run via scripts/smoke.sh cluster — zero failed
#      requests after retries, post-failover pass byte-diffed against a
#      churn-free twin.
#      Skip 9–13 with --skip-smoke for a quick edit-compile loop.
set -euo pipefail

cd "$(dirname "$0")/.."

skip_smoke=0
for arg in "$@"; do
    case "$arg" in
        --skip-smoke) skip_smoke=1 ;;
        *)
            echo "unknown argument: $arg" >&2
            echo "usage: scripts/verify.sh [--skip-smoke]" >&2
            exit 2
            ;;
    esac
done

run() {
    echo
    echo "==> $*"
    "$@"
}

# figures_leg <dir> <cargo args...>: one figures sweep into <dir>, with
# its stdout (the printed tables and paper comparisons) captured as
# <dir>/stdout.txt so the determinism gate diffs it with the JSON.
figures_leg() {
    local dir="$1"
    shift
    rm -rf "$dir"
    mkdir -p "$dir"
    echo
    echo "==> FLSTORE_RESULTS_DIR=$dir cargo $* > $dir/stdout.txt"
    FLSTORE_RESULTS_DIR="$dir" cargo "$@" >"$dir/stdout.txt"
}

run cargo build --release
run cargo test -q
run scripts/check_benchmark.sh
run cargo clippy -q --all-targets -- -D warnings
run cargo fmt --check
echo
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Correctness tooling (blocking, like CI's analyze job): the analyze lint
# (determinism rules and dead_pub) over the workspace sources and the
# lock-order deadlock detector suites.
run cargo run -q -p flstore-analyze -- lint
run cargo test -q -p parking_lot --features lock-order
run cargo test -q -p flstore-exec --features lock-order
run cargo test -q -p flstore-net --features lock-order

if [ "$skip_smoke" -eq 0 ]; then
    # Smoke outputs go to their own directory so this run can neither be
    # satisfied by stale files nor clobber full-scale results/ the
    # developer may have spent minutes generating. (CI uses the default
    # results/ from a fresh checkout.)
    figures_leg results-smoke run --release --bin figures -- all --fast
    run scripts/check_figures_outputs.sh results-smoke
    # Figure bytes are committed data: a PR that moves one updates
    # FIGURES.sha256 in its own diff.
    echo
    echo "==> (cd results-smoke && sha256sum -c ../FIGURES.sha256)"
    (cd results-smoke && sha256sum --quiet -c ../FIGURES.sha256)

    # Parallel determinism gate: four executor kernel threads must
    # reproduce the sequential sweep byte for byte — JSON and stdout,
    # plain diff.
    # --features lock-order arms the deadlock detector, so an inversion
    # fails loudly instead of hanging.
    figures_leg results-smoke-threads4 run --release -p flstore-bench --features lock-order --bin figures -- all --fast --threads 4
    run diff -r results-smoke results-smoke-threads4

    # Network plane smoke: real server binary + load generator over
    # loopback, lock-order armed; closed-loop determinism across thread
    # counts, typed overload, clean connection limiting, paced arrivals.
    run scripts/smoke.sh net

    # Durability plane smoke: SIGKILL the durable server mid-life,
    # recover from the ledger, byte-diff serving against an
    # uninterrupted twin.
    run scripts/smoke.sh recovery

    # Cluster plane smoke: the net server fronting a 3-node rf=2
    # cluster, one node killed mid-run; the retrying load generator
    # must lose zero requests and the post-failover pass must
    # byte-match a churn-free twin.
    run scripts/smoke.sh cluster
else
    echo
    echo "==> figures smoke SKIPPED (--skip-smoke); CI always runs it"
fi

echo
echo "verify: OK"
