#!/usr/bin/env bash
# Byte-diffs two directories of flstore-loadgen JSON reports: every
# report must be identical once the `_wall` fields are normalized away.
#
# Its users are the net, recovery and cluster smokes
# (scripts/{net,recovery,cluster}_smoke.sh), which replay one seeded
# schedule against two differently configured servers and demand the
# same payload. A loadgen report marks every wall-clock measurement
# (latency, goodput, elapsed time, and the timing-dependent Overloaded
# count) with a `_wall` name suffix; everything else in it — counts,
# retries, the FNV-1a checksum over response bytes — is a payload fact
# and must reproduce byte-for-byte. That suffix is the ONLY normalized
# pattern: widening it would silently weaken the gate, so producers opt
# in by naming, never by editing this script.
#
# Figure outputs do not come through here. They carry no wall-clock
# bytes, so the figures gate is a plain `diff -r` (scripts/verify.sh,
# .github/workflows/ci.yml).
#
# Usage: scripts/compare_results.sh <dir-a> <dir-b>
set -euo pipefail
# Empty result directories must hit the explicit "no result files" check
# below, not iterate over a literal '*.json'.
shopt -s nullglob

if [ $# -ne 2 ]; then
    echo "usage: scripts/compare_results.sh <dir-a> <dir-b>" >&2
    exit 2
fi
a="$1"
b="$2"

normalize_wall() {
    sed -E 's/"([A-Za-z0-9_]+_wall)": *[0-9.eE+-]+/"\1": "WALL-CLOCK"/g' "$1"
}

fail=0
count=0
for f in "$a"/*.json; do
    name="$(basename "$f")"
    count=$((count + 1))
    if [ ! -f "$b/$name" ]; then
        echo "missing in $b: $name"
        fail=1
    elif ! diff -q <(normalize_wall "$f") <(normalize_wall "$b/$name") >/dev/null; then
        echo "differs (beyond _wall fields): $name"
        fail=1
    fi
done

if [ "$count" -eq 0 ]; then
    echo "no result files in $a" >&2
    exit 1
fi
for f in "$b"/*.json; do
    name="$(basename "$f")"
    if [ ! -f "$a/$name" ]; then
        echo "missing in $a: $name"
        fail=1
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "all $count reports identical across $a and $b (modulo _wall fields)"
fi
exit "$fail"
