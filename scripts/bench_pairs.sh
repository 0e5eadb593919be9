#!/usr/bin/env bash
# Paired wall-clock runs of the benchmark: a parent revision against the
# working tree, summarized per workload and per end-to-end metric.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <pairs> <out.json> [first-seed]
#
# Exports <parent-rev> with `git archive` into a temporary directory
# (under $TMPDIR), then for pair i = 1..<pairs>, with seed
# first-seed + i - 1 (first-seed defaults to 1), runs every workload that
# BENCHMARK.json lists once on each side:
#
#     bash benchmark/run.sh --workload W --seed N --seconds 8 --trace 0
#
# The parent runs first in odd pairs and the working tree in even ones.
# For each workload and each metric in BENCHMARK.json's `end_to_end`
# list, <out.json> holds both sides' median, quartiles and per-pair
# values, and how many pairs the change won (ties count for neither
# side), beside the machine shape and the exact commands. A run that
# exits non-zero or prints no result is kept as `null` and counted under
# `failed_runs`. Needs bash, git, jq and a full checkout.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> <pairs> <out.json> [first-seed]" >&2
    exit 2
fi
parent_rev="$1"
pairs="$2"
out="$3"
first_seed="${4:-1}"
seconds=8

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
parent_sha="$(git rev-parse --verify "$parent_rev^{commit}")"
change_desc="$(git rev-parse HEAD)$(git diff --quiet HEAD -- . ':!benchmark/Cargo.lock' || echo '+working-tree')"
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/parent"
git archive --format=tar "$parent_sha" | tar -x -C "$scratch/parent"
records="$scratch/records.jsonl"
: >"$records"

# run <side> <dir> <pair> <seed> <workload>: one benchmark run, appended
# to the records as one JSON line.
run() {
    local side="$1" dir="$2" pair="$3" seed="$4" workload="$5" result
    echo "pair $pair seed $seed $workload: $side" >&2
    if result="$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>>"$scratch/stderr-$side.log" | tail -n 1)" &&
        jq -e 'type == "object"' <<<"$result" >/dev/null 2>&1; then
        :
    else
        result=null
    fi
    jq -nc --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
        --arg workload "$workload" --argjson result "$result" \
        '{side: $side, pair: $pair, seed: $seed, workload: $workload, result: $result}' >>"$records"
}

for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((first_seed + pair - 1))
    for workload in "${workloads[@]}"; do
        if ((pair % 2 == 1)); then
            run parent "$scratch/parent" "$pair" "$seed" "$workload"
            run change "$repo" "$pair" "$seed" "$workload"
        else
            run change "$repo" "$pair" "$seed" "$workload"
            run parent "$scratch/parent" "$pair" "$seed" "$workload"
        fi
    done
done

machine="$(jq -n \
    --arg nproc "$(nproc)" \
    --arg cpu "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" \
    --arg kernel "$(uname -sr)" \
    --arg memory "$(grep -m1 MemTotal /proc/meminfo | awk '{print $2 " kB"}')" \
    --arg rustc "$(rustc --version)" \
    '{nproc: ($nproc | tonumber), cpu: $cpu, kernel: $kernel, memory: $memory, rustc: $rustc}')"

jq -s \
    --slurpfile spec BENCHMARK.json \
    --argjson machine "$machine" \
    --arg parent "$parent_sha" \
    --arg change "$change_desc" \
    --arg command "scripts/bench_pairs.sh $parent_rev $pairs $out $first_seed" \
    --arg run_command "bash benchmark/run.sh --workload W --seed N --seconds $seconds --trace 0" \
    --argjson pairs "$pairs" \
    --argjson first_seed "$first_seed" '
    # Linear interpolation between closest ranks.
    def quantile($p):
        sort as $s | ($s | length) as $n
        | if $n == 0 then null
          else (($n - 1) * $p) as $h | ($h | floor) as $lo
            | $s[$lo] + ($h - $lo) * (($s[[$lo + 1, $n - 1] | min]) - $s[$lo])
          end;
    def summary: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75), runs: .};
    . as $records
    | $spec[0] as $spec
    | {
        command: $command,
        run_command: $run_command,
        parent: $parent,
        change: $change,
        pairs: $pairs,
        seeds: [range($first_seed; $first_seed + $pairs)],
        order: "parent first in odd pairs, change first in even pairs",
        machine: $machine,
        failed_runs: ([$records[] | select(.result == null or .result.correct != true)] | length),
        workloads: (
          [$spec.workloads[].name] | map(. as $w | {
            key: $w,
            value: (
              [$records[] | select(.workload == $w)] as $runs
              | {
                  correct: ([$runs[] | .result.correct] | all),
                  failed_requests: {
                    parent: [$runs[] | select(.side == "parent") | .result.failed],
                    change: [$runs[] | select(.side == "change") | .result.failed]
                  },
                  metrics: (
                    $spec.end_to_end | map(. as $m | {
                      key: $m.name,
                      value: (
                        [range(1; $pairs + 1) as $i
                          | {
                              parent: ([$runs[] | select(.side == "parent" and .pair == $i)
                                        | .result.metrics[$m.name].value][0]),
                              change: ([$runs[] | select(.side == "change" and .pair == $i)
                                        | .result.metrics[$m.name].value][0])
                            }] as $by_pair
                        | {
                            unit: $m.unit,
                            better: $m.better,
                            bound: $m.bound,
                            parent: ([$by_pair[].parent | select(. != null)] | summary),
                            change: ([$by_pair[].change | select(. != null)] | summary),
                            change_wins: ([$by_pair[]
                              | select(.parent != null and .change != null)
                              | select(if $m.better == "higher" then .change > .parent
                                       else .change < .parent end)] | length),
                            ties: ([$by_pair[]
                              | select(.parent != null and .change != null and .change == .parent)]
                              | length)
                          }
                      )
                    }) | from_entries
                  )
                }
            )
          }) | from_entries
        )
      }' "$records" >"$out"
echo "wrote $out" >&2
