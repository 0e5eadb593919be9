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
# values, how many pairs the change won (ties count for neither side),
# and whether the metric is `resolved`: true when each side's
# interquartile range divided by its median is within the metric's
# BENCHMARK.json bound, so the pairs can tell a change of that size from
# noise. The machine shape and the exact commands stand beside them. A
# run that exits non-zero or prints no result is kept as `null` and
# counted under `failed_runs`.
#
# After the pairs, heavy_serve runs 5 more times per side with
# `--trace 1` and seed first-seed, alternating in the same way.
# `traced.heavy_serve.{parent,change}` hold each side's per-metric median
# over those runs and `traced.heavy_serve.runs` the runs' metrics; README's
# kernel-time table is generated from this section (tests/doc_tables.rs).
# Needs bash, git, jq and a full checkout.
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
traced_runs=5

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
traced="$scratch/traced.jsonl"
: >"$records"
: >"$traced"

# run <side> <dir> <pair> <seed> <workload> [trace]: one benchmark run,
# appended as one JSON line to the records, or to the traced records
# when trace is 1.
run() {
    local side="$1" dir="$2" pair="$3" seed="$4" workload="$5" trace="${6:-0}" into="$records"
    local result
    if ((trace)); then
        into="$traced"
    fi
    echo "pair $pair seed $seed $workload trace $trace: $side" >&2
    if result="$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" 2>>"$scratch/stderr-$side.log" | tail -n 1)" &&
        jq -e 'type == "object"' <<<"$result" >/dev/null 2>&1; then
        :
    else
        result=null
    fi
    jq -nc --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
        --arg workload "$workload" --argjson result "$result" \
        '{side: $side, pair: $pair, seed: $seed, workload: $workload, result: $result}' >>"$into"
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

for ((i = 1; i <= traced_runs; i++)); do
    if ((i % 2 == 1)); then
        run parent "$scratch/parent" "$i" "$first_seed" heavy_serve 1
        run change "$repo" "$i" "$first_seed" heavy_serve 1
    else
        run change "$repo" "$i" "$first_seed" heavy_serve 1
        run parent "$scratch/parent" "$i" "$first_seed" heavy_serve 1
    fi
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
    --argjson first_seed "$first_seed" \
    --arg traced_command "bash benchmark/run.sh --workload heavy_serve --seed $first_seed --seconds $seconds --trace 1, $traced_runs times per side, alternating (parent first in odd runs, change first in even runs)" \
    --slurpfile traced "$traced" '
    # Linear interpolation between closest ranks.
    def quantile($p):
        sort as $s | ($s | length) as $n
        | if $n == 0 then null
          else (($n - 1) * $p) as $h | ($h | floor) as $lo
            | $s[$lo] + ($h - $lo) * (($s[[$lo + 1, $n - 1] | min]) - $s[$lo])
          end;
    def summary: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75), runs: .};
    # Whether one side of a summary is tight enough to judge a change
    # against $bound: its interquartile range is within $bound of its
    # median. A side with no runs resolves nothing.
    def resolves($bound):
        .median != null and (.q3 - .q1) <= $bound * (.median | fabs);
    # One traced side: the numeric metrics of every run, and their medians.
    def traced_side($side):
        [$traced[] | select(.side == $side and .result != null)
         | .result.metrics | map_values(.value | select(type == "number"))] as $runs
        | {runs: $runs,
           median: ([$runs[] | keys[]] | unique
                    | map(. as $k | {key: $k, value: ([$runs[][$k] | select(. != null)] | quantile(0.5))})
                    | from_entries)};
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
                        | ([$by_pair[].parent | select(. != null)] | summary) as $parent
                        | ([$by_pair[].change | select(. != null)] | summary) as $change
                        | {
                            unit: $m.unit,
                            better: $m.better,
                            bound: $m.bound,
                            parent: $parent,
                            change: $change,
                            resolved: ([$parent, $change] | map(resolves($m.bound)) | all),
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
        ),
        traced: (traced_side("parent") as $parent | traced_side("change") as $change | {
          command: $traced_command,
          note: "parent and change hold the per-metric median of the runs in runs; workloads.kernel.*_us are the per-kernel probes at 48x4096; trace.share.* are self-time shares of the traced pass",
          failed_runs: ([$traced[] | select(.result == null or .result.correct != true)] | length),
          heavy_serve: {
            parent: $parent.median,
            change: $change.median,
            runs: {parent: $parent.runs, change: $change.runs}
          }
        })
      }' "$records" >"$out"
echo "wrote $out" >&2
