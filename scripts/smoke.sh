#!/usr/bin/env bash
# End-to-end smokes of the serving planes: the real server binary
# (lock-order detector armed) driven by the real load generator over
# loopback. Each scenario writes its reports under smoke-results/<scenario>/.
#
# net — the network serving plane:
#   1. Closed-loop determinism: the same seeded schedule replayed
#      against a fresh 4-thread server and a fresh sequential server;
#      the two reports must be byte-identical after
#      scripts/compare_results.sh normalizes the `_wall` fields —
#      same counts, same FNV-1a response checksum. The same pair runs
#      again against `--jobs 2` servers, whose two stores serve as one
#      tenant front (`FLStore-MT(2)`), with `loadgen --jobs 2` sending
#      both jobs' schedules interleaved by time.
#   2. Overload is typed: an open-loop burst into `--max-inflight 2`
#      must see Overloaded envelopes and ZERO transport errors (no
#      drops, no resets) — `--expect-overload` makes the loadgen the
#      gate.
#   3. Connection limiting is clean: 5 simultaneous connections into
#      `--max-conns 2` probe as served/overloaded with zero transport
#      errors.
#   4. Pacing is result-transparent: the same open-loop schedule sent
#      unpaced and at `--rate 2000` against fresh servers must produce
#      byte-identical deterministic report fields — arrival timing can
#      only move `_wall` numbers. One connection, because only a total
#      submission order is comparable across runs (multi-connection
#      open loop races envelopes between sockets by design).
#
# recovery — a durable server killed with SIGKILL and recovered from its
# write-ahead ledger, byte-diffed against an uninterrupted run:
#   1. A durable server (--data-dir, synchronous commit) serves pass 1
#      of a seeded closed-loop schedule, then dies by SIGKILL — no
#      shutdown path, exactly what the ledger must survive.
#   2. A fresh server process on the same --data-dir recovers (its log
#      must say so) and serves pass 2.
#   3. An identically configured durable server on its own data-dir
#      serves pass 1 then pass 2 in one uninterrupted life — the only
#      variable is the kill. Both passes' reports must match the killed
#      run's byte-for-byte after scripts/compare_results.sh normalizes
#      the `_wall` fields: pass 1 proves cross-process determinism,
#      pass 2 proves the recovered state (cache, cold tier included) is
#      the pre-crash state.
#
# cluster — the server fronting a 3-node rf=2 replicated cluster with
# node 1 killed mid-run: the simulated equivalent of SIGKILL-ing that
# node's process (its memory is dropped, its write-ahead ledger keeps
# only what was flushed, and it goes silent until its scheduled rejoin):
#   1. The churned cluster serves pass 1 of a seeded closed-loop
#      schedule. Node 1 (the primary for job 1's replica set) dies 1800
#      virtual seconds in; during the detection window the server
#      answers typed Relocated redirects, and the load generator's
#      bounded retry budget (--retries) rides through them. The gate:
#      ZERO requests failed *by the failover* — the final ok/rejected
#      counts must equal the churn-free twin's exactly (the trace's own
#      application-level rejections are identical on both) — and at
#      least one redirect was actually exercised. The killed node
#      rejoins from its own ledger before pass 2.
#   2. The churned cluster serves pass 2 (the post-failover pass, now on
#      the promoted replica + repaired spare).
#   3. A churn-free twin — identical cluster, no failure schedule —
#      serves both passes. Pass 2's reports must match the churned run's
#      byte-for-byte after scripts/compare_results.sh normalizes the
#      `_wall` fields: the failover, the re-replication, and the rejoin
#      are unobservable in post-failover payload bytes.
#
# Usage: scripts/smoke.sh <net|recovery|cluster>
set -euo pipefail
cd "$(dirname "$0")/.."

scenario="${1:-}"
case "$scenario" in
    net | recovery | cluster) ;;
    *)
        echo "usage: scripts/smoke.sh <net|recovery|cluster>" >&2
        exit 2
        ;;
esac
name="$scenario-smoke"

# Build up front so `listening on` is the first line the log parser sees
# and the per-run startup is fast.
cargo build --release -q -p flstore-net --features lock-order --bin flstore-net
cargo build --release -q -p flstore-loadgen --bin flstore-loadgen

server_pid=""
server_log="$(mktemp)"
data_dir="$(mktemp -d)"
ref_data_dir="$(mktemp -d)"
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$server_log" "$data_dir" "$ref_data_dir"
}
trap cleanup EXIT

# start_server <extra flags...> — launches a fresh server on an
# ephemeral port and sets $addr from its "listening on" line.
start_server() {
    : >"$server_log"
    target/release/flstore-net serve --addr 127.0.0.1:0 "$@" >"$server_log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$server_log")"
        [ -n "$addr" ] && return 0
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "$name: server exited before binding:" >&2
            cat "$server_log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "$name: server never reported its address" >&2
    exit 1
}

# stop_server [signal] — stops the running server (SIGTERM by default).
stop_server() {
    kill "-${1:-TERM}" "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
}

loadgen() {
    target/release/flstore-loadgen --addr "$addr" "$@"
}

out="smoke-results/$scenario"
rm -rf "$out"
mkdir -p "$out"

smoke_net() {
    mkdir -p "$out/sharded" "$out/sequential"

    # --- 1. closed-loop determinism: 4-thread vs sequential serving ---
    start_server --jobs 1 --threads 4
    echo "$name: closed loop vs 4-thread server at $addr"
    loadgen --mode closed --requests 312 --seed 7 --out "$out/sharded/netload.json"
    stop_server

    start_server --jobs 1 --threads 1
    echo "$name: closed loop vs sequential server at $addr"
    loadgen --mode closed --requests 312 --seed 7 --out "$out/sequential/netload.json"
    stop_server

    scripts/compare_results.sh "$out/sharded" "$out/sequential"

    # --- 1b. the same closed loop against a 2-job tenant front -------
    mkdir -p "$out/tenants-sharded" "$out/tenants-sequential"
    start_server --jobs 2 --threads 4
    echo "$name: closed loop vs 2-job, 4-thread server at $addr"
    loadgen --mode closed --jobs 2 --requests 312 --seed 7 --out "$out/tenants-sharded/netload.json"
    stop_server

    start_server --jobs 2 --threads 1
    echo "$name: closed loop vs 2-job sequential server at $addr"
    loadgen --mode closed --jobs 2 --requests 312 --seed 7 --out "$out/tenants-sequential/netload.json"
    stop_server

    scripts/compare_results.sh "$out/tenants-sharded" "$out/tenants-sequential"

    # --- 2. overload surfaces as typed envelopes, never resets -------
    start_server --jobs 1 --threads 4 --max-inflight 2
    echo "$name: open-loop burst into max_inflight=2 at $addr"
    loadgen --mode burst --connections 4 --requests 312 --seed 7 --expect-overload \
        --out "$out/burst.json"
    stop_server

    # --- 3. connection limiting: typed envelope + clean half-close ---
    start_server --jobs 1 --threads 1 --max-conns 2
    echo "$name: connection probe into max_conns=2 at $addr"
    loadgen --mode probe --connections 5 --expect-overload
    stop_server

    # --- 4. paced arrivals change nothing but wall-clock fields ------
    mkdir -p "$out/unpaced" "$out/paced"
    start_server --jobs 1 --threads 4
    echo "$name: unpaced open loop at $addr"
    loadgen --mode burst --connections 1 --requests 312 --seed 7 \
        --out "$out/unpaced/openload.json"
    stop_server

    start_server --jobs 1 --threads 4
    echo "$name: paced open loop (--rate 2000) at $addr"
    loadgen --mode burst --connections 1 --requests 312 --seed 7 --rate 2000 \
        --out "$out/paced/openload.json"
    stop_server

    scripts/compare_results.sh "$out/unpaced" "$out/paced"

    echo
    echo "$name: OK (deterministic closed loop on one job and on a 2-job front, typed overload, clean connection limiting, pacing result-transparent)"
}

smoke_recovery() {
    mkdir -p "$out/killed" "$out/uninterrupted"
    local durable_flags=(--jobs 1 --threads 2 --flush-every 1 --spill)

    # --- 1. durable pass 1, then die by SIGKILL ----------------------
    start_server "${durable_flags[@]}" --data-dir "$data_dir"
    echo "$name: durable pass 1 at $addr (then SIGKILL)"
    loadgen --mode closed --requests 160 --seed 7 --out "$out/killed/pass1.json"
    stop_server KILL

    # --- 2. recover on the same data-dir, serve pass 2 ---------------
    start_server "${durable_flags[@]}" --data-dir "$data_dir"
    if ! grep -q '^durable: 1 job(s) recovered from ledger$' "$server_log"; then
        echo "$name: restarted server did not report a recovery:" >&2
        cat "$server_log" >&2
        exit 1
    fi
    echo "$name: recovered at $addr, durable pass 2"
    loadgen --mode closed --requests 160 --seed 21 --out "$out/killed/pass2.json"
    stop_server

    # --- 3. the uninterrupted reference: both passes in one life -----
    start_server "${durable_flags[@]}" --data-dir "$ref_data_dir"
    echo "$name: uninterrupted reference at $addr (pass 1 + pass 2)"
    loadgen --mode closed --requests 160 --seed 7 --out "$out/uninterrupted/pass1.json"
    loadgen --mode closed --requests 160 --seed 21 --out "$out/uninterrupted/pass2.json"
    stop_server

    scripts/compare_results.sh "$out/killed" "$out/uninterrupted"

    echo
    echo "$name: OK (SIGKILL'd ledger recovered; both passes byte-identical to the uninterrupted run)"
}

smoke_cluster() {
    mkdir -p "$out/churned" "$out/churn-free"
    local cluster_flags=(--cluster-nodes 3 --cluster-rf 2 --detect-ms 60000 --flush-every 1)
    # Window 1 keeps the closed loop strictly in schedule order, so a
    # redirected envelope is resolved (retried past detection) before the
    # next one is sent — the "in-flight window" the availability bound
    # allows is exactly the one outstanding request.
    local pass_flags=(--mode closed --requests 200 --window 1 --retries 2)

    # --- 1+2. churned cluster: kill node 1 mid-pass-1, rejoin before pass 2
    start_server "${cluster_flags[@]}" --data-dir "$data_dir" --kill 1@1800 --rejoin 1@3000
    echo "$name: churned cluster at $addr (node 1 dies at t=1800s, rejoins at t=3000s)"
    loadgen "${pass_flags[@]}" --seed 7 --out "$out/churned-pass1.json"
    if ! grep -Eq '"redirected": [1-9]' "$out/churned-pass1.json"; then
        echo "$name: pass 1 never saw a Relocated redirect — the kill did not bite:" >&2
        cat "$out/churned-pass1.json" >&2
        exit 1
    fi
    loadgen "${pass_flags[@]}" --seed 31 --out "$out/churned/pass2.json"
    stop_server

    # --- 3. the churn-free twin: same cluster, no failure schedule ----
    start_server "${cluster_flags[@]}" --data-dir "$ref_data_dir"
    echo "$name: churn-free twin at $addr (pass 1 + pass 2)"
    loadgen "${pass_flags[@]}" --seed 7 --out "$out/churn-free-pass1.json" 2>/dev/null
    if ! grep -q '"redirected": 0' "$out/churn-free-pass1.json"; then
        echo "$name: churn-free twin answered redirects without a failure schedule" >&2
        exit 1
    fi
    loadgen "${pass_flags[@]}" --seed 31 --out "$out/churn-free/pass2.json" 2>/dev/null
    stop_server

    # Zero requests failed by the failover: every final count of pass 1 —
    # ok, rejected, transport errors — must equal the churn-free twin's.
    # (The schedules carry a handful of application-level rejections by
    # design; they are identical on both sides, so any extra rejection
    # here is a request the failover lost.)
    field() { sed -n "s/^  \"$2\": \([0-9]*\),*$/\1/p" "$1"; }
    for key in ok rejected transport_errors; do
        churned="$(field "$out/churned-pass1.json" "$key")"
        twin="$(field "$out/churn-free-pass1.json" "$key")"
        if [ "$churned" != "$twin" ]; then
            echo "$name: pass-1 '$key' diverged: churned=$churned churn-free=$twin" >&2
            exit 1
        fi
    done
    echo "$name: pass 1 rode through the failover with zero failed requests"

    # Pass 1 reports legitimately differ beyond those counts (the churned
    # one carries nonzero retried/redirected columns and its redirected
    # envelope was served post-failover); the post-failover pass must be
    # byte-identical modulo `_wall` fields.
    scripts/compare_results.sh "$out/churned" "$out/churn-free"

    echo
    echo "$name: OK (node kill survived with zero failed requests; post-failover pass byte-identical to the churn-free twin)"
}

"smoke_$scenario"
