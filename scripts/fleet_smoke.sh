#!/bin/sh
# fleet-smoke: end-to-end check of the distributed execution tier.
#
# Phase 1 — speedup: a batch of six jobs — the eight registered defenses
# split into three disjoint subset jobs, submitted by two "clients"
# concurrently (so each subset appears twice) — first on a standalone
# memory-only server, then on a coordinator with three leased workers.
# The fleet spreads the subsets across its workers AND coalesces the
# duplicate submissions onto single leases, so it must finish the batch
# strictly faster even on one CPU; the result document must be identical
# to the standalone one (modulo engine cache accounting).
#
# Phase 2 — durability: submit a long serialized suite to the fleet, wait
# until its worker has published some finished simulations to the
# coordinator's result store, then kill -9 that worker mid-lease. The job
# must be re-queued to a surviving worker and complete with ZERO lost
# results — every simulation published before the kill comes back as a
# remote store hit, never re-executed — all verified through /metrics.
# Then resubmit the identical suite: the coordinator answers it from its
# result store without leasing it (fleet_jobs_resolved_total up by one, no
# worker completes a lease), with the same result document.
#
# Phase 3 — drain: conspec-ctl workers drain takes a worker out of rotation.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building binaries"
$GO build -o "$tmp/bin/" ./cmd/conspec-served ./cmd/conspec-ctl

ctl() { "$tmp/bin/conspec-ctl" "$@"; }
now_ms() { date +%s%N | cut -c1-13; }

wait_listening() {
    # wait_listening <logfile> -> exports CONSPEC_SERVER
    i=0
    while [ $i -lt 100 ]; do
        CONSPEC_SERVER=$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$1" | head -1)
        if [ -n "$CONSPEC_SERVER" ]; then
            export CONSPEC_SERVER
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    echo "fleet-smoke: server never announced its address" >&2
    cat "$1" >&2
    exit 1
}

metric() { ctl metrics | sed -n "s/^conspec_served_$1 //p"; }

# Sum of one pushed per-worker counter across the whole fleet.
worker_metric_sum() {
    ctl metrics | awk -v m="conspec_served_worker_$1" \
        'index($0, m "{") == 1 { s += $2 } END { print s + 0 }'
}

# The three jobs partition the eight registered defense backends.
SUBSET1="origin,baseline,cachehit"
SUBSET2="cachehit+tpbuf,ssbd,fence"
SUBSET3="delay-on-miss,invisispec"
BENCH=astar
WARMUP=5000
MEASURE=400000

submit_subset() {
    ctl submit -suite defenses -benches $BENCH -defenses "$1" \
        -warmup $WARMUP -measure $MEASURE
}

# Engine cache accounting legitimately differs between a cold standalone
# run and a fleet run (fleet workers publish every simulation to the
# coordinator store); strip it before comparing result documents.
strip_engine_stats() {
    grep -v '"executed"\|"mem_hits"\|"disk_hits"\|"submitted"\|"skipped_cycles"\|"skip_spans"' "$1"
}

echo "fleet-smoke: phase 1a — three defense-subset jobs on a standalone server"
solo_log="$tmp/solo.log"
"$tmp/bin/conspec-served" -addr 127.0.0.1:0 -workers 1 -sim-workers 1 >"$solo_log" 2>&1 &
solo_pid=$!
pids="$pids $solo_pid"
wait_listening "$solo_log"

solo_t0=$(now_ms)
j1=$(submit_subset "$SUBSET1")
j2=$(submit_subset "$SUBSET2")
j3=$(submit_subset "$SUBSET3")
d1=$(submit_subset "$SUBSET1")
d2=$(submit_subset "$SUBSET2")
d3=$(submit_subset "$SUBSET3")
ctl watch "$j1" >"$tmp/solo1.json" 2>/dev/null
for j in "$j2" "$j3" "$d1" "$d2" "$d3"; do
    ctl watch "$j" >/dev/null 2>&1
done
solo_ms=$(($(now_ms) - solo_t0))
# Standalone jobs report no worker assignment — the field is fleet-only.
if ctl get "$j1" | grep -q '"worker"'; then
    echo "fleet-smoke: standalone job unexpectedly carries a worker field" >&2
    exit 1
fi
kill -TERM "$solo_pid" && wait "$solo_pid" 2>/dev/null || true
echo "fleet-smoke: standalone batch took ${solo_ms}ms"

echo "fleet-smoke: phase 1b — the same batch on a coordinator with 3 workers"
coord_log="$tmp/coord.log"
"$tmp/bin/conspec-served" -role coordinator -addr 127.0.0.1:0 \
    -cache-dir "$tmp/coord-cache" -data-dir "$tmp/coord-data" \
    -heartbeat 500ms -heartbeat-timeout 2s >"$coord_log" 2>&1 &
coord_pid=$!
pids="$pids $coord_pid"
wait_listening "$coord_log"

for i in 1 2 3; do
    "$tmp/bin/conspec-served" -role worker -join "$CONSPEC_SERVER" \
        -worker-name "w$i" -slots 1 -sim-workers 1 \
        -cache-dir "$tmp/w$i-cache" >"$tmp/w$i.log" 2>&1 &
    eval "w${i}_pid=$!"
    pids="$pids $!"
done

i=0
while [ "$(ctl workers 2>/dev/null | grep -c ' up ')" -lt 3 ]; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "fleet-smoke: 3 workers never registered" >&2
        ctl workers >&2 || true
        cat "$tmp"/w*.log >&2
        exit 1
    fi
    sleep 0.1
done

fleet_t0=$(now_ms)
f1=$(submit_subset "$SUBSET1")
f2=$(submit_subset "$SUBSET2")
f3=$(submit_subset "$SUBSET3")
g1=$(submit_subset "$SUBSET1")
g2=$(submit_subset "$SUBSET2")
g3=$(submit_subset "$SUBSET3")
ctl watch "$f1" >"$tmp/fleet1.json" 2>/dev/null
for j in "$f2" "$f3" "$g1" "$g2" "$g3"; do
    ctl watch "$j" >/dev/null 2>&1
done
fleet_ms=$(($(now_ms) - fleet_t0))
echo "fleet-smoke: fleet batch took ${fleet_ms}ms"

if [ "$fleet_ms" -ge "$solo_ms" ]; then
    echo "fleet-smoke: fleet (${fleet_ms}ms) was not faster than standalone (${solo_ms}ms)" >&2
    exit 1
fi
# The duplicate submissions must have coalesced onto the first three
# leases instead of executing again.
coalesced=$(metric fleet_leases_coalesced_total)
if [ "${coalesced:-0}" -lt 3 ]; then
    echo "fleet-smoke: fleet_leases_coalesced_total = ${coalesced:-0}, want >= 3" >&2
    exit 1
fi

# Fleet jobs carry their executing worker in the job document and listing.
worker1=$(ctl get "$f1" | sed -n 's/.*"worker": "\([^"]*\)".*/\1/p' | head -1)
case "$worker1" in
w1 | w2 | w3) ;;
*)
    echo "fleet-smoke: job $f1 has no worker assignment (got '$worker1')" >&2
    exit 1
    ;;
esac
ctl list | grep -F "$f1" | grep -q "@$worker1" || {
    echo "fleet-smoke: list output missing @$worker1 annotation" >&2
    ctl list >&2
    exit 1
}

if ! strip_engine_stats "$tmp/solo1.json" >"$tmp/solo1.stripped" ||
    ! strip_engine_stats "$tmp/fleet1.json" >"$tmp/fleet1.stripped" ||
    ! cmp -s "$tmp/solo1.stripped" "$tmp/fleet1.stripped"; then
    echo "fleet-smoke: fleet result differs from standalone result" >&2
    diff "$tmp/solo1.stripped" "$tmp/fleet1.stripped" >&2 || true
    exit 1
fi
echo "fleet-smoke: phase 1 OK (fleet ${fleet_ms}ms < standalone ${solo_ms}ms, identical results)"

echo "fleet-smoke: phase 2 — kill -9 a worker mid-lease"
puts_before=$(metric fleet_result_puts_total)
remote_hits_before=$(worker_metric_sum cache_hits_remote_total)

# A long serialized suite: enough runs that the worker is nowhere near
# done when the first results land in the coordinator store.
lru=$(ctl submit -suite lru -benches $BENCH -warmup 2000 -measure 300000)
# Find the worker executing it, then wait until it has durably published a
# few finished simulations to the coordinator.
i=0
victim=""
while [ -z "$victim" ]; do
    victim=$(ctl get "$lru" | sed -n 's/.*"worker": "\([^"]*\)".*/\1/p' | head -1)
    i=$((i + 1))
    [ $i -gt 300 ] && { echo "fleet-smoke: lru job never leased" >&2; exit 1; }
    sleep 0.1
done
i=0
while :; do
    puts=$(metric fleet_result_puts_total)
    [ $((puts - puts_before)) -ge 3 ] && break
    i=$((i + 1))
    [ $i -gt 600 ] && { echo "fleet-smoke: no results published before kill" >&2; exit 1; }
    sleep 0.05
done
pre_kill=$((puts - puts_before))

eval "victim_pid=\$${victim}_pid"
kill -9 "$victim_pid"
echo "fleet-smoke: killed -9 worker $victim (pid $victim_pid) with $pre_kill simulations published"

# The job must still complete (re-queued to a surviving worker)...
ctl watch "$lru" >"$tmp/lru.json" 2>/dev/null
grep -q '"lru"' "$tmp/lru.json" || {
    echo "fleet-smoke: recovered lru job produced no lru section" >&2
    exit 1
}
# ...on a different worker...
worker2=$(ctl get "$lru" | sed -n 's/.*"worker": "\([^"]*\)".*/\1/p' | head -1)
if [ "$worker2" = "$victim" ] || [ -z "$worker2" ]; then
    echo "fleet-smoke: job finished on '$worker2', expected a surviving worker" >&2
    exit 1
fi
# ...via exactly the lease-requeue path...
requeued=$(metric fleet_leases_requeued_total)
if [ "${requeued:-0}" -lt 1 ]; then
    echo "fleet-smoke: fleet_leases_requeued_total = ${requeued:-0}, want >= 1" >&2
    exit 1
fi
# ...and with zero lost results: everything published before the kill was
# fetched back from the coordinator store instead of re-executed.
remote_hits=$(worker_metric_sum cache_hits_remote_total)
if [ $((remote_hits - remote_hits_before)) -lt "$pre_kill" ]; then
    echo "fleet-smoke: only $((remote_hits - remote_hits_before)) remote hits after recovery, want >= $pre_kill (results were lost)" >&2
    ctl metrics >&2
    exit 1
fi
ctl workers | grep -E "^$victim +lost" >/dev/null || {
    echo "fleet-smoke: $victim not marked lost" >&2
    ctl workers >&2
    exit 1
}
echo "fleet-smoke: phase 2 OK (job finished on $worker2; $pre_kill pre-kill simulations reused from the store)"

echo "fleet-smoke: phase 2b — the identical resubmission resolves at the coordinator"
# Workers push their lease counters on each heartbeat (500ms): let one
# pass so the count read below includes the lru lease.
sleep 1.2
resolved_before=$(metric fleet_jobs_resolved_total)
leases_before=$(worker_metric_sum leases_done_total)
warm=$(ctl submit -suite lru -benches $BENCH -warmup 2000 -measure 300000)
ctl watch "$warm" >"$tmp/warm.json" 2>/dev/null
ctl get "$warm" >"$tmp/warm.status"
grep -q '"status": "done"' "$tmp/warm.status" || {
    echo "fleet-smoke: warm resubmission did not finish done" >&2
    cat "$tmp/warm.status" >&2
    exit 1
}
# No worker held it, so, as on a standalone server, it names none.
if grep -q '"worker"' "$tmp/warm.status"; then
    echo "fleet-smoke: resolved job carries a worker field" >&2
    exit 1
fi
sleep 1.2
resolved=$(metric fleet_jobs_resolved_total)
leases=$(worker_metric_sum leases_done_total)
if [ $((resolved - resolved_before)) -ne 1 ]; then
    echo "fleet-smoke: fleet_jobs_resolved_total went $resolved_before -> $resolved, want +1" >&2
    exit 1
fi
if [ "$leases" -ne "$leases_before" ]; then
    echo "fleet-smoke: workers completed leases for the warm job ($leases_before -> $leases)" >&2
    exit 1
fi
if ! strip_engine_stats "$tmp/lru.json" >"$tmp/lru.stripped" ||
    ! strip_engine_stats "$tmp/warm.json" >"$tmp/warm.stripped" ||
    ! cmp -s "$tmp/lru.stripped" "$tmp/warm.stripped"; then
    echo "fleet-smoke: resolved result differs from the leased one" >&2
    diff "$tmp/lru.stripped" "$tmp/warm.stripped" >&2 || true
    exit 1
fi
echo "fleet-smoke: phase 2b OK (resolved without a lease, identical result)"

echo "fleet-smoke: phase 3 — drain a worker"
ctl workers drain "$worker2" >/dev/null
ctl workers | grep -E "^$worker2 +draining" >/dev/null || {
    echo "fleet-smoke: $worker2 not draining after ctl workers drain" >&2
    ctl workers >&2
    exit 1
}

echo "fleet-smoke: OK"
