#!/bin/sh
# smoke_fleet.sh — chaos smoke test of the elastic serving tier.
#
# Boots a replicated deployment with real processes — a durable leader site,
# a WAL-shipped follower replica of it (ccpd -replica-of), and a second
# plain site — then drives query load through ccpcoord's replica-aware
# routing while killing the follower dead (SIGKILL, no drain) and asserts:
#
#   - zero failed queries: every ccpcoord batch exits 0, before the kill,
#     with the kill landing mid-load, and with the follower still dead —
#     reads route around the corpse via circuit breaking + leader fallback;
#   - bounded tail latency: every query carries a -timeout deadline, so a
#     batch that exits 0 also proves no query's latency escaped the bound;
#   - the follower actually serves: before the kill the replica answers read
#     traffic (its server request counter moves), it is not a warm spare;
#   - re-convergence: a restarted follower re-bootstraps from the leader and
#     reports zero replication lag through `ccpctl doctor -view fleet`;
#   - the fleet view renders: `ccpctl doctor -view fleet` shows the
#     leader/follower roles and lag from the live /varz endpoints, in table
#     and JSON form;
#   - the follower's /healthz reports its role and replication lag as JSON
#     (the -max-lag ceiling is plumbed through and echoed back);
#   - the audit surface holds: the coordinator exports ccp_slo_* burn-rate
#     series mid-batch, and `ccpctl doctor` joins every process's /varz and
#     /audit into a green cluster-wide verdict — including the
#     store scrubber over the leader's real WAL and the cross-process
#     leader/follower epoch agreement no single process can check;
#   - clean shutdown: leaders and the follower drain and exit 0 on SIGTERM.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$workdir" ./cmd/ccpctl ./cmd/ccpd ./cmd/ccpcoord

echo "== generate + split graph (2 partitions) =="
"$workdir/ccpctl" gen -type scalefree -nodes 2000 -seed 7 -out "$workdir/g.ccpg"
"$workdir/ccpctl" split -in "$workdir/g.ccpg" -parts 2 -outprefix "$workdir/p"

lead0_port=17901
lead0_ops=17902
site1_port=17903
site1_ops=17904
repl_port=17905
repl_ops=17906
coord_ops=17907

wait_healthz() {
    for i in $(seq 1 50); do
        if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "ops endpoint :$1 never came up" >&2
    cat "$workdir"/*.log >&2
    exit 1
}

echo "== start durable leader, plain second site =="
"$workdir/ccpd" -partition "$workdir/p0.ccpp" -data-dir "$workdir/lead0-data" \
    -store-no-sync -listen "127.0.0.1:$lead0_port" \
    -ops-addr "127.0.0.1:$lead0_ops" >"$workdir/lead0.log" 2>&1 &
lead0_pid=$!
pids="$lead0_pid"
"$workdir/ccpd" -partition "$workdir/p1.ccpp" \
    -listen "127.0.0.1:$site1_port" \
    -ops-addr "127.0.0.1:$site1_ops" >"$workdir/site1.log" 2>&1 &
site1_pid=$!
pids="$pids $site1_pid"
wait_healthz $lead0_ops
wait_healthz $site1_ops

start_follower() {
    "$workdir/ccpd" -replica-of "127.0.0.1:$lead0_port" -max-lag 100000 \
        -listen "127.0.0.1:$repl_port" \
        -ops-addr "127.0.0.1:$repl_ops" >>"$workdir/follower.log" 2>&1 &
    repl_pid=$!
    pids="$pids $repl_pid"
    wait_healthz $repl_ops
}
echo "== start follower replica of the leader =="
start_follower

echo "== follower /healthz reports role and replication lag as JSON =="
curl -sf "http://127.0.0.1:$repl_ops/healthz" >"$workdir/repl_health.json"
for field in '"role":"follower"' '"lag_records"' '"applied_seq"' '"max_lag":100000'; do
    grep -q "$field" "$workdir/repl_health.json" \
        || { echo "follower /healthz is missing $field:" >&2; cat "$workdir/repl_health.json" >&2; exit 1; }
done

# A deterministic spread of queries; repeated batches reuse it.
queries=$(awk 'BEGIN{for(i=0;i<200;i++) printf "%d:%d ", (i*13)%2000, (i*7+100)%2000}')
sites="127.0.0.1:$lead0_port+127.0.0.1:$repl_port,127.0.0.1:$site1_port"

run_batch() { # run_batch <logfile>
    # shellcheck disable=SC2086
    "$workdir/ccpcoord" -sites "$sites" -concurrency 4 -timeout 5s \
        -max-inflight 32 $queries >"$workdir/$1" 2>&1
}

echo "== batch 1: replicated reads, follower healthy =="
run_batch batch1.log || { echo "batch 1 failed queries" >&2; cat "$workdir/batch1.log" >&2; exit 1; }
grep -q "batch: 200 queries" "$workdir/batch1.log" \
    || { echo "batch 1 did not answer all queries:" >&2; cat "$workdir/batch1.log" >&2; exit 1; }

echo "== the follower served real read traffic =="
served=$(curl -sf "http://127.0.0.1:$repl_ops/metrics" \
    | awk '/^ccp_server_requests_total/ {print $2; exit}')
[ -n "$served" ] && [ "$served" -gt 0 ] \
    || { echo "follower served no requests (got '$served') — routing never used the replica" >&2; exit 1; }
echo "  follower answered $served requests"

echo "== ccpctl doctor -view fleet renders the topology =="
"$workdir/ccpctl" doctor -view fleet -ops "127.0.0.1:$lead0_ops,127.0.0.1:$repl_ops,127.0.0.1:$site1_ops" \
    >"$workdir/fleet.txt" 2>&1 \
    || { echo "ccpctl doctor -view fleet failed" >&2; cat "$workdir/fleet.txt" >&2; exit 1; }
grep -q "leader" "$workdir/fleet.txt" && grep -q "follower" "$workdir/fleet.txt" \
    || { echo "fleet table is missing a role:" >&2; cat "$workdir/fleet.txt" >&2; exit 1; }

echo "== chaos: SIGKILL the follower mid-load =="
run_batch batch2.log &
batch2_pid=$!
sleep 0.2
kill -9 "$repl_pid" 2>/dev/null || true
wait "$repl_pid" 2>/dev/null || true
pids="$lead0_pid $site1_pid"
wait "$batch2_pid" \
    || { echo "queries failed while the follower died" >&2; cat "$workdir/batch2.log" >&2; exit 1; }
grep -q "batch: 200 queries" "$workdir/batch2.log" \
    || { echo "mid-kill batch did not answer all queries:" >&2; cat "$workdir/batch2.log" >&2; exit 1; }
echo "  zero failed queries with the follower dying mid-batch"

echo "== batch 3: follower still dead — routed around at connect =="
run_batch batch3.log \
    || { echo "queries failed with a dead follower" >&2; cat "$workdir/batch3.log" >&2; exit 1; }
grep -q "batch: 200 queries" "$workdir/batch3.log" \
    || { echo "dead-follower batch did not answer all queries:" >&2; cat "$workdir/batch3.log" >&2; exit 1; }

echo "== restart the follower; it must re-bootstrap and re-converge =="
start_follower
converged=""
for i in $(seq 1 50); do
    if "$workdir/ccpctl" doctor -view fleet -ops "127.0.0.1:$repl_ops" -json 2>/dev/null \
        | grep -q '"lag_records":0'; then
        converged=yes
        break
    fi
    sleep 0.2
done
[ -n "$converged" ] \
    || { echo "restarted follower never reported zero lag" >&2; cat "$workdir/follower.log" >&2; exit 1; }
echo "  follower re-bootstrapped with zero replication lag"

echo "== batch 4: the restarted follower serves again =="
run_batch batch4.log \
    || { echo "batch 4 failed queries" >&2; cat "$workdir/batch4.log" >&2; exit 1; }
served=$(curl -sf "http://127.0.0.1:$repl_ops/metrics" \
    | awk '/^ccp_server_requests_total/ {print $2; exit}')
[ -n "$served" ] && [ "$served" -gt 0 ] \
    || { echo "restarted follower served no requests (got '$served')" >&2; exit 1; }
echo "  restarted follower answered $served requests"

echo "== batch 5: coordinator /varz exports SLO burn-rate series mid-run =="
# shellcheck disable=SC2086
"$workdir/ccpcoord" -sites "$sites" -concurrency 2 -timeout 5s \
    -max-inflight 32 -ops-addr "127.0.0.1:$coord_ops" \
    $queries >"$workdir/batch5.log" 2>&1 &
batch5_pid=$!
slo_seen=""
for i in $(seq 1 200); do
    if curl -sf "http://127.0.0.1:$coord_ops/varz" 2>/dev/null \
        | grep -q '"ccp_slo_burn_rate"'; then
        slo_seen=yes
        break
    fi
    if ! kill -0 "$batch5_pid" 2>/dev/null; then
        break
    fi
    sleep 0.05
done
wait "$batch5_pid" \
    || { echo "batch 5 failed queries" >&2; cat "$workdir/batch5.log" >&2; exit 1; }
[ -n "$slo_seen" ] \
    || { echo "coordinator /varz never showed ccp_slo_burn_rate mid-run" >&2; exit 1; }
echo "  ccp_slo_burn_rate live in the coordinator's /varz"

echo "== ccpctl doctor: the whole fleet is green =="
"$workdir/ccpctl" doctor \
    -ops "127.0.0.1:$lead0_ops,127.0.0.1:$repl_ops,127.0.0.1:$site1_ops" \
    >"$workdir/doctor.txt" 2>&1 \
    || { echo "doctor went red on a healthy fleet:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -q "checks: 0 red" "$workdir/doctor.txt" \
    || { echo "doctor summary is not clean:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -q "probe:store.scrub" "$workdir/doctor.txt" \
    || { echo "doctor never scrubbed the leader's WAL:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -q "probe:fleet.divergence" "$workdir/doctor.txt" \
    || { echo "doctor never checked the follower's divergence probe:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -q "epoch:site" "$workdir/doctor.txt" \
    || { echo "doctor ran no cross-process epoch check:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
cat "$workdir/doctor.txt"

echo "== ccpctl doctor: an injected frozen replica turns it red =="
# A follower stuck behind its leader at zero replication lag is silent
# divergence: no single process sees it, the cross-process join must.
cat >"$workdir/frozen.json" <<'EOF'
[
  {"addr": "leader:9001", "varz": {"metrics": [
    {"name": "ccp_site_epoch", "type": "gauge", "labels": "site=\"0\"", "value": 500}
  ]}},
  {"addr": "follower:9002", "varz": {"metrics": [
    {"name": "ccp_fleet_epoch", "type": "gauge", "labels": "site=\"0\"", "value": 200},
    {"name": "ccp_fleet_applied_seq", "type": "gauge", "labels": "site=\"0\"", "value": 200},
    {"name": "ccp_fleet_leader_seq", "type": "gauge", "labels": "site=\"0\"", "value": 200},
    {"name": "ccp_fleet_lag_records", "type": "gauge", "labels": "site=\"0\"", "value": 0}
  ]}}
]
EOF
if "$workdir/ccpctl" doctor -in "$workdir/frozen.json" >"$workdir/doctor_red.txt" 2>&1; then
    echo "doctor exited zero over a frozen replica:" >&2
    cat "$workdir/doctor_red.txt" >&2
    exit 1
fi
grep -q "RED" "$workdir/doctor_red.txt" && grep -q "at zero lag" "$workdir/doctor_red.txt" \
    || { echo "doctor red run did not name the frozen replica:" >&2; cat "$workdir/doctor_red.txt" >&2; exit 1; }
echo "  doctor red with the silent divergence named"

echo "== graceful shutdown drains every role =="
for pid in $repl_pid $lead0_pid $site1_pid; do
    kill -TERM "$pid"
    wait "$pid" || { echo "process $pid did not exit cleanly" >&2; cat "$workdir"/*.log >&2; exit 1; }
done
pids=""
for log in follower.log lead0.log site1.log; do
    grep -q "shut down cleanly" "$workdir/$log" \
        || { echo "$log did not report a clean drain" >&2; cat "$workdir/$log" >&2; exit 1; }
done

echo "ok: fleet chaos smoke test passed"
