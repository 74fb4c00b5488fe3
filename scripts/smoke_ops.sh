#!/bin/sh
# smoke_ops.sh — end-to-end smoke test of the operational endpoints.
#
# Boots two real ccpd workers with -ops-addr, the first durable
# (-data-dir), runs distributed queries against them through ccpcoord (also
# with -ops-addr, the coordinator cache and admission control, dumping its
# flight recorder on exit), then validates the observability surface from
# outside the processes: /metrics parses as Prometheus text exposition
# format with the load-bearing series present, /healthz answers 200, /varz
# and /debug/flight round-trip as JSON through their real consumers (ccpctl
# doctor -view top and ccpctl flight), and `ccpctl flight` merges the
# coordinator and both site recorders into one cross-process timeline.
# It ends with doctor's cross-process checks: over the two live sites and
# the coordinator's last mid-run /varz, `ccpctl doctor` must judge the
# cluster green, with at least one coordinator cached-partial epoch checked
# against its live site's epoch, and a coordinator document caching a
# partial at an epoch its site never reached must turn it red. On SIGTERM
# every site drains, and the durable one closes its store.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
site_pids=""
cleanup() {
    for pid in $site_pids; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$workdir" ./cmd/ccpctl ./cmd/ccpd ./cmd/ccpcoord

echo "== generate + split graph (2 partitions) =="
"$workdir/ccpctl" gen -type scalefree -nodes 2000 -seed 7 -out "$workdir/g.ccpg"
"$workdir/ccpctl" split -in "$workdir/g.ccpg" -parts 2 -outprefix "$workdir/p"

site0_port=17841
site0_ops_port=17842
site1_port=17844
site1_ops_port=17845
coord_ops_port=17843

echo "== start two ccpd sites with ops endpoints, site 0 durable =="
"$workdir/ccpd" -partition "$workdir/p0.ccpp" -data-dir "$workdir/site0-data" \
    -store-no-sync -listen "127.0.0.1:$site0_port" \
    -ops-addr "127.0.0.1:$site0_ops_port" >"$workdir/ccpd0.log" 2>&1 &
site_pids="$!"
"$workdir/ccpd" -partition "$workdir/p1.ccpp" \
    -listen "127.0.0.1:$site1_port" \
    -ops-addr "127.0.0.1:$site1_ops_port" >"$workdir/ccpd1.log" 2>&1 &
site_pids="$site_pids $!"

# Wait for both ops listeners.
for port in $site0_ops_port $site1_ops_port; do
    for i in $(seq 1 50); do
        if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            break
        fi
        [ "$i" = 50 ] && { echo "ccpd ops endpoint :$port never came up" >&2; cat "$workdir"/ccpd*.log >&2; exit 1; }
        sleep 0.2
    done
done

echo "== run queries through ccpcoord (ops + cache + admission + slow-query threshold + flight dump on) =="
# A 200-query batch (rather than a handful) keeps the coordinator alive long
# enough that the mid-run scrapes below are required, not best-effort. With
# -cache the coordinator keeps a copy of the partial answer of a site that
# holds neither endpoint of a query; some pairs have both endpoints on one
# site, so doctor has a cached epoch to check against the other's.
queries=$(awk 'BEGIN{for(i=0;i<200;i++) printf "%d:%d ", (i*13)%2000, (i*7+100)%2000}')
# shellcheck disable=SC2086
"$workdir/ccpcoord" -sites "127.0.0.1:$site0_port,127.0.0.1:$site1_port" \
    -ops-addr "127.0.0.1:$coord_ops_port" -slow-query 1ns -concurrency 2 \
    -cache -max-inflight 32 -timeout 5s \
    -flight-out "$workdir/coord_flight.json" \
    $queries >"$workdir/ccpcoord.log" 2>&1 &
coord_pid=$!

# The coordinator exits when its queries finish; scrape /metrics and /varz
# for as long as it runs. The last scrapes that answered are the ones the
# checks below read: the newest slow query (with a 1ns threshold every query
# is one) and the slow-query counter for the event-model check, and the
# coordinator's cached epochs, filled as the run goes on, for doctor.
coord_metrics=""
coord_varz=""
for i in $(seq 1 200); do
    if metrics=$(curl -sf "http://127.0.0.1:$coord_ops_port/metrics" 2>/dev/null); then
        coord_metrics=$metrics
    fi
    if varz=$(curl -sf "http://127.0.0.1:$coord_ops_port/varz" 2>/dev/null); then
        coord_varz=$varz
    fi
    if ! kill -0 "$coord_pid" 2>/dev/null; then
        break
    fi
    sleep 0.02
done
wait "$coord_pid" || { echo "ccpcoord failed" >&2; cat "$workdir/ccpcoord.log" >&2; exit 1; }
tail -2 "$workdir/ccpcoord.log"

# check_prometheus <file> — every non-comment line must match the text
# exposition sample grammar: name{labels} value.
check_prometheus() {
    bad=$(grep -v '^#' "$1" | grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$' || true)
    if [ "$bad" != 0 ]; then
        echo "unparsable Prometheus lines in $1:" >&2
        grep -v '^#' "$1" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$' >&2
        exit 1
    fi
}

require_series() {
    if ! grep -q "^$2" "$1"; then
        echo "$1 is missing series $2" >&2
        cat "$1" >&2
        exit 1
    fi
}

# check_hygiene <file> — every counter the process exports must end in
# _total and every histogram must carry a unit suffix, judged from the
# # TYPE lines of the exposition itself.
check_hygiene() {
    bad=$(awk '$1=="#" && $2=="TYPE" && $4=="counter" && $3 !~ /_total$/ {print $3}
               $1=="#" && $2=="TYPE" && $4=="histogram" && $3 !~ /(_seconds|_size|_bytes)$/ {print $3}' "$1")
    if [ -n "$bad" ]; then
        echo "metric names in $1 violate the _total/_seconds convention:" >&2
        echo "$bad" >&2
        exit 1
    fi
}

echo "== scrape + validate ccpd /metrics and /healthz =="
for port in $site0_ops_port $site1_ops_port; do
    curl -sf "http://127.0.0.1:$port/metrics" >"$workdir/site_metrics.txt"
    check_prometheus "$workdir/site_metrics.txt"
    check_hygiene "$workdir/site_metrics.txt"
    require_series "$workdir/site_metrics.txt" ccp_server_requests_total
    require_series "$workdir/site_metrics.txt" ccp_site_evaluate_seconds_count
    require_series "$workdir/site_metrics.txt" ccp_build_info
    health=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$port/healthz")
    [ "$health" = 200 ] || { echo "ccpd :$port /healthz = $health, want 200" >&2; exit 1; }
    curl -sf "http://127.0.0.1:$port/varz" | grep -q '"metrics"' \
        || { echo "ccpd :$port /varz payload looks wrong" >&2; exit 1; }
done

echo "== validate coordinator /metrics and /varz (scraped mid-run) =="
[ -n "$coord_metrics" ] \
    || { echo "never scraped the coordinator /metrics mid-run" >&2; cat "$workdir/ccpcoord.log" >&2; exit 1; }
printf '%s\n' "$coord_metrics" >"$workdir/coord_metrics.txt"
check_prometheus "$workdir/coord_metrics.txt"
check_hygiene "$workdir/coord_metrics.txt"
require_series "$workdir/coord_metrics.txt" ccp_queries_total
require_series "$workdir/coord_metrics.txt" ccp_admission_offered_total
require_series "$workdir/coord_metrics.txt" ccp_build_info
[ -n "$coord_varz" ] \
    || { echo "never scraped the coordinator /varz mid-run" >&2; exit 1; }

echo "== /varz round-trips through its real consumer (ccpctl doctor -view top) =="
"$workdir/ccpctl" doctor -view top \
    -ops "127.0.0.1:$site0_ops_port,127.0.0.1:$site1_ops_port" \
    >"$workdir/top.txt" 2>&1 \
    || { echo "ccpctl doctor -view top failed" >&2; cat "$workdir/top.txt" >&2; exit 1; }
grep -qE 'served +[0-9]+ reqs' "$workdir/top.txt" \
    || { echo "ccpctl doctor -view top did not render site stats:" >&2; cat "$workdir/top.txt" >&2; exit 1; }
if grep -q "unreachable" "$workdir/top.txt"; then
    echo "ccpctl doctor -view top could not decode a /varz payload:" >&2
    cat "$workdir/top.txt" >&2
    exit 1
fi

echo "== /debug/flight decodes and merges into one cross-process timeline =="
[ -s "$workdir/coord_flight.json" ] \
    || { echo "ccpcoord -flight-out wrote nothing" >&2; exit 1; }
"$workdir/ccpctl" flight \
    -ops "127.0.0.1:$site0_ops_port,127.0.0.1:$site1_ops_port" \
    -in "$workdir/coord_flight.json" >"$workdir/timeline.txt" 2>&1 \
    || { echo "ccpctl flight failed" >&2; cat "$workdir/timeline.txt" >&2; exit 1; }
grep -q "^flight: " "$workdir/timeline.txt" \
    || { echo "ccpctl flight produced no timeline header:" >&2; cat "$workdir/timeline.txt" >&2; exit 1; }
for proc in coord site-0 site-1; do
    grep -q " $proc " "$workdir/timeline.txt" \
        || { echo "merged timeline is missing $proc events:" >&2; cat "$workdir/timeline.txt" >&2; exit 1; }
done
grep -q "query.start" "$workdir/timeline.txt" \
    || { echo "merged timeline has no query.start event:" >&2; cat "$workdir/timeline.txt" >&2; exit 1; }

echo "== one event model: a /varz slow query is found by its id in the merged flight rings =="
# /varz lists the coordinator ring's slow.query events, newest first; the
# query they name is traced nowhere, so its layers are read back out of the
# coordinator's dump and both sites' rings by its id.
slow_id=$(printf '%s\n' "$coord_varz" | awk '/"trace":/ {gsub(/[^0-9]/, "", $2); print $2; exit}')
[ -n "$slow_id" ] \
    || { echo "the coordinator /varz never listed a slow query" >&2; exit 1; }
"$workdir/ccpctl" flight -trace "$(printf '%x' "$slow_id")" \
    -ops "127.0.0.1:$site0_ops_port,127.0.0.1:$site1_ops_port" \
    -in "$workdir/coord_flight.json" >"$workdir/slow_timeline.txt" 2>&1 \
    || { echo "ccpctl flight -trace failed" >&2; cat "$workdir/slow_timeline.txt" >&2; exit 1; }
for layer in coord.answer wire.rpc site.evaluate; do
    grep -qF " $layer " "$workdir/slow_timeline.txt" \
        || { echo "slow query $slow_id: merged timeline names no $layer:" >&2; cat "$workdir/slow_timeline.txt" >&2; exit 1; }
done
slow_count=$(awk '$1 == "ccp_slow_queries_total" {print $2}' "$workdir/coord_metrics.txt")
[ "${slow_count:-0}" -gt 0 ] \
    || { echo "coordinator /metrics ccp_slow_queries_total = ${slow_count:-missing}, want > 0" >&2; exit 1; }
echo "slow query $(printf '%x' "$slow_id"): coord.answer wire.rpc site.evaluate; ccp_slow_queries_total $slow_count"

echo "== ccpctl doctor -view fleet renders both sites =="
"$workdir/ccpctl" doctor -view fleet -ops "127.0.0.1:$site0_ops_port,127.0.0.1:$site1_ops_port" \
    >"$workdir/fleet.txt" 2>&1 \
    || { echo "ccpctl doctor -view fleet failed" >&2; cat "$workdir/fleet.txt" >&2; exit 1; }
for row in "^0 +127.0.0.1:$site0_ops_port " "^1 +127.0.0.1:$site1_ops_port "; do
    grep -qE "$row" "$workdir/fleet.txt" \
        || { echo "fleet table is missing a site row:" >&2; cat "$workdir/fleet.txt" >&2; exit 1; }
done

echo "== ccpctl doctor: healthy cluster is green, cached epochs checked against live sites =="
# The coordinator has exited; its last mid-run /varz stands in for it as a
# saved doctor document beside the two live sites.
printf '{"addr": "coord", "varz": %s}\n' "$coord_varz" >"$workdir/coord_doc.json"
"$workdir/ccpctl" doctor -ops "127.0.0.1:$site0_ops_port,127.0.0.1:$site1_ops_port" \
    -in "$workdir/coord_doc.json" >"$workdir/doctor.txt" 2>&1 \
    || { echo "doctor went red on a healthy cluster:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -q "checks: 0 red" "$workdir/doctor.txt" \
    || { echo "doctor summary is not clean:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -qE "cache-epoch:site[0-9]+ +GREEN " "$workdir/doctor.txt" \
    || { echo "doctor checked no coordinator cached epoch against a live site:" >&2; cat "$workdir/doctor.txt" >&2; exit 1; }
grep -E "cache-epoch:site" "$workdir/doctor.txt"

echo "== ccpctl doctor: a cached epoch ahead of its site turns it red =="
cat >"$workdir/ahead.json" <<'EOF'
[
  {"addr": "site:9001", "varz": {"metrics": [
    {"name": "ccp_site_epoch", "type": "gauge", "labels": "site=\"0\"", "value": 100}
  ]}},
  {"addr": "coord:9002", "varz": {"metrics": [
    {"name": "ccp_queries_total", "type": "counter", "value": 10},
    {"name": "ccp_coord_cached_epoch", "type": "gauge", "labels": "site=\"0\"", "value": 120}
  ]}}
]
EOF
if "$workdir/ccpctl" doctor -in "$workdir/ahead.json" >"$workdir/doctor_red.txt" 2>&1; then
    echo "doctor exited zero over a cached epoch ahead of its site:" >&2
    cat "$workdir/doctor_red.txt" >&2
    exit 1
fi
grep -qE "cache-epoch:site0 +RED .*ahead of" "$workdir/doctor_red.txt" \
    || { echo "doctor red run did not name the cached epoch:" >&2; cat "$workdir/doctor_red.txt" >&2; exit 1; }
echo "  doctor red with the cached epoch named"

echo "== graceful shutdown drains the ops servers =="
for pid in $site_pids; do
    kill -TERM "$pid"
    wait "$pid" || { echo "ccpd ($pid) did not exit cleanly" >&2; cat "$workdir"/ccpd*.log >&2; exit 1; }
done
site_pids=""
for log in "$workdir"/ccpd0.log "$workdir"/ccpd1.log; do
    grep -q "shut down cleanly" "$log" \
        || { echo "$log did not report a clean drain" >&2; cat "$log" >&2; exit 1; }
done
grep -q "store closed" "$workdir/ccpd0.log" \
    || { echo "the durable site did not close its store:" >&2; cat "$workdir/ccpd0.log" >&2; exit 1; }

echo "ok: ops endpoints smoke test passed"
