#!/bin/sh
# check.sh — the repo's tier-1+ verification gate.
#
# Runs formatting, vet, build, a layering guard (no algorithm package under
# internal/ depends on internal/obs), the full test suite (shuffled, with an
# explicit timeout so a hung transport test fails fast instead of stalling
# CI), every program under examples/ built and run to a zero exit (the
# "examples" step), and the
# race detector over the packages that do parallel graph
# surgery or concurrent transport work and over the commands (whose doctor
# test drives a live concurrent coordinator behind real HTTP handlers),
# five race-detector runs of the
# coordinator's concurrency tests (live slices racing the boundary moves
# that rebuild a site's per-epoch reachability sets among them, and
# conflicting stake updates whose halves land at two sites), of the
# site's epoch reads (live slices and cache builds racing on that rebuild
# while updates stream in) and of the
# WAL's commit tests (appends racing each other and checkpoints, a failed
# fsync poisoning the log), twenty race-detector runs of the client's
# transport-lifecycle tests (a stall's typed deadline, a broken connection
# failing a call once and the redial after it, one call's write deadline
# sparing another call's write), 5 000 random monotone circuits (500 of them
# under the race detector) checked against their circuit value through every
# engine, the cluster and the update path, one iteration of the site and coordinator
# benchmarks the docs cite, short fuzz runs over the write path,
# the WAL segment scan, the site's socket decoder, the checkpoint loader,
# the pooled graph decoder, the coordinator's partial decode and merge, the
# partition image decoder, and the Datalog program loader, then the benchmark
# module's own vet/tests and a quick, answers-only benchmark run. CI and
# pre-commit hooks should call exactly this script; if it passes, the change
# is shippable.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# The paper's algorithm packages report through their results and the
# flight events of the layers that call them, never through the
# observability subsystem itself.
echo "== layering: algorithm packages do not import internal/obs =="
for pkg in graph control datalog partition par reach pathenum gen stats mcvp; do
    if go list -deps "./internal/$pkg" | grep -qx 'ccp/internal/obs'; then
        echo "internal/$pkg depends on ccp/internal/obs" >&2
        exit 1
    fi
done

echo "== go test =="
go test -shuffle=on -timeout 10m ./...

# The tests only compile the examples; run each to completion so one that
# panics or exits non-zero fails here. All six take about a second together.
echo "== examples =="
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir/" ./examples/...
for dir in examples/*/; do
    name=$(basename "$dir")
    echo "-- $name"
    if ! "$exdir/$name" > "$exdir/$name.out" 2>&1; then
        cat "$exdir/$name.out" >&2
        echo "example $name exited non-zero" >&2
        exit 1
    fi
done

# The reduction's Workers: 0 tests take the inline mutator mode at
# GOMAXPROCS=1 and the sharded mode otherwise; run both whatever the runner,
# and run the Section VIII shape assertions under both as well.
echo "== go test -cpu 1,4 (inline + sharded mutator modes) =="
go test -cpu 1,4 -timeout 10m ./internal/control/... ./internal/graph/... ./internal/par/...
go test -cpu 1,4 -timeout 10m -run 'Shape' ./internal/experiments

echo "== go test -race (parallel surgery + transport lifecycle + commands) =="
go test -race -shuffle=on -timeout 10m \
    . \
    ./cmd/... \
    ./internal/control/... \
    ./internal/graph/... \
    ./internal/par/... \
    ./internal/datalog/... \
    ./internal/dist/... \
    ./internal/fleet/... \
    ./internal/store/... \
    ./internal/obs/...

# The coordinator shares its per-site copies and pooled merge scratch across
# in-flight queries with no lock, and a site's live evaluations and cache
# builds share the reachability sets their slices and cores are cut from,
# rebuilt by whichever reader first sees a new epoch; run the tests that race
# queries against each other and against updates several times over. A stake
# update's two halves land at two sites at once, so run the test that races
# conflicting updates of one stake, and the update path's differential
# against partition.Split, as well.
echo "== go test -race -count=5 (coordinator, slice, cache-build and update concurrency) =="
go test -race -count=5 -timeout 10m \
    -run 'TestAnswerBatchConcurrentStress|TestConcurrentBatchMixedTransports|TestCoordinatorAnswersRacingUpdates|TestSliceRacingBoundaryUpdates|TestSnapshotsNeverMixEpochs|TestConflictingUpdatesKeepInNodes|TestApplyUpdateMatchesSplit' \
    ./internal/dist

# Theorem 2 as an oracle that shares no code with any engine: random
# monotone circuits mapped to ownership graphs (mcvp.ToCCP), answered by CBE,
# the Reducer, Datalog and the coordinator across input flips, and checked
# against the circuit value. The plain test suite runs 500; run 5 000 here,
# and 500 under the race detector.
echo "== Theorem 2 circuit oracle (5 000 circuits, 500 under -race) =="
go test -run '^TestCircuitOracle$' -timeout 10m ./internal/dist -circuits=5000
go test -race -run '^TestCircuitOracle$' -timeout 10m ./internal/dist -circuits=500

# A site call is made once on a connection every in-flight call shares: a
# stall gives a typed deadline, a broken connection a typed transport error
# and a redial on the next call, and one call's write deadline must not fail
# another's write. Timing-sensitive teardown lives here, so run it many times.
echo "== go test -race -count=20 (client transport lifecycle) =="
go test -race -count=20 -timeout 10m \
    -run 'TestStalledSiteReturnsDeadlineError|TestClientRedialsAfterConnDeath|TestConnLossFailsOnceThenRedials|TestDeadGenerationStillInstalledIsRetired|TestWriteFailureRetiresGeneration|TestWriteDeadlineIsPerCall|TestCoordinatorFailsFastOnSlowSite|TestClientCloseUnblocksReader' \
    ./internal/dist

# The site and coordinator benchmarks the docs cite (EXPERIMENTS.md,
# abl-slice and abl-cache-core, the coordinator's no-work answer, and the
# partial codec DESIGN.md's decode arenas cite): one iteration each, so they
# keep building and running. No timing is checked.
echo "== go test -bench (cited benchmarks, one iteration) =="
go test -run '^$' -bench 'LiveEvaluate|Precompute|CoordinatorAnswer|PartialDecode|PartialEncode' -benchtime 1x ./internal/dist

# The WAL has one committer: an append writes, flushes and fsyncs under the
# lock a checkpoint's segment rotation takes, and a failed fsync poisons the
# log. Race appends against each other and against checkpoints, and fail an
# fsync, several times over.
echo "== go test -race -count=5 (WAL commit) =="
go test -race -count=5 -timeout 10m \
    -run 'TestFsyncFailurePoisonsWAL|TestAppendsRacingCheckpoints|TestConcurrentAppendsSerialize' \
    ./internal/store

# The one write path every record feeds, the request decoder every site
# runs on its socket, the WAL segment scan recovery runs on every segment it
# finds on disk, the checkpoint loader recovery runs beside it, the CCPG1
# decoder's pooled form (a payload decoded into scratch that a larger graph's
# CloneInto and another payload left behind), the coordinator's partial decode into its dense merge, the
# CCPP2 decoder checkpoint load runs, and the Datalog loader that reads
# `ccpctl datalog -program` files: 15 s of new inputs each, on two fuzz
# workers.
echo "== go test -fuzz (write path + socket + WAL segment scan + checkpoint + pooled graph decode + partial merge + partition image + Datalog program) =="
go test -run '^$' -fuzz '^FuzzApply$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzServeConn$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzScanSegment$' -fuzztime 15s -parallel 2 ./internal/store
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 15s -parallel 2 ./internal/store
go test -run '^$' -fuzz '^FuzzDecodeBinaryIntoReused$' -fuzztime 15s -parallel 2 ./internal/graph
go test -run '^$' -fuzz '^FuzzDecodePartialMerge$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzReadPartition$' -fuzztime 15s -parallel 2 ./internal/partition
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 15s -parallel 2 ./internal/datalog

# The benchmark is its own module (replace ccp => ../), so ./... above never
# sees it. -quick -selfcheck runs all four workloads (TCP and durable
# included) on two seeds and fails on any answer that disagrees with CBE; it
# checks no timing, so it cannot fail on a busy machine. (Bare -quick also
# asserts a timing share in its traced pass, which a busy machine trips.)
echo "== benchmark module: vet, test, quick run =="
(cd benchmark && go vet . && go test .)
bash benchmark/run.sh -quick -selfcheck

echo "ok: all checks passed"
