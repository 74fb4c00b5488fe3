#!/bin/sh
# check.sh — the repo's tier-1+ verification gate.
#
# Runs formatting, vet, build, the full test suite (shuffled, with an
# explicit timeout so a hung transport test fails fast instead of stalling
# CI), and the race detector over the packages that do parallel graph
# surgery or concurrent transport work, five race-detector runs of the
# coordinator's concurrency tests, short fuzz runs over the write path,
# the WAL record decoder, the site's socket decoder, the checkpoint loader,
# the pooled graph decoder, the coordinator's partial decode and merge, and
# the partition image decoder, then the benchmark
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

echo "== go test =="
go test -shuffle=on -timeout 10m ./...

# The reduction's Workers: 0 tests take the inline mutator mode at
# GOMAXPROCS=1 and the sharded mode otherwise; run both whatever the runner,
# and run the Section VIII shape assertions under both as well.
echo "== go test -cpu 1,4 (inline + sharded mutator modes) =="
go test -cpu 1,4 -timeout 10m ./internal/control/... ./internal/graph/... ./internal/par/...
go test -cpu 1,4 -timeout 10m -run 'Shape' ./internal/experiments

echo "== go test -race (parallel surgery + transport lifecycle) =="
go test -race -shuffle=on -timeout 10m \
    . \
    ./internal/control/... \
    ./internal/graph/... \
    ./internal/par/... \
    ./internal/datalog/... \
    ./internal/dist/... \
    ./internal/fleet/... \
    ./internal/store/... \
    ./internal/obs/...

# The coordinator shares its per-site copies and pooled merge scratch across
# in-flight queries with no lock; run the tests that race queries against each
# other and against updates several times over.
echo "== go test -race -count=5 (coordinator concurrency) =="
go test -race -count=5 -timeout 10m \
    -run 'TestAnswerBatchConcurrentStress|TestConcurrentBatchMixedTransports|TestCoordinatorAnswersRacingUpdates' \
    ./internal/dist

# The WAL record decoder a follower runs on every pull, the one write path
# its records feed, the request decoder every site runs on its socket, the
# checkpoint loader recovery runs on what it finds on disk, the CCPG1
# decoder's pooled form (a payload decoded into scratch another payload left
# behind), the coordinator's partial decode into its dense merge, and the
# CCPP1 decoder that both checkpoint load and follower bootstrap run: 15 s of
# new inputs each, on two fuzz workers.
echo "== go test -fuzz (write path + WAL records + socket + checkpoint + pooled graph decode + partial merge + partition image) =="
go test -run '^$' -fuzz '^FuzzApply$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzServeConn$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzDecodeRecords$' -fuzztime 15s -parallel 2 ./internal/store
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 15s -parallel 2 ./internal/store
go test -run '^$' -fuzz '^FuzzDecodeBinaryIntoReused$' -fuzztime 15s -parallel 2 ./internal/graph
go test -run '^$' -fuzz '^FuzzDecodePartialMerge$' -fuzztime 15s -parallel 2 ./internal/dist
go test -run '^$' -fuzz '^FuzzReadPartition$' -fuzztime 15s -parallel 2 ./internal/partition

# The benchmark is its own module (replace ccp => ../), so ./... above never
# sees it. -quick -selfcheck runs all four workloads (TCP and durable
# included) on two seeds and fails on any answer that disagrees with CBE; it
# checks no timing, so it cannot fail on a busy machine. (Bare -quick also
# asserts a timing share in its traced pass, which a busy machine trips.)
echo "== benchmark module: vet, test, quick run =="
(cd benchmark && go vet . && go test .)
bash benchmark/run.sh -quick -selfcheck

echo "ok: all checks passed"
