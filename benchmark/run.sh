#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
#
#	bash benchmark/run.sh --workload xborder --seed 7 --seconds 20 --trace 0
#
# Everything written stays inside the checkout: the Go build cache and the
# binary under .bench_build/, trace files and the durable sites' data under
# benchmark/out/. Only the first run in a checkout compiles (~20 s).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/ccp-benchmark" .
exec "$build/ccp-benchmark" -out "$here/out" "$@"
