#!/bin/sh
# bench_gate.sh — the perf gate: the benchmark module's own tests, then
# benchmark/run.sh -selfcheck, which runs every BENCHMARK.json workload twice
# on one seed and once on the next and exits non-zero when a same-seed pair
# leaves its bound or any answer disagrees with CBE. No tunables.
set -eu
cd "$(dirname "$0")/.."
(cd benchmark && go vet . && go test .)
bash benchmark/run.sh -selfcheck
