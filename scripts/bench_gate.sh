#!/bin/sh
# bench_gate.sh — the perf gate: benchmark/run.sh -selfcheck, which runs every
# BENCHMARK.json workload twice on one seed and once on the next and exits
# non-zero when a same-seed pair leaves its bound or any answer disagrees
# with CBE. The benchmark module's own vet/tests run in check.sh, once per
# push. No tunables.
set -eu
cd "$(dirname "$0")/.."
bash benchmark/run.sh -selfcheck
