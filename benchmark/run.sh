#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the harness from this checkout and
# runs it. Run from the checkout's root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, temp files, binaries, the server's
# snapshot files), so the benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

# The module has no dependency outside this repository (its go.mod
# replaces the root module with ../), so the build needs no network.
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
