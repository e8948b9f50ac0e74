#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash benchmark/run.sh --workload wire-cold --seed 1 --seconds 10 --trace 0
# Everything written lands under the checkout: the go build cache and the
# binary in .bench_build/, traces and temporary snapshots in benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTOOLCHAIN=local
go -C "$here" build -o "$build/tixbenchmark" .
exec "$build/tixbenchmark" -out "$here/out" "$@"
