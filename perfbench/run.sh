#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload tpcc --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --quick
#
# The Go build cache and module directory live under .bench_build too, so
# the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The benchmark is its own module; it builds the program from the
# repository checked out around it.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work-dir "$out/work" "$@"
