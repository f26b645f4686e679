#!/usr/bin/env bash
# Builds the stppbench harness from this checkout and runs it. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload aisle-firehose --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -all -seed 1 -out .bench_build/results/seed1
#   bash benchmark/run.sh compare .bench_build/results/a .bench_build/results/b
#
# The Go build cache, the harness binary, the stppd binary it builds and
# every data directory live under .bench_build/, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/stppbench" .)
exec "$build/stppbench" "$@"
