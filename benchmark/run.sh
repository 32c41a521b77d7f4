#!/bin/sh
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the repository root.
#
#   sh benchmark/run.sh --workload flame_wN --seed 1 --seconds 10 --trace 0
#   sh benchmark/run.sh                         every workload, both passes
#   sh benchmark/run.sh -compare old.json new.json
#   sh benchmark/run.sh -selfcheck
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/ccabench" ./benchmark
exec "$out/ccabench" "$@"
