#!/bin/sh
# Regenerate BENCH_chem.json: the generated-kernel chemistry study.
# Microbenchmarks each mechanism: interpreted vs chemgen RHS ns/op and
# finite-difference vs analytic Jacobian build cost (wall seconds,
# host-dependent). Run from the repo root:
#
#   sh scripts/bench_chem.sh           # full study
#   sh scripts/bench_chem.sh -quick    # reduced iterations (same artifact)
set -e

cd "$(dirname "$0")/.."

go run ./cmd/experiments -exp chem -chemjson BENCH_chem.json "$@"
