#!/bin/sh
# Regenerate BENCH_comm.json: the halo-exchange study comparing the
# blocking baseline against the asynchronous coalesced exchange
# (virtual times, message counts before/after coalescing, hidden flight
# time). Deterministic at any GOMAXPROCS — virtual clocks and pinned
# per-cell rates, no wall-clock calibration. The committed artifact is
# the full sweep, and scripts/check.sh fails if it differs from what
# the code produces. Run from the repo root:
#
#   sh scripts/bench_comm.sh           # full sweep (P up to 48)
#   sh scripts/bench_comm.sh -quick    # reduced sweep (do not commit)
set -e

cd "$(dirname "$0")/.."

go run ./cmd/experiments -exp comm -commjson BENCH_comm.json "$@"
