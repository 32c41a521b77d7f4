#!/bin/sh
# Regenerate BENCH_ckpt.json: the incremental-checkpoint delta-chain
# study. Two rows (a 4-rank flame and an 8-rank wide shock) give full
# vs delta shard bytes at a steady-state step, the chain length behind
# the restored checkpoint, and the bit-for-bit verdict of restoring
# through that chain. Deterministic at any GOMAXPROCS — every JSON field
# is an encoded byte count, a hierarchy count or an exact comparison;
# wall-clock timings go to stdout only. scripts/check.sh fails if the
# committed file differs from what the code produces. Run from the repo
# root:
#
#   sh scripts/bench_ckpt.sh
set -e

cd "$(dirname "$0")/.."

go run ./cmd/experiments -exp ckpt -ckptjson BENCH_ckpt.json
