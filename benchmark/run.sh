#!/usr/bin/env bash
# The repo benchmark's one command (see benchmark/README.md).
#
#   bash benchmark/run.sh              the four workloads, end-to-end metrics
#   bash benchmark/run.sh --trace      ... then each again traced: per-layer
#                                      metrics, spans in benchmark/out/
#   bash benchmark/run.sh --workload W [--seed N] [--seconds N] [--trace 0|1]
#                                      one run, its JSON on the last line
#   bash benchmark/run.sh --repeat     the A/A self-check (REPEATABILITY.md)
#
# Builds the package offline in release mode and makes the seed's fixture
# trees if they are missing; neither happens inside a timed run.
set -euo pipefail

DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
WORKLOAD="" SEED=1996 SECS=20 TRACE=0 REPEAT=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) WORKLOAD="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --seconds) SECS="$2"; shift 2 ;;
        --trace)
            if [[ "${2:-}" =~ ^[01]$ ]]; then TRACE="$2"; shift 2; else TRACE=1; shift; fi ;;
        --repeat) REPEAT=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" >&2
# A relative CARGO_TARGET_DIR is relative to where cargo ran: here.
BIN="${CARGO_TARGET_DIR:-$DIR/target}/release/psj-benchmark"

if [ "$REPEAT" = 1 ]; then
    exec "$BIN" --dir "$DIR" --repeat --seed "$SEED" --seconds "$SECS"
fi

"$BIN" --dir "$DIR" --make-fixtures --seed "$SEED" >&2
run() { "$BIN" --dir "$DIR" --workload "$1" --seed "$SEED" --seconds "$SECS" --trace "$2"; }

if [ -n "$WORKLOAD" ]; then
    run "$WORKLOAD" "$TRACE"
    exit
fi
for w in join_mem join_ooc join_grid serve_mix; do
    run "$w" 0 | sed "s/^{/{\"workload\": \"$w\", /"
    if [ "$TRACE" = 1 ]; then
        run "$w" 1 | sed "s/^{/{\"workload\": \"$w\", \"traced\": true, /"
    fi
done
