#!/usr/bin/env bash
# Smoke test for the observability layer: run a traced native join and
# validate the emitted JSONL with `psj trace-check`, then start a server,
# scrape the Prometheus exposition with `psj metrics`, and assert the
# scrape agrees with the binary stats report.
set -euo pipefail

PSJ="${PSJ:-target/release/psj}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PORT="${TRACE_SMOKE_PORT:-7951}"
ADDR="127.0.0.1:${PORT}"

echo "== generate + build =="
"$PSJ" generate --scale 0.02 --seed 1996 --out1 "$WORK/m1.psjm" --out2 "$WORK/m2.psjm"
"$PSJ" build --map "$WORK/m1.psjm" --out "$WORK/t1.psjt"
"$PSJ" build --map "$WORK/m2.psjm" --out "$WORK/t2.psjt"

echo "== traced join =="
"$PSJ" join --tree1 "$WORK/t1.psjt" --tree2 "$WORK/t2.psjt" \
  --threads 4 --cache 256 --trace "$WORK/join.jsonl" | tee "$WORK/join.log"
grep -q "task segments:" "$WORK/join.log" || {
  echo "FAIL: join printed no task attribution"; exit 1
}
# A node pair's candidates resolve from its two pages: a fault-free join
# makes exactly two cache requests per node pair. More means a
# per-candidate re-fetch or a read booked twice came back.
PAIRS=$(sed -n 's/^node pairs: *\([0-9]*\)$/\1/p' "$WORK/join.log")
REQS=$(sed -n 's/^page cache (global): *\([0-9]*\) requests.*/\1/p' "$WORK/join.log")
if [ -z "$PAIRS" ] || [ -z "$REQS" ] || [ "$REQS" -ne $((2 * PAIRS)) ]; then
  echo "FAIL: ${REQS:-no} page cache requests for ${PAIRS:-no} node pairs (want 2 per pair)"; exit 1
fi

echo "== trace-check =="
# Exits nonzero unless every line parses, spans nest per thread row, and
# the trace contains at least one span.
"$PSJ" trace-check "$WORK/join.jsonl"
# Every line must be a self-contained JSON object (JSONL, Perfetto-loadable).
BAD=$(grep -cv '^{.*}$' "$WORK/join.jsonl" || true)
if [ "$BAD" -ne 0 ]; then
  echo "FAIL: $BAD non-JSON-object lines in trace"; exit 1
fi
# At least one task span and the worker thread-name metadata must be present.
grep -q '"name":"task"' "$WORK/join.jsonl" || { echo "FAIL: no task spans"; exit 1; }
grep -q '"ph":"M"' "$WORK/join.jsonl" || { echo "FAIL: no thread metadata"; exit 1; }

echo "== metrics scrape =="
"$PSJ" serve --trees "$WORK/t1.psjt,$WORK/t2.psjt" --addr "$ADDR" \
  --workers 2 > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  if grep -q "serving on" "$WORK/server.log" 2>/dev/null; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server exited before accepting connections:"; cat "$WORK/server.log"; exit 1
  fi
  sleep 0.1
done

"$PSJ" query --addr "$ADDR" --tree 0 --window 0,0,0.05,0.05 > /dev/null
"$PSJ" query --addr "$ADDR" --tree 0 --join-with 1 > /dev/null
"$PSJ" metrics --addr "$ADDR" | tee "$WORK/metrics.txt" | head -20

COMPLETED=$(sed -n 's/^psj_requests_completed_total \([0-9]*\)$/\1/p' "$WORK/metrics.txt")
if [ -z "$COMPLETED" ] || [ "$COMPLETED" -lt 2 ]; then
  echo "FAIL: exposition missing completed counter (got '${COMPLETED:-unset}')"; exit 1
fi
# The binary stats report reads the same atomics as the scrape.
"$PSJ" query --addr "$ADDR" --stats | tee "$WORK/stats.txt"
grep -q "requests:   ${COMPLETED} completed" "$WORK/stats.txt" || {
  echo "FAIL: stats report disagrees with Prometheus scrape (${COMPLETED} completed)"
  exit 1
}
grep -q '^psj_request_latency_seconds_bucket{le=' "$WORK/metrics.txt" || {
  echo "FAIL: no histogram buckets in exposition"; exit 1
}
grep -q '^psj_worker_panics_total 0$' "$WORK/metrics.txt" || {
  echo "FAIL: unexpected worker panics (or counter missing)"; exit 1
}

"$PSJ" query --addr "$ADDR" --shutdown
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; cat "$WORK/server.log"; exit 1; }
echo "trace smoke test passed"
