#!/usr/bin/env bash
# Smoke test for the query service: generate a small workload, start
# `psj serve` on loopback, drive it with `psj bench-serve`, and assert the
# run completed requests, a lone client's median request stays well under
# a timer's worth of waiting, and the server shut down cleanly within a
# bound.
set -euo pipefail

PSJ="${PSJ:-target/release/psj}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PORT="${SERVE_SMOKE_PORT:-7941}"
ADDR="127.0.0.1:${PORT}"
TIMEOUT_S=120

echo "== generate + build =="
"$PSJ" generate --scale 0.02 --seed 1996 --out1 "$WORK/m1.psjm" --out2 "$WORK/m2.psjm"
"$PSJ" build --map "$WORK/m1.psjm" --out "$WORK/t1.psjt"
"$PSJ" build --map "$WORK/m2.psjm" --out "$WORK/t2.psjt"

echo "== start server =="
"$PSJ" serve --trees "$WORK/t1.psjt,$WORK/t2.psjt" --addr "$ADDR" \
  --workers 2 > "$WORK/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the listener to come up.
for _ in $(seq 1 100); do
  if grep -q "serving on" "$WORK/server.log" 2>/dev/null; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server exited before accepting connections:"; cat "$WORK/server.log"; exit 1
  fi
  sleep 0.1
done

echo "== bench-serve, one client: request latency =="
# One closed-loop client never waits for a slot, so its median is the
# request path itself (tens of µs). The 2 ms batch timer that used to sit on
# that path read 2.4 ms here; anything like it fails this bound.
P50_LIMIT_MS=1.5
"$PSJ" bench-serve --addr "$ADDR" --clients 1 --requests 500 --seed 7 \
  --out "$WORK/latency.json" | tee "$WORK/latency.log"
P50=$(sed -n 's/.*"p50_ms": \([0-9.]*\).*/\1/p' "$WORK/latency.json" | head -1)
if [ -z "$P50" ] || ! awk -v p="$P50" -v lim="$P50_LIMIT_MS" 'BEGIN { exit !(p < lim) }'; then
  echo "FAIL: single-client p50 ${P50:-unset} ms is not below ${P50_LIMIT_MS} ms"
  cat "$WORK/latency.json"; kill "$SERVER_PID"; exit 1
fi
echo "single-client p50: $P50 ms (limit $P50_LIMIT_MS ms)"

echo "== bench-serve =="
"$PSJ" bench-serve --addr "$ADDR" --clients 4 --requests 50 --seed 7 \
  --out "$WORK/smoke.json" --shutdown | tee "$WORK/bench.log"

echo "== assertions =="
COMPLETED=$(sed -n 's/.*"completed": \([0-9]*\).*/\1/p' "$WORK/smoke.json" | head -1)
if [ -z "$COMPLETED" ] || [ "$COMPLETED" -eq 0 ]; then
  echo "FAIL: no completed requests (completed=${COMPLETED:-unset})"
  cat "$WORK/smoke.json"; exit 1
fi
echo "completed requests: $COMPLETED"

# The --shutdown flag asked the server to drain and exit; it must do so
# within the timeout, with exit status 0.
WAITED=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  if [ "$WAITED" -ge "$TIMEOUT_S" ]; then
    echo "FAIL: server still running ${TIMEOUT_S}s after shutdown request"
    kill -9 "$SERVER_PID"; exit 1
  fi
  sleep 1; WAITED=$((WAITED + 1))
done
if ! wait "$SERVER_PID"; then
  echo "FAIL: server exited non-zero"; cat "$WORK/server.log"; exit 1
fi
grep -q "server report" "$WORK/server.log" || {
  echo "FAIL: no shutdown report in server log"; cat "$WORK/server.log"; exit 1
}
echo "== server log =="
cat "$WORK/server.log"
echo "serve smoke test passed"
