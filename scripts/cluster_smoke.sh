#!/usr/bin/env bash
# Smoke test for the sharded cluster: plan shards from generated maps,
# start three `psj serve --shard-id` processes plus the scatter-gather
# router, drive load through the router while SIGKILLing one shard
# mid-run, and assert the cluster degraded (partial answers, success on
# at least two thirds of the load) instead of failing — then restart the
# shard and assert the router's prober brings it back, as recorded by
# the per-shard Prometheus counters.
set -euo pipefail

PSJ="${PSJ:-target/release/psj}"
WORK="$(mktemp -d)"
cleanup() {
  kill -9 "${ROUTER_PID:-}" "${S0_PID:-}" "${S1_PID:-}" "${S2_PID:-}" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

BASE_PORT="${CLUSTER_SMOKE_PORT:-7951}"
ROUTER_ADDR="127.0.0.1:$((BASE_PORT + 10))"

echo "== generate + shard-plan =="
"$PSJ" generate --scale 0.02 --seed 1996 --out1 "$WORK/m1.psjm" --out2 "$WORK/m2.psjm"
"$PSJ" shard-plan --map1 "$WORK/m1.psjm" --map2 "$WORK/m2.psjm" --shards 3 \
  --out "$WORK/cluster" --base-port "$BASE_PORT"

echo "== start shards + router =="
start_shard() { # id -> pid, log at $WORK/shard$1.log
  local id=$1
  "$PSJ" serve --trees "$WORK/cluster/shard${id}_a.psjt,$WORK/cluster/shard${id}_b.psjt" \
    --addr "127.0.0.1:$((BASE_PORT + id))" --shard-id "$id" \
    --workers 2 > "$WORK/shard${id}.log" 2>&1 &
}
wait_for() { # pattern, log, pid
  for _ in $(seq 1 100); do
    if grep -q "$1" "$2" 2>/dev/null; then return 0; fi
    if ! kill -0 "$3" 2>/dev/null; then
      echo "process died before '$1':"; cat "$2"; exit 1
    fi
    sleep 0.1
  done
  echo "timed out waiting for '$1' in $2"; cat "$2"; exit 1
}
start_shard 0; S0_PID=$!
start_shard 1; S1_PID=$!
start_shard 2; S2_PID=$!
wait_for "serving on" "$WORK/shard0.log" "$S0_PID"
wait_for "serving on" "$WORK/shard1.log" "$S1_PID"
wait_for "serving on" "$WORK/shard2.log" "$S2_PID"
"$PSJ" cluster-serve --topology "$WORK/cluster/topology.txt" --addr "$ROUTER_ADDR" \
  > "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
wait_for "routing on" "$WORK/router.log" "$ROUTER_PID"

echo "== load through the router, SIGKILL shard 1 mid-run =="
"$PSJ" bench-serve --addr "$ROUTER_ADDR" --clients 4 --requests 1500 --seed 7 \
  --deadline-ms 2000 --reconnect --out "$WORK/smoke.json" > "$WORK/bench.log" 2>&1 &
BENCH_PID=$!
sleep 0.5
kill -9 "$S1_PID"
wait "$BENCH_PID" || { echo "FAIL: bench-serve errored"; cat "$WORK/bench.log"; exit 1; }
cat "$WORK/bench.log"

echo "== assertions: degraded, not dead =="
OFFERED=$(sed -n 's/.*"offered": \([0-9]*\).*/\1/p' "$WORK/smoke.json" | head -1)
COMPLETED=$(sed -n 's/.*"completed": \([0-9]*\).*/\1/p' "$WORK/smoke.json" | head -1)
if [ -z "$OFFERED" ] || [ -z "$COMPLETED" ] || [ "$OFFERED" -eq 0 ]; then
  echo "FAIL: bad bench report"; cat "$WORK/smoke.json"; exit 1
fi
# Success on at least two thirds of the offered load with a shard dead.
if [ $((COMPLETED * 3)) -lt $((OFFERED * 2)) ]; then
  echo "FAIL: only $COMPLETED/$OFFERED completed with one shard down"
  cat "$WORK/smoke.json"; exit 1
fi
echo "completed $COMPLETED/$OFFERED with shard 1 dead"

# A full-extent window through the router must answer partially (the dead
# shard named), not hang or error: query prints a deterministic banner.
"$PSJ" query --addr "$ROUTER_ADDR" --tree 0 --window=-1e12,-1e12,1e12,1e12 \
  --deadline-ms 2000 > "$WORK/partial.log"
grep -q "partial (missing shards: 1)" "$WORK/partial.log" || {
  echo "FAIL: expected a partial answer naming shard 1"; cat "$WORK/partial.log"; exit 1
}
echo "router degraded to: $(head -1 "$WORK/partial.log")"

echo "== restart shard 1, wait for recovery =="
start_shard 1; S1_PID=$!
wait_for "serving on" "$WORK/shard1.log" "$S1_PID"
RECOVERED=0
for _ in $(seq 1 100); do
  "$PSJ" query --addr "$ROUTER_ADDR" --tree 0 --window=-1e12,-1e12,1e12,1e12 \
    --deadline-ms 2000 > "$WORK/recover.log" 2>&1 || true
  if ! grep -q "partial" "$WORK/recover.log" && grep -q "entries" "$WORK/recover.log"; then
    RECOVERED=1; break
  fi
  sleep 0.2
done
if [ "$RECOVERED" -ne 1 ]; then
  echo "FAIL: shard 1 never rejoined"; cat "$WORK/recover.log"; cat "$WORK/router.log"; exit 1
fi
echo "shard 1 rejoined without touching the router"

echo "== router metrics recorded the round trip =="
"$PSJ" metrics --addr "$ROUTER_ADDR" > "$WORK/metrics.log"
for SERIES in \
  'psj_router_shard_down_total{shard="1"}' \
  'psj_router_shard_probes_total{shard="1"}' \
  'psj_router_shard_recovered_total{shard="1"}'; do
  VALUE=$(grep -F "$SERIES" "$WORK/metrics.log" | awk '{print $2}' | head -1)
  if [ -z "$VALUE" ] || [ "${VALUE%%.*}" -lt 1 ]; then
    echo "FAIL: $SERIES missing or zero (got '${VALUE:-unset}')"
    cat "$WORK/metrics.log"; exit 1
  fi
  echo "$SERIES = $VALUE"
done

echo "cluster smoke test passed"
