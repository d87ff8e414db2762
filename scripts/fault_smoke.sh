#!/usr/bin/env bash
# Fault-tolerance smoke test: corrupt one page of a persisted index with
# dd, assert `psj fsck` flags it and exits nonzero, then serve the damaged
# index (leniently) beside a healthy one and assert the healthy tree
# answers while queries needing the poisoned page get a typed
# storage-corrupt reply — all without the server crashing. Also checks that
# an index whose magic names an earlier format (PSJT2) is refused by
# `psj fsck` and `psj stats` with the version named.
set -euo pipefail

PSJ="${PSJ:-target/release/psj}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PORT="${FAULT_SMOKE_PORT:-7947}"
ADDR="127.0.0.1:${PORT}"

echo "== generate + build =="
"$PSJ" generate --scale 0.02 --seed 1996 --out1 "$WORK/m1.psjm" --out2 "$WORK/m2.psjm"
"$PSJ" build --map "$WORK/m1.psjm" --out "$WORK/healthy.psjt"
"$PSJ" build --map "$WORK/m2.psjm" --out "$WORK/victim.psjt"

echo "== fsck on the clean index =="
"$PSJ" fsck "$WORK/victim.psjt" | tee "$WORK/fsck_clean.json"
grep -qF '"corrupt_pages":[]' "$WORK/fsck_clean.json" || {
  echo "FAIL: clean index reported corrupt pages"; exit 1; }

echo "== an earlier format is refused with its version named =="
cp "$WORK/healthy.psjt" "$WORK/old.psjt"
printf 'PSJT2\n' | dd of="$WORK/old.psjt" bs=1 seek=0 conv=notrunc status=none
if "$PSJ" fsck "$WORK/old.psjt" > "$WORK/fsck_old.json" 2>"$WORK/fsck_old.err"; then
  echo "FAIL: fsck exited zero on a PSJT2 index"; exit 1
fi
grep -qF 'PSJT2 tree file' "$WORK/fsck_old.json" || {
  echo "FAIL: fsck did not name the old version:"; cat "$WORK/fsck_old.json"; exit 1; }
if "$PSJ" stats --tree "$WORK/old.psjt" > /dev/null 2>"$WORK/stats_old.err"; then
  echo "FAIL: stats loaded a PSJT2 index"; exit 1
fi
grep -qF 'PSJT2 tree file' "$WORK/stats_old.err" || {
  echo "FAIL: stats did not name the old version:"; cat "$WORK/stats_old.err"; exit 1; }

echo "== corrupt page 0 with dd =="
# Page records start right after the 30-byte header; clobbering offset 30
# lands inside page 0's payload, which the CRC footer must catch.
printf '\377\377\377\377' | dd of="$WORK/victim.psjt" bs=1 seek=30 conv=notrunc status=none

echo "== fsck flags the damage and exits nonzero =="
if "$PSJ" fsck "$WORK/victim.psjt" > "$WORK/fsck_bad.json" 2>"$WORK/fsck_bad.err"; then
  echo "FAIL: fsck exited zero on a corrupt index"; exit 1
fi
cat "$WORK/fsck_bad.json"
grep -qF '"corrupt_pages":[0]' "$WORK/fsck_bad.json" || {
  echo "FAIL: fsck did not name page 0"; exit 1; }

echo "== strict load refuses the corrupt index =="
if "$PSJ" stats --tree "$WORK/victim.psjt" 2>"$WORK/strict.err"; then
  echo "FAIL: strict load accepted a corrupt index"; exit 1
fi
grep -qi "corrupt" "$WORK/strict.err" || {
  echo "FAIL: strict load error is not typed as corruption:";
  cat "$WORK/strict.err"; exit 1; }

echo "== serve healthy + poisoned (lenient) =="
"$PSJ" serve --trees "$WORK/healthy.psjt,$WORK/victim.psjt" --addr "$ADDR" \
  --workers 2 --lenient > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "serving on" "$WORK/server.log" 2>/dev/null && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server exited before accepting connections:"; cat "$WORK/server.log"; exit 1
  fi
  sleep 0.1
done
grep -q "LENIENT: 1 corrupt pages poisoned" "$WORK/server.log" || {
  echo "FAIL: lenient load did not poison the damaged page";
  cat "$WORK/server.log"; exit 1; }

echo "== healthy tree answers =="
"$PSJ" query --addr "$ADDR" --tree 0 --window="-100000,-100000,100000,100000" \
  | tee "$WORK/healthy.out"
head -n1 "$WORK/healthy.out" | grep -qv "^0 entries" || {
  echo "FAIL: healthy tree returned nothing"; exit 1; }

echo "== poisoned tree degrades to a typed storage error =="
if "$PSJ" query --addr "$ADDR" --tree 1 --window="-100000,-100000,100000,100000" \
    > "$WORK/victim.out" 2>&1; then
  echo "FAIL: query over the poisoned page succeeded"; cat "$WORK/victim.out"; exit 1
fi
grep -q "storage error (corrupt)" "$WORK/victim.out" || {
  echo "FAIL: expected a typed storage-corrupt reply:"; cat "$WORK/victim.out"; exit 1; }

echo "== healthy tree still answers after the storage error =="
"$PSJ" query --addr "$ADDR" --tree 0 --window "0,0,1000,1000" > /dev/null

echo "== telemetry counts the corruption =="
"$PSJ" query --addr "$ADDR" --stats | tee "$WORK/stats.out"
grep -q "corrupt pages detected" "$WORK/stats.out" || {
  echo "FAIL: no corruption telemetry in stats"; exit 1; }

echo "== shutdown =="
"$PSJ" query --addr "$ADDR" --shutdown
WAITED=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  if [ "$WAITED" -ge 60 ]; then
    echo "FAIL: server still running 60s after shutdown"; kill -9 "$SERVER_PID"; exit 1
  fi
  sleep 1; WAITED=$((WAITED + 1))
done
if ! wait "$SERVER_PID"; then
  echo "FAIL: server exited non-zero"; cat "$WORK/server.log"; exit 1
fi
echo "fault smoke test passed"
