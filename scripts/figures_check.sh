#!/usr/bin/env bash
# Figures check: rerun every paper table/figure binary at paper scale
# (seed 1996, the binaries' defaults) with stdout to results/, then fail
# if any committed results/*.txt differs from what the code prints. The
# binaries are deterministic simulations, so a diff means either the code
# changed a figure or someone hand-edited a result file. To accept a
# deliberate change, run this script and commit the rewritten files.
#
# Takes about two minutes on two cores.
set -euo pipefail

cd "$(dirname "$0")/.."

BINS=(table1 table2 fig5 fig7 fig8 fig9 fig10 ablation)

cargo build --release -q -p psj-bench
for bin in "${BINS[@]}"; do
  echo "== $bin"
  "target/release/$bin" > "results/$bin.txt"
done

git diff --exit-code --stat results/ || {
  echo "FAIL: results/ differs from the committed figures (git diff results/)"
  exit 1
}
echo "figures match the committed results/"
