#!/bin/sh
# Paper-scale experiment runs (single-core friendly ordering).
# Usage: scripts/paper_scale.sh [results-dir]
set -x
OUT="${1:-results/scale1}"
BIN=./target/release/harness
mkdir -p "$OUT"
$BIN table1 --scale 1 --csv "$OUT" > "$OUT/table1.log" 2>&1
$BIN fig12 --scale 1 --queries 300 --no-xsketch --csv "$OUT" > "$OUT/fig12_ts.log" 2>&1
$BIN fig13 --scale 0.5 --queries 200 --csv "$OUT" > "$OUT/fig13.log" 2>&1
$BIN family --scale 1 --csv "$OUT" > "$OUT/family.log" 2>&1
$BIN values --scale 1 --csv "$OUT" > "$OUT/values.log" 2>&1
$BIN ablation --scale 1 --csv "$OUT" > "$OUT/ablation.log" 2>&1
echo PAPER_SCALE_DONE
