#!/usr/bin/env bash
# Record the paper's evaluation: every figure and table binary once, in the
# order the cached NAS runs need (fig7 runs the searches fig8, fig9, table3
# and table4 read back), into results/<scale>/.
#
# Usage: scripts/record.sh [quick|full]     (default: quick)
#
# Writes results/<scale>/*.csv (the committed record), log_<bin>.log (each
# binary's stdout) and timings.csv (wall seconds per binary). The cached
# traces and checkpoints land in results/<scale>/traces and ckpts, which
# .gitignore keeps out of the repository; delete them to record afresh.
# --workers 2 is explicit: ExpCtx's default is the hardware count minus two.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-quick}"
case "$scale" in quick|full) ;; *) echo "usage: $0 [quick|full]" >&2; exit 2 ;; esac
out="results/$scale"
mkdir -p "$out"

cargo build --release --offline --quiet -p swt-experiments
bins=(fig2 fig4 fig5 fig7 fig8 fig9 ablation table1 table3 table4 fig10 fig11)
echo "bin,wall_s" > "$out/timings.csv"
for bin in "${bins[@]}"; do
  echo "==> $bin --scale $scale --workers 2" >&2
  t0=$(date +%s%N)
  "target/release/$bin" --scale "$scale" --workers 2 --out "$out" > "$out/log_$bin.log"
  ds=$((($(date +%s%N) - t0) / 100000000))
  printf '%s,%d.%d\n' "$bin" $((ds / 10)) $((ds % 10)) >> "$out/timings.csv"
done
cat "$out/timings.csv" >&2
