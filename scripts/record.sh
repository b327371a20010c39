#!/usr/bin/env bash
# Record the paper's evaluation into results/<scale>/: every figure and
# table once, in the order the cached NAS runs need, plus timings.csv.
#
# Usage: scripts/record.sh [quick|full]     (default: quick)
#
# The CSVs and timings.csv are the committed record. The cached traces,
# checkpoints and full-training tables land in results/<scale>/traces and
# ckpts, which .gitignore keeps out of the repository; delete both to
# record afresh. --workers 2 is explicit: the default is the hardware count
# minus two.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-quick}"
case "$scale" in quick|full) ;; *) echo "usage: $0 [quick|full]" >&2; exit 2 ;; esac
cargo build --release --offline --quiet -p swt-experiments
target/release/swt-experiments all --scale "$scale" --workers 2 --out "results/$scale"
