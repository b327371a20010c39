#!/usr/bin/env bash
# One command: builds `swt` and the benchmark in release, then
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
#   run.sh [--workload NAME]... [--seed N] [--runs N] [--out FILE]   a result set, every workload by default
#   run.sh compare A.json B.json | golden --workload NAME | manifest
# See README.md. Run from anywhere; it works in the checkout that holds it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both builds share one target directory, so the benchmark finds `swt` next
# to itself; a relative CARGO_TARGET_DIR means relative to the checkout.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p swt --bin swt >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export SWT_DIST_WORKER_EXE="$target/release/swt"
export SWT_BENCH_DIR="$here"
unset SWT_CKPT_SECRET SWT_FORCE_SCALAR_KERNEL
# Connection chatter of workers and server stays out of the result.
export SWT_LOG="${SWT_LOG:-warn}"

bin="$target/release/benchmark"
case "${1:-}" in
  compare|golden|manifest|set|run) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--trace" ]; then exec "$bin" run "$@"; fi
done
exec "$bin" set "$@"
