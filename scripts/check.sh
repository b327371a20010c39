#!/usr/bin/env bash
# CI gate: formatting, lints, build and the full test suite.
#
# The source gates (deleted paths stay deleted, hot paths stay off the
# allocator, networked code never panics) are one table in
# tests/source_gates.rs, which `cargo test` runs; this script adds the
# release-mode tests, the docs gates and the end-to-end smokes.
#
# Usage: scripts/check.sh
# Runs everything offline (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build (all targets)"
cargo build --workspace --all-targets

echo "==> cargo test"
cargo test --workspace

echo "==> cargo test (forced scalar micro-kernel: the portable fallback must stay correct)"
SWT_FORCE_SCALAR_KERNEL=1 cargo test --workspace --quiet

echo "==> kernel kinds (every micro-kernel this host can run is swept; its golden line exists)"
# The per-kind oracle sweeps run what `available_kernels()` lists: print it,
# so the log shows e.g. that `Avx2Fma` was still swept on an AVX-512 host.
kinds=$(cargo test --quiet -p swt-tensor --lib kernel_kinds_swept -- --nocapture 2>&1 \
  | grep 'kernel kinds swept on this host' || true)
if [ -z "$kinds" ]; then
  echo "swt-tensor did not report the kernel kinds its sweeps cover" >&2
  exit 1
fi
echo "$kinds"
# The golden-bits test only notes a kernel without a recorded line; here that
# is a failure, or a new kernel kind would never be compared on its own host.
# It covers both convolution ranks: tests/golden/{cifar10,nt3}_candidate.txt.
missing=$(cargo test --quiet -p swt --test integration_nas candidate_keeps_its_golden_bits \
  -- --nocapture 2>&1 | grep 'no golden line for kernel' || true)
if [ -n "$missing" ]; then
  echo "$missing" >&2
  exit 1
fi

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> bench_obs smoke (disabled-instrumentation overhead < 2%)"
cargo run --release --quiet -p swt-bench --bin bench_obs -- --smoke

echo "==> lineage cache (residency follows the watermark, in release)"
cargo test --release --quiet -p swt-checkpoint -p swt-nas --test cache_coherence --test lineage_props

echo "==> alloc discipline (warmed kernels, training step and store cycle stay off the allocator)"
cargo test --release --quiet -p swt-tensor -p swt-nn -p swt-checkpoint --test alloc_discipline

echo "==> the step outside the GEMMs (mask fill, direct loops, the optimizer step and the dense products are their oracles' arithmetic, to the bit — in release)"
cargo test --release --quiet -p swt-tensor -p swt-nn --lib -- fill_mask_is_chance_per_element small_products_match_the_strided_loop_bitwise backward_equals_zero_then_accumulate_bitwise dense_products_ update_matches_the_three_division_loop

echo "==> Adam's bias corrections (the multiply by an f64 reciprocal rounds to the quotient's bits for every f32, steps 1-4)"
cargo test --release --quiet -p swt-tensor --lib -- --ignored every_f32

echo "==> docs gate (the newest CHANGES.md entry is one paragraph; DESIGN.md §7-§14 hold no history)"
# An entry starts at a line `PR N:` (or `- PR N:`) and runs to the next one.
newest=$(awk '/^(- )?PR [0-9]+:/ { entry = "" } { entry = entry $0 "\n" } END { printf "%s", entry }' \
  CHANGES.md | wc -c)
if [ "$newest" -gt 1500 ]; then
  echo "CHANGES.md: the newest entry is $newest bytes; the cap is 1500" >&2
  exit 1
fi
# DESIGN describes the system as it is: what happened in which change
# belongs in CHANGES.md.
history=$(awk '/^## [0-9]+\./ { on = ($2 + 0 >= 7 && $2 + 0 <= 14) }
  on && /PR [0-9]+/ { print "DESIGN.md:" FNR ": " $0 }' DESIGN.md)
if [ -n "$history" ]; then
  echo "a change number in DESIGN.md §7-§14 (describe the system; history goes in CHANGES.md):" >&2
  echo "$history" >&2
  exit 1
fi

cargo build --release --quiet -p swt   # worker binary for the coordinator (and the smokes below) to spawn

echo "==> experiments docs gate (EXPERIMENTS.md's measured blocks are generated from results/quick/)"
# `docs` rewrites every fenced block whose info string names a figure from
# the committed CSVs, with that figure's ✓/✗ verdicts: a block edited by
# hand, a CSV committed without its block, or a section left unfilled fails.
# It diffs against the file as it was before `docs` ran, not against the
# index, so an unstaged edit to the prose around the blocks passes; a failure
# puts that file back.
cargo build --release --quiet -p swt-experiments
before=$(mktemp)
cp EXPERIMENTS.md "$before"
./target/release/swt-experiments docs --out results/quick
if ! diff -u "$before" EXPERIMENTS.md >&2; then
  cp "$before" EXPERIMENTS.md
  rm -f "$before"
  echo "EXPERIMENTS.md's measured blocks differ from results/quick/ (run swt-experiments docs --out results/quick)" >&2
  exit 1
fi
rm -f "$before"
if grep -n '(to be filled' EXPERIMENTS.md >&2; then
  echo "EXPERIMENTS.md still has a section to be filled" >&2
  exit 1
fi

echo "==> wire fuzz + store wire fuzz (golden bytes; every frame under truncation/bit-flips/hostile counts)"
cargo test --release --quiet -p swt-dist -p swt-ckpt-server --test fuzz_decode

echo "==> elastic smoke (a worker joining from outside must not change the canonical trace)"
# The quick population is 16: only from candidate 17 on is a candidate a
# mutated child that reads its parent's checkpoint back. The dist smokes run
# 24, and a trace in which no tensor was transferred fails them — two
# transfer-free runs agreeing would say nothing about the transfer path.
elastic_dir=$(mktemp -d)
live_dir=$(mktemp -d)
trap 'rm -rf "$elastic_dir" "$live_dir"' EXIT
./target/release/swt dist-run --app uno --scheme lcs --candidates 24 \
  --workers 2 --store "$elastic_dir/fixed_store" \
  --canonical-trace "$elastic_dir/fixed.csv" >/dev/null
if ! awk -F, '!/^#/ && $6 + 0 > 0 { found = 1 } END { exit !found }' "$elastic_dir/fixed.csv"; then
  echo "dist smokes: no candidate of the reference run transferred a tensor" >&2
  exit 1
fi
# An outside `swt dist-worker --connect ADDR` is admitted at a heartbeat
# round, which runs on the clock however busy the run is. 400 candidates
# keep the run up for several rounds; 24 and 100 end before the first.
./target/release/swt dist-run --app uno --scheme lcs --candidates 400 \
  --workers 2 --max-workers 3 --store "$elastic_dir/elastic_store" \
  --canonical-trace "$elastic_dir/elastic.csv" \
  > "$elastic_dir/elastic.out" 2> "$elastic_dir/elastic.err" &
elastic_pid=$!
coord=""
for _ in $(seq 1 100); do
  coord=$(sed -n 's/.*coordinator on \([0-9.:]*\),.*/\1/p' "$elastic_dir/elastic.err")
  [ -n "$coord" ] && break
  sleep 0.05
done
if [ -z "$coord" ]; then
  echo "elastic smoke: the run never logged its coordinator address" >&2
  kill "$elastic_pid" 2>/dev/null || true
  exit 1
fi
sleep 0.2 # let the search start: the join lands on a busy run
./target/release/swt dist-worker --connect "$coord" 2> "$elastic_dir/joiner.err" || true
if ! wait "$elastic_pid" || ! grep -q '1 worker(s) joined' "$elastic_dir/elastic.out"; then
  echo "elastic smoke: the outside worker was not admitted" >&2
  cat "$elastic_dir/elastic.out" "$elastic_dir/elastic.err" "$elastic_dir/joiner.err" >&2
  exit 1
fi
./target/release/swt run --app uno --scheme lcs --candidates 400 --workers 2 \
  --canonical-trace "$elastic_dir/local_c400.csv" >/dev/null
if ! cmp -s "$elastic_dir/local_c400.csv" "$elastic_dir/elastic.csv"; then
  echo "elastic smoke: canonical trace changed when a worker joined mid-run" >&2
  diff "$elastic_dir/local_c400.csv" "$elastic_dir/elastic.csv" >&2 || true
  exit 1
fi

echo "==> fixed pool (a script still asking for a pool size, a kill or a join fails loudly)"
# The coordinator sizes nothing and injects nothing: a kill is `kill` on a
# pid from /status, a join is `swt dist-worker --connect ADDR`, and the
# coordinator names each worker's slot.
for cmd in "dist-run --autoscale 1:2" "dist-run --initial-workers 1" \
    "dist-run --kill-after 1:3" "dist-run --join-after 2" "dist-worker --worker-id 1"; do
  flag=$(echo "$cmd" | cut -d' ' -f2)
  # shellcheck disable=SC2086 # mode, flag and value are three words on purpose
  if ./target/release/swt $cmd >/dev/null 2>"$elastic_dir/sizing.err" \
      || ! grep -q "unknown flag \`$flag\`" "$elastic_dir/sizing.err"; then
    echo "swt ${cmd%% *} accepted $flag, or refused it without naming the unknown flag" >&2
    exit 1
  fi
done

echo "==> remote store smoke (dist-run over swt-ckpt-server reproduces the DirStore trace)"
ckpt_dir=$(mktemp -d)
# --max-seconds is a backstop so a failed smoke cannot leave the server behind.
./target/release/swt ckpt-server --bind 127.0.0.1:0 --spill "$ckpt_dir/spill" \
  --max-seconds 120 > "$ckpt_dir/out.txt" &
ckpt_pid=$!
srv_addr=""
for _ in $(seq 1 100); do
  srv_addr=$(sed -n 's/^ckpt-server listening on \([^ ]*\).*/\1/p' "$ckpt_dir/out.txt")
  [ -n "$srv_addr" ] && break
  sleep 0.1
done
if [ -z "$srv_addr" ]; then
  echo "remote store smoke: the server never printed its address" >&2
  kill "$ckpt_pid" 2>/dev/null || true
  exit 1
fi
./target/release/swt dist-run --app uno --scheme lcs --candidates 24 \
  --workers 2 --store "tcp://$srv_addr" \
  --canonical-trace "$ckpt_dir/remote.csv" >/dev/null
kill "$ckpt_pid" 2>/dev/null || true
if ! cmp -s "$elastic_dir/fixed.csv" "$ckpt_dir/remote.csv"; then
  echo "remote store smoke: canonical trace changed when checkpoints moved through the server" >&2
  diff "$elastic_dir/fixed.csv" "$ckpt_dir/remote.csv" >&2 || true
  exit 1
fi
rm -rf "$ckpt_dir"

echo "==> in-process vs dist vs golden identity (one canonical trace whichever backend ran it)"
./target/release/swt run --app uno --scheme lcs --candidates 8 --workers 2 \
  --canonical-trace "$elastic_dir/local_c8.csv" >/dev/null
if ! cmp -s "$elastic_dir/local_c8.csv" tests/golden/canonical_uno_lcs_c8_w2.csv; then
  echo "identity: in-process canonical trace drifted from the golden" >&2
  diff tests/golden/canonical_uno_lcs_c8_w2.csv "$elastic_dir/local_c8.csv" >&2 || true
  exit 1
fi
# The dist smokes ran the same config for 24 candidates: the first 8 must sit
# on the same golden bytes, and all 24 — children that transfer among them —
# on the in-process run's.
if ! head -n 10 "$elastic_dir/fixed.csv" | cmp -s - tests/golden/canonical_uno_lcs_c8_w2.csv; then
  echo "identity: dist canonical trace drifted from the golden" >&2
  head -n 10 "$elastic_dir/fixed.csv" | diff tests/golden/canonical_uno_lcs_c8_w2.csv - >&2 || true
  exit 1
fi
./target/release/swt run --app uno --scheme lcs --candidates 24 --workers 2 \
  --canonical-trace "$elastic_dir/local_c24.csv" >/dev/null
if ! cmp -s "$elastic_dir/fixed.csv" "$elastic_dir/local_c24.csv"; then
  echo "identity: dist canonical trace differs from the in-process run's" >&2
  diff "$elastic_dir/local_c24.csv" "$elastic_dir/fixed.csv" >&2 || true
  exit 1
fi
# Uno candidates cost nearly the same, so results barely arrive out of order.
# Cifar10 ones differ 1.7-3x: the reorder buffer fills and warm-up proposals
# go ahead of their turn, and the trace must not notice. Ids 17-23 are
# evolution children; at least one must have transferred.
./target/release/swt run --app cifar10 --scale full --scheme lcs --candidates 24 --workers 2 \
  --canonical-trace "$elastic_dir/local_c10.csv" >/dev/null
./target/release/swt dist-run --app cifar10 --scale full --scheme lcs --candidates 24 \
  --workers 2 --store "$elastic_dir/c10_store" \
  --canonical-trace "$elastic_dir/dist_c10.csv" >/dev/null
if ! cmp -s "$elastic_dir/local_c10.csv" "$elastic_dir/dist_c10.csv"; then
  echo "identity: Cifar10 dist canonical trace differs from the in-process run's" >&2
  diff "$elastic_dir/local_c10.csv" "$elastic_dir/dist_c10.csv" >&2 || true
  exit 1
fi
if ! awk -F, '!/^#/ && $1 + 0 >= 17 && $6 + 0 > 0 { found = 1 } END { exit !found }' \
    "$elastic_dir/local_c10.csv"; then
  echo "identity: no Cifar10 child transferred a tensor" >&2
  exit 1
fi

echo "==> live endpoint smoke (/status answers mid-run; /metrics counters match report.json; the run-end Chrome trace holds worker events)"
# Four epochs over 64 candidates keep the run up long enough for the poller
# to catch it mid-flight (a 12-candidate one-epoch quick run finishes in
# ~100 ms).
./target/release/swt dist-run --app uno --scheme lcs --candidates 64 --epochs 4 \
  --workers 2 --store "$live_dir/store" --serve 127.0.0.1:0 \
  --report "$live_dir/report.json" --chrome-trace "$live_dir/run.trace.json" \
  > "$live_dir/out.txt" &
live_pid=$!
# The run picks a free port and prints the live URL; wait for it.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's|^live: http://\([^/]*\)/status.*|\1|p' "$live_dir/out.txt")
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "live smoke: the run never printed its live URL" >&2
  kill "$live_pid" 2>/dev/null || true
  exit 1
fi
# Poll /status until every connected worker has streamed telemetry
# (workers are listed, and none is still at frames:0), grabbing /metrics
# in the same breath so both captures are genuinely mid-run.
ok=""
metrics=""
for _ in $(seq 1 400); do
  status=$(./target/release/swt dist-top --addr "$addr" --fetch /status 2>/dev/null || true)
  if echo "$status" | grep -q '"frames":' && ! echo "$status" | grep -q '"frames":0[,}]'; then
    metrics=$(./target/release/swt dist-top --addr "$addr" --fetch /metrics 2>/dev/null || true)
    [ -n "$metrics" ] && ok=1 && break
  fi
  sleep 0.05
done
wait "$live_pid"
if [ -z "$ok" ]; then
  echo "live smoke: workers never reported over /status (or /metrics never answered)" >&2
  exit 1
fi
# Every counter family the live endpoint exported must exist in the
# final merged report -- the stream may be stale, never invented.
missing=""
for name in $(echo "$metrics" | sed -n 's/^swt_counter{name="\([^"]*\)".*/\1/p' | sort -u); do
  grep -q "\"$name\"" "$live_dir/report.json" || missing="$missing $name"
done
if [ -n "$missing" ]; then
  echo "live smoke: /metrics exported counters absent from report.json:$missing" >&2
  exit 1
fi
# Workers are pid 1..N in the trace, the coordinator pid 0.
if ! grep -q '"traceEvents":\[' "$live_dir/run.trace.json" \
    || ! grep -qE '"pid":[1-9]' "$live_dir/run.trace.json"; then
  echo "live smoke: --chrome-trace wrote no traceEvents under a worker pid" >&2
  exit 1
fi

echo "OK"
