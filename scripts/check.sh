#!/usr/bin/env bash
# CI gate: formatting, lints, build and the full test suite.
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
missing=$(cargo test --quiet -p swt --test integration_nas cifar10_candidate -- --nocapture 2>&1 \
  | grep 'no golden line for kernel' || true)
if [ -n "$missing" ]; then
  echo "tests/golden/cifar10_candidate.txt: $missing" >&2
  exit 1
fi

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> print gate (library crates log via swt-obs, not stdout/stderr)"
# Binaries own stdout (figures, CSV, bench tables); library code must go
# through the swt-obs logger. Allowlisted: the logger's own stderr sink,
# the bench harness console table, and the experiments table/CSV renderer
# that the figure binaries print through.
violations=$(grep -rn 'println!\|eprintln!' crates/*/src --include='*.rs' \
  | grep -v '/src/bin/' \
  | grep -v '^crates/obs/src/log.rs:' \
  | grep -v '^crates/bench/src/lib.rs:' \
  | grep -v '^crates/experiments/src/lib.rs:' \
  || true)
if [ -n "$violations" ]; then
  echo "library code printing outside swt-obs:" >&2
  echo "$violations" >&2
  exit 1
fi

echo "==> bench_obs smoke (disabled-instrumentation overhead < 2%)"
cargo run --release --quiet -p swt-bench --bin bench_obs -- --smoke

echo "==> payload-hash gate (no byte-serial hash over a checkpoint payload)"
# Every payload byte is hashed on every save and every read, so payloads go
# through the word-parallel `payload_checksum` loops. The byte-serial
# `fnv1a` is for the TOC header (a few hundred bytes) alone.
serial=$(grep -rn 'fnv1a(' crates/checkpoint/src crates/ckpt-server/src --include='*.rs' \
  | grep -v 'fn fnv1a(' \
  | grep -v 'fnv1a(&\?header' \
  || true)
if [ -n "$serial" ]; then
  echo "fnv1a called on something other than a TOC header:" >&2
  echo "$serial" >&2
  exit 1
fi

echo "==> lineage cache (residency follows the watermark: no LRU, no shards, no second store trait)"
guesses=$(grep -rnE 'RawCheckpointStore|last_used|SHARDS' crates/checkpoint/src --include='*.rs' || true)
if [ -n "$guesses" ]; then
  echo "the provider cache ranks by recency, shards, or a raw-store trait is back:" >&2
  echo "$guesses" >&2
  exit 1
fi
cargo test --release --quiet -p swt-checkpoint -p swt-nas --test cache_coherence --test lineage_props

echo "==> one read per store, no unread instrument (no seek path, no cargo bench, one ckpt-server entry point)"
# Every store reads a checkpoint as one whole container (DESIGN.md §9). A
# bench binary gates a budget or is a record a document reads; `cargo bench`
# targets had neither. The server starts one way: `swt ckpt-server`. Cargo
# also finds targets by directory, so the directories count as well.
seek=$(grep -rnE 'SeekFrom|open_indexed|partial_read' crates/checkpoint/src || true)
targets=$(grep -HnE '\[\[bench\]\]|bench_ckpt' crates/bench/Cargo.toml || true)
bins=$(grep -Hn '\[\[bin\]\]' crates/ckpt-server/Cargo.toml || true)
dirs=$(find crates/bench/benches crates/ckpt-server/src/bin crates/ckpt-server/src/main.rs \
  -name '*.rs' 2>/dev/null || true)
if [ -n "$seek$targets$bins$dirs" ]; then
  echo "a seek-and-read store path, a cargo bench target, bench_ckpt or a second ckpt-server binary is back:" >&2
  printf '%s\n' "$seek" "$targets" "$bins" "$dirs" | grep . >&2
  exit 1
fi

echo "==> one way to evaluate a candidate (no rungs, pre-filter, stop reasons, fast tau or batching)"
# Multi-fidelity lost to plain LCS on wall-to-baseline-top-5 (EXPERIMENTS.md
# "PR 25") and was deleted from every layer; so was the unused O(n log n) tau.
# Batched evaluation reached its 1.2x bar on 0 of 10 pairs (EXPERIMENTS.md
# "PR 26"): one evaluator thread per worker is the only in-process shape.
fidelity=$(grep -rnE 'FidelityConfig|StopReason|MAX_RUNGS|zero_cost_score|prefilter|kendall_tau_fast|BatchEval|BatchedEval|auto_batch|batch_eval|eval\.batch|bench_batch' \
  crates tests examples || true)
if [ -n "$fidelity" ]; then
  echo "a deleted multi-fidelity stage, the fast Kendall tau or batched evaluation is named again:" >&2
  echo "$fidelity" >&2
  exit 1
fi

echo "==> one worker snapshot (metrics ride one seq-numbered Telemetry; no second copy, no Stats frame)"
# A worker's counters, histograms, spans and gauges reach the coordinator
# as its own swt-obs RunReport, its timeline events as swt-obs's own
# TimelineEvent, in one snapshot type; the live view keeps one copy of it
# per worker (DESIGN.md §10 "Cross-process metric aggregation").
mirrors=$(grep -rnE 'WorkerMetrics|CounterSnap|HistSnap|GaugeSnap|Msg::Stats|fold_metrics|SpanTotalRow|WireEvent|MAX_TELEMETRY_NAMES' \
  crates tests examples || true)
if [ -n "$mirrors" ]; then
  echo "a second worker-metrics path or a wire-side mirror of a report row is named again:" >&2
  echo "$mirrors" >&2
  exit 1
fi

echo "==> alloc discipline (warmed kernels, training step and store cycle stay off the allocator)"
cargo test --release --quiet -p swt-tensor -p swt-nn -p swt-checkpoint --test alloc_discipline

echo "==> one contraction engine (x·w and xᵀ·dy run on the broadcast-FMA tile; the packed GEMM runs dy·wᵀ alone)"
# DESIGN.md §7: a product whose vector operand is contiguous where it lies
# runs on bcast.rs's tile through conv2d's functions; only `matmul_bt_ws`
# reaches the packed GEMM, and only the packed GEMM packs. `allowed` names the
# one non-test function that may call each of its functions.
engine=$(awk '
  BEGIN {
    allowed["gemm"] = "matmul_bt_ws"; allowed["gemm_with_kernel"] = "gemm"
    allowed["pack_a"] = "gemm_with_kernel"; allowed["pack_b"] = "gemm_with_kernel"
    allowed["block_kernel"] = "gemm_with_kernel"
  }
  FNR == 1 { fn = "" }
  /^(pub\(crate\) )?mod tests/ { nextfile }
  /^[[:space:]]*\/\// { next }
  {
    line = $0
    if (sub(/^(pub(\(crate\))? )?(unsafe )?fn /, "", line)) {
      # A top-level item: what follows its name is its own body.
      fn = line; sub(/[^a-z_0-9].*/, "", fn); line = substr(line, length(fn) + 1)
    }
    for (callee in allowed)
      if (line ~ ("(^|[^a-z_0-9])" callee "\\(") && fn != allowed[callee])
        print FILENAME ":" FNR ": " callee "( called from " fn "(), not " allowed[callee] "()"
  }
  fn == "matmul_ws" && /conv2d::forward\(/ { fwd = 1 }
  fn == "matmul_at_ws" && /conv2d::backward_kernel\(/ { dw = 1 }
  END {
    if (!fwd) print "matmul_ws no longer runs conv2d::forward (the tile)"
    if (!dw) print "matmul_at_ws no longer runs conv2d::backward_kernel (the tile)"
  }' crates/tensor/src/*.rs)
if [ -n "$engine" ]; then
  echo "a dense product left the broadcast-FMA tile, or the packed GEMM has a second caller:" >&2
  echo "$engine" >&2
  exit 1
fi

echo "==> the step outside the GEMMs (mask fill, direct loops, gradient write-back and the dense products are their oracles' arithmetic, to the bit — in release)"
cargo test --release --quiet -p swt-tensor -p swt-nn --lib -- fill_mask_is_chance_per_element small_products_match_the_strided_loop_bitwise backward_equals_zero_then_accumulate_bitwise dense_products_
# A Bernoulli draw per element through `Rng::chance` is a call, a convert and
# an unpredictable branch each; masks come from `Rng::fill_mask`.
draws=$(awk '/^(pub\(crate\) )?mod tests/ { nextfile } /rng\.chance\(/ { print FILENAME ":" FNR ": " $0 }' \
  crates/nn/src/layers/*.rs)
if [ -n "$draws" ]; then
  echo "per-element rng.chance( in a layer (fill the mask with Rng::fill_mask):" >&2
  echo "$draws" >&2
  exit 1
fi

echo "==> alloc gate (kernel and layer hot paths draw from the Workspace, not the heap)"
# The blocked driver's pack buffers, conv2d's and the pools' outputs, and every
# per-batch tensor of an swt-nn layer must come from the caller's Workspace:
# a sized `vec![x; n]`, `Vec::new`/`with_capacity`, `Tensor::zeros/ones/full`,
# `.to_vec()` or `.clone()` (other than of a `Shape`, which is inline) in one
# of these files is a hot-loop allocation. Exempt: constructors (`fn new`
# bodies), comments, everything from `mod tests` on, and lines annotated
# `alloc-gate: allow` (cold paths: oracles, checkpoint restore, buffers
# returned to the caller). A one-element `vec![dx]` — a layer's gradient
# list, a control structure — is not a sized allocation and is not flagged.
for src in crates/tensor/src/matmul.rs crates/tensor/src/bcast.rs crates/tensor/src/conv2d.rs \
    crates/tensor/src/pool.rs crates/nn/src/layers/*.rs; do
  allocs=$(awk '/^(pub\(crate\) )?mod tests/ { exit }
    /fn new\(/ { ctor = 1 }
    ctor { if (/^    }$/) ctor = 0; next }
    /^[[:space:]]*\/\// || /alloc-gate: allow/ { next }
    { line = $0; gsub(/shape(\(\))?\.clone\(\)/, "", line) }
    line ~ /vec!\[[^]]*;|Vec::(new|with_capacity)|Tensor::(zeros|ones|full)|\.to_vec\(\)|\.clone\(\)/ {
      print FILENAME ":" FNR ": " $0 }' "$src")
  if [ -n "$allocs" ]; then
    echo "heap allocation in $src hot path (annotate cold paths with 'alloc-gate: allow'):" >&2
    echo "$allocs" >&2
    exit 1
  fi
done

echo "==> global-state gate (swt-tensor unit tests must not flip process-wide switches)"
# The crate's unit tests share one multi-threaded test binary, and siblings
# assert bit equality between two calls: a test that flips the kernel or the
# thread budget for the whole process makes them fail a few runs in a hundred.
# Pin the calling thread instead (`with_kernel`, `scoped_max_threads` under
# `BUDGET_TESTS`), or put the test in its own binary under crates/tensor/tests.
for src in crates/tensor/src/*.rs; do
  flips=$(awk '/^(pub\(crate\) )?mod tests/ { tests = 1 }
    tests && /force_scalar_kernel\(|set_max_threads\(/ {
      print FILENAME ":" FNR ": " $0 }' "$src")
  if [ -n "$flips" ]; then
    echo "process-global switch flipped inside the shared swt-tensor unit-test binary:" >&2
    echo "$flips" >&2
    exit 1
  fi
done

echo "==> no-panic gate (networked code must degrade, never unwrap)"
panics=$(grep -rnE '\.unwrap\(\)|\.expect\(|panic!\(' \
  crates/dist/src crates/obs/src/serve.rs crates/obs/src/wire.rs crates/wire/src \
  crates/ckpt-server/src \
  --include='*.rs' || true)
if [ -n "$panics" ]; then
  echo "panicking call in networked code (swt-dist, swt-wire, swt-ckpt-server, live server, row codec) — degrade with errors, never panic:" >&2
  echo "$panics" >&2
  exit 1
fi

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

echo "==> one-codec gate (the byte format lives in swt-wire; protocols only declare frames)"
# A protocol file spelling bytes out itself — or probing for an optional
# tail — is a second codec beside the derived one. swt-obs's report rows
# travel too; their one hand-written impl builds on the same primitives.
bytes=$(grep -nE 'to_le_bytes|from_le_bytes|at_end\(' \
  crates/dist/src/wire.rs crates/ckpt-server/src/proto.rs crates/obs/src/wire.rs || true)
if [ -n "$bytes" ]; then
  echo "hand-written byte handling in a protocol declaration file (use the Wire impls in swt-wire):" >&2
  echo "$bytes" >&2
  exit 1
fi
# The dist frames carry the run's own types (`Candidate`, `EvalOutcome`, the
# enums in `RunSpec`), each deriving its codec beside its declaration: no
# wire-side copy of one, and no `Wire` impl written out by hand.
mirrors=$(grep -rnE 'struct Task\b|TaskResult|Code<|byte_codes!' crates/dist/src || true)
handmade=$(grep -rnE 'impl\b.*\bWire for\b' crates tests examples --include='*.rs' \
  | grep -v '^crates/wire/src/' \
  | grep -v '^crates/obs/src/wire.rs:' \
  || true)
if [ -n "$mirrors$handmade" ]; then
  echo "a wire-side mirror type or a hand-written Wire impl (derive it with wire_struct!/wire_codes! beside the type):" >&2
  printf '%s\n' "$mirrors" "$handmade" | grep . >&2
  exit 1
fi

echo "==> wire fuzz + store wire fuzz (golden bytes; every frame under truncation/bit-flips/hostile counts)"
cargo test --release --quiet -p swt-dist -p swt-ckpt-server --test fuzz_decode

echo "==> one store read (GetRaw is the wire's only read; no per-tensor frames, no fifth store)"
second=$(grep -rnE 'GetIndex|GetTensors|IndexResp|RangeRow|QuantizedStore' crates tests examples || true)
if [ -n "$second" ]; then
  echo "a deleted store read path or store implementation is named again:" >&2
  echo "$second" >&2
  exit 1
fi

echo "==> elastic smoke (late join must not change the canonical trace)"
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
./target/release/swt dist-run --app uno --scheme lcs --candidates 24 \
  --workers 2 --join-after 2 --max-workers 3 \
  --store "$elastic_dir/elastic_store" \
  --canonical-trace "$elastic_dir/elastic.csv" >/dev/null
if ! cmp -s "$elastic_dir/fixed.csv" "$elastic_dir/elastic.csv"; then
  echo "elastic smoke: canonical trace changed when a worker joined mid-run" >&2
  diff "$elastic_dir/fixed.csv" "$elastic_dir/elastic.csv" >&2 || true
  exit 1
fi

echo "==> fixed pool (a script still asking the coordinator to size its pool fails loudly)"
for sizing in "--autoscale 1:2" "--initial-workers 1"; do
  flag=${sizing%% *}
  # shellcheck disable=SC2086 # flag and value are two words on purpose
  if ./target/release/swt dist-run $sizing >/dev/null 2>"$elastic_dir/sizing.err" \
      || ! grep -q "unknown flag \`$flag\`" "$elastic_dir/sizing.err"; then
    echo "dist-run accepted $flag, or refused it without naming the unknown flag" >&2
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

echo "==> live endpoint smoke (/status answers mid-run; /metrics counters match report.json)"
# Four epochs over 64 candidates keep the run up long enough for the poller
# to catch it mid-flight (a 12-candidate one-epoch quick run finishes in
# ~100 ms).
./target/release/swt dist-run --app uno --scheme lcs --candidates 64 --epochs 4 \
  --workers 2 --store "$live_dir/store" --serve 127.0.0.1:0 \
  --report "$live_dir/report.json" > "$live_dir/out.txt" &
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

echo "OK"
