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
# the bench harness console table, and the experiment driver's `main`
# (the figures return their blocks as text).
violations=$(grep -rn 'println!\|eprintln!' crates/*/src --include='*.rs' \
  | grep -v '/src/bin/' \
  | grep -v '^crates/obs/src/log.rs:' \
  | grep -v '^crates/bench/src/lib.rs:' \
  | grep -v '^crates/experiments/src/main.rs:' \
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
# `fnv1a` is for headers alone: the TOC (a few hundred bytes) and a segment
# record's (at most 303).
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
# Every store reads a checkpoint as one whole container; DirStore's read is
# one positioned read of a whole record (DESIGN.md §9). A bench binary gates
# a budget or is a record a document reads; `cargo bench` targets had
# neither. The server starts one way: `swt ckpt-server`. Cargo also finds
# targets by directory, so the directories count as well.
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

echo "==> one checkpoint layout (DirStore appends to a segment log: no temp file, no rename)"
# A save appends a record to the writer's segment; the file-per-checkpoint
# path (temp file, rename, unlink per checkpoint) was deleted, not kept as a
# fork (DESIGN.md §9 "The segment log").
per_file=$(grep -rnE 'write_atomic|TMP_SEQ|\.tmp\b|rename\(' crates/checkpoint/src || true)
if [ -n "$per_file" ]; then
  echo "the file-per-checkpoint save path is back in swt-checkpoint:" >&2
  echo "$per_file" >&2
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

echo "==> one fit per top model (its early stop is read off its curve; no wall-clock cut)"
# full_train_top_k trains each top-K model once and replays
# EarlyStop::stop_epoch, the rule Trainer::fit runs, over its validation
# curve; the top-K are a run's best scores, ties to the lower id, with no
# wall-clock cut (EXPERIMENTS.md deviation 8). TrainReport says why training
# ended in `stop` alone. table3's `early_stopped` CSV column is neither a
# field access nor a declaration, so it does not match.
refit=$(grep -rnE 'cutoff_secs|\.early_stopped\b|\bearly_stopped *:' crates tests examples || true)
if [ -n "$refit" ]; then
  echo "a deleted wall-clock cut or TrainReport.early_stopped is named again:" >&2
  echo "$refit" >&2
  exit 1
fi

echo "==> one replay of measured costs (no paper-magnitude rescaling; a failed save is an error, not a panic)"
# Fig. 10 replays each run's own trace through swt-cluster: measured costs,
# the runner's proposal rule and its measured serial section. The replay met
# its bar, within 25 % of measured walls at 1 and 2 workers (EXPERIMENTS.md
# "Decision records"); the guessed paper magnitudes it used to be rescaled to
# were deleted. A save the store refuses is returned by `Evaluator::evaluate`
# and reaches a dist coordinator as an `Error` frame. The brackets keep this
# file from matching itself.
guessed=$(grep -rnE 'paper_train_sec[s]|scale_facto[r]|expect\("checkpoint save faile[d]"\)' \
  crates tests examples scripts || true)
if [ -n "$guessed" ]; then
  echo "a paper-magnitude rescaling or the panicking checkpoint save is back:" >&2
  echo "$guessed" >&2
  exit 1
fi

echo "==> one worker snapshot (metrics ride one seq-numbered Telemetry; no second copy, no Stats frame)"
# A worker's counters, histograms, spans and gauges reach the coordinator
# as its own swt-obs RunReport, its timeline events as swt-obs's own
# TimelineEvent, in one snapshot type; the live view keeps one copy of it
# per worker (DESIGN.md §10 "Cross-process metric aggregation"). The
# timeline is one ring per process, each event taken once: no cursor read,
# no ring per worker slot, and one loss count for the trace, not one per
# worker (DESIGN.md §8.1). No program reads a report back.
mirrors=$(grep -rnE 'WorkerMetrics|CounterSnap|HistSnap|GaugeSnap|Msg::Stats|fold_metrics|SpanTotalRow|WireEvent|MAX_TELEMETRY_NAMES|drain_since|struct Drain\b' \
  crates tests examples || true)
slots=$(grep -nE 'WORKER_SLOTS|slot_for|Vec<Mutex<' crates/obs/src/timeline.rs || true)
perworker=$(grep -nE 'pub dropped_events|"dropped_events"' crates/dist/src/live.rs crates/swt/src/bin/swt.rs || true)
readback=$(grep -nE 'fn (from|read)_json' crates/obs/src/report.rs || true)
if [ -n "$mirrors$slots$perworker$readback" ]; then
  echo "a second worker-metrics path, a wire-side mirror of a report row, a cursor or per-slot timeline read, a per-worker drop count or a report read-back is back:" >&2
  printf '%s\n' "$mirrors" "$slots" "$perworker" "$readback" | grep . >&2
  exit 1
fi

echo "==> one run trace (the Chrome trace is written at run end; two live routes, no span deltas)"
# `dist-run --chrome-trace` writes the whole run's trace when it ends; a
# `/trace` route served the same document only while the process lived.
# Endpoints serve `/status` and `/metrics` from a `ServeSource` of two
# methods, and the live view keeps one report per worker, not the previous
# snapshot's spans beside it (DESIGN.md §8.3).
served=$(grep -rnE 'RegistrySource|process_trace_json|prev_spans|span_delta_secs|"/trace"[[:space:]]*(=>|\|)' \
  crates tests examples || true)
traits=$(grep -rl --include='*.rs' 'ServeSource' crates tests examples | xargs awk '
  /(trait ServeSource|impl ServeSource for)/ { match($0, /^ */); ind = RLENGTH; on = 1; next }
  on && $0 ~ ("^" sprintf("%" ind "s", "") "}") { on = 0 }
  on && /fn trace_json/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$served$traits" ]; then
  echo "a served trace, RegistrySource, or the view's second copy of a worker's spans is back:" >&2
  printf '%s\n' "$served" "$traits" | grep . >&2
  exit 1
fi

echo "==> no test hooks in the coordinator (kills and joins come from outside it)"
# One admission loop, `DistBackend::spawn_workers`, serves launch and joins;
# tests inject faults through `tests/util::Inject`, an `EvalBackend` over the
# coordinator, and kill a worker by the pid `/status` shows (DESIGN.md §10
# "Elastic joins").
hooks=$(grep -rnE 'KillPlan|JoinPlan|kill_worker_after|join_after|maybe_inject|spawn_and_admit|Unslotted|run_nas_dist_with_stats' \
  crates tests examples || true)
if [ -n "$hooks" ]; then
  echo "a fault or join hook, the launch-only admission loop or a second dist entry point is named again:" >&2
  echo "$hooks" >&2
  exit 1
fi

echo "==> one evaluator constructor (Evaluator::new over one EvalSpec; one store spelling, no clamped counts)"
# Both backends build evaluators through `Evaluator::new(problem, space,
# store, &EvalSpec)`, from the spec `NasConfig::eval_spec` copies out of the
# config; a dist worker gets it as `RunSpec.eval`, its store as the one
# `RunSpec.store` string, and its counts as `NonZeroU32`s that decode 0 as
# malformed, so nothing clamps them (DESIGN.md §10 "Backend split").
second=$(grep -rnE 'with_namespace|threads\.max\(1\)' crates tests examples || true)
allows=$(grep -rn 'too_many_arguments' crates/nas || true)
pair=$(grep -nE 'store_dir|store_url' crates/dist/src/wire.rs || true)
literals=$(grep -rnE '(^|[^[:alnum:]_])Evaluator \{' crates tests examples --include='*.rs' \
  | grep -vE '(struct|impl) Evaluator \{' || true)
if [ "$(printf '%s' "$literals" | grep -c .)" -le 1 ]; then literals=""; fi
if [ -n "$second$allows$pair$literals" ]; then
  echo "a second evaluator construction path, a clamped count or the store_dir/store_url pair is back:" >&2
  printf '%s\n' "$second" "$allows" "$pair" "$literals" | grep . >&2
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

echo "==> no process-wide switch (thread budgets are per thread, the scalar kernel is an env var, logs go to stderr)"
# swt-tensor's thread budget belongs to the thread that runs the kernels
# (`scoped_max_threads`), the portable kernel is pinned by
# SWT_FORCE_SCALAR_KERNEL alone, and the JSONL log sink is gone, so no test
# needs a lock or a binary of its own to flip one of them.
switches=$(grep -rnE 'set_max_threads|force_scalar_kernel|\bFORCE_SCALAR\b|BUDGET_TESTS|\bMAX_THREADS\b|set_jsonl_path|SWT_LOG_JSON' \
  crates tests examples || true)
if [ -n "$switches" ]; then
  echo "a deleted process-wide switch or its test lock is named again:" >&2
  echo "$switches" >&2
  exit 1
fi

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

echo "==> one experiment driver (each figure is a function; no per-figure binary, report or trace_stats)"
# Every table and figure runs through `swt-experiments <figure|all|docs>`
# (DESIGN.md §4): `docs` replaced `report`, and `trace_stats` fed no
# section. Cargo finds binaries by directory as well as by stanza.
bin_dir=$(find crates/experiments/src/bin crates/experiments/src/bin.rs 2>/dev/null || true)
stanzas=$(grep -Hn '\[\[bin\]\]' crates/experiments/Cargo.toml || true)
gone=$(grep -rnE 'trace_stats|"report"|fn report\b' crates/experiments || true)
if [ -n "$bin_dir$stanzas$gone" ]; then
  echo "a per-figure binary, a [[bin]] stanza, report or trace_stats is back in swt-experiments:" >&2
  printf '%s\n' "$bin_dir" "$stanzas" "$gone" | grep . >&2
  exit 1
fi

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
