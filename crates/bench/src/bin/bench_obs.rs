//! Observability overhead benchmark, emitting `BENCH_obs.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_obs [--smoke] [out.json]`
//!
//! Answers one question: what does the swt-obs instrumentation cost when it
//! is *disabled* (the library default)? The disabled fast path is a relaxed
//! atomic load per call site, so an A/B wall-clock comparison of a training
//! run would drown in scheduler noise. Instead this bench
//!
//! 1. measures the per-op cost of the disabled (and, for reference, enabled)
//!    span and counter fast paths,
//! 2. times the real training hot path — one epoch of candidate estimation,
//!    instrumentation disabled,
//! 3. counts how many instrumentation ops that epoch actually executes, by
//!    re-running it once with swt-obs enabled and reading the run report,
//! 4. derives `overhead = ops * per_op_cost / epoch_time` and exits non-zero
//!    if it reaches 2% (the acceptance budget from DESIGN.md section 8).
//!
//! The op count is deliberately conservative: every counter's *value* is
//! treated as one op even where a single `add(n)` produced it, so the
//! reported percentage is an upper bound.
//!
//! `--smoke` writes the JSON to a temp directory instead of the repository
//! root so CI checks do not dirty the tree.

use std::hint::black_box;
use swt::nn::AdamConfig;
use swt::prelude::*;
use swt_bench::Harness;

/// Ops per timed iteration of the per-op benches; one disabled op is ~1 ns,
/// far below timer resolution.
const LOOP: usize = 4096;

fn main() {
    let mut smoke = false;
    let mut out_arg = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_arg = Some(arg);
        }
    }
    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join("BENCH_obs.json").to_string_lossy().into_owned()
        } else {
            "BENCH_obs.json".to_string()
        }
    });
    // Fail on an unwritable path now, not after the measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Single-threaded so per-op and hot-path numbers share one core's clock.
    let _one_thread = swt::tensor::parallel::scoped_max_threads(1);

    let mut h = Harness::new();

    // --- 1. per-op costs --------------------------------------------------
    swt::obs::disable();
    h.bench(&format!("obs.span.disabled.x{LOOP}"), || {
        for _ in 0..LOOP {
            let g = swt::obs::span!("bench.obs.span");
            black_box(&g);
        }
    });
    h.bench(&format!("obs.counter.disabled.x{LOOP}"), || {
        for _ in 0..LOOP {
            swt::obs::counter!("bench.obs.counter").add(1);
        }
    });
    swt::obs::enable();
    h.bench(&format!("obs.span.enabled.x{LOOP}"), || {
        for _ in 0..LOOP {
            let g = swt::obs::span!("bench.obs.span");
            black_box(&g);
        }
    });
    h.bench(&format!("obs.counter.enabled.x{LOOP}"), || {
        for _ in 0..LOOP {
            swt::obs::counter!("bench.obs.counter").add(1);
        }
    });
    swt::obs::disable();
    swt::obs::reset();

    // --- 2. the training hot path, instrumentation disabled ---------------
    let problem = AppKind::Uno.problem(DataScale::Quick, 5);
    let space = SearchSpace::for_app(AppKind::Uno);
    let mut rng = Rng::seed(11);
    let spec = space.materialize(&space.sample(&mut rng)).unwrap();
    let trainer = Trainer::new(problem.loss, problem.metric);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: problem.batch_size,
        adam: AdamConfig { lr: problem.lr, ..Default::default() },
        shuffle_seed: 3,
        early_stop: None,
        convergence: None,
    };
    h.bench_with_setup(
        "obs.train.one_epoch.disabled",
        || Model::build(&spec, 7).unwrap(),
        |mut model| {
            black_box(trainer.fit(&mut model, &problem.train, &problem.val, &cfg));
        },
    );
    swt::obs::enable();
    h.bench_with_setup(
        "obs.train.one_epoch.enabled",
        || Model::build(&spec, 7).unwrap(),
        |mut model| {
            black_box(trainer.fit(&mut model, &problem.train, &problem.val, &cfg));
        },
    );

    // --- 3. ops executed by one epoch --------------------------------------
    swt::obs::reset();
    let mut model = Model::build(&spec, 7).unwrap();
    trainer.fit(&mut model, &problem.train, &problem.val, &cfg);
    let report = RunReport::capture();
    swt::obs::disable();
    swt::obs::reset();
    let span_ops: u64 = report.spans.iter().map(|s| s.count).sum();
    // Upper bound: counter values count `add(n)` as n ops. A histogram
    // observation (the per-layer-kind step timers) is one more such op.
    let counter_ops: u64 = report.counters.iter().map(|c| c.value).sum::<u64>()
        + report.histograms.iter().map(|h| h.count).sum::<u64>();
    let batches = report.counter("nn.batches_trained").max(1);

    // --- 4. derived overhead ------------------------------------------------
    let span_ns = h.get(&format!("obs.span.disabled.x{LOOP}")).unwrap() / LOOP as f64;
    let counter_ns = h.get(&format!("obs.counter.disabled.x{LOOP}")).unwrap() / LOOP as f64;
    let epoch_ns = h.get("obs.train.one_epoch.disabled").unwrap();
    let overhead_ns = span_ops as f64 * span_ns + counter_ops as f64 * counter_ns;
    let overhead_pct = 100.0 * overhead_ns / epoch_ns;

    println!();
    println!("disabled span:    {span_ns:.2} ns/op   counter: {counter_ns:.2} ns/op");
    println!(
        "one training epoch ({batches} batches): {:.2} ms, {span_ops} span ops + \
         {counter_ops} counter ops (upper bound)",
        epoch_ns / 1e6
    );
    println!(
        "disabled-instrumentation overhead: {overhead_pct:.4}% of the epoch \
         ({:.1} ns per batch)",
        overhead_ns / batches as f64
    );

    let meta = [
        ("bench", "obs".to_string()),
        ("threads", "1".to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("span_ops_per_epoch", span_ops.to_string()),
        ("counter_ops_per_epoch", counter_ops.to_string()),
        ("disabled_overhead_pct", format!("{overhead_pct:.4}")),
    ];
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");

    if overhead_pct >= 2.0 {
        eprintln!("FAIL: disabled-instrumentation overhead {overhead_pct:.4}% >= 2%");
        std::process::exit(1);
    }
    println!("PASS: disabled-instrumentation overhead {overhead_pct:.4}% < 2%");
}
