//! The traced run: the same searches behind the benchmark's decorators with
//! the program's counters on, then a sample of their candidates replayed
//! layer by layer and batch by batch with a clock between the public calls
//! `Evaluator::evaluate` and `Trainer::fit` make, then fixed-shape kernel
//! probes. End-to-end numbers never come from here.

use crate::api::{
    apply_transfer, candidate_seed, conv2d_backward, conv2d_forward, counter, histogram_p50,
    http_get, matmul, obs_enable, scoped_max_threads, Adam, AdamConfig, CheckpointStore, Model,
    NasTrace, Padding, ShapeSeq, Tensor, TrainConfig, Trainer, TransferPlan,
};
use crate::json::Json;
use crate::run::{check_golden, top5_mean, Env, Metric, Opts, SplitMix, Tally, Traced};
use crate::stats::{median, percentile};
use crate::timed::{OpStat, StoreStats};
use crate::workload::{Backend, PER_LAYER, WORKERS};
use std::collections::HashMap;
use std::time::Instant;

/// Exported counters the traced run reports as differences over its searches.
const COUNTERS: [&str; 9] = [
    "tensor.gemm.blocked.simd",
    "tensor.gemm.blocked.scalar",
    "tensor.gemm.small",
    "nn.batches_trained",
    "ckpt.cache.hits",
    "ckpt.cache.misses",
    "dist.frames_tx",
    "dist.frames_rx",
    "dist.heartbeats",
];

fn counters() -> HashMap<&'static str, u64> {
    COUNTERS.iter().map(|name| (*name, counter(name))).collect()
}

/// Batches stepped by hand per candidate of the step replay.
const STEP_BATCHES: usize = 20;

/// Largest-FLOP convolution of the Cifar10 space's first block at batch 64:
/// its second conv at 24 filters in, 24 out, 'same' padding on 12x12.
const CONV_PROBE_INPUT: [usize; 4] = [64, 12, 12, 24];
const CONV_PROBE_KERNEL: [usize; 4] = [3, 3, 24, 24];

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Time one call.
fn clock<T>(into: &mut Vec<f64>, call: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = call();
    into.push(secs(t0));
    out
}

#[derive(Default)]
struct Replay {
    materialize: Vec<f64>,
    build: Vec<f64>,
    load_index: Vec<f64>,
    plan: Vec<f64>,
    load_tensors: Vec<f64>,
    apply: Vec<f64>,
    fit: Vec<f64>,
    state_dict: Vec<f64>,
    save: Vec<f64>,
    /// Whole replay of each candidate, and what the trace says it took.
    total_s: f64,
    traced_s: f64,
}

/// Replay candidates `ids` of `trace` against the store the search left,
/// single-threaded, through the calls `Evaluator::evaluate` makes. The score
/// must come out bit-equal: that is what makes this the same computation.
fn replay(
    env: &Env,
    store: &dyn CheckpointStore,
    ns: &str,
    trace: &NasTrace,
    ids: &[usize],
    tally: &mut Tally,
) -> Result<Replay, String> {
    let w = env.workload;
    let cfg = w.config(0, WORKERS);
    let problem = &env.problem;
    let trainer = Trainer::new(problem.loss, problem.metric);
    let mut r = Replay::default();
    for &id in ids {
        let event = &trace.events[id];
        let t_all = Instant::now();
        let seed = candidate_seed(cfg.seed, event.id);
        let spec = clock(&mut r.materialize, || env.space.materialize(&event.arch))
            .map_err(|e| format!("replay {id}: {e}"))?;
        let mut model = clock(&mut r.build, || Model::build(&spec, seed))
            .map_err(|e| format!("replay {id}: {e}"))?;
        if let (Some(matcher), Some(parent)) = (w.scheme.matcher(), event.parent) {
            let parent_id = format!("{ns}c{parent}");
            let index = clock(&mut r.load_index, || store.load_index(&parent_id))
                .map_err(|e| format!("replay {id}: index of {parent_id}: {e}"))?;
            let plan = clock(&mut r.plan, || {
                let provider = ShapeSeq::from_checkpoint_index(&index);
                let receiver = ShapeSeq::of(&spec).expect("spec was materialised");
                TransferPlan::build(matcher, &provider, &receiver)
            });
            if !plan.is_empty() {
                let names = plan.provider_names();
                let tensors = clock(&mut r.load_tensors, || store.load_tensors(&parent_id, &names))
                    .map_err(|e| format!("replay {id}: tensors of {parent_id}: {e}"))?;
                let moved = clock(&mut r.apply, || apply_transfer(&plan, &tensors, &mut model));
                tally.check(moved.tensors == event.transfer_tensors, || {
                    format!(
                        "replay {id}: moved {} tensors, the trace says {}",
                        moved.tensors, event.transfer_tensors
                    )
                });
            }
        }
        let train = TrainConfig {
            epochs: cfg.epochs,
            batch_size: problem.batch_size,
            adam: AdamConfig { lr: problem.lr, ..Default::default() },
            shuffle_seed: seed ^ 0x5EED,
            early_stop: None,
            convergence: None,
        };
        let report =
            clock(&mut r.fit, || trainer.fit(&mut model, &problem.train, &problem.val, &train));
        tally.attempted += 1;
        if report.final_metric.to_bits() != event.score.to_bits() {
            tally.failed += 1;
            tally.failures.push(format!(
                "replay {id}: score {} is not the trace's {}",
                report.final_metric, event.score
            ));
        }
        let state = clock(&mut r.state_dict, || model.state_dict());
        let scratch_id = format!("{ns}replay{id}");
        clock(&mut r.save, || store.save(&scratch_id, &state))
            .map_err(|e| format!("replay {id}: save: {e}"))?;
        r.total_s += secs(t_all);
        r.traced_s += event.t_end - event.t_start;
        store.delete(&scratch_id);
    }
    Ok(r)
}

#[derive(Default)]
struct Steps {
    batch: Vec<f64>,
    forward: Vec<f64>,
    loss: Vec<f64>,
    backward: Vec<f64>,
    optimizer: Vec<f64>,
    val_eval: Vec<f64>,
}

/// The body of `Trainer::fit`'s batch loop, by hand, a clock between calls.
fn steps(env: &Env, trace: &NasTrace, ids: &[usize]) -> Result<Steps, String> {
    let problem = &env.problem;
    let cfg = env.workload.config(0, WORKERS);
    let trainer = Trainer::new(problem.loss, problem.metric);
    let batches = problem.train.batch_indices(problem.batch_size, None);
    let mut s = Steps::default();
    for &id in ids {
        let event = &trace.events[id];
        let spec =
            env.space.materialize(&event.arch).map_err(|e| format!("step replay {id}: {e}"))?;
        let mut model = Model::build(&spec, candidate_seed(cfg.seed, event.id))
            .map_err(|e| format!("step replay {id}: {e}"))?;
        let mut adam = Adam::new(AdamConfig { lr: problem.lr, ..Default::default() });
        for idx in batches.iter().cycle().take(STEP_BATCHES) {
            let (inputs, targets) =
                clock(&mut s.batch, || problem.train.batch_ws(idx, model.workspace_mut()));
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let pred = clock(&mut s.forward, || model.forward(&refs, true));
            let (_, grad) = clock(&mut s.loss, || {
                problem.loss.forward_backward_ws(&pred, &targets, model.workspace_mut())
            });
            clock(&mut s.backward, || {
                model.zero_grads();
                model.backward(&grad);
            });
            clock(&mut s.optimizer, || adam.step(&mut model));
            for t in inputs {
                model.recycle(t);
            }
            model.recycle(targets);
            model.recycle(pred);
            model.recycle(grad);
        }
        clock(&mut s.val_eval, || trainer.evaluate(&mut model, &problem.val, problem.batch_size));
    }
    Ok(s)
}

fn filled(shape: &[usize], rng: &mut SplitMix) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| (rng.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0).collect();
    Tensor::from_vec(shape, data)
}

/// `(gemm_256_gflops, conv2d_fwd_ms, conv2d_bwd_ms)`, medians on one thread.
fn probes(seed: u64) -> (f64, f64, f64) {
    let mut rng = SplitMix(seed);
    let a = filled(&[256, 256], &mut rng);
    let b = filled(&[256, 256], &mut rng);
    let mut gemm = Vec::new();
    for _ in 0..40 {
        std::hint::black_box(clock(&mut gemm, || matmul(&a, &b)));
    }
    let input = filled(&CONV_PROBE_INPUT, &mut rng);
    let kernel = filled(&CONV_PROBE_KERNEL, &mut rng);
    let dout = filled(&CONV_PROBE_INPUT, &mut rng);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..12 {
        std::hint::black_box(clock(&mut fwd, || conv2d_forward(&input, &kernel, Padding::Same)));
        std::hint::black_box(clock(&mut bwd, || {
            conv2d_backward(&input, &kernel, &dout, Padding::Same)
        }));
    }
    // The first calls warm the thread's workspace; the median ignores them.
    (2.0 * 256f64.powi(3) / median(&gemm) / 1e9, median(&fwd) * 1e3, median(&bwd) * 1e3)
}

/// The ckpt-server's own `puts`, `gets_index`, `gets_tensors` and `gets_raw` counters,
/// read from its `/metrics` text; zeros on workloads without a server.
fn server_counters(env: &Env) -> Result<[f64; 4], String> {
    let Some(addr) = env.server.as_ref().and_then(|s| s.metrics_addr.as_ref()) else {
        return Ok([0.0; 4]);
    };
    let text = http_get(addr, "/metrics").map_err(|e| format!("ckpt-server /metrics: {e}"))?;
    Ok(["ckptsrv.puts", "ckptsrv.gets_index", "ckptsrv.gets_tensors", "ckptsrv.gets_raw"].map(
        |name| {
            let key = format!("swt_counter{{name=\"{name}\"}} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        },
    ))
}

#[allow(clippy::too_many_arguments)]
pub fn traced_run(
    opts: &Opts,
    env: &Env,
    searches: usize,
    tally: &mut Tally,
    detail: &mut Vec<(String, Json)>,
    problem_s: f64,
    server_s: f64,
) -> Result<Vec<Metric>, String> {
    let w = opts.workload;
    let dist = w.backend == Backend::DistTcp;
    let mut m: HashMap<String, f64> = HashMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    // 1. Every search twice: behind the decorators with the program's
    // counters on, and plain. The two must compute the same thing, and the
    // difference in wall is what looking costs. Which goes first alternates,
    // so that neither side always runs on the warmer process.
    let before = counters();
    let mut traced: Vec<Traced> = Vec::with_capacity(searches);
    let mut csvs: Vec<String> = Vec::with_capacity(searches);
    let mut plain_wall = 0.0;
    let mut server_ops = [0.0; 4];
    for k in 0..searches {
        let mut plain_csv = None;
        for traced_turn in [k % 2 == 0, k % 2 != 0] {
            if traced_turn {
                obs_enable(true);
                let server_before = server_counters(env)?;
                let tag = format!("t{k}");
                let t = env.traced(k, &tag)?;
                for (sum, (b, a)) in
                    server_ops.iter_mut().zip(server_before.iter().zip(server_counters(env)?))
                {
                    *sum += a - b;
                }
                obs_enable(false);
                tally.search(&format!("traced search {k}"), &t.search, w.candidates);
                tally.failed += t.backend.duplicates;
                tally.check(t.backend.duplicates == 0, || {
                    format!("traced search {k}: {} duplicate results", t.backend.duplicates)
                });
                if k > 0 {
                    env.cleanup(&tag); // search 0's checkpoints stay for the replay
                }
                csvs.push(t.search.trace.canonical_csv());
                traced.push(t);
            } else {
                let tag = format!("p{k}");
                let plain = env.plain(k, WORKERS, &tag)?;
                env.cleanup(&tag);
                tally.search(&format!("plain search {k}"), &plain, w.candidates);
                plain_wall += plain.wall_s;
                plain_csv = Some(plain.trace.canonical_csv());
            }
        }
        tally.check(plain_csv.as_ref() == Some(&csvs[k]), || {
            format!("search {k}: traced and plain runs differ in their canonical trace")
        });
    }
    let after = counters();
    let delta = |name: &str| (after[name] - before[name]) as f64;
    let rtt_p50_ns = histogram_p50("dist.rtt_ns.");
    check_golden(tally, w, &csvs);
    let traced_wall: f64 = traced.iter().map(|t| t.search.wall_s).sum();
    put("obs.trace_overhead_share", traced_wall / plain_wall - 1.0);

    if dist {
        // 3. The plain single-worker baseline, for scaling efficiency.
        let mut wall_1w = 0.0;
        for k in 0..searches {
            let tag = format!("w{k}");
            let one = env.plain(k, 1, &tag)?;
            env.cleanup(&tag);
            tally.search(&format!("1-worker search {k}"), &one, w.candidates);
            wall_1w += one.wall_s;
        }
        let cands = (searches * w.candidates) as f64;
        put("dist.cand_per_s_1w", cands / wall_1w);
        put("dist.scale_eff_2w", (cands / plain_wall) / (2.0 * cands / wall_1w));
        // 4. Same config on the thread pool and a DirStore: the determinism
        // contract says the canonical trace is the same bytes.
        let reference = env.pool_plain(&w.config(0, WORKERS), "ref")?;
        tally.search("in-process reference search 0", &reference, w.candidates);
        tally.check(reference.trace.canonical_csv() == csvs[0], || {
            "search 0: DistBackend over tcp and ThreadPoolBackend over DirStore differ in their canonical trace".into()
        });
    }

    // 5. nas: what the decorators and the trace events say.
    let loop_s: f64 = traced.iter().map(|t| t.loop_s).sum();
    let submit_s: f64 = traced.iter().map(|t| t.backend.submit_s).sum();
    let wait_s: f64 = traced.iter().map(|t| t.backend.wait_s).sum();
    let self_s = loop_s - submit_s - wait_s;
    let mut turnaround = Vec::new();
    let mut overhead = Vec::new();
    for t in &traced {
        for (id, secs) in &t.backend.turnaround {
            let e = &t.search.trace.events[*id as usize];
            turnaround.push(*secs);
            overhead.push(secs - (e.t_end - e.t_start));
        }
    }
    let events = || traced.iter().flat_map(|t| t.search.trace.events.iter());
    let busy: f64 = events().map(|e| e.t_end - e.t_start).sum();
    let train: f64 = events().map(|e| e.train_secs).sum();
    let transfer: f64 = events().map(|e| e.transfer_secs).sum();
    let save: f64 = events().map(|e| e.save_secs).sum();
    let other = busy - train - transfer - save;
    let n_events = events().count() as f64;
    put("nas.backend.submit_s", submit_s);
    put("nas.backend.wait_s", wait_s);
    put("nas.runner.self_s", self_s);
    put("nas.runner.serial_share", (submit_s + self_s) / loop_s);
    put("nas.backend.turnaround_p50_ms", median(&turnaround) * 1e3);
    put("nas.backend.turnaround_p95_ms", percentile(&turnaround, 0.95) * 1e3);
    put("nas.backend.overhead_ms_per_cand", overhead.iter().sum::<f64>() / n_events * 1e3);
    put("nas.backend.worker_busy_share", busy / (WORKERS as f64 * loop_s));
    put("nas.eval.train_s", train);
    put("nas.eval.transfer_s", transfer);
    put("nas.eval.save_s", save);
    put("nas.eval.other_s", other);
    put("nas.eval.ckpt_bytes", events().map(|e| e.checkpoint_bytes as f64).sum());
    put("nas.eval.transfer_bytes", events().map(|e| e.transfer_bytes as f64).sum());
    put("nas.eval.transfer_tensors", events().map(|e| e.transfer_tensors as f64).sum());
    put("attrib.pool_idle_share", 1.0 - turnaround.iter().sum::<f64>() / (WORKERS as f64 * loop_s));
    put("data.problem_s", problem_s);
    put("nn.batches_n", delta("nn.batches_trained"));
    put(
        "tensor.gemm_calls_n",
        delta("tensor.gemm.blocked.simd")
            + delta("tensor.gemm.blocked.scalar")
            + delta("tensor.gemm.small"),
    );

    // 6. checkpoint: the two TimedStore levels (pool workloads).
    type Op = fn(&StoreStats) -> &OpStat;
    let (load_index, load_tensors, load_raw, save): (Op, Op, Op, Op) =
        (|s| &s.load_index, |s| &s.load_tensors, |s| &s.load_raw, |s| &s.save);
    let cache: Vec<&StoreStats> = traced.iter().filter_map(|t| t.cache.as_deref()).collect();
    let dir: Vec<&StoreStats> = traced.iter().filter_map(|t| t.dir.as_deref()).collect();
    for (level, stats, ops) in [
        (
            "cache",
            &cache,
            &[("load_index", load_index), ("load_tensors", load_tensors), ("save", save)][..],
        ),
        (
            "dir",
            &dir,
            &[
                ("load_index", load_index),
                ("load_tensors", load_tensors),
                ("load_raw", load_raw),
                ("save", save),
            ][..],
        ),
    ] {
        for (name, op) in ops {
            put(&format!("checkpoint.{level}.{name}_s"), stats.iter().map(|s| op(s).secs()).sum());
            put(
                &format!("checkpoint.{level}.{name}_n"),
                stats.iter().map(|s| op(s).calls() as f64).sum(),
            );
        }
    }
    put("checkpoint.cache.read_bytes", cache.iter().map(|s| s.read_bytes() as f64).sum());
    put("checkpoint.cache.write_bytes", cache.iter().map(|s| s.write_bytes() as f64).sum());
    let errors: u64 = cache.iter().chain(&dir).map(|s| s.errors()).sum();
    let cache_reads: u64 = cache.iter().map(|s| s.reads()).sum();
    let dir_reads: u64 = dir.iter().map(|s| s.reads()).sum();
    tally.attempted += cache_reads + dir_reads;
    tally.failed += errors;
    tally.check(errors == 0, || format!("{errors} store calls returned an error"));
    put("checkpoint.errors_n", errors as f64);
    if cache_reads > 0 {
        let hit_share = 1.0 - dir_reads as f64 / cache_reads as f64;
        put("checkpoint.cache.hit_share", hit_share);
        // The cache's own counters must tell the same story: a hit is a
        // read the directory never saw.
        let (hits, misses) = (delta("ckpt.cache.hits"), delta("ckpt.cache.misses"));
        tally.check(misses == dir_reads as f64 && hits + misses == cache_reads as f64, || {
            format!(
                "ckpt.cache counters ({hits} hits, {misses} misses) disagree with the decorators \
                 ({cache_reads} cache reads, {dir_reads} directory reads)"
            )
        });
    }

    // 7. ckpt-server and dist (the dist workload).
    if dist {
        put("ckpt-server.start_s", server_s);
        put("ckpt-server.status.puts_n", server_ops[0]);
        put("ckpt-server.status.get_index_n", server_ops[1]);
        put("ckpt-server.status.get_tensors_n", server_ops[2]);
        put("ckpt-server.status.get_raw_n", server_ops[3]);
        put("ckpt-server.remote.retries_n", counter("ckptsrv.client.retries") as f64);
        put("dist.launch_s", traced.iter().map(|t| t.launch_s).sum());
        put("dist.finish_s", traced.iter().map(|t| t.finish_s).sum());
        put("dist.frames_tx_n", delta("dist.frames_tx"));
        put("dist.frames_rx_n", delta("dist.frames_rx"));
        put("dist.heartbeats_n", delta("dist.heartbeats"));
        put("dist.rtt_p50_us", rtt_p50_ns as f64 / 1e3);
        put("dist.workers_lost_n", traced.iter().map(|t| t.search.lost as f64).sum());
        put("dist.reassigned_n", traced.iter().map(|t| t.search.reassigned as f64).sum());
    }

    // 8. Candidate replay and step replay on search 0, one thread.
    let _one_thread = scoped_max_threads(1);
    let trace0 = &traced[0].search.trace;
    let mut ids: Vec<usize> = (0..trace0.events.len()).collect();
    SplitMix(opts.seed).shuffle(&mut ids);
    let ns = if dist { "t0" } else { "" };
    let store = env.store("t0")?;
    let replay_ids = &ids[..w.replay_n.min(ids.len())];
    let r = replay(env, &*store, ns, trace0, replay_ids, tally)?;
    drop(store);
    env.cleanup("t0");
    let s = steps(env, trace0, &ids[..w.step_n.min(ids.len())])?;
    let us = |v: &[f64]| median(v) * 1e6;
    let ms = |v: &[f64]| median(v) * 1e3;
    put("space.materialize_us", us(&r.materialize));
    put("nn.build_us", us(&r.build));
    put("store.load_index_us", us(&r.load_index));
    put("core.plan_us", us(&r.plan));
    put("store.load_tensors_us", us(&r.load_tensors));
    put("core.apply_us", us(&r.apply));
    put("nn.fit_ms", ms(&r.fit));
    put("nn.state_dict_us", us(&r.state_dict));
    put("store.save_us", us(&r.save));
    put("nn.step.batch_ms", ms(&s.batch));
    put("nn.step.forward_ms", ms(&s.forward));
    put("nn.step.loss_ms", ms(&s.loss));
    put("nn.step.backward_ms", ms(&s.backward));
    put("nn.step.optimizer_ms", ms(&s.optimizer));
    put("nn.val_eval_ms", ms(&s.val_eval));
    put("attrib.replay_residual_share", (r.total_s - r.traced_s).abs() / r.traced_s);
    // What train + transfer + save leave of a worker's busy time should be
    // materialise + build; the rest is unexplained.
    let explained = n_events * (median(&r.materialize) + median(&r.build));
    put("attrib.eval_residual_share", (other - explained).abs() / busy);

    // 9. Fixed-shape kernel probes.
    let (gflops, conv_fwd_ms, conv_bwd_ms) = probes(opts.seed);
    put("tensor.gemm_256_gflops", gflops);
    put("tensor.conv2d_fwd_ms", conv_fwd_ms);
    put("tensor.conv2d_bwd_ms", conv_bwd_ms);

    for name in [
        "attrib.eval_residual_share",
        "attrib.replay_residual_share",
        "attrib.pool_idle_share",
        "obs.trace_overhead_share",
    ] {
        if m[name] > 0.10 {
            tally.warnings.push(format!("{name} is {:.3}, above 0.10", m[name]));
        }
    }
    detail.push(("replay_sample".into(), Json::Num(replay_ids.len() as f64)));
    detail.push(("replay_with_transfer".into(), Json::Num(r.load_index.len() as f64)));
    detail.push(("step_sample".into(), Json::Num(w.step_n as f64)));
    detail.push(("step_batches".into(), Json::Num(STEP_BATCHES as f64)));
    detail.push(("turnaround_samples".into(), Json::Num(turnaround.len() as f64)));
    detail.push((
        "top5_mean_score".into(),
        Json::Num(traced.iter().map(|t| top5_mean(&t.search.trace)).sum::<f64>() / searches as f64),
    ));
    detail.push((
        "traced_search_walls_s".into(),
        Json::Arr(traced.iter().map(|t| Json::Num(t.search.wall_s)).collect()),
    ));

    if let Some(stray) = m.keys().find(|k| !PER_LAYER.iter().any(|(n, _, _)| n == k)) {
        return Err(format!("internal: {stray} is not in the per-layer table"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|(name, unit, _)| Metric {
            name: name.to_string(),
            // An empty f64 sum is -0.0; adding 0.0 prints it as 0.
            value: m.get(*name).copied().unwrap_or(0.0) + 0.0,
            unit: unit.to_string(),
        })
        .collect())
}
