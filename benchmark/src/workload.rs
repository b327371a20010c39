//! The fixed tables: workloads, end-to-end metrics with their bounds, and
//! the per-layer metric names. `benchmark manifest` prints `BENCHMARK.json`
//! from these, so the file at the repository root cannot drift from them.

use crate::api::{AppKind, DataScale, NasConfig, TransferScheme};
use crate::json::Json;

/// Every search of the suite uses these, whatever `--seed` says: the cost of
/// a search depends on where its evolution drifts (measured: per-search wall
/// varies with a coefficient of variation of 0.2 on Uno and by 1.8x between
/// two Cifar10 suites), so a suite drawn from `--seed` cannot give a steady
/// number inside the time cap. `--seed` decides the order the searches run
/// in, which candidates the traced run replays and what the probes multiply.
pub const SUITE_SEED: u64 = 9;
pub const DATA_SEED: u64 = SUITE_SEED + 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// `ThreadPoolBackend`, `DirStore` behind the run's `CachedStore`.
    Pool,
    /// `DistBackend` worker processes, `tcp://` `swt ckpt-server` child.
    DistTcp,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: AppKind,
    pub scale: DataScale,
    pub scheme: TransferScheme,
    pub backend: Backend,
    pub candidates: usize,
    /// Wall of one search on the reference host (2 hardware threads); with
    /// `--seconds` it sizes the run: `seconds / unit_s` searches are run.
    pub unit_s: f64,
    /// A timed run repeats each search this many times and keeps the fastest
    /// wall: repeats do identical work, and host noise only ever slows one
    /// down. The suite is fixed, so repeats cost nothing in coverage, and on
    /// recorded series 6 repeats of 2 searches spread half as wide as 3 of 4.
    pub repeats: usize,
    /// Candidates replayed layer by layer, and stepped batch by batch.
    pub replay_n: usize,
    pub step_n: usize,
}

pub const WORKERS: usize = 2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "img_lcs_pool",
        why: "Cifar10 CNNs: nn and tensor kernels are over 95% of worker time, store and dispatch almost nothing",
        app: AppKind::Cifar10,
        scale: DataScale::Full,
        scheme: TransferScheme::Lcs,
        backend: Backend::Pool,
        candidates: 24,
        unit_s: 6.6,
        repeats: 3,
        replay_n: 8,
        step_n: 4,
    },
    Workload {
        name: "tab_lcs_pool",
        why: "Uno MLPs, 400 candidates of 5 ms: per-candidate fixed costs and store reads and writes get their largest in-process share",
        app: AppKind::Uno,
        scale: DataScale::Quick,
        scheme: TransferScheme::Lcs,
        backend: Backend::Pool,
        candidates: 400,
        unit_s: 1.65,
        repeats: 6,
        replay_n: 48,
        step_n: 8,
    },
    Workload {
        name: "tab_base_pool",
        why: "same searches without transfer: the store is write-only and the matcher is bypassed, so read-path and matcher work must leave it flat",
        app: AppKind::Uno,
        scale: DataScale::Quick,
        scheme: TransferScheme::Baseline,
        backend: Backend::Pool,
        candidates: 400,
        unit_s: 1.65,
        repeats: 6,
        replay_n: 48,
        step_n: 8,
    },
    Workload {
        name: "tab_lcs_dist_tcp",
        why: "tab_lcs_pool searches on 2 worker processes and a tcp checkpoint server: coordinator, wire and remote store carry the most they ever do",
        app: AppKind::Uno,
        scale: DataScale::Quick,
        scheme: TransferScheme::Lcs,
        backend: Backend::DistTcp,
        candidates: 400,
        unit_s: 2.0,
        repeats: 5,
        replay_n: 48,
        step_n: 8,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Distinct searches of the suite a run of `seconds` seconds covers: a
    /// timed run does each `repeats` times, a traced run three times over
    /// (decorated, plain, and replayed or at one worker).
    pub fn searches(&self, seconds: f64, trace: bool) -> usize {
        ((seconds / self.unit_s) as usize / if trace { 3 } else { self.repeats }).max(1)
    }

    /// Search `k` of the suite at `workers` workers.
    pub fn config(&self, k: usize, workers: usize) -> NasConfig {
        NasConfig::quick(self.scheme, self.candidates, workers, SUITE_SEED * 1000 + k as u64)
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "cand_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "top5_mean_score", unit: "score", better: "higher", bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// `(name, unit, better)` of every per-layer metric, in print order. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("nas.backend.submit_s", "s", "lower"),
    ("nas.backend.wait_s", "s", "lower"),
    ("nas.runner.self_s", "s", "lower"),
    ("nas.runner.serial_share", "ratio", "lower"),
    ("nas.backend.turnaround_p50_ms", "ms", "lower"),
    ("nas.backend.turnaround_p95_ms", "ms", "lower"),
    ("nas.backend.overhead_ms_per_cand", "ms", "lower"),
    ("nas.backend.worker_busy_share", "ratio", "higher"),
    ("nas.eval.train_s", "s", "lower"),
    ("nas.eval.transfer_s", "s", "lower"),
    ("nas.eval.save_s", "s", "lower"),
    ("nas.eval.other_s", "s", "lower"),
    ("nas.eval.ckpt_bytes", "bytes", "lower"),
    ("nas.eval.transfer_bytes", "bytes", "higher"),
    ("nas.eval.transfer_tensors", "count", "higher"),
    ("data.problem_s", "s", "lower"),
    ("space.materialize_us", "us", "lower"),
    ("nn.build_us", "us", "lower"),
    ("store.load_index_us", "us", "lower"),
    ("core.plan_us", "us", "lower"),
    ("store.load_tensors_us", "us", "lower"),
    ("core.apply_us", "us", "lower"),
    ("nn.fit_ms", "ms", "lower"),
    ("nn.state_dict_us", "us", "lower"),
    ("store.save_us", "us", "lower"),
    ("nn.step.batch_ms", "ms", "lower"),
    ("nn.step.forward_ms", "ms", "lower"),
    ("nn.step.loss_ms", "ms", "lower"),
    ("nn.step.backward_ms", "ms", "lower"),
    ("nn.step.optimizer_ms", "ms", "lower"),
    ("nn.val_eval_ms", "ms", "lower"),
    ("nn.batches_n", "count", "lower"),
    ("tensor.gemm_calls_n", "count", "lower"),
    ("tensor.gemm_256_gflops", "GFLOP/s", "higher"),
    ("tensor.conv2d_fwd_ms", "ms", "lower"),
    ("tensor.conv2d_bwd_ms", "ms", "lower"),
    ("checkpoint.cache.load_index_s", "s", "lower"),
    ("checkpoint.cache.load_index_n", "count", "lower"),
    ("checkpoint.cache.load_tensors_s", "s", "lower"),
    ("checkpoint.cache.load_tensors_n", "count", "lower"),
    ("checkpoint.cache.save_s", "s", "lower"),
    ("checkpoint.cache.save_n", "count", "lower"),
    ("checkpoint.cache.read_bytes", "bytes", "lower"),
    ("checkpoint.cache.write_bytes", "bytes", "lower"),
    ("checkpoint.dir.load_index_s", "s", "lower"),
    ("checkpoint.dir.load_index_n", "count", "lower"),
    ("checkpoint.dir.load_tensors_s", "s", "lower"),
    ("checkpoint.dir.load_tensors_n", "count", "lower"),
    ("checkpoint.dir.load_raw_s", "s", "lower"),
    ("checkpoint.dir.load_raw_n", "count", "lower"),
    ("checkpoint.dir.save_s", "s", "lower"),
    ("checkpoint.dir.save_n", "count", "lower"),
    ("checkpoint.cache.hit_share", "ratio", "higher"),
    ("checkpoint.errors_n", "count", "lower"),
    ("ckpt-server.start_s", "s", "lower"),
    ("ckpt-server.status.puts_n", "count", "lower"),
    ("ckpt-server.status.get_index_n", "count", "lower"),
    ("ckpt-server.status.get_tensors_n", "count", "lower"),
    ("ckpt-server.status.get_raw_n", "count", "lower"),
    ("ckpt-server.remote.retries_n", "count", "lower"),
    ("dist.launch_s", "s", "lower"),
    ("dist.finish_s", "s", "lower"),
    ("dist.frames_tx_n", "count", "lower"),
    ("dist.frames_rx_n", "count", "lower"),
    ("dist.heartbeats_n", "count", "lower"),
    ("dist.rtt_p50_us", "us", "lower"),
    ("dist.workers_lost_n", "count", "lower"),
    ("dist.reassigned_n", "count", "lower"),
    ("dist.cand_per_s_1w", "1/s", "higher"),
    ("dist.scale_eff_2w", "ratio", "higher"),
    ("attrib.eval_residual_share", "ratio", "lower"),
    ("attrib.replay_residual_share", "ratio", "lower"),
    ("attrib.pool_idle_share", "ratio", "lower"),
    ("obs.trace_overhead_share", "ratio", "lower"),
];

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::text(s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::text(w.name)), ("why", Json::text(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::text(m.name)),
            ("unit", Json::text(m.unit)),
            ("better", Json::text(m.better)),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::text(name)),
            ("unit", Json::text(unit)),
            ("better", Json::text(better)),
        ])
    });
    Json::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}
