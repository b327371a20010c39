//! `swt-dist`: multi-process NAS execution (the paper's §IV cluster shape).
//!
//! The paper runs two-phase NAS on a DeepHyper/Ray coordinator–worker
//! cluster whose evaluators share checkpoints through a parallel file
//! system. This crate reproduces that topology with std only: a
//! *coordinator* process runs the search-strategy loop (the generic
//! `swt_nas::run_nas_with_backend`) and dispatches candidates to *worker*
//! processes over a length-prefixed binary protocol on localhost TCP;
//! workers evaluate candidates and share one `DirStore` on disk — the
//! parallel-file-system stand-in.
//!
//! Everything is built for reproducibility under failure (Li & Talwalkar's
//! requirement for distributed NAS): the runner's deterministic dispatch
//! window plus per-candidate seeding makes distributed runs — even runs
//! where workers are SIGKILLed mid-flight — bit-identical to the
//! single-process thread pool. See DESIGN.md §10 for the failure model
//! and §14 for the protocol.
//!
//! Modules: [`frame`] (framing + errors), [`wire`] (typed messages),
//! [`coordinator`] ([`DistBackend`]), [`worker`] (the `swt dist-worker`
//! loop), [`spawn`] (child-process management), [`live`] (the one copy of
//! each worker's snapshot: the in-flight run view behind `swt dist-run
//! --serve` and the source of the run's worker totals), [`policy`] (the
//! autoscaling decision function behind `--autoscale`).

pub mod coordinator;
pub mod frame;
pub mod live;
pub mod policy;
pub mod spawn;
pub mod wire;
pub mod worker;

pub use coordinator::DistBackend;
pub use frame::{WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use live::{LiveRunView, WorkerView, CACHE_COUNTER_KINDS};
pub use policy::{
    PolicyConfig, PolicyError, PoolSnapshot, ScaleDecision, ScalePolicy, MAX_POOL_WORKERS,
};
pub use wire::{Msg, RunSpec, Telemetry};
pub use worker::worker_main;

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use swt_data::{AppKind, DataScale};
use swt_nas::runner::NasConfig;
use swt_nas::trace::NasTrace;
use swt_obs::RunReport;
use swt_space::SearchSpace;

/// Fault injection: SIGKILL `worker` once `after_results` results have been
/// delivered to the strategy. Behind `swt dist-run --kill-after` and the
/// integration tests, to exercise the reassignment path deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillPlan {
    pub worker: usize,
    pub after_results: usize,
}

/// Elastic scale-out injection: once `after_results` results have been
/// delivered to the strategy, spawn `count` extra worker processes and block
/// until the coordinator has admitted (or, at `max_workers`, rejected) every
/// one of them. Blocking makes the join visible at a deterministic point in
/// the schedule, which the test matrix and the CI smoke gate rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    pub after_results: usize,
    pub count: usize,
}

/// Per-run statistics the coordinator hands back from
/// [`DistBackend::finish`]: each worker process's counters and histograms
/// from its last applied snapshot, read from the run's [`LiveRunView`],
/// plus the elasticity/failure tallies for this run. Instance-local on
/// purpose — tests assert conservation on these without diffing the
/// process-global registry.
#[derive(Debug, Clone, Default)]
pub struct DistRunStats {
    /// `(worker slot, counters and histograms)` for every worker that
    /// delivered a snapshot ([`LiveRunView::worker_reports`]).
    pub per_worker: Vec<(usize, RunReport)>,
    /// Workers admitted after launch (late `Hello`s).
    pub joined: usize,
    /// Join attempts refused because the pool was at `max_workers`.
    pub rejected: usize,
    /// Workers declared lost (crash or heartbeat timeout).
    pub lost: usize,
    /// Candidates reassigned off lost workers.
    pub reassigned: usize,
    /// Workers spawned by autoscale grow decisions.
    pub grown: usize,
    /// Workers drained out of the pool by autoscale shrink decisions.
    pub retired: usize,
}

impl DistRunStats {
    /// Merge every worker's report into one counters/histograms-only
    /// [`RunReport`] — the cross-process half of the run's totals.
    pub fn workers_report(&self) -> RunReport {
        let mut out = RunReport::default();
        for (_, report) in &self.per_worker {
            out.merge(report);
        }
        out
    }
}

/// Distribution-specific configuration, complementing
/// [`swt_nas::runner::NasConfig`] (which holds everything the strategy and
/// evaluators need).
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub app: AppKind,
    pub scale: DataScale,
    /// Seed of the synthetic dataset; workers rebuild identical data.
    pub data_seed: u64,
    /// Root of the shared on-disk checkpoint store.
    pub store_dir: PathBuf,
    /// Networked checkpoint store endpoint (`tcp://host:port`). `None`
    /// keeps the shared `DirStore` at `store_dir` — the default, and the
    /// configuration whose traces the A/B identity gates pin. `Some` makes
    /// every worker dial a `swt-ckpt-server` instead (secret from the
    /// `SWT_CKPT_SECRET` env var; `NasConfig::namespace` is the bucket).
    pub store_url: Option<String>,
    /// Ping cadence; also the coordinator's event-poll granularity.
    pub heartbeat_interval: Duration,
    /// An unanswered ping older than this marks the worker lost.
    pub heartbeat_timeout: Duration,
    /// How long workers get to spawn + connect back.
    pub connect_timeout: Duration,
    /// Worker binary override (`SWT_DIST_WORKER_EXE` beats this; see
    /// [`spawn::find_worker_exe`]).
    pub worker_exe: Option<PathBuf>,
    /// Optional fault injection for benches/tests.
    pub kill_worker_after: Option<KillPlan>,
    /// Processes to spawn at launch (default: `nas.workers`). May be below
    /// the dispatch window: the window is sized by `nas.workers` alone, so a
    /// short-handed pool just queues the overflow until workers join —
    /// elasticity never changes the schedule, only who evaluates it.
    pub initial_workers: Option<usize>,
    /// Hard cap on concurrently-live workers; late joins beyond it are
    /// refused with an `Error` frame (`dist.joins_rejected`).
    pub max_workers: usize,
    /// Optional scale-out injection for benches/tests.
    pub join_after: Option<JoinPlan>,
    /// Autoscaling policy; `None` (the default) keeps the pool fixed. The
    /// policy only ever changes which *processes* evaluate — the dispatch
    /// window, and with it the candidate schedule, never moves (its
    /// `max_workers` must not exceed [`DistConfig::max_workers`]).
    pub autoscale: Option<PolicyConfig>,
    /// Live run view the coordinator folds streamed telemetry into. Pass a
    /// view that is also handed to an [`swt_obs::ObsServer`] to watch the
    /// run over HTTP; when `None` the backend keeps a private one (the
    /// stream is always folded — monitoring must not change behaviour).
    pub live: Option<Arc<LiveRunView>>,
}

impl DistConfig {
    /// Defaults tuned for slow shared CI machines: generous timeouts, since
    /// a loaded single-core host can starve a healthy worker's reader
    /// thread for whole seconds.
    pub fn new(app: AppKind, scale: DataScale, data_seed: u64, store_dir: PathBuf) -> Self {
        DistConfig {
            app,
            scale,
            data_seed,
            store_dir,
            store_url: None,
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(30),
            worker_exe: None,
            kill_worker_after: None,
            initial_workers: None,
            max_workers: 64,
            join_after: None,
            autoscale: None,
            live: None,
        }
    }
}

/// Run one NAS candidate-estimation phase on worker processes.
///
/// The counterpart of `swt_nas::run_nas`: same strategy loop, same
/// deterministic schedule, but evaluation happens in `nas.workers` child
/// processes sharing the `DirStore` at `dist.store_dir`. For a given
/// `NasConfig` the returned trace's scores, architectures, parents and
/// transfer counts are bit-identical to the in-process run's.
pub fn run_nas_dist(nas: &NasConfig, dist: &DistConfig) -> io::Result<NasTrace> {
    run_nas_dist_with_stats(nas, dist).map(|(trace, _)| trace)
}

/// [`run_nas_dist`], additionally returning the run's [`DistRunStats`]
/// (each worker's counters and histograms + join/loss tallies). The
/// graceful [`DistBackend::finish`] teardown this uses also folds those
/// counters and histograms — each worker's last applied snapshot — into
/// the process-global registry, so a `RunReport::capture()` after this call
/// reports whole-run totals.
pub fn run_nas_dist_with_stats(
    nas: &NasConfig,
    dist: &DistConfig,
) -> io::Result<(NasTrace, DistRunStats)> {
    let space = Arc::new(SearchSpace::for_app(dist.app));
    let mut backend = DistBackend::launch(nas, dist)?;
    let trace = swt_nas::run_nas_with_backend(dist.app.name(), space, nas, &mut backend)?;
    let stats = backend.finish()?;
    drop(backend); // joins readers, reaps any straggling children
    Ok((trace, stats))
}
