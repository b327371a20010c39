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
//! --serve` and the source of the run's worker totals).

pub mod coordinator;
pub mod frame;
pub mod live;
pub mod spawn;
pub mod wire;
pub mod worker;

pub use coordinator::DistBackend;
pub use frame::{WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use live::{LiveRunView, WorkerView, CACHE_COUNTER_KINDS};
pub use wire::{Msg, RunSpec, Telemetry};
pub use worker::worker_main;

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use swt_data::{AppKind, DataScale};
use swt_nas::runner::NasConfig;
use swt_nas::trace::NasTrace;
use swt_obs::RunReport;
use swt_space::SearchSpace;

/// Per-run statistics the coordinator hands back from
/// [`DistBackend::finish`]: each worker process's report from its last
/// applied snapshot, read from the run's [`LiveRunView`],
/// plus the elasticity/failure tallies for this run. Instance-local on
/// purpose — tests assert conservation on these without diffing the
/// process-global registry.
#[derive(Debug, Clone, Default)]
pub struct DistRunStats {
    /// `(worker slot, its whole report)` for every worker that delivered a
    /// snapshot ([`LiveRunView::worker_reports`]).
    pub per_worker: Vec<(usize, RunReport)>,
    /// Workers admitted past the dispatch window: slots `window..`.
    pub joined: usize,
    /// Join attempts refused because the pool was at `max_workers`.
    pub rejected: usize,
    /// Workers declared lost (crash or heartbeat timeout).
    pub lost: usize,
    /// Candidates reassigned off lost workers.
    pub reassigned: usize,
}

impl DistRunStats {
    /// Merge every worker's report into one [`RunReport`] — the
    /// cross-process half of the run's totals.
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
    /// `SWT_CKPT_SECRET` env var; `NasConfig::namespace` is the bucket), and
    /// `store_dir` goes unused; one without the `tcp://` prefix is refused.
    pub store_url: Option<String>,
    /// Worker binary override (`SWT_DIST_WORKER_EXE` beats this; see
    /// [`spawn::find_worker_exe`]).
    pub worker_exe: Option<PathBuf>,
    /// Hard cap on concurrently-live workers; late joins beyond it are
    /// refused with an `Error` frame (`dist.joins_rejected`).
    pub max_workers: usize,
    /// Live run view the coordinator folds streamed telemetry into. Pass a
    /// view that is also handed to an [`swt_obs::ObsServer`] to watch the
    /// run over HTTP; when `None` the backend keeps a private one (the
    /// stream is always folded — monitoring must not change behaviour).
    pub live: Option<Arc<LiveRunView>>,
}

impl DistConfig {
    /// A pool of `nas.workers` processes on the shared `DirStore` at
    /// `store_dir`, taking joins up to 64 live workers.
    pub fn new(app: AppKind, scale: DataScale, data_seed: u64, store_dir: PathBuf) -> Self {
        DistConfig {
            app,
            scale,
            data_seed,
            store_dir,
            store_url: None,
            worker_exe: None,
            max_workers: 64,
            live: None,
        }
    }
}

/// Serializes this crate's unit tests that fill or take the process's one
/// timeline ring: each event is taken once, so two of them running at once
/// would take each other's events.
#[cfg(test)]
pub(crate) fn timeline_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one NAS candidate-estimation phase on worker processes.
///
/// The counterpart of `swt_nas::run_nas`: same strategy loop, same
/// deterministic schedule, but evaluation happens in `nas.workers` child
/// processes sharing the `DirStore` at `dist.store_dir`. For a given
/// `NasConfig` the returned trace's scores, architectures, parents and
/// transfer counts are bit-identical to the in-process run's. The run's
/// [`DistRunStats`] come with it; the graceful [`DistBackend::finish`]
/// teardown also folds each worker's last applied snapshot into the
/// process-global registry, so a `RunReport::capture()` after this call
/// reports whole-run totals.
pub fn run_nas_dist(nas: &NasConfig, dist: &DistConfig) -> io::Result<(NasTrace, DistRunStats)> {
    let space = Arc::new(SearchSpace::for_app(dist.app));
    let mut backend = DistBackend::launch(nas, dist)?;
    let trace = swt_nas::run_nas_with_backend(dist.app.name(), space, nas, &mut backend)?;
    let stats = backend.finish()?;
    Ok((trace, stats))
}
