//! The NAS scheduler: strategy loop + pluggable evaluation backend (Fig. 6).
//!
//! The strategy/top-K loop is backend-agnostic: it speaks to an
//! [`EvalBackend`] (in-process thread pool, or the `swt-dist` multi-process
//! coordinator) and is **deterministic by construction** regardless of the
//! backend's completion timing. Results are reported to the strategy in
//! candidate-id order through a reorder buffer, and exactly one new
//! candidate is dispatched after each report (after an initial burst of
//! `capacity` candidates). The strategy therefore sees one canonical
//! next/report interleaving for a given `(config, seed)` — the same
//! sequence whether candidates run on threads, processes, or a degraded
//! worker pool after failures — which is what makes the distributed
//! backend's results bit-identical to the in-process runner's (DESIGN.md
//! §10).

use crate::backend::{BackendResult, EvalBackend, ThreadPoolBackend};
use crate::candidate::{Candidate, CandidateId, ScoredCandidate};
use crate::evaluator::{EvalFidelity, StopReason};
use crate::strategy::{ProviderPolicy, RandomSearch, RegularizedEvolution, SearchStrategy};
use crate::trace::{NasTrace, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use swt_checkpoint::CheckpointStore;
use swt_core::TransferScheme;
use swt_data::AppProblem;
use swt_nn::Convergence;
use swt_space::SearchSpace;
use swt_tensor::Rng;

/// Which search strategy drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Uniform random search (used for the analysis traces of Figs. 2/4/5).
    Random,
    /// Regularized evolution (Algorithm 1), the paper's search strategy.
    Evolution,
}

/// How the in-process backend packs candidates onto worker-slot threads.
///
/// The paper's few-shot workloads train very many *tiny* models; one OS
/// thread per simulated GPU then means `workers` runnable threads thrashing
/// a handful of cores. Batched evaluation keeps the configured dispatch
/// window (`workers` — the determinism contract is untouched) but services
/// it with fewer slot threads, each evaluating several candidates. Every
/// candidate keeps its own `Workspace`, seed derivation and trace row, so
/// results are bit-identical to unbatched runs (the integration suite and
/// `bench_batch` gate on canonical-trace equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchEval {
    /// One thread per worker slot (the historical shape).
    #[default]
    Off,
    /// Pack candidates when the model is small: engages when the problem's
    /// flops-per-step proxy is below a threshold derived from the core
    /// count, with batch size chosen so slot threads ≈ cores.
    Auto,
    /// Always pack exactly `n` candidates per slot thread (clamped to
    /// `[1, workers]`).
    Fixed(usize),
}

impl BatchEval {
    /// Parse the config-file/CLI surface syntax: `auto`, `off`, or a
    /// positive integer `N`.
    pub fn parse(s: &str) -> Option<BatchEval> {
        match s {
            "auto" => Some(BatchEval::Auto),
            "off" => Some(BatchEval::Off),
            n => n.parse::<usize>().ok().filter(|&n| n > 0).map(BatchEval::Fixed),
        }
    }
}

impl std::fmt::Display for BatchEval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchEval::Off => write!(f, "off"),
            BatchEval::Auto => write!(f, "auto"),
            BatchEval::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// A rejected fidelity knob. `NasConfig` construction surfaces these as
/// typed errors instead of silently clamping, so a bad CLI flag or config
/// file fails loudly before any training starts.
#[derive(Debug, Clone, PartialEq)]
pub enum FidelityError {
    /// `eta` must be at least 2 (an eta of 1 promotes everyone — successive
    /// halving degenerates to plain extra epochs).
    EtaTooSmall { eta: usize },
    /// Rung epoch budgets must be positive and strictly increasing (they
    /// are *cumulative* budgets).
    RungsNotIncreasing { rungs: Vec<usize> },
    /// The pre-filter quantile must lie in `[0, 1)` (1 would skip every
    /// candidate).
    QuantileOutOfRange { quantile: f64 },
    /// The convergence window must contain at least one epoch and the delta
    /// must be non-negative and not NaN.
    BadConvergence { window: usize, min_delta: f64 },
}

impl std::fmt::Display for FidelityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FidelityError::EtaTooSmall { eta } => {
                write!(f, "eta must be >= 2, got {eta}")
            }
            FidelityError::RungsNotIncreasing { rungs } => {
                write!(f, "rung epochs must be positive and strictly increasing, got {rungs:?}")
            }
            FidelityError::QuantileOutOfRange { quantile } => {
                write!(f, "prefilter quantile must be in [0, 1), got {quantile}")
            }
            FidelityError::BadConvergence { window, min_delta } => {
                write!(
                    f,
                    "convergence needs window >= 1 and min_delta >= 0, got window {window} \
                     min_delta {min_delta}"
                )
            }
        }
    }
}

impl std::error::Error for FidelityError {}

/// Maximum rung index carried on the wire (`u8` on `Task`/`Result`
/// frames; anything beyond this is a hostile or corrupt payload).
pub const MAX_RUNGS: usize = 16;

/// Multi-fidelity knobs of a NAS run. The default is every feature off,
/// which reproduces pre-fidelity runs bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityConfig {
    /// Successive-halving promotion divisor: the top `1/eta` of a rung is
    /// re-dispatched to the next.
    pub eta: usize,
    /// Cumulative per-rung epoch budgets, strictly increasing (e.g. `[1, 4]`
    /// trains every candidate 1 epoch, then survivors 3 more). Empty
    /// disables successive halving and candidates train the run budget.
    pub rungs: Vec<usize>,
    /// Quantile of rung-0 candidates the zero-cost pre-filter skips
    /// (`0.0` = off).
    pub prefilter_quantile: f64,
    /// Per-candidate loss-delta convergence cut (`None` = off).
    pub convergence: Option<Convergence>,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig::off()
    }
}

impl FidelityConfig {
    /// Every fidelity feature disabled (the validated default).
    pub fn off() -> Self {
        FidelityConfig { eta: 2, rungs: Vec::new(), prefilter_quantile: 0.0, convergence: None }
    }

    /// A validating constructor: returns a typed [`FidelityError`] instead
    /// of clamping out-of-range knobs.
    pub fn new(
        eta: usize,
        rungs: Vec<usize>,
        prefilter_quantile: f64,
        convergence: Option<Convergence>,
    ) -> Result<Self, FidelityError> {
        let cfg = FidelityConfig { eta, rungs, prefilter_quantile, convergence };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check every knob; [`FidelityConfig::new`] and the runner both call
    /// this, so a hand-assembled config cannot sneak past validation.
    pub fn validate(&self) -> Result<(), FidelityError> {
        if self.eta < 2 {
            return Err(FidelityError::EtaTooSmall { eta: self.eta });
        }
        if self.rungs.first().is_some_and(|&r| r == 0)
            || self.rungs.windows(2).any(|w| w[1] <= w[0])
        {
            return Err(FidelityError::RungsNotIncreasing { rungs: self.rungs.clone() });
        }
        if self.rungs.len() > MAX_RUNGS {
            return Err(FidelityError::RungsNotIncreasing { rungs: self.rungs.clone() });
        }
        if !(0.0..1.0).contains(&self.prefilter_quantile) {
            return Err(FidelityError::QuantileOutOfRange { quantile: self.prefilter_quantile });
        }
        if let Some(c) = self.convergence {
            if c.window == 0 || c.min_delta.is_nan() || c.min_delta < 0.0 {
                return Err(FidelityError::BadConvergence {
                    window: c.window,
                    min_delta: c.min_delta,
                });
            }
        }
        Ok(())
    }

    /// True iff any feature is active.
    pub fn enabled(&self) -> bool {
        !self.rungs.is_empty() || self.prefilter_quantile > 0.0 || self.convergence.is_some()
    }

    /// The evaluator-side subset of these knobs (what travels to workers in
    /// the `RunSpec`; rungs and eta stay coordinator-side).
    pub fn eval_fidelity(&self) -> EvalFidelity {
        EvalFidelity { prefilter_quantile: self.prefilter_quantile, convergence: self.convergence }
    }
}

/// Configuration of one NAS candidate-estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct NasConfig {
    pub scheme: TransferScheme,
    pub strategy: StrategyKind,
    /// Candidates to evaluate (the paper runs 400 per experiment).
    pub total_candidates: usize,
    /// Evaluator workers — one per simulated GPU (threads in-process,
    /// child processes under `swt-dist`). Also the deterministic dispatch
    /// window: runs with the same worker count are bit-identical across
    /// backends.
    pub workers: usize,
    /// Epochs per estimate (paper: 1).
    pub epochs: usize,
    /// Root seed: drives the strategy and all candidate training.
    pub seed: u64,
    /// Evolution population size (paper: 64).
    pub population_size: usize,
    /// Evolution tournament size (paper: 32).
    pub sample_size: usize,
    /// Provider-selection policy (the paper's Algorithm 1 uses the mutation
    /// parent; alternatives exist for ablations).
    pub provider: ProviderPolicy,
    /// Hard cap on the provider cache wrapped around the checkpoint store
    /// (0 = no cache). Not a working-set size: the cache holds the lineage's
    /// live set — population plus what is in flight — and the strategy's
    /// watermark empties it; the cap only bounds it when hints do not arrive.
    pub cache_bytes: u64,
    /// Checkpoint-id namespace: candidate `i` is stored as `{namespace}c{i}`.
    /// Runs sharing one store (e.g. one `DirStore` on a parallel file
    /// system) must use distinct namespaces; the default empty string keeps
    /// the historical bare `c{i}` ids.
    pub namespace: String,
    /// Candidate packing for the in-process backend (`auto|off|N`); see
    /// [`BatchEval`]. Scheduling-only: results are bit-identical across
    /// settings. Defaults to [`BatchEval::Off`].
    pub batch_eval: BatchEval,
    /// Multi-fidelity pipeline knobs (early stopping, successive halving,
    /// zero-cost pre-filter). Defaults to everything off, which keeps runs
    /// bit-identical to pre-fidelity releases.
    pub fidelity: FidelityConfig,
}

impl NasConfig {
    /// The paper's configuration, scaled only in candidate count.
    pub fn paper(
        scheme: TransferScheme,
        total_candidates: usize,
        workers: usize,
        seed: u64,
    ) -> Self {
        NasConfig {
            scheme,
            strategy: StrategyKind::Evolution,
            total_candidates,
            workers,
            epochs: 1,
            seed,
            population_size: 64,
            sample_size: 32,
            provider: ProviderPolicy::Parent,
            cache_bytes: 256 << 20,
            namespace: String::new(),
            batch_eval: BatchEval::Off,
            fidelity: FidelityConfig::off(),
        }
    }

    /// A small configuration for tests and quick runs.
    pub fn quick(
        scheme: TransferScheme,
        total_candidates: usize,
        workers: usize,
        seed: u64,
    ) -> Self {
        NasConfig {
            population_size: 16,
            sample_size: 8,
            cache_bytes: 32 << 20,
            ..Self::paper(scheme, total_candidates, workers, seed)
        }
    }
}

/// Run one NAS candidate-estimation phase on the in-process thread pool:
/// `workers` evaluator threads stay busy while the strategy loop streams
/// candidates through the deterministic dispatch window, exactly like
/// DeepHyper's Ray evaluators against a local pool.
pub fn run_nas(
    problem: Arc<AppProblem>,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    cfg: &NasConfig,
) -> NasTrace {
    // One provider cache shared by every evaluator worker: a checkpoint one
    // worker saves is a memory hit for whichever trains its child. Without a
    // transfer scheme nothing is ever read back, so nothing is held.
    let store: Arc<dyn CheckpointStore> = if cfg.cache_bytes > 0 && cfg.scheme.matcher().is_some() {
        Arc::new(swt_checkpoint::CachedStore::new(store, cfg.cache_bytes))
    } else {
        store
    };
    let app = problem.kind.name().to_string();
    let mut backend = ThreadPoolBackend::new(problem, Arc::clone(&space), store, cfg);
    // The in-process backend's channels cannot fail while the runner holds
    // both endpoints' peers; an error here means an evaluator panicked.
    run_nas_with_backend(&app, space, cfg, &mut backend).expect("in-process evaluation failed")
}

/// Dispatches candidates stamped with the lineage watermark
/// ([`Candidate::live_from`]): the oldest id that the strategy, a candidate
/// still out for evaluation or a promotion still queued can name as
/// provider. Results are reported in dispatch order, so the parents of
/// unreported candidates form a queue.
#[derive(Default)]
struct Lineage {
    unreported: VecDeque<Option<CandidateId>>,
}

impl Lineage {
    /// Submit `cand`; `floor` is the oldest id anything not yet dispatched
    /// can still name.
    fn submit<B: EvalBackend>(
        &mut self,
        backend: &mut B,
        mut cand: Candidate,
        floor: CandidateId,
    ) -> io::Result<()> {
        self.unreported.push_back(cand.parent);
        let oldest_parent = self.unreported.iter().flatten().min();
        cand.live_from = oldest_parent.map_or(floor, |&parent| parent.min(floor));
        backend.submit(cand)?;
        swt_obs::counter!("nas.candidates_dispatched").inc();
        swt_obs::event!("nas.dispatch", 1);
        Ok(())
    }

    /// The oldest unreported candidate was reported.
    fn reported(&mut self) {
        self.unreported.pop_front();
    }
}

/// The backend-agnostic strategy loop. Both `run_nas` (thread pool) and
/// `swt_dist::run_nas_dist` (multi-process) are thin wrappers over this.
///
/// Dispatch discipline (the determinism contract): ids are assigned
/// sequentially by the strategy; the first `capacity` candidates are
/// submitted up front, completions are reported to the strategy strictly in
/// id order (out-of-order arrivals wait in a reorder buffer), and each
/// report is followed by exactly one dispatch while candidates remain. The
/// strategy's call sequence — and therefore every candidate's architecture,
/// parent and seed — depends only on `(cfg, seed)`, never on completion
/// timing, worker count degradation, or result reassignment.
pub fn run_nas_with_backend<B: EvalBackend>(
    app: &str,
    space: Arc<SearchSpace>,
    cfg: &NasConfig,
    backend: &mut B,
) -> io::Result<NasTrace> {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.total_candidates > 0, "need at least one candidate");
    // Defensive re-validation: a hand-assembled `NasConfig` may carry knobs
    // that never passed `FidelityConfig::new`.
    cfg.fidelity
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

    let mut strategy: Box<dyn SearchStrategy> = match cfg.strategy {
        StrategyKind::Random => Box::new(RandomSearch::new(Arc::clone(&space))),
        StrategyKind::Evolution => Box::new(RegularizedEvolution::with_provider(
            Arc::clone(&space),
            cfg.population_size.min(cfg.total_candidates),
            cfg.sample_size.min(cfg.population_size.min(cfg.total_candidates)),
            cfg.provider,
        )),
    };
    let mut rng = Rng::seed(cfg.seed ^ 0x57A7E6);

    let start = Instant::now();
    let total = cfg.total_candidates;
    let window = backend.capacity().max(1).min(total);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(total);
    let mut dispatched = 0usize;
    // Results are reported to the strategy in id order; arrivals beyond the
    // next expected id wait here. The buffer never holds more than `window`
    // entries.
    let mut buffer: BTreeMap<u64, BackendResult> = BTreeMap::new();
    let mut next_report = 0u64;

    // When successive halving is on, rung 0 trains to the first cumulative
    // budget instead of the run budget; `None` leaves today's behaviour.
    let rung0_epochs: Option<usize> = cfg.fidelity.rungs.first().copied();

    // With promotion waves to come, any rung-0 result may yet be resumed.
    let promotions_follow = cfg.fidelity.rungs.len() > 1;
    let mut lineage = Lineage::default();
    let dispatch_one = |strategy: &mut Box<dyn SearchStrategy>,
                        rng: &mut Rng,
                        backend: &mut B,
                        lineage: &mut Lineage,
                        next_report: u64| {
        let mut cand = {
            let _span = swt_obs::span!("nas.strategy_next");
            strategy.next(rng)
        };
        cand.epochs = rung0_epochs;
        // Only a reported id is retired: its save is done. (A save landing
        // after its own retirement would stay resident, nobody left to
        // retire it.)
        let floor = if promotions_follow { 0 } else { strategy.live_from().min(next_report) };
        lineage.submit(backend, cand, floor)
    };

    while dispatched < window {
        dispatch_one(&mut strategy, &mut rng, backend, &mut lineage, next_report)?;
        dispatched += 1;
    }
    while (next_report as usize) < total {
        let res = backend.next_result()?;
        let id = res.cand.id;
        if id < next_report || buffer.contains_key(&id) {
            // Duplicate delivery (a reassigned candidate whose original
            // worker completed after all): same seed, same result — drop it.
            swt_obs::counter!("nas.duplicate_results").inc();
            continue;
        }
        buffer.insert(id, res);
        while let Some(res) = buffer.remove(&next_report) {
            strategy.report(ScoredCandidate {
                id: res.cand.id,
                arch: res.cand.arch.clone(),
                score: res.outcome.score,
            });
            events.push(trace_event(res));
            next_report += 1;
            lineage.reported();
            swt_obs::event!("nas.report", 1);
            if dispatched < total {
                dispatch_one(&mut strategy, &mut rng, backend, &mut lineage, next_report)?;
                dispatched += 1;
            }
        }
    }
    drop(strategy);

    // Successive-halving promotion waves: rank the completed rung, mark the
    // losers pruned, and re-dispatch the top `1/eta` to the next cumulative
    // budget with their own checkpoints as providers. Rung state lives here
    // — in the backend-agnostic loop — so traces are deterministic for a
    // fixed config on every backend.
    let mut next_id = total as u64;
    let mut wave_base = 0usize;
    let mut wave_len = total;
    for rung in 1..cfg.fidelity.rungs.len() {
        swt_obs::gauge!("fidelity.rung").set(rung as i64);
        let n_promote = (wave_len / cfg.fidelity.eta).clamp(1, wave_len);
        // Rank the previous wave: score descending, ties by earlier id.
        // Non-finite scores (prefiltered candidates rank at -inf) are never
        // promoted.
        let mut order: Vec<usize> = (0..wave_len).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&events[wave_base + a], &events[wave_base + b]);
            eb.score.total_cmp(&ea.score).then(ea.id.cmp(&eb.id))
        });
        let mut is_promoted = vec![false; wave_len];
        let mut promoted_count = 0usize;
        for &off in &order {
            if promoted_count == n_promote {
                break;
            }
            if events[wave_base + off].score.is_finite() {
                is_promoted[off] = true;
                promoted_count += 1;
            }
        }
        // Everyone else stops here: mark them pruned (the pre-filter's more
        // specific reason wins when both apply).
        for (off, promoted) in is_promoted.iter().enumerate() {
            let e = &mut events[wave_base + off];
            if !promoted && e.stop != StopReason::Prefiltered {
                e.stop = StopReason::Pruned;
                swt_obs::counter!("fidelity.stopped.pruned").inc();
            }
        }
        // The next budget: with a transfer scheme the promotion resumes its
        // own rung-k checkpoint, so only the *delta* epochs are paid — the
        // paper's selective-transfer machinery applied to budgets instead of
        // lineage. Baseline cannot resume and retrains the full cumulative
        // budget from scratch.
        let epochs = if cfg.scheme.matcher().is_some() {
            cfg.fidelity.rungs[rung] - cfg.fidelity.rungs[rung - 1]
        } else {
            cfg.fidelity.rungs[rung]
        };
        let wave_first_id = next_id;
        let mut queue: VecDeque<Candidate> = (0..wave_len)
            .filter(|&off| is_promoted[off])
            .map(|off| {
                let e = &events[wave_base + off];
                let id = next_id;
                next_id += 1;
                Candidate {
                    id,
                    arch: e.arch.clone(),
                    parent: Some(e.id),
                    rung: rung as u8,
                    epochs: Some(epochs),
                    live_from: 0,
                }
            })
            .collect();
        let wave_count = queue.len();
        if wave_count == 0 {
            break;
        }
        // The queue resumes the previous wave in id order, so its front names
        // the oldest checkpoint still wanted; behind an empty queue that is
        // this wave's own first id if another wave may resume it, else
        // whatever is still unreported.
        let more_rungs = rung + 1 < cfg.fidelity.rungs.len();
        let floor = |queue: &VecDeque<Candidate>, next_report: u64| {
            let unqueued = if more_rungs { wave_first_id } else { next_report };
            queue.front().and_then(|next| next.parent).unwrap_or(unqueued)
        };
        // Same reorder-window discipline as rung 0: burst up to `window`,
        // then one dispatch per in-order report.
        for _ in 0..window.min(wave_count) {
            let cand = queue.pop_front().expect("burst is bounded by queue length");
            lineage.submit(backend, cand, floor(&queue, next_report))?;
        }
        while next_report < next_id {
            let res = backend.next_result()?;
            let id = res.cand.id;
            if id < next_report || buffer.contains_key(&id) {
                swt_obs::counter!("nas.duplicate_results").inc();
                continue;
            }
            buffer.insert(id, res);
            while let Some(res) = buffer.remove(&next_report) {
                events.push(trace_event(res));
                next_report += 1;
                lineage.reported();
                swt_obs::event!("nas.report", 1);
                if let Some(cand) = queue.pop_front() {
                    lineage.submit(backend, cand, floor(&queue, next_report))?;
                }
            }
        }
        wave_base = events.len() - wave_count;
        wave_len = wave_count;
    }

    Ok(NasTrace {
        app: app.to_string(),
        scheme: cfg.scheme,
        seed: cfg.seed,
        workers: cfg.workers,
        events,
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// Fold one backend completion into a trace row.
fn trace_event(res: BackendResult) -> TraceEvent {
    TraceEvent {
        id: res.cand.id,
        arch: res.cand.arch,
        parent: res.cand.parent,
        score: res.outcome.score,
        t_start: res.t_start,
        t_end: res.t_end,
        train_secs: res.outcome.train_secs,
        transfer_secs: res.outcome.transfer_secs,
        save_secs: res.outcome.save_secs,
        checkpoint_bytes: res.outcome.checkpoint_bytes,
        transfer_tensors: res.outcome.transfer.tensors,
        transfer_bytes: res.outcome.transfer.bytes,
        rung: res.cand.rung,
        stop: res.outcome.stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_checkpoint::MemStore;
    use swt_data::{AppKind, DataScale};

    fn run(
        scheme: TransferScheme,
        strategy: StrategyKind,
        total: usize,
        workers: usize,
    ) -> NasTrace {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig { strategy, ..NasConfig::quick(scheme, total, workers, 3) };
        run_nas(problem, space, store, &cfg)
    }

    #[test]
    fn completes_requested_candidates() {
        let trace = run(TransferScheme::Baseline, StrategyKind::Random, 6, 2);
        assert_eq!(trace.events.len(), 6);
        let ids: Vec<_> = trace.events.iter().map(|e| e.id).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>(), "events are recorded in id order");
        assert!(trace.wall_secs > 0.0);
        assert!(trace.events.iter().all(|e| e.score.is_finite()));
        assert!(trace.events.iter().all(|e| e.t_end >= e.t_start));
    }

    #[test]
    fn evolution_children_transfer_weights() {
        // 16-member population (quick config), 24 candidates: the last 8
        // must be children with parents and non-trivial transfers.
        let trace = run(TransferScheme::Lcs, StrategyKind::Evolution, 24, 2);
        let children: Vec<_> = trace.events.iter().filter(|e| e.parent.is_some()).collect();
        assert!(!children.is_empty(), "post-warm-up children expected");
        assert!(
            children.iter().any(|e| e.transfer_tensors > 0),
            "LCS children must transfer tensors from their parents"
        );
    }

    #[test]
    fn baseline_never_transfers() {
        let trace = run(TransferScheme::Baseline, StrategyKind::Evolution, 20, 2);
        assert!(trace.events.iter().all(|e| e.transfer_tensors == 0));
        assert!(trace.events.iter().all(|e| e.transfer_secs == 0.0));
    }

    #[test]
    fn checkpoints_written_for_all_candidates() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store = Arc::new(MemStore::new());
        let store_dyn: Arc<dyn CheckpointStore> = Arc::clone(&store) as _;
        let cfg = NasConfig::quick(TransferScheme::Lp, 8, 2, 5);
        let trace = run_nas(problem, space, store_dyn, &cfg);
        for e in &trace.events {
            assert!(store.exists(&format!("c{}", e.id)));
        }
    }

    #[test]
    fn namespaced_run_prefixes_checkpoint_ids() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store = Arc::new(MemStore::new());
        let store_dyn: Arc<dyn CheckpointStore> = Arc::clone(&store) as _;
        let cfg = NasConfig {
            namespace: "runA_".into(),
            ..NasConfig::quick(TransferScheme::Lcs, 4, 2, 5)
        };
        let trace = run_nas(problem, space, store_dyn, &cfg);
        for e in &trace.events {
            assert!(store.exists(&format!("runA_c{}", e.id)));
            assert!(!store.exists(&format!("c{}", e.id)));
        }
    }

    #[test]
    fn batch_eval_surface_syntax_roundtrips() {
        assert_eq!(BatchEval::parse("auto"), Some(BatchEval::Auto));
        assert_eq!(BatchEval::parse("off"), Some(BatchEval::Off));
        assert_eq!(BatchEval::parse("4"), Some(BatchEval::Fixed(4)));
        assert_eq!(BatchEval::parse("0"), None);
        assert_eq!(BatchEval::parse("many"), None);
        for b in [BatchEval::Off, BatchEval::Auto, BatchEval::Fixed(7)] {
            assert_eq!(BatchEval::parse(&b.to_string()), Some(b));
        }
    }

    #[test]
    fn single_worker_run_is_deterministic() {
        let a = run(TransferScheme::Lcs, StrategyKind::Evolution, 10, 1);
        let b = run(TransferScheme::Lcs, StrategyKind::Evolution, 10, 1);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.score, y.score, "candidate {} diverged", x.id);
        }
    }

    #[test]
    fn fidelity_validation_rejects_bad_knobs() {
        use swt_nn::Convergence as Conv;
        assert!(matches!(
            FidelityConfig::new(1, vec![], 0.0, None),
            Err(FidelityError::EtaTooSmall { eta: 1 })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![2, 2], 0.0, None),
            Err(FidelityError::RungsNotIncreasing { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![3, 1], 0.0, None),
            Err(FidelityError::RungsNotIncreasing { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![0, 1], 0.0, None),
            Err(FidelityError::RungsNotIncreasing { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, (1..=MAX_RUNGS + 1).collect(), 0.0, None),
            Err(FidelityError::RungsNotIncreasing { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![], 1.0, None),
            Err(FidelityError::QuantileOutOfRange { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![], -0.1, None),
            Err(FidelityError::QuantileOutOfRange { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![], 0.0, Some(Conv { window: 0, min_delta: 0.1 })),
            Err(FidelityError::BadConvergence { .. })
        ));
        assert!(matches!(
            FidelityConfig::new(2, vec![], 0.0, Some(Conv { window: 2, min_delta: -1.0 })),
            Err(FidelityError::BadConvergence { .. })
        ));
        let ok = FidelityConfig::new(4, vec![1, 2, 4], 0.25, None).unwrap();
        assert!(ok.enabled());
        assert!(!FidelityConfig::off().enabled());
        assert_eq!(FidelityConfig::default(), FidelityConfig::off());
        // Errors render human-readable messages (CLI surface).
        let msg = FidelityConfig::new(1, vec![], 0.0, None).unwrap_err().to_string();
        assert!(msg.contains("eta"), "{msg}");
    }

    #[test]
    fn runner_rejects_invalid_fidelity_as_io_error() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let mut cfg = NasConfig::quick(TransferScheme::Baseline, 2, 1, 3);
        cfg.fidelity.eta = 0; // hand-assembled, never validated
        let mut backend = ThreadPoolBackend::new(problem, Arc::clone(&space), store, &cfg);
        let err = run_nas_with_backend("Uno", space, &cfg, &mut backend).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    fn run_fidelity(scheme: TransferScheme, workers: usize, total: usize) -> NasTrace {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig {
            strategy: StrategyKind::Random,
            fidelity: FidelityConfig::new(4, vec![1, 2], 0.0, None).unwrap(),
            ..NasConfig::quick(scheme, total, workers, 3)
        };
        run_nas(problem, space, store, &cfg)
    }

    #[test]
    fn successive_halving_promotes_the_top_of_each_rung() {
        let trace = run_fidelity(TransferScheme::Lcs, 2, 8);
        // 8 rung-0 candidates + max(1, 8/4) = 2 promotions.
        assert_eq!(trace.events.len(), 10);
        let rung0 = &trace.events[..8];
        let promos = &trace.events[8..];
        // The promoted ids are the two best rung-0 scores.
        let mut by_score: Vec<&TraceEvent> = rung0.iter().collect();
        by_score.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        let top2: Vec<u64> = by_score[..2].iter().map(|e| e.id).collect();
        for p in promos {
            assert_eq!(p.rung, 1);
            let parent = p.parent.expect("promotions resume their own checkpoint");
            assert!(top2.contains(&parent), "promoted parent {parent} not in top-2 {top2:?}");
            let src = rung0.iter().find(|e| e.id == parent).unwrap();
            assert_eq!(p.arch, src.arch, "a promotion re-trains the same architecture");
            assert!(
                p.transfer_tensors > 0,
                "an identical-arch LCS resume must transfer every tensor"
            );
            assert_eq!(p.stop, StopReason::BudgetExhausted);
        }
        // Everyone not promoted is marked pruned; promoted keep their reason.
        for e in rung0 {
            if top2.contains(&e.id) {
                assert_eq!(e.stop, StopReason::BudgetExhausted);
            } else {
                assert_eq!(e.stop, StopReason::Pruned);
            }
        }
        // Ids are sequential across waves and events stay in id order.
        let ids: Vec<u64> = trace.events.iter().map(|e| e.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn successive_halving_is_deterministic_across_worker_counts() {
        let a = run_fidelity(TransferScheme::Lcs, 1, 8);
        let b = run_fidelity(TransferScheme::Lcs, 3, 8);
        // The canonical header records the worker count; everything below it
        // (ranking, promotion, scores) must be timing-free.
        let body = |t: &NasTrace| t.canonical_csv().lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&a), body(&b), "rung state is backend-timing-free");
    }

    #[test]
    fn baseline_promotions_retrain_the_full_cumulative_budget() {
        let trace = run_fidelity(TransferScheme::Baseline, 2, 8);
        let promos: Vec<&TraceEvent> = trace.events.iter().filter(|e| e.rung > 0).collect();
        assert!(!promos.is_empty());
        for p in promos {
            assert_eq!(p.transfer_tensors, 0, "baseline cannot resume");
        }
    }

    #[test]
    fn fidelity_off_produces_default_trace_rows() {
        let trace = run(TransferScheme::Lcs, StrategyKind::Evolution, 8, 2);
        assert!(trace.events.iter().all(|e| e.rung == 0));
        assert!(trace.events.iter().all(|e| e.stop == StopReason::BudgetExhausted));
        assert!(!trace.canonical_csv().contains("rung"), "legacy canonical layout preserved");
    }

    #[test]
    fn multi_worker_run_is_deterministic() {
        // The reorder window makes concurrent runs reproducible too: the
        // strategy sees one canonical next/report interleaving no matter
        // which worker finishes first.
        let a = run(TransferScheme::Lcs, StrategyKind::Evolution, 20, 3);
        let b = run(TransferScheme::Lcs, StrategyKind::Evolution, 20, 3);
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!((x.id, &x.arch, x.parent), (y.id, &y.arch, y.parent));
            assert_eq!(x.score, y.score, "candidate {} diverged", x.id);
            assert_eq!(x.transfer_tensors, y.transfer_tensors);
        }
    }
}
