//! The NAS scheduler: strategy loop + pluggable evaluation backend (Fig. 6).
//!
//! The strategy/top-K loop is backend-agnostic: it speaks to an
//! [`EvalBackend`] (in-process thread pool, or the `swt-dist` multi-process
//! coordinator) and is **deterministic by construction** regardless of the
//! backend's completion timing. Results are reported to the strategy in
//! candidate-id order through a reorder buffer. Candidate `k + W` is
//! proposed after report `k` at the latest (`W` = `capacity`, after an
//! initial burst of `W`); a proposal that reads no score (evolution's
//! warm-up) may go earlier, to an evaluator left idle by the reorder
//! buffer. Proposals stay in id order and none is made after its canonical
//! point, so every candidate's architecture, parent and seed is a function
//! of `(config, seed)` alone — the same whether candidates run on threads,
//! processes, or a degraded worker pool after failures — which is what
//! makes the distributed backend's results bit-identical to the in-process
//! runner's (DESIGN.md §10).

use crate::backend::{BackendResult, EvalBackend, ThreadPoolBackend};
use crate::candidate::{Candidate, CandidateId, ScoredCandidate};
use crate::strategy::{ProviderPolicy, RandomSearch, RegularizedEvolution, SearchStrategy};
use crate::trace::{NasTrace, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use swt_checkpoint::CheckpointStore;
use swt_core::TransferScheme;
use swt_data::AppProblem;
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
    // worker saves is a memory hit for whichever trains its child.
    let store = provider_store(store, cfg.cache_bytes, cfg.scheme);
    let app = problem.kind.name().to_string();
    let mut backend = ThreadPoolBackend::new(problem, Arc::clone(&space), store, cfg);
    // The in-process backend's channels cannot fail while the runner holds
    // both endpoints' peers; an error here means an evaluator panicked.
    run_nas_with_backend(&app, space, cfg, &mut backend).expect("in-process evaluation failed")
}

/// The store evaluators read providers from: `store` fronted by a
/// [`CachedStore`](swt_checkpoint::CachedStore) capped at `cache_bytes`
/// when the cap is nonzero and `scheme` has a matcher, else `store` itself
/// (without a transfer scheme nothing is ever read back, so nothing is
/// held). The in-process pool and each dist worker build theirs here.
pub fn provider_store(
    store: Arc<dyn CheckpointStore>,
    cache_bytes: u64,
    scheme: TransferScheme,
) -> Arc<dyn CheckpointStore> {
    if cache_bytes > 0 && scheme.matcher().is_some() {
        Arc::new(swt_checkpoint::CachedStore::new(store, cache_bytes))
    } else {
        store
    }
}

/// Dispatches candidates stamped with the lineage watermark
/// ([`Candidate::live_from`]): the oldest id that the strategy or a
/// candidate still out for evaluation can name as provider. Results are reported in dispatch order, so the parents of
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
/// sequentially by the strategy; the first `W = capacity` candidates are
/// submitted up front, completions are reported to the strategy strictly in
/// id order (out-of-order arrivals wait in a reorder buffer), and report
/// `k` is followed by the proposal of `k + W` unless that id was already
/// proposed. The one earlier proposal: before blocking on a result with
/// fewer than `W` candidates in flight, the runner proposes the next id
/// `j` if `j + 1 < score_free_below + W`, i.e. if `j`'s canonical point
/// (after `j + 1 − W` reports) still lies where the strategy reads no
/// score. Since `report` draws nothing from the RNG, every candidate's
/// architecture, parent and seed depends only on `(cfg, seed)`, never on
/// completion timing, worker count degradation, or result reassignment.
pub fn run_nas_with_backend<B: EvalBackend>(
    app: &str,
    space: Arc<SearchSpace>,
    cfg: &NasConfig,
    backend: &mut B,
) -> io::Result<NasTrace> {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.total_candidates > 0, "need at least one candidate");

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
    // Ids below this may be proposed as soon as an evaluator is idle: the
    // first `window` are due at the start, and the rest read no score at
    // their canonical point.
    let early = strategy.score_free_below().saturating_add(window - 1).min(total).max(window);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(total);
    let mut dispatched = 0usize;
    // Results are reported to the strategy in id order; arrivals beyond the
    // next expected id wait here. Each entry is one small result, never a
    // model. Proposing ahead lets the buffer grow past `window`: up to the
    // warm-up's size under evolution, up to `total` under random search.
    let mut buffer: BTreeMap<u64, BackendResult> = BTreeMap::new();
    let mut next_report = 0u64;

    let mut lineage = Lineage::default();
    let dispatch_one = |strategy: &mut Box<dyn SearchStrategy>,
                        rng: &mut Rng,
                        backend: &mut B,
                        lineage: &mut Lineage,
                        next_report: u64| {
        let cand = {
            let _span = swt_obs::span!("nas.strategy_next");
            strategy.next(rng)
        };
        // Only a reported id is retired: its save is done. (A save landing
        // after its own retirement would stay resident, nobody left to
        // retire it.)
        let floor = strategy.live_from().min(next_report);
        lineage.submit(backend, cand, floor)
    };

    while (next_report as usize) < total {
        // Fill idle evaluators: at the start, and while the buffer holds
        // results and the next proposal reads no score.
        while dispatched < early && dispatched - next_report as usize - buffer.len() < window {
            if dispatched >= next_report as usize + window {
                swt_obs::counter!("nas.dispatched_ahead").inc();
            }
            dispatch_one(&mut strategy, &mut rng, backend, &mut lineage, next_report)?;
            dispatched += 1;
        }
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
            // The canonical point of `next_report - 1 + window`: propose it
            // unless it went ahead.
            if dispatched < (next_report as usize + window).min(total) {
                dispatch_one(&mut strategy, &mut rng, backend, &mut lineage, next_report)?;
                dispatched += 1;
            }
        }
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
        let _budget = crate::backend::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
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
        let _budget = crate::backend::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
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
        let _budget = crate::backend::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let trace = run_nas(problem, space, store_dyn, &cfg);
        for e in &trace.events {
            assert!(store.exists(&format!("runA_c{}", e.id)));
            assert!(!store.exists(&format!("c{}", e.id)));
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
