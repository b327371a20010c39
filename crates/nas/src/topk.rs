//! Phase two of NAS: full training of the top-K candidates (Section VIII-B).
//!
//! Every scheme (baseline included) resumes each top candidate from its
//! estimation-phase checkpoint and trains until the paper's early-stopping
//! rule fires (threshold per app, patience 2) or a 20-epoch cap. Models
//! discovered with weight transfer have inherited training through chains of
//! parent transfers, so they converge in fewer epochs — the paper's
//! 1.4–1.5× speedup mechanism.

use crate::evaluator::candidate_seed;
use crate::trace::NasTrace;
use std::sync::Arc;
use swt_checkpoint::CheckpointStore;
use swt_data::AppProblem;
use swt_nn::{AdamConfig, Model, TrainConfig, Trainer};
use swt_space::SearchSpace;

/// Result of fully training one top candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct FullTrainOutcome {
    pub id: u64,
    /// Score from the estimation phase.
    pub estimate: f64,
    /// Epochs until early stopping fired (the bar heights of Fig. 8).
    pub epochs_early_stop: usize,
    /// Objective metric at early stop (blue lines of Fig. 8, Table III).
    pub metric_early_stop: f64,
    /// Objective metric after the full 20 epochs (orange lines of Fig. 8).
    pub metric_full: f64,
    /// Trainable parameter count (Table IV).
    pub params: usize,
}

/// Aggregated top-K report for one NAS run.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKReport {
    pub outcomes: Vec<FullTrainOutcome>,
}

impl TopKReport {
    /// Mean epochs to convergence under early stopping.
    pub fn mean_epochs(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.epochs_early_stop as f64).sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Early-stopped metrics of all outcomes.
    pub fn metrics_early(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.metric_early_stop).collect()
    }

    /// Fully-trained metrics of all outcomes.
    pub fn metrics_full(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.metric_full).collect()
    }

    /// Parameter counts of all outcomes.
    pub fn params(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.params as f64).collect()
    }
}

/// Rebuild a candidate exactly as the estimation phase left it: same spec,
/// same init seed, then the checkpoint restored on top.
fn restore_candidate(
    space: &SearchSpace,
    store: &dyn CheckpointStore,
    run_seed: u64,
    id: u64,
    arch: &swt_space::ArchSeq,
) -> Model {
    let spec = space.materialize(arch).expect("trace contains only valid candidates");
    let mut model = Model::build(&spec, candidate_seed(run_seed, id)).unwrap();
    if let Ok(ckpt) = store.load(&format!("c{id}")) {
        let (_, skipped) = model.load_state_dict(&ckpt);
        debug_assert_eq!(skipped, 0, "own checkpoint must restore cleanly");
    }
    model
}

/// Fully train the top-`k` candidates of a trace, with and without early
/// stopping, resuming from their estimation checkpoints.
///
/// `max_epochs` is the paper's 20-epoch cap; `cutoff_secs` restricts the
/// eligible candidates to those discovered before a time budget (the paper
/// compares schemes at the duration of the *shortest* experiment,
/// Section VIII-C) — pass `f64::INFINITY` for no cutoff.
pub fn full_train_top_k(
    problem: &AppProblem,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    trace: &NasTrace,
    k: usize,
    max_epochs: usize,
    cutoff_secs: f64,
) -> TopKReport {
    let mut eligible: Vec<_> = trace.events.iter().filter(|e| e.t_end <= cutoff_secs).collect();
    eligible.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap().then(a.t_end.partial_cmp(&b.t_end).unwrap())
    });
    eligible.truncate(k);

    let trainer = Trainer::new(problem.loss, problem.metric);
    let outcomes = eligible
        .into_iter()
        .map(|event| {
            let base_cfg = TrainConfig {
                epochs: max_epochs,
                batch_size: problem.batch_size,
                adam: AdamConfig { lr: problem.lr, ..Default::default() },
                shuffle_seed: trace.seed ^ event.id ^ 0xF011,
                early_stop: None,
                convergence: None,
            };
            // Early-stopping run.
            let mut model = restore_candidate(&space, &*store, trace.seed, event.id, &event.arch);
            let es_cfg = TrainConfig { early_stop: Some(problem.early_stop), ..base_cfg.clone() };
            let es_report = trainer.fit(&mut model, &problem.train, &problem.val, &es_cfg);
            // Full run without early stopping (fresh restore).
            let mut model = restore_candidate(&space, &*store, trace.seed, event.id, &event.arch);
            let full_report = trainer.fit(&mut model, &problem.train, &problem.val, &base_cfg);
            FullTrainOutcome {
                id: event.id,
                estimate: event.score,
                epochs_early_stop: es_report.epochs_run,
                metric_early_stop: es_report.final_metric,
                metric_full: full_report.final_metric,
                params: model.param_count(),
            }
        })
        .collect();
    TopKReport { outcomes }
}

/// Fig. 9's harness: fully train a random sample of `n` candidates from the
/// estimation phase (resuming from their checkpoints, early stopping
/// enabled) and return `(estimate, ground_truth)` pairs for rank-correlation
/// analysis. Runs candidates in parallel within the process thread budget.
pub fn full_train_sample(
    problem: &AppProblem,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    trace: &NasTrace,
    n: usize,
    max_epochs: usize,
    sample_seed: u64,
) -> Vec<(f64, f64)> {
    let mut rng = swt_tensor::Rng::seed(sample_seed);
    let mut idx: Vec<usize> = (0..trace.events.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(n);
    let trainer = Trainer::new(problem.loss, problem.metric);
    swt_tensor::parallel::par_map(&idx, |_, &i| {
        let event = &trace.events[i];
        let mut model = restore_candidate(&space, &*store, trace.seed, event.id, &event.arch);
        let cfg = TrainConfig {
            epochs: max_epochs,
            batch_size: problem.batch_size,
            adam: AdamConfig { lr: problem.lr, ..Default::default() },
            shuffle_seed: trace.seed ^ event.id ^ 0x516,
            early_stop: Some(problem.early_stop),
            convergence: None,
        };
        let report = trainer.fit(&mut model, &problem.train, &problem.val, &cfg);
        (event.score, report.final_metric)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_nas, NasConfig, StrategyKind};
    use swt_checkpoint::MemStore;
    use swt_core::TransferScheme;
    use swt_data::{AppKind, DataScale};

    fn setup() -> (Arc<AppProblem>, Arc<SearchSpace>, Arc<dyn CheckpointStore>, NasTrace) {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 21));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig {
            strategy: StrategyKind::Evolution,
            ..NasConfig::quick(TransferScheme::Lcs, 12, 2, 9)
        };
        let trace = {
            let _budget = crate::backend::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
            run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg)
        };
        (problem, space, store, trace)
    }

    #[test]
    fn full_training_improves_or_matches_estimates() {
        let (problem, space, store, trace) = setup();
        let report = full_train_top_k(&problem, space, store, &trace, 3, 8, f64::INFINITY);
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert!(o.epochs_early_stop >= 1 && o.epochs_early_stop <= 8);
            assert!(o.params > 0);
            assert!(o.metric_full.is_finite());
            // Top candidates are sorted by estimate.
        }
        let estimates: Vec<f64> = report.outcomes.iter().map(|o| o.estimate).collect();
        assert!(estimates.windows(2).all(|w| w[0] >= w[1]), "sorted by estimate: {estimates:?}");
        assert!(report.mean_epochs() >= 1.0);
    }

    #[test]
    fn cutoff_excludes_late_candidates() {
        let (problem, space, store, trace) = setup();
        let mid = trace.by_completion()[trace.events.len() / 2].t_end;
        let report = full_train_top_k(&problem, space, store, &trace, 100, 2, mid);
        assert!(report.outcomes.len() <= trace.events.len() / 2 + 1);
        assert!(!report.outcomes.is_empty());
    }

    #[test]
    fn k_larger_than_trace_is_clamped() {
        let (problem, space, store, trace) = setup();
        let report = full_train_top_k(&problem, space, store, &trace, 500, 2, f64::INFINITY);
        assert_eq!(report.outcomes.len(), trace.events.len());
    }
}
