//! Phase two of NAS: full training of the top-K candidates (Section VIII-B).
//!
//! Every scheme (baseline included) resumes each top candidate from its
//! estimation-phase checkpoint and trains it once, for the 20-epoch cap;
//! the paper's early stop (threshold per app, patience 2) is read off that
//! run's validation curve, which a run with the rule on shares up to its
//! stop. Models discovered with weight transfer have inherited training
//! through chains of parent transfers, so they converge in fewer epochs —
//! the paper's 1.4–1.5× speedup mechanism.

use crate::evaluator::candidate_seed;
use crate::trace::NasTrace;
use std::sync::Arc;
use swt_checkpoint::CheckpointStore;
use swt_data::AppProblem;
use swt_nn::{AdamConfig, EarlyStop, Model, TrainConfig, Trainer};
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

/// How phase two trains a restored candidate: the app's batch size and
/// learning rate, `epochs` at most, shuffled by `shuffle_seed`.
fn train_config(
    problem: &AppProblem,
    epochs: usize,
    shuffle_seed: u64,
    early_stop: Option<EarlyStop>,
) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: problem.batch_size,
        adam: AdamConfig { lr: problem.lr, ..Default::default() },
        shuffle_seed,
        early_stop,
        convergence: None,
    }
}

/// Fully train the `k` best-scored candidates of a trace (equal scores go
/// to the lower id), each resumed from its estimation checkpoint and
/// trained once for `max_epochs`, the paper's 20-epoch cap. The early stop
/// is where `problem.early_stop` fires on that run's validation curve, or
/// the cap if it never does.
pub fn full_train_top_k(
    problem: &AppProblem,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    trace: &NasTrace,
    k: usize,
    max_epochs: usize,
) -> TopKReport {
    let trainer = Trainer::new(problem.loss, problem.metric);
    let outcomes = trace
        .top_k(k)
        .into_iter()
        .map(|event| {
            let cfg = train_config(problem, max_epochs, trace.seed ^ event.id ^ 0xF011, None);
            let mut model = restore_candidate(&space, &*store, trace.seed, event.id, &event.arch);
            let report = trainer.fit(&mut model, &problem.train, &problem.val, &cfg);
            let curve: Vec<f64> = report.records.iter().map(|r| r.val_metric).collect();
            let stop = problem.early_stop.stop_epoch(&curve).unwrap_or(curve.len());
            FullTrainOutcome {
                id: event.id,
                estimate: event.score,
                epochs_early_stop: stop,
                metric_early_stop: curve[stop - 1],
                metric_full: report.final_metric,
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
        let shuffle_seed = trace.seed ^ event.id ^ 0x516;
        let cfg = train_config(problem, max_epochs, shuffle_seed, Some(problem.early_stop));
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
        let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg);
        (problem, space, store, trace)
    }

    #[test]
    fn full_training_improves_or_matches_estimates() {
        let (problem, space, store, trace) = setup();
        let report = full_train_top_k(&problem, space, store, &trace, 3, 8);
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

    /// One 20-epoch fit per model reads the same early stop, to the bit, as
    /// a separate fit of the same restored model with the rule on.
    #[test]
    fn the_curve_gives_the_early_stop_of_a_stopping_fit() {
        let (problem, space, store, trace) = setup();
        let report =
            full_train_top_k(&problem, Arc::clone(&space), Arc::clone(&store), &trace, 4, 20);
        assert_eq!(report.outcomes.len(), 4);
        let trainer = Trainer::new(problem.loss, problem.metric);
        let mut stopped = 0;
        for (o, event) in report.outcomes.iter().zip(trace.top_k(4)) {
            let mut model = restore_candidate(&space, &*store, trace.seed, o.id, &event.arch);
            let shuffle_seed = trace.seed ^ o.id ^ 0xF011;
            let cfg = train_config(&problem, 20, shuffle_seed, Some(problem.early_stop));
            let es = trainer.fit(&mut model, &problem.train, &problem.val, &cfg);
            assert_eq!(o.epochs_early_stop, es.epochs_run, "c{}", o.id);
            assert_eq!(o.metric_early_stop.to_bits(), es.final_metric.to_bits(), "c{}", o.id);
            stopped += usize::from(o.epochs_early_stop < 20);
        }
        assert!(stopped > 0, "no model stopped early, so nothing was compared");
    }

    /// A diverged candidate (NaN score) ranks below every finite one
    /// instead of panicking the ranking.
    #[test]
    fn nan_score_ranks_last() {
        let (problem, space, store, mut trace) = setup();
        trace.events.truncate(2);
        trace.events[0].score = f64::NAN;
        let report = full_train_top_k(&problem, space, store, &trace, 2, 1);
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![trace.events[1].id, trace.events[0].id]);
    }

    #[test]
    fn k_larger_than_trace_is_clamped() {
        let (problem, space, store, trace) = setup();
        let report = full_train_top_k(&problem, space, store, &trace, 500, 2);
        assert_eq!(report.outcomes.len(), trace.events.len());
    }
}
