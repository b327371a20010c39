//! Integration: the full two-phase pipeline of the paper — estimation NAS,
//! top-K selection, then full training with early stopping — all through
//! the `swt` facade.

use std::sync::Arc;
use swt::prelude::*;

#[test]
fn estimate_then_fully_train_top_k() {
    let app = AppKind::Uno;
    let problem = Arc::new(app.problem(DataScale::Quick, 42));
    let space = Arc::new(SearchSpace::for_app(app));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());

    // Phase one: candidate estimation with LCS transfer.
    let cfg = NasConfig::quick(TransferScheme::Lcs, 10, 2, 7);
    let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg);
    assert_eq!(trace.events.len(), 10);
    assert!(trace.wall_secs > 0.0);

    // Top-K selection is by estimated score, descending.
    let top = trace.top_k(3);
    assert_eq!(top.len(), 3);
    assert!(top.windows(2).all(|w| w[0].score >= w[1].score));

    // Phase two: full training of the top 3 for up to 5 epochs.
    let report = full_train_top_k(&problem, Arc::clone(&space), Arc::clone(&store), &trace, 3, 5);
    assert_eq!(report.outcomes.len(), 3);
    for o in &report.outcomes {
        assert!(o.metric_early_stop.is_finite(), "c{}", o.id);
        assert!(o.metric_full.is_finite(), "c{}", o.id);
        assert!(o.epochs_early_stop >= 1 && o.epochs_early_stop <= 5, "c{}", o.id);
        assert!(o.params > 0, "c{}", o.id);
    }
    assert!(report.mean_epochs() >= 1.0);
}

#[test]
fn pair_experiment_runs_over_a_trace() {
    // The paper's pairwise transfer experiment (Fig. 2 machinery) end to
    // end: sample provider/receiver pairs from a finished trace and score
    // the transfer benefit.
    let app = AppKind::Uno;
    let problem = Arc::new(app.problem(DataScale::Quick, 42));
    let space = Arc::new(SearchSpace::for_app(app));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let cfg = NasConfig::quick(TransferScheme::Lcs, 6, 2, 3);
    let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg);

    let outcomes = run_pair_experiment(&problem, space, store, &trace, 8, 5, false);
    assert_eq!(outcomes.len(), 8);
    let summary = PairSummary::of(&outcomes);
    assert!((0.0..=1.0).contains(&summary.shareable));
}
