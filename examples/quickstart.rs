//! Quickstart: run a small NAS with selective weight transfer and print the
//! best discovered architectures.
//!
//! ```sh
//! cargo run --release -p swt --example quickstart
//! ```

use std::sync::Arc;
use swt::prelude::*;

fn main() {
    // 1. Pick an application. `AppKind` bundles the synthetic dataset, the
    //    loss/metric and the paper's per-app hyperparameters (Table I).
    let app = AppKind::Uno;
    let problem = Arc::new(app.problem(DataScale::Quick, 42));
    println!(
        "{}: {} train / {} val samples, objective {:?}",
        app.name(),
        problem.train.len(),
        problem.val.len(),
        problem.metric
    );

    // 2. The search space (Section VII-A) and a checkpoint store.
    let space = Arc::new(SearchSpace::for_app(app));
    println!(
        "search space: {} variable nodes, ~{:.2e} candidate models",
        space.num_nodes(),
        space.size()
    );
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());

    // 3. Run regularized evolution with LCS weight transfer (Algorithm 1):
    //    every mutated child is initialised from its parent's checkpoint.
    let cfg = NasConfig::quick(TransferScheme::Lcs, 40, 2, 7);
    let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg);
    println!(
        "\nevaluated {} candidates in {:.1}s ({} transferred weights from a parent)",
        trace.events.len(),
        trace.wall_secs,
        trace.events.iter().filter(|e| e.transfer_tensors > 0).count()
    );

    // 4. Inspect the top-5 candidates by estimated score.
    println!("\ntop-5 candidates by one-epoch estimate:");
    for e in trace.top_k(5) {
        println!(
            "  c{:<3} score {:.4}  arch {}  (parent: {})",
            e.id,
            e.score,
            e.arch,
            e.parent.map(|p| format!("c{p}")).unwrap_or_else(|| "none".into()),
        );
    }

    // 5. Phase two: fully train the top-3 for 20 epochs; the paper's early
    // stop is read off each one's validation curve.
    let report = full_train_top_k(&problem, space, store, &trace, 3, 20);
    println!("\nfull training of the top-3 (early stopping, patience 2):");
    for o in &report.outcomes {
        println!(
            "  c{:<3} estimate {:.4} -> converged {:.4} in {} epochs ({} params)",
            o.id, o.estimate, o.metric_early_stop, o.epochs_early_stop, o.params
        );
    }
}
