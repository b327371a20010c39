//! Scheme comparison: run the same NAS budget under Baseline, LP and LCS on
//! one application and compare discovery curves and top models — a miniature
//! of the paper's Figs. 7/8.
//!
//! ```sh
//! cargo run --release -p swt --example nas_search [cifar10|mnist|nt3|uno]
//! ```

use std::sync::Arc;
use swt::prelude::*;

fn main() {
    let app = match std::env::args().nth(1).as_deref() {
        Some("cifar10") => AppKind::Cifar10,
        Some("mnist") => AppKind::Mnist,
        Some("nt3") => AppKind::Nt3,
        _ => AppKind::Uno,
    };
    let candidates = 60;
    println!("app: {}, {} candidates per scheme\n", app.name(), candidates);

    let problem = Arc::new(app.problem(DataScale::Quick, 42));
    let space = Arc::new(SearchSpace::for_app(app));

    let mut results = Vec::new();
    for scheme in TransferScheme::all() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig::quick(scheme, candidates, 2, 7);
        let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &cfg);

        // Best-so-far curve over completion order (Fig. 7 in miniature).
        let mut best = f64::NEG_INFINITY;
        let curve: Vec<f64> = trace
            .by_completion()
            .iter()
            .map(|e| {
                best = best.max(e.score);
                best
            })
            .collect();
        let quartiles: Vec<String> =
            [candidates / 4, candidates / 2, 3 * candidates / 4, candidates - 1]
                .iter()
                .map(|&i| format!("{:.3}", curve[i]))
                .collect();
        println!(
            "{:<8} best-so-far at 25/50/75/100% of budget: {}",
            scheme.name(),
            quartiles.join(" / ")
        );

        // Phase two on the top-5.
        let report = full_train_top_k(&problem, Arc::clone(&space), store, &trace, 5, 20);
        let metrics: Vec<f64> = report.metrics_early();
        results.push((scheme, report.mean_epochs(), Summary::of(&metrics)));
    }

    println!("\nfull training of each scheme's top-5 (early stopping):");
    for (scheme, epochs, metrics) in &results {
        println!(
            "{:<8} mean epochs to converge {:>5.2}   final metric {}",
            scheme.name(),
            epochs,
            metrics.pm(3)
        );
    }
    let baseline = results[0].1;
    for (scheme, epochs, _) in &results[1..] {
        println!(
            "{:<8} full-training speedup vs baseline: {:.2}x",
            scheme.name(),
            baseline / epochs
        );
    }
}
