//! Fig. 9: Kendall's tau between one-epoch estimated scores and
//! fully-trained objective metrics, per scheme.
//!
//! A sample of the estimation-phase candidates of each run is trained to
//! convergence; tau measures how faithfully the estimates rank the
//! candidates. Paper finding: tau improves significantly under LP/LCS for
//! CIFAR-10, NT3 and Uno (LCS ≥ LP), and is unchanged on MNIST — this is
//! *why* weight transfer discovers better models (Section VIII-D).
//!
//! The paper's tau counts tied pairs as discordant, so a saturated task (every
//! fully trained metric 1.0) reads strongly negative under every scheme.
//! Beside it the CSV carries the tie-corrected tau-b and the tied pairs behind
//! both, summed over the seeds.

use std::sync::Arc;
use swt_core::TransferScheme;
use swt_experiments::{print_table, write_csv, ExpCtx};
use swt_nas::{full_train_sample, StrategyKind};
use swt_space::SearchSpace;
use swt_stats::{kendall_tau, kendall_tau_b, ConcordanceCounts, Summary};

const MAX_EPOCHS: usize = 20;

fn main() {
    let ctx = ExpCtx::from_args();
    // Paper: 100 of 400; scaled proportionally to the candidate budget and
    // capped — every sampled candidate costs a full training run.
    let sample_n = (ctx.candidates / 4).clamp(10, 34);
    let mut rows = Vec::new();
    for &app in &ctx.apps {
        let problem = ctx.problem(app);
        let space = Arc::new(SearchSpace::for_app(app));
        for scheme in TransferScheme::all() {
            let (mut taus, mut taus_b) = (Vec::new(), Vec::new());
            let (mut tied, mut pairs_n) = (0, 0);
            for &seed in &ctx.seeds {
                let (trace, store) = ctx.run_or_load(app, scheme, StrategyKind::Evolution, seed);
                eprintln!(
                    "[tau  ] {} {} seed {seed}: fully training {sample_n} sampled candidates",
                    app.name(),
                    scheme.name()
                );
                let pairs = full_train_sample(
                    &problem,
                    Arc::clone(&space),
                    store,
                    &trace,
                    sample_n,
                    MAX_EPOCHS,
                    seed ^ 0xF19,
                );
                let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                taus.push(kendall_tau(&x, &y));
                taus_b.push(kendall_tau_b(&x, &y));
                let counts = ConcordanceCounts::count(&x, &y);
                tied += counts.total() - counts.concordant - counts.discordant;
                pairs_n += counts.total();
            }
            let s = Summary::of(&taus);
            rows.push(vec![
                app.name().to_string(),
                scheme.name().to_string(),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.std_dev),
                format!("{:.3}", Summary::of(&taus_b).mean),
                tied.to_string(),
                pairs_n.to_string(),
            ]);
        }
    }
    print_table(
        "Fig. 9 — Kendall's tau: estimated score vs fully-trained metric",
        &["App", "Scheme", "Mean tau", "Std", "Mean tau-b", "Tied pairs", "Pairs"],
        &rows,
    );
    write_csv(
        &ctx.out.join("fig9.csv"),
        &["app", "scheme", "mean_tau", "std_tau", "mean_tau_b", "tied_pairs", "pairs"],
        &rows,
    );
    println!("\nPaper reference: tau significantly higher for LP/LCS on CIFAR-10/NT3/Uno;");
    println!("LCS > LP on those apps; MNIST unchanged.");
}
