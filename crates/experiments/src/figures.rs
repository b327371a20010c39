//! The paper's tables and figures, one function each, with the shape each
//! one reports as a predicate over its shown table.
//!
//! Each figure's shown table is deterministic except where its title says
//! "wall-dependent": Fig. 11's training seconds and Fig. 10's replayed
//! costs come from measured wall times.

use crate::{check, fulltrain, pct, Check, ExpCtx, Figure, Table};
use std::sync::Arc;
use swt_checkpoint::{CheckpointStore, MemStore};
use swt_cluster::{simulate, task_costs, ClusterConfig};
use swt_core::TransferScheme;
use swt_data::{AppKind, DataScale};
use swt_nas::{
    full_train_sample, run_distance_experiment, run_nas, run_pair_experiment, NasConfig, NasTrace,
    PairSummary, ProviderPolicy, StrategyKind,
};
use swt_nn::{Loss, Metric};
use swt_space::SearchSpace;
use swt_stats::{kendall_tau, kendall_tau_b, mean, ConcordanceCounts, SlotBinner, Summary};

/// Every figure by name, in the order `all` runs them: fig7's searches come
/// before fig8, fig9 and the tables that reuse them.
pub const FIGURES: [(&str, FigureFn); 12] = [
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ablation", ablation),
    ("table1", table1),
    ("table3", table3),
    ("table4", table4),
    ("fig10", fig10),
    ("fig11", fig11),
];

/// A figure's computation.
pub type FigureFn = fn(&ExpCtx) -> Figure;

/// Row order of the tables built from the fully trained top models.
const FULL_TRAIN_ORDER: [&str; 3] = ["Baseline", "LCS", "LP"];

fn space(app: AppKind) -> Arc<SearchSpace> {
    Arc::new(SearchSpace::for_app(app))
}

/// The analysis trace of Figs. 2/4/5: random search, baseline init
/// (Section III).
fn random_run(ctx: &ExpCtx, app: AppKind) -> (NasTrace, Arc<dyn CheckpointStore>) {
    ctx.run_or_load(app, TransferScheme::Baseline, StrategyKind::Random, 101)
}

/// The scores of the last third of a run's candidates in id order: the
/// "after the warm-up" sample of Fig. 7's summary and the ablation. Id
/// order is canonical, so the tail does not depend on the wall clock.
pub fn tail(trace: &NasTrace) -> Vec<f64> {
    let mut events: Vec<_> = trace.events.iter().collect();
    events.sort_by_key(|e| e.id);
    events[events.len() * 2 / 3..].iter().map(|e| e.score).collect()
}

/// Table I: the applications and their (scaled) search spaces.
pub fn table1(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new("table1", "app,train,val,space_size,vns,loss,objective");
    for &app in &ctx.apps {
        let space = SearchSpace::for_app(app);
        let (train_n, val_n) = app.sizes(DataScale::Full);
        let dims: Vec<String> = app
            .input_shapes()
            .iter()
            .map(|s| s.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x"))
            .collect();
        let size = space.size();
        let human = [("T", 1e12), ("B", 1e9), ("M", 1e6), ("K", 1e3)]
            .iter()
            .find(|(_, scale)| size >= *scale)
            .map_or(format!("{size:.0}"), |(suffix, scale)| format!("{:.1}{suffix}", size / scale));
        t.push(vec![
            app.name().to_string(),
            format!("{}x({})", train_n, dims.join(" + ")),
            format!("{val_n}x(...)"),
            human,
            space.num_nodes().to_string(),
            match app.loss() {
                Loss::CategoricalCrossEntropy => "CE".into(),
                Loss::MeanAbsoluteError => "MAE".into(),
            },
            match app.metric() {
                Metric::Accuracy => "ACC".into(),
                Metric::RSquared => "R2".into(),
            },
        ]);
    }
    Figure {
        title: "Table I — applications and search spaces (scaled reproduction)",
        paper: "CIFAR-10 2558T models / 21 VNs, MNIST 120M / 11, NT3 3M / 8, Uno 302T / 13",
        tables: vec![t],
        shape: table1_shape,
    }
}

fn table1_shape(t: &Table) -> Vec<Check> {
    let mut apps = t.apps();
    apps.sort_by(|a, b| t.get(&[b], "space_size").total_cmp(&t.get(&[a], "space_size")));
    let sizes: Vec<String> =
        apps.iter().map(|a| format!("{a} {}", t.cell(&[a], "space_size"))).collect();
    let mut checks = vec![check(
        "space sizes rank CIFAR-10 > Uno > MNIST > NT3",
        apps == ["CIFAR-10", "Uno", "MNIST", "NT3"],
        sizes.join(" > "),
    )];
    for app in t.apps() {
        let paper = match app {
            "CIFAR-10" => 21.0,
            "MNIST" => 11.0,
            "NT3" => 8.0,
            _ => 13.0,
        };
        let vns = t.get(&[app], "vns");
        let claim = format!("{app} has the paper's {paper} VNs");
        checks.push(check(claim, vns == paper, vns.to_string()));
    }
    checks
}

/// Fig. 2: the share of candidate pairs that are *shareable* (at least one
/// tensor of identical shape).
pub fn fig2(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new("fig2", "app,pairs,shareable_pct");
    for &app in &ctx.apps {
        let (trace, store) = random_run(ctx, app);
        // Structural-only pass: 10x the trained-pair budget is still cheap.
        let n = ctx.pairs * 10;
        let outcomes =
            run_pair_experiment(&ctx.problem(app), space(app), store, &trace, n, 2025, false);
        let s = PairSummary::of(&outcomes);
        t.push(vec![app.name().to_string(), s.pairs.to_string(), pct(s.shareable)]);
    }
    Figure {
        title: "Fig. 2 — shareable pairs of a random-search trace",
        paper: "CIFAR-10 ≈ 100%, Uno ≈ 100%, MNIST 54%, NT3 40%",
        tables: vec![t],
        shape: fig2_shape,
    }
}

fn fig2_shape(t: &Table) -> Vec<Check> {
    let share = |app| t.get(&[app], "shareable_pct");
    let mut checks = Vec::new();
    for app in t.apps() {
        let paper = match app {
            "MNIST" => 54.0,
            "NT3" => 40.0,
            _ => 100.0,
        };
        let v = share(app);
        let claim = format!("{app} within 10 points of the paper's {paper}%");
        checks.push(check(claim, (v - paper).abs() <= 10.0, format!("{v:.1}%")));
    }
    let (high, low) = (share("CIFAR-10").min(share("Uno")), share("MNIST").max(share("NT3")));
    let claim = "CIFAR-10 and Uno share more pairs than MNIST and NT3";
    checks.push(check(claim, high > low, format!("{high:.1}% vs {low:.1}%")));
    checks
}

/// Fig. 4: scope and effectiveness of LP and LCS for *random* provider and
/// receiver pairs. Each receiver trains one epoch from random init and from
/// the transferred init; a transferable pair is positive when the transfer
/// wins.
pub fn fig4(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new(
        "fig4",
        "app,matcher,transferable_pct,positive_pct,negative_pct,positive_rate_pct",
    );
    for &app in &ctx.apps {
        let (trace, store) = random_run(ctx, app);
        swt_obs::info!("swt_experiments", "pairs {}: {} receiver pairs x3", app.name(), ctx.pairs);
        let outcomes =
            run_pair_experiment(&ctx.problem(app), space(app), store, &trace, ctx.pairs, 404, true);
        let s = PairSummary::of(&outcomes);
        for (matcher, transferable, positive, negative) in [
            ("LCS", s.lcs_transferable, s.lcs_positive, s.lcs_negative),
            ("LP", s.lp_transferable, s.lp_positive, s.lp_negative),
        ] {
            let rate = if transferable > 0.0 { positive / transferable } else { 0.0 };
            t.push(vec![
                app.name().to_string(),
                matcher.to_string(),
                pct(transferable),
                pct(positive),
                pct(negative),
                pct(rate),
            ]);
        }
    }
    Figure {
        title: "Fig. 4 — scope and effectiveness of LP/LCS on random pairs",
        paper: "LCS transferable ≈ 100% (CIFAR-10, Uno), ≥ 42% (MNIST, NT3), LP less; \
                positive|transferable MNIST 65%, NT3/Uno 53–57%, CIFAR-10 below 50%",
        tables: vec![t],
        shape: fig4_shape,
    }
}

fn fig4_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let (lcs, lp) =
            (t.get(&[app, "LCS"], "transferable_pct"), t.get(&[app, "LP"], "transferable_pct"));
        let claim = format!("{app}: LCS transferable ≥ LP transferable");
        checks.push(check(claim, lcs >= lp, format!("{lcs:.1}% vs {lp:.1}%")));
        // CIFAR-10 is the paper's one app where a random provider hurts.
        let rate = t.get(&[app, "LCS"], "positive_rate_pct");
        let (side, ok) =
            if app == "CIFAR-10" { ("below", rate < 50.0) } else { ("above", rate > 50.0) };
        let claim = format!("{app}: LCS positive|transferable {side} 50%");
        checks.push(check(claim, ok, format!("{rate:.1}%")));
    }
    checks
}

/// Fig. 5: transfer outcome against the architecture distance `d` between
/// provider and receiver.
pub fn fig5(ctx: &ExpCtx) -> Figure {
    const MAX_D: usize = 6;
    let mut t = Table::new(
        "fig5", "app,d,pairs,lcs_transferable,lcs_positive,lcs_negative,lp_transferable,lp_positive,lp_negative"
    );
    for &app in &ctx.apps {
        let (trace, store) = random_run(ctx, app);
        let per_d = (ctx.pairs / MAX_D).max(10);
        swt_obs::info!("swt_experiments", "pairs {}: {per_d} pairs per distance x3", app.name());
        let problem = ctx.problem(app);
        let outcomes =
            run_distance_experiment(&problem, space(app), store, &trace, per_d, MAX_D, 505);
        for (d, s) in PairSummary::by_distance(&outcomes, MAX_D) {
            if s.pairs == 0 {
                continue;
            }
            t.push(vec![
                app.name().to_string(),
                if d == MAX_D { format!("{d}+") } else { d.to_string() },
                s.pairs.to_string(),
                pct(s.lcs_transferable),
                pct(s.lcs_positive),
                pct(s.lcs_negative),
                pct(s.lp_transferable),
                pct(s.lp_positive),
                pct(s.lp_negative),
            ]);
        }
    }
    Figure {
        title: "Fig. 5 — transfer outcome vs architecture distance d",
        paper: "transferable and positive shares fall with d; positives dominate negatives \
                for d < 3; Uno's LCS positives fall only marginally",
        tables: vec![t],
        shape: fig5_shape,
    }
}

fn fig5_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let lcs = |d, sign| t.get(&[app, d], &format!("lcs_{sign}"));
        let dominate = ["1", "2"].iter().all(|d| lcs(d, "positive") > lcs(d, "negative"));
        let detail = format!(
            "d=1 {:.1}% vs {:.1}%, d=2 {:.1}% vs {:.1}%",
            lcs("1", "positive"),
            lcs("1", "negative"),
            lcs("2", "positive"),
            lcs("2", "negative")
        );
        let claim = format!("{app}: LCS positives outnumber negatives at d = 1, 2");
        checks.push(check(claim, dominate, detail));
        // The paper's Uno positives fall only marginally (shared choice sets).
        if app != "Uno" {
            let (near, far) = (lcs("1", "positive"), lcs("6+", "positive"));
            let claim = format!("{app}: LCS positive share falls from d = 1 to 6+");
            checks.push(check(claim, near > far, format!("{near:.1}% vs {far:.1}%")));
        }
    }
    checks
}

/// Fig. 7: candidate scores during the NAS runs, Baseline vs LP vs LCS.
/// `fig7.csv` bins completions into 25 time slots up to the shortest run's
/// wall time, as the paper plots them; the summary compares the last third
/// of each run's candidates in id order, pooled over seeds.
pub fn fig7(ctx: &ExpCtx) -> Figure {
    let mut summary = Table::new("fig7_summary", "app,scheme,tail_mean_score,mean_lineage_depth");
    let mut series = Table::new("fig7", "app,scheme,slot_end_secs,n,mean_score,ci95");
    for &app in &ctx.apps {
        let mut runs = Vec::new();
        for scheme in TransferScheme::all() {
            for &seed in &ctx.seeds {
                runs.push(ctx.run_or_load(app, scheme, StrategyKind::Evolution, seed).0);
            }
        }
        // The paper cuts all curves at the duration of the shortest run.
        let cutoff = runs.iter().map(|t| t.wall_secs).fold(f64::INFINITY, f64::min);
        for scheme in TransferScheme::all() {
            let traces: Vec<&NasTrace> = runs.iter().filter(|t| t.scheme == scheme).collect();
            let mut binner = SlotBinner::new((cutoff / 25.0).max(1e-3));
            for e in traces.iter().flat_map(|t| &t.events).filter(|e| e.t_end <= cutoff) {
                binner.push(e.t_end, e.score);
            }
            for st in binner.stats() {
                series.push(vec![
                    app.name().to_string(),
                    scheme.name().to_string(),
                    format!("{:.3}", st.slot_end),
                    st.n.to_string(),
                    format!("{:.5}", st.mean),
                    format!("{:.5}", st.ci95),
                ]);
            }
            let tails: Vec<f64> = traces.iter().flat_map(|t| tail(t)).collect();
            // How many ancestors' training a candidate inherits on average
            // (0 for the baseline).
            let lineage: Vec<f64> = traces.iter().map(|t| t.mean_lineage_depth()).collect();
            summary.push(vec![
                app.name().to_string(),
                scheme.name().to_string(),
                format!("{:.4}", mean(&tails)),
                format!("{:.2}", mean(&lineage)),
            ]);
        }
    }
    Figure {
        title: "Fig. 7 — mean score of the last third of each run's candidates (id order)",
        paper: "LP/LCS above Baseline after the warm-up on CIFAR-10, NT3, Uno; \
                LCS slightly above LP on CIFAR-10 and Uno; MNIST comparable",
        tables: vec![summary, series],
        shape: fig7_shape,
    }
}

fn fig7_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let tail = |s| t.get(&[app, s], "tail_mean_score");
        let (base, lp, lcs) = (tail("Baseline"), tail("LP"), tail("LCS"));
        if app == "MNIST" {
            let spread = base.max(lp).max(lcs) - base.min(lp).min(lcs);
            let claim = "MNIST: the three schemes within 0.05";
            checks.push(check(claim, spread <= 0.05, format!("spread {spread:.4}")));
            continue;
        }
        for (s, v) in [("LP", lp), ("LCS", lcs)] {
            let claim = format!("{app}: {s} tail > Baseline tail");
            checks.push(check(claim, v > base, format!("{v:.4} vs {base:.4}")));
        }
        if app != "NT3" {
            let claim = format!("{app}: LCS tail ≥ LP tail");
            checks.push(check(claim, lcs >= lp, format!("{lcs:.4} vs {lp:.4}")));
        }
    }
    checks
}

/// Fig. 8: epochs to convergence (early stopping, patience 2, per-app
/// thresholds) and objective metrics of the top-10 models of every run.
pub fn fig8(ctx: &ExpCtx) -> Figure {
    let models = fulltrain::collect(ctx);
    let mut t = Table::new("fig8_summary", "app,scheme,mean_epochs,metric_early_stop,metric_full");
    for (app, m) in ctx.apps.iter().zip(&models) {
        for scheme in FULL_TRAIN_ORDER {
            let key = [app.name(), scheme];
            let epochs = m.column(&key, "epochs_early_stop");
            if epochs.is_empty() {
                continue;
            }
            t.push(vec![
                app.name().to_string(),
                scheme.to_string(),
                format!("{:.2}", mean(&epochs)),
                Summary::of(&m.column(&key, "metric_early_stop")).pm(3),
                Summary::of(&m.column(&key, "metric_full")).pm(3),
            ]);
        }
    }
    Figure {
        title: "Fig. 8 — epochs to early stop and metrics of each run's top-10",
        paper: "geometric-mean speedup in epochs LCS 1.5×, LP 1.4×; metrics better or comparable",
        tables: [vec![t], models].concat(),
        shape: fig8_shape,
    }
}

fn fig8_shape(t: &Table) -> Vec<Check> {
    let per_app = |s| -> Vec<(&str, f64)> {
        let epochs = |app, s| t.get(&[app, s], "mean_epochs");
        t.apps().into_iter().map(|app| (app, epochs(app, "Baseline") / epochs(app, s))).collect()
    };
    // The geometric mean over apps; NaN when no app has both schemes.
    let geo = |s| {
        let logs: Vec<f64> =
            per_app(s).iter().filter(|(_, x)| *x > 0.0).map(|(_, x)| x.ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    let (lp, lcs) = (geo("LP"), geo("LCS"));
    let lcs_apps: Vec<String> =
        per_app("LCS").iter().map(|(app, x)| format!("{app} {x:.2}×")).collect();
    vec![check(
        "LP and LCS geometric-mean speedups in epochs to early stop above 1.2×",
        lp > 1.2 && lcs > 1.2,
        format!("LP {lp:.2}×, LCS {lcs:.2}×; LCS per app: {}", lcs_apps.join(", ")),
    )]
}

/// Table III: objective metrics (mean ± std) of the top-scored models after
/// full training, fully trained and early-stopped.
pub fn table3(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new("table3", "app,scheme,models,fully_trained,early_stopped");
    for (app, m) in ctx.apps.iter().zip(&fulltrain::collect(ctx)) {
        for scheme in FULL_TRAIN_ORDER {
            let key = [app.name(), scheme];
            let full = m.column(&key, "metric_full");
            if full.is_empty() {
                continue;
            }
            t.push(vec![
                app.name().to_string(),
                scheme.to_string(),
                full.len().to_string(),
                Summary::of(&full).pm(3),
                Summary::of(&m.column(&key, "metric_early_stop")).pm(3),
            ]);
        }
    }
    Figure {
        title: "Table III — top-scored models after full training, mean ± std",
        paper: "fully trained Baseline/LCS/LP: CIFAR-10 0.799/0.823/0.823, MNIST 0.993 all, \
                NT3 0.976/0.988/0.987, Uno 0.582/0.594/0.609",
        tables: vec![t],
        shape: table3_shape,
    }
}

fn table3_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let m = |s| t.get(&[app, s], "fully_trained");
        let (base, lcs, lp) = (m("Baseline"), m("LCS"), m("LP"));
        let detail = format!("Baseline {base:.3}, LCS {lcs:.3}, LP {lp:.3}");
        checks.push(if app == "MNIST" {
            let ok = (lcs - base).abs() <= 0.01 && (lp - base).abs() <= 0.01;
            check("MNIST: every scheme within 0.01", ok, detail)
        } else {
            check(format!("{app}: LCS and LP ≥ Baseline"), lcs >= base && lp >= base, detail)
        });
    }
    checks
}

/// Table IV: parameter counts of the top-scored models.
pub fn table4(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new("table4", "app,scheme,mean_mparams,max_mparams,min_mparams");
    for (app, m) in ctx.apps.iter().zip(&fulltrain::collect(ctx)) {
        for scheme in FULL_TRAIN_ORDER {
            let params: Vec<f64> =
                m.column(&[app.name(), scheme], "params").iter().map(|p| p / 1e6).collect();
            if params.is_empty() {
                continue;
            }
            let s = Summary::of(&params);
            t.push(vec![
                app.name().to_string(),
                scheme.to_string(),
                s.pm(3),
                format!("{:.3}", s.max),
                format!("{:.3}", s.min),
            ]);
        }
    }
    Figure {
        title: "Table IV — parameters / 1e6 of the top-scored models",
        paper: "similar ranges across schemes; NT3+LCS and Uno+LP smaller than Baseline",
        tables: vec![t],
        shape: table4_shape,
    }
}

fn table4_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for (app, scheme) in [("NT3", "LCS"), ("Uno", "LP")] {
        if t.apps().contains(&app) {
            let (base, v) =
                (t.get(&[app, "Baseline"], "mean_mparams"), t.get(&[app, scheme], "mean_mparams"));
            let claim = format!("{app}: {scheme} mean parameters < Baseline's");
            checks.push(check(claim, v < base, format!("{v:.3} vs {base:.3}")));
        }
    }
    checks
}

/// Fig. 9: Kendall's tau between one-epoch estimated scores and fully
/// trained metrics, per scheme. The paper's tau counts tied pairs as
/// discordant, so a saturated task (every fully trained metric 1.0) reads
/// strongly negative under every scheme; beside it stand the tie-corrected
/// tau-b and the tied pairs behind both, summed over the seeds.
pub fn fig9(ctx: &ExpCtx) -> Figure {
    // Paper: 100 of 400; scaled proportionally to the candidate budget and
    // capped — every sampled candidate costs a full training run.
    let sample_n = (ctx.candidates / 4).clamp(10, 34);
    let mut t = Table::new("fig9", "app,scheme,mean_tau,std_tau,mean_tau_b,tied_pairs,pairs");
    for &app in &ctx.apps {
        let problem = ctx.problem(app);
        for scheme in TransferScheme::all() {
            let (mut taus, mut taus_b) = (Vec::new(), Vec::new());
            let (mut tied, mut pairs_n) = (0, 0);
            for &seed in &ctx.seeds {
                let (trace, store) = ctx.run_or_load(app, scheme, StrategyKind::Evolution, seed);
                swt_obs::info!("swt_experiments", "tau {}: {sample_n} candidates", trace.app);
                let (n, epochs) = (sample_n, fulltrain::MAX_EPOCHS);
                let pairs =
                    full_train_sample(&problem, space(app), store, &trace, n, epochs, seed ^ 0xF19);
                let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
                taus.push(kendall_tau(&x, &y));
                taus_b.push(kendall_tau_b(&x, &y));
                let counts = ConcordanceCounts::count(&x, &y);
                tied += counts.total() - counts.concordant - counts.discordant;
                pairs_n += counts.total();
            }
            let s = Summary::of(&taus);
            t.push(vec![
                app.name().to_string(),
                scheme.name().to_string(),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.std_dev),
                format!("{:.3}", mean(&taus_b)),
                tied.to_string(),
                pairs_n.to_string(),
            ]);
        }
    }
    Figure {
        title: "Fig. 9 — Kendall's tau: estimated score vs fully trained metric",
        paper: "tau clearly higher with LP/LCS on CIFAR-10, NT3, Uno (LCS ≥ LP); MNIST unchanged",
        tables: vec![t],
        shape: fig9_shape,
    }
}

fn fig9_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let tau = |s| t.get(&[app, s], "mean_tau");
        let tau_b = |s| t.get(&[app, s], "mean_tau_b");
        let (base, lp, lcs) = (tau("Baseline"), tau("LP"), tau("LCS"));
        let detail = format!("Baseline {base:.3}, LP {lp:.3}, LCS {lcs:.3}");
        if app == "MNIST" {
            let spread = base.max(lp).max(lcs) - base.min(lp).min(lcs);
            let claim = "MNIST: tau within 0.1 across schemes";
            checks.push(check(claim, spread <= 0.1, detail.clone()));
        } else {
            let claim = format!("{app}: LP and LCS tau > Baseline tau");
            checks.push(check(claim, lp > base && lcs > base, detail.clone()));
            checks.push(check(format!("{app}: LCS tau ≥ LP tau"), lcs >= lp, detail.clone()));
        }
        let claim = format!("{app}: tau > 0 under every scheme");
        checks.push(check(claim, base.min(lp).min(lcs) > 0.0, detail));
        let (b, l) = (tau_b("Baseline"), tau_b("LCS"));
        let claim = format!("{app}: LCS tau-b ≥ Baseline tau-b − 0.1");
        checks.push(check(claim, l >= b - 0.1, format!("{l:.3} vs {b:.3}")));
    }
    checks
}

/// Fig. 10: each app's seed-1 searches replayed on 8/16/32 workers from
/// their own traces: the measured per-candidate costs, the runner's
/// proposal rule and the serial section measured from the same run
/// (`swt_cluster`; its bar is in EXPERIMENTS.md's decision records).
pub fn fig10(ctx: &ExpCtx) -> Figure {
    let mut t = Table::new("fig10", "app,scheme,gpus,makespan_secs,utilization,io_secs");
    // Evolution's warm-up, which reads no score (`run_or_load`'s config).
    let population = ctx.population.min(ctx.candidates);
    for &app in &ctx.apps {
        for scheme in TransferScheme::all() {
            let (trace, _) = ctx.run_or_load(app, scheme, StrategyKind::Evolution, ctx.seeds[0]);
            let tasks = task_costs(&trace);
            for gpus in FIG10_GPUS {
                let report = simulate(&ClusterConfig::measured(&trace, population, gpus), &tasks);
                t.push(vec![
                    app.name().to_string(),
                    scheme.name().to_string(),
                    gpus.to_string(),
                    format!("{:.4}", report.makespan),
                    format!("{:.3}", report.utilization),
                    format!("{:.4}", report.io_secs),
                ]);
            }
        }
    }
    Figure {
        title: "Fig. 10 — each seed-1 search replayed on 8/16/32 workers from its own trace \
                (wall-dependent: measured costs)",
        paper: "near-linear scaling with a constant overhead on CIFAR-10, MNIST, Uno; \
                NT3 sublinear from 16 to 32 GPUs (≈ 4 s checkpoint loads vs ≈ 6 s trainings)",
        tables: vec![t],
        shape: fig10_shape,
    }
}

const FIG10_GPUS: [usize; 3] = [8, 16, 32];

/// Near-linear is at least 1.6× per doubling of the pool, for every scheme.
fn fig10_shape(t: &Table) -> Vec<Check> {
    let speedups = |app: &str, scheme: &str| {
        let secs = FIG10_GPUS.map(|g| t.get(&[app, scheme, &g.to_string()], "makespan_secs"));
        [secs[0] / secs[1], secs[1] / secs[2]]
    };
    let mut checks = Vec::new();
    let mut late = Vec::new();
    for app in t.apps() {
        let schemes = TransferScheme::all().map(|s| (s.name(), speedups(app, s.name())));
        late.push((app, speedups(app, "LCS")[1]));
        if app == "NT3" {
            continue;
        }
        let worst = schemes.iter().flat_map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
        let detail: Vec<String> =
            schemes.iter().map(|(name, [a, b])| format!("{name} {a:.2}×, {b:.2}×")).collect();
        let claim = format!("{app}: near-linear, ≥ 1.6× per doubling under every scheme");
        checks.push(check(claim, worst >= 1.6, detail.join("; ")));
    }
    if let Some(&(_, nt3)) = late.iter().find(|(app, _)| *app == "NT3") {
        late.sort_by(|a, b| a.1.total_cmp(&b.1));
        let detail: Vec<String> = late.iter().map(|(a, s)| format!("{a} {s:.2}×")).collect();
        let claim = "NT3 has the smallest LCS speedup from 16 to 32";
        checks.push(check(claim, late[0].1 == nt3, detail.join(" < ")));
    }
    checks
}

/// Fig. 11: average checkpoint sizes, and their size-to-training-time ratio.
pub fn fig11(ctx: &ExpCtx) -> Figure {
    let human_bytes = |b: f64| {
        if b >= 1e6 {
            format!("{:.2} MB", b / 1e6)
        } else if b >= 1e3 {
            format!("{:.1} KB", b / 1e3)
        } else {
            format!("{b:.0} B")
        }
    };
    let mut t = Table::new("fig11", "app,mean,max,min,mean_train_secs,kb_per_train_sec");
    for &app in &ctx.apps {
        let (trace, _) =
            ctx.run_or_load(app, TransferScheme::Lcs, StrategyKind::Evolution, ctx.seeds[0]);
        let sizes: Vec<f64> = trace.events.iter().map(|e| e.checkpoint_bytes as f64).collect();
        let s = Summary::of(&sizes);
        let train = mean(&trace.events.iter().map(|e| e.train_secs).collect::<Vec<_>>());
        t.push(vec![
            app.name().to_string(),
            human_bytes(s.mean),
            human_bytes(s.max),
            human_bytes(s.min),
            format!("{train:.2}s"),
            format!("{:.1}", s.mean / 1e3 / train.max(1e-9)),
        ]);
    }
    Figure {
        title: "Fig. 11 — checkpoint sizes of one LCS run (wall-dependent: training seconds)",
        paper: "NT3 ≈ 40 MB checkpoints vs ≈ 6 s trainings: the worst size-to-training-time ratio",
        tables: vec![t],
        shape: fig11_shape,
    }
}

fn fig11_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for (col, what) in [("mean", "mean checkpoint"), ("kb_per_train_sec", "KB per training second")]
    {
        let mut apps = t.apps();
        apps.sort_by(|a, b| t.get(&[b], col).total_cmp(&t.get(&[a], col)));
        let detail: Vec<String> =
            apps.iter().map(|a| format!("{a} {}", t.cell(&[a], col))).collect();
        let claim = format!("NT3 has the largest {what}");
        checks.push(check(claim, apps.first() == Some(&"NT3"), detail.join(" > ")));
    }
    checks
}

/// Ablation: which provider does the benefit come from? Regularized
/// evolution with LCS matching, varying only the provider: `parent` (the
/// paper's Algorithm 1), `nearest` (a minimum-distance scan of the
/// population), `random` (Figs. 4/5's strawman) and `none` (the baseline's
/// init on the same candidate stream).
pub fn ablation(ctx: &ExpCtx) -> Figure {
    let policies = [
        ("parent", ProviderPolicy::Parent),
        ("nearest", ProviderPolicy::Nearest),
        ("random", ProviderPolicy::Random),
        ("none", ProviderPolicy::None),
    ];
    let mut t = Table::new("ablation_provider", "app,provider,tail_mean,ci95,transferred_pct");
    for &app in &ctx.apps {
        let problem = ctx.problem(app);
        for (name, policy) in policies {
            let (mut tails, mut transferred, mut total) = (Vec::new(), 0, 0);
            for &seed in &ctx.seeds {
                let cfg = NasConfig {
                    provider: policy,
                    strategy: StrategyKind::Evolution,
                    population_size: ctx.population,
                    sample_size: ctx.sample,
                    ..NasConfig::quick(TransferScheme::Lcs, ctx.candidates, ctx.workers, seed)
                };
                let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
                let trace = run_nas(Arc::clone(&problem), space(app), store, &cfg);
                tails.extend(tail(&trace));
                transferred += trace.events.iter().filter(|e| e.transfer_tensors > 0).count();
                total += trace.events.len();
            }
            let s = Summary::of(&tails);
            t.push(vec![
                app.name().to_string(),
                name.to_string(),
                format!("{:.4}", s.mean),
                format!("{:.4}", s.ci95),
                format!("{:.1}%", 100.0 * transferred as f64 / total as f64),
            ]);
        }
    }
    Figure {
        title: "Ablation — provider policy, evolution + LCS held fixed (last third, id order)",
        paper: "not in the paper; Section V's design implies parent ≈ nearest > random ≥ none",
        tables: vec![t],
        shape: ablation_shape,
    }
}

fn ablation_shape(t: &Table) -> Vec<Check> {
    let mut checks = Vec::new();
    for app in t.apps() {
        let tail = |p| t.get(&[app, p], "tail_mean");
        for (better, worse) in [("parent", "random"), ("random", "none")] {
            let (b, w) = (tail(better), tail(worse));
            let claim = format!("{app}: {better} ≥ {worse}");
            checks.push(check(claim, b >= w, format!("{b:.4} vs {w:.4}")));
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_nas::TraceEvent;
    use swt_space::ArchSeq;

    fn trace(t_ends: &[f64]) -> NasTrace {
        let events = t_ends
            .iter()
            .enumerate()
            .map(|(i, &t_end)| TraceEvent {
                id: i as u64,
                arch: ArchSeq::new(vec![0]),
                parent: None,
                score: i as f64 / 10.0,
                t_start: 0.0,
                t_end,
                train_secs: 0.0,
                transfer_secs: 0.0,
                save_secs: 0.0,
                checkpoint_bytes: 0,
                transfer_tensors: 0,
                transfer_bytes: 0,
            })
            .collect();
        NasTrace {
            app: "Uno".into(),
            scheme: TransferScheme::Lcs,
            seed: 1,
            workers: 2,
            events,
            wall_secs: 1.0,
        }
    }

    #[test]
    fn tail_does_not_depend_on_completion_times() {
        let ends: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let expected = tail(&trace(&ends));
        assert_eq!(expected, vec![0.6, 0.7, 0.8]);
        // Reversed and interleaved completion times, and a trace recorded
        // in completion order rather than id order.
        let reversed: Vec<f64> = ends.iter().rev().copied().collect();
        assert_eq!(tail(&trace(&reversed)), expected);
        let interleaved: Vec<f64> = (0..9).map(|i| ((i * 5) % 9) as f64).collect();
        let mut shuffled = trace(&interleaved);
        shuffled.events.sort_by(|a, b| a.t_end.total_cmp(&b.t_end));
        assert_eq!(tail(&shuffled), expected);
    }
}
