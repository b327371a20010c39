//! Shared full-training data for Fig. 8 and Tables III/IV: the top-K models
//! of every run by estimation score (equal scores to the lower id), each
//! trained once for `MAX_EPOCHS`, one table per app. The budget is the
//! run's candidate count, the same for every scheme, so the tables are a
//! function of the seeds alone (EXPERIMENTS.md deviation 8).

use crate::{app_tag, ExpCtx, Table};
use std::sync::Arc;
use swt_core::TransferScheme;
use swt_data::AppKind;
use swt_nas::{full_train_top_k, StrategyKind};
use swt_space::SearchSpace;

pub const TOP_K: usize = 10;
pub const MAX_EPOCHS: usize = 20;

/// Fully train the top-K of every `(app, scheme, seed)` run: one
/// `fig8_models_<app>_…` table per app. Each is cached under
/// `<out>/traces/`, beside the traces it was computed from, so deleting the
/// traces to record afresh recomputes it too.
pub fn collect(ctx: &ExpCtx) -> Vec<Table> {
    let cache = ctx.out.join("traces");
    let mut tables = Vec::new();
    for &app in &ctx.apps {
        let name = format!(
            "fig8_models_{}_c{}_s{}_p{}_{}",
            app_tag(app),
            ctx.candidates,
            ctx.seeds.len(),
            ctx.population,
            ctx.scale_tag()
        );
        let empty = Table::new(
            name, "app,scheme,seed,candidate,estimate,epochs_early_stop,metric_early_stop,metric_full,params"
        );
        match empty.read_from(&cache) {
            Ok(cached) if !cached.rows.is_empty() => {
                swt_obs::info!("swt_experiments", "cache {}", cached.name);
                tables.push(cached);
            }
            _ => {
                let fresh = train_app(ctx, app, empty);
                fresh.write(&cache);
                tables.push(fresh);
            }
        }
    }
    tables
}

fn train_app(ctx: &ExpCtx, app: AppKind, mut table: Table) -> Table {
    let problem = ctx.problem(app);
    let space = Arc::new(SearchSpace::for_app(app));
    for scheme in TransferScheme::all() {
        for &seed in &ctx.seeds {
            let (trace, store) = ctx.run_or_load(app, scheme, StrategyKind::Evolution, seed);
            swt_obs::info!(
                "swt_experiments",
                "full-train {} {} seed {seed}",
                app.name(),
                scheme.name()
            );
            let report =
                full_train_top_k(&problem, Arc::clone(&space), store, &trace, TOP_K, MAX_EPOCHS);
            for o in &report.outcomes {
                table.push(vec![
                    app.name().to_string(),
                    scheme.name().to_string(),
                    seed.to_string(),
                    o.id.to_string(),
                    format!("{:.6}", o.estimate),
                    o.epochs_early_stop.to_string(),
                    format!("{:.6}", o.metric_early_stop),
                    format!("{:.6}", o.metric_full),
                    o.params.to_string(),
                ]);
            }
        }
    }
    table
}
