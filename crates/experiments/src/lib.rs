//! Shared harness for the per-figure/per-table experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--scale quick|full|paper` — quick (default) is CI-sized; full is
//!   full-size data at reduced counts; paper is the paper's counts (400
//!   candidates, 5 seeds, population 64/32).
//! * `--workers N` — evaluator threads (default: available cores − 2).
//! * `--apps a,b` — restrict to a subset of `cifar10,mnist,nt3,uno`.
//! * `--candidates N`, `--pairs N`, `--seeds N` — override the preset.
//! * `--out DIR` — results directory (default `results/`).
//!
//! An unknown scale or app, or a count that does not parse, panics naming
//! the flag rather than running the default.
//!
//! NAS runs are cached: traces land in `<out>/traces/` as CSV and candidate
//! checkpoints in `<out>/ckpts/<run>/`, so `fig8`, `fig9`, `table3` and
//! `table4` reuse the runs produced by `fig7` instead of recomputing them.

pub mod calibrate;
pub mod fulltrain;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use swt_checkpoint::{CheckpointStore, DirStore};
use swt_core::TransferScheme;
use swt_data::{AppKind, AppProblem, DataScale};
use swt_nas::{run_nas, NasConfig, NasTrace, ProviderPolicy, StrategyKind};
use swt_space::SearchSpace;

/// Parsed command-line context shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    pub scale: DataScale,
    /// Run seeds (one NAS run per seed; the paper repeats 5 times).
    pub seeds: Vec<u64>,
    /// Candidates per NAS run (paper: 400).
    pub candidates: usize,
    /// Evaluator threads.
    pub workers: usize,
    /// Pairs for the Figs. 2/4/5 studies.
    pub pairs: usize,
    /// Evolution population / tournament sizes.
    pub population: usize,
    pub sample: usize,
    /// Applications to run.
    pub apps: Vec<AppKind>,
    /// Results directory.
    pub out: PathBuf,
}

impl ExpCtx {
    /// Parse `std::env::args()`.
    pub fn from_args() -> ExpCtx {
        Self::from_vec(std::env::args().collect())
    }

    /// Parse an explicit argument vector (testable core of [`ExpCtx::from_args`]).
    pub fn from_vec(args: Vec<String>) -> ExpCtx {
        let get = |flag: &str| -> Option<String> {
            args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
        };
        // A value that does not parse panics naming its flag: a typo must
        // never run (and record) the default instead.
        let count = |flag: &str| -> Option<usize> {
            get(flag)
                .map(|v| v.parse().unwrap_or_else(|_| panic!("invalid value for {flag}: {v:?}")))
        };
        let scale_name = get("--scale").unwrap_or_else(|| "quick".into());
        let scale = match scale_name.as_str() {
            "full" | "paper" => DataScale::Full,
            "quick" => DataScale::Quick,
            other => panic!("unknown scale {other:?} (quick, full or paper)"),
        };
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(2).max(1))
            .unwrap_or(4);
        let workers = count("--workers").unwrap_or(default_workers);
        let apps = match get("--apps") {
            Some(list) => list
                .split(',')
                .map(|name| match name.trim().to_lowercase().as_str() {
                    "cifar10" | "cifar-10" | "cifar" => AppKind::Cifar10,
                    "mnist" => AppKind::Mnist,
                    "nt3" => AppKind::Nt3,
                    "uno" => AppKind::Uno,
                    other => panic!("unknown app {other:?}"),
                })
                .collect(),
            None => AppKind::all().to_vec(),
        };
        let out = PathBuf::from(get("--out").unwrap_or_else(|| "results".into()));
        let mut ctx = match scale_name.as_str() {
            // The paper's exact counts (400 candidates, 5 seeds, population
            // 64/32, 1000 trained pairs) on full-size synthetic data.
            "paper" => ExpCtx {
                scale,
                seeds: vec![1, 2, 3, 4, 5],
                candidates: 400,
                workers,
                pairs: 1000,
                population: 64,
                sample: 32,
                apps,
                out,
            },
            // The repository's recorded scale: full-size data, reduced
            // counts so the whole suite fits a small CPU budget.
            "full" => ExpCtx {
                scale,
                seeds: vec![1, 2, 3],
                candidates: 200,
                workers,
                pairs: 300,
                population: 32,
                sample: 16,
                apps,
                out,
            },
            _ => ExpCtx {
                scale,
                seeds: vec![1, 2, 3],
                candidates: 60,
                workers,
                pairs: 200,
                population: 16,
                sample: 8,
                apps,
                out,
            },
        };
        if let Some(c) = count("--candidates") {
            ctx.candidates = c;
        }
        if let Some(p) = count("--pairs") {
            ctx.pairs = p;
        }
        if let Some(s) = count("--seeds") {
            ctx.seeds = (1..=s as u64).collect();
        }
        std::fs::create_dir_all(ctx.out.join("traces")).expect("create results dir");
        std::fs::create_dir_all(ctx.out.join("ckpts")).expect("create results dir");
        // Observability: record spans/counters for every run this context
        // launches. Reports land next to each trace CSV.
        swt_obs::enable();
        ctx
    }

    /// Dataset seed: fixed per app so every scheme/seed sees the same data.
    pub fn data_seed(&self, app: AppKind) -> u64 {
        0xDA7A_0000 + app as u64
    }

    /// The problem instance for an app at this context's scale.
    pub fn problem(&self, app: AppKind) -> Arc<AppProblem> {
        Arc::new(app.problem(self.scale, self.data_seed(app)))
    }

    /// Canonical run name for caching.
    pub fn run_name(
        &self,
        app: AppKind,
        scheme: TransferScheme,
        strategy: StrategyKind,
        seed: u64,
    ) -> String {
        let strat = match strategy {
            StrategyKind::Random => "rand",
            StrategyKind::Evolution => "evo",
        };
        let data = match self.scale {
            DataScale::Quick => "q",
            DataScale::Full => "f",
        };
        format!(
            "{}_{}_{}_s{}_c{}_p{}_{}",
            app.name().to_lowercase().replace('-', ""),
            scheme.name().to_lowercase(),
            strat,
            seed,
            self.candidates,
            self.population,
            data
        )
    }

    /// Run one NAS (or load it from the cache). Returns the trace and the
    /// checkpoint store holding every candidate of the run.
    pub fn run_or_load(
        &self,
        app: AppKind,
        scheme: TransferScheme,
        strategy: StrategyKind,
        seed: u64,
    ) -> (NasTrace, Arc<dyn CheckpointStore>) {
        let name = self.run_name(app, scheme, strategy, seed);
        let trace_path = self.out.join("traces").join(format!("{name}.csv"));
        let ckpt_dir = self.out.join("ckpts").join(&name);
        let store: Arc<dyn CheckpointStore> =
            Arc::new(DirStore::new(&ckpt_dir).expect("open checkpoint dir"));
        if trace_path.exists() {
            if let Ok(trace) = NasTrace::read_csv(&trace_path) {
                if trace.events.len() == self.candidates
                    && trace.events.iter().all(|e| store.exists(&format!("c{}", e.id)))
                {
                    swt_obs::info!("swt_experiments", "cache {name}");
                    return (trace, store);
                }
            }
        }
        swt_obs::info!(
            "swt_experiments",
            "run {name} ({} candidates, {} workers)",
            self.candidates,
            self.workers
        );
        let problem = self.problem(app);
        let space = Arc::new(SearchSpace::for_app(app));
        let cfg = NasConfig {
            scheme,
            strategy,
            provider: ProviderPolicy::Parent,
            total_candidates: self.candidates,
            workers: self.workers,
            epochs: 1,
            seed,
            population_size: self.population.min(self.candidates),
            sample_size: self.sample.min(self.population.min(self.candidates)),
            cache_bytes: 256 << 20,
            namespace: String::new(),
        };
        swt_obs::reset();
        let trace = run_nas(problem, space, Arc::clone(&store), &cfg);
        trace.write_csv(&trace_path).expect("write trace");
        // Per-run observability report (span/counter breakdown per worker)
        // next to the trace CSV — the time-attribution data behind the
        // paper's Figs. 7–11.
        let report = swt_obs::RunReport::capture()
            .with_meta("app", app.name())
            .with_meta("scheme", scheme.name())
            .with_meta("seed", seed)
            .with_meta("workers", self.workers)
            .with_meta("candidates", self.candidates)
            .with_meta("wall_secs", trace.wall_secs);
        let report_path = self.out.join("traces").join(format!("{name}.report.json"));
        match report.write_json(&report_path) {
            Ok(()) => swt_obs::info!("swt_experiments", "report {}", report_path.display()),
            Err(e) => {
                swt_obs::warn!("swt_experiments", "cannot write {}: {e}", report_path.display())
            }
        }
        (trace, store)
    }
}

/// Print an aligned text table (the experiment binaries' standard output
/// format, mirroring the paper's tables).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:<w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        line(row);
    }
}

/// Write rows as CSV under the results directory.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) {
    let mut s = String::new();
    s.push_str(&headers.join(","));
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, s).expect("write csv");
    swt_obs::info!("swt_experiments", "csv {}", path.display());
}

/// Percentage formatting used by the figure tables.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_nas::StrategyKind;

    fn ctx(args: &[&str]) -> ExpCtx {
        let mut v = vec!["prog".to_string()];
        v.extend(args.iter().map(|s| s.to_string()));
        // Route outputs to a scratch dir so tests don't pollute results/.
        if !args.contains(&"--out") {
            v.push("--out".into());
            v.push(std::env::temp_dir().join("swt_ctx_test").to_string_lossy().into_owned());
        }
        ExpCtx::from_vec(v)
    }

    #[test]
    fn default_is_quick_scale() {
        let c = ctx(&[]);
        assert_eq!(c.scale, DataScale::Quick);
        assert_eq!(c.candidates, 60);
        assert_eq!(c.seeds, vec![1, 2, 3]);
        assert_eq!(c.population, 16);
        assert_eq!(c.apps.len(), 4);
    }

    #[test]
    fn full_and_paper_presets() {
        let f = ctx(&["--scale", "full"]);
        assert_eq!(f.scale, DataScale::Full);
        assert_eq!(f.candidates, 200);
        assert_eq!(f.population, 32);
        let p = ctx(&["--scale", "paper"]);
        assert_eq!(p.candidates, 400);
        assert_eq!(p.seeds.len(), 5);
        assert_eq!(p.population, 64);
        assert_eq!(p.sample, 32);
    }

    #[test]
    fn overrides_apply_after_preset() {
        let c = ctx(&["--scale", "full", "--candidates", "77", "--seeds", "2", "--pairs", "9"]);
        assert_eq!(c.candidates, 77);
        assert_eq!(c.seeds, vec![1, 2]);
        assert_eq!(c.pairs, 9);
    }

    #[test]
    fn apps_filter_parses_aliases() {
        let c = ctx(&["--apps", "cifar, uno"]);
        assert_eq!(c.apps, vec![AppKind::Cifar10, AppKind::Uno]);
    }

    #[test]
    fn run_names_are_distinct_across_settings() {
        let a = ctx(&["--scale", "quick"]);
        let b = ctx(&["--scale", "full"]);
        let name_a = a.run_name(AppKind::Uno, TransferScheme::Lcs, StrategyKind::Evolution, 1);
        let name_b = b.run_name(AppKind::Uno, TransferScheme::Lcs, StrategyKind::Evolution, 1);
        assert_ne!(name_a, name_b, "cache keys must separate data scales");
        assert!(name_a.contains("uno_lcs_evo_s1"));
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_rejected() {
        ctx(&["--apps", "imagenet"]);
    }

    #[test]
    #[should_panic(expected = "unknown scale \"ful\"")]
    fn unknown_scale_rejected() {
        ctx(&["--scale", "ful"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --workers")]
    fn unparsable_workers_rejected() {
        ctx(&["--workers", "two"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --candidates")]
    fn unparsable_candidates_rejected() {
        ctx(&["--candidates", "4OO"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --pairs")]
    fn unparsable_pairs_rejected() {
        ctx(&["--pairs", "-1"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --seeds")]
    fn unparsable_seeds_rejected() {
        ctx(&["--seeds", "1,2,3"]);
    }
}
