//! The paper's evaluation: each table and figure is a function from an
//! [`ExpCtx`] to a [`Figure`] ([`figures::FIGURES`]), and the
//! `swt-experiments` binary runs one by name, `all` of them in order, or
//! `docs`, which rewrites EXPERIMENTS.md's measured blocks from the CSVs.
//!
//! Every flag takes a value:
//!
//! * `--scale quick|full|paper` — quick (default) is CI-sized; full is
//!   full-size data at reduced counts; paper is the paper's counts (400
//!   candidates, 5 seeds, population 64/32).
//! * `--workers N` — evaluator threads (default: available cores − 2).
//! * `--apps a,b` — restrict to a subset of `cifar10,mnist,nt3,uno`.
//! * `--candidates N`, `--pairs N`, `--seeds N` — override the preset.
//! * `--out DIR` — results directory (default `results/`).
//!
//! An unknown flag, scale or app, or a count that does not parse or is
//! zero, panics naming the flag rather than running the default.
//!
//! NAS runs are cached: traces land in `<out>/traces/` as CSV and candidate
//! checkpoints in `<out>/ckpts/<run>/`, so `fig8`, `fig9`, `table3` and
//! `table4` reuse the runs produced by `fig7` instead of recomputing them.

pub mod figures;
pub mod fulltrain;

use std::collections::HashMap;
use std::io;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use swt_checkpoint::{CheckpointStore, DirStore};
use swt_core::TransferScheme;
use swt_data::{AppKind, AppProblem, DataScale};
use swt_nas::{run_nas, NasConfig, NasTrace, ProviderPolicy, StrategyKind};
use swt_space::SearchSpace;

/// The flags [`ExpCtx::from_vec`] accepts; anything else is refused.
const FLAGS: [&str; 7] =
    ["--scale", "--workers", "--apps", "--candidates", "--pairs", "--seeds", "--out"];

/// Parsed command-line context shared by every figure.
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
    /// Parse `--flag value` pairs; `args[0]` is the program name.
    pub fn from_vec(args: Vec<String>) -> ExpCtx {
        let mut given = HashMap::new();
        for pair in args[1..].chunks(2) {
            let flag = pair[0].as_str();
            assert!(FLAGS.contains(&flag), "unknown flag {flag:?} (flags: {})", FLAGS.join(" "));
            let value = pair.get(1).unwrap_or_else(|| panic!("missing value for {flag}"));
            given.insert(flag, value.clone());
        }
        // A value that does not parse, or a zero count, panics naming its
        // flag: a typo must never run (and record) the default instead.
        let count = |flag: &str| -> Option<usize> {
            given.get(flag).map(|v| match v.parse::<NonZeroUsize>() {
                Ok(n) => n.get(),
                Err(_) => panic!("invalid value for {flag}: {v:?}"),
            })
        };
        let scale_name = given.get("--scale").map_or("quick", String::as_str);
        let scale = match scale_name {
            "full" | "paper" => DataScale::Full,
            "quick" => DataScale::Quick,
            other => panic!("unknown scale {other:?} (quick, full or paper)"),
        };
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(2).max(1))
            .unwrap_or(4);
        let workers = count("--workers").unwrap_or(default_workers);
        let apps = match given.get("--apps") {
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
        let out = PathBuf::from(given.get("--out").map_or("results", String::as_str));
        // (seeds, candidates, pairs, population, tournament sample):
        // `paper` is the paper's exact counts on full-size synthetic data;
        // `full`, the repository's recorded scale, is full-size data at
        // counts that fit a small CPU budget; `quick` is CI-sized.
        let (seeds, candidates, pairs, population, sample) = match scale_name {
            "paper" => (5, 400, 1000, 64, 32),
            "full" => (3, 200, 300, 32, 16),
            _ => (3, 60, 200, 16, 8),
        };
        let ctx = ExpCtx {
            scale,
            seeds: (1..=count("--seeds").unwrap_or(seeds) as u64).collect(),
            candidates: count("--candidates").unwrap_or(candidates),
            workers,
            pairs: count("--pairs").unwrap_or(pairs),
            population,
            sample,
            apps,
            out,
        };
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

    /// The `q`/`f` suffix cache names carry for the data scale.
    pub fn scale_tag(&self) -> &'static str {
        match self.scale {
            DataScale::Quick => "q",
            DataScale::Full => "f",
        }
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
        format!(
            "{}_{}_{}_s{}_c{}_p{}_{}",
            app_tag(app),
            scheme.name().to_lowercase(),
            strat,
            seed,
            self.candidates,
            self.population,
            self.scale_tag()
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
        if let Ok(trace) = NasTrace::read_csv(&trace_path) {
            if trace.events.len() == self.candidates
                && trace.events.iter().all(|e| store.exists(&format!("c{}", e.id)))
            {
                swt_obs::info!("swt_experiments", "cache {name}");
                return (trace, store);
            }
        }
        swt_obs::info!(
            "swt_experiments",
            "run {name} ({} candidates, {} workers)",
            self.candidates,
            self.workers
        );
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
        let space = Arc::new(SearchSpace::for_app(app));
        let trace = run_nas(self.problem(app), space, Arc::clone(&store), &cfg);
        trace.write_csv(&trace_path).expect("write trace");
        // Per-run observability report (span/counter breakdown per worker)
        // next to the trace CSV.
        let report = swt_obs::RunReport::capture()
            .with_meta("app", app.name())
            .with_meta("scheme", scheme.name())
            .with_meta("seed", seed)
            .with_meta("workers", self.workers)
            .with_meta("candidates", self.candidates)
            .with_meta("wall_secs", trace.wall_secs);
        let report_path = self.out.join("traces").join(format!("{name}.report.json"));
        if let Err(e) = report.write_json(&report_path) {
            swt_obs::warn!("swt_experiments", "cannot write {}: {e}", report_path.display())
        }
        (trace, store)
    }
}

/// An app's name as cache and CSV file names spell it (`cifar10`, `uno`).
pub fn app_tag(app: AppKind) -> String {
    app.name().to_lowercase().replace('-', "")
}

/// One CSV: headers written once, rows holding exactly the CSV cells. The
/// same table is printed, written, read back, rendered into EXPERIMENTS.md
/// and checked by its figure's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File stem under the results directory (`fig7_summary.csv`).
    pub name: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table; `header` is its CSV header line.
    pub fn new(name: impl Into<String>, header: &str) -> Table {
        let headers = header.split(',').map(String::from).collect();
        Table { name: name.into(), headers, rows: Vec::new() }
    }

    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "{}: row {row:?}", self.name);
        self.rows.push(row);
    }

    /// Write `<dir>/<name>.csv`; a failed write panics.
    pub fn write(&self, dir: &Path) {
        let mut s = self.headers.join(",") + "\n";
        for row in &self.rows {
            s += &(row.join(",") + "\n");
        }
        let path = dir.join(format!("{}.csv", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, s))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        swt_obs::info!("swt_experiments", "csv {}", path.display());
    }

    /// Read this table's CSV back from `dir`; its headers must be this
    /// table's and every row as wide.
    pub fn read_from(&self, dir: &Path) -> io::Result<Table> {
        let path = dir.join(format!("{}.csv", self.name));
        let text = std::fs::read_to_string(&path)?;
        let mut lines = text.lines().map(|l| l.split(',').map(String::from).collect::<Vec<_>>());
        let mut table = Table { rows: Vec::new(), ..self.clone() };
        if lines.next().as_ref() != Some(&self.headers) {
            return Err(io::Error::other(format!(
                "{}: headers are not {:?}",
                path.display(),
                self.headers
            )));
        }
        for row in lines {
            if row.len() != self.headers.len() {
                return Err(io::Error::other(format!("{}: row {row:?}", path.display())));
            }
            table.rows.push(row);
        }
        Ok(table)
    }

    /// Aligned text: the headers, a rule, then the rows.
    pub fn render(&self) -> String {
        let width = |s: &String| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(width).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(width(cell));
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                widths.iter().zip(cells).map(|(w, c)| format!("{c:<w$}")).collect();
            padded.join("  ").trim_end().to_string() + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)) + "\n";
        line(&self.headers) + &rule + &self.rows.iter().map(|r| line(r)).collect::<String>()
    }

    fn col(&self, header: &str) -> usize {
        let found = self.headers.iter().position(|h| h == header);
        found.unwrap_or_else(|| panic!("{} has no column {header}", self.name))
    }

    /// Column `col` of every row whose leading cells are `key`, as numbers.
    pub fn column(&self, key: &[&str], col: &str) -> Vec<f64> {
        let c = self.col(col);
        let rows = self.rows.iter().filter(|r| r.iter().zip(key).all(|(a, b)| a == b));
        rows.map(|r| value(&r[c])).collect()
    }

    /// Column `col` of the first row keyed `key`; empty if there is none.
    pub fn cell(&self, key: &[&str], col: &str) -> &str {
        let c = self.col(col);
        let mut rows = self.rows.iter().filter(|r| r.iter().zip(key).all(|(a, b)| a == b));
        rows.next().map_or("", |r| &r[c])
    }

    /// [`Table::cell`] as a number; NaN if there is none.
    pub fn get(&self, key: &[&str], col: &str) -> f64 {
        value(self.cell(key, col))
    }

    /// The first column's distinct values in row order (the apps).
    pub fn apps(&self) -> Vec<&str> {
        let mut apps: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !apps.contains(&row[0].as_str()) {
                apps.push(&row[0]);
            }
        }
        apps
    }
}

/// The number a cell starts with, scaled by a `K`/`M`/`B`/`T` suffix
/// (`91.5%` → 91.5, `0.939 ± 0.041` → 0.939, `1.7B` → 1.7e9,
/// `1.89 MB` → 1.89e6); NaN if it does not start with one.
pub fn value(cell: &str) -> f64 {
    let end =
        cell.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(cell.len());
    let scale = match cell[end..].trim_start().chars().next() {
        Some('K') => 1e3,
        Some('M') => 1e6,
        Some('B') => 1e9,
        Some('T') => 1e12,
        _ => 1.0,
    };
    cell[..end].parse::<f64>().map_or(f64::NAN, |x| x * scale)
}

/// One ✓/✗ line of a figure's shape: a claim the paper makes, whether the
/// table bears it out, and the numbers that decide it.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub claim: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(claim: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
    Check { claim: claim.into(), ok, detail: detail.into() }
}

/// One of the paper's tables or figures, computed.
///
/// Run over no apps, a figure computes nothing and returns its tables
/// empty: that is how `docs` learns the CSV to read each one back from.
pub struct Figure {
    /// The caption, with what the numbers depend on.
    pub title: &'static str,
    /// The paper's values, as the paper states them.
    pub paper: &'static str,
    /// Every CSV the figure writes; the first is shown and checked.
    pub tables: Vec<Table>,
    /// The paper's shape as checks over the shown table (no I/O, no clock).
    pub shape: fn(&Table) -> Vec<Check>,
}

impl Figure {
    pub fn checks(&self) -> Vec<Check> {
        (self.shape)(&self.tables[0])
    }

    /// The measured block: caption, shown table, paper values, verdicts.
    pub fn render(&self) -> String {
        let mut s =
            format!("{}\n\n{}\npaper: {}\n", self.title, self.tables[0].render(), self.paper);
        for c in self.checks() {
            s += &format!("{} {} ({})\n", if c.ok { "✓" } else { "✗" }, c.claim, c.detail);
        }
        s
    }
}

/// Replace the body of every fenced block whose info string is one of
/// `blocks`' names (```` ```fig4 ````) with that block's text. Panics if a
/// name has no block.
pub fn fill_blocks(md: &str, blocks: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(md.len());
    let mut missing: Vec<&str> = blocks.iter().map(|(name, _)| *name).collect();
    let mut lines = md.split_inclusive('\n');
    while let Some(line) = lines.next() {
        out.push_str(line);
        let info = line.trim_end().strip_prefix("```").unwrap_or_default();
        if let Some((name, body)) = blocks.iter().find(|(name, _)| *name == info) {
            missing.retain(|m| m != name);
            out.push_str(body);
            out.push_str(lines.by_ref().find(|l| l.trim_end() == "```").unwrap_or("```\n"));
        }
    }
    assert!(missing.is_empty(), "no measured block for {missing:?}");
    out
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

    #[test]
    #[should_panic(expected = "unknown flag \"--sacle\"")]
    fn misspelt_flag_rejected() {
        ctx(&["--sacle", "full"]);
    }

    #[test]
    #[should_panic(expected = "missing value for --apps")]
    fn flag_without_value_rejected() {
        // Last on the line (the refusal comes before any directory is made).
        ctx(&["--out", "unused", "--apps"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --seeds: \"0\"")]
    fn zero_seeds_rejected() {
        ctx(&["--seeds", "0"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --candidates: \"0\"")]
    fn zero_candidates_rejected() {
        ctx(&["--candidates", "0"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --pairs: \"0\"")]
    fn zero_pairs_rejected() {
        ctx(&["--pairs", "0"]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --workers: \"0\"")]
    fn zero_workers_rejected() {
        ctx(&["--workers", "0"]);
    }

    #[test]
    fn cells_read_as_numbers() {
        assert_eq!(value("91.5%"), 91.5);
        assert_eq!(value("0.939 ± 0.041"), 0.939);
        assert_eq!(value("-0.606"), -0.606);
        assert_eq!(value("1.7B"), 1.7e9);
        assert_eq!(value("1.89 MB"), 1.89e6);
        assert_eq!(value("6+"), 6.0);
        assert!(value("CIFAR-10").is_nan() && value("").is_nan());
    }

    #[test]
    fn tables_read_back_what_they_wrote() {
        let dir = std::env::temp_dir().join(format!("swt_table_test_{}", std::process::id()));
        let mut t = Table::new("t", "app,scheme,score");
        t.push(vec!["Uno".into(), "LCS".into(), "0.5 ± 0.1".into()]);
        t.write(&dir);
        assert_eq!(Table::new("t", "app,scheme,score").read_from(&dir).unwrap(), t);
        assert!(Table::new("t", "app,score").read_from(&dir).is_err(), "headers must match");
        assert_eq!(t.get(&["Uno", "LCS"], "score"), 0.5);
        assert!(t.get(&["Uno", "LP"], "score").is_nan());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blocks_are_found_by_info_string() {
        let md = "# t\n```sh\nfig2\n```\n\n```fig2\nold\nrows\n```\nafter\n";
        let filled = fill_blocks(md, &[("fig2", "new\n".to_string())]);
        assert_eq!(filled, "# t\n```sh\nfig2\n```\n\n```fig2\nnew\n```\nafter\n");
        assert_eq!(fill_blocks(&filled, &[("fig2", "new\n".to_string())]), filled);
    }

    #[test]
    #[should_panic(expected = "no measured block for [\"fig4\"]")]
    fn a_figure_without_a_block_is_refused() {
        fill_blocks("```fig2\n```\n", &[("fig2", String::new()), ("fig4", String::new())]);
    }
}
