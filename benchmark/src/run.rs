//! One run of one workload in this process: set-up, the searches, the output
//! checks and the end-to-end metrics. The traced run's per-layer work is in
//! `layers.rs`.

use crate::api::{
    obs_enable, run_nas, run_nas_with_backend, AppProblem, CachedStore, CheckpointStore, DirStore,
    DistBackend, DistConfig, EvalBackend, NasConfig, NasTrace, RemoteStore, SearchSpace,
    ThreadPoolBackend,
};
use crate::host;
use crate::json::Json;
use crate::layers;
use crate::stats::{fastest, median, quartiles};
use crate::timed::{BackendStats, StoreStats, TimedBackend, TimedStore};
use crate::workload::{Backend, Workload, DATA_SEED, END_TO_END, WORKERS};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Host record, per-search walls and whatever else explains the metrics.
    pub detail: Json,
}

/// Set-ups per thread before the first search, and in all before the later
/// searches of a timed run; `setup_s` is the median of them all. One set-up
/// is a few milliseconds, so a single reading is noise.
const SETUP_REPS: usize = 8;
const SETUP_REPS_BETWEEN: usize = 24;

/// The child stops by itself after this long, so a benchmark that is killed
/// leaves no server behind for good.
const SERVER_MAX_SECONDS: &str = "170";

/// A `swt ckpt-server` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// `host:port` of its `/metrics` endpoint, when asked for.
    pub metrics_addr: Option<String>,
}

impl Server {
    fn start(spill: &Path, with_metrics: bool) -> Result<Server, String> {
        let exe = swt_exe()?;
        let mut cmd = Command::new(&exe);
        cmd.args(["ckpt-server", "--bind", "127.0.0.1:0", "--max-seconds", SERVER_MAX_SECONDS])
            .arg("--spill")
            .arg(spill)
            .env_remove("SWT_CKPT_SECRET")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let metrics_addr = if with_metrics {
            // The server does not print the port of its status endpoint, so
            // pick a free one for it.
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port for the server's status endpoint: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            cmd.args(["--serve", &addr]);
            Some(addr)
        } else {
            None
        };
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        // "ckpt-server listening on 127.0.0.1:PORT (auth open)"
        let addr = line.split_whitespace().nth(3).map(str::to_string);
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(Server { child, addr, metrics_addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ckpt-server did not report its address (got {line:?})"))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `swt` binary: `SWT_DIST_WORKER_EXE` (set by run.sh), else next to
/// this executable, which is where one target directory puts both.
fn swt_exe() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("SWT_DIST_WORKER_EXE") {
        return Ok(path.into());
    }
    let beside = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("swt")))
        .filter(|p| p.is_file());
    beside.ok_or_else(|| "swt binary not found: run benchmark/run.sh, which builds it".to_string())
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One finished search.
pub struct Search {
    pub trace: NasTrace,
    pub wall_s: f64,
    pub lost: u64,
    pub reassigned: u64,
}

/// What the decorators saw during one traced search.
pub struct Traced {
    pub search: Search,
    pub backend: BackendStats,
    /// Wall of `run_nas_with_backend` alone (backend launch and teardown
    /// are in `search.wall_s` but not here).
    pub loop_s: f64,
    pub cache: Option<Arc<StoreStats>>,
    pub dir: Option<Arc<StoreStats>>,
    pub launch_s: f64,
    pub finish_s: f64,
}

/// What set-up built, and how to run a search of the suite on it.
pub struct Env {
    pub workload: &'static Workload,
    pub problem: Arc<AppProblem>,
    pub space: Arc<SearchSpace>,
    pub server: Option<Server>,
    scratch: PathBuf,
}

struct SetupTimes {
    total_s: f64,
    problem_s: f64,
    server_s: f64,
}

impl Env {
    fn build(
        w: &'static Workload,
        scratch: &Path,
        rep: usize,
        trace: bool,
    ) -> Result<(Env, SetupTimes), String> {
        let t0 = Instant::now();
        let problem = Arc::new(w.app.problem(w.scale, DATA_SEED));
        let problem_s = t0.elapsed().as_secs_f64();
        let space = Arc::new(SearchSpace::for_app(w.app));
        let dir = scratch.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t1 = Instant::now();
        let server = match w.backend {
            Backend::Pool => None,
            Backend::DistTcp => Some(Server::start(&dir.join("spill"), trace)?),
        };
        let times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            problem_s,
            server_s: t1.elapsed().as_secs_f64(),
        };
        Ok((Env { workload: w, problem, space, server, scratch: scratch.to_path_buf() }, times))
    }

    fn store_dir(&self, tag: &str) -> PathBuf {
        self.scratch.join(tag)
    }

    /// A client of the search's checkpoints, for replay and for clean-up.
    pub fn store(&self, tag: &str) -> Result<Arc<dyn CheckpointStore>, String> {
        Ok(match &self.server {
            None => Arc::new(
                DirStore::new(self.store_dir(tag)).map_err(|e| format!("store {tag}: {e}"))?,
            ),
            Some(server) => Arc::new(RemoteStore::connect(&server.addr, tag, "")),
        })
    }

    pub fn store_kind(&self) -> &'static str {
        if self.server.is_some() {
            "RemoteStore"
        } else {
            "DirStore"
        }
    }

    /// Delete the checkpoints of a finished search (outside any timed region).
    pub fn cleanup(&self, tag: &str) {
        match &self.server {
            None => {
                let _ = std::fs::remove_dir_all(self.store_dir(tag));
            }
            Some(_) => {
                if let Ok(store) = self.store(tag) {
                    for id in store.list() {
                        store.delete(&id);
                    }
                }
            }
        }
    }

    fn dist_config(&self, tag: &str) -> DistConfig {
        let w = self.workload;
        let mut dist = DistConfig::new(w.app, w.scale, DATA_SEED, self.store_dir(tag));
        dist.store_url = self.server.as_ref().map(|s| format!("tcp://{}", s.addr));
        dist
    }

    /// Search `k` with plain stores and backends, as a user would run it.
    /// `tag` names its store directory or bucket; the caller cleans it up.
    pub fn plain(&self, k: usize, workers: usize, tag: &str) -> Result<Search, String> {
        let mut cfg = self.workload.config(k, workers);
        match self.workload.backend {
            Backend::Pool => self.pool_plain(&cfg, tag),
            Backend::DistTcp => {
                cfg.namespace = tag.to_string();
                let dist = self.dist_config(tag);
                let t0 = Instant::now();
                let mut backend =
                    DistBackend::launch(&cfg, &dist).map_err(|e| format!("launch: {e}"))?;
                let trace = run_nas_with_backend(
                    self.problem.kind.name(),
                    Arc::clone(&self.space),
                    &cfg,
                    &mut backend,
                )
                .map_err(|e| format!("search {k}: {e}"))?;
                let stats = backend.finish().map_err(|e| format!("finish: {e}"))?;
                drop(backend);
                Ok(Search {
                    trace,
                    wall_s: t0.elapsed().as_secs_f64(),
                    lost: stats.lost as u64,
                    reassigned: stats.reassigned as u64,
                })
            }
        }
    }

    /// `run_nas` on a fresh `DirStore`: the in-process reference every
    /// backend's canonical trace must equal.
    pub fn pool_plain(&self, cfg: &NasConfig, tag: &str) -> Result<Search, String> {
        let dir = self.store_dir(tag);
        let store: Arc<dyn CheckpointStore> =
            Arc::new(DirStore::new(&dir).map_err(|e| format!("{}: {e}", dir.display()))?);
        let t0 = Instant::now();
        let trace = run_nas(Arc::clone(&self.problem), Arc::clone(&self.space), store, cfg);
        Ok(Search { trace, wall_s: t0.elapsed().as_secs_f64(), lost: 0, reassigned: 0 })
    }

    /// Search `k` behind the benchmark's decorators.
    pub fn traced(&self, k: usize, tag: &str) -> Result<Traced, String> {
        let mut cfg = self.workload.config(k, WORKERS);
        match self.workload.backend {
            Backend::Pool => {
                // What `run_nas` builds, with a clock on either side of the
                // cache: Timed(CachedStore(Timed(DirStore))), same budget.
                let dir = self.store_dir(tag);
                let on_disk = Arc::new(TimedStore::new(
                    DirStore::new(&dir).map_err(|e| format!("{}: {e}", dir.display()))?,
                ));
                let dir_stats = Arc::clone(&on_disk.stats);
                let cached = TimedStore::new(CachedStore::new(on_disk, cfg.cache_bytes));
                let cache_stats = Arc::clone(&cached.stats);
                cfg.cache_bytes = 0;
                let launch = || {
                    Ok(ThreadPoolBackend::new(
                        Arc::clone(&self.problem),
                        Arc::clone(&self.space),
                        Arc::new(cached),
                        &cfg,
                    ))
                };
                // Dropping the pool joins its threads, as `run_nas` does.
                let mut traced = self.drive(k, &cfg, launch, |pool| {
                    drop(pool);
                    Ok((0, 0))
                })?;
                traced.cache = Some(cache_stats);
                traced.dir = Some(dir_stats);
                Ok(traced)
            }
            Backend::DistTcp => {
                cfg.namespace = tag.to_string();
                let dist = self.dist_config(tag);
                let launch =
                    || DistBackend::launch(&cfg, &dist).map_err(|e| format!("launch: {e}"));
                self.drive(k, &cfg, launch, |mut backend: DistBackend| {
                    let stats = backend.finish().map_err(|e| format!("finish: {e}"))?;
                    Ok((stats.lost as u64, stats.reassigned as u64))
                })
            }
        }
    }

    /// Launch a backend, run search `k` on it behind a `TimedBackend`, tear
    /// it down with `finish` (which returns workers lost and candidates
    /// reassigned), and time the three phases.
    fn drive<B: EvalBackend>(
        &self,
        k: usize,
        cfg: &NasConfig,
        launch: impl FnOnce() -> Result<B, String>,
        finish: impl FnOnce(B) -> Result<(u64, u64), String>,
    ) -> Result<Traced, String> {
        let t0 = Instant::now();
        let mut backend = TimedBackend::new(launch()?);
        let launch_s = t0.elapsed().as_secs_f64();
        let app = self.problem.kind.name();
        let trace = run_nas_with_backend(app, Arc::clone(&self.space), cfg, &mut backend)
            .map_err(|e| format!("search {k}: {e}"))?;
        let loop_s = t0.elapsed().as_secs_f64() - launch_s;
        let (inner, stats) = backend.into_parts();
        let (lost, reassigned) = finish(inner)?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Traced {
            search: Search { trace, wall_s, lost, reassigned },
            backend: stats,
            loop_s,
            cache: None,
            dir: None,
            launch_s,
            finish_s: wall_s - launch_s - loop_s,
        })
    }
}

/// Counts operations and collects failed checks across a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The checks every search must pass: exactly `candidates` events with
    /// contiguous ids and finite scores, and no worker lost on the way.
    pub fn search(&mut self, what: &str, s: &Search, candidates: usize) {
        self.attempted += candidates as u64;
        let bad_scores = s.trace.events.iter().filter(|e| !e.score.is_finite()).count() as u64;
        self.failed += bad_scores + s.lost + s.reassigned;
        self.check(s.trace.events.len() == candidates, || {
            format!("{what}: {} events, want {candidates}", s.trace.events.len())
        });
        self.check(s.trace.events.iter().enumerate().all(|(i, e)| e.id == i as u64), || {
            format!("{what}: candidate ids are not 0..{candidates} in order")
        });
        self.check(bad_scores == 0, || format!("{what}: {bad_scores} scores are not finite"));
        self.check(s.lost + s.reassigned == 0, || {
            format!("{what}: {} workers lost, {} candidates reassigned", s.lost, s.reassigned)
        });
    }
}

/// 64-bit FNV-1a, the hash the golden files record.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

fn bench_dir() -> PathBuf {
    std::env::var_os("SWT_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

pub fn golden_path(w: &Workload) -> PathBuf {
    bench_dir().join("golden").join(format!("{}.txt", w.name))
}

/// Golden canonical-trace hashes: `kernel NAME` then one `K HASH` line per
/// search of the suite.
struct Golden {
    kernel: String,
    hashes: Vec<(usize, u64)>,
}

fn read_golden(w: &Workload) -> Result<Golden, String> {
    let path = golden_path(w);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut golden = Golden { kernel: String::new(), hashes: Vec::new() };
    for line in text.lines() {
        match line.split_once(' ') {
            Some(("kernel", name)) => golden.kernel = name.to_string(),
            Some((k, hash)) => match (k.parse(), u64::from_str_radix(hash, 16)) {
                (Ok(k), Ok(hash)) => golden.hashes.push((k, hash)),
                _ => return Err(format!("{}: bad line {line:?}", path.display())),
            },
            None => {}
        }
    }
    Ok(golden)
}

pub fn check_golden(tally: &mut Tally, w: &Workload, csvs: &[String]) {
    let golden = match read_golden(w) {
        Ok(g) => g,
        Err(e) => return tally.failures.push(format!("golden: {e}")),
    };
    let kernel = crate::api::gemm_kernel_name();
    if golden.kernel != kernel {
        return tally.warnings.push(format!(
            "golden hashes were recorded with kernel {:?}, this host runs {kernel:?}: not compared",
            golden.kernel
        ));
    }
    for (k, csv) in csvs.iter().enumerate() {
        match golden.hashes.iter().find(|(gk, _)| *gk == k) {
            Some((_, want)) => tally.check(fnv1a(csv.as_bytes()) == *want, || {
                format!(
                    "search {k}: canonical trace hashes to {:016x}, golden says {want:016x}",
                    fnv1a(csv.as_bytes())
                )
            }),
            None => tally.warnings.push(format!("search {k}: no golden hash on file")),
        }
    }
}

/// Write the golden file of a workload from plain runs of searches `0..n`.
pub fn write_golden(w: &'static Workload, n: usize, scratch: &Path) -> Result<(), String> {
    let scratch = ScratchDir(scratch.join(format!("golden-{}-{}", w.name, std::process::id())));
    let (env, _) = Env::build(w, &scratch.0, 0, false)?;
    let mut text = format!("kernel {}\n", crate::api::gemm_kernel_name());
    for k in 0..n {
        let tag = format!("g{k}");
        let search = env.plain(k, WORKERS, &tag)?;
        env.cleanup(&tag);
        text += &format!("{k} {:016x}\n", fnv1a(search.trace.canonical_csv().as_bytes()));
    }
    let path = golden_path(w);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// splitmix64: the benchmark's own generator for what `--seed` decides.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

pub fn top5_mean(trace: &NasTrace) -> f64 {
    let top = trace.top_k(5);
    top.iter().map(|e| e.score).sum::<f64>() / top.len().max(1) as f64
}

fn wall_summary(walls: &[Vec<f64>]) -> Json {
    let summary = |(k, w): (usize, &Vec<f64>)| {
        let (q1, q3) = quartiles(w);
        Json::obj([
            ("search", Json::Num(k as f64)),
            ("wall_s", Json::Arr(w.iter().map(|v| Json::Num(*v)).collect())),
            ("min_s", Json::Num(fastest(w))),
            ("median_s", Json::Num(median(w))),
            ("q1_s", Json::Num(q1)),
            ("q3_s", Json::Num(q3)),
        ])
    };
    Json::Arr(walls.iter().enumerate().map(summary).collect())
}

/// `reps` set-ups on each of `WORKERS` threads at once; returns one of the
/// `Env`s built and every reading. This host's hardware threads do not run
/// at one speed, and a lone thread reads 5 ms or 7.5 ms for a whole run
/// depending on where the scheduler put it; with every hardware thread busy,
/// as during a search, the reading does not depend on that.
fn setup_round(
    w: &'static Workload,
    scratch: &Path,
    first_rep: usize,
    reps: usize,
    trace: bool,
) -> Result<(Env, Vec<SetupTimes>), String> {
    let per_thread: Vec<Result<(Env, Vec<SetupTimes>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                scope.spawn(move || {
                    let mut times = Vec::with_capacity(reps);
                    let mut env = None;
                    for rep in 0..reps {
                        let (built, time) =
                            Env::build(w, scratch, first_rep + t * reps + rep, trace)?;
                        env = Some(built);
                        times.push(time);
                    }
                    env.map(|e| (e, times)).ok_or_else(|| "no set-up repetitions".to_string())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("set-up thread panicked")).collect()
    });
    let mut env = None;
    let mut all = Vec::with_capacity(WORKERS * reps);
    for built in per_thread {
        let (e, times) = built?;
        env.get_or_insert(e);
        all.extend(times);
    }
    env.map(|e| (e, all)).ok_or_else(|| "no set-up threads".to_string())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    if WORKERS > host::nproc() {
        return Err(format!(
            "refusing to run: {} needs {WORKERS} workers and this host has {} hardware thread(s); \
             more evaluators than threads measures the scheduler, not the program",
            w.name,
            host::nproc()
        ));
    }
    let scratch = ScratchDir(opts.scratch.join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let host_record = host::record(&scratch.0, opts.seed);
    obs_enable(false);

    let (env, mut setups) = setup_round(w, &scratch.0, 0, SETUP_REPS, opts.trace)?;

    let mut tally = Tally::default();
    let searches = w.searches(opts.seconds, opts.trace);
    let mut detail = vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("trace".into(), Json::Bool(opts.trace)),
        ("host".into(), host_record),
        ("searches".into(), Json::Num(searches as f64)),
        ("candidates".into(), Json::Num(w.candidates as f64)),
        ("workers".into(), Json::Num(WORKERS as f64)),
        ("store.kind".into(), Json::Str(env.store_kind().into())),
    ];

    let metrics = if opts.trace {
        let problem_s = median(&setups.iter().map(|s| s.problem_s).collect::<Vec<_>>());
        let server_s = median(&setups.iter().map(|s| s.server_s).collect::<Vec<_>>());
        layers::traced_run(opts, &env, searches, &mut tally, &mut detail, problem_s, server_s)?
    } else {
        timed_run(opts, &env, searches, &mut setups, &mut tally, &mut detail)?
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        warnings: tally.warnings,
        metrics,
        detail: Json::Obj(detail),
    })
}

/// The timed run: every search of the suite `repeats` times with plain
/// stores and backends, the program's own instrumentation off.
fn timed_run(
    opts: &Opts,
    env: &Env,
    searches: usize,
    setups: &mut Vec<SetupTimes>,
    tally: &mut Tally,
    detail: &mut Vec<(String, Json)>,
) -> Result<Vec<Metric>, String> {
    let w = opts.workload;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); searches];
    let mut csvs: Vec<String> = vec![String::new(); searches];
    let mut top5 = vec![0.0; searches];
    let mut rng = SplitMix(opts.seed);
    let between = SETUP_REPS_BETWEEN.div_ceil(searches * w.repeats);
    for rep in 0..w.repeats {
        // Round-robin, in an order `--seed` picks, so that a burst of host
        // noise lands on different searches in different repeats.
        let mut order: Vec<usize> = (0..searches).collect();
        rng.shuffle(&mut order);
        for k in order {
            let tag = format!("s{k}r{rep}");
            // Throw-away set-ups between searches, so that `setup_s` samples
            // the host over the whole run and not one 100 ms window of it.
            setups.extend(setup_round(w, &env.scratch, setups.len(), between, false)?.1);
            let search = env.plain(k, WORKERS, &tag)?;
            env.cleanup(&tag);
            tally.search(&format!("search {k} repeat {rep}"), &search, w.candidates);
            let csv = search.trace.canonical_csv();
            if rep == 0 {
                top5[k] = top5_mean(&search.trace);
                csvs[k] = csv;
            } else {
                tally.check(csvs[k] == csv, || {
                    format!("search {k}: repeat {rep} differs from repeat 0 in its canonical trace")
                });
            }
            walls[k].push(search.wall_s);
        }
    }
    check_golden(tally, w, &csvs);

    // The fastest repeat of each search: host noise only ever slows a repeat
    // down, so the minimum is the reading it disturbed least.
    let wall: f64 = walls.iter().map(|w| fastest(w)).sum();
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let values = [
        (searches * w.candidates) as f64 / wall,
        top5.iter().sum::<f64>() / searches as f64,
        host::peak_rss_mb(),
        setup_s,
    ];
    detail.push(("repeats".into(), Json::Num(w.repeats as f64)));
    detail.push((
        "setup_walls_s".into(),
        Json::Arr(setups.iter().map(|s| Json::Num(s.total_s)).collect()),
    ));
    detail.push(("search_walls".into(), wall_summary(&walls)));
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric { name: m.name.into(), value, unit: m.unit.into() })
        .collect())
}
