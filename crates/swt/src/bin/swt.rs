//! The `swt` command-line tool.
//!
//! Modes:
//! * `swt run …` — run an in-process NAS (thread-pool backend) with the
//!   same search knobs as `dist-run`.
//! * `swt dist-run …` — launch a distributed NAS run: this process becomes
//!   the coordinator and spawns `--workers` child processes of itself.
//!   `--serve ADDR` additionally exposes the in-flight run as `/status`
//!   and `/metrics` on a local HTTP listener; `--chrome-trace FILE` turns
//!   the event timeline on, in the coordinator and in every worker, and
//!   writes the whole run's Chrome trace, on the coordinator's clock, when
//!   it ends. Without it no process records events.
//! * `swt dist-top --addr ADDR` — poll a serving coordinator's `/status`
//!   and render a refreshing per-worker table (a `top` for the run).
//! * `swt dist-worker --connect ADDR` — the worker side: how the
//!   coordinator's own children connect, and how any other process joins a
//!   running `dist-run` (ADDR is its `coordinator on ADDR` log line, or the
//!   `addr` in its `/status`).
//! * `swt ckpt-server --spill DIR` — run the networked checkpoint store;
//!   point `dist-run --store tcp://host:port` at it and a worker fetches a
//!   parent another worker trained whole, once (DESIGN.md §12).
//!
//! Every mode takes `--flag value` pairs and refuses a flag it does not
//! accept, or a `--flag=value` spelling, before doing any work.
//!
//! See EXPERIMENTS.md §"Distributed runs" for walkthroughs, including the
//! kill-a-worker and join-a-worker demos, and §"Watching a run live".

use std::num::NonZeroU32;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use swt::prelude::*;
use swt_dist::{DistConfig, LiveRunView, CACHE_COUNTER_KINDS};
use swt_obs::json::Json;

const USAGE: &str = "\
usage:
  swt run [options]              run an in-process NAS (thread-pool backend)
    --app NAME                   cifar10|mnist|nt3|uno          [uno]
    --scale quick|full           dataset scale                  [quick]
    --scheme baseline|lp|lcs     weight-transfer scheme         [lcs]
    --candidates N               candidates to evaluate         [24]
    --workers N                  evaluator threads              [2]
    --epochs N                   epochs per estimate            [1]
    --seed N                     run seed                       [9]
    --data-seed N                synthetic dataset seed         [11]
    --trace FILE.csv             write the run trace CSV
    --canonical-trace FILE.csv   write the deterministic-columns-only trace
    --report FILE.json           write the observability report
  swt dist-run [options]         run a distributed NAS (this process coordinates)
    (accepts every `swt run` option above, plus:)
    --namespace S                checkpoint-id prefix           []
    --store DIR|tcp://H:P        shared checkpoint dir, or a running
                                 `swt ckpt-server` endpoint     [./swt_dist_store]
    --max-workers N              refuse joins beyond N live workers   [64]
    --serve ADDR                 serve the live run view over HTTP
                                 (/status JSON, /metrics Prometheus text),
                                 e.g. 127.0.0.1:0
    --chrome-trace FILE.json     record every process's event timeline and,
                                 at run end, write it as Chrome trace JSON
                                 (chrome://tracing, Perfetto)
  swt dist-top --addr HOST:PORT  watch a serving coordinator
    --interval-ms N              poll cadence                   [500]
    --iterations N               stop after N polls (0 = forever)    [0]
    --fetch PATH                 fetch PATH once, print the raw body, exit
                                 (scripting/CI helper; no curl needed)
  swt dist-worker --connect ADDR join the dist-run coordinating on ADDR
  swt ckpt-server [options]      run the networked checkpoint store
    --bind HOST:PORT             listen address                 [127.0.0.1:7421]
    --spill DIR                  durable WTC3 spill directory   (required)
    --serve HOST:PORT            expose /status, /metrics over HTTP
    --max-seconds N              exit after N seconds (demos/CI; default: run
                                 until killed)
    env SWT_CKPT_SECRET          shared HMAC secret, checked on every client
                                 Hello (empty/unset = open mode); set the same
                                 value for dist-run so workers can connect
";

/// The flags `run` accepts; `dist-run` accepts these and [`DIST_RUN_FLAGS`].
const RUN_FLAGS: &[&str] = &[
    "--app",
    "--scale",
    "--scheme",
    "--candidates",
    "--workers",
    "--epochs",
    "--seed",
    "--data-seed",
    "--trace",
    "--canonical-trace",
    "--report",
];
const DIST_RUN_FLAGS: &[&str] =
    &["--namespace", "--store", "--max-workers", "--serve", "--chrome-trace"];
const DIST_TOP_FLAGS: &[&str] = &["--addr", "--interval-ms", "--iterations", "--fetch"];
const DIST_WORKER_FLAGS: &[&str] = &["--connect"];
const CKPT_SERVER_FLAGS: &[&str] = &["--bind", "--spill", "--serve", "--max-seconds"];

type Mode = fn(&[String]) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags): (Mode, &[&[&str]]) = match args.first().map(String::as_str) {
        Some("run") => (try_run_local, &[RUN_FLAGS]),
        Some("dist-run") => (try_dist_run, &[RUN_FLAGS, DIST_RUN_FLAGS]),
        Some("dist-top") => (try_dist_top, &[DIST_TOP_FLAGS]),
        Some("dist-worker") => (try_dist_worker, &[DIST_WORKER_FLAGS]),
        Some("ckpt-server") => (try_ckpt_server, &[CKPT_SERVER_FLAGS]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown mode `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let rest = &args[1..];
    match check_flags(rest, flags).and_then(|()| mode(rest)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{}: {msg}", args[0]);
            ExitCode::FAILURE
        }
    }
}

/// Every argument is a `--flag value` pair naming a flag of `accepted`:
/// anything else would otherwise be read as absent and silently defaulted.
fn check_flags(args: &[String], accepted: &[&[&str]]) -> Result<(), String> {
    args.chunks(2).try_for_each(|pair| match pair {
        [flag, _] if accepted.iter().any(|set| set.contains(&flag.as_str())) => Ok(()),
        [flag] if accepted.iter().any(|set| set.contains(&flag.as_str())) => {
            Err(format!("`{flag}` needs a value"))
        }
        [flag, ..] if flag.starts_with("--") && flag.contains('=') => {
            Err(format!("`{flag}`: a flag's value is the next argument, not after `=`"))
        }
        [flag, ..] => Err(format!("unknown flag `{flag}`\n{USAGE}")),
        [] => Ok(()),
    })
}

/// The search flags `run` and `dist-run` share: the app and scale, the
/// dataset seed and the NAS configuration.
fn search_args(args: &[String]) -> Result<(AppKind, DataScale, u64, NasConfig), String> {
    let app_raw = opt(args, "--app").unwrap_or("uno");
    let app = AppKind::from_slug(app_raw).ok_or_else(|| format!("unknown app `{app_raw}`"))?;
    let scale = match opt(args, "--scale").unwrap_or("quick") {
        "quick" => DataScale::Quick,
        "full" => DataScale::Full,
        other => return Err(format!("unknown scale `{other}`")),
    };
    let scheme = match opt(args, "--scheme").unwrap_or("lcs") {
        "baseline" => TransferScheme::Baseline,
        "lp" => TransferScheme::Lp,
        "lcs" => TransferScheme::Lcs,
        other => return Err(format!("unknown scheme `{other}`")),
    };
    let candidates: usize = parse(args, "--candidates", 24)?;
    let workers: usize = parse(args, "--workers", 2)?;
    let seed: u64 = parse(args, "--seed", 9)?;
    if candidates == 0 || workers == 0 {
        return Err("--candidates and --workers must be positive".into());
    }
    let mut nas = NasConfig::quick(scheme, candidates, workers, seed);
    nas.epochs = parse(args, "--epochs", NonZeroU32::MIN)?.get() as usize;
    Ok((app, scale, parse(args, "--data-seed", 11)?, nas))
}

fn try_run_local(args: &[String]) -> Result<(), String> {
    let (app, scale, data_seed, nas) = search_args(args)?;

    swt_obs::enable();
    let problem = Arc::new(app.problem(scale, data_seed));
    let space = Arc::new(SearchSpace::for_app(app));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let t0 = std::time::Instant::now();
    let trace = run_nas(problem, space, store, &nas);
    let wall = t0.elapsed();

    println!(
        "completed {} evaluation(s) of {} candidate(s) in {:.2?} ({} app, {} scheme, seed {})",
        trace.events.len(),
        nas.total_candidates,
        wall,
        app.name(),
        nas.scheme.name(),
        nas.seed
    );
    epilogue(args, "run", app, &nas, &trace, print_layer_kinds)
}

/// What `run` and `dist-run` print and write once the search is over: the
/// best candidate, the mode's own summary of the one report captured here,
/// then the `--trace`, `--canonical-trace` and `--report` files.
fn epilogue(
    args: &[String],
    mode: &str,
    app: AppKind,
    nas: &NasConfig,
    trace: &NasTrace,
    summary: impl FnOnce(&RunReport),
) -> Result<(), String> {
    if let Some(best) = trace.top_k(1).first() {
        println!("best candidate: c{} score {:.6} arch {}", best.id, best.score, best.arch);
    }
    let report = RunReport::capture()
        .with_meta("mode", mode)
        .with_meta("app", app.name())
        .with_meta("scheme", nas.scheme.name())
        .with_meta("candidates", nas.total_candidates)
        .with_meta("workers", nas.workers)
        .with_meta("seed", nas.seed);
    summary(&report);
    let cannot =
        |path: &PathBuf, e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(path) = opt(args, "--trace").map(PathBuf::from) {
        trace.write_csv(&path).map_err(|e| cannot(&path, e))?;
        println!("trace: {}", path.display());
    }
    if let Some(path) = opt(args, "--canonical-trace").map(PathBuf::from) {
        trace.write_canonical_csv(&path).map_err(|e| cannot(&path, e))?;
        println!("canonical trace: {}", path.display());
    }
    if let Some(path) = opt(args, "--report").map(PathBuf::from) {
        report.write_json(&path).map_err(|e| cannot(&path, e))?;
        println!("report: {}", path.display());
    }
    Ok(())
}

/// Where the training steps' time went, by layer kind (forward + backward
/// seconds summed over workers, calls in parentheses).
fn print_layer_kinds(report: &RunReport) {
    let rows = report.layer_kinds();
    let total: f64 = rows.iter().map(|r| r.fwd_secs + r.bwd_secs).sum();
    if total <= 0.0 {
        return;
    }
    println!("layer kinds ({total:.3}s in layers):");
    for r in rows {
        println!(
            "  {:<8} {:5.1}%  fwd {:8.3}s ({:>7})  bwd {:8.3}s ({:>7})",
            r.kind,
            100.0 * (r.fwd_secs + r.bwd_secs) / total,
            r.fwd_secs,
            r.fwd_calls,
            r.bwd_secs,
            r.bwd_calls
        );
    }
}

/// Pull the value following `--key` out of an option list.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("invalid value for {key}: `{raw}`")),
    }
}

fn try_dist_worker(args: &[String]) -> Result<(), String> {
    let connect = opt(args, "--connect").ok_or_else(|| format!("--connect required\n{USAGE}"))?;
    swt_dist::worker_main(connect).map_err(|e| format!("worker: {e}"))
}

fn try_ckpt_server(args: &[String]) -> Result<(), String> {
    let bind = opt(args, "--bind").unwrap_or("127.0.0.1:7421").to_string();
    let spill: PathBuf =
        opt(args, "--spill").ok_or_else(|| format!("--spill DIR required\n{USAGE}"))?.into();
    let mut cfg = ServerConfig::new(bind, spill);
    cfg.serve = opt(args, "--serve").map(str::to_string);
    // The secret rides in the environment, not argv (which `ps` exposes).
    cfg.secret = std::env::var("SWT_CKPT_SECRET").unwrap_or_default();
    let max_seconds: Option<u64> = match opt(args, "--max-seconds") {
        Some(raw) => {
            Some(raw.parse().map_err(|_| format!("invalid value for --max-seconds: `{raw}`"))?)
        }
        None => None,
    };

    swt_obs::enable();
    let mut server = CkptServer::start(cfg).map_err(|e| format!("start: {e}"))?;
    println!(
        "ckpt-server listening on {} (auth {})",
        server.addr(),
        if std::env::var("SWT_CKPT_SECRET").map_or(true, |s| s.is_empty()) {
            "open"
        } else {
            "shared-secret"
        }
    );
    match max_seconds {
        Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    server.stop();
    Ok(())
}

fn try_dist_run(args: &[String]) -> Result<(), String> {
    let (app, scale, data_seed, mut nas) = search_args(args)?;
    let workers = nas.workers;
    // `--store` is either a shared directory (the default DirStore path —
    // what the A/B identity gates pin) or a `tcp://host:port` endpoint of a
    // running `swt ckpt-server`, which the workers then use instead.
    let store = opt(args, "--store").unwrap_or("swt_dist_store");
    nas.namespace = opt(args, "--namespace").unwrap_or("").to_string();
    let mut dist = DistConfig::new(app, scale, data_seed, PathBuf::from(store));
    dist.store_url = store.starts_with("tcp://").then(|| store.to_string());
    dist.max_workers = parse(args, "--max-workers", dist.max_workers)?;
    if dist.max_workers < workers {
        return Err(format!("--max-workers {} is below --workers {workers}", dist.max_workers));
    }

    // The live view only when someone will read it, and the timeline only
    // for the Chrome trace written at run end (the coordinator's switch also
    // turns its workers' on): the canonical schedule (and trace) is
    // identical either way, this only adds export.
    let chrome_trace = opt(args, "--chrome-trace").map(PathBuf::from);
    let serve_addr = opt(args, "--serve");
    let live = (serve_addr.is_some() || chrome_trace.is_some()).then(|| {
        let live = Arc::new(LiveRunView::new());
        dist.live = Some(Arc::clone(&live));
        live
    });

    swt_obs::enable();
    if chrome_trace.is_some() {
        swt_obs::timeline::enable();
    }
    let _server = match (serve_addr, &live) {
        (Some(bind), Some(live)) => {
            let server = ObsServer::start(bind, Arc::clone(live) as Arc<dyn ServeSource>)
                .map_err(|e| format!("cannot serve on {bind}: {e}"))?;
            println!("live: http://{0}/status  http://{0}/metrics", server.addr());
            Some(server)
        }
        _ => None,
    };

    let t0 = std::time::Instant::now();
    let (trace, stats) = swt_dist::run_nas_dist(&nas, &dist).map_err(|e| e.to_string())?;
    let wall = t0.elapsed();

    println!(
        "completed {} candidates on {} workers in {:.2?} ({} app, {} scheme, seed {})",
        trace.events.len(),
        workers,
        wall,
        app.name(),
        nas.scheme.name(),
        nas.seed
    );
    epilogue(args, "dist-run", app, &nas, &trace, |report| {
        print_layer_kinds(report);
        if stats.lost > 0 {
            println!(
                "fault tolerance: {} worker(s) lost, {} candidate(s) reassigned",
                stats.lost, stats.reassigned
            );
        }
        if stats.joined > 0 || stats.rejected > 0 {
            println!(
                "elasticity: {} worker(s) joined mid-run, {} join(s) rejected at max_workers={}",
                stats.joined, stats.rejected, dist.max_workers
            );
        }
        // Bytes saved from the trace, which counts them for every store (a
        // worker's `ckpt.dir.saved_bytes` stays 0 over tcp); cache counts
        // only where the workers have a cache, in front of a tcp store:
        // hits and misses, entries the lineage watermark retired, entries
        // the byte cap pushed out.
        let saved: u64 = trace.events.iter().map(|e| e.checkpoint_bytes).sum();
        let caches = match &dist.store_url {
            Some(_) => {
                let count = |k| format!("{k} {}", report.counter(&format!("ckpt.cache.{k}")));
                format!(", provider caches: {}", CACHE_COUNTER_KINDS.map(count).join(" "))
            }
            None => String::new(),
        };
        println!(
            "metrics merged from {} worker process(es): gemm calls {}, checkpoint bytes saved \
             {saved}{caches}",
            stats.per_worker.len(),
            report.counter_prefix_sum("tensor.gemm."),
        );
    })?;
    if let (Some(path), Some(live)) = (chrome_trace, &live) {
        std::fs::write(&path, live.trace_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        match live.events_dropped() {
            0 => println!("chrome trace: {}", path.display()),
            n => println!(
                "chrome trace: {} ({n} events lost at the caps: {} per process ring, {} in \
                 the view)",
                path.display(),
                swt_obs::timeline::RING_CAPACITY,
                swt_dist::live::MAX_VIEW_EVENTS
            ),
        }
    }
    Ok(())
}

fn try_dist_top(args: &[String]) -> Result<(), String> {
    let Some(addr) = opt(args, "--addr") else {
        return Err(format!("--addr HOST:PORT required\n{USAGE}"));
    };
    if let Some(path) = opt(args, "--fetch") {
        // One-shot raw fetch: the scripting/CI path (the container has no
        // curl; this keeps smoke tests std-only too).
        let body = swt_obs::serve::http_get(addr, path).map_err(|e| e.to_string())?;
        println!("{body}");
        return Ok(());
    }
    let interval: u64 = parse(args, "--interval-ms", 500)?;
    let iterations: usize = parse(args, "--iterations", 0)?;
    let mut polls = 0usize;
    loop {
        let body = swt_obs::serve::http_get(addr, "/status").map_err(|e| e.to_string())?;
        let status = Json::parse(&body).map_err(|e| format!("bad /status payload: {e}"))?;
        // ANSI clear + home, then the freshly rendered table.
        print!("\x1b[2J\x1b[H{}", render_top(&status));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        polls += 1;
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(50)));
    }
}

/// Render one `/status` document as the refreshing per-worker table.
fn render_top(status: &Json) -> String {
    let num = |k: &str| status.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let app = status.get("meta").and_then(|m| m.get("app")).and_then(Json::as_str).unwrap_or("?");
    let mut out = format!(
        "swt dist-top — app {app}  uptime {:.1}s  window {}  workers live {}\n\
         results {}  queued {}  in flight {}  ewma/candidate {:.3}s\n\n",
        num("uptime_secs"),
        num("window") as u64,
        num("workers_live") as u64,
        num("results") as u64,
        num("queue_depth") as u64,
        num("inflight") as u64,
        num("ewma_candidate_secs"),
    );
    out.push_str(&format!(
        "{:>3} {:>5} {:>6} {:>7} {:>8} {:>9} {:>10} {:>10} {:>10}\n",
        "id", "alive", "seq", "frames", "results", "current", "wait_s", "eval_s", "send_s"
    ));
    let workers = status.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    for w in workers {
        let wf = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let span_secs = |path: &str| {
            w.get("spans")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .find(|s| s.get("path").and_then(Json::as_str) == Some(path))
                .and_then(|s| s.get("total_secs"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let alive = matches!(w.get("alive"), Some(Json::Bool(true)));
        let current = match w.get("current").and_then(Json::as_u64) {
            Some(id) => format!("c{id}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>3} {:>5} {:>6} {:>7} {:>8} {:>9} {:>10.3} {:>10.3} {:>10.3}\n",
            wf("id") as u64,
            if alive { "yes" } else { "no" },
            wf("seq") as u64,
            wf("frames") as u64,
            wf("results") as u64,
            current,
            span_secs("nas.queue_wait"),
            span_secs("nas.eval"),
            span_secs("nas.result_send"),
        ));
    }
    out
}
