//! Shared infrastructure for the integration tests.
//!
//! Integration-test binaries are separate crates; each `#[path]`-includes
//! this module, so every helper is `pub` and some are unused in any single
//! binary (hence the `dead_code` allowance).

#![allow(dead_code)]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swt::nas::BackendResult;
use swt::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp dir unique across processes (pid) and across calls within this
/// process (counter), so concurrent test binaries and repeated tests in one
/// binary can never collide on a path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swt_{tag}_{}_{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A distributed Uno quick run (data seed 11) over the shared store
/// `store`, its workers this package's `swt` binary — so a test never runs
/// a stale binary from elsewhere on the path.
pub fn dist_config(store: PathBuf) -> DistConfig {
    let mut cfg = DistConfig::new(AppKind::Uno, DataScale::Quick, 11, store);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_swt")));
    cfg
}

/// The in-process run of the search [`dist_config`] distributes, on a
/// `DirStore` at `store_dir`: the reference a distributed trace must equal.
pub fn run_in_process(cfg: &NasConfig, store_dir: &Path) -> NasTrace {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::new(store_dir).unwrap());
    run_nas(problem, space, store, cfg)
}

/// Poll `cond` until it returns true or `timeout` elapses — the
/// deadline-based replacement for fixed sleeps when a test waits on state
/// produced by another process (worker checkpoints on the shared store,
/// reaped children, …). Returns whether the condition was met, so callers
/// assert with their own message.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > deadline {
            // One last look: the condition may have become true while the
            // poller was asleep right at the deadline.
            return cond();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Conservation: folding every per-worker snapshot through
/// `RunReport::merge` must equal the plain per-counter (and per-histogram)
/// sum over processes — report.json totals for a multi-process run are
/// produced exactly this way.
pub fn assert_conserved(stats: &DistRunStats, what: &str) {
    let merged = stats.workers_report();
    let mut names: Vec<&str> = Vec::new();
    for (_, m) in &stats.per_worker {
        for c in &m.counters {
            if !names.contains(&c.name.as_str()) {
                names.push(&c.name);
            }
        }
    }
    assert!(!names.is_empty(), "{what}: workers reported no counters at all");
    for name in names {
        let sum: u64 = stats.per_worker.iter().map(|(_, m)| m.counter(name)).sum();
        assert_eq!(merged.counter(name), sum, "{what}: counter `{name}` not conserved");
    }
    for h in &merged.histograms {
        let (mut count, mut sum) = (0u64, 0u64);
        for (_, m) in &stats.per_worker {
            if let Some(wh) = m.histograms.iter().find(|x| x.name == h.name) {
                count += wh.count;
                sum += wh.sum;
            }
        }
        assert_eq!((h.count, h.sum), (count, sum), "{what}: histogram `{}` not conserved", h.name);
    }
}

/// What one injected worker kill must leave behind. [`Inject`] kills the
/// victim while it holds a candidate, but a `Result` already in the
/// socket is processed before the EOF — then nothing is left to reassign, so
/// "at least one reassignment" is a race, not a property. Structural instead:
/// exactly one loss, at most one reassignment, and every candidate id traced
/// exactly once (nothing dropped with the victim, nothing delivered twice).
pub fn assert_kill_absorbed(trace: &NasTrace, lost: usize, reassigned: usize, what: &str) {
    assert_eq!(lost, 1, "{what}: the injected kill must be observed as exactly one loss");
    assert!(reassigned <= 1, "{what}: one kill reassigned {reassigned} candidates");
    let mut ids: Vec<u64> = trace.events.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.events.len(), "{what}: a candidate id was traced twice");
}

/// The A/B identity contract: everything the strategy and the paper's
/// analyses consume must match bit-for-bit.
pub fn assert_traces_identical(a: &NasTrace, b: &NasTrace, what: &str) {
    assert_eq!(a.events.len(), b.events.len(), "{what}: event counts differ");
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x.id, y.id, "{what}: id order diverged");
        assert_eq!(x.arch, y.arch, "{what}: arch of c{} diverged", x.id);
        assert_eq!(x.parent, y.parent, "{what}: parent of c{} diverged", x.id);
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score of c{} diverged ({} vs {})",
            x.id,
            x.score,
            y.score
        );
        assert_eq!(
            x.transfer_tensors, y.transfer_tensors,
            "{what}: transfer tensors of c{} diverged",
            x.id
        );
        assert_eq!(
            x.transfer_bytes, y.transfer_bytes,
            "{what}: transfer bytes of c{} diverged",
            x.id
        );
    }
    let top_a: Vec<u64> = a.top_k(5).iter().map(|e| e.id).collect();
    let top_b: Vec<u64> = b.top_k(5).iter().map(|e| e.id).collect();
    assert_eq!(top_a, top_b, "{what}: top-K diverged");
}

/// SIGKILL the worker in `slot` once `after` results have been delivered
/// and it holds a candidate, so the reassignment path (not merely loss
/// detection) runs.
#[derive(Debug, Clone, Copy)]
pub struct Kill {
    pub slot: usize,
    pub after: usize,
}

/// Spawn `count` workers once `after` results have been delivered, and
/// block until each is admitted or refused, so the join lands at a fixed
/// point in the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Join {
    pub after: usize,
    pub count: usize,
}

/// Faults from outside the coordinator: an [`EvalBackend`] that forwards to
/// a [`DistBackend`] and, after each submit and each delivered result,
/// fires whatever of its [`Kill`] and [`Join`] is due. The victim is found
/// the way an operator finds it, by the pid `/status` shows.
pub struct Inject<'a> {
    dist: &'a mut DistBackend,
    kill: Option<Kill>,
    join: Option<Join>,
    delivered: usize,
}

impl Inject<'_> {
    fn fire(&mut self) -> io::Result<()> {
        if let Some(join) = self.join.take_if(|join| self.delivered >= join.after) {
            self.dist.spawn_workers(join.count)?;
        }
        let Some(kill) = self.kill.filter(|kill| self.delivered >= kill.after) else {
            return Ok(());
        };
        let workers = self.dist.live().workers();
        let Some(victim) = workers.get(kill.slot).filter(|w| w.alive && w.current.is_some()) else {
            return Ok(());
        };
        let killed =
            std::process::Command::new("kill").args(["-KILL", &victim.pid.to_string()]).status()?;
        assert!(killed.success(), "kill -KILL {} failed", victim.pid);
        self.kill = None;
        Ok(())
    }
}

impl EvalBackend for Inject<'_> {
    fn capacity(&self) -> usize {
        self.dist.capacity()
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        self.dist.submit(cand)?;
        self.fire()
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        let result = self.dist.next_result()?;
        self.delivered += 1;
        self.fire()?;
        Ok(result)
    }
}

/// [`run_nas_dist`] with faults injected through [`Inject`].
pub fn run_injected(
    nas: &NasConfig,
    dist: &DistConfig,
    kill: Option<Kill>,
    join: Option<Join>,
) -> io::Result<(NasTrace, DistRunStats)> {
    let space = Arc::new(SearchSpace::for_app(dist.app));
    let mut backend = DistBackend::launch(nas, dist)?;
    let mut inject = Inject { dist: &mut backend, kill, join, delivered: 0 };
    let trace = run_nas_with_backend(dist.app.name(), space, nas, &mut inject)?;
    let stats = backend.finish()?;
    Ok((trace, stats))
}
