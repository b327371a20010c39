//! Evaluation backends: where candidates actually train.
//!
//! The strategy/top-K loop in [`crate::runner`] is backend-agnostic: it
//! hands [`Candidate`]s to an [`EvalBackend`] and consumes completions in
//! whatever order they arrive. Two implementations exist:
//!
//! * [`ThreadPoolBackend`] (here) — the historical in-process pool, one
//!   evaluator thread per simulated GPU.
//! * `swt_dist::DistBackend` — a multi-process coordinator/worker backend
//!   speaking a framed TCP protocol, with heartbeat-based fault tolerance
//!   and elastic scale-out (workers may join mid-run).
//!
//! Both must yield bit-identical runs for the same `NasConfig`; the
//! deterministic dispatch window lives in the runner, so a backend only has
//! to guarantee that evaluating candidate `c` produces the same
//! [`EvalOutcome`] wherever it runs (seeds derive from `(run_seed, id)` and
//! transfers read the deterministic parent checkpoint).

use crate::candidate::Candidate;
use crate::evaluator::{BatchedEval, EvalOutcome, Evaluator};
use crate::runner::{BatchEval, NasConfig};
use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use swt_checkpoint::CheckpointStore;
use swt_data::AppProblem;
use swt_space::SearchSpace;

/// One completed evaluation as returned by a backend. `t_start`/`t_end` are
/// seconds since the backend was created (the trace's run-relative clock).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendResult {
    pub cand: Candidate,
    pub t_start: f64,
    pub t_end: f64,
    pub outcome: EvalOutcome,
}

/// A pool of candidate evaluators (threads, processes, or machines).
///
/// The runner never holds more than [`EvalBackend::capacity`] candidates in
/// flight; `submit` must therefore not block on evaluation (queueing is
/// fine), and `next_result` blocks until any in-flight candidate completes.
/// Results may arrive in any order; the runner reorders them. A backend may
/// deliver duplicate results for one candidate id after an internal retry —
/// the runner deduplicates — but every submitted candidate must eventually
/// be delivered at least once, or `next_result` must return an error.
pub trait EvalBackend {
    /// Maximum number of candidates usefully in flight. Constant for the
    /// lifetime of the backend (it defines the deterministic dispatch
    /// window), even as the real pool behind it changes size: a backend
    /// whose capacity shrinks after failures keeps reporting the full
    /// window and queues the overflow, and an elastic backend that starts
    /// short-handed or admits workers mid-run likewise reports the
    /// configured window throughout. Candidate→schedule assignment is a
    /// pure function of the window, so pool churn changes *which process*
    /// evaluates a candidate, never *which candidate* is scheduled.
    fn capacity(&self) -> usize;

    /// Queue one candidate for evaluation.
    fn submit(&mut self, cand: Candidate) -> io::Result<()>;

    /// Wait for the next completion. Errors are fatal to the run (the
    /// backend reports and recovers from individual failures internally).
    fn next_result(&mut self) -> io::Result<BackendResult>;
}

/// Order-of-magnitude proxy for one training step's GEMM work: forward
/// multiply-adds of a small candidate scale with `batch × Σ input elements ×
/// a nominal hidden width`. Deliberately architecture-independent — the
/// backend sizes batching *before* any candidate is materialised, so the
/// proxy can only use the problem (which is fixed for the whole run).
fn flops_per_step_proxy(problem: &AppProblem) -> u64 {
    let per_sample: usize =
        problem.train.inputs().iter().map(|t| t.numel() / t.shape().dim(0).max(1)).sum();
    const REF_HIDDEN_WIDTH: u64 = 256;
    2 * problem.batch_size as u64 * per_sample.max(1) as u64 * REF_HIDDEN_WIDTH
}

/// The `BatchEval::Auto` policy: candidates whose per-step work cannot keep
/// even one core's microkernel busy gain nothing from intra-op threads, so
/// when the proxy falls below a per-core threshold the window is packed onto
/// ~one slot thread per core (`workers.div_ceil(hardware)` candidates per
/// slot). Large-model problems keep the historical one-thread-per-worker
/// shape.
fn auto_batch(workers: usize, hardware: usize, problem: &AppProblem) -> usize {
    const SMALL_STEP_FLOPS_PER_CORE: u64 = 512 << 20;
    let threshold = SMALL_STEP_FLOPS_PER_CORE.saturating_mul(hardware as u64);
    if flops_per_step_proxy(problem) < threshold {
        workers.div_ceil(hardware.max(1))
    } else {
        1
    }
}

fn batch_size_for(cfg: &NasConfig, hardware: usize, problem: &AppProblem) -> usize {
    match cfg.batch_eval {
        BatchEval::Off => 1,
        BatchEval::Fixed(n) => n.clamp(1, cfg.workers),
        BatchEval::Auto => auto_batch(cfg.workers, hardware, problem).clamp(1, cfg.workers),
    }
}

/// The in-process backend: evaluator slot threads pulling from one shared
/// queue, exactly DeepHyper's thread-pool evaluator shape. With
/// `cfg.batch_eval` engaged, the `workers`-wide dispatch window is serviced
/// by fewer slot threads, each draining several queued candidates per trip
/// (a [`BatchedEval`] unit) — same window, same results, fewer runnable
/// threads.
pub struct ThreadPoolBackend {
    task_tx: Option<mpsc::Sender<Candidate>>,
    result_rx: mpsc::Receiver<BackendResult>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    batch: usize,
    slots: usize,
    /// Restores the previous intra-op thread budget when the backend drops,
    /// so a later run in the same process starts from a clean slate.
    _budget: swt_tensor::parallel::ThreadBudgetGuard,
}

impl ThreadPoolBackend {
    /// Spawn the evaluator slot threads sharing `store`.
    ///
    /// Thread-budget policy: every worker slot models one GPU, and each runs
    /// its candidate's training mostly single-threaded. The intra-op pool in
    /// swt-tensor must therefore share the machine with the slot pool —
    /// without this cap, `workers` evaluators each fanning out to
    /// `available_parallelism()` intra-op threads oversubscribes the host by
    /// a factor of `workers` and context-switch thrash erases the speedup.
    /// Budget = hardware threads / concurrently-training candidates
    /// (`slots × lanes`), floored at 1 — pure inter-candidate parallelism
    /// once the window covers the cores.
    pub fn new(
        problem: Arc<AppProblem>,
        space: Arc<SearchSpace>,
        store: Arc<dyn CheckpointStore>,
        cfg: &NasConfig,
    ) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let batch = batch_size_for(cfg, hardware, &problem);
        let slots = cfg.workers.div_ceil(batch);
        // Intra-slot candidate parallelism: when batching has freed cores
        // (slots < hardware), each slot fans its drained batch over `lanes`
        // lane threads; on a saturated host lanes == 1 and batches run
        // sequentially on the slot thread.
        let lanes = (hardware / slots).max(1).min(batch);
        let budget = swt_tensor::parallel::scoped_max_threads((hardware / (slots * lanes)).max(1));
        if batch > 1 {
            swt_obs::gauge!("eval.batch.size").set(batch as i64);
            swt_obs::gauge!("eval.batch.slots").set(slots as i64);
        }

        let start = Instant::now();
        let (task_tx, task_rx) = mpsc::channel::<Candidate>();
        // Slots pull tasks from one shared queue; std's Receiver is
        // single-consumer, so it is wrapped in a mutex (lock contention is
        // negligible: tasks take seconds, the lock nanoseconds).
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (result_tx, result_rx) = mpsc::channel::<BackendResult>();

        let mut handles = Vec::with_capacity(slots);
        for slot in 0..slots {
            let task_rx = Arc::clone(&task_rx);
            let result_tx = result_tx.clone();
            let mut unit = BatchedEval::new(slot, lanes, || {
                Evaluator::with_namespace(
                    Arc::clone(&problem),
                    Arc::clone(&space),
                    Arc::clone(&store),
                    cfg.scheme,
                    cfg.epochs,
                    cfg.seed,
                    cfg.namespace.clone(),
                )
            });
            handles.push(std::thread::spawn(move || {
                // Attribute this thread's spans (queue wait, evaluation and
                // everything beneath) to its worker slot in run reports.
                swt_obs::span::set_worker(slot);
                loop {
                    // Hold the lock only for the recv handoff, never while
                    // evaluating. The span separates time spent starved for
                    // work from time spent evaluating (the per-worker
                    // breakdown behind the paper's Fig. 10-style attribution).
                    // Blocking recv for the first candidate only, then a
                    // greedy non-blocking drain: a slot must never idle
                    // waiting for a "full" batch — the runner releases new
                    // work one candidate per report, so waiting would
                    // deadlock the window.
                    let mut cands: Vec<Candidate> = Vec::with_capacity(batch);
                    {
                        let _wait_span = swt_obs::span!("nas.queue_wait");
                        let queue = task_rx.lock().expect("task queue poisoned");
                        let Ok(first) = queue.recv() else { break };
                        cands.push(first);
                        while cands.len() < batch {
                            match queue.try_recv() {
                                Ok(c) => cands.push(c),
                                Err(_) => break,
                            }
                        }
                    }
                    if batch > 1 {
                        swt_obs::gauge!("eval.batch.occupancy")
                            .set((cands.len() * 100 / batch) as i64);
                    }
                    let results = unit.eval_batch(&cands, &start);
                    for result in results {
                        // The send itself is cheap, but it wakes the
                        // scheduler and the OS often deschedules this thread
                        // right at the futex wake — milliseconds a per-worker
                        // report would otherwise fail to attribute.
                        let sent = {
                            let _send_span = swt_obs::span!("nas.result_send");
                            result_tx.send(result)
                        };
                        if sent.is_err() {
                            return;
                        }
                    }
                }
            }));
        }
        ThreadPoolBackend {
            task_tx: Some(task_tx),
            result_rx,
            handles,
            workers: cfg.workers,
            batch,
            slots,
            _budget: budget,
        }
    }

    /// Candidates drained per slot trip (1 when batching is off).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Slot threads servicing the window (== `workers` when batching is off).
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl EvalBackend for ThreadPoolBackend {
    fn capacity(&self) -> usize {
        self.workers
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        let tx = self.task_tx.as_ref().expect("backend not shut down while running");
        tx.send(cand)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "all evaluator threads exited"))
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        self.result_rx.recv().map_err(|_| {
            io::Error::new(io::ErrorKind::BrokenPipe, "evaluator threads exited with work pending")
        })
    }
}

impl Drop for ThreadPoolBackend {
    fn drop(&mut self) {
        // Closing the task channel lets idle workers exit; join so worker
        // side-effects (checkpoint saves, span totals) are complete before
        // the run returns.
        drop(self.task_tx.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_checkpoint::MemStore;
    use swt_core::TransferScheme;
    use swt_data::{AppKind, DataScale};
    use swt_tensor::Rng;

    fn backend(workers: usize) -> (ThreadPoolBackend, Arc<SearchSpace>) {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig::quick(TransferScheme::Baseline, 4, workers, 3);
        (ThreadPoolBackend::new(problem, Arc::clone(&space), store, &cfg), space)
    }

    #[test]
    fn evaluates_submitted_candidates_in_some_order() {
        let (mut be, space) = backend(2);
        assert_eq!(be.capacity(), 2);
        let mut rng = Rng::seed(5);
        for id in 0..4 {
            be.submit(Candidate::new(id, space.sample(&mut rng), None)).unwrap();
        }
        let mut ids: Vec<u64> = (0..4).map(|_| be.next_result().unwrap().cand.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fixed_batching_packs_the_window_onto_fewer_slots() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let cfg = NasConfig {
            batch_eval: BatchEval::Fixed(2),
            ..NasConfig::quick(TransferScheme::Baseline, 8, 4, 3)
        };
        let mut be = ThreadPoolBackend::new(problem, Arc::clone(&space), store, &cfg);
        // The dispatch window (capacity) is untouched; only the thread
        // shape underneath changes.
        assert_eq!(be.capacity(), 4);
        assert_eq!(be.batch(), 2);
        assert_eq!(be.slots(), 2);
        let mut rng = Rng::seed(5);
        for id in 0..8 {
            be.submit(Candidate::new(id, space.sample(&mut rng), None)).unwrap();
        }
        let mut ids: Vec<u64> = (0..8).map(|_| be.next_result().unwrap().cand.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn auto_batching_derives_from_core_count_and_problem_size() {
        let problem = AppKind::Nt3.problem(DataScale::Quick, 11);
        // The few-shot problems are far below the per-core threshold, so a
        // window wider than the host packs down to ~one slot per core.
        assert_eq!(auto_batch(64, 16, &problem), 4);
        assert_eq!(auto_batch(64, 1, &problem), 64);
        assert_eq!(auto_batch(2, 16, &problem), 1, "never packs below one per slot");
        // A problem with per-step work beyond the threshold keeps the
        // historical shape regardless of the window.
        let mut big = AppKind::Nt3.problem(DataScale::Quick, 11);
        big.batch_size = 1 << 20; // proxy ≫ the 512M/core threshold
        assert!(flops_per_step_proxy(&big) > flops_per_step_proxy(&problem));
        assert_eq!(auto_batch(64, 1, &big), 1);
    }

    #[test]
    fn drop_restores_thread_budget() {
        swt_tensor::parallel::set_max_threads(7);
        let (be, _space) = backend(1);
        drop(be);
        assert_eq!(swt_tensor::parallel::max_threads(), 7);
        swt_tensor::parallel::set_max_threads(0);
    }
}
