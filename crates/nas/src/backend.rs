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
use crate::evaluator::{EvalOutcome, Evaluator};
use crate::runner::NasConfig;
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

/// The in-process backend: `workers` evaluator threads pulling from one
/// shared queue, exactly DeepHyper's thread-pool evaluator shape.
pub struct ThreadPoolBackend {
    task_tx: Option<mpsc::Sender<Candidate>>,
    /// A thread whose evaluation fails sends the error and exits.
    result_rx: mpsc::Receiver<io::Result<BackendResult>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl ThreadPoolBackend {
    /// Spawn `cfg.workers` evaluator threads sharing `store`.
    ///
    /// Thread-budget policy: every worker models one GPU, and each runs its
    /// candidate's training mostly single-threaded. The intra-op pool in
    /// swt-tensor must therefore share the machine with the worker pool —
    /// without this cap, `workers` evaluators each fanning out to
    /// `available_parallelism()` intra-op threads oversubscribes the host by
    /// a factor of `workers` and context-switch thrash erases the speedup.
    /// Each evaluator thread pins its own budget,
    /// [`share`](swt_tensor::parallel::share)`(workers)` — pure
    /// inter-candidate parallelism once the window covers the cores; the
    /// constructing thread keeps its own.
    ///
    /// # Panics
    /// On the calling thread, before any evaluator starts, if `cfg.workers`
    /// is 0 or [`NasConfig::eval_spec`] refuses `cfg`.
    pub fn new(
        problem: Arc<AppProblem>,
        space: Arc<SearchSpace>,
        store: Arc<dyn CheckpointStore>,
        cfg: &NasConfig,
    ) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        let spec = cfg.eval_spec().unwrap_or_else(|e| panic!("{e}"));
        let budget = swt_tensor::parallel::share(cfg.workers);

        let start = Instant::now();
        let (task_tx, task_rx) = mpsc::channel::<Candidate>();
        // Workers pull tasks from one shared queue; std's Receiver is
        // single-consumer, so it is wrapped in a mutex (lock contention is
        // negligible: tasks take seconds, the lock nanoseconds).
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (result_tx, result_rx) = mpsc::channel::<io::Result<BackendResult>>();

        let mut handles = Vec::with_capacity(cfg.workers);
        for worker in 0..cfg.workers {
            let task_rx = Arc::clone(&task_rx);
            let result_tx = result_tx.clone();
            let mut evaluator =
                Evaluator::new(Arc::clone(&problem), Arc::clone(&space), Arc::clone(&store), &spec);
            handles.push(std::thread::spawn(move || {
                // Attribute this thread's spans (queue wait, evaluation and
                // everything beneath) to its worker in run reports.
                swt_obs::span::set_worker(worker);
                let _budget = swt_tensor::parallel::scoped_max_threads(budget);
                loop {
                    // Hold the lock only for the recv handoff, never while
                    // evaluating. The span separates time spent starved for
                    // work from time spent evaluating (the per-worker
                    // breakdown behind the paper's Fig. 10-style attribution).
                    let received = {
                        let _wait_span = swt_obs::span!("nas.queue_wait");
                        task_rx.lock().expect("task queue poisoned").recv()
                    };
                    let Ok(cand) = received else { break };
                    let t_start = start.elapsed().as_secs_f64();
                    let outcome = match evaluator.evaluate(&cand) {
                        Ok(outcome) => outcome,
                        Err(e) => {
                            let _ = result_tx.send(Err(e));
                            return;
                        }
                    };
                    let t_end = start.elapsed().as_secs_f64();
                    // The send itself is cheap, but it wakes the scheduler
                    // and the OS often deschedules this thread right at the
                    // futex wake — milliseconds a per-worker report would
                    // otherwise fail to attribute.
                    let sent = {
                        let _send_span = swt_obs::span!("nas.result_send");
                        result_tx.send(Ok(BackendResult { cand, t_start, t_end, outcome }))
                    };
                    if sent.is_err() {
                        return;
                    }
                }
            }));
        }
        ThreadPoolBackend { task_tx: Some(task_tx), result_rx, handles, workers: cfg.workers }
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
        self.result_rx.recv().unwrap_or_else(|_| {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "evaluator threads exited with work pending",
            ))
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

    /// The evaluator threads pin their budgets; the thread that built the
    /// pool keeps its own while the pool runs.
    #[test]
    fn the_constructing_thread_keeps_its_budget() {
        let _seven = swt_tensor::parallel::scoped_max_threads(7);
        let (be, _space) = backend(2);
        assert_eq!(swt_tensor::parallel::max_threads(), 7);
        drop(be);
        assert_eq!(swt_tensor::parallel::max_threads(), 7);
    }
}
