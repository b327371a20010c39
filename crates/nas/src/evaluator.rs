//! The evaluator: trains one candidate and checkpoints it.
//!
//! Implements the paper's Section VI-C sequence: "1) checks the parent's
//! architecture sequence, 2) reads the checkpoint of the parent, 3)
//! calculates LP/LCS between the parent and the current model, and 4) if
//! they have shareable tensors, initializes the weights of the current model
//! with the weights of the parent's model."

use crate::candidate::{Candidate, CandidateId};
use std::sync::Arc;
use std::time::Instant;
use swt_checkpoint::CheckpointStore;
use swt_core::{apply_transfer, ShapeSeq, TransferPlan, TransferScheme, TransferStats};
use swt_data::AppProblem;
use swt_nn::{AdamConfig, Convergence, Model, TrainConfig, TrainStop, Trainer};
use swt_space::{ArchSeq, SearchSpace};
use swt_tensor::{Rng, Workspace};

/// Why a candidate's evaluation ended. Flows through [`EvalOutcome`], the
/// canonical trace and the dist protocol's `Result` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// Trained the full epoch budget for its rung (the only reason a
    /// fidelity-off run ever produces).
    #[default]
    BudgetExhausted,
    /// The loss-delta convergence tracker cut training early.
    Converged,
    /// Successive halving did not promote this candidate past its rung.
    /// Assigned coordinator-side by the strategy loop — workers never
    /// produce it.
    Pruned,
    /// The zero-cost pre-filter skipped training entirely.
    Prefiltered,
}

impl StopReason {
    /// Wire discriminant (stable; `Result` frames carry it as one byte).
    pub fn code(self) -> u8 {
        match self {
            StopReason::BudgetExhausted => 0,
            StopReason::Converged => 1,
            StopReason::Pruned => 2,
            StopReason::Prefiltered => 3,
        }
    }

    /// Inverse of [`StopReason::code`]; `None` for unknown discriminants.
    pub fn from_code(code: u8) -> Option<StopReason> {
        match code {
            0 => Some(StopReason::BudgetExhausted),
            1 => Some(StopReason::Converged),
            2 => Some(StopReason::Pruned),
            3 => Some(StopReason::Prefiltered),
            _ => None,
        }
    }

    /// Short lowercase label used by traces, `/status` and `dist-top`.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::BudgetExhausted => "budget",
            StopReason::Converged => "converged",
            StopReason::Pruned => "pruned",
            StopReason::Prefiltered => "prefiltered",
        }
    }

    /// Inverse of [`StopReason::label`].
    pub fn from_label(label: &str) -> Option<StopReason> {
        match label {
            "budget" => Some(StopReason::BudgetExhausted),
            "converged" => Some(StopReason::Converged),
            "pruned" => Some(StopReason::Pruned),
            "prefiltered" => Some(StopReason::Prefiltered),
            _ => None,
        }
    }
}

/// Per-evaluator fidelity knobs. The default is every feature off, which
/// reproduces pre-fidelity behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalFidelity {
    /// Quantile of rung-0 candidates the zero-cost pre-filter skips
    /// (`0.0` = off).
    pub prefilter_quantile: f64,
    /// Loss-delta convergence cut handed to the trainer (`None` = off).
    pub convergence: Option<Convergence>,
}

impl EvalFidelity {
    /// True iff any knob is active.
    pub fn enabled(&self) -> bool {
        self.prefilter_quantile > 0.0 || self.convergence.is_some()
    }
}

/// Everything measured while evaluating one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    pub id: CandidateId,
    pub score: f64,
    /// Seconds spent in training + validation.
    pub train_secs: f64,
    /// Seconds spent loading the provider checkpoint + matching +
    /// transferring (0 for baseline/warm-up) — the paper's main overhead
    /// source (Section VIII-E).
    pub transfer_secs: f64,
    /// Seconds spent writing this candidate's checkpoint.
    pub save_secs: f64,
    /// Serialized checkpoint size (Fig. 11).
    pub checkpoint_bytes: u64,
    /// What the transfer moved.
    pub transfer: TransferStats,
    /// Epochs actually trained.
    pub epochs: usize,
    /// Why evaluation ended.
    pub stop: StopReason,
}

/// The per-candidate model seed used across the whole repository: the full
/// training phase rebuilds candidates with exactly the weights their
/// estimation used, so it must derive seeds identically.
pub fn candidate_seed(run_seed: u64, id: CandidateId) -> u64 {
    run_seed ^ (id.wrapping_mul(0x9E3779B97F4A7C15)).rotate_left(17)
}

/// A reusable candidate evaluator (one per worker thread).
pub struct Evaluator {
    problem: Arc<AppProblem>,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    scheme: TransferScheme,
    /// Epochs per estimate (the paper uses 1).
    epochs: usize,
    /// Root seed of the run; candidate seeds derive from it.
    run_seed: u64,
    /// Checkpoint-id prefix. Distinct namespaces let several runs share one
    /// store (a run's candidate `i` is stored as `{ns}c{i}`); the default is
    /// the empty string, preserving the historical bare `c{i}` ids.
    ns: String,
    /// Scratch arena handed to each candidate's model and reclaimed after
    /// evaluation, so buffers warmed up by one candidate are reused by the
    /// next instead of being reallocated per evaluation.
    ws: Workspace,
    /// Multi-fidelity knobs (default: everything off).
    fidelity: EvalFidelity,
    /// Lazily calibrated zero-cost score cut-off (see
    /// [`Evaluator::prefilter_threshold`]).
    prefilter_threshold: Option<f64>,
    /// Highest [`Candidate::live_from`] seen: every id below it has been
    /// handed to [`CheckpointStore::evict`]. A running maximum, because a
    /// reassigned candidate arrives with the watermark of its first dispatch.
    live_from: CandidateId,
}

impl Evaluator {
    pub fn new(
        problem: Arc<AppProblem>,
        space: Arc<SearchSpace>,
        store: Arc<dyn CheckpointStore>,
        scheme: TransferScheme,
        epochs: usize,
        run_seed: u64,
    ) -> Self {
        Self::with_namespace(problem, space, store, scheme, epochs, run_seed, "")
    }

    /// An evaluator whose checkpoint ids carry a run namespace prefix, so
    /// concurrent runs can share one store without colliding.
    #[allow(clippy::too_many_arguments)]
    pub fn with_namespace(
        problem: Arc<AppProblem>,
        space: Arc<SearchSpace>,
        store: Arc<dyn CheckpointStore>,
        scheme: TransferScheme,
        epochs: usize,
        run_seed: u64,
        ns: impl Into<String>,
    ) -> Self {
        Evaluator {
            problem,
            space,
            store,
            scheme,
            epochs,
            run_seed,
            ns: ns.into(),
            ws: Workspace::new(),
            fidelity: EvalFidelity::default(),
            prefilter_threshold: None,
            live_from: 0,
        }
    }

    /// Set the multi-fidelity knobs (resets any calibrated pre-filter
    /// threshold).
    pub fn set_fidelity(&mut self, fidelity: EvalFidelity) {
        self.fidelity = fidelity;
        self.prefilter_threshold = None;
    }

    /// The namespaced checkpoint id of candidate `id`.
    fn ckpt_id(&self, id: CandidateId) -> String {
        format!("{}c{id}", self.ns)
    }

    /// Deterministic per-candidate seed.
    fn seed_for(&self, id: CandidateId) -> u64 {
        candidate_seed(self.run_seed, id)
    }

    /// NASI-style zero-cost-at-initialization score: the gradient L2 norm of
    /// one deterministic (unshuffled) training batch through a freshly built
    /// model. Higher means the architecture is more trainable at init. The
    /// scored model is separate from the one training later uses, so scoring
    /// never perturbs training determinism.
    pub fn zero_cost_score(&mut self, arch: &ArchSeq, seed: u64) -> f64 {
        let _span = swt_obs::span!("nas.zero_cost");
        let spec = self.space.materialize(arch).expect("strategy emitted invalid candidate");
        let mut model = Model::build(&spec, seed).expect("spec validated at materialise time");
        model.set_workspace(std::mem::take(&mut self.ws));
        let idx: Vec<usize> = self
            .problem
            .train
            .batch_indices(self.problem.batch_size, None)
            .into_iter()
            .next()
            .unwrap_or_default();
        let norm = if idx.is_empty() {
            0.0
        } else {
            let (inputs, targets) = self.problem.train.batch_ws(&idx, model.workspace_mut());
            let input_refs: Vec<&swt_tensor::Tensor> = inputs.iter().collect();
            let pred = model.forward(&input_refs, true);
            let (_loss, grad) = self.problem.loss.forward_backward(&pred, &targets);
            model.zero_grads();
            model.backward(&grad);
            let mut sum_sq = 0.0f64;
            model.visit_updates(&mut |_name, _param, g| {
                for &v in g.data() {
                    sum_sq += f64::from(v) * f64::from(v);
                }
            });
            for t in inputs {
                model.recycle(t);
            }
            model.recycle(targets);
            model.recycle(pred);
            model.recycle(grad);
            sum_sq.sqrt()
        };
        self.ws = model.take_workspace();
        norm
    }

    /// The calibrated zero-cost cut-off: the configured quantile of the
    /// scores of a fixed reference population sampled with seeds derived
    /// only from the run seed — identical on every worker of a run, on
    /// every backend, so the pre-filter decision is deterministic.
    fn prefilter_threshold(&mut self) -> f64 {
        if let Some(t) = self.prefilter_threshold {
            return t;
        }
        const CALIBRATION_ARCHS: u64 = 32;
        let cal_seed = self.run_seed ^ 0x00F1_17E8;
        let mut rng = Rng::seed(cal_seed);
        let mut scores: Vec<f64> = (0..CALIBRATION_ARCHS)
            .map(|i| {
                let arch = self.space.sample(&mut rng);
                self.zero_cost_score(&arch, candidate_seed(cal_seed, i))
            })
            .collect();
        scores.sort_by(f64::total_cmp);
        let q = self.fidelity.prefilter_quantile.clamp(0.0, 1.0);
        let k = ((scores.len() as f64) * q) as usize;
        let t = scores[k.min(scores.len() - 1)];
        self.prefilter_threshold = Some(t);
        t
    }

    /// Train, score and checkpoint one candidate.
    ///
    /// # Panics
    /// Panics if the candidate's architecture fails to materialise (the
    /// strategy only emits valid candidates).
    pub fn evaluate(&mut self, cand: &Candidate) -> EvalOutcome {
        let _eval_span = swt_obs::span!("nas.eval");

        // The lineage has moved past these ids: no candidate dispatched from
        // now on names one as provider, so the store need not keep them in
        // memory. Only a hint — a read of one is still served.
        for dead in self.live_from..cand.live_from {
            self.store.evict(&self.ckpt_id(dead));
        }
        self.live_from = self.live_from.max(cand.live_from);

        // Zero-cost pre-filter: rung-0 candidates whose gradient-norm-at-init
        // falls below the calibrated quantile skip training (and the
        // checkpoint) entirely. Their score ranks last, so successive halving
        // never promotes them, and children degrade through the existing
        // missing-parent-checkpoint path.
        if cand.rung == 0 && self.fidelity.prefilter_quantile > 0.0 {
            let threshold = self.prefilter_threshold();
            let zc = self.zero_cost_score(&cand.arch, self.seed_for(cand.id));
            if zc < threshold {
                swt_obs::counter!("fidelity.stopped.prefiltered").inc();
                swt_obs::counter!("nas.candidates_evaluated").inc();
                return EvalOutcome {
                    id: cand.id,
                    score: f64::NEG_INFINITY,
                    train_secs: 0.0,
                    transfer_secs: 0.0,
                    save_secs: 0.0,
                    checkpoint_bytes: 0,
                    transfer: TransferStats::default(),
                    epochs: 0,
                    stop: StopReason::Prefiltered,
                };
            }
        }

        let spec = self.space.materialize(&cand.arch).expect("strategy emitted invalid candidate");
        let seed = self.seed_for(cand.id);
        let mut model = Model::build(&spec, seed).expect("spec validated at materialise time");
        model.set_workspace(std::mem::take(&mut self.ws));

        // Weight transfer from the parent checkpoint, when enabled.
        let mut transfer = TransferStats::default();
        let mut transfer_secs = 0.0;
        if let (Some(matcher), Some(parent)) = (self.scheme.matcher(), cand.parent) {
            let _transfer_span = swt_obs::span!("transfer");
            let t0 = Instant::now();
            let parent_ckpt_id = self.ckpt_id(parent);
            // Plan from the provider's *index* alone (names + shapes, no
            // payload bytes), then fetch only the payloads the plan moves —
            // the paper's Section VIII-E overhead shrinks from "read the
            // whole parent checkpoint" to "read the matched tensors".
            if let Ok(index) = self.store.load_index(&parent_ckpt_id) {
                let provider_seq = ShapeSeq::from_checkpoint_index(&index);
                let receiver_seq = ShapeSeq::of(&spec).unwrap();
                let plan = TransferPlan::build(matcher, &provider_seq, &receiver_seq);
                if !plan.is_empty() {
                    if let Ok(provider_ckpt) =
                        self.store.load_tensors(&parent_ckpt_id, &plan.provider_names())
                    {
                        transfer = apply_transfer(&plan, &provider_ckpt, &mut model);
                        // Hand the decoded payload buffers back to the
                        // thread arena for the next partial load.
                        swt_tensor::with_thread_workspace(|ws| {
                            for (_, t) in provider_ckpt {
                                ws.recycle(t);
                            }
                        });
                    }
                }
            }
            transfer_secs = t0.elapsed().as_secs_f64();
        }

        // Partial training (the candidate-estimation phase).
        let trainer = Trainer::new(self.problem.loss, self.problem.metric);
        let cfg = TrainConfig {
            epochs: cand.epochs.unwrap_or(self.epochs),
            batch_size: self.problem.batch_size,
            adam: AdamConfig { lr: self.problem.lr, ..Default::default() },
            shuffle_seed: seed ^ 0x5EED,
            early_stop: None,
            convergence: self.fidelity.convergence,
        };
        let t0 = Instant::now();
        let report = {
            let _train_span = swt_obs::span!("train");
            trainer.fit(&mut model, &self.problem.train, &self.problem.val, &cfg)
        };
        let train_secs = t0.elapsed().as_secs_f64();

        // Checkpoint the scored candidate (Fig. 6 step ③).
        let t0 = Instant::now();
        let checkpoint_bytes = {
            let _save_span = swt_obs::span!("save");
            self.store
                .save(&self.ckpt_id(cand.id), &model.state_dict())
                .expect("checkpoint save failed")
        };
        let save_secs = t0.elapsed().as_secs_f64();
        self.ws = model.take_workspace();

        swt_obs::counter!("nas.candidates_evaluated").inc();
        swt_obs::counter!("nas.transfer.tensors").add(transfer.tensors as u64);
        swt_obs::counter!("nas.transfer.bytes").add(transfer.bytes as u64);
        swt_obs::counter!("nas.checkpoint.bytes").add(checkpoint_bytes);
        swt_obs::histogram!("nas.checkpoint.size_bytes").observe(checkpoint_bytes);

        let stop = if report.stop == TrainStop::Converged {
            swt_obs::counter!("fidelity.stopped.converged").inc();
            StopReason::Converged
        } else {
            StopReason::BudgetExhausted
        };

        EvalOutcome {
            id: cand.id,
            score: report.final_metric,
            train_secs,
            transfer_secs,
            save_secs,
            checkpoint_bytes,
            transfer,
            epochs: report.epochs_run,
            stop,
        }
    }
}

/// One worker slot's batched-evaluation unit: a fixed set of *lanes*, each a
/// full [`Evaluator`] with its own `Workspace` arena, servicing a drained
/// batch of candidates.
///
/// Determinism contract: a candidate's outcome is a pure function of
/// `(run_seed, id, parent checkpoint)` — the evaluator it lands on carries no
/// candidate-visible state (arenas are value-neutral scratch). Batching
/// therefore only changes *where and when* a candidate trains, never its
/// score, transfer stats or checkpoint bytes; canonical traces are
/// bit-identical to unbatched runs.
///
/// On a saturated host the lanes run sequentially on the slot's thread; when
/// the intra-op thread budget leaves headroom (`lanes > 1`), candidates fan
/// out over lane threads through a shared cursor, so a slow candidate does
/// not serialise the rest of its batch.
pub struct BatchedEval {
    /// The worker-slot index, for span attribution of lane threads.
    slot: usize,
    lanes: Vec<Evaluator>,
}

impl BatchedEval {
    /// A batched unit of `lanes` evaluators (at least one) built by `make`.
    pub fn new(slot: usize, lanes: usize, mut make: impl FnMut() -> Evaluator) -> Self {
        BatchedEval { slot, lanes: (0..lanes.max(1)).map(|_| make()).collect() }
    }

    /// Number of lanes (diagnostics).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Evaluate a drained batch, returning one [`crate::backend::BackendResult`]
    /// per candidate in input order. `run_start` anchors the per-candidate
    /// `t_start`/`t_end` run-relative timestamps.
    pub fn eval_batch(
        &mut self,
        cands: &[Candidate],
        run_start: &Instant,
    ) -> Vec<crate::backend::BackendResult> {
        fn timed(
            ev: &mut Evaluator,
            cand: &Candidate,
            run_start: &Instant,
        ) -> crate::backend::BackendResult {
            let t_start = run_start.elapsed().as_secs_f64();
            let outcome = ev.evaluate(cand);
            let t_end = run_start.elapsed().as_secs_f64();
            crate::backend::BackendResult { cand: cand.clone(), t_start, t_end, outcome }
        }

        if self.lanes.len() <= 1 || cands.len() <= 1 {
            let ev = &mut self.lanes[0];
            return cands.iter().map(|c| timed(ev, c, run_start)).collect();
        }
        let mut out: Vec<Option<crate::backend::BackendResult>> =
            (0..cands.len()).map(|_| None).collect();
        {
            let queue = std::sync::Mutex::new(out.iter_mut().zip(cands).enumerate());
            let queue = &queue;
            let slot = self.slot;
            std::thread::scope(|s| {
                for ev in self.lanes.iter_mut().take(cands.len()) {
                    s.spawn(move || {
                        // Lane threads inherit the slot's worker attribution
                        // so per-worker span reports stay meaningful.
                        swt_obs::span::set_worker(slot);
                        loop {
                            let next = queue.lock().expect("lane queue poisoned").next();
                            match next {
                                Some((_, (result, cand))) => {
                                    *result = Some(timed(ev, cand, run_start));
                                }
                                None => break,
                            }
                        }
                    });
                }
            });
        }
        out.into_iter().map(|r| r.expect("every lane slot filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_checkpoint::MemStore;
    use swt_data::{AppKind, DataScale};
    use swt_tensor::Rng;

    fn setup(scheme: TransferScheme) -> (Evaluator, Arc<SearchSpace>, Arc<dyn CheckpointStore>) {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 7));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let eval = Evaluator::new(
            Arc::clone(&problem),
            Arc::clone(&space),
            Arc::clone(&store),
            scheme,
            1,
            42,
        );
        (eval, space, store)
    }

    #[test]
    fn evaluates_and_checkpoints() {
        let (mut eval, space, store) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(1);
        let cand = Candidate::new(0, space.sample(&mut rng), None);
        let out = eval.evaluate(&cand);
        assert_eq!(out.id, 0);
        assert!(out.score.is_finite());
        assert_eq!(out.epochs, 1);
        assert!(store.exists("c0"));
        assert_eq!(store.size_bytes("c0"), Some(out.checkpoint_bytes));
        assert_eq!(out.transfer.tensors, 0, "baseline never transfers");
    }

    #[test]
    fn child_evaluation_transfers_from_parent() {
        let (mut eval, space, _store) = setup(TransferScheme::Lcs);
        let mut rng = Rng::seed(2);
        let parent_arch = space.sample(&mut rng);
        let parent = Candidate::new(0, parent_arch.clone(), None);
        let _ = eval.evaluate(&parent);
        let child_arch = space.mutate(&parent_arch, &mut rng);
        let child = Candidate::new(1, child_arch, Some(0));
        let out = eval.evaluate(&child);
        assert!(
            out.transfer.tensors > 0,
            "a d=1 Uno child must share tensors with its parent: {:?}",
            out.transfer
        );
        assert_eq!(out.transfer.skipped, 0);
        assert!(out.transfer_secs >= 0.0);
    }

    #[test]
    fn missing_parent_checkpoint_degrades_to_random_init() {
        let (mut eval, space, _store) = setup(TransferScheme::Lp);
        let mut rng = Rng::seed(3);
        let arch = space.sample(&mut rng);
        let cand = Candidate::new(9, arch, Some(777)); // no such checkpoint
        let out = eval.evaluate(&cand);
        assert_eq!(out.transfer.tensors, 0);
        assert!(out.score.is_finite());
    }

    #[test]
    fn batched_lanes_reproduce_serial_outcomes_in_order() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 7));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let mut rng = Rng::seed(9);
        let cands: Vec<Candidate> =
            (0..5).map(|id| Candidate::new(id, space.sample(&mut rng), None)).collect();

        let serial_store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let mut serial = Evaluator::new(
            Arc::clone(&problem),
            Arc::clone(&space),
            serial_store,
            TransferScheme::Baseline,
            1,
            42,
        );
        let expect: Vec<EvalOutcome> = cands.iter().map(|c| serial.evaluate(c)).collect();

        for lanes in [1usize, 3] {
            let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
            let mut batched = BatchedEval::new(0, lanes, || {
                Evaluator::new(
                    Arc::clone(&problem),
                    Arc::clone(&space),
                    Arc::clone(&store),
                    TransferScheme::Baseline,
                    1,
                    42,
                )
            });
            assert_eq!(batched.lanes(), lanes);
            let start = std::time::Instant::now();
            let got = batched.eval_batch(&cands, &start);
            assert_eq!(got.len(), cands.len());
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.cand.id, e.id, "results must keep input order");
                // Deterministic fields only: the *_secs fields are wall clock.
                assert_eq!(g.outcome.score, e.score, "lane count changed a score");
                assert_eq!(g.outcome.checkpoint_bytes, e.checkpoint_bytes);
                assert_eq!(g.outcome.transfer, e.transfer);
                assert_eq!(g.outcome.epochs, e.epochs);
                assert!(g.t_end >= g.t_start);
            }
        }
    }

    #[test]
    fn identical_candidate_same_seed_reproduces_score() {
        let (mut eval, space, _) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(4);
        let arch = space.sample(&mut rng);
        let a = eval.evaluate(&Candidate::new(5, arch.clone(), None));
        let b = eval.evaluate(&Candidate::new(5, arch, None));
        assert_eq!(a.score, b.score, "single-threaded evaluation must be deterministic");
    }

    /// The carried arena is bounded by the largest candidate, not by how
    /// many candidates or batches went through it: every model hands all it
    /// held back on teardown, so the next one's warm-up is a free-list pop.
    #[test]
    fn carried_arena_is_bounded_by_the_largest_candidate() {
        let problem = Arc::new(AppKind::Cifar10.problem(DataScale::Quick, 7));
        let space = Arc::new(SearchSpace::for_app(AppKind::Cifar10));
        let evaluator = || {
            let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
            let (problem, space) = (Arc::clone(&problem), Arc::clone(&space));
            Evaluator::new(problem, space, store, TransferScheme::Lcs, 1, 42)
        };
        let mut rng = Rng::seed(31);
        let cands: Vec<Candidate> = (0..24)
            .map(|id| Candidate::new(id, space.sample(&mut rng), id.checked_sub(8)))
            .collect();

        let mut carried = evaluator();
        let mut largest = 0;
        for cand in &cands {
            carried.evaluate(cand);
            // What this candidate needs on its own, from an empty arena.
            let mut alone = evaluator();
            alone.evaluate(&Candidate::new(cand.id, cand.arch.clone(), None));
            largest = largest.max(alone.ws.pooled());
        }
        assert!(
            carried.ws.pooled() <= largest,
            "24 candidates left {} buffers pooled; the largest one alone needs {largest}",
            carried.ws.pooled()
        );

        // Going over the same ground again asks the allocator for nothing.
        let again = &cands[23];
        carried.evaluate(again);
        let warm = (carried.ws.pooled(), carried.ws.alloc_misses());
        carried.evaluate(again);
        assert_eq!((carried.ws.pooled(), carried.ws.alloc_misses()), warm);
    }

    #[test]
    fn stop_reason_codes_and_labels_round_trip() {
        for reason in [
            StopReason::BudgetExhausted,
            StopReason::Converged,
            StopReason::Pruned,
            StopReason::Prefiltered,
        ] {
            assert_eq!(StopReason::from_code(reason.code()), Some(reason));
            assert_eq!(StopReason::from_label(reason.label()), Some(reason));
        }
        assert_eq!(StopReason::from_code(4), None);
        assert_eq!(StopReason::from_code(255), None);
        assert_eq!(StopReason::from_label("surprise"), None);
        assert_eq!(StopReason::default(), StopReason::BudgetExhausted);
    }

    #[test]
    fn default_fidelity_reports_budget_exhausted() {
        let (mut eval, space, _) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(21);
        let out = eval.evaluate(&Candidate::new(0, space.sample(&mut rng), None));
        assert_eq!(out.stop, StopReason::BudgetExhausted);
    }

    #[test]
    fn zero_cost_score_is_deterministic_and_positive() {
        let (mut eval, space, _) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(22);
        let arch = space.sample(&mut rng);
        let a = eval.zero_cost_score(&arch, 99);
        let b = eval.zero_cost_score(&arch, 99);
        assert_eq!(a, b, "same arch + seed must score identically");
        assert!(a.is_finite() && a > 0.0, "gradient norm at init must be positive: {a}");
        let other = space.sample(&mut rng);
        let c = eval.zero_cost_score(&other, 99);
        assert_ne!(a, c, "different architectures should rarely tie exactly");
    }

    #[test]
    fn prefilter_skips_the_bottom_quantile_and_only_rung_zero() {
        let (mut eval, space, store) = setup(TransferScheme::Baseline);
        eval.set_fidelity(EvalFidelity { prefilter_quantile: 0.9, convergence: None });
        let mut rng = Rng::seed(23);
        let cands: Vec<Candidate> =
            (0..8).map(|id| Candidate::new(id, space.sample(&mut rng), None)).collect();
        let outs: Vec<EvalOutcome> = cands.iter().map(|c| eval.evaluate(c)).collect();
        let filtered: Vec<&EvalOutcome> =
            outs.iter().filter(|o| o.stop == StopReason::Prefiltered).collect();
        assert!(!filtered.is_empty(), "a 0.9 quantile must filter some of 8 candidates");
        for o in &filtered {
            assert_eq!(o.score, f64::NEG_INFINITY, "prefiltered candidates rank last");
            assert_eq!(o.epochs, 0);
            assert_eq!(o.checkpoint_bytes, 0);
            assert!(!store.exists(&format!("c{}", o.id)), "no checkpoint is written");
        }
        // A promoted re-dispatch (rung > 0) must never be prefiltered.
        let mut promoted = cands[filtered[0].id as usize].clone();
        promoted.rung = 1;
        promoted.epochs = Some(1);
        let out = eval.evaluate(&promoted);
        assert_ne!(out.stop, StopReason::Prefiltered);
        assert!(out.score.is_finite());
    }

    #[test]
    fn prefilter_survivors_score_identically_to_a_plain_run() {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 7));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let mut rng = Rng::seed(24);
        let cands: Vec<Candidate> =
            (0..6).map(|id| Candidate::new(id, space.sample(&mut rng), None)).collect();
        let mk = |fidelity: EvalFidelity| {
            let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
            let mut ev = Evaluator::new(
                Arc::clone(&problem),
                Arc::clone(&space),
                store,
                TransferScheme::Baseline,
                1,
                42,
            );
            ev.set_fidelity(fidelity);
            ev
        };
        let mut plain = mk(EvalFidelity::default());
        let mut gated = mk(EvalFidelity { prefilter_quantile: 0.5, convergence: None });
        for c in &cands {
            let a = plain.evaluate(c);
            let b = gated.evaluate(c);
            if b.stop != StopReason::Prefiltered {
                assert_eq!(a.score, b.score, "survivors must train bit-identically");
                assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes);
            }
        }
    }

    #[test]
    fn per_task_epoch_override_and_convergence_stop() {
        let (mut eval, space, _) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(25);
        let arch = space.sample(&mut rng);
        let mut cand = Candidate::new(0, arch, None);
        cand.epochs = Some(3);
        let out = eval.evaluate(&cand);
        assert_eq!(out.epochs, 3, "the per-task budget overrides the run budget");
        assert_eq!(out.stop, StopReason::BudgetExhausted);
        eval.set_fidelity(EvalFidelity {
            prefilter_quantile: 0.0,
            convergence: Some(Convergence { window: 1, min_delta: f64::INFINITY }),
        });
        let out = eval.evaluate(&cand);
        assert_eq!(out.epochs, 1, "an always-flat window stops after the first epoch");
        assert_eq!(out.stop, StopReason::Converged);
    }
}
