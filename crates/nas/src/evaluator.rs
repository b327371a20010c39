//! The evaluator: trains one candidate and checkpoints it.
//!
//! Implements the paper's Section VI-C sequence: "1) checks the parent's
//! architecture sequence, 2) reads the checkpoint of the parent, 3)
//! calculates LP/LCS between the parent and the current model, and 4) if
//! they have shareable tensors, initializes the weights of the current model
//! with the weights of the parent's model."

use crate::candidate::{Candidate, CandidateId};
use std::io;
use std::num::NonZeroU32;
use std::sync::Arc;
use std::time::Instant;
use swt_checkpoint::CheckpointStore;
use swt_core::{apply_transfer, ShapeSeq, TransferPlan, TransferScheme, TransferStats};
use swt_data::AppProblem;
use swt_nn::{AdamConfig, Model, TrainConfig, Trainer};
use swt_space::SearchSpace;

swt_wire::wire_struct! {
    /// Everything measured while evaluating one candidate; a worker sends it
    /// back as is, fields in declaration order.
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
        /// Epochs actually trained (the run's epoch count is a `u32` on the
        /// wire too).
        pub epochs: u32,
    }
}

/// The per-candidate model seed used across the whole repository: the full
/// training phase rebuilds candidates with exactly the weights their
/// estimation used, so it must derive seeds identically.
pub fn candidate_seed(run_seed: u64, id: CandidateId) -> u64 {
    run_seed ^ (id.wrapping_mul(0x9E3779B97F4A7C15)).rotate_left(17)
}

swt_wire::wire_struct! {
    /// What fixes an evaluator's outcomes beyond the problem, space and
    /// store it runs over: built once from a run's config
    /// ([`NasConfig::eval_spec`](crate::NasConfig::eval_spec)) and handed
    /// as is to every evaluator, in-process or in a worker process (which
    /// receives it inside the dist handshake).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EvalSpec {
        pub scheme: TransferScheme,
        /// Epochs per estimate (the paper uses 1).
        pub epochs: NonZeroU32,
        /// Root seed of the run; candidate seeds derive from it.
        pub run_seed: u64,
        /// Checkpoint-id prefix. Distinct namespaces let several runs share
        /// one store (a run's candidate `i` is stored as `{ns}c{i}`); the
        /// empty string keeps the bare `c{i}` ids.
        pub namespace: String,
    }
}

/// A reusable candidate evaluator (one per worker thread).
pub struct Evaluator {
    problem: Arc<AppProblem>,
    space: Arc<SearchSpace>,
    store: Arc<dyn CheckpointStore>,
    spec: EvalSpec,
    /// Highest [`Candidate::live_from`] seen: every id below it has been
    /// handed to [`CheckpointStore::evict`]. A running maximum, because a
    /// reassigned candidate arrives with the watermark of its first dispatch.
    live_from: CandidateId,
}

impl Evaluator {
    /// The one way to build an evaluator: both backends pass the spec their
    /// run's [`NasConfig::eval_spec`](crate::NasConfig::eval_spec) built.
    pub fn new(
        problem: Arc<AppProblem>,
        space: Arc<SearchSpace>,
        store: Arc<dyn CheckpointStore>,
        spec: &EvalSpec,
    ) -> Self {
        Evaluator { problem, space, store, spec: spec.clone(), live_from: 0 }
    }

    /// The namespaced checkpoint id of candidate `id`.
    fn ckpt_id(&self, id: CandidateId) -> String {
        format!("{}c{id}", self.spec.namespace)
    }

    /// Train, score and checkpoint one candidate. An architecture the
    /// space refuses is `InvalidInput`, and a failed checkpoint save keeps
    /// the store's error kind; either message names the candidate.
    pub fn evaluate(&mut self, cand: &Candidate) -> io::Result<EvalOutcome> {
        let _eval_span = swt_obs::span!("nas.eval");

        // The lineage has moved past these ids: no candidate dispatched from
        // now on names one as provider, so the store need not keep them in
        // memory. Only a hint — a read of one is still served.
        for dead in self.live_from..cand.live_from {
            self.store.evict(&self.ckpt_id(dead));
        }
        self.live_from = self.live_from.max(cand.live_from);

        let spec = self.space.materialize(&cand.arch).map_err(|e| {
            let what = format!("candidate c{} ({}): {e}", cand.id, cand.arch);
            io::Error::new(io::ErrorKind::InvalidInput, what)
        })?;
        let seed = candidate_seed(self.spec.run_seed, cand.id);
        // The model's arena starts empty and goes with it: one carried across
        // candidates grows to fit the largest request any of them made.
        let mut model = Model::build(&spec, seed).expect("spec validated at materialise time");

        // Weight transfer from the parent checkpoint, when enabled.
        let mut transfer = TransferStats::default();
        let mut transfer_secs = 0.0;
        if let (Some(matcher), Some(parent)) = (self.spec.scheme.matcher(), cand.parent) {
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
            epochs: self.spec.epochs.get() as usize,
            batch_size: self.problem.batch_size,
            adam: AdamConfig { lr: self.problem.lr, ..Default::default() },
            shuffle_seed: seed ^ 0x5EED,
            early_stop: None,
            convergence: None,
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
            let id = self.ckpt_id(cand.id);
            self.store.save(&id, &model.state_dict()).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("candidate c{}: checkpoint save of {id}: {e}", cand.id),
                )
            })?
        };
        let save_secs = t0.elapsed().as_secs_f64();

        swt_obs::counter!("nas.candidates_evaluated").inc();
        swt_obs::counter!("nas.transfer.tensors").add(transfer.tensors as u64);
        swt_obs::counter!("nas.transfer.bytes").add(transfer.bytes as u64);
        swt_obs::counter!("nas.checkpoint.bytes").add(checkpoint_bytes);
        swt_obs::histogram!("nas.checkpoint.size_bytes").observe(checkpoint_bytes);

        Ok(EvalOutcome {
            id: cand.id,
            score: report.final_metric,
            train_secs,
            transfer_secs,
            save_secs,
            checkpoint_bytes,
            transfer,
            epochs: u32::try_from(report.epochs_run).expect("epoch count fits u32"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_checkpoint::MemStore;
    use swt_data::{AppKind, DataScale};
    use swt_tensor::Rng;

    fn spec(scheme: TransferScheme) -> EvalSpec {
        EvalSpec { scheme, epochs: NonZeroU32::MIN, run_seed: 42, namespace: String::new() }
    }

    fn setup(scheme: TransferScheme) -> (Evaluator, Arc<SearchSpace>, Arc<dyn CheckpointStore>) {
        let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 7));
        let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let eval = Evaluator::new(
            Arc::clone(&problem),
            Arc::clone(&space),
            Arc::clone(&store),
            &spec(scheme),
        );
        (eval, space, store)
    }

    #[test]
    fn evaluates_and_checkpoints() {
        let (mut eval, space, store) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(1);
        let cand = Candidate::new(0, space.sample(&mut rng), None);
        let out = eval.evaluate(&cand).unwrap();
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
        eval.evaluate(&parent).unwrap();
        let child_arch = space.mutate(&parent_arch, &mut rng);
        let child = Candidate::new(1, child_arch, Some(0));
        let out = eval.evaluate(&child).unwrap();
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
        let out = eval.evaluate(&cand).unwrap();
        assert_eq!(out.transfer.tensors, 0);
        assert!(out.score.is_finite());
    }

    #[test]
    fn identical_candidate_same_seed_reproduces_score() {
        let (mut eval, space, _) = setup(TransferScheme::Baseline);
        let mut rng = Rng::seed(4);
        let arch = space.sample(&mut rng);
        let a = eval.evaluate(&Candidate::new(5, arch.clone(), None)).unwrap();
        let b = eval.evaluate(&Candidate::new(5, arch, None)).unwrap();
        assert_eq!(a.score, b.score, "single-threaded evaluation must be deterministic");
    }
}
