//! NAS runtime: search strategies, parallel evaluators, traces and the
//! two-phase workflow of the paper.
//!
//! The architecture mirrors DeepHyper's scheduler/evaluator split (Fig. 6):
//! a scheduler thread runs the search strategy and dispatches candidates
//! over channels to a pool of evaluator threads (one thread = one simulated
//! GPU). Evaluators train candidates for a small number of epochs, write
//! checkpoints to a [`swt_checkpoint::CheckpointStore`], and — when a
//! transfer scheme is active — initialise each child from its parent's
//! checkpoint via LP/LCS matching before training.
//!
//! The crate also contains the paper's analysis harnesses:
//! [`pairs`] reproduces the provider/receiver pair studies (Figs. 2, 4, 5)
//! and [`topk`] the full-training phase (Fig. 8, Tables III/IV).

pub mod backend;
pub mod candidate;
pub mod evaluator;
pub mod pairs;
pub mod runner;
pub mod strategy;
pub mod topk;
pub mod trace;

pub use backend::{BackendResult, EvalBackend, ThreadPoolBackend};
pub use candidate::{Candidate, CandidateId, ScoredCandidate};
pub use evaluator::{candidate_seed, EvalOutcome, EvalSpec, Evaluator};
pub use pairs::{
    run_distance_experiment, run_pair_experiment, MatchOutcome, PairOutcome, PairSummary,
};
pub use runner::{run_nas, run_nas_with_backend, NasConfig, StrategyKind};
pub use strategy::{ProviderPolicy, RandomSearch, RegularizedEvolution, SearchStrategy};
pub use topk::{full_train_sample, full_train_top_k, FullTrainOutcome, TopKReport};
pub use trace::{NasTrace, TraceEvent};
