//! # Selective Weight Transfer for Neural Architecture Search
//!
//! Facade crate re-exporting the full public API of this reproduction of
//! *"Accelerating DNN Architecture Search at Scale Using Selective Weight
//! Transfer"* (CLUSTER 2021).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use swt::prelude::*;
//!
//! // Pick an application, build its (synthetic) problem and search space.
//! let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 42));
//! let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
//! let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
//!
//! // Run a small NAS with LCS weight transfer.
//! let cfg = NasConfig::quick(TransferScheme::Lcs, 8, 2, 7);
//! let trace = run_nas(problem, space, store, &cfg);
//! assert_eq!(trace.events.len(), 8);
//! ```
//!
//! See the crate-level docs of the member crates for details:
//! [`swt_core`] (LP/LCS transfer), [`swt_nas`] (runtime), [`swt_space`]
//! (search spaces), [`swt_nn`] / [`swt_tensor`] (training substrate),
//! [`swt_data`] (synthetic applications), [`swt_checkpoint`],
//! [`swt_ckpt_server`] (networked checkpoint store),
//! [`swt_cluster`] (scalability simulator), [`swt_stats`] and
//! [`swt_obs`] (spans, metrics, logging, run reports).

pub use swt_checkpoint as checkpoint;
pub use swt_ckpt_server as ckpt_server;
pub use swt_cluster as cluster;
pub use swt_core as core;
pub use swt_data as data;
pub use swt_dist as dist;
pub use swt_nas as nas;
pub use swt_nn as nn;
pub use swt_obs as obs;
pub use swt_space as space;
pub use swt_stats as stats;
pub use swt_tensor as tensor;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use swt_checkpoint::{CachedStore, CheckpointIndex, CheckpointStore, DirStore, MemStore};
    pub use swt_ckpt_server::{CkptServer, RemoteStore, ServerConfig};
    pub use swt_cluster::{simulate, ClusterConfig, SimReport, TaskCost};
    pub use swt_core::{
        apply_transfer, lcs_match, lp_match, select_nearest, Matcher, ShapeSeq, TransferPlan,
        TransferScheme, TransferStats,
    };
    pub use swt_data::{AppKind, AppProblem, DataScale};
    pub use swt_dist::{
        run_nas_dist, run_nas_dist_with_stats, DistBackend, DistConfig, DistRunStats, JoinPlan,
        KillPlan, LiveRunView, Telemetry, WorkerView,
    };
    pub use swt_nas::{
        full_train_top_k, run_nas, run_nas_with_backend, run_pair_experiment, Candidate,
        EvalBackend, NasConfig, NasTrace, PairSummary, ProviderPolicy, StrategyKind,
        ThreadPoolBackend, TopKReport, TraceEvent,
    };
    pub use swt_nn::{
        Activation, Dataset, LayerSpec, Loss, Metric, Model, ModelSpec, NodeSpec, TrainConfig,
        Trainer,
    };
    pub use swt_obs::{ObsServer, RunReport, ServeSource};
    pub use swt_space::{distance, ArchSeq, SearchSpace};
    pub use swt_stats::{geometric_mean, kendall_tau, kendall_tau_b, SlotBinner, Summary};
    pub use swt_tensor::{Rng, Shape, Tensor};
}
