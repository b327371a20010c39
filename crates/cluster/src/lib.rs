//! Discrete-event replay of a NAS run on more workers (Fig. 10).
//!
//! The paper measures candidate estimation for 400 models on 8, 16 and 32
//! NVIDIA A100 GPUs. No GPUs exist in this environment, so the experiment is
//! reproduced by replaying one traced run: its own per-candidate costs
//! ([`task_costs`]) on `gpus` workers under the runner's proposal rule,
//! with the coordinator's serial section measured from the same trace
//! ([`ClusterConfig::measured`]). Nothing is rescaled and there is no
//! file-system model: the traced save and transfer times already hold the
//! store's I/O.
//!
//! The replay is held to a bar: at 1 and 2 workers its makespan lies
//! within 25 % of measured walls (EXPERIMENTS.md, "Decision records").

pub mod sim;

pub use sim::{simulate, task_costs, ClusterConfig, SimReport, TaskCost};
