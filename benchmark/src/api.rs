//! The program's public surface as the benchmark uses it. This is the only
//! file that names `swt::…`; README.md lists the same items. A change that
//! alters one of these signatures needs a benchmark issue first, because
//! the benchmark may not be edited by a change that claims a gain.

pub use swt::checkpoint::{CachedStore, CheckpointIndex, CheckpointStore, DirStore};
pub use swt::ckpt_server::RemoteStore;
pub use swt::core::{apply_transfer, ShapeSeq, TransferPlan, TransferScheme};
pub use swt::data::{AppKind, AppProblem, DataScale};
pub use swt::dist::{DistBackend, DistConfig};
pub use swt::nas::{
    candidate_seed, run_nas, run_nas_with_backend, BackendResult, Candidate, EvalBackend,
    NasConfig, NasTrace, ThreadPoolBackend,
};
pub use swt::nn::{Adam, AdamConfig, Model, TrainConfig, Trainer};
pub use swt::obs::serve::http_get;
pub use swt::space::SearchSpace;
pub use swt::tensor::parallel::scoped_max_threads;
pub use swt::tensor::{conv2d_backward, conv2d_forward, gemm_kernel_name, matmul, Padding, Tensor};

/// Turn the program's own counters, histograms and spans on (traced runs)
/// or leave them off (timed runs).
pub fn obs_enable(on: bool) {
    if on {
        swt::obs::enable();
    } else {
        swt::obs::disable();
    }
}

/// Current value of one of the program's exported counters.
pub fn counter(name: &str) -> u64 {
    swt::obs::registry::global().counter(name).get()
}

/// Median of the exported power-of-two histograms whose name starts with
/// `prefix`, merged: the upper bound of the bucket that holds the middle
/// observation, or 0 when nothing was observed.
pub fn histogram_p50(prefix: &str) -> u64 {
    let mut merged = Vec::new();
    swt::obs::registry::global().for_each_histogram(|name, h| {
        if name.starts_with(prefix) {
            let buckets = h.buckets();
            if merged.is_empty() {
                merged = buckets.to_vec();
            } else {
                for (m, b) in merged.iter_mut().zip(buckets) {
                    *m += b;
                }
            }
        }
    });
    let total: u64 = merged.iter().sum();
    let mut seen = 0;
    for (i, n) in merged.iter().enumerate() {
        seen += n;
        if total > 0 && seen * 2 >= total {
            return swt::obs::metrics::bucket_bound(i);
        }
    }
    0
}
