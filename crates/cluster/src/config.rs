//! Cluster configuration (the simulated analogue of the paper's Table II).

/// Parallel-file-system model: shared bandwidth plus per-operation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsModel {
    /// Aggregate read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Aggregate write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Fixed per-operation latency, seconds (metadata + open/close).
    pub latency: f64,
}

impl PfsModel {
    /// Time to read `bytes` under `concurrent` simultaneous streams (the
    /// bandwidth is shared).
    pub fn read_secs(&self, bytes: u64, concurrent: usize) -> f64 {
        self.latency + bytes as f64 * concurrent.max(1) as f64 / self.read_bw
    }

    /// Time to write `bytes` under `concurrent` simultaneous streams.
    pub fn write_secs(&self, bytes: u64, concurrent: usize) -> f64 {
        self.latency + bytes as f64 * concurrent.max(1) as f64 / self.write_bw
    }
}

/// A simulated GPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Human-readable description (Table II analogue).
    pub name: String,
    /// Worker (GPU) count.
    pub gpus: usize,
    pub pfs: PfsModel,
    /// Serial scheduler cost per task dispatch (Ray evaluator overhead).
    pub dispatch_secs: f64,
}

impl ClusterConfig {
    /// The paper's Node Type A: 8 × NVIDIA A100 per node; 1, 2 or 4 nodes
    /// give the 8/16/32-GPU points of Fig. 10. PFS numbers are modelled on a
    /// mid-size Lustre deployment; the dispatch cost matches the paper's
    /// "at most 150 ms" weight-transfer bookkeeping plus Ray task launch.
    pub fn node_type_a(nodes: usize) -> ClusterConfig {
        assert!(nodes > 0);
        ClusterConfig {
            name: format!("{nodes}x Node Type A (4x AMD EPYC 7742, 8x NVIDIA A100 40GB)"),
            gpus: nodes * 8,
            pfs: PfsModel { read_bw: 2.0e9, write_bw: 1.5e9, latency: 0.01 },
            dispatch_secs: 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_type_a_gpu_counts() {
        assert_eq!(ClusterConfig::node_type_a(1).gpus, 8);
        assert_eq!(ClusterConfig::node_type_a(2).gpus, 16);
        assert_eq!(ClusterConfig::node_type_a(4).gpus, 32);
    }

    #[test]
    fn pfs_times_scale_with_bytes_and_contention() {
        let pfs = PfsModel { read_bw: 1e9, write_bw: 1e9, latency: 0.01 };
        let one = pfs.read_secs(100_000_000, 1);
        let contended = pfs.read_secs(100_000_000, 4);
        assert!((one - 0.11).abs() < 1e-9);
        assert!(contended > one);
        // Latency dominates tiny transfers.
        assert!((pfs.write_secs(0, 1) - 0.01).abs() < 1e-12);
    }
}
