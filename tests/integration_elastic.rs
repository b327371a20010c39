//! The elastic dist matrix. One seed, four pool shapes:
//!
//! | cell            | pool history                                        |
//! |-----------------|-----------------------------------------------------|
//! | `fixed`         | 2 workers, healthy throughout                       |
//! | `join_then_kill`| 2 workers, a third joins, then one is SIGKILLed     |
//! | `kill_then_join`| 2 workers, one SIGKILLed, a replacement joins       |
//! | `join_rejected` | 2 workers at `max_workers=2`; a join is refused     |
//!
//! Every cell must produce a canonical trace byte-identical to the
//! in-process baseline — elasticity and failures change *which process*
//! evaluates a candidate, never the schedule — and every cell's merged
//! cross-process metrics must be conserved: the fold of all per-worker
//! snapshots equals the per-counter sum over processes, with GEMM work,
//! checkpoint writes and provider-cache hits all visibly nonzero.

use std::path::PathBuf;
use std::sync::Arc;
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::{assert_conserved, assert_kill_absorbed, assert_traces_identical, temp_dir};

const CANDIDATES: usize = 12;
const WINDOW: usize = 2;
const SEED: u64 = 9;
const DATA_SEED: u64 = 11;

struct Cell {
    name: &'static str,
    max_workers: usize,
    join: Option<JoinPlan>,
    kill: Option<KillPlan>,
    expect_joined: usize,
    expect_rejected: usize,
    expect_lost: usize,
}

const MATRIX: &[Cell] = &[
    Cell {
        name: "fixed",
        max_workers: 2,
        join: None,
        kill: None,
        expect_joined: 0,
        expect_rejected: 0,
        expect_lost: 0,
    },
    Cell {
        name: "join_then_kill",
        max_workers: 3,
        join: Some(JoinPlan { after_results: 2, count: 1 }),
        kill: Some(KillPlan { worker: 0, after_results: 4 }),
        expect_joined: 1,
        expect_rejected: 0,
        expect_lost: 1,
    },
    Cell {
        // The kill (a SIGKILL, detected via EOF well before result 6)
        // frees a slot below max_workers, so the later join is admitted
        // and drains the backlog the short-handed pool built up.
        name: "kill_then_join",
        max_workers: 2,
        join: Some(JoinPlan { after_results: 6, count: 1 }),
        kill: Some(KillPlan { worker: 1, after_results: 2 }),
        expect_joined: 1,
        expect_rejected: 0,
        expect_lost: 1,
    },
    Cell {
        name: "join_rejected",
        max_workers: 2,
        join: Some(JoinPlan { after_results: 2, count: 1 }),
        kill: None,
        expect_joined: 0,
        expect_rejected: 1,
        expect_lost: 0,
    },
];

/// Small population so most of the run consists of mutated children: every
/// child transfers from its parent, which means checkpoint reads through
/// the worker-side provider cache (index read fills, tensor read hits).
fn nas_config() -> NasConfig {
    NasConfig {
        population_size: 6,
        sample_size: 4,
        ..NasConfig::quick(TransferScheme::Lcs, CANDIDATES, WINDOW, SEED)
    }
}

fn run_cell(cell: &Cell) -> (NasTrace, DistRunStats, PathBuf) {
    let store = temp_dir(&format!("elastic_{}", cell.name));
    let mut dist = DistConfig::new(AppKind::Uno, DataScale::Quick, DATA_SEED, store.clone());
    dist.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_swt")));
    dist.max_workers = cell.max_workers;
    dist.join_after = cell.join.clone();
    dist.kill_worker_after = cell.kill.clone();
    let (trace, stats) = run_nas_dist_with_stats(&nas_config(), &dist)
        .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", cell.name));
    (trace, stats, store)
}

#[test]
fn same_seed_same_trace_across_the_elastic_matrix() {
    // In-process reference: the canonical trace every cell must reproduce.
    let cfg = nas_config();
    let local_store = temp_dir("elastic_local");
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, DATA_SEED));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::new(&local_store).unwrap());
    let local = run_nas(problem, space, store, &cfg);
    let reference = local.canonical_csv();
    assert!(
        local.events.iter().any(|e| e.transfer_tensors > 0),
        "config must produce weight-transferring children or the matrix is vacuous"
    );

    for cell in MATRIX {
        let (trace, stats, store) = run_cell(cell);

        // Determinism: bit-identical canonical trace, whatever the pool did.
        assert_traces_identical(&local, &trace, cell.name);
        assert_eq!(
            trace.canonical_csv(),
            reference,
            "cell `{}`: canonical trace CSV diverged from the fixed-pool reference",
            cell.name
        );

        // Elasticity bookkeeping matches the injected scenario exactly.
        assert_eq!(stats.joined, cell.expect_joined, "cell `{}`: joined", cell.name);
        assert_eq!(stats.rejected, cell.expect_rejected, "cell `{}`: rejected", cell.name);
        assert_eq!(stats.lost, cell.expect_lost, "cell `{}`: lost", cell.name);
        if cell.expect_lost > 0 {
            assert_kill_absorbed(&trace, stats.lost, stats.reassigned, cell.name);
        }

        // Metrics: merged totals are conserved sums over processes, and the
        // work itself is visible — training GEMMs, checkpoint writes, and
        // provider-cache hits from parent reads (index fill + tensor hit).
        assert!(
            !stats.per_worker.is_empty(),
            "cell `{}`: no worker delivered a metrics snapshot",
            cell.name
        );
        assert_conserved(&stats, cell.name);
        // Each worker's report is whole, spans included: one `nas.eval`
        // per evaluated candidate. Only where no worker was killed — a
        // victim's last snapshot may be a heartbeat's, taken mid-candidate.
        if cell.kill.is_none() {
            for (worker, report) in &stats.per_worker {
                let evals: u64 =
                    report.spans.iter().filter(|s| s.path == "nas.eval").map(|s| s.count).sum();
                assert!(evals > 0, "cell `{}`: worker {worker} has no nas.eval span", cell.name);
                assert_eq!(
                    evals,
                    report.counter("nas.candidates_evaluated"),
                    "cell `{}`: worker {worker}'s nas.eval spans",
                    cell.name
                );
            }
        }
        let merged = stats.workers_report();
        assert!(
            merged.counter_prefix_sum("tensor.gemm.") > 0,
            "cell `{}`: no GEMM work recorded across workers",
            cell.name
        );
        assert!(
            merged.counter("ckpt.dir.saved_bytes") > 0,
            "cell `{}`: no checkpoint bytes written across workers",
            cell.name
        );
        assert!(
            merged.counter("ckpt.cache.hits") > 0,
            "cell `{}`: provider cache never hit across workers",
            cell.name
        );
        assert!(
            merged.counter("nn.epochs_trained") >= CANDIDATES as u64,
            "cell `{}`: merged epoch count below the candidate budget",
            cell.name
        );

        let _ = std::fs::remove_dir_all(&store);
    }
    let _ = std::fs::remove_dir_all(&local_store);
}
