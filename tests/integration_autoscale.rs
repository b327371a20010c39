//! The autoscale dist matrix — elasticity driven by the coordinator's own
//! policy instead of injected join/kill plans. One seed, four pool shapes:
//!
//! | cell             | pool history                                        |
//! |------------------|-----------------------------------------------------|
//! | `static`         | 2 workers, no policy — the fixed-pool baseline      |
//! | `grow`           | starts at 1, policy buys a second on backlog        |
//! | `shrink_on_drain`| starts at 3 > window, policy retires the idle spare |
//! | `grow_then_kill` | starts at 1, grows, the grown worker is SIGKILLed   |
//!
//! Every cell must reproduce the in-process canonical trace byte for byte:
//! the policy only ever changes *which process* evaluates a candidate
//! (`DistBackend::capacity()` stays the constant window), never the
//! schedule. Merged cross-process counters stay conserved in every cell,
//! and the grow cell additionally proves the live `/status` view surfaces
//! the decision stream *mid-run* via `poll_until`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use swt::obs::json::Json;
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::{assert_conserved, assert_kill_absorbed, assert_traces_identical, poll_until, temp_dir};

const CANDIDATES: usize = 12;
const WINDOW: usize = 2;
const SEED: u64 = 9;
const DATA_SEED: u64 = 11;

/// Same shape as the elastic matrix: a small population so most children
/// transfer weights from a parent (checkpoint traffic in every cell).
fn nas_config() -> NasConfig {
    NasConfig {
        population_size: 6,
        sample_size: 4,
        ..NasConfig::quick(TransferScheme::Lcs, CANDIDATES, WINDOW, SEED)
    }
}

struct Cell {
    name: &'static str,
    initial_workers: Option<usize>,
    max_workers: usize,
    autoscale: Option<PolicyConfig>,
    kill: Option<KillPlan>,
    expect_grown_min: usize,
    expect_retired_min: usize,
    expect_lost: usize,
}

fn matrix() -> Vec<Cell> {
    vec![
        Cell {
            name: "static",
            initial_workers: None,
            max_workers: 2,
            autoscale: None,
            kill: None,
            expect_grown_min: 0,
            expect_retired_min: 0,
            expect_lost: 0,
        },
        Cell {
            // One process against the 2-wide window: the pending queue has
            // real backlog, so the policy must buy a second worker.
            name: "grow",
            initial_workers: Some(1),
            max_workers: 2,
            autoscale: Some(PolicyConfig::bounded(1, 2)),
            kill: None,
            expect_grown_min: 1,
            expect_retired_min: 0,
            expect_lost: 0,
        },
        Cell {
            // Three processes against the 2-wide window: one is always idle
            // after every flush, so once the idle patience elapses the
            // policy retires it — drain-then-close, never below the floor.
            name: "shrink_on_drain",
            initial_workers: Some(3),
            max_workers: 3,
            autoscale: Some(PolicyConfig::bounded(2, 3)),
            kill: None,
            expect_grown_min: 0,
            expect_retired_min: 1,
            expect_lost: 0,
        },
        Cell {
            // The policy grows the pool, then the *grown* worker (slot 1)
            // is SIGKILLed mid-evaluation: loss detection and candidate
            // reassignment must compose with autoscale bookkeeping.
            name: "grow_then_kill",
            initial_workers: Some(1),
            max_workers: 2,
            autoscale: Some(PolicyConfig::bounded(1, 2)),
            kill: Some(KillPlan { worker: 1, after_results: 6 }),
            expect_grown_min: 1,
            expect_retired_min: 0,
            expect_lost: 1,
        },
    ]
}

fn dist_config(cell: &Cell, store: PathBuf) -> DistConfig {
    let mut dist = DistConfig::new(AppKind::Uno, DataScale::Quick, DATA_SEED, store);
    dist.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_swt")));
    dist.initial_workers = cell.initial_workers;
    dist.max_workers = cell.max_workers;
    dist.autoscale = cell.autoscale.clone();
    dist.kill_worker_after = cell.kill.clone();
    dist
}

#[test]
fn autoscale_matrix_reproduces_the_fixed_pool_trace() {
    // In-process reference: the canonical trace every cell must reproduce.
    let cfg = nas_config();
    let local_store = temp_dir("autoscale_local");
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, DATA_SEED));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::new(&local_store).unwrap());
    let local = run_nas(problem, space, store, &cfg);
    let reference = local.canonical_csv();
    assert!(
        local.events.iter().any(|e| e.transfer_tensors > 0),
        "config must produce weight-transferring children or the matrix is vacuous"
    );

    for cell in matrix() {
        let store = temp_dir(&format!("autoscale_{}", cell.name));
        let dist = dist_config(&cell, store.clone());
        let (trace, stats) = run_nas_dist_with_stats(&nas_config(), &dist)
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", cell.name));

        // Determinism: whatever the policy did to the pool, the canonical
        // trace is byte-identical to the in-process fixed-pool reference.
        assert_traces_identical(&local, &trace, cell.name);
        assert_eq!(
            trace.canonical_csv(),
            reference,
            "cell `{}`: canonical trace CSV diverged from the fixed-pool reference",
            cell.name
        );

        // Autoscale bookkeeping matches the scenario.
        assert!(
            stats.grown >= cell.expect_grown_min,
            "cell `{}`: grown {} below expected {}",
            cell.name,
            stats.grown,
            cell.expect_grown_min
        );
        assert!(
            stats.retired >= cell.expect_retired_min,
            "cell `{}`: retired {} below expected {}",
            cell.name,
            stats.retired,
            cell.expect_retired_min
        );
        assert_eq!(stats.lost, cell.expect_lost, "cell `{}`: lost", cell.name);
        if cell.autoscale.is_none() {
            assert_eq!(
                (stats.grown, stats.retired),
                (0, 0),
                "a fixed pool must never grow or retire"
            );
        }
        if cell.expect_lost > 0 {
            assert_kill_absorbed(&trace, stats.lost, stats.reassigned, cell.name);
        }
        // A retired worker drains first: retirement must never register as
        // a loss, and the pool never retires below the policy floor.
        if let Some(policy) = &cell.autoscale {
            assert!(
                stats.retired + policy.min_workers
                    <= cell.initial_workers.unwrap_or(WINDOW) + stats.grown,
                "cell `{}`: retired past the policy floor",
                cell.name
            );
        }

        // Metrics stay conserved across processes — including the ones a
        // retired worker streamed in its final telemetry before closing.
        assert!(
            !stats.per_worker.is_empty(),
            "cell `{}`: no worker delivered a metrics snapshot",
            cell.name
        );
        assert_conserved(&stats, cell.name);
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
            merged.counter("nn.epochs_trained") >= CANDIDATES as u64,
            "cell `{}`: merged epoch count below the candidate budget",
            cell.name
        );

        let _ = std::fs::remove_dir_all(&store);
    }
    let _ = std::fs::remove_dir_all(&local_store);
}

/// The decision stream is observable while the run is still going: attach a
/// `LiveRunView`, run the grow cell on a background thread, and poll the
/// same `/status` JSON the HTTP monitor serves until the autoscale object
/// reports a grow — *before* the run finishes, not from a post-mortem.
#[test]
fn live_status_surfaces_autoscale_decisions_mid_run() {
    let store = temp_dir("autoscale_live");
    let cell = Cell {
        name: "grow_live",
        initial_workers: Some(1),
        max_workers: 2,
        autoscale: Some(PolicyConfig::bounded(1, 2)),
        kill: None,
        expect_grown_min: 1,
        expect_retired_min: 0,
        expect_lost: 0,
    };
    let mut dist = dist_config(&cell, store.clone());
    let live = Arc::new(LiveRunView::new());
    dist.live = Some(Arc::clone(&live));

    let runner = std::thread::spawn(move || run_nas_dist_with_stats(&nas_config(), &dist));

    let grow_visible = poll_until(Duration::from_secs(120), || {
        let status = match Json::parse(&ServeSource::status_json(live.as_ref())) {
            Ok(s) => s,
            Err(_) => return false,
        };
        let auto = match status.get("autoscale") {
            Some(a) => a,
            None => return false,
        };
        auto.get("enabled") == Some(&Json::Bool(true))
            && auto.get("grows").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0
    });

    let (trace, stats) = runner.join().expect("runner thread panicked").expect("grow cell failed");
    assert!(grow_visible, "no autoscale grow surfaced in /status while the run was live");
    assert!(stats.grown >= 1, "the policy never actually grew the pool");
    assert_eq!(trace.events.len(), CANDIDATES, "run must still complete every candidate");

    // The decision log itself is part of the status payload.
    let status = Json::parse(&ServeSource::status_json(live.as_ref()))
        .expect("final /status must stay parseable");
    let log = status
        .get("autoscale")
        .and_then(|a| a.get("log"))
        .and_then(Json::as_array)
        .expect("autoscale.log missing from /status");
    assert!(!log.is_empty(), "decision log empty despite a recorded grow");

    let _ = std::fs::remove_dir_all(&store);
}
