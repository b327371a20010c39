//! Integration tests for `swt-dist`: multi-process runs must be
//! bit-identical to the in-process thread pool — with healthy workers and
//! with a worker SIGKILLed mid-run.
//!
//! The worker binary comes from `CARGO_BIN_EXE_swt` (cargo builds package
//! bins for integration tests), passed explicitly so the tests are immune
//! to stale binaries elsewhere on the path.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::{assert_kill_absorbed, assert_traces_identical, poll_until, temp_dir};

fn nas_config(candidates: usize, workers: usize) -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
}

fn dist_config(store: PathBuf) -> DistConfig {
    let mut cfg = DistConfig::new(AppKind::Uno, DataScale::Quick, 11, store);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_swt")));
    cfg
}

fn run_in_process(cfg: &NasConfig, store_dir: &PathBuf) -> NasTrace {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::new(store_dir).unwrap());
    run_nas(problem, space, store, cfg)
}

#[test]
fn distributed_run_matches_in_process_run() {
    // 24 candidates against a population of 16: the last third are mutated
    // children that read their parent back, so the identity covers transfer.
    let cfg = nas_config(24, 2);
    let local_store = temp_dir("ab_local");
    let local = run_in_process(&cfg, &local_store);

    let dist_store = temp_dir("ab_dist");
    let dist = dist_config(dist_store.clone());
    let distributed = run_nas_dist(&cfg, &dist).expect("distributed run failed");

    assert_traces_identical(&local, &distributed, "healthy 2-worker run");
    assert!(local.events.iter().any(|e| e.transfer_tensors > 0), "identity of nothing transferred");
    // Workers shared one DirStore: every candidate checkpoint is on disk.
    // Checkpoints are written by *worker* processes, so wait on a deadline
    // rather than asserting instantly.
    let store = DirStore::new(&dist_store).unwrap();
    for e in &distributed.events {
        assert!(
            poll_until(Duration::from_secs(5), || store.exists(&format!("c{}", e.id))),
            "missing checkpoint c{}",
            e.id
        );
    }
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn killed_worker_is_detected_and_its_candidate_reassigned() {
    swt_obs::enable();
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("kill_local");
    let local = run_in_process(&cfg, &local_store);

    let reassigned_before = swt_obs::registry::global().counter("dist.reassigned").get();
    let lost_before = swt_obs::registry::global().counter("dist.workers_lost").get();

    let dist_store = temp_dir("kill_dist");
    let mut dist = dist_config(dist_store.clone());
    // SIGKILL worker 1 while the run is mid-flight: with a 2-wide window,
    // worker 1 holds an in-flight candidate at that point, so the
    // reassignment path must run for the trace to complete.
    dist.kill_worker_after = Some(KillPlan { worker: 1, after_results: 3 });
    let distributed = run_nas_dist(&cfg, &dist).expect("degraded run failed");

    assert_traces_identical(&local, &distributed, "run with worker 1 killed");
    let lost = swt_obs::registry::global().counter("dist.workers_lost").get() - lost_before;
    let reassigned =
        swt_obs::registry::global().counter("dist.reassigned").get() - reassigned_before;
    assert_kill_absorbed(&distributed, lost as usize, reassigned as usize, "worker 1 killed");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn reassigned_candidate_finds_its_provider_after_the_survivor_dropped_it() {
    // Evolution starts after four candidates, so nearly every candidate —
    // the one the victim held included — names a provider, and each
    // worker's cache is capped at one to three checkpoints: the survivor
    // has already dropped most of what it trained or fetched when a child
    // asks for it. The watermark a reassigned task carries is the one it
    // was first dispatched with, so it retires nothing the survivor's own
    // tasks had not already retired; whatever is not resident is a miss
    // served by the store, and the trace cannot tell.
    let mut cfg = nas_config(24, 2);
    cfg.population_size = 4;
    cfg.sample_size = 2;
    cfg.cache_bytes = 2 * 600_000;
    let local_store = temp_dir("evicted_local");
    let local = run_in_process(&cfg, &local_store);
    assert!(local.events.iter().filter(|e| e.transfer_tensors > 0).count() >= 12);

    let dist_store = temp_dir("evicted_dist");
    let mut dist = dist_config(dist_store.clone());
    dist.kill_worker_after = Some(KillPlan { worker: 1, after_results: 12 });
    let (distributed, stats) = run_nas_dist_with_stats(&cfg, &dist).expect("degraded run failed");

    assert_traces_identical(&local, &distributed, "kill after providers were dropped");
    assert_eq!(distributed.canonical_csv(), local.canonical_csv());
    assert_kill_absorbed(&distributed, stats.lost, stats.reassigned, "worker 1 killed");
    let survivor = &stats.per_worker.iter().find(|(slot, _)| *slot == 0).expect("worker 0").1;
    let (capped, misses) =
        (survivor.counter("ckpt.cache.capped"), survivor.counter("ckpt.cache.misses"));
    assert!(capped > 0 && misses > 0, "survivor: {capped} capped, {misses} misses");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn garbage_connections_at_startup_do_not_fail_the_launch() {
    // Start every worker through a wrapper that first throws two bad
    // connections at the coordinator — raw bytes whose "length prefix" is
    // absurd, then a well-framed `Ping` where a `Hello` belongs — and only
    // then becomes the real worker, so each real `Hello` queues behind
    // garbage on the listener. Admission drops a bad connection at launch
    // exactly as it does mid-run; the launch must not notice.
    let dir = temp_dir("garbage_launch");
    let wrapper = dir.join("noisy_worker.sh");
    let script = format!(
        r#"#!/usr/bin/env bash
addr="$3" # dist-worker --connect ADDR --worker-id N
for junk in 'GET / HTTP/1.1\r\n\r\n' '\x08\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x00'; do
  # The coordinator may hang up mid-write; that is the point.
  exec 3<>"/dev/tcp/${{addr%:*}}/${{addr##*:}}" && printf "$junk" >&3 2>/dev/null
  exec 3>&-
done
exec '{}' "$@"
"#,
        env!("CARGO_BIN_EXE_swt")
    );
    // Written by a child process, not by this one: a script this process
    // held open for writing could still be open in a sibling test's forked
    // worker when it is exec'd (ETXTBSY).
    let written = std::process::Command::new("bash")
        .args(["-c", r#"printf '%s' "$1" > "$0" && chmod +x "$0""#])
        .arg(&wrapper)
        .arg(&script)
        .status()
        .expect("bash is required (scripts/check.sh and benchmark/run.sh already need it)");
    assert!(written.success(), "could not write {}", wrapper.display());

    let cfg = nas_config(6, 2);
    let local_store = temp_dir("garbage_local");
    let local = run_in_process(&cfg, &local_store);
    let mut dist = dist_config(dir.join("store"));
    dist.worker_exe = Some(wrapper);
    let distributed = run_nas_dist(&cfg, &dist)
        .expect("garbage ahead of the workers' Hellos must not fail the launch");
    assert_traces_identical(&local, &distributed, "launch behind garbage connections");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_worker_distributed_run_completes() {
    // Degenerate pool: the coordinator must work with a 1-wide window too
    // (this is also the post-failure steady state of a 2-worker run).
    let cfg = nas_config(24, 1);
    let local_store = temp_dir("one_local");
    let local = run_in_process(&cfg, &local_store);
    let dist_store = temp_dir("one_dist");
    let dist = dist_config(dist_store.clone());
    let distributed = run_nas_dist(&cfg, &dist).expect("single-worker run failed");
    assert_traces_identical(&local, &distributed, "single-worker run");
    assert!(local.events.iter().any(|e| e.transfer_tensors > 0), "identity of nothing transferred");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn two_runs_share_one_store_via_namespaces() {
    // Two distributed runs share one DirStore root — the paper's parallel
    // file system shared by concurrent experiments — and must not
    // interfere, because their checkpoint ids live in distinct namespaces.
    let shared_store = temp_dir("shared");
    let isolated_store = temp_dir("isolated");

    let mut cfg_a = nas_config(6, 2);
    cfg_a.namespace = "expA_".into();
    let mut cfg_b = nas_config(6, 2);
    cfg_b.namespace = "expB_".into();
    cfg_b.seed = 10; // a different search so collisions would actually corrupt

    // Baselines in isolation.
    let mut iso_cfg_a = cfg_a.clone();
    iso_cfg_a.namespace = String::new();
    let isolated_a = run_in_process(&iso_cfg_a, &isolated_store);

    let a = run_nas_dist(&cfg_a, &dist_config(shared_store.clone())).expect("run A failed");
    let b = run_nas_dist(&cfg_b, &dist_config(shared_store.clone())).expect("run B failed");

    assert_traces_identical(&isolated_a, &a, "shared-store run A vs isolated baseline");
    let store = DirStore::new(&shared_store).unwrap();
    for e in a.events.iter() {
        assert!(poll_until(Duration::from_secs(5), || store.exists(&format!("expA_c{}", e.id))));
    }
    for e in b.events.iter() {
        assert!(poll_until(Duration::from_secs(5), || store.exists(&format!("expB_c{}", e.id))));
    }
    assert!(!store.exists("c0"), "no run may write outside its namespace");
    let _ = std::fs::remove_dir_all(&shared_store);
    let _ = std::fs::remove_dir_all(&isolated_store);
}
