//! Integration tests for `swt-dist`: multi-process runs must be
//! bit-identical to the in-process thread pool — with healthy workers, with
//! a worker SIGKILLed mid-run and with one joining from outside.
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
use util::{
    assert_kill_absorbed, assert_traces_identical, dist_config, poll_until, run_in_process,
    run_injected, temp_dir, Kill,
};

fn nas_config(candidates: usize, workers: usize) -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
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
    let distributed = run_nas_dist(&cfg, &dist).expect("distributed run failed").0;

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
    let dist = dist_config(dist_store.clone());
    // SIGKILL worker 1 while the run is mid-flight: with a 2-wide window,
    // worker 1 holds an in-flight candidate at that point, so the
    // reassignment path must run for the trace to complete.
    let kill = Some(Kill { slot: 1, after: 3 });
    let distributed = run_injected(&cfg, &dist, kill, None).expect("degraded run failed").0;

    assert_traces_identical(&local, &distributed, "run with worker 1 killed");
    let lost = swt_obs::registry::global().counter("dist.workers_lost").get() - lost_before;
    let reassigned =
        swt_obs::registry::global().counter("dist.reassigned").get() - reassigned_before;
    assert_kill_absorbed(&distributed, lost as usize, reassigned as usize, "worker 1 killed");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

/// A window of 0, or one above `max_workers`, is `InvalidInput` naming the
/// count, before any worker is spawned.
#[test]
fn launch_refuses_a_window_it_cannot_fill() {
    for (workers, max_workers) in [(0, 64), (3, 2)] {
        let mut dist = dist_config(temp_dir("bad_window"));
        dist.max_workers = max_workers;
        let err = DistBackend::launch(&nas_config(4, workers), &dist).err().expect("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(&format!("{workers} workers")), "{err}");
        let _ = std::fs::remove_dir_all(&dist.store_dir);
    }
}

/// A worker whose store cannot be opened says why before it exits, so the
/// run's error names the store and not only the lost worker.
#[test]
fn a_store_that_cannot_open_is_named_in_the_run_error() {
    let dir = temp_dir("store_is_a_file");
    let file = dir.join("file");
    std::fs::write(&file, b"").unwrap();
    for store in [PathBuf::new(), file] {
        let err = run_nas_dist(&nas_config(2, 1), &dist_config(store.clone())).expect_err("fails");
        assert!(err.to_string().contains("cannot open checkpoint store"), "{store:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reassigned_candidate_finds_its_provider_after_the_survivor_dropped_it() {
    // Evolution starts after four candidates, so nearly every candidate —
    // the one the victim held included — names a provider. On a shared
    // directory every read goes to the directory; behind the wire each
    // worker's cache is capped at one to three checkpoints, so the survivor
    // has already dropped most of what it trained or fetched when a child
    // asks for it. The watermark a reassigned task carries is the one it
    // was first dispatched with, so it retires nothing the survivor's own
    // tasks had not already retired; whatever is not resident is a miss
    // served by the server, and the trace cannot tell.
    let mut cfg = nas_config(24, 2);
    cfg.population_size = 4;
    cfg.sample_size = 2;
    cfg.cache_bytes = 2 * 600_000;
    let local_store = temp_dir("evicted_local");
    let local = run_in_process(&cfg, &local_store);
    assert!(local.events.iter().filter(|e| e.transfer_tensors > 0).count() >= 12);
    let kill = Some(Kill { slot: 1, after: 12 });

    let dist_store = temp_dir("evicted_dist");
    let dist = dist_config(dist_store.clone());
    let (distributed, stats) = run_injected(&cfg, &dist, kill, None).expect("degraded run failed");
    assert_traces_identical(&local, &distributed, "kill after providers were dropped");
    assert_eq!(distributed.canonical_csv(), local.canonical_csv());
    assert_kill_absorbed(&distributed, stats.lost, stats.reassigned, "worker 1 killed");

    let spill = temp_dir("evicted_spill");
    let server = CkptServer::start(ServerConfig::new("127.0.0.1:0", &spill)).expect("server");
    let mut remote = dist_config(temp_dir("evicted_remote"));
    remote.store_url = Some(format!("tcp://{}", server.addr()));
    let (over_tcp, stats) = run_injected(&cfg, &remote, kill, None).expect("degraded tcp run");
    assert_eq!(over_tcp.canonical_csv(), local.canonical_csv());
    assert_kill_absorbed(&over_tcp, stats.lost, stats.reassigned, "worker 1 killed, tcp store");
    let survivor = &stats.per_worker.iter().find(|(slot, _)| *slot == 0).expect("worker 0").1;
    let (capped, misses) =
        (survivor.counter("ckpt.cache.capped"), survivor.counter("ckpt.cache.misses"));
    assert!(capped > 0 && misses > 0, "survivor: {capped} capped, {misses} misses");
    drop(server);
    for dir in [local_store, dist_store, spill, remote.store_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
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
addr="$3" # dist-worker --connect ADDR
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
        .expect("garbage ahead of the workers' Hellos must not fail the launch")
        .0;
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
    let distributed = run_nas_dist(&cfg, &dist).expect("single-worker run failed").0;
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

    let a = run_nas_dist(&cfg_a, &dist_config(shared_store.clone())).expect("run A failed").0;
    let b = run_nas_dist(&cfg_b, &dist_config(shared_store.clone())).expect("run B failed").0;

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

#[test]
fn a_busy_run_heartbeats_and_admits_a_worker_from_outside() {
    // 400 one-epoch Uno candidates keep two workers busy for several
    // heartbeat rounds: every worker is pinged (each Pong is followed by a
    // snapshot, so `frames` outgrows one per result plus the teardown one),
    // and a `swt dist-worker --connect` started after the 2nd result is
    // admitted at a round although no event loop ever goes quiet.
    let cfg = nas_config(400, 2);
    let local_store = temp_dir("outside_local");
    let local = run_in_process(&cfg, &local_store);

    let dist_store = temp_dir("outside_dist");
    let mut dist = dist_config(dist_store.clone());
    let live = Arc::new(LiveRunView::new());
    dist.live = Some(Arc::clone(&live));
    let view = Arc::clone(&live);
    let joiner = std::thread::spawn(move || {
        assert!(poll_until(Duration::from_secs(60), || view.results() >= 2), "run never started");
        let status = swt_obs::json::Json::parse(&view.status_json()).expect("status is JSON");
        let addr = status.get("meta").and_then(|m| m.get("addr")).and_then(|a| a.as_str());
        let addr = addr.expect("the view names the coordinator's address").to_string();
        std::process::Command::new(env!("CARGO_BIN_EXE_swt"))
            .args(["dist-worker", "--connect", &addr])
            .status()
            .expect("the swt binary runs")
    });
    let (distributed, stats) = run_nas_dist(&cfg, &dist).expect("distributed run failed");
    let joined = joiner.join().expect("joiner thread");

    assert!(joined.success(), "the outside worker must exit cleanly on Shutdown: {joined}");
    assert_eq!(stats.joined, 1, "the outside worker was not admitted");
    assert_traces_identical(&local, &distributed, "run joined from outside");
    let workers = live.workers();
    assert_eq!(workers.len(), 3);
    for (slot, w) in workers.iter().enumerate() {
        assert!(
            w.frames > w.results + 1,
            "worker {slot}: {} frames, {} results",
            w.frames,
            w.results
        );
    }
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}
