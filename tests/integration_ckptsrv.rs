//! Integration tests for the networked checkpoint store: a distributed
//! run whose workers fetch weights from `swt-ckpt-server` must produce a
//! trace bit-identical to the same run over the shared `DirStore` — with
//! healthy workers, with a worker SIGKILLed mid-run, with the server
//! restarted mid-run, and with shared-secret authentication enabled. And
//! `swt dist-run` reports such a run's checkpoint bytes.

use std::path::PathBuf;
use std::time::Duration;
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::{
    assert_traces_identical, dist_config, poll_until, run_in_process, run_injected, temp_dir, Kill,
};

/// A population smaller than the run, so most candidates are mutated
/// children that read their parent back from the server.
fn nas_config(candidates: usize, workers: usize) -> NasConfig {
    NasConfig {
        population_size: 4,
        sample_size: 2,
        ..NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
    }
}

/// A dist config whose workers dial `url` instead of opening the DirStore:
/// the run ships the URL alone, so `store_dir` is never opened.
fn remote_config(store_dir: PathBuf, url: &str) -> DistConfig {
    let mut cfg = dist_config(store_dir);
    cfg.store_url = Some(url.to_string());
    cfg
}

fn start_server(tag: &str, secret: &str) -> (CkptServer, PathBuf) {
    let spill = temp_dir(&format!("ckptsrv_{tag}"));
    let mut cfg = ServerConfig::new("127.0.0.1:0", &spill);
    cfg.secret = secret.to_string();
    (CkptServer::start(cfg).expect("server must start"), spill)
}

#[test]
fn remote_store_run_matches_dirstore_run() {
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("rs_ab_local");
    let local = run_in_process(&cfg, &local_store);

    let (server, spill) = start_server("ab", "");
    let url = format!("tcp://{}", server.addr());
    let scratch = temp_dir("rs_ab_scratch");
    let distributed = run_nas_dist(&cfg, &remote_config(scratch.clone(), &url))
        .expect("remote-store run failed")
        .0;

    assert_traces_identical(&local, &distributed, "remote-store 2-worker run");

    // Every candidate checkpoint lives on the server (an un-namespaced run
    // shares the "default" bucket), and nothing leaked into the scratch dir.
    let probe = RemoteStore::connect(&url, "default", "");
    for e in &distributed.events {
        assert!(
            poll_until(Duration::from_secs(5), || probe.exists(&format!("c{}", e.id))),
            "missing checkpoint c{} on the server",
            e.id
        );
    }
    let scratch_store = DirStore::new(&scratch).unwrap();
    assert!(scratch_store.list().is_empty(), "no checkpoint may bypass the server");

    // `cache_bytes = 0` takes the cache from in front of the `RemoteStore`:
    // each child then fetches its parent whole, also one it trained itself —
    // more on the wire, and the same trace.
    let bare = NasConfig { cache_bytes: 0, namespace: "bare_".into(), ..cfg.clone() };
    let uncached =
        run_nas_dist(&bare, &remote_config(scratch.clone(), &url)).expect("uncached run failed").0;
    assert_traces_identical(&local, &uncached, "remote-store run without a worker cache");
    assert!(local.events.iter().any(|e| e.transfer_tensors > 0), "no child read a parent");

    drop(server);
    for dir in [local_store, spill, scratch] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn killed_worker_recovers_through_the_remote_store() {
    swt_obs::enable();
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("rs_kill_local");
    let local = run_in_process(&cfg, &local_store);

    let (server, spill) = start_server("kill", "");
    let url = format!("tcp://{}", server.addr());
    let scratch = temp_dir("rs_kill_scratch");
    let dist = remote_config(scratch.clone(), &url);
    // SIGKILL worker 1 mid-run — possibly mid-fetch. The server must
    // shrug off the severed session and the reassigned candidate must pull
    // its parent's weights to the surviving worker, keeping the trace
    // bit-identical.
    let kill = Some(Kill { slot: 1, after: 3 });
    let distributed =
        run_injected(&cfg, &dist, kill, None).expect("degraded remote-store run failed").0;

    assert_traces_identical(&local, &distributed, "remote-store run with worker 1 killed");

    drop(server);
    for dir in [local_store, spill, scratch] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn server_restart_mid_run_is_ridden_out_by_worker_backoff() {
    swt_obs::enable();
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("rs_restart_local");
    let local = run_in_process(&cfg, &local_store);

    let (mut server, spill) = start_server("restart", "");
    let addr = server.addr().to_string();
    let url = format!("tcp://{addr}");
    let scratch = temp_dir("rs_restart_scratch");

    // Bounce the server mid-run: wait until some checkpoints have been
    // put (so sessions are live and warm), stop, and restart on the same
    // port over the same spill dir. Workers retry with backoff for ~6s,
    // far longer than the outage, so the run must complete untouched.
    let reconnects_before = swt_obs::counter!("ckptsrv.client.reconnects").get();
    let bounce_spill = spill.clone();
    let bouncer = std::thread::spawn(move || {
        let probe = RemoteStore::connect(&addr, "default", "");
        assert!(
            poll_until(Duration::from_secs(30), || probe.exists("c0")),
            "run never put its first checkpoint"
        );
        drop(probe); // the probe's session dies with the server below
        server.stop();
        let cfg = ServerConfig::new(addr.as_str(), &bounce_spill);
        CkptServer::start(cfg).expect("rebind on the same port")
    });

    let distributed = run_nas_dist(&cfg, &remote_config(scratch.clone(), &url))
        .expect("run across server restart failed")
        .0;
    let server2 = bouncer.join().expect("bouncer thread panicked");

    assert_traces_identical(&local, &distributed, "run across a server restart");

    drop(server2);
    let _ = reconnects_before; // workers reconnect in their own processes
    for dir in [local_store, spill, scratch] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn secured_run_round_trips_with_shared_secret() {
    let cfg = nas_config(6, 2);
    let local_store = temp_dir("rs_auth_local");
    let local = run_in_process(&cfg, &local_store);

    let secret = "integration-secret";
    let (server, spill) = start_server("auth", secret);
    let url = format!("tcp://{}", server.addr());
    let scratch = temp_dir("rs_auth_scratch");

    // Workers read the shared secret from the environment they inherit.
    // (Other tests in this binary only talk to open-mode servers, which
    // ignore the Hello MAC, so this process-wide setting is benign there.)
    std::env::set_var("SWT_CKPT_SECRET", secret);
    let distributed =
        run_nas_dist(&cfg, &remote_config(scratch.clone(), &url)).expect("secured run failed").0;

    assert_traces_identical(&local, &distributed, "secured remote-store run");
    // And the wrong secret still bounces off the same server.
    let intruder = RemoteStore::connect(&url, "default", "not-the-secret");
    assert!(intruder.load_raw("c0").is_err(), "wrong secret must not read checkpoints");

    drop(server);
    for dir in [local_store, spill, scratch] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `swt dist-run` prints the checkpoint bytes its trace counts, over a
/// directory and over tcp, where the server writes them and a worker's
/// `ckpt.dir.saved_bytes` stays 0. Provider-cache counts are printed only
/// over tcp, the one store a worker fronts with a cache.
#[test]
fn dist_run_prints_the_checkpoint_bytes_of_its_trace() {
    let (server, spill) = start_server("cli", "");
    let dir = temp_dir("rs_cli");
    let tcp = format!("tcp://{}", server.addr());
    let shared = dir.join("store").to_string_lossy().into_owned();
    for store in [tcp.as_str(), shared.as_str()] {
        let trace_csv = dir.join("trace.csv");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_swt"))
            .args(["dist-run", "--workers", "2", "--candidates", "20", "--store", store])
            .arg("--trace")
            .arg(&trace_csv)
            .env_remove("SWT_CKPT_SECRET")
            .output()
            .expect("the swt binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{store}: {stdout}{}", String::from_utf8_lossy(&out.stderr));
        let line = stdout.lines().find(|l| l.starts_with("metrics merged from")).expect(store);
        let printed = line
            .split("checkpoint bytes saved ")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse::<u64>().ok());
        let trace = NasTrace::read_csv(&trace_csv).expect("trace");
        let total: u64 = trace.events.iter().map(|e| e.checkpoint_bytes).sum();
        assert!(total > 0, "{store}: {line}");
        assert_eq!(printed, Some(total), "{store}: {line}");
        assert_eq!(line.contains("provider caches:"), store == tcp, "{store}: {line}");
    }
    drop(server);
    for dir in [spill, dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
