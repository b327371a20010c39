//! Live-telemetry integration: the streamed run view must (1) never
//! perturb the canonical NAS trace, (2) expose a seq-monotone, eventually
//! consistent `/status` while a distributed run is in flight, (3) be
//! where the run report's worker totals come from, and (4) carry timeline
//! events only when the run writes a Chrome trace.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use swt::prelude::*;
use swt_obs::json::Json;

#[path = "util/mod.rs"]
mod util;
use util::{dist_config, run_in_process, run_injected, temp_dir, Join};

/// These tests toggle the process-global observability switches; the cargo
/// test harness runs tests concurrently, so serialize them.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn nas_config(candidates: usize, workers: usize) -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
}

#[test]
fn telemetry_does_not_perturb_the_canonical_trace() {
    let _lock = global_lock();
    let cfg = nas_config(8, 2);

    swt_obs::disable();
    swt_obs::timeline::disable();
    let store_off = temp_dir("tl_off");
    let off = run_in_process(&cfg, &store_off);

    swt_obs::enable();
    swt_obs::timeline::enable();
    let store_on = temp_dir("tl_on");
    let on = run_in_process(&cfg, &store_on);
    swt_obs::timeline::disable();
    swt_obs::disable();

    assert_eq!(
        off.canonical_csv(),
        on.canonical_csv(),
        "canonical trace must be bit-identical with telemetry on vs off"
    );
    let _ = std::fs::remove_dir_all(&store_off);
    let _ = std::fs::remove_dir_all(&store_on);
}

#[test]
fn live_view_tracks_a_distributed_run_and_settles_on_report_totals() {
    let _lock = global_lock();
    swt_obs::enable();
    swt_obs::timeline::enable();
    // The worker-only counters below must come from this run alone.
    swt_obs::reset();

    let total = 10usize;
    let cfg = nas_config(total, 2);
    let store = temp_dir("live_dist");
    let mut dist = dist_config(store.clone());
    let live = Arc::new(LiveRunView::new());
    dist.live = Some(Arc::clone(&live));

    let server = ObsServer::start("127.0.0.1:0", Arc::clone(&live) as Arc<dyn ServeSource>)
        .expect("live server must start");
    let addr = server.addr().to_string();

    // Poll `/status` concurrently with the run, recording every per-worker
    // seq observation in order.
    let stop = Arc::new(AtomicBool::new(false));
    let poller_stop = Arc::clone(&stop);
    let poll_addr = addr.clone();
    let poller = std::thread::spawn(move || {
        let mut polls = 0usize;
        let mut seqs: Vec<(usize, u64)> = Vec::new();
        while !poller_stop.load(Ordering::Relaxed) {
            if let Ok(body) = swt_obs::serve::http_get(&poll_addr, "/status") {
                if let Ok(doc) = Json::parse(&body) {
                    polls += 1;
                    for w in doc.get("workers").and_then(Json::as_array).unwrap_or(&[]) {
                        let id = w.get("id").and_then(Json::as_u64).unwrap_or(0) as usize;
                        let seq = w.get("seq").and_then(Json::as_u64).unwrap_or(0);
                        seqs.push((id, seq));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (polls, seqs)
    });

    // Make the run elastic: a third worker joins mid-run, and the view must
    // pick it up like any other.
    let join = Some(Join { after: 3, count: 1 });
    let trace = run_injected(&cfg, &dist, None, join).expect("distributed run failed").0;
    stop.store(true, Ordering::Relaxed);
    let (polls, seqs) = poller.join().expect("poller must not panic");

    assert_eq!(trace.events.len(), total);
    assert!(polls > 0, "the status endpoint must answer while the run is live");
    // Lost frames may only make the view stale, never step it backwards:
    // every observed per-worker seq is non-decreasing.
    let mut last: HashMap<usize, u64> = HashMap::new();
    for (id, seq) in seqs {
        let prev = last.entry(id).or_insert(0);
        assert!(*prev <= seq, "worker {id} seq regressed: {} -> {seq}", *prev);
        *prev = seq;
    }

    // The registry `finish` folded worker totals into holds the view's:
    // counters only a worker process bumps match it exactly.
    let report = RunReport::capture();
    let view = live.workers_report();
    assert_eq!(view.counter("nas.candidates_evaluated"), total as u64);
    for name in ["nas.candidates_evaluated", "nn.batches_trained", "nas.checkpoint.bytes"] {
        assert!(view.counter(name) > 0, "workers reported no `{name}`");
        assert_eq!(report.counter(name), view.counter(name), "`{name}` in the run report");
    }

    // Each worker's snapshots reach the view in seq order: an honest
    // worker never has a frame counted stale.
    let workers = live.workers();
    for (id, w) in workers.iter().enumerate() {
        assert_eq!(w.stale_frames, 0, "worker {id} sent a snapshot out of seq order");
    }

    // `/status` names each worker's process, the joiner's included: the pid
    // an operator kills or looks up.
    let body = swt_obs::serve::http_get(&addr, "/status").expect("status fetch failed");
    let doc = Json::parse(&body).expect("status must be valid JSON");
    let rows = doc.get("workers").and_then(Json::as_array).expect("workers array");
    let pids: Vec<Option<u64>> = rows.iter().map(|w| w.get("pid").and_then(Json::as_u64)).collect();
    assert_eq!(pids.len(), 3, "two launch workers and the joiner");
    for (id, (pid, w)) in pids.iter().zip(&workers).enumerate() {
        assert!(w.pid > 0, "worker {id} has no pid");
        assert_eq!(*pid, Some(w.pid as u64), "worker {id}'s pid in /status");
    }

    // Every worker that produced results streamed the pool's span split.
    assert!(
        workers.iter().filter(|w| w.frames > 0).count() >= 2,
        "both initial workers must have streamed telemetry"
    );
    for (id, w) in workers.iter().enumerate().filter(|(_, w)| w.results > 0) {
        for path in ["nas.queue_wait", "nas.eval", "nas.result_send"] {
            assert!(w.report.span_total_secs(path) > 0.0, "worker {id} never reported span {path}");
        }
    }

    // The run-end Chrome trace (`dist-run --chrome-trace`) is loadable and
    // carries worker-attributed events (pid = worker + 1).
    let doc = Json::parse(&live.trace_json()).expect("trace must be valid JSON");
    let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!rows.is_empty(), "trace must carry events");
    assert!(
        rows.iter().any(|r| r.get("pid").and_then(Json::as_u64).is_some_and(|p| p >= 1)),
        "worker events must appear under their own pid"
    );

    // `/metrics` renders merged counter families plus run-level gauges.
    let metrics = swt_obs::serve::http_get(&addr, "/metrics").expect("metrics fetch failed");
    assert!(metrics.contains("swt_counter{"), "counter family missing:\n{metrics}");
    assert!(metrics.contains("swt_live_results_total"), "run-level gauges missing");

    drop(server);
    swt_obs::timeline::disable();
    swt_obs::disable();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn workers_record_events_only_for_a_run_that_writes_the_trace() {
    let _lock = global_lock();
    swt_obs::enable();
    let total = 12usize;
    let cfg = nas_config(total, 2);
    for on in [false, true] {
        // The coordinator's switch is the one `dist-run --chrome-trace`
        // flips; the workers follow it through `RunSpec.timeline`.
        if on {
            swt_obs::timeline::enable();
        } else {
            swt_obs::timeline::disable();
        }
        let store = temp_dir("live_timeline");
        let mut dist = dist_config(store.clone());
        let live = Arc::new(LiveRunView::new());
        dist.live = Some(Arc::clone(&live));
        let (trace, _) = run_nas_dist(&cfg, &dist).expect("distributed run failed");
        assert_eq!(trace.events.len(), total);
        let _ = std::fs::remove_dir_all(&store);
        if !on {
            // Every event a snapshot carries is buffered or counted lost.
            let status = Json::parse(&live.status_json()).expect("status must be valid JSON");
            let buffered = status.get("events_buffered").and_then(Json::as_u64);
            assert_eq!(buffered, Some(0), "a run without a trace buffered worker events");
            assert_eq!(live.events_dropped(), 0, "a run without a trace dropped worker events");
            continue;
        }
        let doc = Json::parse(&live.trace_json()).expect("trace must be valid JSON");
        let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        let worker_evals = rows
            .iter()
            .filter(|r| r.get("pid").and_then(Json::as_u64).is_some_and(|p| p >= 1))
            .filter(|r| r.get("name").and_then(Json::as_str) == Some("nas.eval"))
            .count();
        assert_eq!(worker_evals, total, "one worker `nas.eval` per candidate");
    }
    swt_obs::timeline::disable();
    swt_obs::disable();
}
