//! Integration: the observability layer against a real NAS run.
//!
//! One test function on purpose: swt-obs aggregates into a global registry,
//! and this file's `[[test]]` target gives it a process of its own, so no
//! other integration test can race the enable/reset/capture sequence.

use std::sync::Arc;
use swt::prelude::*;
use swt_obs::json::Json;

/// A quick NAS run with instrumentation enabled must produce a run report
/// whose per-worker span tree (queue wait / eval / result send, with train,
/// transfer and save beneath eval) accounts for the work the trace recorded,
/// and the report must survive a JSON round trip unchanged.
///
/// Every bound below holds by construction — a span encloses the stopwatch
/// the trace reads, a child span lies inside its parent, a thread's spans do
/// not overlap — so none needs a wall-clock tolerance (the run lasts ~0.2 s;
/// one descheduled thread is 10 % of it).
#[test]
fn run_report_accounts_for_worker_time() {
    swt::obs::enable();
    swt::obs::reset();

    // 24 candidates over a 16-member warm-up population: the last 8 are
    // evolution children, so LCS transfer is guaranteed to fire.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let cfg = NasConfig::quick(TransferScheme::Lcs, 24, 2, 7);
    let trace = run_nas(problem, space, store, &cfg);
    let report = RunReport::capture().with_meta("scheme", "LCS");
    swt::obs::disable();
    swt::obs::reset();

    // Every worker shows up with its own breakdown.
    assert_eq!(report.workers(), vec![0, 1]);
    let count = |w: usize, path: &str| -> u64 {
        report.spans.iter().filter(|s| s.worker == Some(w) && s.path == path).map(|s| s.count).sum()
    };

    // A worker thread's life is recv (nas.queue_wait), evaluation (nas.eval)
    // and the result handoff (nas.result_send), one after the other: every
    // evaluation is preceded by a recv and followed by a send, and a
    // worker's evaluations fit inside the run's wall clock (its last recv
    // does not: it ends when the backend shuts down, after the run).
    let mut evals = 0;
    for w in 0..2 {
        let n = count(w, "nas.eval");
        assert!(n > 0, "worker {w} evaluated nothing");
        assert_eq!(count(w, "nas.result_send"), n, "worker {w}: one send per evaluation");
        assert!(count(w, "nas.queue_wait") >= n, "worker {w}: every evaluation was received");
        for phase in ["nas.eval.train", "nas.eval.save"] {
            assert_eq!(count(w, phase), n, "worker {w}: {phase} runs once per evaluation");
        }
        evals += n;

        let secs = |path: &str| report.worker_span_secs(Some(w), path);
        assert!(
            secs("nas.eval") <= trace.wall_secs,
            "worker {w}: evaluated for {:.4}s of a {:.4}s run",
            secs("nas.eval"),
            trace.wall_secs
        );
        // Children lie inside their parents.
        let phases = secs("nas.eval.train") + secs("nas.eval.transfer") + secs("nas.eval.save");
        assert!(phases <= secs("nas.eval"), "worker {w}: eval phases exceed nas.eval");
        assert!(secs("nas.eval.train.epoch") <= secs("nas.eval.train"));
        assert!(
            secs("nas.eval.train.epoch.batch") + secs("nas.eval.train.epoch.val_eval")
                <= secs("nas.eval.train.epoch")
        );
    }
    assert_eq!(evals, 24, "every candidate was evaluated under a nas.eval span");

    // nas.eval encloses the stopwatches behind the trace's train, transfer
    // and save columns, and the trace's start/end stamps enclose nas.eval:
    // the report accounts for at least the work the trace says was done and
    // for no more than the time the candidates held a worker.
    let traced = |f: fn(&TraceEvent) -> f64| trace.events.iter().map(f).sum::<f64>();
    let eval = report.span_total_secs("nas.eval");
    assert!(eval >= traced(|e| e.train_secs + e.transfer_secs + e.save_secs));
    assert!(eval <= traced(|e| e.t_end - e.t_start));

    // The evaluation phases nest under nas.eval, and each did real work.
    for path in
        ["nas.eval.train", "nas.eval.train.epoch.batch", "nas.eval.transfer", "nas.eval.save"]
    {
        assert!(report.span_total_secs(path) > 0.0, "span {path} recorded no time");
    }
    // Train time dominates transfer and save on the hot path.
    assert!(report.span_total_secs("nas.eval.train") > report.span_total_secs("nas.eval.save"));

    // Counters line up with the trace.
    assert_eq!(report.counter("nas.candidates_evaluated"), 24);
    assert_eq!(report.counter("nas.candidates_dispatched"), 24);
    assert!(report.counter("nn.batches_trained") > 0);
    assert!(report.counter("nas.transfer.tensors") > 0, "LCS children must transfer");
    let traced_bytes: u64 = trace.events.iter().map(|e| e.checkpoint_bytes).sum();
    assert_eq!(report.counter("nas.checkpoint.bytes"), traced_bytes);

    // report.json holds the report's rows, each section whole and every
    // value exact (f64 Display is shortest-round-trip).
    let path = std::env::temp_dir().join(format!("swt_obs_it_{}.report.json", std::process::id()));
    report.write_json(&path).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let section = |k: &str| doc.get(k).and_then(Json::as_array).unwrap_or(&[]).to_vec();
    let lens = ["spans", "counters", "gauges", "histograms"].map(|k| section(k).len());
    let (r, h) = (&report, report.histograms.len());
    assert_eq!(lens, [r.spans.len(), r.counters.len(), r.gauges.len(), h], "rows per section");
    for (row, c) in section("counters").iter().zip(&report.counters) {
        assert_eq!(row.get("name").and_then(Json::as_str), Some(c.name.as_str()));
        assert_eq!(row.get("value").and_then(Json::as_u64), Some(c.value), "{}", c.name);
    }
    for (row, s) in section("spans").iter().zip(&report.spans) {
        assert_eq!(row.get("path").and_then(Json::as_str), Some(s.path.as_str()));
        assert_eq!(row.get("worker").and_then(Json::as_u64), s.worker.map(|w| w as u64));
        assert_eq!(row.get("count").and_then(Json::as_u64), Some(s.count), "{}", s.path);
        assert_eq!(row.get("total_secs").and_then(Json::as_f64), Some(s.total_secs), "{}", s.path);
    }
}
