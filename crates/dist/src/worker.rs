//! The worker process: one simulated GPU evaluating candidates.
//!
//! Lifecycle: connect → `Hello`/`HelloAck` (version check, receive the
//! [`RunSpec`]) → build the problem, search space and evaluator locally →
//! evaluate `Task` frames one at a time, answering `Ping`s concurrently
//! from a reader thread, until `Shutdown` or the socket dies.
//!
//! Failure model: the worker is deliberately fragile. An evaluation panic
//! (e.g. the shared store becomes unwritable mid-save) kills the process;
//! the coordinator sees the dead socket and reassigns the candidate —
//! recovery lives in exactly one place, coordinator-side. Protocol
//! violations are answered with an `Error` frame before exiting, so the
//! coordinator logs a cause instead of a bare EOF.

use crate::frame::{self, recv, Message, WireError, PROTOCOL_VERSION};
use crate::wire::{Msg, RunSpec, Telemetry};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use swt_checkpoint::{CheckpointStore, DirStore};
use swt_ckpt_server::RemoteStore;
use swt_nas::{provider_store, Candidate, Evaluator};
use swt_space::SearchSpace;

fn send(stream: &Mutex<TcpStream>, msg: &Msg) -> Result<(), WireError> {
    let mut guard = stream.lock().unwrap_or_else(|e| e.into_inner());
    frame::send(&mut *guard, msg)
}

/// Shared snapshot stream state: the per-snapshot sequence number and the
/// timeline-drain cursor. Both the main loop (each `Result`, teardown) and
/// the reader thread (after each `Pong`, i.e. at heartbeat cadence) send
/// snapshots, so the pair lives behind one mutex to keep seqs strictly
/// increasing and drains non-overlapping.
struct TelemetryState {
    seq: u64,
    cursor: u64,
    slot: usize,
}

/// Capture one snapshot and send it inside the frame `wrap` builds. The
/// state lock is held across the write, so snapshots reach the wire in seq
/// order and the coordinator never counts one from this worker as stale.
/// Lock order is state, then writer, at every site. Cheap enough for
/// heartbeat cadence: one registry walk plus a bounded ring drain.
fn send_snapshot(
    stream: &Mutex<TcpStream>,
    state: &Mutex<TelemetryState>,
    wrap: impl FnOnce(Telemetry) -> Msg,
) -> Result<(), WireError> {
    let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
    st.seq += 1;
    let (seq, slot) = (st.seq, st.slot);
    let telemetry = Telemetry::capture(seq, slot, &mut st.cursor);
    send(stream, &wrap(telemetry))
}

/// Run the worker protocol loop on an established connection. Returns when
/// the coordinator sends `Shutdown` or the connection fails.
pub fn run_worker(stream: TcpStream, worker_id: u64) -> Result<(), WireError> {
    // Metrics are recorded process-locally and shipped to the coordinator as
    // cumulative snapshots (one in each `Result`, others at heartbeat
    // cadence and at teardown); without this the worker's
    // GEMM/checkpoint/cache counters stay zero and the merged run report
    // under-counts. The timeline rings are bounded (staleness, not growth,
    // on overflow), so they stay on unconditionally too: snapshots then
    // need no extra negotiation.
    swt_obs::enable();
    swt_obs::timeline::enable();
    swt_obs::span::set_worker(worker_id as usize);
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));

    send(&writer, &Msg::Hello { version: PROTOCOL_VERSION, worker_id, pid: std::process::id() })?;
    let mut buf = Vec::new();
    let run = {
        let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
        match recv(&mut *guard, &mut buf)? {
            Msg::HelloAck { version, run } => {
                if version != PROTOCOL_VERSION {
                    let err =
                        WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version };
                    drop(guard);
                    let _ = send(&writer, &Msg::Error { message: err.to_string() });
                    return Err(err);
                }
                run
            }
            Msg::Error { message } => return Err(WireError::Protocol(message)),
            other => {
                let err = WireError::Protocol(format!(
                    "expected HelloAck, got frame {:#04x}",
                    other.tag()
                ));
                drop(guard);
                let _ = send(&writer, &Msg::Error { message: err.to_string() });
                return Err(err);
            }
        }
    };
    swt_obs::info!(
        "swt_dist",
        "worker {worker_id} handshake ok: app={} scale={:?} threads={}",
        run.app.name(),
        run.scale,
        run.threads
    );

    // Pin this process's intra-op thread budget: each worker models one GPU
    // and must not fan out to the whole machine (same policy as the
    // in-process pool, but per process instead of per run).
    let _budget = swt_tensor::parallel::scoped_max_threads(run.threads.max(1) as usize);
    let mut evaluator = build_evaluator(&run)?;

    // The reader thread owns the receive half: it answers Pings immediately
    // (heartbeats must flow while the main thread is deep in a long
    // evaluation) and forwards Tasks over a channel. Dropping the sender —
    // on Shutdown, a protocol violation, or a dead socket — ends the main
    // loop below.
    let (task_tx, task_rx) = mpsc::channel::<Candidate>();
    // One snapshot stream per worker, shared by both sending sites: the
    // heartbeat responder below (steady cadence even mid-evaluation) and
    // the main loop (a fresh snapshot inside each `Result`).
    let telemetry = Arc::new(Mutex::new(TelemetryState {
        seq: 0,
        cursor: 0,
        slot: swt_obs::registry::SpanStat::slot_for(Some(worker_id as usize)),
    }));
    let ping_writer = Arc::clone(&writer);
    let ping_telemetry = Arc::clone(&telemetry);
    let reader = std::thread::spawn(move || -> Result<(), WireError> {
        let mut reader_stream = reader_stream;
        let mut buf = Vec::new();
        loop {
            match recv(&mut reader_stream, &mut buf) {
                Ok(Msg::Ping { nonce }) => {
                    send(&ping_writer, &Msg::Pong { nonce })?;
                    send_snapshot(&ping_writer, &ping_telemetry, |telemetry| Msg::Telemetry {
                        telemetry,
                    })?;
                }
                Ok(Msg::Task { cand }) => {
                    if task_tx.send(cand).is_err() {
                        return Ok(()); // main loop gone; nothing left to do
                    }
                }
                Ok(Msg::Shutdown) => return Ok(()),
                Ok(Msg::Error { message }) => return Err(WireError::Protocol(message)),
                Ok(other) => {
                    let err = format!("unexpected frame {:#04x} at worker", other.tag());
                    let _ = send(&ping_writer, &Msg::Error { message: err.clone() });
                    return Err(WireError::Protocol(err));
                }
                // A dead socket is the read failing, not a frame to answer.
                Err(err @ WireError::Io(_)) => return Err(err),
                Err(err) => {
                    let _ = send(&ping_writer, &Msg::Error { message: err.to_string() });
                    return Err(err);
                }
            }
        }
    });

    // Main loop: evaluate until the reader closes the channel. A panic in
    // `evaluate` (store write failure, poisoned state) intentionally kills
    // the process — the coordinator reassigns.
    let mut eval_err = None;
    loop {
        // Mirror the in-process pool's span names so a live view shows the
        // same queue_wait / eval / result_send split either way.
        let cand = {
            let _wait_span = swt_obs::span!("nas.queue_wait");
            match task_rx.recv() {
                Ok(cand) => cand,
                Err(_) => break,
            }
        };
        let outcome = evaluator.evaluate(&cand);
        let sent = {
            let _send_span = swt_obs::span!("nas.result_send");
            send_snapshot(&writer, &telemetry, |telemetry| Msg::Result { outcome, telemetry })
        };
        if let Err(e) = sent {
            eval_err = Some(e);
            break;
        }
    }
    // Clean teardown: one last snapshot, so the coordinator's copy covers
    // everything this worker did, then close. Best-effort — if this frame
    // is lost the coordinator keeps the last snapshot it applied, so a dead
    // socket here must not turn a clean shutdown into an error.
    if eval_err.is_none() {
        let _ = send_snapshot(&writer, &telemetry, |telemetry| Msg::Telemetry { telemetry });
    }
    // Unblock the reader if we exited first (send failure): closing the
    // socket fails its blocking read.
    {
        let guard = writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = guard.shutdown(std::net::Shutdown::Both);
    }
    let reader_result = match reader.join() {
        Ok(res) => res,
        Err(_) => Err(WireError::Protocol("worker reader thread panicked".into())),
    };
    match (eval_err, reader_result) {
        (Some(e), _) => Err(e),
        (None, Err(e)) => match e {
            // A dead socket after we stopped sending is the normal
            // coordinator-initiated teardown, not a failure.
            WireError::Io(_) => Ok(()),
            other => Err(other),
        },
        (None, Ok(())) => Ok(()),
    }
}

fn build_evaluator(run: &RunSpec) -> Result<Evaluator, WireError> {
    let problem = Arc::new(run.app.problem(run.scale, run.data_seed));
    let space = Arc::new(SearchSpace::for_app(run.app));
    // The backend is the shared `DirStore` by default, or — when the
    // coordinator sent a `store_url` — a `RemoteStore` session with the
    // checkpoint server, bucketed by the run's namespace.
    let backend: Arc<dyn CheckpointStore> = match &run.store_url {
        None => Arc::new(DirStore::new(&run.store_dir)?),
        Some(store_url) => {
            let secret = std::env::var("SWT_CKPT_SECRET").unwrap_or_default();
            // Bucket names must be valid tokens; an un-namespaced run shares
            // the server's "default" bucket (ids are still unique per run).
            let bucket = if run.namespace.is_empty() { "default" } else { run.namespace.as_str() };
            Arc::new(RemoteStore::connect(store_url, bucket, &secret))
        }
    };
    // Each worker fronts it with its own provider cache, capped at its slice
    // of the run's budget: a checkpoint this worker trained is resident from
    // its save, so only a parent trained elsewhere costs a store round-trip
    // (one, not one for the index and one for the tensors), and the lineage
    // watermark on each candidate empties it.
    let store = provider_store(backend, run.cache_bytes, run.scheme);
    Ok(Evaluator::with_namespace(
        problem,
        space,
        store,
        run.scheme,
        run.epochs as usize,
        run.run_seed,
        run.namespace.clone(),
    ))
}

/// Entry point for the `swt dist-worker` bin mode: connect and run.
pub fn worker_main(connect: &str, worker_id: u64) -> Result<(), WireError> {
    let stream = TcpStream::connect(connect)?;
    run_worker(stream, worker_id)
}
