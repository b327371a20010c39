//! The worker process: one simulated GPU evaluating candidates.
//!
//! Lifecycle: connect → `Hello`/`HelloAck` (version check, receive the
//! slot the coordinator named and the [`RunSpec`]) → build the problem,
//! search space and evaluator locally → evaluate `Task` frames one at a
//! time, answering `Ping`s concurrently from a reader thread, until
//! `Shutdown` or the socket dies.
//!
//! Failure model: the worker is deliberately fragile. A failed evaluation
//! (the shared store refuses a save, the space refuses the candidate's
//! architecture) ends it, and so does a protocol violation; each is
//! answered with an `Error` frame before exiting, so the coordinator logs a
//! cause instead of a bare EOF. A crash is a dead socket, and the
//! coordinator reassigns the candidate: recovery lives in exactly one
//! place, coordinator-side.

use crate::frame::{self, recv, Message, WireError, PROTOCOL_VERSION};
use crate::wire::{Msg, RunSpec, Telemetry};
use std::io;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use swt_checkpoint::{CachedStore, CheckpointStore, DirStore};
use swt_ckpt_server::RemoteStore;
use swt_nas::{Candidate, Evaluator};
use swt_space::SearchSpace;

fn send(stream: &Mutex<TcpStream>, msg: &Msg) -> Result<(), WireError> {
    let mut guard = stream.lock().unwrap_or_else(|e| e.into_inner());
    frame::send(&mut *guard, msg)
}

/// Capture one snapshot and send it inside the frame `wrap` builds. `seq`
/// is the last snapshot's number: both the main loop (each `Result`,
/// teardown) and the reader thread (after each `Pong`, i.e. at heartbeat
/// cadence) send snapshots, and its lock is held across the capture and the
/// write, so seqs strictly increase on the wire, each timeline event goes
/// out once, and the coordinator never counts a snapshot from this worker
/// as stale. Lock order is seq, then writer, at every site. Cheap enough
/// for heartbeat cadence: one registry walk plus a bounded ring take.
fn send_snapshot(
    stream: &Mutex<TcpStream>,
    seq: &Mutex<u64>,
    wrap: impl FnOnce(Telemetry) -> Msg,
) -> Result<(), WireError> {
    let mut seq = seq.lock().unwrap_or_else(|e| e.into_inner());
    *seq += 1;
    send(stream, &wrap(Telemetry::capture(*seq)))
}

/// Run the worker protocol loop on an established connection. Returns when
/// the coordinator sends `Shutdown` or the connection fails.
pub fn run_worker(stream: TcpStream) -> Result<(), WireError> {
    // Metrics are recorded process-locally and shipped to the coordinator as
    // cumulative snapshots (one in each `Result`, others at heartbeat
    // cadence and at teardown); without this the worker's
    // GEMM/checkpoint/cache counters stay zero and the merged run report
    // under-counts. The timeline waits for the `RunSpec`, but its epoch is
    // pinned here: a snapshot's `uptime_ns` counts from worker start.
    swt_obs::enable();
    swt_obs::timeline::now_ns();
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));

    send(&writer, &Msg::Hello { version: PROTOCOL_VERSION, pid: std::process::id() })?;
    // The handshake reply is read on the reader's clone before the reader
    // thread owns it; a refusal is answered with an `Error` frame.
    let (slot, run) = match recv(&mut &reader_stream, &mut Vec::new())? {
        Msg::HelloAck { version, slot, run } if version == PROTOCOL_VERSION => (slot as usize, run),
        Msg::Error { message } => return Err(WireError::Protocol(message)),
        other => {
            let err = if let Msg::HelloAck { version, .. } = other {
                WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version }
            } else {
                WireError::Protocol(format!("expected HelloAck, got frame {:#04x}", other.tag()))
            };
            let _ = send(&writer, &Msg::Error { message: err.to_string() });
            return Err(err);
        }
    };
    swt_obs::span::set_worker(slot);
    // Events only when the run will write them into its Chrome trace.
    if run.timeline {
        swt_obs::timeline::enable();
    }
    swt_obs::info!(
        "swt_dist",
        "worker {slot} handshake ok: app={} scale={:?} threads={}",
        run.app.name(),
        run.scale,
        run.threads
    );

    // Pin the intra-op thread budget of this thread, which evaluates: each
    // worker models one GPU and must not fan out to the whole machine (the
    // in-process pool's evaluator threads pin theirs the same way).
    let _budget = swt_tensor::parallel::scoped_max_threads(run.threads.get() as usize);
    // A store that cannot be opened ends the run: say why before closing.
    let mut evaluator = build_evaluator(&run).inspect_err(|err| {
        let _ = send(&writer, &Msg::Error { message: err.to_string() });
    })?;

    // The reader thread owns the receive half: it answers Pings immediately
    // (heartbeats must flow while the main thread is deep in a long
    // evaluation) and forwards Tasks over a channel. Dropping the sender —
    // on Shutdown, a protocol violation, or a dead socket — ends the main
    // loop below.
    let (task_tx, task_rx) = mpsc::channel::<Candidate>();
    // One snapshot seq per worker, shared by both sending sites: the
    // heartbeat responder below (steady cadence even mid-evaluation) and
    // the main loop (a fresh snapshot inside each `Result`).
    let seq = Arc::new(Mutex::new(0u64));
    let ping_writer = Arc::clone(&writer);
    let ping_seq = Arc::clone(&seq);
    let reader = std::thread::spawn(move || -> Result<(), WireError> {
        let mut reader_stream = reader_stream;
        let mut buf = Vec::new();
        loop {
            match recv(&mut reader_stream, &mut buf) {
                Ok(Msg::Ping { nonce }) => {
                    send(&ping_writer, &Msg::Pong { nonce })?;
                    send_snapshot(&ping_writer, &ping_seq, |telemetry| Msg::Telemetry {
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

    // Main loop: evaluate until the reader closes the channel, or until an
    // evaluation fails, which ends the worker after saying why.
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
        let outcome = match evaluator.evaluate(&cand) {
            Ok(outcome) => outcome,
            Err(err) => {
                let _ = send(&writer, &Msg::Error { message: err.to_string() });
                eval_err = Some(WireError::Io(err));
                break;
            }
        };
        let sent = {
            let _send_span = swt_obs::span!("nas.result_send");
            send_snapshot(&writer, &seq, |telemetry| Msg::Result { outcome, telemetry })
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
        let _ = send_snapshot(&writer, &seq, |telemetry| Msg::Telemetry { telemetry });
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

fn build_evaluator(run: &RunSpec) -> io::Result<Evaluator> {
    let problem = Arc::new(run.app.problem(run.scale, run.data_seed));
    let space = Arc::new(SearchSpace::for_app(run.app));
    // The shared `DirStore`, read directly: on local disk the OS page cache
    // is the provider cache. Or a `RemoteStore` session with the checkpoint
    // server, bucketed by the run's namespace, and the one store behind a
    // wire: fronted by this worker's own provider cache, capped at its slice
    // of the run's budget, so a checkpoint this worker trained is resident
    // from its save and only a parent trained elsewhere costs a fetch. The
    // lineage watermark on each candidate empties it.
    let store: Arc<dyn CheckpointStore> = match run.store.strip_prefix("tcp://") {
        None => Arc::new(DirStore::new(&run.store).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot open checkpoint store `{}`: {e}", run.store))
        })?),
        Some(addr) => {
            let secret = std::env::var("SWT_CKPT_SECRET").unwrap_or_default();
            // Bucket names must be valid tokens; an un-namespaced run shares
            // the server's "default" bucket (ids are still unique per run).
            let ns = run.eval.namespace.as_str();
            let bucket = if ns.is_empty() { "default" } else { ns };
            let remote = RemoteStore::connect(addr, bucket, &secret);
            // Without a transfer scheme nothing is read back.
            if run.cache_bytes > 0 && run.eval.scheme.matcher().is_some() {
                Arc::new(CachedStore::new(remote, run.cache_bytes))
            } else {
                Arc::new(remote)
            }
        }
    };
    Ok(Evaluator::new(problem, space, store, &run.eval))
}

/// Entry point for the `swt dist-worker` bin mode: connect and run.
pub fn worker_main(connect: &str) -> Result<(), WireError> {
    run_worker(TcpStream::connect(connect)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroU32;
    use swt_core::TransferScheme;
    use swt_data::{AppKind, DataScale};
    use swt_nas::EvalSpec;
    use swt_space::ArchSeq;
    use swt_tensor::Rng;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// A quick Uno LCS run over a `DirStore` in a fresh `dir`.
    fn run_spec(name: &str) -> (RunSpec, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("swt_worker_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = RunSpec {
            app: AppKind::Uno,
            scale: DataScale::Quick,
            data_seed: 11,
            eval: EvalSpec {
                scheme: TransferScheme::Lcs,
                epochs: NonZeroU32::MIN,
                run_seed: 9,
                namespace: "w_".into(),
            },
            threads: NonZeroU32::MIN,
            cache_bytes: 1 << 22,
            store: dir.to_string_lossy().into_owned(),
            timeline: false,
        };
        (run, dir)
    }

    /// Plays the coordinator for one worker: the handshake with `run`, a
    /// `Ping` (the worker answers once its evaluator is built), then
    /// `before_task` and one `Task`. Returns the first frame after the
    /// task that is not a snapshot, once the worker has exited.
    fn answer_to(
        run: RunSpec,
        cand: Candidate,
        before_task: impl FnOnce(),
    ) -> Result<Msg, WireError> {
        // The worker's snapshots take from this process's timeline ring.
        let _lock = crate::timeline_lock();
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let worker = std::thread::spawn(move || worker_main(&addr));
        let (mut conn, _) = listener.accept()?;
        conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        let mut buf = Vec::new();
        let mut next = |conn: &mut TcpStream| loop {
            match recv(conn, &mut buf)? {
                Msg::Telemetry { .. } => continue,
                other => return Ok::<Msg, WireError>(other),
            }
        };
        next(&mut conn)?; // Hello
        frame::send(&mut conn, &Msg::HelloAck { version: PROTOCOL_VERSION, slot: 0, run })?;
        frame::send(&mut conn, &Msg::Ping { nonce: 7 })?;
        next(&mut conn)?; // Pong
        before_task();
        frame::send(&mut conn, &Msg::Task { cand })?;
        let reply = next(&mut conn)?;
        let ended = worker.join().map_err(|_| WireError::Protocol("worker panicked".into()))?;
        assert!(ended.is_err(), "a worker that cannot evaluate exits with an error");
        Ok(reply)
    }

    /// A save the store refuses reaches the coordinator as an `Error` frame
    /// naming the candidate, not as a dead socket.
    #[test]
    fn a_failed_save_is_answered_with_an_error_frame() -> TestResult {
        let (run, dir) = run_spec("save");
        let space = SearchSpace::for_app(run.app);
        let cand = Candidate::new(0, space.sample(&mut Rng::seed(5)), None);
        // The store's directory goes after it was opened: the save fails.
        let reply = answer_to(run, cand, || drop(std::fs::remove_dir_all(&dir)))?;
        let Msg::Error { message } = reply else { return Err(format!("{reply:?}").into()) };
        assert!(message.contains("candidate c0: checkpoint save of w_c0"), "{message}");
        Ok(())
    }

    /// An architecture the space refuses (a choice out of range) is
    /// answered with an `Error` frame, not EOF.
    #[test]
    fn an_out_of_range_choice_is_answered_with_an_error_frame() -> TestResult {
        let (run, dir) = run_spec("choice");
        let arch = ArchSeq::new(vec![200; SearchSpace::for_app(run.app).num_nodes()]);
        let reply = answer_to(run, Candidate::new(3, arch, None), || {})?;
        let Msg::Error { message } = reply else { return Err(format!("{reply:?}").into()) };
        assert!(message.contains("candidate c3") && message.contains("out of range"), "{message}");
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }

    /// A `RunSpec` carries everything an evaluator is built from: the
    /// worker's build path and `Evaluator::new` over the same spec and store
    /// give a parent and its child the same outcomes, bit for bit.
    #[test]
    fn the_worker_builds_the_evaluator_run_nas_builds() -> TestResult {
        let (run, dir) = run_spec("build");
        let space = Arc::new(SearchSpace::for_app(run.app));
        let mut rng = Rng::seed(5);
        let parent = Candidate::new(0, space.sample(&mut rng), None);
        let child = Candidate::new(1, space.mutate(&parent.arch, &mut rng), Some(0));
        let pair = |mut evaluator: Evaluator| -> io::Result<Vec<_>> {
            [&parent, &child].iter().map(|c| evaluator.evaluate(c)).collect()
        };

        let worker = pair(build_evaluator(&run)?)?;
        let problem = Arc::new(run.app.problem(run.scale, run.data_seed));
        let direct =
            pair(Evaluator::new(problem, space, Arc::new(DirStore::new(&dir)?), &run.eval))?;

        assert!(worker[1].transfer.tensors > 0, "the child reads its parent back");
        for (w, d) in worker.iter().zip(&direct) {
            assert_eq!(w.score.to_bits(), d.score.to_bits(), "score of c{}", w.id);
            assert_eq!(
                (w.checkpoint_bytes, &w.transfer, w.epochs),
                (d.checkpoint_bytes, &d.transfer, d.epochs)
            );
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}
