//! The coordinator: spawns workers, speaks the wire protocol, and exposes
//! the pool to the NAS runner as an [`EvalBackend`].
//!
//! Failure model (DESIGN.md §10): a worker is *lost* when its socket dies
//! (process crash → immediate EOF) or an outstanding heartbeat goes
//! unanswered past the timeout (hang/partition). A lost worker's in-flight
//! candidate goes back to the front of the pending queue and is re-evaluated
//! elsewhere — candidate seeds derive from `(run_seed, id)` and parent
//! checkpoints are immutable once written, so the re-run reproduces the
//! original result exactly and the run stays bit-identical to a failure-free
//! one. The pool degrades gracefully down to a single surviving worker;
//! only losing *all* workers aborts the run.
//!
//! Elasticity (DESIGN.md §10): the listener stays open for the whole run,
//! so a `Hello` arriving mid-run is a *join* — the newcomer is handshaken,
//! given a fresh slot, and starts draining the pending queue (or refused
//! with an `Error` frame when the pool already holds `max_workers` live
//! processes). The dispatch window is sized by `nas.workers` alone and
//! never moves: joining changes *which process* evaluates a candidate,
//! never *which candidate* is scheduled, so elastic runs stay bit-identical
//! to fixed-pool runs.
//!
//! Metrics: a worker's one snapshot type is the seq-numbered
//! [`Telemetry`](crate::wire::Telemetry). One rides in every `Result`,
//! taken after the evaluation, so a delivered candidate's work is counted
//! with its result; standalone `Telemetry` frames follow each `Pong` and
//! close the worker's teardown. All of them go through
//! [`LiveRunView::apply_telemetry`], where the latest seq wins, so the
//! coordinator keeps one copy per worker. [`DistBackend::finish`] folds the
//! view's worker totals into the process-global registry, making one
//! `RunReport::capture()` cover the whole multi-process run. Those totals
//! are each worker's last applied snapshot: a heartbeat snapshot taken
//! mid-candidate counts the partial work of a worker that is then lost.

use crate::frame::{recv, send, Message, WireError, PROTOCOL_VERSION};
use crate::live::LiveRunView;
use crate::policy::{ScaleDecision, ScalePolicy};
use crate::spawn::{find_worker_exe, spawn_worker};
use crate::wire::{Code, Msg, RunSpec, Task};
use crate::{DistConfig, DistRunStats, JoinPlan, KillPlan};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swt_nas::runner::NasConfig;
use swt_nas::{BackendResult, Candidate, EvalBackend};

/// What a reader thread hands the main loop. The frame is boxed: a `Result`
/// carries a whole snapshot, every other frame a few words.
enum Event {
    Msg { worker: usize, msg: Box<Msg> },
    Gone { worker: usize, reason: String },
}

struct WorkerSlot {
    /// The child process — `None` for workers we did not spawn ourselves
    /// (a join connecting from outside the coordinator's own injection).
    child: Option<Child>,
    /// Write half; `None` once the worker is lost.
    writer: Option<TcpStream>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Candidate currently evaluating on this worker.
    current: Option<u64>,
    alive: bool,
    /// Sent a `Retire` frame and draining: no new tasks, no pings; its EOF
    /// is an orderly close, not a loss.
    retiring: bool,
    /// Ping in flight: `(nonce, send time)`. A worker with an outstanding
    /// ping older than the timeout is declared lost — liveness is judged on
    /// unanswered pings, never on mere quietness (an idle worker between
    /// tasks is silent but healthy).
    outstanding_ping: Option<(u64, Instant)>,
    rtt: Arc<swt_obs::metrics::Histogram>,
}

/// Multi-process evaluation backend: the coordinator side of `swt-dist`.
pub struct DistBackend {
    /// Kept open (non-blocking) for the whole run: mid-run `Hello`s are
    /// joins.
    listener: TcpListener,
    addr: String,
    exe: PathBuf,
    run: RunSpec,
    /// The deterministic dispatch window (`nas.workers`). Constant for the
    /// backend's lifetime regardless of how the pool grows or shrinks.
    window: usize,
    max_workers: usize,
    slots: Vec<WorkerSlot>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    /// Submitted candidates not yet assigned to a worker (grows past 1 only
    /// while the pool is short of the dispatch window).
    pending: VecDeque<Candidate>,
    /// Assigned-or-pending candidates by id, with their submit timestamp.
    inflight: HashMap<u64, (Candidate, f64)>,
    start: Instant,
    interval: Duration,
    timeout: Duration,
    connect_timeout: Duration,
    next_nonce: u64,
    results_delivered: usize,
    kill_plan: Option<KillPlan>,
    join_plan: Option<JoinPlan>,
    /// Children spawned by join injection that have not completed their
    /// handshake yet.
    joining: Vec<Child>,
    joined: usize,
    rejected: usize,
    lost: usize,
    reassigned: usize,
    /// The autoscaling policy (`None` = fixed pool). Ticked from `submit`
    /// and `heartbeat_tick`; it only ever changes *which processes* are in
    /// the pool, never which candidate the window schedules next.
    policy: Option<ScalePolicy>,
    /// Workers spawned by autoscale grow decisions.
    grown: usize,
    /// Workers retired by autoscale shrink decisions.
    retired: usize,
    /// Set by [`DistBackend::finish`]; makes `Drop` a no-op.
    finished: bool,
    /// In-flight run view: every worker snapshot folds into it, and
    /// `finish` reads the run's worker totals from it. Nothing here feeds
    /// back into scheduling.
    live: Arc<LiveRunView>,
}

impl DistBackend {
    /// Bind a localhost listener, spawn the initial worker processes
    /// (`dist.initial_workers`, default `nas.workers`), and complete the
    /// handshake with each.
    pub fn launch(nas: &NasConfig, dist: &DistConfig) -> io::Result<DistBackend> {
        let window = nas.workers;
        assert!(window > 0, "need a non-empty dispatch window");
        let n = dist.initial_workers.unwrap_or(window).max(1);
        assert!(n <= dist.max_workers, "initial workers exceed max_workers");
        // Validate the autoscale policy up front: a bad config must fail the
        // launch, not the first decision tick mid-run.
        let policy = match &dist.autoscale {
            Some(cfg) => {
                if cfg.max_workers > dist.max_workers {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "autoscale max_workers {} exceeds pool max_workers {}",
                            cfg.max_workers, dist.max_workers
                        ),
                    ));
                }
                let policy = ScalePolicy::new(cfg.clone()).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidInput, format!("autoscale config: {e}"))
                })?;
                Some(policy)
            }
            None => None,
        };
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?.to_string();
        let exe = find_worker_exe(dist.worker_exe.as_ref())?;
        swt_obs::info!("swt_dist", "coordinator on {addr}, spawning {n} × {}", exe.display());

        // Worker resources are budgeted by the window, not the live pool:
        // thread pinning and cache slices must not depend on how many
        // processes happen to be up, or elastic runs would diverge.
        let hardware = std::thread::available_parallelism().map_or(1, |v| v.get());
        let run = RunSpec {
            app: Code(dist.app),
            scale: Code(dist.scale),
            data_seed: dist.data_seed,
            scheme: Code(nas.scheme),
            epochs: nas.epochs as u32,
            run_seed: nas.seed,
            namespace: nas.namespace.clone(),
            store_dir: dist.store_dir.to_string_lossy().into_owned(),
            threads: (hardware / window).max(1) as u32,
            cache_bytes: nas.cache_bytes / window as u64,
            store_url: dist.store_url.clone().filter(|url| !url.is_empty()),
            autoscale: dist
                .autoscale
                .as_ref()
                .map(|c| (c.min_workers as u32, c.max_workers as u32)),
        };
        // A spec no worker would accept must fail the launch, not every
        // handshake in turn.
        run.check()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("run spec: {e}")))?;

        let mut children = Unslotted(Vec::with_capacity(n));
        let streams = spawn_and_admit(
            &listener,
            &exe,
            &addr,
            &run,
            n,
            dist.connect_timeout,
            &mut children.0,
        )?;

        let live = dist.live.clone().unwrap_or_else(|| Arc::new(LiveRunView::new()));
        live.set_meta("app", dist.app.name());
        live.set_meta("scale", format!("{:?}", dist.scale));
        live.set_meta("addr", &addr);
        live.set_window(window);

        let (tx, rx) = mpsc::channel();
        let mut backend = DistBackend {
            listener,
            addr,
            exe,
            run,
            window,
            max_workers: dist.max_workers,
            slots: Vec::with_capacity(n),
            tx,
            rx,
            pending: VecDeque::new(),
            inflight: HashMap::new(),
            start: Instant::now(),
            interval: dist.heartbeat_interval,
            timeout: dist.heartbeat_timeout,
            connect_timeout: dist.connect_timeout,
            next_nonce: 0,
            results_delivered: 0,
            kill_plan: dist.kill_worker_after.clone(),
            join_plan: dist.join_after.clone(),
            joining: Vec::new(),
            joined: 0,
            rejected: 0,
            lost: 0,
            reassigned: 0,
            policy,
            grown: 0,
            retired: 0,
            finished: false,
            live,
        };
        for stream in streams {
            let child = children.0.remove(0);
            backend.add_slot(Some(child), stream)?;
        }
        Ok(backend)
    }

    /// Park a handshaken connection in a fresh slot and start its reader
    /// thread. Returns the slot index; on failure the child is reaped.
    fn add_slot(&mut self, child: Option<Child>, stream: TcpStream) -> io::Result<usize> {
        let worker = self.slots.len();
        let reader_stream = match stream.try_clone() {
            Ok(clone) => clone,
            Err(e) => {
                reap_all(child);
                return Err(e);
            }
        };
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || reader_loop(worker, reader_stream, tx));
        self.slots.push(WorkerSlot {
            child,
            writer: Some(stream),
            reader: Some(reader),
            current: None,
            alive: true,
            retiring: false,
            outstanding_ping: None,
            rtt: swt_obs::registry::global().histogram(&format!("dist.rtt_ns.w{worker}")),
        });
        self.live.worker_added(worker);
        Ok(worker)
    }

    /// Push the current dispatch picture into the live view: candidates
    /// still queued vs. handed to a worker.
    fn sync_live_queue(&self) {
        let queued = self.pending.len();
        self.live.set_queue(queued, self.inflight.len().saturating_sub(queued));
    }

    fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    fn send_to(&mut self, worker: usize, msg: &Msg) -> Result<(), WireError> {
        let stream = self.slots[worker]
            .writer
            .as_mut()
            .ok_or_else(|| WireError::Protocol(format!("worker {worker} already lost")))?;
        send(stream, msg)
    }

    /// Declare `worker` lost: reclaim its candidate for reassignment, close
    /// its socket and reap the process. Errors only when no worker is left.
    fn mark_lost(&mut self, worker: usize, reason: &str) -> io::Result<()> {
        if !self.slots[worker].alive {
            return Ok(());
        }
        swt_obs::warn!("swt_dist", "worker {worker} lost: {reason}");
        swt_obs::counter!("dist.workers_lost").inc();
        self.lost += 1;
        let slot = &mut self.slots[worker];
        slot.alive = false;
        slot.outstanding_ping = None;
        if let Some(stream) = slot.writer.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(id) = slot.current.take() {
            if let Some((cand, _)) = self.inflight.get(&id) {
                swt_obs::counter!("dist.reassigned").inc();
                self.reassigned += 1;
                swt_obs::info!("swt_dist", "reassigning candidate {id} from dead worker {worker}");
                self.pending.push_front(cand.clone());
            }
        }
        self.live.worker_lost(worker);
        self.sync_live_queue();
        if self.slots.iter().any(|s| s.alive) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("all {} workers lost (last: worker {worker}: {reason})", self.slots.len()),
            ))
        }
    }

    /// Close a slot during orderly teardown: same cleanup as a loss, but it
    /// is not one — no loss counter, no reassignment.
    fn close_slot(&mut self, worker: usize) {
        let slot = &mut self.slots[worker];
        slot.alive = false;
        slot.outstanding_ping = None;
        if let Some(stream) = slot.writer.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.live.worker_lost(worker);
    }

    /// The run view telemetry folds into (the one from
    /// [`DistConfig::live`] when set, otherwise backend-private).
    pub fn live(&self) -> Arc<LiveRunView> {
        Arc::clone(&self.live)
    }

    /// Hand pending candidates to idle live workers.
    fn flush(&mut self) -> io::Result<()> {
        loop {
            if self.pending.is_empty() {
                return Ok(());
            }
            let Some(worker) = self
                .slots
                .iter()
                .position(|s| s.alive && !s.retiring && s.current.is_none() && s.writer.is_some())
            else {
                return Ok(()); // every live worker busy; keep queueing
            };
            let Some(cand) = self.pending.pop_front() else {
                return Ok(());
            };
            let id = cand.id;
            match self.send_to(worker, &Msg::Task { task: Task::new(&cand) }) {
                Ok(()) => {
                    self.slots[worker].current = Some(id);
                    self.live.set_current(worker, Some(id));
                    self.sync_live_queue();
                }
                Err(e) => {
                    self.pending.push_front(cand);
                    self.mark_lost(worker, &format!("task write failed: {e}"))?;
                }
            }
        }
    }

    /// One heartbeat round: time out workers with stale outstanding pings,
    /// ping everyone else, and pick up any join attempts waiting on the
    /// listener.
    fn heartbeat_tick(&mut self) -> io::Result<()> {
        self.poll_joins()?;
        for worker in 0..self.slots.len() {
            // A retiring worker is draining toward EOF: its reader thread is
            // gone, so a ping would never be answered and the timeout would
            // misread the orderly close as a loss.
            if !self.slots[worker].alive || self.slots[worker].retiring {
                continue;
            }
            if let Some((_, sent)) = self.slots[worker].outstanding_ping {
                if sent.elapsed() > self.timeout {
                    self.mark_lost(worker, "heartbeat timeout")?;
                }
                continue;
            }
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            match self.send_to(worker, &Msg::Ping { nonce }) {
                Ok(()) => self.slots[worker].outstanding_ping = Some((nonce, Instant::now())),
                Err(e) => self.mark_lost(worker, &format!("ping write failed: {e}"))?,
            }
        }
        self.flush()?;
        // Quiet-period policy tick: during a drain no `submit` arrives, so
        // the shrink side of the policy only ever fires from here.
        self.maybe_autoscale()
    }

    /// Accept every connection waiting on the (non-blocking) listener and
    /// run the join protocol on each.
    fn poll_joins(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.handle_join(stream)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// One mid-run connection through [`admit`]: a newcomer gets a fresh slot
    /// unless the pool already holds `max_workers` live processes. A refused
    /// join never aborts the run — the connection is dropped and the run
    /// continues on the existing pool.
    fn handle_join(&mut self, stream: TcpStream) -> io::Result<()> {
        let (live, max) = (self.live_workers(), self.max_workers);
        let admission = admit(stream, &self.run, |_| {
            if live < max {
                Ok(())
            } else {
                Err(format!("join rejected: pool already at max_workers={max}"))
            }
        });
        match admission {
            Admission::Refused { pid, no_room } => {
                if no_room {
                    swt_obs::counter!("dist.joins_rejected").inc();
                    self.rejected += 1;
                }
                reap_all(pid.and_then(|pid| self.take_joining(pid)));
                Ok(())
            }
            Admission::Admitted { stream, worker_id, pid } => {
                let child = self.take_joining(pid);
                let slot = self.add_slot(child, stream)?;
                swt_obs::counter!("dist.workers_joined").inc();
                self.joined += 1;
                swt_obs::info!(
                    "swt_dist",
                    "worker joined mid-run as slot {slot} (hello id {worker_id}, pid {pid}); \
                     pool now {} live / window {}",
                    self.live_workers(),
                    self.window
                );
                self.flush()
            }
        }
    }

    /// If `pid` is a process we spawned (join injection, autoscale grow),
    /// take ownership of its handle so it gets reaped with its slot.
    fn take_joining(&mut self, pid: u32) -> Option<Child> {
        self.joining.iter().position(|c| c.id() == pid).map(|i| self.joining.remove(i))
    }

    /// Elastic scale-out injection for tests, benches and the CI smoke
    /// gate: once the configured number of results has been delivered,
    /// spawn the planned workers and block until the coordinator has
    /// admitted or rejected every one of them, so the join lands at a
    /// deterministic point in the schedule.
    fn maybe_inject_join(&mut self) -> io::Result<()> {
        let due = self
            .join_plan
            .as_ref()
            .is_some_and(|plan| self.results_delivered >= plan.after_results);
        if !due {
            return Ok(());
        }
        let Some(plan) = self.join_plan.take() else {
            return Ok(());
        };
        swt_obs::info!(
            "swt_dist",
            "join injection: spawning {} worker(s) after {} results",
            plan.count,
            self.results_delivered
        );
        let resolved_target = self.joined + self.rejected + plan.count;
        for i in 0..plan.count {
            let worker_id = self.slots.len() + i;
            self.joining.push(spawn_worker(&self.exe, &self.addr, worker_id)?);
        }
        let deadline = Instant::now() + self.connect_timeout;
        while self.joined + self.rejected < resolved_target {
            self.poll_joins()?;
            if self.joined + self.rejected >= resolved_target {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected worker join did not resolve before the deadline",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Fault injection for benches and the CI smoke gate: SIGKILL a worker
    /// after the configured number of delivered results, then let the
    /// ordinary detection/reassignment machinery pick up the pieces. The
    /// kill waits until the victim is mid-evaluation, so the reassignment
    /// path (not merely loss detection) is guaranteed to run.
    fn maybe_inject_kill(&mut self) {
        let due = match &self.kill_plan {
            Some(plan) => {
                self.results_delivered >= plan.after_results
                    && self.slots.get(plan.worker).is_some_and(|s| s.alive && s.current.is_some())
            }
            None => false,
        };
        if !due {
            return;
        }
        if let Some(plan) = self.kill_plan.take() {
            if let Some(slot) = self.slots.get_mut(plan.worker) {
                if slot.alive {
                    swt_obs::info!(
                        "swt_dist",
                        "fault injection: SIGKILL worker {} after {} results",
                        plan.worker,
                        self.results_delivered
                    );
                    if let Some(child) = slot.child.as_mut() {
                        let _ = child.kill();
                    }
                }
            }
        }
    }

    /// One autoscale decision tick: snapshot the pool, let the policy
    /// decide, record the decision, actuate. Called from `submit`
    /// (post-flush, so steady state shows every live worker busy — no
    /// transient-idle flapping) and from `heartbeat_tick` (quiet periods
    /// and the end-of-run drain). Ticks are decision-counted, never
    /// wall-clock, so the decision log reproduces run-to-run.
    fn maybe_autoscale(&mut self) -> io::Result<()> {
        let Some(mut policy) = self.policy.take() else {
            return Ok(());
        };
        self.live.set_connecting(self.joining.len());
        let decision = policy.decide(&self.live);
        let (grows, shrinks, holds) = policy.tally();
        if let Some(line) = policy.log().last() {
            self.live.record_autoscale(line, grows, shrinks, holds);
        }
        let min_workers = policy.config().min_workers;
        let tick = policy.tick();
        let result = self.actuate(decision, min_workers, tick);
        self.policy = Some(policy);
        result
    }

    /// Carry out one [`ScaleDecision`]. Grow spawns children that come back
    /// through the ordinary join protocol; shrink sends `Retire` to idle
    /// workers only (drain-then-close, never mid-candidate), keeping at
    /// least `min_workers` non-retiring live processes.
    fn actuate(
        &mut self,
        decision: ScaleDecision,
        min_workers: usize,
        tick: u64,
    ) -> io::Result<()> {
        match decision {
            ScaleDecision::Hold => {
                swt_obs::counter!("autoscale.hold").inc();
            }
            ScaleDecision::Grow(n) => {
                swt_obs::counter!("autoscale.grow").inc();
                swt_obs::info!("swt_dist", "autoscale decision {tick}: grow pool by {n}");
                for _ in 0..n {
                    let worker_id = self.slots.len() + self.joining.len();
                    self.joining.push(spawn_worker(&self.exe, &self.addr, worker_id)?);
                    self.grown += 1;
                }
                self.live.set_connecting(self.joining.len());
            }
            ScaleDecision::Shrink(n) => {
                swt_obs::counter!("autoscale.shrink").inc();
                // Re-derive the retire set from coordinator state rather
                // than trusting the snapshot: only idle, live, non-retiring
                // slots qualify, and the floor is re-checked here.
                let mut spare = self
                    .slots
                    .iter()
                    .filter(|s| s.alive && !s.retiring)
                    .count()
                    .saturating_sub(min_workers);
                let mut to_retire = Vec::new();
                for (i, slot) in self.slots.iter().enumerate() {
                    if to_retire.len() >= n || spare == 0 {
                        break;
                    }
                    if slot.alive
                        && !slot.retiring
                        && slot.current.is_none()
                        && slot.writer.is_some()
                    {
                        to_retire.push(i);
                        spare -= 1;
                    }
                }
                for worker in to_retire {
                    let msg = Msg::Retire {
                        decision: tick,
                        reason: format!("autoscale decision {tick}: pool past demand"),
                    };
                    match self.send_to(worker, &msg) {
                        Ok(()) => {
                            swt_obs::info!(
                                "swt_dist",
                                "autoscale decision {tick}: retiring idle worker {worker}"
                            );
                            let slot = &mut self.slots[worker];
                            slot.retiring = true;
                            slot.outstanding_ping = None;
                            self.live.worker_retiring(worker);
                            self.retired += 1;
                        }
                        Err(e) => self.mark_lost(worker, &format!("retire write failed: {e}"))?,
                    }
                }
            }
        }
        Ok(())
    }

    /// A retiring worker's socket closed: the drain-then-close handshake
    /// completing, not a failure — no loss counter. The candidate reclaim
    /// is purely defensive (retires go only to idle workers, so `current`
    /// should always be empty here).
    fn retire_complete(&mut self, worker: usize, reason: &str) -> io::Result<()> {
        if !self.slots[worker].alive {
            return Ok(());
        }
        swt_obs::info!("swt_dist", "worker {worker} retired and closed ({reason})");
        swt_obs::counter!("dist.workers_retired").inc();
        if let Some(id) = self.slots[worker].current.take() {
            if let Some((cand, _)) = self.inflight.get(&id) {
                swt_obs::counter!("dist.reassigned").inc();
                self.reassigned += 1;
                self.pending.push_front(cand.clone());
            }
        }
        self.close_slot(worker);
        self.sync_live_queue();
        if self.slots.iter().any(|s| s.alive) || self.inflight.is_empty() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("all workers gone after worker {worker} retired with work pending"),
            ))
        }
    }

    /// Graceful teardown: send `Shutdown` to every live worker, drain the
    /// final snapshots they send on the way out, fold every worker's last
    /// applied snapshot into the process-global registry, and return the
    /// run's [`DistRunStats`]. After this, `Drop` is a no-op.
    pub fn finish(&mut self) -> io::Result<DistRunStats> {
        self.finished = true;
        for worker in 0..self.slots.len() {
            if self.slots[worker].alive && self.slots[worker].writer.is_some() {
                let _ = self.send_to(worker, &Msg::Shutdown);
            }
        }
        // Workers answer Shutdown with a final snapshot and close their
        // socket; wait (bounded) for every live socket to drain. A worker
        // that stalls here keeps its last applied snapshot — cumulative
        // snapshots make the fallback lossy only for work after it.
        let deadline = Instant::now() + self.timeout;
        while self.slots.iter().any(|s| s.alive) && Instant::now() < deadline {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Msg { worker, msg }) => match *msg {
                    Msg::Result { telemetry, .. } | Msg::Telemetry { telemetry } => {
                        self.live.apply_telemetry(worker, &telemetry);
                    }
                    _ => {}
                },
                Ok(Event::Gone { worker, .. }) => self.close_slot(worker),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for worker in 0..self.slots.len() {
            self.close_slot(worker);
        }
        for child in &mut self.joining {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.joining.clear();
        for slot in &mut self.slots {
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
        }

        self.sync_live_queue();
        // Fold worker-process totals into this process's registry so one
        // `RunReport::capture()` after the run reports whole-run sums; the
        // view they come from is what a final `/status` poll shows.
        // Gated: a disabled-observability run must stay metrics-silent.
        if swt_obs::enabled() {
            self.live.workers_report().absorb_into(swt_obs::registry::global());
        }
        Ok(DistRunStats {
            per_worker: self.live.worker_reports(),
            joined: self.joined,
            rejected: self.rejected,
            lost: self.lost,
            reassigned: self.reassigned,
            grown: self.grown,
            retired: self.retired,
        })
    }
}

impl EvalBackend for DistBackend {
    fn capacity(&self) -> usize {
        // Constant: the dispatch window must not follow the live pool as
        // workers die or join, or the canonical schedule (and thus
        // determinism) would change.
        self.window
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        let t_submit = self.start.elapsed().as_secs_f64();
        self.inflight.insert(cand.id, (cand.clone(), t_submit));
        self.pending.push_back(cand);
        self.sync_live_queue();
        self.flush()?;
        self.maybe_inject_join()?;
        self.maybe_inject_kill();
        // Admit any grow-spawned workers waiting on the listener: a busy
        // run may never hit the heartbeat timeout, so the submit path must
        // drain the accept queue too.
        if !self.joining.is_empty() {
            self.poll_joins()?;
        }
        self.maybe_autoscale()
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        loop {
            match self.rx.recv_timeout(self.interval) {
                Ok(Event::Msg { worker, msg }) => match *msg {
                    Msg::Result { result, telemetry } => {
                        let (id, outcome) = (result.id, result.outcome());
                        self.live.apply_telemetry(worker, &telemetry);
                        if self.slots[worker].current == Some(id) {
                            self.slots[worker].current = None;
                        }
                        let Some((cand, t_start)) = self.inflight.remove(&id) else {
                            continue; // late duplicate; the runner never sees it
                        };
                        self.results_delivered += 1;
                        self.maybe_inject_join()?;
                        self.maybe_inject_kill();
                        self.flush()?;
                        let t_end = self.start.elapsed().as_secs_f64();
                        self.live.record_result(worker, t_end - t_start);
                        self.sync_live_queue();
                        return Ok(BackendResult { cand, t_start, t_end, outcome });
                    }
                    Msg::Telemetry { telemetry } => {
                        // A snapshot between results: fold and keep going.
                        // A stale seq is counted by the view, never an error.
                        self.live.apply_telemetry(worker, &telemetry);
                    }
                    Msg::Pong { nonce } => {
                        let slot = &mut self.slots[worker];
                        if let Some((expected, sent)) = slot.outstanding_ping {
                            if expected == nonce {
                                slot.outstanding_ping = None;
                                slot.rtt.observe(sent.elapsed().as_nanos() as u64);
                                swt_obs::counter!("dist.heartbeats").inc();
                            }
                        }
                    }
                    Msg::Error { message } => {
                        self.mark_lost(worker, &format!("worker reported: {message}"))?;
                        self.flush()?;
                    }
                    other => {
                        let reason = format!("unexpected frame {:#04x}", other.tag());
                        self.mark_lost(worker, &reason)?;
                        self.flush()?;
                    }
                },
                Ok(Event::Gone { worker, reason }) => {
                    if self.slots[worker].retiring {
                        self.retire_complete(worker, &reason)?;
                    } else {
                        self.mark_lost(worker, &reason)?;
                    }
                    self.flush()?;
                }
                Err(RecvTimeoutError::Timeout) => self.heartbeat_tick()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "all worker connections closed with work pending",
                    ));
                }
            }
        }
    }
}

impl Drop for DistBackend {
    fn drop(&mut self) {
        // The abort path only: a graceful teardown goes through `finish`,
        // which already reaped everything.
        if self.finished {
            return;
        }
        // Graceful first: a Shutdown frame lets idle workers exit cleanly.
        for worker in 0..self.slots.len() {
            if self.slots[worker].writer.is_some() {
                let _ = self.send_to(worker, &Msg::Shutdown);
            }
        }
        for worker in 0..self.slots.len() {
            // close_slot SIGKILLs — a no-op for workers that already exited
            // on Shutdown, and it ends stragglers (e.g. mid-evaluation
            // after an aborted run) without blocking the coordinator.
            self.close_slot(worker);
        }
        for child in &mut self.joining {
            let _ = child.kill();
            let _ = child.wait();
        }
        for slot in &mut self.slots {
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The launch workers no slot owns yet. Whatever is still here when this
/// drops is killed and reaped, so no error return from `launch` leaks a
/// process.
struct Unslotted(Vec<Child>);

impl Drop for Unslotted {
    fn drop(&mut self) {
        reap_all(self.0.drain(..));
    }
}

fn reap_all(children: impl IntoIterator<Item = Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Best-effort `Error` frame to a peer we are about to drop.
fn send_error(stream: &mut TcpStream, message: &str) {
    let _ = send(stream, &Msg::Error { message: message.to_string() });
}

/// What [`admit`] made of one fresh connection.
enum Admission {
    /// Handshake complete: `stream` has been sent its `HelloAck`.
    Admitted { stream: TcpStream, worker_id: u64, pid: u32 },
    /// Dropped, the cause logged and — where the peer could still read one —
    /// sent as an `Error` frame. `pid` is known once a `Hello` was read;
    /// `no_room` tells a pool that declined from a peer that could not be
    /// talked to.
    Refused { pid: Option<u32>, no_room: bool },
}

/// The one admission path, at launch and mid-run alike: read `Hello`, refuse
/// a version mismatch, ask `room` whether the pool takes this worker id,
/// answer `HelloAck`. Whatever a connection sends here costs only that
/// connection: garbage, a wrong first frame or a dead socket is a refusal,
/// never an error for the run.
fn admit(
    mut stream: TcpStream,
    run: &RunSpec,
    room: impl FnOnce(u64) -> Result<(), String>,
) -> Admission {
    let (mut seen_pid, mut no_room) = (None, false);
    let handshake = || -> Result<(u64, u32), WireError> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let hello = recv(&mut stream, &mut Vec::new())?;
        let Msg::Hello { version, worker_id, pid } = hello else {
            let first = hello.tag();
            return Err(WireError::Protocol(format!("opened with frame {first:#04x}, not Hello")));
        };
        seen_pid = Some(pid);
        if version != PROTOCOL_VERSION {
            let err = WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version };
            send_error(&mut stream, &err.to_string());
            return Err(err);
        }
        if let Err(why) = room(worker_id) {
            no_room = true;
            send_error(&mut stream, &why);
            return Err(WireError::Protocol(why));
        }
        send(&mut stream, &Msg::HelloAck { version: PROTOCOL_VERSION, run: run.clone() })?;
        stream.set_read_timeout(None)?;
        Ok((worker_id, pid))
    };
    match handshake() {
        Ok((worker_id, pid)) => Admission::Admitted { stream, worker_id, pid },
        Err(why) => {
            swt_obs::warn!("swt_dist", "connection refused (worker pid {seen_pid:?}): {why}");
            Admission::Refused { pid: seen_pid, no_room }
        }
    }
}

/// Spawn the `n` launch workers into `children` and admit connections until
/// each of them has completed its handshake; returns their streams in
/// worker-id order. The listener polls non-blocking so a child that dies
/// before connecting (bad exe, immediate crash) turns into a clear error
/// instead of a hung accept, and `timeout` bounds the whole wait whatever
/// else connects meanwhile. On error `children` stays with the caller to reap.
fn spawn_and_admit(
    listener: &TcpListener,
    exe: &PathBuf,
    addr: &str,
    run: &RunSpec,
    n: usize,
    timeout: Duration,
    children: &mut Vec<Child>,
) -> io::Result<Vec<TcpStream>> {
    for worker_id in 0..n {
        children.push(spawn_worker(exe, addr, worker_id)?);
    }
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + timeout;
    let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    let mut connected = 0;
    while connected < n {
        match listener.accept() {
            Ok((stream, _)) => {
                let room = |id: u64| match streams.get(id as usize) {
                    Some(None) => Ok(()),
                    _ => Err(format!("bogus or duplicate worker id {id}")),
                };
                if let Admission::Admitted { stream, worker_id, .. } = admit(stream, run, room) {
                    streams[worker_id as usize] = Some(stream);
                    connected += 1;
                    swt_obs::info!("swt_dist", "worker {worker_id} connected ({connected}/{n})");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (worker_id, child) in children.iter_mut().enumerate() {
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            format!("worker {worker_id} exited during startup: {status}"),
                        ));
                    }
                }
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("only {connected}/{n} workers connected before the deadline"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(streams.into_iter().flatten().collect())
}

fn reader_loop(worker: usize, mut stream: TcpStream, tx: mpsc::Sender<Event>) {
    let mut buf = Vec::new();
    loop {
        match recv(&mut stream, &mut buf) {
            Ok(msg) => {
                if tx.send(Event::Msg { worker, msg: Box::new(msg) }).is_err() {
                    return; // coordinator gone; nothing to report to
                }
            }
            Err(err) => {
                let _ = tx.send(Event::Gone { worker, reason: err.to_string() });
                return;
            }
        }
    }
}
