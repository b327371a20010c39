//! The coordinator's in-flight picture of a distributed run.
//!
//! Workers stream [`Telemetry`] frames (cumulative span/gauge snapshots
//! plus timeline-event deltas) between `Result`s; the coordinator folds
//! each one into a [`LiveRunView`] — per-worker gauges, queue depth,
//! candidates in flight, and an EWMA of per-candidate wall cost. The view
//! implements [`ServeSource`], so `swt dist-run --serve` can expose it as
//! `/status` (JSON), `/metrics` (Prometheus text) and `/trace` (Chrome
//! trace JSON) while the run is still going.
//!
//! Consistency model: everything here is *monitoring*, deliberately
//! decoupled from scheduling. Frames apply only when their per-worker
//! `seq` is strictly greater than the last applied one — a reordered or
//! replayed frame counts as stale and changes nothing — so lost or late
//! telemetry degrades the view to staleness, never corruption, and never
//! perturbs the run itself.

use crate::policy::PoolSnapshot;
use crate::wire::{GaugeSnap, SpanTotalRow, Telemetry, WorkerMetrics};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use swt_obs::json::Json;
use swt_obs::registry::WORKER_SLOTS;
use swt_obs::timeline::{self, EventKind, TimelineEvent};
use swt_obs::{RunReport, ServeSource};

/// Upper bound on buffered worker timeline events kept for `/trace`. The
/// oldest are discarded first (and counted), same contract as the source
/// rings.
pub const MAX_VIEW_EVENTS: usize = 16_384;

/// Smoothing factor for the per-candidate wall-cost EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// Upper bound on retained autoscale decision-log lines in the view (the
/// policy keeps its own, larger, log; this is the `/status` window).
pub const MAX_VIEW_DECISIONS: usize = 64;

/// What the coordinator currently knows about one worker.
#[derive(Debug, Clone, Default)]
pub struct WorkerView {
    pub alive: bool,
    /// Retire frame sent; the worker is draining and takes no new work.
    pub retiring: bool,
    /// Highest telemetry seq applied (frames at or below it are stale).
    pub last_seq: u64,
    /// Telemetry frames applied / rejected as stale.
    pub frames: u64,
    pub stale_frames: u64,
    /// Ring-overwritten events the worker reported (staleness signal).
    pub dropped_events: u64,
    /// Candidate id currently being evaluated, if any.
    pub current: Option<u64>,
    /// Results delivered by this worker.
    pub results: u64,
    /// Worker-process uptime at its last snapshot, nanoseconds.
    pub uptime_ns: u64,
    /// Latest cumulative span totals…
    pub spans: Vec<SpanTotalRow>,
    /// …and the previous snapshot's, so deltas survive the overwrite.
    pub prev_spans: Vec<SpanTotalRow>,
    pub gauges: Vec<GaugeSnap>,
    /// Latest cumulative counter/histogram snapshot (from `Result`/`Stats`).
    pub metrics: Option<WorkerMetrics>,
}

/// The stop-reason counter suffixes a worker reports under
/// `fidelity.stopped.*`. `pruned` is decided coordinator-side (after each
/// rung's ranking), so its per-worker count stays 0 by design — it is kept
/// in the table so `/status` and `dist-top` render a stable schema.
pub const STOP_COUNTER_KINDS: [&str; 3] = ["converged", "pruned", "prefiltered"];

/// The provider-cache counter suffixes a worker reports under `ckpt.cache.*`:
/// reads served from memory or from the store, entries the lineage watermark
/// retired, entries the byte cap pushed out.
pub const CACHE_COUNTER_KINDS: [&str; 4] = ["hits", "misses", "retired", "capped"];

impl WorkerView {
    /// Cumulative nanoseconds under `path` in the latest snapshot.
    pub fn span_total_ns(&self, path: &str) -> u64 {
        self.spans.iter().find(|s| s.path == path).map_or(0, |s| s.total_ns)
    }

    /// This worker's `fidelity.stopped.{kind}` count from its latest
    /// metrics snapshot (0 when absent or fidelity is off).
    pub fn stopped(&self, kind: &str) -> u64 {
        self.counter(&format!("fidelity.stopped.{kind}"))
    }

    /// A counter from this worker's latest metrics snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.as_ref().map_or(0, |m| m.counter(name))
    }

    /// This worker's provider cache as `/status` shows it: the
    /// [`CACHE_COUNTER_KINDS`] and the most bytes it ever held resident.
    fn cache_json(&self) -> Json {
        let peak = self.gauges.iter().find(|g| g.name == "ckpt.cache.resident_bytes");
        let mut fields: Vec<(String, Json)> = CACHE_COUNTER_KINDS
            .iter()
            .map(|k| (k.to_string(), Json::Num(self.counter(&format!("ckpt.cache.{k}")) as f64)))
            .collect();
        fields.push(("resident_peak_bytes".into(), Json::Num(peak.map_or(0, |g| g.max) as f64)));
        Json::Obj(fields)
    }

    /// Nanoseconds under `path` gained between the last two snapshots.
    pub fn span_delta_ns(&self, path: &str) -> u64 {
        let prev = self.prev_spans.iter().find(|s| s.path == path).map_or(0, |s| s.total_ns);
        self.span_total_ns(path).saturating_sub(prev)
    }
}

/// Autoscale monitoring state surfaced under `"autoscale"` in `/status`.
#[derive(Debug, Default)]
struct AutoscaleState {
    enabled: bool,
    grows: u64,
    shrinks: u64,
    holds: u64,
    /// Most recent decision lines, oldest first.
    log: VecDeque<String>,
}

#[derive(Debug, Default)]
struct Inner {
    meta: Vec<(String, String)>,
    window: usize,
    queue_depth: usize,
    inflight: usize,
    /// Spawned workers that have not completed their handshake yet.
    connecting: usize,
    results: u64,
    ewma_secs: f64,
    autoscale: AutoscaleState,
    workers: Vec<WorkerView>,
    /// Worker timeline events, oldest first, as `(pid, event)` with
    /// `pid = worker + 1` (pid 0 is this process's own timeline).
    events: VecDeque<(u32, TimelineEvent)>,
    events_dropped: u64,
}

impl Inner {
    fn ensure_worker(&mut self, worker: usize) {
        if self.workers.len() <= worker {
            self.workers.resize_with(worker + 1, WorkerView::default);
        }
    }
}

/// Shared, lock-per-update live view. Cheap to clone behind an `Arc`;
/// every method takes `&self`.
#[derive(Default)]
pub struct LiveRunView {
    started: Option<Instant>,
    inner: Mutex<Inner>,
}

impl fmt::Debug for LiveRunView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("LiveRunView")
            .field("workers", &inner.workers.len())
            .field("results", &inner.results)
            .field("queue_depth", &inner.queue_depth)
            .finish()
    }
}

impl LiveRunView {
    pub fn new() -> LiveRunView {
        LiveRunView { started: Some(Instant::now()), inner: Mutex::new(Inner::default()) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The view holds no invariants worth poisoning over; recover.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a `key=value` pair shown in `/status` (app, scale, …).
    pub fn set_meta(&self, key: &str, value: impl ToString) {
        let mut inner = self.lock();
        let value = value.to_string();
        match inner.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => inner.meta.push((key.to_string(), value)),
        }
    }

    /// The coordinator's dispatch window (evaluation parallelism).
    pub fn set_window(&self, window: usize) {
        self.lock().window = window;
    }

    pub fn worker_added(&self, worker: usize) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].alive = true;
    }

    pub fn worker_lost(&self, worker: usize) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].alive = false;
        inner.workers[worker].current = None;
    }

    /// `worker` was sent a `Retire` frame and is draining; it no longer
    /// counts toward dispatchable capacity.
    pub fn worker_retiring(&self, worker: usize) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].retiring = true;
    }

    /// Spawned-but-not-yet-handshaken worker count — capacity the policy
    /// has already paid for.
    pub fn set_connecting(&self, connecting: usize) {
        self.lock().connecting = connecting;
    }

    /// The plain-data snapshot [`crate::policy::ScalePolicy::decide`]
    /// consumes: the dispatch picture plus the live/idle/connecting worker
    /// counts, all wall-clock-free.
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        let inner = self.lock();
        let live = inner.workers.iter().filter(|w| w.alive && !w.retiring).count();
        let idle =
            inner.workers.iter().filter(|w| w.alive && !w.retiring && w.current.is_none()).count();
        PoolSnapshot {
            queue_depth: inner.queue_depth,
            inflight: inner.inflight,
            live,
            idle,
            connecting: inner.connecting,
            results: inner.results,
            ewma_secs: inner.ewma_secs,
        }
    }

    /// Fold one autoscale decision into the view's `/status` window:
    /// `kind` indexes (grow, shrink, hold); `line` is the policy's
    /// formatted decision-log line.
    pub fn record_autoscale(&self, line: &str, grows: u64, shrinks: u64, holds: u64) {
        let mut inner = self.lock();
        let a = &mut inner.autoscale;
        a.enabled = true;
        a.grows = grows;
        a.shrinks = shrinks;
        a.holds = holds;
        if a.log.len() >= MAX_VIEW_DECISIONS {
            a.log.pop_front();
        }
        a.log.push_back(line.to_string());
    }

    /// Update the dispatch picture: queued (not yet handed out) and
    /// in-flight candidate counts.
    pub fn set_queue(&self, queue_depth: usize, inflight: usize) {
        let mut inner = self.lock();
        inner.queue_depth = queue_depth;
        inner.inflight = inflight;
    }

    /// `worker` started evaluating candidate `id`.
    pub fn set_current(&self, worker: usize, id: Option<u64>) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].current = id;
    }

    /// A result arrived from `worker` after `secs` of submit-to-delivery
    /// wall time (queue wait included — that is the cost the search pays).
    pub fn record_result(&self, worker: usize, secs: f64) {
        let mut inner = self.lock();
        inner.results += 1;
        inner.ewma_secs = if inner.results == 1 {
            secs
        } else {
            EWMA_ALPHA * secs + (1.0 - EWMA_ALPHA) * inner.ewma_secs
        };
        inner.ensure_worker(worker);
        inner.workers[worker].results += 1;
        inner.workers[worker].current = None;
    }

    /// Keep `worker`'s latest cumulative counter/histogram snapshot
    /// (latest-wins, same rule the run report uses).
    pub fn fold_metrics(&self, worker: usize, metrics: &WorkerMetrics) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].metrics = Some(metrics.clone());
    }

    /// Fold one telemetry frame from `worker`. Returns `false` (and counts
    /// a stale frame) when its seq does not advance the stream.
    pub fn apply_telemetry(&self, worker: usize, t: &Telemetry) -> bool {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        {
            let w = &mut inner.workers[worker];
            if t.seq <= w.last_seq {
                w.stale_frames += 1;
                return false;
            }
            w.last_seq = t.seq;
            w.frames += 1;
            w.alive = true;
            w.uptime_ns = t.uptime_ns;
            w.dropped_events = w.dropped_events.saturating_add(t.dropped_events);
            w.prev_spans = std::mem::replace(&mut w.spans, t.spans.clone());
            w.gauges = t.gauges.clone();
        }
        let pid = worker as u32 + 1;
        for ev in &t.events {
            // Decode already bounds-checked the index; unknown names (a
            // peer speaking a future dialect) are skipped, not fatal.
            let Some(name) = t.names.get(ev.name as usize) else { continue };
            if inner.events.len() >= MAX_VIEW_EVENTS {
                inner.events.pop_front();
                inner.events_dropped += 1;
            }
            inner.events.push_back((
                pid,
                TimelineEvent {
                    seq: ev.t_ns, // slot seq is worker-local; order by time instead
                    kind: if ev.kind == 1 { EventKind::Counter } else { EventKind::Span },
                    name: name.clone(),
                    t_ns: ev.t_ns,
                    dur_ns: ev.dur_ns,
                    delta: ev.delta,
                },
            ));
        }
        true
    }

    /// Snapshot of every worker's view (index = worker id).
    pub fn workers(&self) -> Vec<WorkerView> {
        self.lock().workers.clone()
    }

    /// Results folded so far.
    pub fn results(&self) -> u64 {
        self.lock().results
    }

    /// Merge of the latest counter/histogram snapshot of every worker —
    /// the live analogue of `DistRunStats::workers_report`, and equal to
    /// it once the final `Stats` frames have been folded.
    pub fn workers_report(&self) -> RunReport {
        let inner = self.lock();
        let mut merged = RunReport::default();
        for w in &inner.workers {
            if let Some(m) = &w.metrics {
                merged.merge(&m.to_report());
            }
        }
        merged
    }
}

impl ServeSource for LiveRunView {
    fn status_json(&self) -> String {
        let inner = self.lock();
        let uptime = self.started.map_or(0.0, |s| s.elapsed().as_secs_f64());
        let workers: Vec<Json> = inner
            .workers
            .iter()
            .enumerate()
            .map(|(id, w)| {
                let spans = w
                    .spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("path".to_string(), Json::Str(s.path.clone())),
                            ("count".to_string(), Json::Num(s.count as f64)),
                            ("total_secs".to_string(), Json::Num(s.total_ns as f64 / 1e9)),
                            (
                                "delta_secs".to_string(),
                                Json::Num(w.span_delta_ns(&s.path) as f64 / 1e9),
                            ),
                        ])
                    })
                    .collect();
                let gauges = w
                    .gauges
                    .iter()
                    .map(|g| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(g.name.clone())),
                            ("value".to_string(), Json::Num(g.value as f64)),
                            ("max".to_string(), Json::Num(g.max as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("alive".to_string(), Json::Bool(w.alive)),
                    ("retiring".to_string(), Json::Bool(w.retiring)),
                    ("seq".to_string(), Json::Num(w.last_seq as f64)),
                    ("frames".to_string(), Json::Num(w.frames as f64)),
                    ("stale_frames".to_string(), Json::Num(w.stale_frames as f64)),
                    ("dropped_events".to_string(), Json::Num(w.dropped_events as f64)),
                    (
                        "current".to_string(),
                        w.current.map_or(Json::Null, |id| Json::Num(id as f64)),
                    ),
                    ("results".to_string(), Json::Num(w.results as f64)),
                    ("uptime_secs".to_string(), Json::Num(w.uptime_ns as f64 / 1e9)),
                    (
                        "stopped".to_string(),
                        Json::Obj(
                            STOP_COUNTER_KINDS
                                .iter()
                                .map(|k| (k.to_string(), Json::Num(w.stopped(k) as f64)))
                                .collect(),
                        ),
                    ),
                    ("cache".to_string(), w.cache_json()),
                    ("spans".to_string(), Json::Arr(spans)),
                    ("gauges".to_string(), Json::Arr(gauges)),
                ])
            })
            .collect();
        let meta =
            inner.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect::<Vec<_>>();
        let live = inner.workers.iter().filter(|w| w.alive).count();
        let autoscale = Json::Obj(vec![
            ("enabled".to_string(), Json::Bool(inner.autoscale.enabled)),
            ("grows".to_string(), Json::Num(inner.autoscale.grows as f64)),
            ("shrinks".to_string(), Json::Num(inner.autoscale.shrinks as f64)),
            ("holds".to_string(), Json::Num(inner.autoscale.holds as f64)),
            (
                "log".to_string(),
                Json::Arr(inner.autoscale.log.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
        ]);
        Json::Obj(vec![
            ("meta".to_string(), Json::Obj(meta)),
            ("uptime_secs".to_string(), Json::Num(uptime)),
            ("window".to_string(), Json::Num(inner.window as f64)),
            ("queue_depth".to_string(), Json::Num(inner.queue_depth as f64)),
            ("inflight".to_string(), Json::Num(inner.inflight as f64)),
            ("connecting".to_string(), Json::Num(inner.connecting as f64)),
            ("results".to_string(), Json::Num(inner.results as f64)),
            ("workers_live".to_string(), Json::Num(live as f64)),
            ("ewma_candidate_secs".to_string(), Json::Num(inner.ewma_secs)),
            ("autoscale".to_string(), autoscale),
            ("events_buffered".to_string(), Json::Num(inner.events.len() as f64)),
            ("events_dropped".to_string(), Json::Num(inner.events_dropped as f64)),
            ("workers".to_string(), Json::Arr(workers)),
        ])
        .render()
    }

    fn metrics_text(&self) -> String {
        // Coordinator-process registry plus every worker's latest snapshot:
        // the same merge the final report performs, just mid-run.
        let mut merged = RunReport::capture();
        merged.merge(&self.workers_report());
        let mut text = swt_obs::serve::prometheus_text(&merged);
        let inner = self.lock();
        let live = inner.workers.iter().filter(|w| w.alive).count();
        text.push_str(&format!("swt_live_queue_depth {}\n", inner.queue_depth));
        text.push_str(&format!("swt_live_inflight {}\n", inner.inflight));
        text.push_str(&format!("swt_live_connecting {}\n", inner.connecting));
        text.push_str(&format!("swt_live_workers {}\n", live));
        text.push_str(&format!("swt_live_results_total {}\n", inner.results));
        text.push_str(&format!("swt_live_ewma_candidate_seconds {}\n", inner.ewma_secs));
        text
    }

    fn trace_json(&self) -> String {
        // Worker events (pid = worker + 1) merged with this process's own
        // timeline (pid 0, tid = slot), ordered by time.
        let mut rows: Vec<(u32, u32, TimelineEvent)> = Vec::new();
        for slot in 0..=WORKER_SLOTS {
            for ev in timeline::drain_since(slot, 0).events {
                rows.push((0, slot as u32, ev));
            }
        }
        {
            let inner = self.lock();
            rows.extend(inner.events.iter().map(|(pid, ev)| (*pid, 0u32, ev.clone())));
        }
        rows.sort_by_key(|(_, _, ev)| ev.t_ns);
        timeline::chrome_trace_json(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireEvent;

    fn frame(seq: u64) -> Telemetry {
        Telemetry {
            seq,
            uptime_ns: seq * 1_000,
            spans: vec![SpanTotalRow {
                path: "nas.eval".to_string(),
                count: seq,
                total_ns: seq * 500,
            }],
            gauges: vec![GaugeSnap { name: "pool.depth".to_string(), value: 2, max: 4 }],
            names: vec!["nas.eval".to_string()],
            events: vec![WireEvent { name: 0, kind: 0, t_ns: seq, dur_ns: 10, delta: 0 }],
            dropped_events: 0,
        }
    }

    #[test]
    fn stale_and_replayed_frames_do_not_regress_the_view() {
        let live = LiveRunView::new();
        assert!(live.apply_telemetry(1, &frame(1)));
        assert!(live.apply_telemetry(1, &frame(3)));
        assert!(!live.apply_telemetry(1, &frame(2)), "reordered frame is stale");
        assert!(!live.apply_telemetry(1, &frame(3)), "replayed frame is stale");
        let w = &live.workers()[1];
        assert_eq!(w.last_seq, 3);
        assert_eq!(w.frames, 2);
        assert_eq!(w.stale_frames, 2);
        assert_eq!(w.span_total_ns("nas.eval"), 1_500);
        assert_eq!(w.span_delta_ns("nas.eval"), 1_000, "delta spans snapshots 1 → 3");
    }

    #[test]
    fn ewma_and_result_accounting() -> Result<(), String> {
        let live = LiveRunView::new();
        live.set_current(0, Some(7));
        live.record_result(0, 1.0);
        live.record_result(0, 2.0);
        let w = &live.workers()[0];
        assert_eq!(w.results, 2);
        assert_eq!(w.current, None);
        assert_eq!(live.results(), 2);
        let status = Json::parse(&live.status_json())?;
        let ewma = status.get("ewma_candidate_secs").and_then(Json::as_f64).unwrap_or(0.0);
        assert!((ewma - 1.2).abs() < 1e-9, "ewma(1, 2) with α=0.2 → 1.2, got {ewma}");
        Ok(())
    }

    #[test]
    fn stop_reason_counts_surface_in_status() -> Result<(), String> {
        use crate::wire::CounterSnap;
        let live = LiveRunView::new();
        live.worker_added(0);
        // No metrics yet: the schema is stable, the counts zero.
        let status = Json::parse(&live.status_json())?;
        let stopped = |s: &Json, i: usize| {
            s.get("workers")
                .and_then(Json::as_array)
                .and_then(|w| w.get(i))
                .and_then(|w| w.get("stopped"))
                .cloned()
                .ok_or_else(|| "worker stopped object missing from /status".to_string())
        };
        let stopped0 = stopped(&status, 0)?;
        for kind in STOP_COUNTER_KINDS {
            assert_eq!(stopped0.get(kind).and_then(Json::as_f64), Some(0.0));
        }
        // Fold a snapshot carrying fidelity counters.
        live.fold_metrics(
            0,
            &WorkerMetrics {
                counters: vec![
                    CounterSnap { name: "fidelity.stopped.converged".into(), value: 3 },
                    CounterSnap { name: "fidelity.stopped.prefiltered".into(), value: 5 },
                    CounterSnap { name: "nas.candidates_evaluated".into(), value: 9 },
                    CounterSnap { name: "ckpt.cache.retired".into(), value: 7 },
                ],
                histograms: vec![],
            },
        );
        assert_eq!(live.workers()[0].stopped("converged"), 3);
        assert_eq!(live.workers()[0].stopped("prefiltered"), 5);
        assert_eq!(live.workers()[0].stopped("pruned"), 0);
        let status = Json::parse(&live.status_json())?;
        let stopped0 = stopped(&status, 0)?;
        assert_eq!(stopped0.get("converged").and_then(Json::as_f64), Some(3.0));
        assert_eq!(stopped0.get("prefiltered").and_then(Json::as_f64), Some(5.0));
        // The provider-cache object sits beside it, every kind present.
        let workers = status.get("workers").and_then(Json::as_array);
        let cache = workers.and_then(|w| w[0].get("cache")).ok_or("cache object missing")?;
        let field = |k: &str| cache.get(k).and_then(Json::as_f64);
        assert_eq!(CACHE_COUNTER_KINDS.map(field), [Some(0.0), Some(0.0), Some(7.0), Some(0.0)]);
        assert_eq!(field("resident_peak_bytes"), Some(0.0));
        Ok(())
    }

    #[test]
    fn pool_snapshot_and_autoscale_log_surface_in_status() -> Result<(), String> {
        let live = LiveRunView::new();
        live.worker_added(0);
        live.worker_added(1);
        live.worker_added(2);
        live.record_result(0, 0.5);
        live.set_current(0, Some(4));
        live.worker_retiring(2);
        live.set_queue(3, 2);
        live.set_connecting(1);
        let s = live.pool_snapshot();
        assert_eq!((s.queue_depth, s.inflight, s.connecting), (3, 2, 1));
        assert_eq!(
            (s.live, s.idle),
            (2, 1),
            "retiring worker leaves the pool; busy one is not idle"
        );
        assert_eq!((s.outstanding(), s.effective()), (5, 3));
        assert!((s.ewma_secs - 0.5).abs() < 1e-12);

        live.record_autoscale("t=1 -> grow +1", 1, 0, 0);
        let status = Json::parse(&live.status_json())?;
        let auto = status.get("autoscale").ok_or("autoscale object missing")?;
        assert_eq!(auto.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(auto.get("grows").and_then(Json::as_f64), Some(1.0));
        let log = auto.get("log").and_then(Json::as_array).ok_or("log missing")?;
        assert_eq!(log.len(), 1);
        assert_eq!(status.get("connecting").and_then(Json::as_f64), Some(1.0));
        let workers = status.get("workers").and_then(Json::as_array).ok_or("workers")?;
        assert_eq!(workers[2].get("retiring"), Some(&Json::Bool(true)));
        Ok(())
    }

    #[test]
    fn endpoints_render_for_an_empty_and_a_populated_view() -> Result<(), String> {
        let live = LiveRunView::new();
        live.set_meta("app", "mnist-mlp");
        live.set_window(4);
        assert!(Json::parse(&live.status_json()).is_ok());
        assert!(Json::parse(&live.trace_json()).is_ok());
        live.apply_telemetry(0, &frame(1));
        let status = Json::parse(&live.status_json())?;
        assert_eq!(
            status.get("meta").and_then(|m| m.get("app")).and_then(Json::as_str),
            Some("mnist-mlp")
        );
        let trace = Json::parse(&live.trace_json())?;
        let rows = trace.get("traceEvents").and_then(Json::as_array).map_or(0, |r| r.len());
        assert!(rows >= 1, "worker event must appear in the trace");
        let metrics = live.metrics_text();
        assert!(metrics.contains("swt_live_workers"), "run-level gauges present");
        Ok(())
    }
}
