//! The coordinator's in-flight picture of a distributed run.
//!
//! A worker's metrics reach the coordinator one way: as seq-numbered
//! [`Telemetry`] snapshots (cumulative spans, counters, gauges and
//! histograms plus timeline-event deltas), one inside every `Result` and
//! standalone ones at heartbeat cadence and at teardown. The coordinator
//! folds each into a [`LiveRunView`], next to the dispatch picture — queue
//! depth, candidates in flight, and an EWMA of per-candidate wall cost. The
//! view implements [`ServeSource`], so `swt dist-run --serve` can expose it
//! as `/status` (JSON), `/metrics` (Prometheus text) and `/trace` (Chrome
//! trace JSON) while the run is still going.
//!
//! Consistency model: the view keeps one copy of each worker's snapshot,
//! and one rule decides it for every row kind. A snapshot applies only when
//! its per-worker `seq` is strictly greater than the last applied one — a
//! reordered or replayed frame counts as stale and changes nothing — so
//! lost or late telemetry degrades the view to staleness, never
//! corruption. `DistBackend::finish` reads the run's worker totals from
//! here ([`LiveRunView::workers_report`]); nothing here feeds back into
//! scheduling.

use crate::policy::PoolSnapshot;
use crate::wire::{SpanTotalRow, Telemetry};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use swt_obs::json::Json;
use swt_obs::registry::WORKER_SLOTS;
use swt_obs::report::{CounterRow, GaugeRow, HistogramRow};
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
    /// Highest snapshot seq applied (snapshots at or below it are stale).
    pub last_seq: u64,
    /// Snapshots applied / rejected as stale, from `Result` and
    /// `Telemetry` frames alike.
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
    /// The latest snapshot's counters, gauges and histograms.
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<GaugeRow>,
    pub histograms: Vec<HistogramRow>,
}

/// The provider-cache counter suffixes a worker reports under `ckpt.cache.*`:
/// reads served from memory or from the store, entries the lineage watermark
/// retired, entries the byte cap pushed out.
pub const CACHE_COUNTER_KINDS: [&str; 4] = ["hits", "misses", "retired", "capped"];

impl WorkerView {
    /// Cumulative nanoseconds under `path` in the latest snapshot.
    pub fn span_total_ns(&self, path: &str) -> u64 {
        self.spans.iter().find(|s| s.path == path).map_or(0, |s| s.total_ns)
    }

    /// A counter from this worker's latest snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
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

    /// Fold one snapshot from `worker`, whether it came inside a `Result`
    /// or in a `Telemetry` frame. Returns `false` (and counts a stale
    /// frame) when its seq does not advance the stream.
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
            w.counters = t.counters.clone();
            w.gauges = t.gauges.clone();
            w.histograms = t.histograms.clone();
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

    /// `(worker, report)` for every worker that delivered a snapshot: its
    /// latest counters and histograms — what the run's totals take from it.
    pub fn worker_reports(&self) -> Vec<(usize, RunReport)> {
        let inner = self.lock();
        let report = |w: &WorkerView| RunReport {
            counters: w.counters.clone(),
            histograms: w.histograms.clone(),
            ..RunReport::default()
        };
        inner
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.frames > 0)
            .map(|(id, w)| (id, report(w)))
            .collect()
    }

    /// Merge of every worker's latest counters and histograms: mid-run,
    /// the workers' share of `/metrics`; after `DistBackend::finish`, the
    /// worker totals it folded into the run's registry.
    pub fn workers_report(&self) -> RunReport {
        let mut merged = RunReport::default();
        for (_, report) in self.worker_reports() {
            merged.merge(&report);
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

    /// Snapshot `seq` of a worker that has trained `seq * 10` batches.
    fn frame(seq: u64) -> Telemetry {
        Telemetry {
            seq,
            uptime_ns: seq * 1_000,
            spans: vec![SpanTotalRow {
                path: "nas.eval".to_string(),
                count: seq,
                total_ns: seq * 500,
            }],
            counters: vec![CounterRow { name: "live_test.batches".to_string(), value: seq * 10 }],
            gauges: vec![GaugeRow { name: "pool.depth".to_string(), value: 2, max: 4 }],
            names: vec!["nas.eval".to_string()],
            events: vec![WireEvent { name: 0, kind: 0, t_ns: seq, dur_ns: 10, delta: 0 }],
            ..Telemetry::default()
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
    fn heartbeat_snapshots_move_counters_and_stale_ones_roll_nothing_back() {
        let live = LiveRunView::new();
        let batches = |live: &LiveRunView| {
            let text = live.metrics_text();
            let prefix = "swt_counter{name=\"live_test.batches\"} ";
            text.lines().find_map(|l| l.strip_prefix(prefix)?.parse::<u64>().ok())
        };
        // A `Result`'s snapshot, then a heartbeat one taken mid-candidate:
        // the counter moves before the next `Result` arrives.
        assert!(live.apply_telemetry(0, &frame(1)));
        assert_eq!(batches(&live), Some(10));
        assert!(live.apply_telemetry(0, &frame(2)));
        assert_eq!(batches(&live), Some(20));
        assert_eq!(live.workers_report().counter("live_test.batches"), 20);
        // A stale snapshot rolls back neither counters nor spans.
        assert!(!live.apply_telemetry(0, &frame(1)));
        assert_eq!(batches(&live), Some(20));
        let w = &live.workers()[0];
        assert_eq!((w.last_seq, w.stale_frames), (2, 1));
        assert_eq!(w.span_total_ns("nas.eval"), 1_000, "spans stay at snapshot 2");
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
    fn cache_counts_surface_in_status() -> Result<(), String> {
        let live = LiveRunView::new();
        live.worker_added(0);
        let counters = vec![
            CounterRow { name: "nas.candidates_evaluated".into(), value: 9 },
            CounterRow { name: "ckpt.cache.retired".into(), value: 7 },
        ];
        live.apply_telemetry(0, &Telemetry { seq: 1, counters, ..Telemetry::default() });
        // The provider-cache object, every kind present.
        let status = Json::parse(&live.status_json())?;
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
