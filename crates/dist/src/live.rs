//! The coordinator's in-flight picture of a distributed run.
//!
//! A worker's metrics reach the coordinator one way: as seq-numbered
//! [`Telemetry`] snapshots (the worker's cumulative [`RunReport`] plus
//! timeline-event deltas), one inside every `Result` and
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

use crate::wire::Telemetry;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use swt_obs::json::Json;
use swt_obs::registry::WORKER_SLOTS;
use swt_obs::report::SpanRow;
use swt_obs::timeline::{self, TimelineEvent};
use swt_obs::{RunReport, ServeSource};

/// Upper bound on buffered worker timeline events kept for `/trace`. The
/// oldest are discarded first (and counted), same contract as the source
/// rings.
pub const MAX_VIEW_EVENTS: usize = 16_384;

/// Smoothing factor for the per-candidate wall-cost EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// What the coordinator currently knows about one worker.
#[derive(Debug, Clone, Default)]
pub struct WorkerView {
    pub alive: bool,
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
    /// The latest snapshot's report, cumulative since worker start…
    pub report: RunReport,
    /// …and the previous snapshot's span rows, so deltas survive the
    /// overwrite.
    pub prev_spans: Vec<SpanRow>,
}

/// The provider-cache counter suffixes a worker reports under `ckpt.cache.*`:
/// reads served from memory or from the store, entries the lineage watermark
/// retired, entries the byte cap pushed out.
pub const CACHE_COUNTER_KINDS: [&str; 4] = ["hits", "misses", "retired", "capped"];

impl WorkerView {
    /// This worker's provider cache as `/status` shows it: the
    /// [`CACHE_COUNTER_KINDS`] and the most bytes it ever held resident.
    fn cache_json(&self) -> Json {
        let report = &self.report;
        let peak = report.gauges.iter().find(|g| g.name == "ckpt.cache.resident_bytes");
        let mut fields: Vec<(String, Json)> = CACHE_COUNTER_KINDS
            .iter()
            .map(|k| (k.to_string(), Json::Num(report.counter(&format!("ckpt.cache.{k}")) as f64)))
            .collect();
        fields.push(("resident_peak_bytes".into(), Json::Num(peak.map_or(0, |g| g.max) as f64)));
        Json::Obj(fields)
    }

    /// Seconds under `path`, over every slot, gained between the last two
    /// snapshots.
    fn span_delta_secs(&self, path: &str) -> f64 {
        let prev: f64 =
            self.prev_spans.iter().filter(|s| s.path == path).map(|s| s.total_secs).sum();
        (self.report.span_total_secs(path) - prev).max(0.0)
    }
}

#[derive(Debug, Default)]
struct Inner {
    meta: Vec<(String, String)>,
    window: usize,
    queue_depth: usize,
    inflight: usize,
    results: u64,
    ewma_secs: f64,
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
    /// or in a `Telemetry` frame: keep its report, append its events.
    /// Returns `false` (and counts a stale frame) when its seq does not
    /// advance the stream.
    pub fn apply_telemetry(&self, worker: usize, t: Telemetry) -> bool {
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
            w.prev_spans = std::mem::replace(&mut w.report, t.report).spans;
        }
        let pid = worker as u32 + 1;
        for mut ev in t.events {
            // The frame was decoded on its connection's reader thread. A name
            // kept from it would pin that thread's allocator arena for the
            // whole run (measured: the coordinator's peak RSS ~6 % higher),
            // so the view keeps a copy made here.
            ev.name = String::from(ev.name.as_str());
            if inner.events.len() >= MAX_VIEW_EVENTS {
                inner.events.pop_front();
                inner.events_dropped += 1;
            }
            inner.events.push_back((pid, ev));
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

    /// Worker timeline events discarded at [`MAX_VIEW_EVENTS`], oldest
    /// first, so far.
    pub fn events_dropped(&self) -> u64 {
        self.lock().events_dropped
    }

    /// `(worker, report)` for every worker that delivered a snapshot: its
    /// latest report, spans included.
    pub fn worker_reports(&self) -> Vec<(usize, RunReport)> {
        let inner = self.lock();
        inner
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.frames > 0)
            .map(|(id, w)| (id, w.report.clone()))
            .collect()
    }

    /// Merge of every worker's latest report: mid-run, the workers' share
    /// of `/metrics`; after `DistBackend::finish`, the source of the
    /// counters and histograms it folded into the run's registry.
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
                // One row per path, summed over the worker's slots.
                let mut paths: Vec<&str> = w.report.spans.iter().map(|s| s.path.as_str()).collect();
                paths.dedup();
                let spans = paths
                    .into_iter()
                    .map(|path| {
                        let rows = w.report.spans.iter().filter(|s| s.path == path);
                        let count: u64 = rows.map(|s| s.count).sum();
                        Json::Obj(vec![
                            ("path".to_string(), Json::Str(path.to_string())),
                            ("count".to_string(), Json::Num(count as f64)),
                            ("total_secs".to_string(), Json::Num(w.report.span_total_secs(path))),
                            ("delta_secs".to_string(), Json::Num(w.span_delta_secs(path))),
                        ])
                    })
                    .collect();
                let gauges = w
                    .report
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
        Json::Obj(vec![
            ("meta".to_string(), Json::Obj(meta)),
            ("uptime_secs".to_string(), Json::Num(uptime)),
            ("window".to_string(), Json::Num(inner.window as f64)),
            ("queue_depth".to_string(), Json::Num(inner.queue_depth as f64)),
            ("inflight".to_string(), Json::Num(inner.inflight as f64)),
            ("results".to_string(), Json::Num(inner.results as f64)),
            ("workers_live".to_string(), Json::Num(live as f64)),
            ("ewma_candidate_secs".to_string(), Json::Num(inner.ewma_secs)),
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
    use swt_obs::report::{CounterRow, GaugeRow};
    use swt_obs::timeline::EventKind;

    fn event(seq: u64) -> TimelineEvent {
        TimelineEvent {
            seq,
            kind: EventKind::Span,
            name: "nas.eval".to_string(),
            t_ns: seq,
            dur_ns: 10,
            delta: 0,
        }
    }

    /// Snapshot `seq` of a worker that has trained `seq * 10` batches, its
    /// evaluations split over two slots.
    fn frame(seq: u64) -> Telemetry {
        let span = |worker, total_secs| SpanRow {
            path: "nas.eval".to_string(),
            worker,
            count: seq,
            total_secs,
            min_secs: 0.0,
            max_secs: 0.0,
        };
        Telemetry {
            seq,
            uptime_ns: seq * 1_000,
            report: RunReport {
                spans: vec![span(Some(1), seq as f64 * 0.5), span(None, seq as f64 * 0.25)],
                counters: vec![CounterRow {
                    name: "live_test.batches".to_string(),
                    value: seq * 10,
                }],
                gauges: vec![GaugeRow { name: "pool.depth".to_string(), value: 2, max: 4 }],
                ..RunReport::default()
            },
            events: vec![event(seq)],
            ..Telemetry::default()
        }
    }

    #[test]
    fn stale_and_replayed_frames_do_not_regress_the_view() -> Result<(), String> {
        let live = LiveRunView::new();
        assert!(live.apply_telemetry(1, frame(1)));
        assert!(live.apply_telemetry(1, frame(3)));
        assert!(!live.apply_telemetry(1, frame(2)), "reordered frame is stale");
        assert!(!live.apply_telemetry(1, frame(3)), "replayed frame is stale");
        let w = &live.workers()[1];
        assert_eq!(w.last_seq, 3);
        assert_eq!(w.frames, 2);
        assert_eq!(w.stale_frames, 2);
        assert_eq!(w.report, frame(3).report, "the view keeps the report as it arrived");
        assert_eq!(w.report.span_total_secs("nas.eval"), 2.25);
        assert_eq!(w.span_delta_secs("nas.eval"), 1.5, "delta spans snapshots 1 → 3");
        // `/status` keeps one span row per path, summed over slots.
        let status = Json::parse(&live.status_json())?;
        let workers = status.get("workers").and_then(Json::as_array).ok_or("workers")?;
        let spans = workers[1].get("spans").and_then(Json::as_array).ok_or("spans")?;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("total_secs").and_then(Json::as_f64), Some(2.25));
        Ok(())
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
        assert!(live.apply_telemetry(0, frame(1)));
        assert_eq!(batches(&live), Some(10));
        assert!(live.apply_telemetry(0, frame(2)));
        assert_eq!(batches(&live), Some(20));
        assert_eq!(live.workers_report().counter("live_test.batches"), 20);
        // A stale snapshot rolls back neither counters nor spans.
        assert!(!live.apply_telemetry(0, frame(1)));
        assert_eq!(batches(&live), Some(20));
        let w = &live.workers()[0];
        assert_eq!((w.last_seq, w.stale_frames), (2, 1));
        assert_eq!(w.report.span_total_secs("nas.eval"), 1.5, "spans stay at snapshot 2");
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
        let report = RunReport { counters, ..RunReport::default() };
        live.apply_telemetry(0, Telemetry { seq: 1, report, ..Telemetry::default() });
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
    fn dispatch_picture_surfaces_in_status() -> Result<(), String> {
        let live = LiveRunView::new();
        live.set_window(2);
        live.worker_added(0);
        live.worker_added(1);
        live.worker_added(2);
        live.record_result(0, 0.5);
        live.set_current(0, Some(4));
        live.worker_lost(2);
        live.set_queue(3, 2);
        let status = Json::parse(&live.status_json())?;
        let num = |k: &str| status.get(k).and_then(Json::as_f64);
        assert_eq!(
            [num("window"), num("queue_depth"), num("inflight"), num("workers_live")],
            [Some(2.0), Some(3.0), Some(2.0), Some(2.0)],
            "the lost worker leaves the live count"
        );
        assert_eq!(num("ewma_candidate_secs"), Some(0.5));
        let workers = status.get("workers").and_then(Json::as_array).ok_or("workers")?;
        assert_eq!(workers[0].get("current").and_then(Json::as_u64), Some(4));
        assert_eq!(workers[2].get("alive"), Some(&Json::Bool(false)));
        Ok(())
    }

    #[test]
    fn endpoints_render_for_an_empty_and_a_populated_view() -> Result<(), String> {
        let live = LiveRunView::new();
        live.set_meta("app", "mnist-mlp");
        live.set_window(4);
        assert!(Json::parse(&live.status_json()).is_ok());
        assert!(Json::parse(&live.trace_json()).is_ok());
        live.apply_telemetry(0, frame(1));
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

    #[test]
    fn events_past_the_cap_drop_oldest_first_and_are_counted() {
        let live = LiveRunView::new();
        let named = |seq| TimelineEvent { name: format!("ev{seq}"), ..event(seq) };
        let events = (0..MAX_VIEW_EVENTS as u64 + 3).map(named).collect();
        live.apply_telemetry(0, Telemetry { seq: 1, events, ..Telemetry::default() });
        assert_eq!(live.events_dropped(), 3);
        let trace = live.trace_json();
        for seq in 0..3 {
            assert!(!trace.contains(&format!("\"ev{seq}\"")), "event {seq} must be dropped");
        }
        for seq in [3, MAX_VIEW_EVENTS as u64 + 2] {
            assert!(trace.contains(&format!("\"ev{seq}\"")), "event {seq} must be kept");
        }
    }
}
