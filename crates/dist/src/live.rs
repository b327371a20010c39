//! The coordinator's in-flight picture of a distributed run.
//!
//! A worker's metrics reach the coordinator one way: as seq-numbered
//! [`Telemetry`] snapshots (the worker's cumulative [`RunReport`], plus the
//! timeline events it recorded since the last one when the run writes a
//! Chrome trace), one inside every `Result` and
//! standalone ones at heartbeat cadence and at teardown. The coordinator
//! folds each into a [`LiveRunView`], next to the dispatch picture — queue
//! depth, candidates in flight, and an EWMA of per-candidate wall cost. The
//! view implements [`ServeSource`], so `swt dist-run --serve` can expose it
//! as `/status` (JSON) and `/metrics` (Prometheus text) while the run is
//! still going; [`LiveRunView::trace_json`] renders the run's Chrome trace,
//! every worker's events on this process's clock, once it has ended
//! (`swt dist-run --chrome-trace`).
//!
//! Consistency model: the view keeps one copy of each worker's snapshot,
//! and one rule decides it for every row kind. A snapshot applies only when
//! its per-worker `seq` is strictly greater than the last applied one — a
//! reordered or replayed frame counts as stale and changes nothing — so
//! lost or late telemetry degrades the view to staleness, never
//! corruption. Whether a worker is alive is the coordinator's call alone
//! ([`LiveRunView::worker_added`], [`LiveRunView::worker_lost`]): a
//! snapshot queued before a loss still applies, and does not revive it.
//! `DistBackend::finish` reads the run's worker totals from here
//! ([`LiveRunView::workers_report`]); nothing here feeds back into
//! scheduling.

use crate::wire::Telemetry;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use swt_obs::json::Json;
use swt_obs::timeline::{self, TimelineEvent};
use swt_obs::{RunReport, ServeSource};

/// Upper bound on buffered worker timeline events kept for the run-end
/// Chrome trace. The oldest are discarded first (and counted), same
/// contract as the process's own ring.
pub const MAX_VIEW_EVENTS: usize = 16_384;

/// Smoothing factor for the per-candidate wall-cost EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// A worker-reported nanosecond count as a signed one, saturating.
fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// What the coordinator currently knows about one worker.
#[derive(Debug, Clone, Default)]
pub struct WorkerView {
    pub alive: bool,
    /// The worker process's id, from its `Hello`.
    pub pid: u32,
    /// Highest snapshot seq applied (snapshots at or below it are stale).
    pub last_seq: u64,
    /// Snapshots applied / rejected as stale, from `Result` and
    /// `Telemetry` frames alike.
    pub frames: u64,
    pub stale_frames: u64,
    /// Where the worker's timeline epoch sits on this process's: the least,
    /// over applied snapshots, of this process's `timeline::now_ns()` at
    /// apply minus the snapshot's `uptime_ns`. Transit only adds to that
    /// difference, so the least is the closest. `None` before a snapshot.
    pub clock_offset_ns: Option<i64>,
    /// Candidate id currently being evaluated, if any.
    pub current: Option<u64>,
    /// Results delivered by this worker.
    pub results: u64,
    /// Worker-process uptime at its last snapshot, nanoseconds.
    pub uptime_ns: u64,
    /// The latest snapshot's report, cumulative since worker start.
    pub report: RunReport,
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
    /// Worker timeline events, oldest first, as `(worker, event)`, each on
    /// its worker's clock.
    events: VecDeque<(usize, TimelineEvent)>,
    /// Events the trace lost: overwritten in a worker's ring, discarded at
    /// [`MAX_VIEW_EVENTS`], or overwritten in this process's ring.
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

    pub fn worker_added(&self, worker: usize, pid: u32) {
        let mut inner = self.lock();
        inner.ensure_worker(worker);
        inner.workers[worker].alive = true;
        inner.workers[worker].pid = pid;
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
    /// or in a `Telemetry` frame: keep its report, append its events, and
    /// tighten the worker's clock offset.
    /// Returns `false` (and counts a stale frame) when its seq does not
    /// advance the stream.
    pub fn apply_telemetry(&self, worker: usize, t: Telemetry) -> bool {
        let now_ns = timeline::now_ns();
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
            w.uptime_ns = t.uptime_ns;
            let offset = signed(now_ns).saturating_sub(signed(t.uptime_ns));
            w.clock_offset_ns = Some(w.clock_offset_ns.map_or(offset, |o| o.min(offset)));
            w.report = t.report;
        }
        inner.events_dropped = inner.events_dropped.saturating_add(t.dropped_events);
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
            inner.events.push_back((worker, ev));
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

    /// Timeline events the trace has lost so far: the workers' ring
    /// overwrites, the oldest discarded at [`MAX_VIEW_EVENTS`], and, once
    /// [`trace_json`](Self::trace_json) has run, this process's ring
    /// overwrites.
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

    /// The run's Chrome `trace_event` JSON, ordered by time: this
    /// process's timeline on pid 0 and worker `w`'s buffered events on pid
    /// `w + 1`, moved onto this process's clock by the worker's
    /// [`WorkerView::clock_offset_ns`]. It consumes both: it takes this
    /// process's ring, adding what the ring overwrote to
    /// [`events_dropped`](Self::events_dropped), and empties the view's
    /// buffer. Call it once, at run end (`swt dist-run --chrome-trace`).
    pub fn trace_json(&self) -> String {
        let (own, dropped) = timeline::take(usize::MAX);
        let mut inner = self.lock();
        inner.events_dropped = inner.events_dropped.saturating_add(dropped);
        let workers = std::mem::take(&mut inner.events).into_iter().map(|(worker, mut ev)| {
            let offset = inner.workers[worker].clock_offset_ns.unwrap_or(0);
            ev.t_ns = signed(ev.t_ns).saturating_add(offset).max(0) as u64;
            (worker as u32 + 1, ev)
        });
        let mut rows: Vec<(u32, TimelineEvent)> = own.into_iter().map(|ev| (0, ev)).collect();
        rows.extend(workers);
        drop(inner);
        rows.sort_by_key(|(_, ev)| ev.t_ns);
        timeline::chrome_trace_json(&rows)
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
                    ("pid".to_string(), Json::Num(w.pid as f64)),
                    ("seq".to_string(), Json::Num(w.last_seq as f64)),
                    ("frames".to_string(), Json::Num(w.frames as f64)),
                    ("stale_frames".to_string(), Json::Num(w.stale_frames as f64)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_obs::report::{CounterRow, GaugeRow, SpanRow};
    use swt_obs::timeline::EventKind;

    fn event(t_ns: u64) -> TimelineEvent {
        TimelineEvent {
            kind: EventKind::Span,
            name: "nas.eval".to_string(),
            t_ns,
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
    fn a_snapshot_applied_after_a_loss_does_not_revive_the_worker() -> Result<(), String> {
        let live = LiveRunView::new();
        live.worker_added(0, 100);
        live.worker_added(1, 101);
        // A `Result` the reader thread queued before the heartbeat timeout
        // closed the slot is applied after it.
        live.worker_lost(1);
        assert!(live.apply_telemetry(1, frame(1)), "a fresh seq still applies");
        let w = &live.workers()[1];
        assert!(!w.alive, "a snapshot must not revive a lost worker");
        assert_eq!(w.report, frame(1).report, "its counters are real work and are kept");
        let status = Json::parse(&live.status_json())?;
        assert_eq!(status.get("workers_live").and_then(Json::as_f64), Some(1.0));
        assert!(live.metrics_text().contains("swt_live_workers 1\n"));
        Ok(())
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
        live.worker_added(0, 100);
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
        live.worker_added(0, 100);
        live.worker_added(1, 101);
        live.worker_added(2, 102);
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
        let pids: Vec<_> = workers.iter().map(|w| w.get("pid").and_then(Json::as_u64)).collect();
        assert_eq!(pids, [Some(100), Some(101), Some(102)], "a lost worker keeps its pid");
        Ok(())
    }

    #[test]
    fn endpoints_render_for_an_empty_and_a_populated_view() -> Result<(), String> {
        let _lock = crate::timeline_lock();
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
        let _lock = crate::timeline_lock();
        let live = LiveRunView::new();
        let named = |seq| TimelineEvent { name: format!("ev{seq}"), ..event(seq) };
        let events = (0..MAX_VIEW_EVENTS as u64 + 3).map(named).collect();
        // The worker's own ring overwrote 4 more: one loss count for both.
        let t = Telemetry { seq: 1, dropped_events: 4, events, ..Telemetry::default() };
        live.apply_telemetry(0, t);
        assert_eq!(live.events_dropped(), 7);
        let status = Json::parse(&live.status_json()).map_err(|e| e.to_string());
        let total = status.ok().and_then(|s| s.get("events_dropped").and_then(Json::as_u64));
        assert_eq!(total, Some(7), "`/status` names the same total");
        let trace = live.trace_json();
        for seq in 0..3 {
            assert!(!trace.contains(&format!("\"ev{seq}\"")), "event {seq} must be dropped");
        }
        for seq in [3, MAX_VIEW_EVENTS as u64 + 2] {
            assert!(trace.contains(&format!("\"ev{seq}\"")), "event {seq} must be kept");
        }
    }

    #[test]
    fn worker_events_render_on_the_coordinator_clock() -> Result<(), String> {
        let _lock = crate::timeline_lock();
        timeline::now_ns(); // pin this process's epoch
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A worker that started 20 ms after this process: its epoch is
        // "now" here, and its first event sits at its own t = 0.
        let live = LiveRunView::new();
        let t = Telemetry { seq: 1, uptime_ns: 0, events: vec![event(0)], ..Telemetry::default() };
        assert!(live.apply_telemetry(0, t));
        let trace = Json::parse(&live.trace_json())?;
        let rows = trace.get("traceEvents").and_then(Json::as_array).ok_or("traceEvents")?;
        let worker = rows.iter().find(|r| r.get("pid").and_then(Json::as_u64) == Some(1));
        let ts = worker.and_then(|r| r.get("ts")).and_then(Json::as_f64).ok_or("worker event")?;
        assert!(ts >= 20_000.0, "the worker's t = 0 renders at {ts} µs, before it started");
        Ok(())
    }
}
