//! The process's bounded event timeline.
//!
//! While the registry keeps *aggregates* (span totals, counter sums), the
//! timeline keeps *events*: individual span completions and counter-delta
//! marks, each stamped with a nanosecond offset from the timeline epoch.
//! Events land in one fixed-capacity ring per process, so the memory bound
//! is a hard constant: past it the oldest event is overwritten and counted.
//!
//! The timeline has its own switch on top of [`crate::enabled`]: span
//! recording pays nothing for it unless both are on, and a process turns it
//! on only when its events will be written into a Chrome trace. Each event
//! is read once: [`take`] pops it off the front of the ring, with the count
//! of events overwritten since the last take. A dist worker takes its events
//! into the snapshots it ships to the coordinator, and the coordinator takes
//! its own when the run ends; [`chrome_trace_json`] renders any event
//! collection as Chrome `trace_event` JSON loadable in `chrome://tracing` /
//! Perfetto.

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use swt_wire::{wire_codes, wire_struct};

/// Events the process's ring retains before overwriting the oldest.
pub const RING_CAPACITY: usize = 4096;

/// What a [`TimelineEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span occurrence (`t_ns` = start, `dur_ns` = duration).
    Span,
    /// A counter-delta mark (`t_ns` = occurrence, `delta` = amount).
    Counter,
}

wire_codes! {
    EventKind: Span = 0, Counter = 1;
}

wire_struct! {
    /// One recorded event. A distributed worker ships these as they are,
    /// name inline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimelineEvent {
        pub kind: EventKind,
        /// Span path or counter name.
        pub name: String,
        /// Nanoseconds since the timeline epoch of the recording process.
        pub t_ns: u64,
        /// Span duration in nanoseconds (0 for counter marks).
        pub dur_ns: u64,
        /// Counter delta (0 for spans).
        pub delta: i64,
    }
}

struct Ring {
    /// Up to [`RING_CAPACITY`] events, oldest first.
    buf: VecDeque<TimelineEvent>,
    /// Events overwritten at the cap since the last [`take`].
    dropped: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring { buf: VecDeque::new(), dropped: 0 });

static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);

fn lock() -> MutexGuard<'static, Ring> {
    // A ring holds no invariants across panics; recover the guard.
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

fn push(event: TimelineEvent) {
    let mut ring = lock();
    if ring.buf.len() >= RING_CAPACITY {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
    ring.buf.push_back(event);
}

/// The process's timeline epoch, pinned by the first call that needs it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Start recording timeline events (also pins the epoch on first call).
/// Spans still require [`crate::enable`] — the timeline is a second gate,
/// not a replacement.
pub fn enable() {
    epoch(); // pin the epoch before any event can be recorded
    TIMELINE_ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording timeline events; buffered events are kept.
pub fn disable() {
    TIMELINE_ENABLED.store(false, Ordering::Relaxed);
}

/// Whether timeline recording is on. One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    TIMELINE_ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds between the timeline epoch and `t` (0 if `t` predates it).
pub fn instant_ns(t: Instant) -> u64 {
    t.checked_duration_since(epoch()).map_or(0, |d| d.as_nanos() as u64)
}

/// Nanoseconds since the timeline epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Record a completed span occurrence. Called by the span layer at flush;
/// callers must have checked [`enabled`].
pub fn record_span(path: &str, t_ns: u64, dur_ns: u64) {
    let name = path.to_string();
    push(TimelineEvent { kind: EventKind::Span, name, t_ns, dur_ns, delta: 0 });
}

/// Record a counter-delta mark. This is the body of [`crate::event!`]; it
/// gates on both switches so call sites stay two relaxed loads when idle.
#[inline]
pub fn mark(name: &'static str, delta: i64) {
    if !crate::enabled() || !enabled() {
        return;
    }
    let t_ns = now_ns();
    push(TimelineEvent {
        kind: EventKind::Counter,
        name: name.to_string(),
        t_ns,
        dur_ns: 0,
        delta,
    });
}

/// Pop at most `max` events off the front of the ring, oldest first, and
/// the count of events overwritten at the cap since the last take (which
/// resets it). What is left stays in order for the next take.
pub fn take(max: usize) -> (Vec<TimelineEvent>, u64) {
    let mut ring = lock();
    let n = max.min(ring.buf.len());
    let events = ring.buf.drain(..n).collect();
    (events, std::mem::take(&mut ring.dropped))
}

/// Empty the ring and its drop count (test hygiene).
pub fn reset() {
    take(usize::MAX);
}

/// Render `(pid, event)` pairs as a Chrome `trace_event` JSON document.
///
/// Spans become complete (`"ph":"X"`) events and counter marks become
/// thread-scoped instants (`"ph":"i"`) carrying the delta in `args`. `pid`
/// groups events per process in the viewer (the coordinator puts its own on
/// 0 and worker `w`'s on `w + 1`); each process is one lane, tid 0.
pub fn chrome_trace_json(events: &[(u32, TimelineEvent)]) -> String {
    let rows = events
        .iter()
        .map(|(pid, ev)| {
            let mut row = vec![
                ("name".to_string(), Json::Str(ev.name.clone())),
                ("pid".to_string(), Json::Num(f64::from(*pid))),
                ("tid".to_string(), Json::Num(0.0)),
                ("ts".to_string(), Json::Num(ev.t_ns as f64 / 1000.0)),
            ];
            match ev.kind {
                EventKind::Span => {
                    row.push(("ph".to_string(), Json::Str("X".to_string())));
                    row.push(("dur".to_string(), Json::Num(ev.dur_ns as f64 / 1000.0)));
                }
                EventKind::Counter => {
                    row.push(("ph".to_string(), Json::Str("i".to_string())));
                    row.push(("s".to_string(), Json::Str("t".to_string())));
                    row.push((
                        "args".to_string(),
                        Json::Obj(vec![("delta".to_string(), Json::Num(ev.delta as f64))]),
                    ));
                }
            }
            Json::Obj(row)
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(rows)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_drop_accounting() {
        let _lock = crate::test_lock();
        reset();
        for t_ns in 0..(RING_CAPACITY + 10) as u64 {
            record_span("t", t_ns, 1);
        }
        let (events, dropped) = take(usize::MAX);
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped, 10, "the 10 oldest were overwritten at the cap");
        assert_eq!(events[0].t_ns, 10, "oldest survivor");
        record_span("t", 0, 1);
        assert_eq!(take(usize::MAX).1, 0, "a take resets the drops");
    }

    #[test]
    fn take_pops_at_most_max_in_order() {
        let _lock = crate::test_lock();
        reset();
        for t_ns in 0..5 {
            record_span("t", t_ns, 1);
        }
        let t_ns = |events: Vec<TimelineEvent>| events.iter().map(|e| e.t_ns).collect::<Vec<_>>();
        assert_eq!(t_ns(take(3).0), [0, 1, 2]);
        assert_eq!(t_ns(take(usize::MAX).0), [3, 4], "the rest stays, in order");
        assert_eq!(take(usize::MAX), (vec![], 0), "each event is read once");
    }

    #[test]
    fn mark_gates_on_both_switches() {
        let _lock = crate::test_lock();
        crate::disable();
        disable();
        reset();
        mark("tl.test", 1); // both off
        crate::enable();
        mark("tl.test", 2); // timeline still off
        enable();
        mark("tl.test", 3); // both on → records
        disable();
        crate::disable();
        let (events, _) = take(usize::MAX);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].delta, 3);
        assert_eq!(events[0].kind, EventKind::Counter);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_phases() {
        let _lock = crate::test_lock();
        let events = vec![
            (
                0,
                TimelineEvent {
                    kind: EventKind::Span,
                    name: "nas.eval".into(),
                    t_ns: 1500,
                    dur_ns: 2500,
                    delta: 0,
                },
            ),
            (
                1,
                TimelineEvent {
                    kind: EventKind::Counter,
                    name: "nas.dispatch".into(),
                    t_ns: 4000,
                    dur_ns: 0,
                    delta: 1,
                },
            ),
        ];
        let text = chrome_trace_json(&events);
        let doc = Json::parse(&text).expect("trace must parse");
        let rows = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(rows[0].get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(rows[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            rows[1].get("args").and_then(|a| a.get("delta")).and_then(Json::as_i64),
            Some(1)
        );
    }
}
