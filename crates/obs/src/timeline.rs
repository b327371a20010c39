//! Bounded per-worker-slot event timeline.
//!
//! While the registry keeps *aggregates* (span totals, counter sums), the
//! timeline keeps *events*: individual span completions and counter-delta
//! marks, each stamped with a per-slot monotone sequence number and a
//! nanosecond offset from the timeline epoch. Events land in a
//! fixed-capacity ring per worker slot, so the memory bound is a hard
//! constant and a slow consumer loses the oldest events — readers observe
//! the loss as a `dropped` count ([`drain_since`]), never as corruption.
//!
//! The timeline has its own switch on top of [`crate::enabled`]: span
//! recording pays nothing for it unless both are on. Consumers poll with a
//! cursor (`drain_since(slot, seq)` returns everything at or after `seq`
//! that is still buffered); the wire layer ships those batches to the
//! coordinator, and [`chrome_trace_json`] renders any event collection as
//! Chrome `trace_event` JSON loadable in `chrome://tracing` / Perfetto.

use crate::json::Json;
use crate::registry::{SpanStat, WORKER_SLOTS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use swt_wire::{wire_codes, wire_struct};

/// Events each worker-slot ring retains before overwriting the oldest.
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
    /// One recorded event, stamped with its slot-local sequence number. A
    /// distributed worker ships these as they are, name inline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimelineEvent {
        /// Slot-local monotone sequence number, starting at 0.
        pub seq: u64,
        pub kind: EventKind,
        /// Span path or counter name.
        pub name: String,
        /// Nanoseconds since the timeline epoch (first enable of this process).
        pub t_ns: u64,
        /// Span duration in nanoseconds (0 for counter marks).
        pub dur_ns: u64,
        /// Counter delta (0 for spans).
        pub delta: i64,
    }
}

/// Result of [`drain_since`]: the still-buffered events at or after the
/// requested cursor, the cursor to pass next time, and how many requested
/// events were already overwritten.
#[derive(Debug, Clone, Default)]
pub struct Drain {
    pub events: Vec<TimelineEvent>,
    /// Pass this as `since_seq` on the next call.
    pub next_seq: u64,
    /// Events in `[since_seq, next_seq)` that were overwritten before this
    /// read — the staleness signal for slow consumers.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Ring {
    /// Sequence number the next pushed event will get.
    next_seq: u64,
    /// Up to [`RING_CAPACITY`] most recent events, oldest first.
    buf: std::collections::VecDeque<TimelineEvent>,
}

impl Ring {
    fn push(&mut self, kind: EventKind, name: &str, t_ns: u64, dur_ns: u64, delta: i64) {
        if self.buf.len() >= RING_CAPACITY {
            self.buf.pop_front();
        }
        self.buf.push_back(TimelineEvent {
            seq: self.next_seq,
            kind,
            name: name.to_string(),
            t_ns,
            dur_ns,
            delta,
        });
        self.next_seq += 1;
    }
}

static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);

struct Timeline {
    /// One ring per worker slot plus the unattributed slot.
    slots: Vec<Mutex<Ring>>,
    epoch: Instant,
}

fn timeline() -> &'static Timeline {
    static GLOBAL: OnceLock<Timeline> = OnceLock::new();
    GLOBAL.get_or_init(|| Timeline {
        slots: (0..=WORKER_SLOTS).map(|_| Mutex::new(Ring::default())).collect(),
        epoch: Instant::now(),
    })
}

fn lock(slot: usize) -> MutexGuard<'static, Ring> {
    let tl = timeline();
    let m = &tl.slots[slot.min(WORKER_SLOTS)];
    // A ring holds no invariants across panics; recover the guard.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Start recording timeline events (also pins the epoch on first call).
/// Spans still require [`crate::enable`] — the timeline is a second gate,
/// not a replacement.
pub fn enable() {
    let _ = timeline(); // pin the epoch before any event can be recorded
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
    t.checked_duration_since(timeline().epoch).map_or(0, |d| d.as_nanos() as u64)
}

/// Nanoseconds since the timeline epoch.
pub fn now_ns() -> u64 {
    timeline().epoch.elapsed().as_nanos() as u64
}

/// Record a completed span occurrence into the ring of `worker`'s slot.
/// Called by the span layer at flush; callers must have checked
/// [`enabled`].
pub fn record_span(worker: Option<usize>, path: &str, t_ns: u64, dur_ns: u64) {
    lock(SpanStat::slot_for(worker)).push(EventKind::Span, path, t_ns, dur_ns, 0);
}

/// Record a counter-delta mark attributed to the current thread's worker.
/// This is the body of [`crate::event!`]; it gates on both switches so call
/// sites stay two relaxed loads when idle.
#[inline]
pub fn mark(name: &'static str, delta: i64) {
    if !crate::enabled() || !enabled() {
        return;
    }
    let t_ns = now_ns();
    lock(SpanStat::slot_for(crate::span::current_worker())).push(
        EventKind::Counter,
        name,
        t_ns,
        0,
        delta,
    );
}

/// Non-destructive read of slot `slot`'s events at or after `since_seq`.
///
/// The ring is bounded, so events older than `next_seq - RING_CAPACITY`
/// are gone; the gap between `since_seq` and the oldest survivor is
/// reported as `dropped`. Reading does not consume — the cursor lives with
/// the caller, which is what makes the stream safe to fan out.
pub fn drain_since(slot: usize, since_seq: u64) -> Drain {
    let ring = lock(slot);
    let oldest = ring.next_seq - ring.buf.len() as u64;
    let from = since_seq.max(oldest);
    let dropped = from - since_seq.min(from);
    let skip = (from - oldest) as usize;
    Drain {
        events: ring.buf.iter().skip(skip).cloned().collect(),
        next_seq: ring.next_seq,
        dropped,
    }
}

/// Clear every ring and reset all sequence numbers (test hygiene; the wire
/// stream assumes per-process seqs only ever grow while a run is live).
pub fn reset() {
    for slot in 0..=WORKER_SLOTS {
        let mut ring = lock(slot);
        ring.buf.clear();
        ring.next_seq = 0;
    }
}

/// Render `(pid, event)` pairs as a Chrome `trace_event` JSON document.
///
/// Spans become complete (`"ph":"X"`) events and counter marks become
/// thread-scoped instants (`"ph":"i"`) carrying the delta in `args`. `pid`
/// groups events per process in the viewer (0 = this process; the
/// coordinator uses `worker + 1` for remote workers) and the event's own
/// slot is unavailable here, so callers pass `tid` too.
pub fn chrome_trace_json(events: &[(u32, u32, TimelineEvent)]) -> String {
    let rows = events
        .iter()
        .map(|(pid, tid, ev)| {
            let mut row = vec![
                ("name".to_string(), Json::Str(ev.name.clone())),
                ("pid".to_string(), Json::Num(f64::from(*pid))),
                ("tid".to_string(), Json::Num(f64::from(*tid))),
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

    fn reset_timeline() {
        reset();
    }

    #[test]
    fn ring_bounds_and_drop_accounting() {
        let _lock = crate::test_lock();
        reset_timeline();
        for i in 0..(RING_CAPACITY + 10) {
            lock(3).push(EventKind::Counter, "t", i as u64, 0, 1);
        }
        let d = drain_since(3, 0);
        assert_eq!(d.events.len(), RING_CAPACITY);
        assert_eq!(d.dropped, 10, "the 10 oldest were overwritten");
        assert_eq!(d.next_seq, (RING_CAPACITY + 10) as u64);
        assert_eq!(d.events[0].seq, 10, "oldest survivor");
        // A caught-up cursor sees nothing new and nothing dropped.
        let d2 = drain_since(3, d.next_seq);
        assert!(d2.events.is_empty());
        assert_eq!(d2.dropped, 0);
        reset_timeline();
    }

    #[test]
    fn drain_is_cursor_based_and_non_destructive() {
        let _lock = crate::test_lock();
        reset_timeline();
        record_span(Some(1), "a.b", 100, 50);
        record_span(Some(1), "a.b", 200, 25);
        let first = drain_since(SpanStat::slot_for(Some(1)), 0);
        assert_eq!(first.events.len(), 2);
        let again = drain_since(SpanStat::slot_for(Some(1)), 0);
        assert_eq!(again.events.len(), 2, "reads must not consume");
        let tail = drain_since(SpanStat::slot_for(Some(1)), 1);
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.events[0].t_ns, 200);
        reset_timeline();
    }

    #[test]
    fn mark_gates_on_both_switches() {
        let _lock = crate::test_lock();
        crate::disable();
        disable();
        reset_timeline();
        mark("tl.test", 1); // both off
        crate::enable();
        mark("tl.test", 2); // timeline still off
        enable();
        mark("tl.test", 3); // both on → records
        disable();
        crate::disable();
        let d = drain_since(crate::registry::UNATTRIBUTED_SLOT, 0);
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].delta, 3);
        assert_eq!(d.events[0].kind, EventKind::Counter);
        reset_timeline();
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_phases() {
        let _lock = crate::test_lock();
        let events = vec![
            (
                0,
                2,
                TimelineEvent {
                    seq: 0,
                    kind: EventKind::Span,
                    name: "nas.eval".into(),
                    t_ns: 1500,
                    dur_ns: 2500,
                    delta: 0,
                },
            ),
            (
                1,
                2,
                TimelineEvent {
                    seq: 1,
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
