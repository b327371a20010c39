//! Std-only observability for the selective-weight-transfer stack.
//!
//! The paper's evaluation (Figs. 7–11) is built on time attribution: where
//! each candidate evaluation spends its wall clock (training vs. weight
//! transfer vs. checkpoint I/O) and how that splits across evaluator
//! workers. This crate is the measurement layer behind those claims:
//!
//! * **Span timers** — [`span!`] returns an RAII guard that records the
//!   elapsed wall time of a scope into a process-wide registry, keyed by the
//!   hierarchical dotted path of all enclosing spans on the same thread
//!   (`"nas.eval"` inside `"nas.eval"` → `"nas.eval.train"`). Totals are
//!   kept per evaluator worker (see [`span::set_worker`]).
//! * **Counters, histograms, gauges** — [`counter!`], [`histogram!`] and
//!   [`gauge!`] resolve a named metric once per call site (a `OnceLock`
//!   handle) and then mutate lock-free atomics.
//! * **Structured logging** — [`error!`] … [`trace!`] write leveled
//!   messages to stderr and, when configured, to a JSONL sink; the level is
//!   read from `SWT_LOG` (default `info`).
//! * **Run reports** — [`RunReport::capture`] snapshots the registry into a
//!   serializable per-worker breakdown written as `report.json` next to the
//!   NAS trace CSV.
//! * **Event timeline** — [`timeline`] keeps individual span completions
//!   and [`event!`] counter-delta marks in bounded per-worker-slot rings,
//!   drainable as deltas-since-seq and exportable as Chrome `trace_event`
//!   JSON. Off by default behind its own switch on top of [`enabled`].
//! * **Live endpoints** — [`serve`] is a tiny single-threaded HTTP
//!   listener (`/status`, `/metrics`, `/trace`) over any [`serve::ServeSource`],
//!   used by `swt dist-run --serve` and `swt dist-top`.
//!
//! Instrumentation is **disabled by default** and must stay off the tensor
//! hot path: every recording primitive first checks one relaxed atomic load
//! ([`enabled`]) and does nothing else when the switch is off. `bench_obs`
//! (crate `swt-bench`) regresses this overhead budget (< 2% of a training
//! batch).

pub mod json;
pub mod log;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod serve;
pub mod span;
pub mod timeline;

pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use report::{LayerKindRow, RunReport};
pub use serve::{ObsServer, ServeSource};
pub use span::SpanGuard;
pub use timeline::TimelineEvent;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn metric/span recording on (logging is governed by level, not this).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn metric/span recording off; existing values are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans/counters/histograms/gauges record anything. One relaxed
/// load — this is the entire disabled-path cost of every primitive.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every registered span/counter/histogram/gauge **in place**.
///
/// Identities survive a reset: handles cached by call sites (and the
/// thread-local span cache) stay valid, so this is safe to call between
/// back-to-back NAS runs to get per-run reports.
pub fn reset() {
    registry::global().reset();
}

/// Time the enclosing scope under `name` (a `&'static str` path segment).
///
/// ```
/// {
///     let _g = swt_obs::span!("nas.eval");
///     // … the guard records the elapsed time when it drops …
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Record a counter-delta mark on the event timeline, attributed to the
/// current thread's worker. Two relaxed loads when the timeline (or all
/// instrumentation) is off; unlike [`counter!`] this records a discrete
/// *event* (when/where), not an aggregate.
///
/// ```
/// swt_obs::event!("nas.dispatch", 1);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr, $delta:expr) => {
        $crate::timeline::mark($name, $delta)
    };
}

/// Resolve (once per call site) a named [`Counter`].
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Counter>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry::global().counter($name))
    }};
}

/// Resolve (once per call site) a named [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Histogram>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry::global().histogram($name))
    }};
}

/// Resolve (once per call site) a named [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Gauge>> =
            std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry::global().gauge($name))
    }};
}

/// Serializes tests that toggle the process-global enabled switch or read
/// the global registry; the cargo test harness runs tests concurrently.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_disable_round_trip() {
        let _lock = super::test_lock();
        super::enable();
        assert!(super::enabled());
        super::disable();
        assert!(!super::enabled());
    }
}
