//! Shared infrastructure for the integration tests.
//!
//! Integration-test binaries are separate crates; each `#[path]`-includes
//! this module, so every helper is `pub` and some are unused in any single
//! binary (hence the `dead_code` allowance).

#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use swt::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp dir unique across processes (pid) and across calls within this
/// process (counter), so concurrent test binaries and repeated tests in one
/// binary can never collide on a path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swt_{tag}_{}_{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll `cond` until it returns true or `timeout` elapses — the
/// deadline-based replacement for fixed sleeps when a test waits on state
/// produced by another process (worker checkpoints on the shared store,
/// reaped children, …). Returns whether the condition was met, so callers
/// assert with their own message.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > deadline {
            // One last look: the condition may have become true while the
            // poller was asleep right at the deadline.
            return cond();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Conservation: folding every per-worker snapshot through
/// `RunReport::merge` must equal the plain per-counter (and per-histogram)
/// sum over processes — report.json totals for a multi-process run are
/// produced exactly this way.
pub fn assert_conserved(stats: &DistRunStats, what: &str) {
    let merged = stats.workers_report();
    let mut names: Vec<&str> = Vec::new();
    for (_, m) in &stats.per_worker {
        for c in &m.counters {
            if !names.contains(&c.name.as_str()) {
                names.push(&c.name);
            }
        }
    }
    assert!(!names.is_empty(), "{what}: workers reported no counters at all");
    for name in names {
        let sum: u64 = stats.per_worker.iter().map(|(_, m)| m.counter(name)).sum();
        assert_eq!(merged.counter(name), sum, "{what}: counter `{name}` not conserved");
    }
    for h in &merged.histograms {
        let (mut count, mut sum) = (0u64, 0u64);
        for (_, m) in &stats.per_worker {
            if let Some(wh) = m.histograms.iter().find(|x| x.name == h.name) {
                count += wh.count;
                sum += wh.sum;
            }
        }
        assert_eq!((h.count, h.sum), (count, sum), "{what}: histogram `{}` not conserved", h.name);
    }
}

/// What one injected worker kill must leave behind. `maybe_inject_kill`
/// fires while the victim holds a candidate, but a `Result` already in the
/// socket is processed before the EOF — then nothing is left to reassign, so
/// "at least one reassignment" is a race, not a property. Structural instead:
/// exactly one loss, at most one reassignment, and every candidate id traced
/// exactly once (nothing dropped with the victim, nothing delivered twice).
pub fn assert_kill_absorbed(trace: &NasTrace, lost: usize, reassigned: usize, what: &str) {
    assert_eq!(lost, 1, "{what}: the injected kill must be observed as exactly one loss");
    assert!(reassigned <= 1, "{what}: one kill reassigned {reassigned} candidates");
    let mut ids: Vec<u64> = trace.events.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.events.len(), "{what}: a candidate id was traced twice");
}

/// The A/B identity contract: everything the strategy and the paper's
/// analyses consume must match bit-for-bit.
pub fn assert_traces_identical(a: &NasTrace, b: &NasTrace, what: &str) {
    assert_eq!(a.events.len(), b.events.len(), "{what}: event counts differ");
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x.id, y.id, "{what}: id order diverged");
        assert_eq!(x.arch, y.arch, "{what}: arch of c{} diverged", x.id);
        assert_eq!(x.parent, y.parent, "{what}: parent of c{} diverged", x.id);
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score of c{} diverged ({} vs {})",
            x.id,
            x.score,
            y.score
        );
        assert_eq!(
            x.transfer_tensors, y.transfer_tensors,
            "{what}: transfer tensors of c{} diverged",
            x.id
        );
        assert_eq!(
            x.transfer_bytes, y.transfer_bytes,
            "{what}: transfer bytes of c{} diverged",
            x.id
        );
    }
    let top_a: Vec<u64> = a.top_k(5).iter().map(|e| e.id).collect();
    let top_b: Vec<u64> = b.top_k(5).iter().map(|e| e.id).collect();
    assert_eq!(top_a, top_b, "{what}: top-K diverged");
}
