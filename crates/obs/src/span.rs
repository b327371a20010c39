//! Hierarchical RAII span timers with per-worker attribution.
//!
//! Each thread keeps a cached *span tree*: one node per distinct dotted
//! path it has ever entered (`"nas.eval"` then `"train"` →
//! `"nas.eval.train"`). Entering a span is a linear scan of the current
//! node's children — no allocation, no hashing, no registry lock once a
//! path has been seen — and the registry mutex is touched only the first
//! time a thread sees a path.
//!
//! Closed spans are not applied to the registry immediately: they are
//! buffered thread-locally and flushed when the outermost span of the tree
//! closes (or when the buffer reaches a fixed cap, whichever comes
//! first). Buffered records are *completed* spans, so deferring them is
//! observably identical for report totals while keeping the per-span cost
//! to a couple of thread-local pushes. The flush also feeds the event
//! timeline ([`crate::timeline`]) when it is enabled.

use crate::registry::{self, SpanStat};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// Buffered span records are flushed to the registry at the latest when
/// this many accumulate, bounding the buffer even for pathological span
/// trees that never return to depth 0.
const FLUSH_AT: usize = 128;

thread_local! {
    static TREE: RefCell<SpanTree> = RefCell::new(SpanTree::new());
    /// Worker id this thread's spans are attributed to.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Attribute all subsequent spans on this thread to evaluator `worker`.
pub fn set_worker(worker: usize) {
    WORKER.with(|w| w.set(Some(worker)));
}

/// Stop attributing this thread's spans to a worker.
pub fn clear_worker() {
    WORKER.with(|w| w.set(None));
}

/// The worker id currently attributed to this thread, if any.
pub fn current_worker() -> Option<usize> {
    WORKER.with(|w| w.get())
}

/// Flush this thread's buffered span records to the registry now.
///
/// Normally unnecessary — records flush when the span tree returns to its
/// root — but long-lived threads that read the registry mid-tree (tests,
/// snapshot exporters) can force the buffer out.
pub fn flush_thread() {
    TREE.with(|t| t.borrow_mut().flush());
}

/// One cached node of the thread's span tree.
struct Node {
    name: &'static str,
    /// Full dotted path (kept for the timeline's event names).
    path: Arc<str>,
    /// Registry handle; `None` only for the sentinel root.
    stat: Option<Arc<SpanStat>>,
    children: Vec<usize>,
}

/// A closed span waiting to be applied to the registry.
struct Pending {
    node: usize,
    worker: Option<usize>,
    start: Instant,
    dur_ns: u64,
}

struct SpanTree {
    nodes: Vec<Node>,
    /// Node the next entered span nests under (0 = root).
    current: usize,
    /// Number of currently open spans on this thread.
    depth: usize,
    buf: Vec<Pending>,
}

impl SpanTree {
    fn new() -> SpanTree {
        SpanTree {
            nodes: vec![Node { name: "", path: Arc::from(""), stat: None, children: Vec::new() }],
            current: 0,
            depth: 0,
            buf: Vec::new(),
        }
    }

    /// Enter `name` under the current node; returns `(node, prev_current,
    /// prev_depth)` for the guard to restore on drop.
    fn enter(&mut self, name: &'static str) -> (usize, usize, usize) {
        let cur = self.current;
        let node = match self.nodes[cur].children.iter().copied().find(|&c| {
            let n = self.nodes[c].name;
            // Pointer equality catches the common literal-reuse case
            // before falling back to a content compare.
            std::ptr::eq(n.as_ptr(), name.as_ptr()) && n.len() == name.len() || n == name
        }) {
            Some(node) => node,
            None => self.intern_child(cur, name),
        };
        let prev_depth = self.depth;
        self.current = node;
        self.depth += 1;
        (node, cur, prev_depth)
    }

    /// Build (and intern in the registry) the child `name` of `parent`.
    fn intern_child(&mut self, parent: usize, name: &'static str) -> usize {
        let path = if self.nodes[parent].path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.nodes[parent].path, name)
        };
        let stat = registry::global().span(&path);
        let node = self.nodes.len();
        self.nodes.push(Node {
            name,
            path: Arc::from(path),
            stat: Some(stat),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(node);
        node
    }

    /// Close a span: buffer its record and restore the tree position.
    fn exit(&mut self, active: Active, dur_ns: u64, worker: Option<usize>) {
        self.buf.push(Pending { node: active.node, worker, start: active.start, dur_ns });
        // Restoring the saved position (rather than popping) means an
        // out-of-order drop cannot corrupt sibling paths.
        self.current = active.prev_current;
        self.depth = active.prev_depth;
        if self.depth == 0 || self.buf.len() >= FLUSH_AT {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let timeline_on = crate::timeline::enabled();
        for p in self.buf.drain(..) {
            let node = &self.nodes[p.node];
            if let Some(stat) = &node.stat {
                stat.record(p.worker, p.dur_ns);
            }
            if timeline_on {
                crate::timeline::record_span(
                    &node.path,
                    crate::timeline::instant_ns(p.start),
                    p.dur_ns,
                );
            }
        }
    }
}

/// RAII guard created by [`crate::span!`]: records the elapsed wall time of
/// its scope when dropped. A no-op (no allocation, no lock) while
/// instrumentation is disabled.
#[must_use = "a span guard records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    inner: Option<Active>,
}

struct Active {
    node: usize,
    /// Tree position before this span opened; drop restores it so an
    /// out-of-order drop cannot corrupt sibling paths.
    prev_current: usize,
    prev_depth: usize,
    start: Instant,
}

impl SpanGuard {
    /// Open a span named `name` under the current thread's span path.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { inner: None };
        }
        SpanGuard { inner: Some(Self::enter_slow(name)) }
    }

    fn enter_slow(name: &'static str) -> Active {
        let (node, prev_current, prev_depth) = TREE.with(|t| t.borrow_mut().enter(name));
        Active { node, prev_current, prev_depth, start: Instant::now() }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            let dur_ns = active.start.elapsed().as_nanos() as u64;
            let worker = current_worker();
            TREE.with(|t| t.borrow_mut().exit(active, dur_ns, worker));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{SpanStat, UNATTRIBUTED_SLOT};

    fn total(path: &str, slot: usize) -> (u64, u64) {
        let stat = registry::global().span(path);
        let (count, total_ns, ..) = stat.snapshot(slot);
        (count, total_ns)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::test_lock();
        crate::disable();
        crate::reset();
        {
            let _g = crate::span!("obs_test.disabled");
        }
        flush_thread();
        assert_eq!(total("obs_test.disabled", UNATTRIBUTED_SLOT).0, 0);
    }

    #[test]
    fn nested_spans_build_dotted_paths() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        {
            let _outer = crate::span!("obs_test.outer");
            {
                let _inner = crate::span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        {
            let _sibling = crate::span!("obs_test.sibling");
        }
        crate::disable();
        let (count, ns) = total("obs_test.outer.inner", UNATTRIBUTED_SLOT);
        assert_eq!(count, 1);
        assert!(ns >= 1_000_000, "inner span ≥ 1ms, got {ns}");
        let (outer_count, outer_ns) = total("obs_test.outer", UNATTRIBUTED_SLOT);
        assert_eq!(outer_count, 1);
        assert!(outer_ns >= ns, "outer encloses inner");
        // The sibling opened after `outer` closed must not nest under it.
        assert_eq!(total("obs_test.sibling", UNATTRIBUTED_SLOT).0, 1);
        assert_eq!(total("obs_test.outer.obs_test.sibling", UNATTRIBUTED_SLOT).0, 0);
    }

    #[test]
    fn records_buffer_until_the_root_closes() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        {
            let _outer = crate::span!("obs_test.buffered");
            {
                let _inner = crate::span!("leaf");
            }
            // The inner span is closed but still buffered: the registry
            // must not see it until the tree returns to depth 0.
            assert_eq!(total("obs_test.buffered.leaf", UNATTRIBUTED_SLOT).0, 0);
        }
        assert_eq!(total("obs_test.buffered.leaf", UNATTRIBUTED_SLOT).0, 1);
        assert_eq!(total("obs_test.buffered", UNATTRIBUTED_SLOT).0, 1);
        crate::disable();
    }

    #[test]
    fn deep_buffers_flush_at_the_cap() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        {
            let _root = crate::span!("obs_test.cap");
            for _ in 0..(super::FLUSH_AT + 5) {
                let _leaf = crate::span!("leaf");
            }
            // Still inside the root, yet ≥ FLUSH_AT records must have been
            // applied by the bounded-buffer flush.
            let (count, _) = total("obs_test.cap.leaf", UNATTRIBUTED_SLOT);
            assert!(count >= super::FLUSH_AT as u64, "flushed at the cap, saw {count}");
        }
        let (count, _) = total("obs_test.cap.leaf", UNATTRIBUTED_SLOT);
        assert_eq!(count, (super::FLUSH_AT + 5) as u64);
        crate::disable();
    }

    #[test]
    fn flush_feeds_the_timeline_when_enabled() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        crate::timeline::reset();
        crate::timeline::enable();
        {
            let _g = crate::span!("obs_test.timelined");
        }
        crate::timeline::disable();
        crate::disable();
        let (events, _) = crate::timeline::take(usize::MAX);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "obs_test.timelined");
        assert_eq!(events[0].kind, crate::timeline::EventKind::Span);
    }

    #[test]
    fn worker_attribution_is_per_thread() {
        let _lock = crate::test_lock();
        crate::enable();
        crate::reset();
        let handles: Vec<_> = (0..3)
            .map(|w| {
                std::thread::spawn(move || {
                    set_worker(w);
                    let _g = crate::span!("obs_test.worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        crate::disable();
        let stat = registry::global().span("obs_test.worker");
        for w in 0..3 {
            assert_eq!(stat.snapshot(SpanStat::slot_for(Some(w))).0, 1, "worker {w}");
        }
        assert_eq!(stat.snapshot(UNATTRIBUTED_SLOT).0, 0);
    }
}
