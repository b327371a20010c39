//! Reusable scratch-buffer arena for the training hot path.
//!
//! Steady-state training runs the same shapes batch after batch; the arena
//! lets every kernel and layer reuse last batch's buffers instead of hitting
//! the allocator. Ownership rule: **one `Workspace` per model** (it is
//! dropped with the model, so a candidate never inherits another's pool); a
//! `Workspace` is never shared across threads.
//!
//! Protocol: `take`/`take_zeroed` a buffer, wrap it in a [`Tensor`] if
//! needed, and `give`/`recycle` it back once the values are dead. After the
//! first batch warms the pool, `take` is a free-list pop.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

thread_local! {
    /// Fallback arena for the workspace-less convenience wrappers
    /// (`matmul`, `conv2d_forward`, …).
    static LOCAL_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Run `f` with this thread's fallback workspace. Used by the convenience
/// wrappers so even workspace-unaware callers reuse pack buffers across
/// calls. `f` must not re-enter `with_thread_workspace`.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    LOCAL_WS.with(|ws| f(&mut ws.borrow_mut()))
}

/// A free-list of `f32` buffers, recycled across batches.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
    alloc_misses: u64,
}

impl Workspace {
    /// An empty arena.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A buffer of exactly `len` elements with **unspecified contents**
    /// (recycled values or zeros). Use [`take_zeroed`](Self::take_zeroed)
    /// when the kernel does not overwrite every element.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pop_fit(len);
        // Growing pads only the delta with zeros; shrinking is a truncate.
        // Either way the existing prefix is left as-is — that is the point.
        buf.resize(len, 0.0);
        buf
    }

    /// A buffer of `len` zeros.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pop_fit(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// A tensor of `shape` with unspecified contents (every element must be
    /// overwritten by the caller).
    pub fn take_tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let buf = self.take(shape.numel());
        Tensor::from_vec(shape, buf)
    }

    /// A tensor of `shape` filled with zeros.
    pub fn take_tensor_zeroed(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let buf = self.take_zeroed(shape.numel());
        Tensor::from_vec(shape, buf)
    }

    /// Return a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Return a tensor's storage to the pool for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// How many `take`s had to hit the allocator (pool empty, or no pooled
    /// buffer large enough). At steady state on a warmed arena this stops
    /// moving; the allocation-discipline tests pin that.
    pub fn alloc_misses(&self) -> u64 {
        self.alloc_misses
    }

    /// Pop the smallest pooled buffer whose capacity covers `len`; if none
    /// fits, pop the largest (its one realloc upgrades the pool for next
    /// time); if the pool is empty, allocate fresh.
    fn pop_fit(&mut self, len: usize) -> Vec<f32> {
        if self.free.is_empty() {
            self.alloc_misses += 1;
            return Vec::with_capacity(len);
        }
        let mut best: Option<usize> = None; // smallest capacity >= len
        let mut largest = 0usize;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.free[b].capacity())
            {
                best = Some(i);
            }
            if buf.capacity() >= self.free[largest].capacity() {
                largest = i;
            }
        }
        if best.is_none() {
            // The largest pooled buffer still has to grow for this request.
            self.alloc_misses += 1;
        }
        self.free.swap_remove(best.unwrap_or(largest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_storage() {
        let mut ws = Workspace::new();
        let buf = ws.take(256);
        let ptr = buf.as_ptr();
        ws.give(buf);
        let again = ws.take(128);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled buffer back");
        assert_eq!(again.len(), 128);
    }

    #[test]
    fn take_zeroed_really_zeroes() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(64);
        buf.iter_mut().for_each(|v| *v = 7.0);
        ws.give(buf);
        let z = ws.take_zeroed(64);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.give(Vec::with_capacity(1024));
        ws.give(Vec::with_capacity(64));
        ws.give(Vec::with_capacity(256));
        let buf = ws.take(100);
        assert_eq!(buf.capacity(), 256);
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn alloc_misses_stop_once_the_pool_is_warm() {
        let mut ws = Workspace::new();
        let b = ws.take(512);
        assert_eq!(ws.alloc_misses(), 1);
        ws.give(b);
        let b = ws.take(256); // pooled buffer covers it
        assert_eq!(ws.alloc_misses(), 1);
        ws.give(b);
        let b = ws.take(1024); // largest pooled buffer must grow
        assert_eq!(ws.alloc_misses(), 2);
        ws.give(b);
        let b = ws.take(1024);
        assert_eq!(ws.alloc_misses(), 2);
        ws.give(b);
    }

    #[test]
    fn tensor_roundtrip_is_allocation_free_after_warmup() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor([4, 8]);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        let t2 = ws.take_tensor_zeroed([8, 4]);
        assert_eq!(t2.data().as_ptr(), ptr);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }
}
