//! Store-path allocation discipline.
//!
//! `swt-nn`'s `alloc_discipline` pins a training step; this pins what every
//! candidate does around it: one `save`, one `load_index` and one
//! `load_tensors` of an Uno-sized state (~270 KB, largest tensor 128 KiB),
//! against a bare `DirStore` and against the `CachedStore` a search puts in
//! front of it. After two warm-up cycles a cycle makes **no** allocation of
//! 64 KiB or more. On the bare store the container is built in the thread's
//! reused byte buffer and handed to one `write`, and payloads are read back
//! through the same buffer; behind the cache the container is built in the
//! slab the previous cycle's `evict` handed back, written from there, and
//! both reads are hits on it (fresh pages are what this host charges most
//! for). Either way the decoded tensors come from (and here, like the
//! evaluator, go back to) the thread's arena — from one thread, and from two
//! at once (buffers are per thread and a slab has one owner, so a second
//! writer must not push either back to the allocator).
//!
//! One `#[test]` on purpose: the allocation counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use swt_checkpoint::{CachedStore, CheckpointStore, DirStore};
use swt_tensor::{with_thread_workspace, Rng, Tensor};

/// A checkpoint-sized allocation: a container, a payload, a tensor.
const LARGE: usize = 64 * 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn uno_sized_state(seed: u64) -> Vec<(String, Tensor)> {
    let mut rng = Rng::seed(seed);
    let mut state = Vec::new();
    for (i, (rows, cols)) in
        [(256, 128), (128, 128), (128, 96), (96, 64), (64, 1)].iter().enumerate()
    {
        let kernel = Tensor::rand_normal([*rows, *cols], 0.0, 0.1, &mut rng);
        state.push((format!("n{i}_dense/kernel"), kernel));
        state.push((format!("n{i}_dense/bias"), Tensor::zeros([*cols])));
    }
    state
}

/// What one candidate asks of the store, with the evaluator's hand-back of
/// the provider tensors to the thread arena and, last, the watermark's hint
/// that this id is dead (a no-op on a bare store).
fn cycle(store: &dyn CheckpointStore, id: &str, state: &[(String, Tensor)], names: &[String]) {
    let bytes = store.save(id, state).expect("save");
    let index = store.load_index(id).expect("load_index");
    assert_eq!(index.encoded_len(), bytes);
    let tensors = store.load_tensors(id, names).expect("load_tensors");
    assert_eq!(tensors.len(), state.len());
    with_thread_workspace(|ws| tensors.into_iter().for_each(|(_, t)| ws.recycle(t)));
    store.evict(id);
}

#[test]
fn warmed_save_and_selective_read_make_no_checkpoint_sized_allocation() {
    let dir = std::env::temp_dir().join(format!("swt_ckpt_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bare = DirStore::new(dir.join("bare")).expect("open store");
    let cached = CachedStore::new(DirStore::new(dir.join("cached")).expect("open store"), 8 << 20);
    for (what, store) in [("DirStore", &bare as &dyn CheckpointStore), ("CachedStore", &cached)] {
        no_large_allocation_once_warm(what, store);
    }
    assert_eq!(cached.resident_bytes(), 0, "every cycle ended with its id evicted");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

fn no_large_allocation_once_warm(what: &str, store: &dyn CheckpointStore) {
    let state = uno_sized_state(1);
    let names: Vec<String> = state.iter().map(|(n, _)| n.clone()).collect();
    assert!(state.iter().any(|(_, t)| 4 * t.numel() >= LARGE), "the state must be able to fail");

    // One thread.
    for i in 0..2 {
        cycle(store, &format!("warm{i}"), &state, &names);
    }
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for i in 0..10 {
        cycle(store, &format!("one{i}"), &state, &names);
    }
    let counted = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(counted, 0, "{what}: one thread, ten warmed cycles");

    // Two threads at once, each warming its own buffers first — and each
    // holding a saved container while the other holds one, so that two slabs
    // exist however the warm-ups interleave. The barrier brackets the counted
    // window: nothing but the twenty cycles runs in it.
    let barrier = Barrier::new(3);
    let counted = std::thread::scope(|s| {
        for t in 0..2 {
            let (state, names, barrier) = (&state, &names, &barrier);
            s.spawn(move || {
                for i in 0..2 {
                    cycle(store, &format!("warm{t}_{i}"), state, names);
                }
                store.save(&format!("held{t}"), state).expect("save");
                barrier.wait();
                store.evict(&format!("held{t}"));
                barrier.wait();
                barrier.wait();
                for i in 0..10 {
                    cycle(store, &format!("two{t}_{i}"), state, names);
                }
                barrier.wait();
            });
        }
        barrier.wait();
        barrier.wait();
        let before = LARGE_ALLOCS.load(Ordering::Relaxed);
        barrier.wait();
        barrier.wait();
        LARGE_ALLOCS.load(Ordering::Relaxed) - before
    });
    assert_eq!(counted, 0, "{what}: two threads, ten warmed cycles each");
}
