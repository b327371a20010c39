//! Minimal data-parallel helpers on std scoped threads.
//!
//! The repository used to route CPU parallelism through a global rayon pool;
//! that pool multiplied with the NAS evaluator's own worker threads
//! (`workers × rayon_threads` runnable threads) and cannot be built offline.
//! This module replaces it with one scoped-thread loop and a thread *budget*
//! that belongs to the thread that runs the kernels: each thread starts at the
//! hardware count, an evaluator thread pins its [`share`] of the machine with
//! [`scoped_max_threads`], and every thread the loop spawns starts with an
//! equal split of its caller's budget. Kernel parallelism nested inside
//! [`par_map`] or an evaluator therefore divides its caller's threads instead
//! of multiplying them.
//!
//! Work items are handed out through a shared cursor, so uneven items (the
//! last short chunk, variable-cost candidates) balance automatically.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// This thread's budget; `0` means "auto": the hardware count.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// What "auto" resolved to. Detection is an affinity syscall and cgroup file
/// reads (tens of microseconds) and every GEMM asks for the budget, so it
/// runs once per process.
static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

/// RAII guard restoring this thread's previous budget; see
/// [`scoped_max_threads`]. It stays on the thread that made it.
#[must_use = "dropping the guard immediately restores the previous budget"]
pub struct ThreadBudgetGuard {
    prev: usize,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.prev));
    }
}

/// Cap the threads the parallel helpers may use when called from this
/// thread (`0` is the hardware count), until the returned guard drops and
/// restores the previous setting. Other threads keep their own budgets.
pub fn scoped_max_threads(n: usize) -> ThreadBudgetGuard {
    ThreadBudgetGuard { prev: BUDGET.with(|b| b.replace(n)), _this_thread: PhantomData }
}

/// This thread's effective budget (always ≥ 1).
pub fn max_threads() -> usize {
    resolve(BUDGET.with(Cell::get), &HARDWARE_THREADS, detect_hardware)
}

/// The budget of one of `evaluators` concurrent evaluators: an equal share
/// of the hardware threads, at least 1, so evaluators and their kernels do
/// not oversubscribe the host while there are no more evaluators than
/// hardware threads.
pub fn share(evaluators: usize) -> usize {
    (resolve(0, &HARDWARE_THREADS, detect_hardware) / evaluators).max(1)
}

fn detect_hardware() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `budget`, or for the auto budget `0` the hardware count — `detect`ed on
/// the first such call and remembered in `hardware`.
fn resolve(budget: usize, hardware: &OnceLock<usize>, detect: impl FnOnce() -> usize) -> usize {
    match budget {
        0 => *hardware.get_or_init(detect),
        n => n,
    }
}

/// Apply `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of `data`
/// (last chunk may be short), in parallel when the thread budget allows.
///
/// Chunks are disjoint `&mut` slices, so this is race-free by construction.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // One zero-sized piece per thread the budget allows: no allocation.
    let mut pieces = vec![(); max_threads()];
    par_chunks_mut_scratch(data, chunk_len, &mut pieces, 1, |i, chunk, _| f(i, chunk));
}

/// [`par_chunks_mut`] with per-thread scratch: `scratch` is split into
/// disjoint `piece_len`-sized pieces, one owned by each worker thread, and
/// `f(chunk_index, chunk, piece)` receives its worker's piece on every call.
///
/// This is how hot loops stay allocation-free under parallel dispatch: the
/// caller sizes `scratch` from its [`crate::Workspace`] for
/// `max_threads().min(n_chunks)` pieces and lends slices out, instead of
/// every task allocating its own buffer. At most `scratch.len() / piece_len`
/// threads run, so a short `scratch` degrades parallelism, never safety; with
/// one piece the chunks run in order on the calling thread.
///
/// This is the module's one scoped-thread loop. Each thread it spawns runs
/// `f` with `budget / threads` as its own budget.
pub fn par_chunks_mut_scratch<T, S, F>(
    data: &mut [T],
    chunk_len: usize,
    scratch: &mut [S],
    piece_len: usize,
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert!(piece_len > 0 && scratch.len() >= piece_len, "scratch must hold >= 1 piece");
    let n_chunks = data.len().div_ceil(chunk_len);
    let budget = max_threads();
    let threads = budget.min(n_chunks).min(scratch.len() / piece_len);
    if threads <= 1 {
        swt_obs::counter!("tensor.pool.serial_chunks").add(n_chunks as u64);
        let piece = &mut scratch[..piece_len];
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk, piece);
        }
        return;
    }
    swt_obs::counter!("tensor.pool.dispatches").inc();
    swt_obs::counter!("tensor.pool.tasks").add(n_chunks as u64);
    // `threads ≤ budget`, so every spawned thread keeps at least one.
    let split = budget / threads;
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let queue = &queue;
    let f = &f;
    std::thread::scope(|s| {
        for piece in scratch.chunks_mut(piece_len).take(threads) {
            s.spawn(move || {
                let _budget = scoped_max_threads(split);
                // Idle time = waiting on the shared cursor for the next work
                // item; per-thread accumulation keeps the measurement out of
                // the contended region.
                let measure = swt_obs::enabled();
                let mut idle_ns = 0u64;
                loop {
                    let wait = measure.then(Instant::now);
                    let next = queue.lock().unwrap().next();
                    if let Some(t0) = wait {
                        idle_ns += t0.elapsed().as_nanos() as u64;
                    }
                    match next {
                        Some((i, chunk)) => f(i, chunk, piece),
                        None => break,
                    }
                }
                if measure {
                    swt_obs::histogram!("tensor.pool.idle_ns").observe(idle_ns);
                }
            });
        }
    });
}

/// Map `f(index, item)` over `items`, preserving order, in parallel when the
/// thread budget allows.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    par_chunks_mut(&mut out, 1, |i, slot| slot[0] = Some(f(i, &items[i])));
    out.into_iter().map(|r| r.expect("par_map slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty() {
        let items: Vec<u32> = Vec::new();
        assert!(par_map(&items, |_, &x| x).is_empty());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        let mut data = vec![0u32; 103];
        par_chunks_mut(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (pos / 10) as u32, "pos {pos}");
        }
    }

    #[test]
    fn par_chunks_mut_scratch_visits_every_chunk_with_a_private_piece() {
        let mut data = vec![0u32; 97];
        // Scratch sized for at most 2 workers; pieces are tagged per use so
        // the test catches any sharing of one piece by two live tasks.
        let mut scratch = vec![0u32; 2 * 4];
        par_chunks_mut_scratch(&mut data, 10, &mut scratch, 4, |i, chunk, piece| {
            assert_eq!(piece.len(), 4);
            piece.fill(i as u32 + 1);
            for v in chunk.iter_mut() {
                *v = piece[3];
            }
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (pos / 10) as u32, "pos {pos}");
        }
    }

    #[test]
    fn hardware_threads_are_detected_once() {
        let hardware = OnceLock::new();
        let detections = AtomicUsize::new(0);
        let detect = || {
            detections.fetch_add(1, Ordering::Relaxed);
            6
        };
        // An explicit budget never asks; the auto budget asks the first time.
        assert_eq!(resolve(3, &hardware, detect), 3);
        assert_eq!(detections.load(Ordering::Relaxed), 0);
        for _ in 0..1000 {
            assert_eq!(resolve(0, &hardware, detect), 6);
        }
        assert_eq!(resolve(2, &hardware, detect), 2);
        assert_eq!(detections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_is_clamped_to_at_least_one() {
        {
            let _one = scoped_max_threads(1);
            assert_eq!(max_threads(), 1);
            let items = vec![1u32, 2, 3];
            assert_eq!(par_map(&items, |_, &x| x + 1), vec![2, 3, 4]);
        }
        {
            let _auto = scoped_max_threads(0);
            assert!(max_threads() >= 1);
        }
        // The scoped guard restores whatever was set before it.
        let _three = scoped_max_threads(3);
        {
            let _g = scoped_max_threads(1);
            assert_eq!(max_threads(), 1);
        }
        assert_eq!(max_threads(), 3);
    }

    /// Work nested inside `par_map` divides the caller's budget: four items
    /// on four threads get one each, two items get two each, and the
    /// caller's own budget is untouched.
    #[test]
    fn nested_work_splits_the_callers_budget() {
        let _four = scoped_max_threads(4);
        assert_eq!(par_map(&[(); 4], |_, _| max_threads()), vec![1; 4]);
        assert_eq!(par_map(&[(); 2], |_, _| max_threads()), vec![2; 2]);
        assert_eq!(max_threads(), 4);
    }

    /// A budget pinned on one thread is not another thread's: a thread
    /// spawned outside the loop starts at the hardware count.
    #[test]
    fn a_new_thread_starts_at_the_hardware_budget() {
        let _one = scoped_max_threads(1);
        let spawned = std::thread::spawn(max_threads).join().unwrap();
        assert_eq!(spawned, std::thread::available_parallelism().map_or(1, |n| n.get()));
        assert_eq!(share(1), spawned);
    }
}
