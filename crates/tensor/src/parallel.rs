//! Minimal data-parallel helpers on std scoped threads.
//!
//! The repository used to route CPU parallelism through a global rayon pool;
//! that pool multiplied with the NAS evaluator's own worker threads
//! (`workers × rayon_threads` runnable threads) and cannot be built offline.
//! This module replaces it with two primitives on `std::thread::scope` plus a
//! process-wide thread *budget* that the NAS runner sizes from
//! `NasConfig.workers`, so kernel parallelism and evaluator parallelism share
//! one explicit cap instead of multiplying.
//!
//! Work items are handed out through a shared cursor, so uneven items (the
//! last short chunk, variable-cost candidates) balance automatically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `0` means "auto": use `std::thread::available_parallelism`.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// What "auto" resolved to. Detection is an affinity syscall and cgroup file
/// reads (tens of microseconds) and every GEMM asks for the budget, so it
/// runs once per process.
static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

/// Cap the number of threads any parallel helper in this process may use.
/// `0` restores the default (hardware parallelism). The NAS runner calls this
/// with `hardware / workers` so evaluator workers and kernel parallelism do
/// not multiply.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// RAII guard restoring a previous thread budget; see [`scoped_max_threads`].
#[must_use = "dropping the guard immediately restores the previous budget"]
pub struct ThreadBudgetGuard {
    prev: usize,
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        MAX_THREADS.store(self.prev, Ordering::Relaxed);
    }
}

/// Set the thread budget like [`set_max_threads`], returning a guard that
/// restores the previous setting (including the `0` auto default) when
/// dropped. The NAS runner holds one per run, so a quick run following a
/// paper run in the same process (bench A/Bs, test binaries) does not
/// inherit the previous run's cap.
pub fn scoped_max_threads(n: usize) -> ThreadBudgetGuard {
    ThreadBudgetGuard { prev: MAX_THREADS.swap(n, Ordering::Relaxed) }
}

/// The current effective thread budget (always ≥ 1).
pub fn max_threads() -> usize {
    resolve(MAX_THREADS.load(Ordering::Relaxed), &HARDWARE_THREADS, || {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// `budget`, or for the auto budget `0` the hardware count — `detect`ed on
/// the first such call and remembered in `hardware`.
fn resolve(budget: usize, hardware: &OnceLock<usize>, detect: impl FnOnce() -> usize) -> usize {
    match budget {
        0 => *hardware.get_or_init(detect),
        n => n,
    }
}

/// Serialises the unit tests that change the process-wide budget, which the
/// test harness would otherwise interleave.
#[cfg(test)]
pub(crate) static BUDGET_TESTS: Mutex<()> = Mutex::new(());

fn threads_for(items: usize) -> usize {
    max_threads().min(items).max(1)
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
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads_for(n_chunks);
    if threads <= 1 {
        swt_obs::counter!("tensor.pool.serial_chunks").add(n_chunks as u64);
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    swt_obs::counter!("tensor.pool.dispatches").inc();
    swt_obs::counter!("tensor.pool.tasks").add(n_chunks as u64);
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
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
                        Some((i, chunk)) => f(i, chunk),
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

/// [`par_chunks_mut`] with per-thread scratch: `scratch` is split into
/// disjoint `piece_len`-sized pieces, one owned by each worker thread, and
/// `f(chunk_index, chunk, piece)` receives its worker's piece on every call.
///
/// This is how hot loops stay allocation-free under parallel dispatch: the
/// caller sizes `scratch` from its [`crate::Workspace`] for
/// `max_threads().min(n_chunks)` pieces and lends slices out, instead of
/// every task allocating its own buffer. At most `scratch.len() / piece_len`
/// threads run, so a short `scratch` degrades parallelism, never safety.
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
    let threads = threads_for(n_chunks).min(scratch.len() / piece_len);
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
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let queue = &queue;
    let f = &f;
    std::thread::scope(|s| {
        for piece in scratch.chunks_mut(piece_len).take(threads) {
            s.spawn(move || {
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
    let threads = threads_for(items.len());
    if threads <= 1 {
        swt_obs::counter!("tensor.pool.serial_tasks").add(items.len() as u64);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    swt_obs::counter!("tensor.pool.dispatches").inc();
    swt_obs::counter!("tensor.pool.tasks").add(items.len() as u64);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        let queue = Mutex::new(out.iter_mut().zip(items).enumerate());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let measure = swt_obs::enabled();
                    let mut idle_ns = 0u64;
                    loop {
                        let wait = measure.then(Instant::now);
                        let next = queue.lock().unwrap().next();
                        if let Some(t0) = wait {
                            idle_ns += t0.elapsed().as_nanos() as u64;
                        }
                        match next {
                            Some((i, (slot, item))) => *slot = Some(f(i, item)),
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
    out.into_iter().map(|r| r.expect("par_map slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let _lock = BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
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
}
