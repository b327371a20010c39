//! GEMM and conv2d hot-loop allocation discipline.
//!
//! The blocked driver's pack buffers — and conv2d's outputs, padded input,
//! lane-padded operands, `Wᵀ` and `dX` stage — come from the caller's
//! `Workspace` (per-thread scratch slices under parallel dispatch — see
//! `parallel::par_chunks_mut_scratch`), so at steady state the hot loops must
//! not touch the heap. Two pins, each on `matmul_ws` and on same-padded
//! conv2d forward + backward steps:
//!
//! * **serial path**: a counting global allocator proves a warmed loop
//!   performs literally zero heap allocations;
//! * **parallel path**: scoped thread spawns do allocate (stacks, join
//!   handles — unavoidable with std scoped threads), so the pin is the
//!   arena's own miss counter: once warm, pack-buffer requests never fall
//!   through to the allocator.
//!
//! The conv2d half also pins what only a one-test process can: two threads
//! give the serial bits, and a forward + backward step counts exactly three
//! `tensor.gemm.*` contractions.
//!
//! One `#[test]` on purpose: the checks mutate the process-wide thread
//! budget, the allocation counter and the metrics registry, and the default
//! multi-threaded test runner would interleave them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swt_tensor::{
    conv2d_backward_ws, conv2d_forward_ws, matmul_ws, parallel, Padding, Rng, Tensor, Workspace,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warmed_gemm_hot_loop_never_allocates() {
    let mut rng = Rng::seed(42);
    // Big enough for the blocked path (> SMALL_FLOPS) and, at n = 512, for
    // parallel dispatch over multiple MC row blocks (> PAR_THRESHOLD).
    let a = Tensor::rand_normal([160, 300], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal([300, 512], 0.0, 1.0, &mut rng);

    // --- Serial path: zero heap allocations once warm. ---
    parallel::set_max_threads(1);
    let mut ws = Workspace::new();
    // Two warm-up passes: kernel detection, obs handle registration and the
    // arena's first-touch allocations all happen here.
    for _ in 0..2 {
        let c = matmul_ws(&a, &b, &mut ws);
        ws.recycle(c);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        let c = matmul_ws(&a, &b, &mut ws);
        ws.recycle(c);
    }
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(during, 0, "warmed serial GEMM must not allocate ({during} allocations)");

    // --- Parallel path: pack buffers never miss the arena once warm. ---
    parallel::set_max_threads(3);
    for _ in 0..2 {
        let c = matmul_ws(&a, &b, &mut ws);
        ws.recycle(c);
    }
    let misses_before = ws.alloc_misses();
    for _ in 0..3 {
        let c = matmul_ws(&a, &b, &mut ws);
        ws.recycle(c);
    }
    let misses = ws.alloc_misses() - misses_before;
    assert_eq!(misses, 0, "warmed parallel GEMM pack buffers fell through to the allocator");

    // --- conv2d forward + backward: the same two pins. ---
    // Same-padded, and big enough that with threads all three products
    // dispatch (forward over output rows, dW over patch columns, dX over
    // samples). `f = 232` is whole vectors; `f = 20` is not, so its step also
    // draws the lane-padded copies of `W` and `dOut` — beside the padded
    // input, `Wᵀ` and the `dX` stage that every step takes.
    let mut ws = Workspace::new();
    for (x_shape, k_shape) in
        [([2, 16, 16, 32], [3, 3, 32, 232]), ([32, 12, 12, 24], [3, 3, 24, 20])]
    {
        let x = Tensor::rand_normal(x_shape, 0.0, 1.0, &mut rng);
        let k = Tensor::rand_normal(k_shape, 0.0, 0.1, &mut rng);
        // One training step's conv work; the output doubles as the upstream
        // gradient (same shape).
        let step = |ws: &mut Workspace| {
            let y = conv2d_forward_ws(&x, &k, Padding::Same, ws);
            let (dx, dk) = conv2d_backward_ws(&x, &k, &y, Padding::Same, ws);
            [y, dx, dk]
        };
        let steps = |n: usize, ws: &mut Workspace| {
            for _ in 0..n {
                step(ws).into_iter().for_each(|t| ws.recycle(t));
            }
        };
        parallel::set_max_threads(1);
        steps(2, &mut ws);
        let (before, misses_before, pooled) =
            (ALLOCS.load(Ordering::Relaxed), ws.alloc_misses(), ws.pooled());
        steps(3, &mut ws);
        let during = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(during, 0, "warmed serial conv2d step must not allocate ({during} allocations)");
        // Every scratch buffer is asked for at the size it had last step: no
        // request outgrows the pool, and the pool gains no buffer.
        assert_eq!(
            ws.alloc_misses(),
            misses_before,
            "warmed serial conv2d scratch missed the arena"
        );
        assert_eq!(ws.pooled(), pooled, "a conv2d step left a new buffer in the arena");
        let serial = step(&mut ws);

        parallel::set_max_threads(2);
        steps(2, &mut ws);
        let misses_before = ws.alloc_misses();
        steps(3, &mut ws);
        let misses = ws.alloc_misses() - misses_before;
        assert_eq!(misses, 0, "warmed parallel conv2d scratch fell through to the allocator");
        for (two, one) in step(&mut ws).iter().zip(&serial) {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(two) == bits(one), "two threads changed conv2d's bits");
        }
        serial.into_iter().for_each(|t| ws.recycle(t));
        parallel::set_max_threads(0);

        // --- One count per GEMM-shaped contraction: forward, dW, dX. ---
        swt_obs::enable();
        let before = gemms();
        steps(1, &mut ws);
        let counted = gemms() - before;
        swt_obs::disable();
        assert_eq!(counted, 3, "a conv2d forward + backward is three contractions");
    }
}

/// Every `tensor.gemm.*` contraction counted so far.
fn gemms() -> u64 {
    ["tensor.gemm.small", "tensor.gemm.blocked.scalar", "tensor.gemm.blocked.simd"]
        .iter()
        .map(|name| swt_obs::registry::global().counter(name).get())
        .sum()
}
