//! Dense matrix products: the entry points, the contraction every product
//! pins, and the cache-blocked, register-tiled GEMM that runs `A·Bᵀ`.
//!
//! A dense layer's three products take three engines, by which operand is
//! contiguous where it lies:
//!
//! * [`matmul`] (`x·w`) and [`matmul_at`] (`xᵀ·dy`, the weight gradient) have
//!   their vector operand's rows contiguous already: they are the forward and
//!   kernel-gradient contractions of a 1×1 convolution over one-pixel images,
//!   and run on [`crate::conv2d`]'s broadcast-FMA tile, operands read in
//!   place, nothing packed;
//! * [`matmul_bt`] (`dy·wᵀ`, the input gradient) would need `wᵀ` as the
//!   tile's vector operand — a transpose that costs as much as the product —
//!   so it runs on the packed GEMM below;
//! * any of the three under `SMALL_FLOPS` multiply-adds runs on direct loops
//!   (`gemm_small`): there a tile's per-panel setup, or a pack, is most of
//!   the product.
//!
//! The convolutions borrow this module's kernel selection, panel depth and
//! small-problem cutoff too, so all of them contract alike (see
//! "FP-contract determinism" below). The packed GEMM follows the classic
//! BLIS/GotoBLAS decomposition:
//!
//! * the K dimension is split into `KC`-deep panels; for each panel, `B` is
//!   packed once into contiguous `NR`-wide strips and **reused across all row
//!   blocks** of that panel;
//! * the M dimension is split into `MC`-row blocks; each block of `A` is
//!   packed into `MR`-tall strips laid out `[k][MR]` so the micro-kernel
//!   streams both operands linearly;
//! * an `MR×NR` register micro-kernel with fixed trip counts accumulates into
//!   a column-major `[[f32; MR]; NR]` tile;
//! * parallel dispatch (see [`crate::parallel`]) is over `MC`-row *blocks*
//!   of `C`, not single rows, so each task amortises its packing work; each
//!   task packs into a per-thread scratch slice carved from the caller's
//!   [`Workspace`], so the parallel path allocates nothing at steady state.
//!
//! # Micro-kernel dispatch
//!
//! The micro-kernel is selected **once per process** at first use, by
//! runtime CPU feature detection (`is_x86_feature_detected!`), so one
//! portable binary runs everywhere and still saturates wide vector units
//! where they exist:
//!
//! * `Avx512Fma` — where the host also reports `avx512f`: a packed `A`
//!   strip's `[k][MR = 16]` step is exactly one zmm register, so per k step
//!   one 16-lane load and `NR = 8` broadcast-FMAs carry the whole tile in
//!   eight accumulators, in a single pass (`micro_kernel_avx512`).
//! * `Avx2Fma` — an explicit `std::arch::x86_64` kernel: per k step, two
//!   8-lane loads of the packed `A` strip and eight broadcast
//!   `_mm256_fmadd_ps` chains into the register tile
//!   (`micro_kernel_avx2`). The only SIMD kernel on hosts without AVX-512.
//! * `ScalarFma` — the generic tile loop compiled with the `fma` feature
//!   enabled for that one function, so `mul_add` lowers to hardware FMA.
//! * `Scalar` — the fully portable generic tile loop; the baseline for any
//!   target and the kernel behind [`force_scalar_kernel`].
//!
//! **FP-contract determinism:** all kernels contract each output
//! element in the *same pinned order* — `k` ascending within a panel, one
//! multiply-add per step, panel sums combined in panel order — and never
//! reassociate: a lane is one output element's chain, so vector width is
//! never part of a value. Kernels that fuse (`Avx512Fma`, `Avx2Fma`,
//! `ScalarFma`, and `Scalar` when the build itself enables FMA) are therefore
//! **bit-identical** to each other; the unfused portable `Scalar` kernel
//! rounds each multiply and add separately and may differ from the fused
//! kernels in the last ulp. The tests hold every kind this host runs, on
//! every engine, to one plain-loop oracle of this contraction. Within one
//! process the selection is pinned, so every run is bit-reproducible;
//! A/B flags ([`force_scalar_kernel`], `SWT_FORCE_SCALAR_KERNEL=1`) change
//! the kernel and may change low-order bits — they are benchmark/CI tools,
//! not run-time tuning knobs.
//!
//! Edges are zero-padded inside the packed buffers, so the micro-kernels are
//! branch-free (padding lanes compute `fma(0, b, acc) = acc` and are masked
//! off at write-back). The first K panel overwrites `C` and later panels
//! accumulate, so `C` needs no pre-zeroing.
//!
//! The packed GEMM packs one layout: a row-major `A` (`dy`) whose rows are
//! contiguous `k` runs, and a transposed `B` (`wᵀ`, read from `w`'s rows),
//! whose columns are. Both are transposed into the strip layout by
//! `pack_rows`, never materialised first; on the AVX kernels that transpose,
//! and the one that writes a register tile back to `C`, move 8×8 blocks
//! through registers. [`matmul_naive`] keeps the textbook triple loop as the
//! correctness reference.

use crate::conv2d::{self, Geom, Padding};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::{with_thread_workspace, Workspace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Benchmark/CI escape hatch: when set, the blocked driver runs the portable
/// scalar micro-kernel even where the SIMD kernel is available.
/// `scripts/check.sh` also runs the whole test suite with
/// `SWT_FORCE_SCALAR_KERNEL=1` so the fallback kernel stays exercised on
/// SIMD-capable CI hosts.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Route the blocked driver through the portable scalar micro-kernel
/// (`on = true`) instead of the runtime-detected SIMD kernel. A/B tool for
/// benchmarks and CI; note the scalar kernel may differ from the fused SIMD
/// kernels in low-order bits (see the module docs).
pub fn force_scalar_kernel(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Which micro-kernel the dispatch table selected (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelKind {
    /// Portable generic tile loop (fused only if the build enables FMA).
    Scalar,
    /// Generic tile loop compiled with hardware FMA for this one function.
    #[cfg(target_arch = "x86_64")]
    ScalarFma,
    /// Explicit AVX2+FMA `std::arch` kernel.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Explicit AVX-512 `std::arch` kernel: the same chains at 16 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512Fma,
}

impl KernelKind {
    /// Whether the 8×8 register transposes and other AVX data movement may
    /// run under this kind.
    pub(crate) fn has_avx(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if matches!(self, KernelKind::Avx2Fma | KernelKind::Avx512Fma) {
            return true;
        }
        false
    }
}

/// The process-wide kernel selection, made once at first GEMM.
static KERNEL: OnceLock<KernelKind> = OnceLock::new();

fn detect_kernel() -> KernelKind {
    #[cfg(target_arch = "x86_64")]
    {
        // The env override exists so CI can run the *entire* suite on the
        // portable kernel without touching process state in every test.
        if std::env::var_os("SWT_FORCE_SCALAR_KERNEL").is_none() {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                if std::is_x86_feature_detected!("avx512f") {
                    return KernelKind::Avx512Fma;
                }
                return KernelKind::Avx2Fma;
            }
            if std::is_x86_feature_detected!("fma") {
                return KernelKind::ScalarFma;
            }
        }
    }
    KernelKind::Scalar
}

#[cfg(test)]
thread_local! {
    /// Test-only pin for [`active_kernel`] on the calling thread, so suites
    /// can run whole entry points on each kernel without touching process
    /// state other tests read.
    static PINNED: std::cell::Cell<Option<KernelKind>> = const { std::cell::Cell::new(None) };
}

pub(crate) fn active_kernel() -> KernelKind {
    #[cfg(test)]
    if let Some(kernel) = PINNED.with(|p| p.get()) {
        return kernel;
    }
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        return KernelKind::Scalar;
    }
    *KERNEL.get_or_init(detect_kernel)
}

/// Human-readable name of the micro-kernel the dispatch table would run
/// right now (`"avx512+fma"`, `"avx2+fma"`, `"scalar+fma"` or `"scalar"`);
/// benchmarks and run reports record it so numbers are attributable to a
/// kernel.
pub fn gemm_kernel_name() -> &'static str {
    match active_kernel() {
        KernelKind::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        KernelKind::ScalarFma => "scalar+fma",
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => "avx2+fma",
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma => "avx512+fma",
    }
}

/// Micro-kernel tile height (rows of `C` per register tile). Rows are the
/// vectorised dimension: packed `A` strips are `MR`-contiguous, so one tile
/// row-vector is two 8-lane loads, or one 16-lane load.
pub const MR: usize = 16;
/// Micro-kernel tile width (columns of `C` per register tile); each column
/// holds an independent FMA chain, hiding FMA latency.
pub const NR: usize = 8;
/// K-panel depth: one packed `B` panel is `KC×N`.
pub const KC: usize = 256;
/// Row-block height: one packed `A` block is `MC×KC` (~64 KiB, L2-resident).
pub const MC: usize = 64;

/// At or below this many multiply-adds (`m·n·k`) a product runs on the direct
/// loops: a tile's step tables and lane-padded copies, or the packed GEMM's
/// packs, would be most of its cost. Candidate models produce many such
/// products (every output layer of one unit).
const SMALL_FLOPS: usize = 32 * 1024;

/// Minimum output elements before parallel dispatch is worth its overhead.
const PAR_THRESHOLD: usize = 64 * 1024;

/// A read-only view of a logical `rows×cols` matrix with unit stride along
/// its rows or its columns: a row-major matrix (`cs == 1`) or the transpose
/// of one (`rs == 1`).
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

impl View<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    // `mul_add` is only profitable when the target actually has FMA;
    // otherwise it calls into libm and is drastically slower.
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank 2, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

/// `C = A (M×K) · B (K×N)`.
///
/// # Panics
/// Panics if the inner dimensions disagree or inputs are not rank 2.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    with_thread_workspace(|ws| matmul_ws(a, b, ws))
}

/// [`matmul`] with caller-owned scratch: the output tensor and any scratch
/// come from `ws`, so steady-state callers allocate nothing.
pub fn matmul_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    // `A` is `m` one-pixel images of `k` channels, `B` a 1×1 kernel of `n`
    // filters.
    let g = Geom::new(m, 1, 1, k, 1, 1, n, Padding::Valid);
    on_tile(
        m,
        n,
        k,
        View { data: a.data(), rs: k, cs: 1 },
        View { data: b.data(), rs: n, cs: 1 },
        ws,
        |ws| conv2d::forward(&g, a.data(), b.data(), ws),
    )
}

/// `C = Aᵀ · B` for `A (K×M)` and `B (K×N)`, result `(M, N)`:
/// `C[m][n] = Σ_k A[k][m] · B[k][n]`.
///
/// This is the dense-layer weight gradient `dW = Xᵀ · dY` without
/// materialising the transpose.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    with_thread_workspace(|ws| matmul_at_ws(a, b, ws))
}

/// [`matmul_at`] with caller-owned scratch.
pub fn matmul_at_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Tensor {
    let (k, m) = dims2(a, "matmul_at lhs");
    let (k2, n) = dims2(b, "matmul_at rhs");
    assert_eq!(k, k2, "matmul_at inner dimension mismatch: {k} vs {k2}");
    // The kernel gradient of a 1×1 convolution over `k` one-pixel images of
    // `m` channels, `B` its output gradient.
    let g = Geom::new(k, 1, 1, m, 1, 1, n, Padding::Valid);
    on_tile(
        m,
        n,
        k,
        // Logical Aᵀ (M×K): element (i, k) lives at A[k][i].
        View { data: a.data(), rs: 1, cs: m },
        View { data: b.data(), rs: n, cs: 1 },
        ws,
        |ws| conv2d::backward_kernel(&g, a.data(), b.data(), ws),
    )
}

/// A product whose vector operand is contiguous where it lies: on the
/// broadcast-FMA tile (`tile`, which routes it) above the small-problem
/// cutoff, on the direct loops below it.
fn on_tile(
    m: usize,
    n: usize,
    k: usize,
    a: View,
    b: View,
    ws: &mut Workspace,
    tile: impl FnOnce(&mut Workspace) -> Vec<f32>,
) -> Tensor {
    let out = if m * n * k > SMALL_FLOPS {
        tile(ws)
    } else {
        let direct = route(active_kernel(), m, n, k);
        debug_assert!(direct.is_none(), "under the cutoff");
        let mut out = ws.take(m * n);
        gemm_small(m, n, k, a, b, &mut out);
        out
    };
    Tensor::from_vec([m, n], out)
}

/// `C = A · Bᵀ` for `A (M×K)` and `B (N×K)`, result `(M, N)`:
/// `C[m][n] = Σ_k A[m][k] · B[n][k]`.
///
/// This is the dense-layer input gradient `dX = dY · Wᵀ` without
/// materialising the transpose.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    with_thread_workspace(|ws| matmul_bt_ws(a, b, ws))
}

/// [`matmul_bt`] with caller-owned scratch.
pub fn matmul_bt_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Tensor {
    let (m, k) = dims2(a, "matmul_bt lhs");
    let (n, k2) = dims2(b, "matmul_bt rhs");
    assert_eq!(k, k2, "matmul_bt inner dimension mismatch: {k} vs {k2}");
    let mut out = ws.take(m * n);
    gemm(
        m,
        n,
        k,
        View { data: a.data(), rs: k, cs: 1 },
        // Logical Bᵀ (K×N): element (k, j) lives at B[j][k].
        View { data: b.data(), rs: 1, cs: k },
        &mut out,
        ws,
    );
    Tensor::from_vec([m, n], out)
}

/// Textbook triple-loop reference (`C = A·B`). Kept public as the
/// correctness oracle for tests.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n]; // alloc-gate: allow (cold oracle, not a hot path)
    for i in 0..m {
        for kk in 0..k {
            let aik = ad[i * k + kk];
            for j in 0..n {
                out[i * n + j] += aik * bd[kk * n + j];
            }
        }
    }
    Tensor::from_vec([m, n], out)
}

/// Blocked GEMM: `C (m×n, row-major, fully overwritten) = A · B` for a
/// row-major view `a` and a transposed view `b` (`dy·wᵀ`), on the process's
/// selected micro-kernel; under the cutoff, on the direct loops.
fn gemm(m: usize, n: usize, k: usize, a: View, b: View, c: &mut [f32], ws: &mut Workspace) {
    gemm_with_kernel(active_kernel(), m, n, k, a, b, c, ws)
}

/// Count one GEMM-shaped contraction and pick its path: `None` is the
/// `SMALL_FLOPS` direct loop, `Some(kernel)` the kind its tile or the packed
/// driver runs. Every product passes here exactly once — the dense ones, and
/// the convolutions' three, which are counted, cut off and fused exactly like
/// them. The counter names are `tensor.gemm.*` whichever engine runs it.
pub(crate) fn route(kernel: KernelKind, m: usize, n: usize, k: usize) -> Option<KernelKind> {
    if m * n * k <= SMALL_FLOPS {
        swt_obs::counter!("tensor.gemm.small").inc();
        return None;
    }
    match kernel {
        KernelKind::Scalar => swt_obs::counter!("tensor.gemm.blocked.scalar").inc(),
        #[cfg(target_arch = "x86_64")]
        _ => swt_obs::counter!("tensor.gemm.blocked.simd").inc(),
    }
    Some(kernel)
}

/// [`gemm`] pinned to a specific micro-kernel (tests run every kind through
/// this).
#[allow(clippy::too_many_arguments)]
fn gemm_with_kernel(
    kernel: KernelKind,
    m: usize,
    n: usize,
    k: usize,
    a: View,
    b: View,
    c: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(c.len(), m * n);
    let Some(kernel) = route(kernel, m, n, k) else {
        return gemm_small(m, n, k, a, b, c);
    };

    let n_strips = n.div_ceil(NR);
    // One packed-A task slice per worker thread (the parallel path hands
    // them out per task), or a single slice for the serial path: the tallest
    // row block at the deepest panel, so every panel's packing fits.
    let pa_piece = MC.min(m).div_ceil(MR) * MR * KC.min(k);
    let row_blocks = m.div_ceil(MC);
    let go_parallel = row_blocks > 1 && m * n >= PAR_THRESHOLD && parallel::max_threads() > 1;
    let pack_tasks = if go_parallel { parallel::max_threads().min(row_blocks) } else { 1 };
    let mut pb = ws.take(KC.min(k) * n_strips * NR);
    let mut pa = ws.take(pack_tasks * pa_piece);

    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        pack_b(kernel, b, k0, kc, n, &mut pb);
        let first = k0 == 0;
        if go_parallel {
            // Row blocks are disjoint `MC×n` chunks of C; each task packs
            // its own A block into its thread's scratch slice, carved from
            // the caller's Workspace — the hot loop never allocates.
            let pb_ref = &pb[..];
            parallel::par_chunks_mut_scratch(
                c,
                MC * n,
                &mut pa,
                pa_piece,
                |ib, c_chunk, pa_scratch| {
                    let m0 = ib * MC;
                    let mc = MC.min(m - m0);
                    let pa_len = mc.div_ceil(MR) * MR * kc;
                    let pa_scratch = &mut pa_scratch[..pa_len];
                    pack_a(kernel, a, m0, mc, k0, kc, pa_scratch);
                    block_kernel(kernel, c_chunk, n, mc, kc, pa_scratch, pb_ref, first);
                },
            );
        } else {
            for ib in 0..row_blocks {
                let m0 = ib * MC;
                let mc = MC.min(m - m0);
                let pa_len = mc.div_ceil(MR) * MR * kc;
                pack_a(kernel, a, m0, mc, k0, kc, &mut pa[..pa_len]);
                block_kernel(
                    kernel,
                    &mut c[m0 * n..(m0 + mc) * n],
                    n,
                    mc,
                    kc,
                    &pa[..pa_len],
                    &pb,
                    first,
                );
            }
        }
        k0 += kc;
    }
    ws.give(pa);
    ws.give(pb);
}

/// Independent accumulator chains the direct loops keep in registers: enough
/// to cover the latency of a scalar multiply-add.
const CHAINS: usize = 8;
/// Outputs a vector-axis block of the direct loops carries in registers.
const LANES: usize = 16;

/// Direct loops for tiny problems (also covers `k == 0`, where `C` is zero).
///
/// Every output element is one chain, `acc = fmadd(a[i][kk], b[kk][j], acc)`
/// from `+0.0` with `kk` ascending, whichever loop computes it; the loop is
/// chosen so that the innermost index walks an operand's unit stride and the
/// chains stay in registers. With `B` row-major and a row of it wide enough,
/// the vector axis is `j`; with `A` a transposed view (`dW = xᵀ·dy`) it is
/// `i`; otherwise `A`'s rows are contiguous along `k` (`x·w` with one output
/// unit, `dy·wᵀ`) and [`CHAINS`] rows advance together as scalar chains.
fn gemm_small(m: usize, n: usize, k: usize, a: View, b: View, c: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    if b.cs == 1 && n >= CHAINS {
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            lanes(n, k, b.data, b.rs, |kk| a.at(i, kk), crow, 1);
        }
    } else if a.rs == 1 {
        for j in 0..n {
            lanes(m, k, a.data, a.cs, |kk| b.at(kk, j), &mut c[j..], n);
        }
    } else {
        assert_eq!(a.cs, 1, "View must have a unit stride");
        for i0 in (0..m).step_by(CHAINS) {
            // A ragged last block repeats its last row; the repeats are not
            // written back.
            let rows: [&[f32]; CHAINS] =
                std::array::from_fn(|r| &a.data[(i0 + r).min(m - 1) * a.rs..][..k]);
            for j in 0..n {
                let mut acc = [0.0f32; CHAINS];
                for kk in 0..k {
                    let bkj = b.at(kk, j);
                    for (o, row) in acc.iter_mut().zip(rows) {
                        *o = fmadd(row[kk], bkj, *o);
                    }
                }
                for (r, &v) in acc.iter().enumerate().take(m - i0) {
                    c[(i0 + r) * n + j] = v;
                }
            }
        }
    }
}

/// `out[v · stride] = Σ_kk runs[kk · step + v] · scalar(kk)` for `v < count`:
/// one operand's unit-stride axis as the vector axis, the other operand
/// broadcast. A full block of [`LANES`] outputs has a loop of its own, with a
/// fixed trip count and its own accumulator array — that is what lets the
/// compiler carry it in registers through the whole `k` loop (sharing one
/// loop with the ragged block through a closure does not).
#[inline(always)]
fn lanes(
    count: usize,
    k: usize,
    runs: &[f32],
    step: usize,
    scalar: impl Fn(usize) -> f32,
    out: &mut [f32],
    stride: usize,
) {
    let write = |out: &mut [f32], at: usize, acc: &[f32]| {
        if stride == 1 {
            out[at..at + acc.len()].copy_from_slice(acc);
        } else {
            for (o, &v) in out[at * stride..].iter_mut().step_by(stride).zip(acc) {
                *o = v;
            }
        }
    };
    let mut at = 0;
    while count - at >= LANES {
        let mut acc = [0.0f32; LANES];
        for kk in 0..k {
            let s = scalar(kk);
            let run: &[f32; LANES] =
                runs[kk * step + at..][..LANES].try_into().expect("LANES elements");
            for (o, &x) in acc.iter_mut().zip(run) {
                *o = fmadd(x, s, *o);
            }
        }
        write(out, at, &acc);
        at += LANES;
    }
    if at < count {
        let mut acc = [0.0f32; LANES];
        let acc = &mut acc[..count - at];
        for kk in 0..k {
            let s = scalar(kk);
            for (o, &x) in acc.iter_mut().zip(&runs[kk * step + at..]) {
                *o = fmadd(x, s, *o);
            }
        }
        write(out, at, acc);
    }
}

/// Transpose `lanes ≤ L` contiguous rows of `kc` elements (row `r` starts at
/// `src[r * stride]`) into one packed `L`-lane strip:
/// `strip[kk * L + r] = src[r * stride + kk]`, zeros in lanes `≥ lanes`.
///
/// This is the data movement behind both packs — [`pack_a`]'s rows of `A`
/// and [`pack_b`]'s columns of `B` are contiguous `k` runs. Where the
/// AVX kernels are live it moves 8×8 blocks through registers
/// (`pack_rows8_avx`) instead of one element at a time; both ways move the
/// same values to the same places.
fn pack_rows<const L: usize>(
    kernel: KernelKind,
    src: &[f32],
    stride: usize,
    lanes: usize,
    kc: usize,
    strip: &mut [f32],
) {
    assert!(lanes <= L && strip.len() == kc * L);
    assert!(lanes == 0 || src.len() >= (lanes - 1) * stride + kc);
    if lanes < L {
        strip.fill(0.0);
    }
    #[allow(unused_mut)]
    let mut r0 = 0;
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx() {
        while r0 + 8 <= lanes {
            // SAFETY: the kernel only has AVX after feature detection.
            // Rows `r0..r0+8` of `src` hold `kc` elements each (asserted
            // above), and lanes `r0..r0+8` exist in every one of the strip's
            // `kc` steps of `L` because `r0 + 8 <= lanes <= L`.
            unsafe {
                pack_rows8_avx(src[r0 * stride..].as_ptr(), stride, kc, strip[r0..].as_mut_ptr(), L)
            };
            r0 += 8;
        }
    }
    for r in r0..lanes {
        let row = &src[r * stride..][..kc];
        for (l, &v) in strip.chunks_exact_mut(L).zip(row) {
            l[r] = v;
        }
    }
}

/// Transpose the 8×8 block whose rows are `r`: output register `j` holds
/// element `j` of every input row.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transpose8_avx(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps(t0, t2, 0x44);
    let u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    let u2 = _mm256_shuffle_ps(t1, t3, 0x44);
    let u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    let u4 = _mm256_shuffle_ps(t4, t6, 0x44);
    let u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    let u6 = _mm256_shuffle_ps(t5, t7, 0x44);
    let u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    [
        _mm256_permute2f128_ps(u0, u4, 0x20),
        _mm256_permute2f128_ps(u1, u5, 0x20),
        _mm256_permute2f128_ps(u2, u6, 0x20),
        _mm256_permute2f128_ps(u3, u7, 0x20),
        _mm256_permute2f128_ps(u0, u4, 0x31),
        _mm256_permute2f128_ps(u1, u5, 0x31),
        _mm256_permute2f128_ps(u2, u6, 0x31),
        _mm256_permute2f128_ps(u3, u7, 0x31),
    ]
}

/// `dst[kk * dst_stride + i] = src[i * src_stride + kk]` for `i < 8`,
/// `kk < kc`: eight source rows become eight adjacent lanes.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx")`. `src` must be
/// readable for `kc` elements at each of the offsets `i * src_stride`,
/// `i < 8`; `dst` must be writable for 8 elements at each of the offsets
/// `kk * dst_stride`, `kk < kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn pack_rows8_avx(
    src: *const f32,
    src_stride: usize,
    kc: usize,
    dst: *mut f32,
    dst_stride: usize,
) {
    use std::arch::x86_64::*;
    let blocks = kc / 8 * 8;
    for kk in (0..blocks).step_by(8) {
        let rows = std::array::from_fn(|i| _mm256_loadu_ps(src.add(i * src_stride + kk)));
        for (j, v) in transpose8_avx(rows).into_iter().enumerate() {
            _mm256_storeu_ps(dst.add((kk + j) * dst_stride), v);
        }
    }
    for kk in blocks..kc {
        for i in 0..8 {
            *dst.add(kk * dst_stride + i) = *src.add(i * src_stride + kk);
        }
    }
}

/// Pack rows `[m0, m0+mc)` × k-range `[k0, k0+kc)` of the row-major `a` into
/// `MR`-tall strips, each laid out `[kc][MR]`, zero-padding the ragged last
/// strip: each row is a contiguous k run, transposed into lane `r` of its
/// strip.
fn pack_a(
    kernel: KernelKind,
    a: View,
    m0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    dst: &mut [f32],
) {
    assert_eq!(a.cs, 1, "the packed A is row-major");
    for (s, strip) in dst.chunks_exact_mut(MR * kc).enumerate() {
        let i = m0 + s * MR;
        let rows = MR.min(m0 + mc - i);
        pack_rows::<MR>(kernel, &a.data[i * a.rs + k0..], a.rs, rows, kc, strip);
    }
}

/// Pack k-range `[k0, k0+kc)` × all `n` columns of the transposed `b` into
/// `NR`-wide strips, each laid out `[kc][NR]`, zero-padding the ragged last
/// strip: each column is a contiguous k run, transposed into lane `q` of its
/// strip.
fn pack_b(kernel: KernelKind, b: View, k0: usize, kc: usize, n: usize, dst: &mut [f32]) {
    assert_eq!(b.rs, 1, "the packed B is transposed");
    for (s, strip) in dst[..n.div_ceil(NR) * NR * kc].chunks_exact_mut(NR * kc).enumerate() {
        let j = s * NR;
        pack_rows::<NR>(kernel, &b.data[j * b.cs + k0..], b.cs, NR.min(n - j), kc, strip);
    }
}

/// Multiply one packed `mc×kc` A block by the packed `kc×n` B panel into the
/// `mc×n` C block (`c` is row-major with row stride `n`), on `kernel`.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    kernel: KernelKind,
    c: &mut [f32],
    n: usize,
    mc: usize,
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    first: bool,
) {
    let n_strips = n.div_ceil(NR);
    for (is, i) in (0..mc).step_by(MR).enumerate() {
        let rows = MR.min(mc - i);
        let pa_strip = &pa[is * MR * kc..(is + 1) * MR * kc];
        for js in 0..n_strips {
            let j = js * NR;
            let cols = NR.min(n - j);
            let pb_strip = &pb[js * NR * kc..(js + 1) * NR * kc];
            // Column-major tile: acc[q][r] is C[i+r][j+q]. The vectorised
            // row dimension is then contiguous per column, so the tile stays
            // in registers instead of decaying to gather/scatter.
            let mut acc = [[0.0f32; MR]; NR];
            match kernel {
                KernelKind::Scalar => micro_kernel(kc, pa_strip, pb_strip, &mut acc),
                #[cfg(target_arch = "x86_64")]
                // Safety: the dispatch table only selects these after
                // `is_x86_feature_detected!` confirmed the features (tests
                // gate the same way).
                KernelKind::ScalarFma => unsafe {
                    micro_kernel_scalar_fma(kc, pa_strip, pb_strip, &mut acc)
                },
                #[cfg(target_arch = "x86_64")]
                KernelKind::Avx2Fma => unsafe {
                    micro_kernel_avx2(kc, pa_strip, pb_strip, &mut acc)
                },
                #[cfg(target_arch = "x86_64")]
                KernelKind::Avx512Fma => unsafe {
                    micro_kernel_avx512(kc, pa_strip, pb_strip, &mut acc)
                },
            }
            #[cfg(target_arch = "x86_64")]
            if kernel.has_avx() && rows == MR && cols == NR {
                let tile = &mut c[i * n + j..(i + MR - 1) * n + j + NR];
                // SAFETY: an AVX kind is only selected after feature detection,
                // and `tile` spans `MR` rows of `NR` elements at stride `n`.
                unsafe { store_tile_avx(&acc, tile.as_mut_ptr(), n, first) };
                continue;
            }
            for r in 0..rows {
                let crow = &mut c[(i + r) * n + j..(i + r) * n + j + cols];
                if first {
                    for (q, o) in crow.iter_mut().enumerate() {
                        *o = acc[q][r];
                    }
                } else {
                    for (q, o) in crow.iter_mut().enumerate() {
                        *o += acc[q][r];
                    }
                }
            }
        }
    }
}

/// Write a full `MR×NR` accumulator tile back to `C`: row `r` of the tile
/// (`acc[..][r]`) is stored to (`first`) or added into the `NR` elements at
/// `c + r * n`, two 8×8 register transposes instead of 128 scalar moves.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx")`; `c` must be
/// valid for reads and writes of `NR` elements at each offset `r * n`,
/// `r < MR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn store_tile_avx(acc: &[[f32; MR]; NR], c: *mut f32, n: usize, first: bool) {
    use std::arch::x86_64::*;
    for half in (0..MR).step_by(8) {
        let cols = std::array::from_fn(|q| _mm256_loadu_ps(acc[q][half..].as_ptr()));
        for (r, v) in transpose8_avx(cols).into_iter().enumerate() {
            let crow = c.add((half + r) * n);
            let v = if first { v } else { _mm256_add_ps(_mm256_loadu_ps(crow), v) };
            _mm256_storeu_ps(crow, v);
        }
    }
}

/// One tile column: `acc[r] (+)= a[r] * b` for all `MR` rows — a contiguous
/// fixed-trip loop, i.e. exactly one (or two) wide broadcast-FMAs. `FUSED`
/// pins the per-step rounding: fused multiply-add (one rounding, matching
/// the AVX2 kernel bit for bit) or separate multiply and add.
#[inline(always)]
fn fma_col<const FUSED: bool>(acc: &mut [f32; MR], a: &[f32; MR], b: f32) {
    for (o, &ai) in acc.iter_mut().zip(a) {
        *o = if FUSED { ai.mul_add(b, *o) } else { ai * b + *o };
    }
}

/// The generic `MR×NR` register tile: per k step, one contiguous `MR`-wide
/// load of the packed `A` strip and `NR` broadcast-FMAs into the
/// column-major tile.
///
/// The columns are unrolled *in source*: with a `for j` loop here LLVM's
/// loop vectorizer picks the column dimension (stride `MR`) and lowers the
/// tile to gather/scatter; with named columns only the contiguous row loops
/// remain, which vectorise to register-resident FMAs when the build has
/// vector units to offer.
#[inline(always)]
fn micro_kernel_generic<const FUSED: bool>(
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    acc: &mut [[f32; MR]; NR],
) {
    let [c0, c1, c2, c3, c4, c5, c6, c7] = acc;
    for kk in 0..kc {
        let a: &[f32; MR] = pa[kk * MR..kk * MR + MR].try_into().unwrap();
        let b: &[f32; NR] = pb[kk * NR..kk * NR + NR].try_into().unwrap();
        fma_col::<FUSED>(c0, a, b[0]);
        fma_col::<FUSED>(c1, a, b[1]);
        fma_col::<FUSED>(c2, a, b[2]);
        fma_col::<FUSED>(c3, a, b[3]);
        fma_col::<FUSED>(c4, a, b[4]);
        fma_col::<FUSED>(c5, a, b[5]);
        fma_col::<FUSED>(c6, a, b[6]);
        fma_col::<FUSED>(c7, a, b[7]);
    }
}

/// The portable scalar micro-kernel: fused only when the whole build targets
/// FMA hardware (`-C target-cpu=…`), separate mul+add otherwise — `mul_add`
/// without hardware FMA would fall back to a libm call per element.
#[inline(always)]
fn micro_kernel(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; MR]; NR]) {
    micro_kernel_generic::<{ cfg!(target_feature = "fma") }>(kc, pa, pb, acc)
}

/// The generic tile loop compiled with the `fma` target feature enabled for
/// this one function, so `mul_add` lowers to hardware FMA (and the fixed-trip
/// row loops autovectorise against it). Bit-identical to [`micro_kernel_avx2`]
/// by the pinned contraction order.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("fma")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn micro_kernel_scalar_fma(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; MR]; NR]) {
    micro_kernel_generic::<true>(kc, pa, pb, acc)
}

/// The explicit AVX2+FMA micro-kernel: per k step, the `MR = 16` packed `A`
/// lanes are two 8-lane vectors, and each of the `NR = 8` packed `B` values
/// is broadcast and fused-multiply-added into its column's pair of
/// accumulators.
///
/// The tile is processed in **two passes of four columns** (`j0 = 0, 4`):
/// a full 16×8 tile needs 16 ymm accumulators, which together with the two
/// `A` vectors and the broadcast register exceeds the 16 architectural ymm
/// registers and spills every iteration; 8 accumulators + 2 loads + 1
/// broadcast fit with room to spare. The second pass re-streams the packed
/// `A` strip from L1 (≤ 16 KiB), which is far cheaper than per-iteration
/// spills.
///
/// Partial tiles need no masking here: packing zero-pads ragged edges, the
/// padded lanes compute `fma(0, b, acc) = acc`, and write-back
/// ([`block_kernel`]) slices the padding off.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")` and
/// `("fma")`. `pa` must hold at least `kc·MR` and `pb` at least `kc·NR`
/// elements (debug-asserted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_avx2(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; MR]; NR]) {
    use std::arch::x86_64::*;
    debug_assert!(pa.len() >= kc * MR);
    debug_assert!(pb.len() >= kc * NR);
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    for half in 0..2 {
        let j0 = half * (NR / 2);
        let mut c0l = _mm256_setzero_ps();
        let mut c0h = _mm256_setzero_ps();
        let mut c1l = _mm256_setzero_ps();
        let mut c1h = _mm256_setzero_ps();
        let mut c2l = _mm256_setzero_ps();
        let mut c2h = _mm256_setzero_ps();
        let mut c3l = _mm256_setzero_ps();
        let mut c3h = _mm256_setzero_ps();
        for kk in 0..kc {
            let a_lo = _mm256_loadu_ps(pa.add(kk * MR));
            let a_hi = _mm256_loadu_ps(pa.add(kk * MR + 8));
            let bk = pb.add(kk * NR + j0);
            let b0 = _mm256_broadcast_ss(&*bk);
            c0l = _mm256_fmadd_ps(a_lo, b0, c0l);
            c0h = _mm256_fmadd_ps(a_hi, b0, c0h);
            let b1 = _mm256_broadcast_ss(&*bk.add(1));
            c1l = _mm256_fmadd_ps(a_lo, b1, c1l);
            c1h = _mm256_fmadd_ps(a_hi, b1, c1h);
            let b2 = _mm256_broadcast_ss(&*bk.add(2));
            c2l = _mm256_fmadd_ps(a_lo, b2, c2l);
            c2h = _mm256_fmadd_ps(a_hi, b2, c2h);
            let b3 = _mm256_broadcast_ss(&*bk.add(3));
            c3l = _mm256_fmadd_ps(a_lo, b3, c3l);
            c3h = _mm256_fmadd_ps(a_hi, b3, c3h);
        }
        _mm256_storeu_ps(acc[j0].as_mut_ptr(), c0l);
        _mm256_storeu_ps(acc[j0].as_mut_ptr().add(8), c0h);
        _mm256_storeu_ps(acc[j0 + 1].as_mut_ptr(), c1l);
        _mm256_storeu_ps(acc[j0 + 1].as_mut_ptr().add(8), c1h);
        _mm256_storeu_ps(acc[j0 + 2].as_mut_ptr(), c2l);
        _mm256_storeu_ps(acc[j0 + 2].as_mut_ptr().add(8), c2h);
        _mm256_storeu_ps(acc[j0 + 3].as_mut_ptr(), c3l);
        _mm256_storeu_ps(acc[j0 + 3].as_mut_ptr().add(8), c3h);
    }
}

/// The AVX-512 micro-kernel: a packed `A` step (`MR = 16` lanes) is exactly
/// one zmm register, so per k step one load of it and `NR = 8` FMAs — each
/// against one packed `B` value broadcast from memory (`{1to16}`) — carry the
/// whole 16×8 tile in eight accumulators: one pass, no second half to
/// re-stream `A` for. Eight independent chains cover the FMA latency on two
/// 512-bit ports. Lanes, steps and fusing are [`micro_kernel_avx2`]'s, so the
/// bits are too; ragged tiles are zero-padded by packing in the same way.
///
/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx512f")`. `pa` must
/// hold at least `kc·MR` and `pb` at least `kc·NR` elements (asserted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; MR]; NR]) {
    use std::arch::x86_64::*;
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    let (pa, pb) = (pa.as_ptr(), pb.as_ptr());
    let mut c = [_mm512_setzero_ps(); NR];
    for kk in 0..kc {
        let a = _mm512_loadu_ps(pa.add(kk * MR));
        let bk = pb.add(kk * NR);
        for (q, c) in c.iter_mut().enumerate() {
            *c = _mm512_fmadd_ps(a, _mm512_set1_ps(*bk.add(q)), *c);
        }
    }
    for (col, c) in acc.iter_mut().zip(c) {
        _mm512_storeu_ps(col.as_mut_ptr(), c);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Run `f` with every GEMM this thread issues pinned to `kernel`.
    pub(crate) fn with_kernel<R>(kernel: KernelKind, f: impl FnOnce() -> R) -> R {
        let prev = PINNED.with(|p| p.replace(Some(kernel)));
        let out = f();
        PINNED.with(|p| p.set(prev));
        out
    }

    /// The per-element packer the unit-stride [`pack_a`] replaced, kept as
    /// its oracle: one `View::at` per element, any strides.
    fn pack_a_strided(a: View, m0: usize, mc: usize, k0: usize, kc: usize, dst: &mut [f32]) {
        let mut off = 0;
        for i in (0..mc).step_by(MR) {
            for kk in 0..kc {
                for r in 0..MR {
                    dst[off] = if i + r < mc { a.at(m0 + i + r, k0 + kk) } else { 0.0 };
                    off += 1;
                }
            }
        }
    }

    /// The per-element oracle for [`pack_b`].
    fn pack_b_strided(b: View, k0: usize, kc: usize, n: usize, dst: &mut [f32]) {
        let mut off = 0;
        for j in (0..n).step_by(NR) {
            for kk in 0..kc {
                for q in 0..NR {
                    dst[off] = if j + q < n { b.at(k0 + kk, j + q) } else { 0.0 };
                    off += 1;
                }
            }
        }
    }

    /// Every micro-kernel this host can run.
    pub(crate) fn available_kernels() -> Vec<KernelKind> {
        let mut kinds = vec![KernelKind::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("fma") {
            kinds.push(KernelKind::ScalarFma);
            if std::is_x86_feature_detected!("avx2") {
                kinds.push(KernelKind::Avx2Fma);
                if std::is_x86_feature_detected!("avx512f") {
                    kinds.push(KernelKind::Avx512Fma);
                }
            }
        }
        kinds
    }

    /// The per-kind sweeps run what [`available_kernels`] lists: log it (so a
    /// CI log shows which kinds this host exercised), and pin that a wider
    /// kind never displaces a narrower one from the list — on an AVX-512 host
    /// `Avx2Fma` is still swept, and is still the reference the rest match.
    #[test]
    fn kernel_kinds_swept_on_this_host() {
        let kinds = available_kernels();
        swt_obs::info!("tensor.tests", "kernel kinds swept on this host: {kinds:?}");
        assert_eq!(kinds[0], KernelKind::Scalar);
        assert!(kinds.contains(&detect_kernel()), "the dispatched kind is not swept: {kinds:?}");
        #[cfg(target_arch = "x86_64")]
        for (wider, narrower) in [
            (KernelKind::Avx512Fma, KernelKind::Avx2Fma),
            (KernelKind::Avx2Fma, KernelKind::ScalarFma),
        ] {
            assert!(!kinds.contains(&wider) || kinds.contains(&narrower), "{kinds:?}");
        }
    }

    /// The contraction every product of this crate pins, written as a plain
    /// loop: the one bitwise oracle of the dense and the convolution sweeps.
    /// Per output element one chain from `+0.0`, `k` ascending, one
    /// multiply-add per step. Above the cutoff the chain runs in `KC`-step
    /// panels whose sums are added in panel order, and each step is fused
    /// unless `kind` is `Scalar`; at or below it the chain is undivided and
    /// fused only where the build itself fuses — the direct loops'.
    pub(crate) fn oracle(
        kind: KernelKind,
        m: usize,
        n: usize,
        k: usize,
        a: View,
        b: View,
    ) -> Vec<f32> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("fma") {
            /// The same loop, with `mul_add` an instruction rather than a
            /// libm call: one rounding either way, so the same values.
            ///
            /// # Safety
            /// Caller must have verified `is_x86_feature_detected!("fma")`.
            #[target_feature(enable = "fma")]
            unsafe fn oracle_fma(
                kind: KernelKind,
                m: usize,
                n: usize,
                k: usize,
                a: View,
                b: View,
            ) -> Vec<f32> {
                oracle_loop(kind, m, n, k, a, b)
            }
            // SAFETY: FMA was detected just above.
            return unsafe { oracle_fma(kind, m, n, k, a, b) };
        }
        oracle_loop(kind, m, n, k, a, b)
    }

    #[inline(always)]
    fn oracle_loop(kind: KernelKind, m: usize, n: usize, k: usize, a: View, b: View) -> Vec<f32> {
        let small = m * n * k <= SMALL_FLOPS;
        let fused = cfg!(target_feature = "fma") || !small && kind != KernelKind::Scalar;
        let panel = if small { k.max(1) } else { KC };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut sum = 0.0f32;
                for k0 in (0..k).step_by(panel) {
                    let mut acc = 0.0f32;
                    for kk in k0..k.min(k0 + panel) {
                        let (x, y) = (a.at(i, kk), b.at(kk, j));
                        acc = if fused { x.mul_add(y, acc) } else { x * y + acc };
                    }
                    sum = if k0 == 0 { acc } else { sum + acc };
                }
                c[i * n + j] = sum;
            }
        }
        c
    }

    /// `got` and `want` to the bit, naming the first element that differs.
    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: lengths");
        if let Some(at) = got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
            panic!("{what}: element {at} is {:e}, the oracle's {:e}", got[at], want[at]);
        }
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        matmul_naive(a, b)
    }

    /// `A·Bᵀ` on the packed GEMM pinned to one kernel, `bt` given as `n×k`: the
    /// layout the blocked path packs, through the cutoff like `matmul_bt`.
    fn blocked_with(kernel: KernelKind, a: &Tensor, bt: &Tensor) -> Tensor {
        let (m, k) = dims2(a, "lhs");
        let (n, _) = dims2(bt, "rhs");
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; m * n];
        gemm_with_kernel(
            kernel,
            m,
            n,
            k,
            View { data: a.data(), rs: k, cs: 1 },
            View { data: bt.data(), rs: 1, cs: k },
            &mut out,
            &mut ws,
        );
        Tensor::from_vec([m, n], out)
    }

    fn bitwise_eq(x: &Tensor, y: &Tensor) -> bool {
        x.shape() == y.shape()
            && x.data().iter().zip(y.data()).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed(1);
        let a = Tensor::rand_normal([5, 5], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).approx_eq(&a, 1e-6));
        assert!(matmul(&eye, &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matches_naive_on_random_sizes() {
        let mut rng = Rng::seed(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (8, 1, 8), (17, 9, 13)] {
            let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
            assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-4), "({m},{k},{n})");
        }
    }

    /// All three entry points against the textbook loop, on sizes straddling
    /// the `MR`/`NR`/`MC`/`KC` edges of the packed GEMM and the tiles'
    /// vector and panel edges, multiple K panels included.
    #[test]
    fn blocked_path_matches_naive_across_block_edges() {
        let mut rng = Rng::seed(3);
        for &(m, k, n) in &[
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC - 1, 40, 200),
            (MC + 3, 2 * KC + 5, 33),
            (96, 300, 17),
            (1, 512, 64),
            (64, 512, 1),
        ] {
            let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
            let expect = naive(&a, &b);
            assert!(matmul(&a, &b).approx_eq(&expect, 1e-3), "({m},{k},{n})");
            assert!(matmul_at(&a.transpose2(), &b).approx_eq(&expect, 1e-3), "at ({m},{k},{n})");
            assert!(matmul_bt(&a, &b.transpose2()).approx_eq(&expect, 1e-3), "bt ({m},{k},{n})");
        }
    }

    /// Every `(m % MR, n % NR, k % KC)` residue class of the packed GEMM,
    /// on every kernel this host runs: each is the oracle's to the bit — so
    /// the fusing kinds (`ScalarFma`, `Avx2Fma`, `Avx512Fma`) agree with each
    /// other whatever their vector width — and near the textbook loop.
    #[test]
    fn remainder_paths_all_kernels_agree() {
        let mut rng = Rng::seed(31);
        // Residues 0, 1 and max for each tile dimension, plus multi-panel
        // `k` (two and three `KC` panels) so the panel-accumulate path is
        // covered in every kernel.
        let ms = [MR, MR + 1, 2 * MR - 1, 3];
        let ns = [NR, NR + 1, 2 * NR - 1, 5];
        let ks = [1, 2, KC - 1, KC, KC + 1, 2 * KC - 7, 2 * KC + 3];
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
                    let bt = Tensor::rand_normal([n, k], 0.0, 1.0, &mut rng);
                    let reference = naive(&a, &bt.transpose2());
                    let views = (
                        View { data: a.data(), rs: k, cs: 1 },
                        View { data: bt.data(), rs: 1, cs: k },
                    );
                    for kind in available_kernels() {
                        let got = blocked_with(kind, &a, &bt);
                        let what = format!("{kind:?} ({m},{n},{k})");
                        assert!(got.approx_eq(&reference, 1e-3), "{what}");
                        assert_bits(got.data(), &oracle(kind, m, n, k, views.0, views.1), &what);
                    }
                }
            }
        }
    }

    /// A dense layer's three products — `x·w`, `xᵀ·dy`, `dy·wᵀ` — through
    /// the `_ws` entry points the layer calls, on every kernel this host
    /// runs, each the oracle's to the bit.
    fn assert_dense_layer_matches_oracle(x: &Tensor, w: &Tensor, dy: &Tensor, what: &str) {
        let ((batch, fan_in), (_, units)) = (dims2(x, "x"), dims2(w, "w"));
        // Each operand as its product reads it: row-major, or transposed.
        let x_rows = View { data: x.data(), rs: fan_in, cs: 1 };
        let x_cols = View { data: x.data(), rs: 1, cs: fan_in };
        let w_rows = View { data: w.data(), rs: units, cs: 1 };
        let w_cols = View { data: w.data(), rs: 1, cs: units };
        let dy_rows = View { data: dy.data(), rs: units, cs: 1 };
        let want = |kind| {
            [
                oracle(kind, batch, units, fan_in, x_rows, w_rows),
                oracle(kind, fan_in, units, batch, x_cols, dy_rows),
                oracle(kind, batch, fan_in, units, dy_rows, w_cols),
            ]
        };
        // One oracle for the unfused kind and one for every fusing kind.
        let (unfused, fused) =
            (want(KernelKind::Scalar), available_kernels().get(1).map(|&k| want(k)));
        let mut ws = Workspace::new();
        for kind in available_kernels() {
            let got = with_kernel(kind, || {
                [
                    matmul_ws(x, w, &mut ws),
                    matmul_at_ws(x, dy, &mut ws),
                    matmul_bt_ws(dy, w, &mut ws),
                ]
            });
            let want = if kind == KernelKind::Scalar {
                &unfused
            } else {
                fused.as_ref().expect("a fusing kind")
            };
            for ((got, want), product) in got.iter().zip(want).zip(["x·w", "xᵀ·dy", "dy·wᵀ"])
            {
                let shape = format!("{product} {kind:?} {batch}x{fan_in}x{units} {what}");
                assert_bits(got.data(), want, &shape);
            }
        }
    }

    /// `batch × fan_in → units` layer operands, `N(0, 1)` but for `w`.
    fn dense_case(batch: usize, fan_in: usize, units: usize, rng: &mut Rng) -> [Tensor; 3] {
        [
            Tensor::rand_normal([batch, fan_in], 0.0, 1.0, rng),
            Tensor::rand_normal([fan_in, units], 0.0, 0.1, rng),
            Tensor::rand_normal([batch, units], 0.0, 1.0, rng),
        ]
    }

    /// Every dense shape the search spaces emit, and every edge the three
    /// engines branch on, `to_bits()`-equal to the oracle on every kind. A
    /// layer `batch × fan_in → units` is three products of the same `m·n·k`,
    /// contracting over `fan_in` (`x·w`), `batch` (`xᵀ·dy`) and `units`
    /// (`dy·wᵀ`).
    #[test]
    fn dense_products_match_the_oracle_bitwise() {
        let mut rng = Rng::seed(0xD5);
        let mut shapes = Vec::new();
        // Uno: every layer width `BENCH_gemm.json` times, at batch 32.
        for fan_in in [64, 96, 128, 160, 321] {
            shapes.extend([1, 32, 64, 128].map(|units| (32, fan_in, units)));
        }
        // Cifar10's flatten widths at batch 64, NT3's at batch 32.
        for (batch, fan_in) in [(64, 3456), (64, 864), (32, 2048), (32, 404)] {
            shapes.extend([10, 32, 64, 128].map(|units| (batch, fan_in, units)));
        }
        shapes.extend([
            // `m·n·k` one under the cutoff, on it, and one over.
            (7, 151, 31),
            (32, 32, 32),
            (9, 331, 11),
            // `KC + 1` steps: two panels in `x·w`, `xᵀ·dy` and `dy·wᵀ`, with
            // ragged vectors of 33 and 10 lanes.
            (32, KC + 1, 33),
            (KC + 1, 20, 10),
            (16, 40, KC + 1),
        ]);
        assert_eq!(7 * 151 * 31 + 1, SMALL_FLOPS);
        assert_eq!(9 * 331 * 11 - 1, SMALL_FLOPS);
        for (batch, fan_in, units) in shapes {
            let [x, w, dy] = dense_case(batch, fan_in, units, &mut rng);
            assert_dense_layer_matches_oracle(&x, &w, &dy, "");
        }
    }

    /// Signed zeros, chains whose every product underflows, and infinities
    /// and NaN meet the three products as they meet the oracle, below and
    /// above the cutoff.
    #[test]
    fn dense_products_meet_zeros_underflow_and_non_finite_like_the_oracle() {
        let mut rng = Rng::seed(0xD6);
        for (batch, fan_in, units) in [(8, 20, 12), (32, KC + 1, 33)] {
            // Every product of `x·w` and `xᵀ·dy` is a negative number too
            // small for an `f32`: a fused chain ends in `-0.0`, an unfused one
            // in `+0.0`. A few operands are `-0.0` themselves.
            let tiny = |t: Tensor, sign: f32| t.map(|v| sign * v.abs() * 1e-30);
            let [x, w, dy] = dense_case(batch, fan_in, units, &mut rng);
            let (mut x, mut w, dy) = (tiny(x, 1.0), tiny(w, -1.0), tiny(dy, -1.0));
            x.data_mut()[0] = -0.0;
            w.data_mut()[fan_in * units - 1] = -0.0;
            assert_dense_layer_matches_oracle(&x, &w, &dy, "underflow");

            let [mut x, mut w, mut dy] = dense_case(batch, fan_in, units, &mut rng);
            x.data_mut()[1] = f32::INFINITY;
            w.data_mut()[units + 2] = f32::NAN;
            dy.data_mut()[units] = f32::NEG_INFINITY;
            x.data_mut()[fan_in] = -0.0;
            assert_dense_layer_matches_oracle(&x, &w, &dy, "non-finite");
        }
    }

    /// Two threads split the tile's products (`x·w` over rows, `xᵀ·dy` over
    /// output rows of `dW`) above the convolutions' dispatch size; the bits
    /// stay the oracle's.
    #[test]
    fn dense_products_on_two_threads_match_the_oracle_bitwise() {
        let (batch, fan_in, units) = (64, 3456, 128);
        assert!(batch * fan_in * units >= conv2d::PAR_MACS, "would not dispatch");
        let [x, w, dy] = dense_case(batch, fan_in, units, &mut Rng::seed(0xD7));
        let _lock = parallel::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let _two = parallel::scoped_max_threads(2);
        assert_dense_layer_matches_oracle(&x, &w, &dy, "two threads");
    }

    /// The one `i → k → j` loop over `View::at` that [`gemm_small`]'s
    /// layout-chosen loops replaced, kept as their oracle.
    fn gemm_small_at(m: usize, n: usize, k: usize, a: View, b: View, c: &mut [f32]) {
        for i in 0..m {
            let crow = &mut c[i * n..(i + 1) * n];
            crow.fill(0.0);
            for kk in 0..k {
                let aik = a.at(i, kk);
                for (j, o) in crow.iter_mut().enumerate() {
                    *o = fmadd(aik, b.at(kk, j), *o);
                }
            }
        }
    }

    /// Every product under the small-problem cutoff, through the three entry
    /// points (so through `route` and all three view layouts), is the old
    /// loop's to the bit: dimensions on and around [`CHAINS`] and [`LANES`],
    /// empty ones included.
    #[test]
    fn small_products_match_the_strided_loop_bitwise() {
        let mut rng = Rng::seed(57);
        let dims = [0usize, 1, 2, 7, 8, 9, 31, 32, 33, 65];
        let mut products = 0;
        for &m in &dims {
            for &n in &dims {
                for &k in &dims {
                    if m * n * k > SMALL_FLOPS {
                        continue;
                    }
                    products += 1;
                    let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
                    let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
                    let (at, bt) = (a.transpose2(), b.transpose2());
                    // Each entry point against the old loop on the views it
                    // passes down.
                    let old = |a: View, b: View| {
                        let mut c = vec![f32::NAN; m * n];
                        gemm_small_at(m, n, k, a, b, &mut c);
                        Tensor::from_vec([m, n], c)
                    };
                    let a_rows = View { data: a.data(), rs: k, cs: 1 };
                    let b_rows = View { data: b.data(), rs: n, cs: 1 };
                    let a_cols = View { data: at.data(), rs: 1, cs: m };
                    let b_cols = View { data: bt.data(), rs: 1, cs: k };
                    let shape = format!("({m},{n},{k})");
                    assert!(bitwise_eq(&matmul(&a, &b), &old(a_rows, b_rows)), "matmul {shape}");
                    assert!(bitwise_eq(&matmul_at(&at, &b), &old(a_cols, b_rows)), "at {shape}");
                    assert!(bitwise_eq(&matmul_bt(&a, &bt), &old(a_rows, b_cols)), "bt {shape}");
                }
            }
        }
        assert!(products > 700, "the cutoff left {products} products to compare");
    }

    #[test]
    fn at_variant_equals_explicit_transpose() {
        let mut rng = Rng::seed(4);
        for &(k, m, n) in &[(7, 3, 5), (130, 70, 90)] {
            let a = Tensor::rand_normal([k, m], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
            let expect = matmul(&a.transpose2(), &b);
            assert!(matmul_at(&a, &b).approx_eq(&expect, 1e-3), "({k},{m},{n})");
        }
    }

    #[test]
    fn bt_variant_equals_explicit_transpose() {
        let mut rng = Rng::seed(5);
        for &(m, n, k) in &[(6, 9, 4), (80, 120, 66)] {
            let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal([n, k], 0.0, 1.0, &mut rng);
            let expect = matmul(&a, &b.transpose2());
            assert!(matmul_bt(&a, &b).approx_eq(&expect, 1e-3), "({m},{n},{k})");
        }
    }

    #[test]
    fn ws_variants_reuse_buffers() {
        let mut ws = Workspace::new();
        let mut rng = Rng::seed(6);
        let a = Tensor::rand_normal([48, 96], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([96, 32], 0.0, 1.0, &mut rng);
        let c1 = matmul_ws(&a, &b, &mut ws);
        let expect = naive(&a, &b);
        assert!(c1.approx_eq(&expect, 1e-4));
        ws.recycle(c1);
        let pooled_before = ws.pooled();
        let c2 = matmul_ws(&a, &b, &mut ws);
        assert!(c2.approx_eq(&expect, 1e-4));
        // The output buffer came back out of the pool.
        assert!(ws.pooled() < pooled_before + 1);
    }

    /// The unit-stride packers against the per-element `View::at` packers,
    /// bit for bit on every kernel's data movement, over every `MR`/`NR`
    /// residue, ragged and multi-strip blocks, and k-ranges that start
    /// mid-matrix (a second `KC` panel).
    #[test]
    fn unit_stride_packers_match_the_strided_packers() {
        let mut rng = Rng::seed(41);
        let (rows, k) = (KC + 21, KC + 37);
        let data = Tensor::rand_normal([rows, k], 0.0, 1.0, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The same buffer read as a row-major `A` (`rows×k`) and as a
        // transposed `B` (`k×rows`): rows of `k` contiguous steps both ways.
        let a = View { data: data.data(), rs: k, cs: 1 };
        let b = View { data: data.data(), rs: 1, cs: k };
        for kernel in available_kernels() {
            for &(m0, mc) in
                &[(0, 1), (0, MR), (3, MR + 1), (MC, MC), (rows - 7, 7), (5, 3 * MR - 1)]
            {
                for &(k0, kc) in &[(0, 1), (0, 19), (KC, k - KC), (7, KC.min(k - 7))] {
                    let len = mc.div_ceil(MR) * MR * kc;
                    let (mut fast, mut slow) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                    pack_a(kernel, a, m0, mc, k0, kc, &mut fast);
                    pack_a_strided(a, m0, mc, k0, kc, &mut slow);
                    assert_eq!(bits(&fast), bits(&slow), "pack_a {kernel:?} ({m0},{mc},{k0},{kc})");
                }
            }
            // All of `B`'s columns are packed: sweep their count through the
            // NR residues.
            for n in [1, NR - 1, NR, NR + 1, 3 * NR + 5, rows] {
                for &(k0, kc) in &[(0, 1), (0, 23), (k - 9, 9), (KC.min(k - 30), 30)] {
                    let len = n.div_ceil(NR) * NR * kc;
                    // A longer `dst` than the panel needs, as the driver
                    // passes for a short last panel.
                    let (mut fast, mut slow) = (vec![f32::NAN; len + 8], vec![f32::NAN; len + 8]);
                    pack_b(kernel, b, k0, kc, n, &mut fast);
                    pack_b_strided(b, k0, kc, n, &mut slow);
                    assert_eq!(
                        bits(&fast[..len]),
                        bits(&slow[..len]),
                        "pack_b {kernel:?} ({k0},{kc},{n})"
                    );
                }
            }
        }
    }

    /// The parallel row-block path (per-thread pack scratch) must produce
    /// exactly the serial result: same packing, same kernels, disjoint C.
    #[test]
    fn parallel_row_blocks_match_serial_bitwise() {
        let mut rng = Rng::seed(8);
        // Two full MC row blocks plus a ragged one; wide enough to clear
        // PAR_THRESHOLD with room (m*n = 2*MC*n ≥ 64k needs n ≥ 475).
        let (m, k, n) = (2 * MC + 7, KC + 9, 512);
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let bt = Tensor::rand_normal([n, k], 0.0, 1.0, &mut rng);
        let _lock = parallel::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let serial = {
            let _one = parallel::scoped_max_threads(1);
            matmul_bt(&a, &bt)
        };
        let _three = parallel::scoped_max_threads(3);
        assert!(bitwise_eq(&serial, &matmul_bt(&a, &bt)));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
