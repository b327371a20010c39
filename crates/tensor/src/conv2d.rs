//! 2-D convolution (NHWC) as an implicit GEMM, forward and backward.
//!
//! The CIFAR-like and MNIST-like search spaces stack convolutional variable
//! nodes with `valid`/`same` padding choices (Section VII-A); this module
//! provides the kernel. Stride is fixed at 1 — exactly like the paper's
//! search spaces, where spatial reduction comes from the pooling variable
//! nodes, not from strided convolutions.
//!
//! A convolution is the product of the *patch matrix* `col` — one row per
//! output position `(n, oy, ox)`, one column per kernel tap and channel
//! `(ky, kx, c)`, zeros where a tap falls on padding — with the kernel
//! reshaped to `(kh·kw·c, f)`. `col` is never built. In NHWC the in-bounds
//! taps of one kernel row are one contiguous run of the input, so a row of
//! `col` is a short list of segments (`Geom::segments`), and the three
//! products of a training step read or write the tensors through that list:
//!
//! * **forward** `out = col · W`: `Patches` packs the `MR`-tall strips of
//!   `col` the blocked driver in [`mod@crate::matmul`] asks for straight from the
//!   input;
//! * **`dW = colᵀ · dOut`**: `PatchesT` packs the same values as strips of
//!   `colᵀ`;
//! * **`dX`**: each `MC`-row block of `dCol = dOut · Wᵀ` is computed into a
//!   scratch tile (`RowBlocks`) and scatter-added into `d_input` while
//!   still in cache.
//!
//! Packing only changes where an operand's elements are read from. Every
//! output element is still contracted over `(ky, kx, c)` ascending, padding
//! zeros included, one multiply-add per step on the same micro-kernel, `KC`
//! panel sums combined in panel order, and each `d_input` element still
//! receives its contributions in `(oy, ox, ky, kx)` order — so the results
//! are bit-identical to multiplying a materialised `col`, which is what the
//! tests here do (`oracle`). The `_ws` variants draw every scratch buffer
//! from a caller-owned [`Workspace`], so steady-state training allocates
//! nothing.

use crate::matmul::{gemm, pack_rows, KernelKind, Lhs, RowBlocks, View, KC, MC, MR, PAR_THRESHOLD};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::{with_thread_workspace, Workspace};

/// Convolution padding mode, mirroring the Keras/TensorFlow vocabulary used
/// by the paper's search spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding; output shrinks by `k - 1`.
    Valid,
    /// Zero padding so the output has the input's spatial size (stride 1).
    /// Total padding `k - 1` split TensorFlow-style: `floor` before, `ceil`
    /// after.
    Same,
}

impl Padding {
    /// `(pad_before, pad_after)` for kernel size `k` at stride 1.
    pub fn pads(self, k: usize) -> (usize, usize) {
        match self {
            Padding::Valid => (0, 0),
            Padding::Same => {
                let total = k - 1;
                (total / 2, total - total / 2)
            }
        }
    }

    /// Output spatial size for input size `s` and kernel size `k`.
    pub fn out_size(self, s: usize, k: usize) -> usize {
        match self {
            Padding::Valid => {
                assert!(s >= k, "valid conv: input {s} smaller than kernel {k}");
                s - k + 1
            }
            Padding::Same => s,
        }
    }
}

/// The shape bookkeeping of one stride-1 convolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geom {
    pub(crate) n: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) c: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) f: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    /// Padding rows above / columns left of the input.
    pt: usize,
    pl: usize,
}

/// One output position `(n, oy, ox)`: a row of the patch matrix.
#[derive(Clone, Copy)]
struct Pos {
    ni: usize,
    oy: usize,
    ox: usize,
}

impl Geom {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        kh: usize,
        kw: usize,
        f: usize,
        padding: Padding,
    ) -> Self {
        let (oh, ow) = (padding.out_size(h, kh), padding.out_size(w, kw));
        Geom { n, h, w, c, kh, kw, f, oh, ow, pt: padding.pads(kh).0, pl: padding.pads(kw).0 }
    }

    /// Rows of the patch matrix: output positions.
    fn rows(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Columns of the patch matrix: kernel taps × channels.
    fn cols(&self) -> usize {
        self.kh * self.kw * self.c
    }

    /// The output position of patch row `row`.
    fn pos(&self, row: usize) -> Pos {
        let (ni, rest) = (row / (self.oh * self.ow), row % (self.oh * self.ow));
        Pos { ni, oy: rest / self.ow, ox: rest % self.ow }
    }

    /// Step `p` to the next patch row (packing walks rows in order, so the
    /// divisions of [`pos`](Self::pos) are paid once per block, not per row).
    #[inline(always)]
    fn advance(&self, p: &mut Pos) {
        p.ox += 1;
        if p.ox == self.ow {
            p.ox = 0;
            p.oy += 1;
            if p.oy == self.oh {
                p.oy = 0;
                p.ni += 1;
            }
        }
    }

    /// The patch row at `p` restricted to columns `[lo, hi)`, as segments in
    /// ascending column order that together cover the range:
    /// `emit(col, len, Some(at))` for `len` columns that are the input
    /// elements `x[at..at + len]`, `emit(col, len, None)` for `len` columns
    /// of padding zeros.
    #[inline(always)]
    fn segments(
        &self,
        p: Pos,
        lo: usize,
        hi: usize,
        mut emit: impl FnMut(usize, usize, Option<usize>),
    ) {
        let Pos { ni, oy, ox } = p;
        // In-bounds taps of every kernel row: ix = ox + kx - pl in [0, w).
        let kx_lo = self.pl.saturating_sub(ox);
        let kx_hi = self.kw.min(self.w + self.pl - ox);
        let kernel_row = self.kw * self.c;
        let mut piece = |from: usize, to: usize, at: Option<usize>| {
            let (start, end) = (from.max(lo), to.min(hi));
            if start < end {
                emit(start, end - start, at.map(|at| at + (start - from)));
            }
        };
        for ky in lo / kernel_row..hi.div_ceil(kernel_row) {
            let (from, to) = (ky * kernel_row, (ky + 1) * kernel_row);
            // iy = oy + ky - pt in [0, h), or the whole kernel row is padding.
            if oy + ky < self.pt || oy + ky - self.pt >= self.h {
                piece(from, to, None);
                continue;
            }
            let iy = oy + ky - self.pt;
            let at = ((ni * self.h + iy) * self.w + ox + kx_lo - self.pl) * self.c;
            let (a, b) = (from + kx_lo * self.c, from + kx_hi * self.c);
            piece(from, a, None);
            piece(a, b, Some(at));
            piece(b, to, None);
        }
    }

    /// Columns `[lo, hi)` of the patch row at `p`, copied out of the input
    /// `x` (zeros for padding taps) into `out`, which is `hi - lo` long.
    #[inline(always)]
    fn read_row(&self, x: &[f32], p: Pos, lo: usize, hi: usize, out: &mut [f32]) {
        self.segments(p, lo, hi, |col, len, at| {
            let run = &mut out[col - lo..col - lo + len];
            match at {
                Some(at) => run.copy_from_slice(&x[at..at + len]),
                None => run.fill(0.0),
            }
        });
    }
}

/// The patch matrix `col` (`rows × cols`) as a left operand.
struct Patches<'a> {
    g: &'a Geom,
    x: &'a [f32],
}

impl Lhs for Patches<'_> {
    fn at(&self, i: usize, kk: usize) -> f32 {
        let mut v = [0.0];
        self.g.read_row(self.x, self.g.pos(i), kk, kk + 1, &mut v);
        v[0]
    }

    fn pack(
        &self,
        kernel: KernelKind,
        m0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        dst: &mut [f32],
    ) {
        // A strip's patch rows are staged row-major (contiguous copies,
        // L1-resident), then transposed into the `[kc][MR]` layout together.
        let mut stage = [0.0f32; MR * KC];
        for (s, strip) in dst.chunks_exact_mut(MR * kc).enumerate() {
            let i = m0 + s * MR;
            let rows = MR.min(m0 + mc - i);
            let mut p = self.g.pos(i);
            for row in stage.chunks_exact_mut(kc).take(rows) {
                self.g.read_row(self.x, p, k0, k0 + kc, row);
                self.g.advance(&mut p);
            }
            pack_rows::<MR>(kernel, &stage, kc, rows, kc, strip);
        }
    }
}

/// `colᵀ` (`cols × rows`) as a left operand: the weight gradient contracts
/// over output positions.
struct PatchesT<'a>(Patches<'a>);

impl Lhs for PatchesT<'_> {
    fn at(&self, i: usize, kk: usize) -> f32 {
        self.0.at(kk, i)
    }

    fn pack(
        &self,
        _kernel: KernelKind,
        m0: usize,
        mc: usize,
        k0: usize,
        kc: usize,
        dst: &mut [f32],
    ) {
        // The lanes of k step `kk` are consecutive columns of patch row
        // `k0 + kk`: read the block's columns once, deal them out a strip
        // at a time. Lanes past `mc` are never written and stay zero.
        let Patches { g, x } = self.0;
        let mut window = [0.0f32; MC];
        let mut p = g.pos(k0);
        for kk in 0..kc {
            g.read_row(x, p, m0, m0 + mc, &mut window[..mc]);
            for (s, lanes) in window.chunks_exact(MR).take(mc.div_ceil(MR)).enumerate() {
                dst[(s * kc + kk) * MR..][..MR].copy_from_slice(lanes);
            }
            g.advance(&mut p);
        }
    }
}

/// `out (rows × f) = col · W`.
pub(crate) fn forward(g: &Geom, x: &[f32], kernel: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let mut out = ws.take(g.rows() * g.f);
    let w = View { data: kernel, rs: g.f, cs: 1 };
    gemm(g.rows(), g.f, g.cols(), &Patches { g, x }, w, &mut out, ws);
    out
}

/// `(d_input, d_kernel)` as flat NHWC / `(kh, kw, c, f)` buffers.
pub(crate) fn backward(
    g: &Geom,
    x: &[f32],
    kernel: &[f32],
    dout: &[f32],
    ws: &mut Workspace,
) -> (Vec<f32>, Vec<f32>) {
    let (rows, cols, f) = (g.rows(), g.cols(), g.f);
    // dW = colᵀ · dOut
    let mut dk = ws.take(cols * f);
    let dout = View { data: dout, rs: f, cs: 1 };
    gemm(cols, f, rows, &PatchesT(Patches { g, x }), dout, &mut dk, ws);

    // dX: dCol = dOut · Wᵀ one row block at a time, scattered as it appears.
    let mut dx = ws.take_zeroed(g.n * g.h * g.w * g.c);
    if rows == 0 {
        return (dx, dk);
    }
    let dcol = RowBlocks::new(rows, cols, f, dout, View { data: kernel, rs: 1, cs: f }, ws);
    // Scatter targets of different samples are disjoint, so tasks are whole
    // samples: all of them in one serial task, or just enough per task to
    // fill an `MC` block when there are threads to feed.
    let go_parallel = parallel::max_threads() > 1 && g.n > 1 && rows * cols >= PAR_THRESHOLD;
    let (group, tasks) = if go_parallel {
        let group = MC.div_ceil(g.oh * g.ow);
        (group, parallel::max_threads().min(g.n.div_ceil(group)))
    } else {
        (g.n, 1)
    };
    let group_rows = group * g.oh * g.ow;
    let group_len = group * g.h * g.w * g.c;
    let pa_len = dcol.pa_len(group_rows);
    let piece = pa_len + MC.min(group_rows) * cols;
    let mut scratch = ws.take(tasks * piece);
    parallel::par_chunks_mut_scratch(&mut dx, group_len, &mut scratch, piece, |gi, dx, s| {
        let (pa, tile) = s.split_at_mut(pa_len);
        let end = rows.min((gi + 1) * group_rows);
        for m0 in (gi * group_rows..end).step_by(MC) {
            let mc = MC.min(end - m0);
            let tile = &mut tile[..mc * cols];
            dcol.block(m0, mc, pa, tile);
            let mut p = g.pos(m0);
            for trow in tile.chunks_exact(cols) {
                g.segments(p, 0, cols, |col, len, at| {
                    if let Some(at) = at {
                        let at = at - gi * group_len;
                        for (d, &v) in dx[at..at + len].iter_mut().zip(&trow[col..col + len]) {
                            *d += v;
                        }
                    }
                });
                g.advance(&mut p);
            }
        }
    });
    ws.give(scratch);
    dcol.finish(ws);
    (dx, dk)
}

fn geom2d(input: &Tensor, kernel: &Tensor, padding: Padding) -> Geom {
    assert_eq!(input.shape().rank(), 4, "conv2d input must be NHWC rank 4");
    assert_eq!(kernel.shape().rank(), 4, "conv2d kernel must be (kh, kw, c, f)");
    let (i, k) = (input.shape().dims(), kernel.shape().dims());
    assert_eq!(i[3], k[2], "conv2d channel mismatch: input {}, kernel {}", i[3], k[2]);
    Geom::new(i[0], i[1], i[2], i[3], k[0], k[1], k[3], padding)
}

/// Forward 2-D convolution.
///
/// * `input` — `(n, h, w, c)`
/// * `kernel` — `(kh, kw, c, f)`
///
/// Returns `(n, oh, ow, f)`.
pub fn conv2d_forward(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
    with_thread_workspace(|ws| conv2d_forward_ws(input, kernel, padding, ws))
}

/// [`conv2d_forward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv2d_forward_ws(
    input: &Tensor,
    kernel: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> Tensor {
    let g = geom2d(input, kernel, padding);
    Tensor::from_vec([g.n, g.oh, g.ow, g.f], forward(&g, input.data(), kernel.data(), ws))
}

/// Backward 2-D convolution: given upstream gradient `dout (n, oh, ow, f)`,
/// returns `(d_input, d_kernel)`.
pub fn conv2d_backward(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
) -> (Tensor, Tensor) {
    with_thread_workspace(|ws| conv2d_backward_ws(input, kernel, dout, padding, ws))
}

/// [`conv2d_backward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv2d_backward_ws(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let g = geom2d(input, kernel, padding);
    assert_eq!(
        dout.shape().dims(),
        &[g.n, g.oh, g.ow, g.f],
        "conv2d_backward: dout shape {} unexpected",
        dout.shape()
    );
    let (dx, dk) = backward(&g, input.data(), kernel.data(), dout.data(), ws);
    (Tensor::from_vec([g.n, g.h, g.w, g.c], dx), Tensor::from_vec([g.kh, g.kw, g.c, g.f], dk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::{available_kernels, with_kernel};
    use crate::rng::Rng;

    /// The lowering this module replaced, kept as the bitwise oracle:
    /// materialise the patch matrix, run the three GEMMs on plain row-major
    /// views, scatter `dCol` back with `col2im`.
    mod oracle {
        use super::*;

        fn im2col(g: &Geom, x: &[f32]) -> Vec<f32> {
            let cols = g.cols();
            let mut m = vec![0.0; g.rows() * cols];
            for (row, out) in m.chunks_exact_mut(cols).enumerate() {
                let (ni, oy, ox) = (row / (g.oh * g.ow), row / g.ow % g.oh, row % g.ow);
                for ky in 0..g.kh {
                    let iy = (oy + ky) as isize - g.pt as isize;
                    if iy < 0 || iy >= g.h as isize {
                        continue; // zero padding: leave zeros
                    }
                    for kx in 0..g.kw {
                        let ix = (ox + kx) as isize - g.pl as isize;
                        if ix < 0 || ix >= g.w as isize {
                            continue;
                        }
                        let dst = (ky * g.kw + kx) * g.c;
                        let src = ((ni * g.h + iy as usize) * g.w + ix as usize) * g.c;
                        out[dst..dst + g.c].copy_from_slice(&x[src..src + g.c]);
                    }
                }
            }
            m
        }

        fn col2im(g: &Geom, dcol: &[f32]) -> Vec<f32> {
            let cols = g.cols();
            let mut dx = vec![0.0; g.n * g.h * g.w * g.c];
            for (row, drow) in dcol.chunks_exact(cols).enumerate() {
                let (ni, oy, ox) = (row / (g.oh * g.ow), row / g.ow % g.oh, row % g.ow);
                for ky in 0..g.kh {
                    let iy = (oy + ky) as isize - g.pt as isize;
                    if iy < 0 || iy >= g.h as isize {
                        continue;
                    }
                    for kx in 0..g.kw {
                        let ix = (ox + kx) as isize - g.pl as isize;
                        if ix < 0 || ix >= g.w as isize {
                            continue;
                        }
                        let src = (ky * g.kw + kx) * g.c;
                        let dst = ((ni * g.h + iy as usize) * g.w + ix as usize) * g.c;
                        for ci in 0..g.c {
                            dx[dst + ci] += drow[src + ci];
                        }
                    }
                }
            }
            dx
        }

        pub fn forward(g: &Geom, x: &[f32], kernel: &[f32], ws: &mut Workspace) -> Vec<f32> {
            let (rows, cols, f) = (g.rows(), g.cols(), g.f);
            let col = im2col(g, x);
            let mut out = vec![0.0; rows * f];
            let w = View { data: kernel, rs: f, cs: 1 };
            gemm(rows, f, cols, &View { data: &col, rs: cols, cs: 1 }, w, &mut out, ws);
            out
        }

        pub fn backward(
            g: &Geom,
            x: &[f32],
            kernel: &[f32],
            dout: &[f32],
            ws: &mut Workspace,
        ) -> (Vec<f32>, Vec<f32>) {
            let (rows, cols, f) = (g.rows(), g.cols(), g.f);
            let col = im2col(g, x);
            let dout = View { data: dout, rs: f, cs: 1 };
            let mut dk = vec![0.0; cols * f];
            gemm(cols, f, rows, &View { data: &col, rs: 1, cs: cols }, dout, &mut dk, ws);
            let mut dcol = vec![0.0; rows * cols];
            gemm(rows, cols, f, &dout, View { data: kernel, rs: 1, cs: f }, &mut dcol, ws);
            (col2im(g, &dcol), dk)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward, `d_input` and `d_kernel` of the implicit-GEMM path against
    /// the oracle, `to_bits()`-equal.
    fn assert_matches_oracle(g: &Geom, x: &[f32], kernel: &[f32], dout: &[f32], what: &str) {
        let mut ws = Workspace::new();
        let out = forward(g, x, kernel, &mut ws);
        let (dx, dk) = backward(g, x, kernel, dout, &mut ws);
        assert_eq!(bits(&out), bits(&oracle::forward(g, x, kernel, &mut ws)), "forward {what}");
        let (dx_ref, dk_ref) = oracle::backward(g, x, kernel, dout, &mut ws);
        assert_eq!(bits(&dx), bits(&dx_ref), "d_input {what}");
        assert_eq!(bits(&dk), bits(&dk_ref), "d_kernel {what}");
    }

    fn random_case(g: &Geom, rng: &mut Rng) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut fill = |len: usize| Tensor::rand_normal([len], 0.0, 1.0, rng).into_vec();
        (fill(g.n * g.h * g.w * g.c), fill(g.cols() * g.f), fill(g.rows() * g.f))
    }

    /// `(n, h, w, c, kh, kw, f)` covering: the `SMALL_FLOPS` direct loop;
    /// `rows % MR != 0`; `MC` block edges inside a sample and blocks spanning
    /// samples; a single ragged block; `f % NR != 0`; `c` of 1 and 3;
    /// `kh·kw·c > KC` (two forward / `dW` panels) and `f > KC` (two `dX`
    /// panels); even and asymmetric kernels; the `kh = 1` shape of conv1d.
    const SWEEP: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        (2, 5, 5, 1, 3, 3, 2),
        (1, 6, 4, 3, 2, 3, 4),
        (3, 7, 7, 3, 3, 3, 12),
        (2, 12, 12, 1, 3, 3, 16),
        (2, 12, 12, 8, 3, 3, 24),
        (2, 9, 9, 32, 3, 3, 10),
        (2, 8, 8, 4, 4, 4, 9),
        (1, 10, 6, 2, 5, 2, 40),
        (1, 5, 5, 2, 3, 3, 260),
        (4, 1, 40, 3, 1, 5, 7),
    ];

    #[test]
    fn bitwise_equal_to_the_im2col_oracle_on_every_kernel() {
        let mut rng = Rng::seed(0xC0);
        for &padding in &[Padding::Valid, Padding::Same] {
            for &(n, h, w, c, kh, kw, f) in SWEEP {
                let g = Geom::new(n, h, w, c, kh, kw, f, padding);
                let (x, kernel, dout) = random_case(&g, &mut rng);
                for kind in available_kernels() {
                    with_kernel(kind, || {
                        assert_matches_oracle(&g, &x, &kernel, &dout, &format!("{kind:?} {g:?}"))
                    });
                }
            }
        }
    }

    /// Padding taps are multiplied as zeros, not skipped: a non-finite
    /// weight under one must poison the output exactly as it did when the
    /// zero sat in an im2col buffer.
    #[test]
    fn padding_zeros_meet_non_finite_weights_like_the_oracle() {
        let mut rng = Rng::seed(0xC1);
        for &(n, h, w, c, kh, kw, f) in &[(1, 4, 4, 2, 3, 3, 2), (2, 12, 12, 8, 3, 3, 24)] {
            let g = Geom::new(n, h, w, c, kh, kw, f, Padding::Same);
            let (x, mut kernel, dout) = random_case(&g, &mut rng);
            kernel[0] = f32::INFINITY;
            kernel[g.cols() * f - 1] = f32::NAN;
            assert_matches_oracle(&g, &x, &kernel, &dout, &format!("{g:?}"));
            let out = forward(&g, &x, &kernel, &mut Workspace::new());
            assert!(out[0].is_nan(), "the top-left output sits on a padded inf tap");
        }
    }

    /// Two threads take the parallel row-block paths of all three products
    /// (forward over `MC` blocks of the output, `dW` over blocks of the
    /// kernel, `dX` over sample groups); bits must not depend on it.
    #[test]
    fn parallel_paths_match_serial_bitwise() {
        let mut rng = Rng::seed(0xC2);
        let g = Geom::new(2, 16, 16, 32, 3, 3, 230, Padding::Same);
        let (x, kernel, dout) = random_case(&g, &mut rng);
        let run = || {
            let mut ws = Workspace::new();
            (forward(&g, &x, &kernel, &mut ws), backward(&g, &x, &kernel, &dout, &mut ws))
        };
        let _lock = parallel::BUDGET_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let (out1, (dx1, dk1)) = {
            let _one = parallel::scoped_max_threads(1);
            run()
        };
        let _two = parallel::scoped_max_threads(2);
        let (out2, (dx2, dk2)) = run();
        assert_eq!(bits(&out1), bits(&out2), "forward");
        assert_eq!(bits(&dx1), bits(&dx2), "d_input");
        assert_eq!(bits(&dk1), bits(&dk2), "d_kernel");
        assert_matches_oracle(&g, &x, &kernel, &dout, "two threads");
    }

    /// Direct (quadruple-loop) reference convolution.
    fn naive_conv2d(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
        let (n, h, w, c) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let (kh, kw, _, f) = (
            kernel.shape().dim(0),
            kernel.shape().dim(1),
            kernel.shape().dim(2),
            kernel.shape().dim(3),
        );
        let oh = padding.out_size(h, kh);
        let ow = padding.out_size(w, kw);
        let (pt, _) = padding.pads(kh);
        let (pl, _) = padding.pads(kw);
        let mut out = Tensor::zeros([n, oh, ow, f]);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for fi in 0..f {
                        let mut acc = 0.0;
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = oy as isize + ky as isize - pt as isize;
                                let ix = ox as isize + kx as isize - pl as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                for ci in 0..c {
                                    acc += input.at(&[ni, iy as usize, ix as usize, ci])
                                        * kernel.at(&[ky, kx, ci, fi]);
                                }
                            }
                        }
                        out.set(&[ni, oy, ox, fi], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn valid_output_shape() {
        let input = Tensor::zeros([2, 8, 8, 3]);
        let kernel = Tensor::zeros([3, 3, 3, 16]);
        let out = conv2d_forward(&input, &kernel, Padding::Valid);
        assert_eq!(out.shape().dims(), &[2, 6, 6, 16]);
    }

    #[test]
    fn same_output_shape_even_kernel() {
        let input = Tensor::zeros([1, 7, 7, 2]);
        let kernel = Tensor::zeros([4, 2, 2, 5]);
        let out = conv2d_forward(&input, &kernel, Padding::Same);
        assert_eq!(out.shape().dims(), &[1, 7, 7, 5]);
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::seed(1);
        for &padding in &[Padding::Valid, Padding::Same] {
            for &(h, w, c, kh, kw, f) in
                &[(5, 5, 1, 3, 3, 2), (6, 4, 3, 2, 3, 4), (4, 4, 2, 1, 1, 3)]
            {
                let input = Tensor::rand_normal([2, h, w, c], 0.0, 1.0, &mut rng);
                let kernel = Tensor::rand_normal([kh, kw, c, f], 0.0, 1.0, &mut rng);
                let fast = conv2d_forward(&input, &kernel, padding);
                let slow = naive_conv2d(&input, &kernel, padding);
                assert!(
                    fast.approx_eq(&slow, 1e-4),
                    "padding {padding:?} ({h},{w},{c},{kh},{kw},{f})"
                );
            }
        }
    }

    #[test]
    fn forward_matches_naive_at_gemm_blocking_sizes() {
        // Big enough that the blocked GEMM path (not the small-size fallback)
        // carries the im2col product.
        let mut rng = Rng::seed(4);
        let input = Tensor::rand_normal([2, 12, 12, 8], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 3, 8, 24], 0.0, 0.3, &mut rng);
        let fast = conv2d_forward(&input, &kernel, Padding::Same);
        let slow = naive_conv2d(&input, &kernel, Padding::Same);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn ws_variant_matches_and_reuses() {
        let mut rng = Rng::seed(5);
        let mut ws = Workspace::new();
        let input = Tensor::rand_normal([2, 6, 6, 3], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 3, 3, 4], 0.0, 1.0, &mut rng);
        let base = conv2d_forward(&input, &kernel, Padding::Same);
        for _ in 0..3 {
            let out = conv2d_forward_ws(&input, &kernel, Padding::Same, &mut ws);
            assert!(out.approx_eq(&base, 1e-6));
            ws.recycle(out);
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel = identity over channels when kernel is the identity matrix.
        let mut rng = Rng::seed(2);
        let input = Tensor::rand_normal([1, 3, 3, 2], 0.0, 1.0, &mut rng);
        let mut kernel = Tensor::zeros([1, 1, 2, 2]);
        kernel.set(&[0, 0, 0, 0], 1.0);
        kernel.set(&[0, 0, 1, 1], 1.0);
        let out = conv2d_forward(&input, &kernel, Padding::Valid);
        assert!(out.approx_eq(&input, 1e-6));
    }

    /// Central-difference gradient check of both input and kernel gradients.
    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::seed(3);
        for &padding in &[Padding::Valid, Padding::Same] {
            let input = Tensor::rand_normal([1, 4, 4, 2], 0.0, 1.0, &mut rng);
            let kernel = Tensor::rand_normal([3, 3, 2, 2], 0.0, 0.5, &mut rng);
            // Loss = sum of conv output elements -> dout = ones.
            let out = conv2d_forward(&input, &kernel, padding);
            let dout = Tensor::ones(out.shape().dims().to_vec());
            let (dinput, dkernel) = conv2d_backward(&input, &kernel, &dout, padding);

            let eps = 1e-2f32;
            for probe in 0..6 {
                // Probe input gradient.
                let idx = probe * 3 % input.numel();
                let mut plus = input.clone();
                plus.data_mut()[idx] += eps;
                let mut minus = input.clone();
                minus.data_mut()[idx] -= eps;
                let num = (conv2d_forward(&plus, &kernel, padding).sum()
                    - conv2d_forward(&minus, &kernel, padding).sum())
                    / (2.0 * eps);
                assert!(
                    (num - dinput.data()[idx]).abs() < 1e-2,
                    "dinput[{idx}] analytic {} vs numeric {num} ({padding:?})",
                    dinput.data()[idx]
                );
                // Probe kernel gradient.
                let kidx = probe * 5 % kernel.numel();
                let mut kplus = kernel.clone();
                kplus.data_mut()[kidx] += eps;
                let mut kminus = kernel.clone();
                kminus.data_mut()[kidx] -= eps;
                let num = (conv2d_forward(&input, &kplus, padding).sum()
                    - conv2d_forward(&input, &kminus, padding).sum())
                    / (2.0 * eps);
                assert!(
                    (num - dkernel.data()[kidx]).abs() < 1e-2,
                    "dkernel[{kidx}] analytic {} vs numeric {num} ({padding:?})",
                    dkernel.data()[kidx]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let input = Tensor::zeros([1, 4, 4, 3]);
        let kernel = Tensor::zeros([3, 3, 2, 8]);
        conv2d_forward(&input, &kernel, Padding::Valid);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn valid_too_small_panics() {
        let input = Tensor::zeros([1, 2, 2, 1]);
        let kernel = Tensor::zeros([3, 3, 1, 1]);
        conv2d_forward(&input, &kernel, Padding::Valid);
    }
}
