//! 2-D convolution (NHWC), forward and backward, as direct kernels.
//!
//! The CIFAR-like and MNIST-like search spaces stack convolutional variable
//! nodes with `valid`/`same` padding choices (Section VII-A); this module
//! provides the kernel. Stride is fixed at 1 — exactly like the paper's
//! search spaces, where spatial reduction comes from the pooling variable
//! nodes, not from strided convolutions. NT3's 1-D convolutions over very
//! wide inputs are the same code: an `(n, w, c)` input under a `(k, c, f)`
//! kernel is the one-row image `(n, 1, w, c)` under a one-row kernel, and
//! every entry point returns its tensors in the input's rank.
//!
//! A convolution is the product of the *patch matrix* `col` — one row per
//! output position `(n, oy, ox)`, one column per kernel tap and channel
//! `(ky, kx, c)`, zeros where a tap falls on padding — with the kernel
//! reshaped to `(kh·kw·c, f)`. `col` is never built, and neither are packed
//! strips of it: every search space here has `f ≤ 24`, far too skinny to pay
//! for GEMM packing. In NHWC a patch is `kh` contiguous runs of `kw·c`
//! input elements and the filter axis of `W` and `dOut` is contiguous, so
//! the three products of a training step run on the broadcast-FMA tiles of
//! `bcast.rs`, reading every operand where it already lies:
//!
//! * **forward** `out = col · W`: a tile of output positions × filter
//!   vectors, the patch element broadcast, `W`'s rows the vector operand;
//! * **`dW = colᵀ · dOut`**: a tile of patch columns × filter vectors,
//!   contracting over output positions in `KC`-row panels, `dOut`'s rows
//!   the vector operand;
//! * **`dX`**: a tile of `dCol = dOut · Wᵀ` rows × patch-column vectors,
//!   `dOut` broadcast against `Wᵀ` (packed once per call, the only
//!   transpose), each finished row added into `d_input` as `kh` runs.
//!
//! A tap can fall outside a same-padded input, so forward and `dW` of those
//! convolutions read one zero-padded copy of it (`(h+kh−1)·(w+kw−1)·c` per
//! sample): patches stay contiguous and the padding zeros are still
//! *multiplied*, not skipped. Valid convolutions read `x` in place. `dX`
//! needs no copy either way: a `dCol` row's runs are clipped to the image as
//! they are added, dropping exactly the taps that fell on padding.
//!
//! None of this changes a value. Every output element is still contracted
//! over `(ky, kx, c)` ascending, padding zeros included, one multiply-add
//! per step, fused exactly where the GEMM micro-kernel of the same kind
//! fuses, `KC` panel sums combined in panel order, and each `d_input`
//! element still receives its contributions in `(oy, ox, ky, kx)` order — so
//! the results are bit-identical to multiplying a materialised `col`, which
//! is what the tests here do (`oracle`). The `_ws` variants draw every
//! scratch buffer from a caller-owned [`Workspace`], so steady-state
//! training allocates nothing.

use crate::bcast::{
    add_assign, b_row_len, strip, tile_kind, tile_rows, Mode, Strip, MAX_TILE_ROWS,
};
use crate::matmul::{active_kernel, route, KernelKind, KC};
use crate::parallel;
use crate::shape::Shape;
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

/// Multiply-adds below which a convolution is not worth a thread dispatch:
/// spawning and joining scoped threads costs about what 2 Mi multiply-adds
/// do, so below this two threads cannot return 1.5×.
pub(crate) const PAR_MACS: usize = 16 << 20;

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
    /// An `(n, h, w, c)` image under `kh × kw` taps of `f` filters.
    pub(crate) fn new([n, h, w, c]: [usize; 4], [kh, kw, f]: [usize; 3], padding: Padding) -> Self {
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

    /// Height and width of the *source*: the input grown by the padding, so
    /// that every patch lies inside it.
    fn src_hw(&self) -> (usize, usize) {
        (self.oh + self.kh - 1, self.ow + self.kw - 1)
    }

    /// Elements of one source image row / one source sample.
    fn src_strides(&self) -> (usize, usize) {
        let (hs, ws) = self.src_hw();
        (ws * self.c, hs * ws * self.c)
    }

    /// Whether the source is a padded copy rather than the input itself.
    fn padded(&self) -> bool {
        self.src_hw() != (self.h, self.w)
    }

    /// The zero-padded copy of `x` a padded convolution reads.
    fn pad(&self, x: &[f32], ws: &mut Workspace) -> Vec<f32> {
        let (row, sample) = self.src_strides();
        let mut xs = ws.take(self.n * sample);
        let run = self.w * self.c;
        // Input rows land `to` apart with padding between them; each gap is
        // zeroed as the row after it is copied, so nothing is written twice.
        let mut done = 0;
        for (r, x_row) in x.chunks_exact(run).enumerate() {
            let (ni, iy) = (r / self.h, r % self.h);
            let to = ni * sample + (iy + self.pt) * row + self.pl * self.c;
            xs[done..to].fill(0.0);
            xs[to..to + run].copy_from_slice(x_row);
            done = to + run;
        }
        xs[done..].fill(0.0);
        xs
    }

    /// The output position of patch row `row`.
    fn pos(&self, row: usize) -> Pos {
        let (ni, rest) = (row / (self.oh * self.ow), row % (self.oh * self.ow));
        Pos { ni, oy: rest / self.ow, ox: rest % self.ow }
    }

    /// Step `p` to the next patch row (tiles walk rows in order, so the
    /// divisions of [`pos`](Self::pos) are paid once per task, not per row).
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

    /// Source offset of the patch at `p`: its kernel row `ky` is the `kw·c`
    /// elements from `patch(p) + ky · src_strides().0`.
    #[inline(always)]
    fn patch(&self, p: Pos) -> usize {
        let (row, sample) = self.src_strides();
        p.ni * sample + p.oy * row + p.ox * self.c
    }
}

/// The kernel whose tile runs one GEMM-shaped contraction with `n` as its
/// vector dimension, counted under `tensor.gemm.*` like the dense products,
/// and how its `KC`-step strips after the first join `c`: as panels added in
/// panel order, or — below the small-problem cutoff — as one undivided chain
/// on the portable tile, the unfused direct loop's contraction.
fn plan(m: usize, n: usize, k: usize) -> (KernelKind, Mode) {
    match route(active_kernel(), m, n, k) {
        Some(kernel) => (tile_kind(kernel, n), Mode::Add),
        None => (KernelKind::Scalar, Mode::Extend),
    }
}

/// Fill `table` with the broadcast operand's offset at each of `steps`.
fn step_table(table: &mut [u32; KC], steps: impl ExactSizeIterator<Item = usize>) -> &[u32] {
    let len = steps.len();
    for (to, at) in table.iter_mut().zip(steps) {
        *to = u32::try_from(at).expect("tensor offsets fit in 32 bits");
    }
    &table[..len]
}

/// How many tasks to split `pieces` independent pieces of a `macs`-sized
/// convolution into.
fn tasks(macs: usize, pieces: usize) -> usize {
    if macs >= PAR_MACS {
        parallel::max_threads().min(pieces).max(1)
    } else {
        1
    }
}

/// `m` rows of `f` elements as the vector operand of `kind`'s strips: the
/// rows themselves when `kind` reads no further than they go (whole vectors,
/// or masked loads), else a copy with each row zero-padded to what it reads.
/// Returns the copy (to give back) and the row stride to use.
fn whole_vectors(
    kind: KernelKind,
    src: &[f32],
    m: usize,
    f: usize,
    ws: &mut Workspace,
) -> (Option<Vec<f32>>, usize) {
    let fp = b_row_len(kind, f);
    if fp == f {
        return (None, f);
    }
    let mut wide = ws.take(m * fp);
    for (to, row) in wide.chunks_exact_mut(fp).zip(src.chunks_exact(f)) {
        to[..f].copy_from_slice(row);
        to[f..].fill(0.0);
    }
    (Some(wide), fp)
}

/// `out (rows × f) = col · W`.
pub(crate) fn forward(g: &Geom, x: &[f32], kernel: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let (rows, cols, f) = (g.rows(), g.cols(), g.f);
    let (kind, later) = plan(rows, f, cols);
    let mut out = ws.take(rows * f);
    if rows * cols * f == 0 {
        out.fill(0.0);
        return out;
    }
    let xs = g.padded().then(|| g.pad(x, ws));
    let src = xs.as_deref().unwrap_or(x);
    let (wide, fp) = whole_vectors(kind, kernel, cols, f, ws);
    let w = wide.as_deref().unwrap_or(kernel);
    let (kernel_row, src_row) = (g.kw * g.c, g.src_strides().0);
    let tile = tile_rows(kind, f);
    // Tasks are ranges of output rows, whole tiles each.
    let task_rows = rows.div_ceil(tasks(rows * cols * f, rows.div_ceil(tile)));
    let task_rows = task_rows.next_multiple_of(tile);
    parallel::par_chunks_mut(&mut out, task_rows * f, |ti, out| {
        let m = out.len() / f;
        let (mut a_off, mut c_off) = ([0; MAX_TILE_ROWS], [0; MAX_TILE_ROWS]);
        let mut table = [0; KC];
        for k0 in (0..cols).step_by(KC) {
            // Patch column `k` is `k % kernel_row` into kernel row
            // `k / kernel_row`, and kernel rows are one source row apart.
            let steps = (k0..cols.min(k0 + KC)).map(|k| k / kernel_row * src_row + k % kernel_row);
            let panel = Strip {
                a: src,
                steps: step_table(&mut table, steps),
                b: &w[k0 * fp..],
                sb: fp,
                lanes: f,
                mode: if k0 == 0 { Mode::Store } else { later },
            };
            let mut p = g.pos(ti * task_rows);
            for i in (0..m).step_by(tile) {
                let live = tile.min(m - i);
                for r in 0..tile {
                    if r < live {
                        (a_off[r], c_off[r]) = (g.patch(p), (i + r) * f);
                        g.advance(&mut p);
                    } else {
                        a_off[r] = a_off[live - 1];
                    }
                }
                strip(kind, &panel, &a_off, live, out, &c_off);
            }
        }
    });
    wide.into_iter().chain(xs).for_each(|buf| ws.give(buf));
    out
}

/// `d_kernel (cols × f) = colᵀ · dOut`: tiles of patch columns, contracted
/// over output positions. Panels are the outer loop so one panel of `dOut`
/// serves every column tile from cache. Shares nothing with
/// [`backward_input`] but `dout`: a backward pass is the two, in this order.
pub(crate) fn backward_kernel(g: &Geom, x: &[f32], dout: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let (rows, cols, f) = (g.rows(), g.cols(), g.f);
    let (dw_kind, dw_later) = plan(cols, f, rows);
    let mut dk = ws.take(cols * f);
    if rows * cols * f == 0 {
        dk.fill(0.0);
        return dk;
    }
    let macs = rows * cols * f;
    let (kernel_row, src_row) = (g.kw * g.c, g.src_strides().0);
    let xs = g.padded().then(|| g.pad(x, ws));
    let src = xs.as_deref().unwrap_or(x);
    let (wide, fp) = whole_vectors(dw_kind, dout, rows, f, ws);
    let dout_rows = wide.as_deref().unwrap_or(dout);
    let tile = tile_rows(dw_kind, f);
    // Tasks are ranges of patch columns (rows of `dk`), whole tiles each.
    let task_cols = cols.div_ceil(tasks(macs, cols.div_ceil(tile))).next_multiple_of(tile);
    parallel::par_chunks_mut(&mut dk, task_cols * f, |ti, dk| {
        let m = dk.len() / f;
        let (mut a_off, mut c_off) = ([0; MAX_TILE_ROWS], [0; MAX_TILE_ROWS]);
        let mut table = [0; KC];
        for r0 in (0..rows).step_by(KC) {
            let mut p = g.pos(r0);
            let steps = (r0..rows.min(r0 + KC)).map(|_| {
                let at = g.patch(p);
                g.advance(&mut p);
                at
            });
            let panel = Strip {
                a: src,
                steps: step_table(&mut table, steps),
                b: &dout_rows[r0 * fp..],
                sb: fp,
                lanes: f,
                mode: if r0 == 0 { Mode::Store } else { dw_later },
            };
            // Column `(ky, kx, ci)` of every patch sits `ky` source rows and
            // `(kx, ci)` elements into it; tiles take the columns in order.
            let col0 = ti * task_cols;
            let (mut ky, mut kxc) = (col0 / kernel_row, col0 % kernel_row);
            for i in (0..m).step_by(tile) {
                let live = tile.min(m - i);
                for r in 0..tile {
                    if r < live {
                        (a_off[r], c_off[r]) = (ky * src_row + kxc, (i + r) * f);
                        kxc += 1;
                        if kxc == kernel_row {
                            (ky, kxc) = (ky + 1, 0);
                        }
                    } else {
                        a_off[r] = a_off[live - 1];
                    }
                }
                strip(dw_kind, &panel, &a_off, live, dk, &c_off);
            }
        }
    });
    wide.into_iter().chain(xs).for_each(|buf| ws.give(buf));
    dk
}

/// `d_input`: rows of `dCol = dOut · Wᵀ`, a tile at a time into `stage`, each
/// row then added into `d_input` as its `kh` runs, clipped to the image.
/// Patches of neighbouring rows overlap, so a row is added whole before the
/// next one starts: that is the order a col2im pass over a stored `dCol`
/// keeps.
pub(crate) fn backward_input(
    g: &Geom,
    kernel: &[f32],
    dout: &[f32],
    ws: &mut Workspace,
) -> Vec<f32> {
    let (rows, cols, f) = (g.rows(), g.cols(), g.f);
    let (dx_kind, dx_later) = plan(rows, cols, f);
    let mut dx = ws.take_zeroed(g.n * g.h * g.w * g.c);
    if rows * cols * f == 0 {
        return dx;
    }
    let macs = rows * cols * f;
    let colsp = b_row_len(dx_kind, cols);
    let mut wt = ws.take(f * colsp);
    for (fi, wt_row) in wt.chunks_exact_mut(colsp).enumerate() {
        for (col, v) in wt_row.iter_mut().enumerate() {
            *v = if col < cols { kernel[col * f + fi] } else { 0.0 };
        }
    }
    // A row of `dOut` is contracted front to back, whichever panel.
    let mut table = [0; KC];
    let steps = step_table(&mut table, 0..f.min(KC));
    let tile = tile_rows(dx_kind, cols);
    // Tasks are groups of samples: their gradients are disjoint.
    let group = g.n.div_ceil(tasks(macs, g.n));
    let mut stage = ws.take(g.n.div_ceil(group) * tile * cols);
    let sample = g.h * g.w * g.c;
    parallel::par_chunks_mut_scratch(
        &mut dx,
        group * sample,
        &mut stage,
        tile * cols,
        |gi, dx, stage| {
            let row0 = gi * group * g.oh * g.ow;
            let m = dx.len() / sample * g.oh * g.ow;
            let mut p = Pos { ni: 0, oy: 0, ox: 0 };
            let mut a_off = [0; MAX_TILE_ROWS];
            let c_off: [usize; MAX_TILE_ROWS] = std::array::from_fn(|r| r * cols);
            for i in (0..m).step_by(tile) {
                let live = tile.min(m - i);
                for f0 in (0..f).step_by(KC) {
                    for (r, at) in a_off.iter_mut().enumerate() {
                        *at = (row0 + i + r.min(live - 1)) * f + f0;
                    }
                    let panel = Strip {
                        a: dout,
                        steps: &steps[..KC.min(f - f0)],
                        b: &wt[f0 * colsp..],
                        sb: colsp,
                        lanes: cols,
                        mode: if f0 == 0 { Mode::Store } else { dx_later },
                    };
                    strip(dx_kind, &panel, &a_off, live, stage, &c_off);
                }
                for drow in stage.chunks_exact(cols).take(live) {
                    // In-bounds taps of every kernel row: ix = ox + kx - pl
                    // in [0, w); likewise iy = oy + ky - pt in [0, h).
                    let (kx_lo, kx_hi) = (g.pl.saturating_sub(p.ox), g.kw.min(g.w + g.pl - p.ox));
                    let (ky_lo, ky_hi) = (g.pt.saturating_sub(p.oy), g.kh.min(g.h + g.pt - p.oy));
                    for ky in ky_lo..ky_hi {
                        let at =
                            ((p.ni * g.h + p.oy + ky - g.pt) * g.w + p.ox + kx_lo - g.pl) * g.c;
                        let run = &drow[(ky * g.kw + kx_lo) * g.c..(ky * g.kw + kx_hi) * g.c];
                        add_assign(dx_kind, &mut dx[at..at + run.len()], run);
                    }
                    g.advance(&mut p);
                }
            }
        },
    );
    ws.give(stage);
    ws.give(wt);
    dx
}

/// `[n, rows, cols, ch]` as a shape of `rank` 4, or of rank 3 without the
/// row axis: a rank-3 tensor is one row of a rank-4 one.
pub(crate) fn nhwc_or_nwc(rank: usize, [n, h, w, c]: [usize; 4]) -> Shape {
    if rank == 3 {
        debug_assert_eq!(h, 1, "a rank-3 tensor has one row");
        Shape::from([n, w, c])
    } else {
        Shape::from([n, h, w, c])
    }
}

/// The geometry of `input` under `kernel`: `(n, h, w, c)` under
/// `(kh, kw, c, f)`, or `(n, w, c)` under `(k, c, f)` as the one-row image
/// `(n, 1, w, c)` under a one-row kernel.
fn geom(input: &Tensor, kernel: &Tensor, padding: Padding) -> Geom {
    let (image, [kh, kw, kc, f]) = match (input.shape().dims(), kernel.shape().dims()) {
        (&[n, h, w, c], &[kh, kw, kc, f]) => ([n, h, w, c], [kh, kw, kc, f]),
        (&[n, w, c], &[kw, kc, f]) => ([n, 1, w, c], [1, kw, kc, f]),
        _ => panic!(
            "conv2d: input {} and kernel {} must be (n, h, w, c) and (kh, kw, c, f), \
             or (n, w, c) and (k, c, f)",
            input.shape(),
            kernel.shape()
        ),
    };
    assert_eq!(image[3], kc, "conv2d channel mismatch: input {}, kernel {kc}", image[3]);
    Geom::new(image, [kh, kw, f], padding)
}

/// Forward convolution, stride 1.
///
/// * `input` — `(n, h, w, c)`, or `(n, w, c)` for a 1-D convolution
/// * `kernel` — `(kh, kw, c, f)`, or `(k, c, f)`
///
/// Returns `(n, oh, ow, f)`, or `(n, ow, f)`.
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
    let g = geom(input, kernel, padding);
    let out = forward(&g, input.data(), kernel.data(), ws);
    Tensor::from_vec(nhwc_or_nwc(input.shape().rank(), [g.n, g.oh, g.ow, g.f]), out)
}

/// Backward convolution: given upstream gradient `dout` (the forward
/// output's shape), returns `(d_input, d_kernel)` — [`conv2d_backward_kernel_ws`],
/// then the input half.
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
    let dk = conv2d_backward_kernel_ws(input, kernel, dout, padding, ws);
    let g = geom(input, kernel, padding);
    let dx = backward_input(&g, kernel.data(), dout.data(), ws);
    (Tensor::from_vec(input.shape().clone(), dx), dk)
}

/// The `d_kernel` half of [`conv2d_backward_ws`] alone, for a convolution
/// whose `d_input` nobody reads (the first layer of a model): one contraction
/// instead of two, the same bits. `kernel` gives the shape only.
pub fn conv2d_backward_kernel_ws(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> Tensor {
    let g = geom(input, kernel, padding);
    assert_eq!(
        dout.shape(),
        &nhwc_or_nwc(input.shape().rank(), [g.n, g.oh, g.ow, g.f]),
        "conv2d_backward: dout shape {} unexpected",
        dout.shape()
    );
    let dk = backward_kernel(&g, input.data(), dout.data(), ws);
    Tensor::from_vec(kernel.shape().clone(), dk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::{available_kernels, with_kernel};
    use crate::rng::Rng;

    /// The lowering this module replaced, kept as the bitwise oracle:
    /// materialise the patch matrix, run the three products through
    /// `matmul`'s plain-loop oracle on the kind this thread is pinned to,
    /// scatter `dCol` back with `col2im`.
    mod oracle {
        use super::*;
        use crate::matmul::View;

        fn product(m: usize, n: usize, k: usize, a: View, b: View) -> Vec<f32> {
            crate::matmul::tests::oracle(active_kernel(), m, n, k, a, b)
        }

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

        pub fn forward(g: &Geom, x: &[f32], kernel: &[f32]) -> Vec<f32> {
            let (rows, cols, f) = (g.rows(), g.cols(), g.f);
            let col = im2col(g, x);
            let w = View { data: kernel, rs: f, cs: 1 };
            product(rows, f, cols, View { data: &col, rs: cols, cs: 1 }, w)
        }

        pub fn backward(g: &Geom, x: &[f32], kernel: &[f32], dout: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let (rows, cols, f) = (g.rows(), g.cols(), g.f);
            let col = im2col(g, x);
            let dout = View { data: dout, rs: f, cs: 1 };
            let dk = product(cols, f, rows, View { data: &col, rs: 1, cs: cols }, dout);
            let dcol = product(rows, cols, f, dout, View { data: kernel, rs: 1, cs: f });
            (col2im(g, &dcol), dk)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `(d_input, d_kernel)`: a backward pass's two halves, in its order.
    fn backward(
        g: &Geom,
        x: &[f32],
        kernel: &[f32],
        dout: &[f32],
        ws: &mut Workspace,
    ) -> (Vec<f32>, Vec<f32>) {
        let dk = backward_kernel(g, x, dout, ws);
        (backward_input(g, kernel, dout, ws), dk)
    }

    /// Forward, `d_input` and `d_kernel` of the direct kernels against the
    /// oracle, `to_bits()`-equal.
    fn assert_matches_oracle(g: &Geom, x: &[f32], kernel: &[f32], dout: &[f32], what: &str) {
        let mut ws = Workspace::new();
        let out = forward(g, x, kernel, &mut ws);
        let (dx, dk) = backward(g, x, kernel, dout, &mut ws);
        assert_eq!(bits(&out), bits(&oracle::forward(g, x, kernel)), "forward {what}");
        let (dx_ref, dk_ref) = oracle::backward(g, x, kernel, dout);
        assert_eq!(bits(&dx), bits(&dx_ref), "d_input {what}");
        assert_eq!(bits(&dk), bits(&dk_ref), "d_kernel {what}");
    }

    fn random_case(g: &Geom, rng: &mut Rng) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut fill = |len: usize| Tensor::rand_normal([len], 0.0, 1.0, rng).into_vec();
        (fill(g.n * g.h * g.w * g.c), fill(g.cols() * g.f), fill(g.rows() * g.f))
    }

    /// `(n, h, w, c, kh, kw, f)`, each under both paddings (valid only where
    /// the kernel fits), covering what the direct kernels branch on:
    const SWEEP: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        // The `SMALL_FLOPS` chain, with even and asymmetric kernels …
        (2, 5, 5, 1, 3, 3, 2),
        (1, 6, 4, 3, 2, 3, 4),
        // … and continued past `KC` steps (`Mode::Extend`) in `dW`, forward
        // and `dX`.
        (1, 20, 20, 1, 3, 3, 2),
        (1, 3, 3, 32, 3, 3, 2),
        (1, 2, 2, 3, 1, 1, 260),
        // `f` of 4, 12, 10, 9, 7: a ragged last vector on 8×1 and 6×2 tiles.
        (3, 9, 9, 6, 3, 3, 4),
        (3, 7, 7, 3, 3, 3, 12),
        (2, 8, 8, 4, 4, 4, 9),
        (4, 1, 40, 3, 1, 5, 7),
        // `c` of 1; whole vectors on each tile shape (`f` = 8, 16, 24).
        (2, 12, 12, 1, 3, 3, 16),
        (2, 12, 12, 8, 3, 3, 24),
        (2, 10, 10, 3, 3, 3, 8),
        // `kh·kw·c > KC`: two forward panels (one with ragged vectors).
        (2, 9, 9, 32, 3, 3, 10),
        (2, 7, 7, 16, 5, 5, 8),
        // Several chunks per row: `f` = 40 (five vectors) and `f > KC` (two
        // `dX` panels, 33 vectors).
        (1, 10, 6, 2, 5, 2, 40),
        (1, 5, 5, 2, 3, 3, 260),
        // NT3's one-row kernel.
        (2, 1, 50, 4, 1, 7, 16),
        // `kw·c > 24` with `c` of 16 and 24: a `dCol` row spans several
        // chunks, whose runs overlap the next row's.
        (2, 6, 6, 16, 3, 3, 16),
        (2, 5, 5, 24, 3, 3, 24),
        // `ow` of 2, 1 and 3 below `kw`, row counts (30, 28, 45, 36/216) no
        // tile height divides: tiles straddle image rows and samples.
        (5, 3, 2, 8, 5, 5, 8),
        (7, 4, 1, 8, 3, 3, 24),
        (3, 5, 3, 16, 3, 5, 16),
        (9, 4, 6, 8, 3, 5, 16),
        // What the 16-lane tile masks. `f` of 9–15 (one ragged zmm), 17, 24
        // and 31 (6×2, the second vector ragged), 33 (3×3, one lane in the
        // third); `c` of 3, 8 and 24 under a 3×3 kernel make `dX`'s vector
        // dimension 27, 72 and 216 columns; 175 and 75 rows are short last
        // tiles for every tile height.
        (5, 7, 5, 3, 3, 3, 9),
        (5, 7, 5, 3, 3, 3, 10),
        (5, 7, 5, 8, 3, 3, 11),
        (5, 7, 5, 8, 3, 3, 12),
        (3, 5, 5, 24, 3, 3, 13),
        (3, 5, 5, 24, 3, 3, 14),
        (5, 7, 5, 3, 3, 3, 15),
        (5, 7, 5, 3, 3, 3, 17),
        (5, 7, 5, 8, 3, 3, 24),
        (5, 7, 5, 8, 3, 3, 31),
        (3, 5, 5, 24, 3, 3, 33),
        // Short last tiles in a *later* panel (`Mode::Add`) under ragged
        // vectors: forward with `kh·kw·c` = 288 > `KC` over 75 rows, `dW`
        // with 324 rows > `KC` over 27 columns. (`dX` has its own above:
        // `f` = 260 over 25 rows of 18 columns.)
        (3, 5, 5, 32, 3, 3, 11),
        (4, 9, 9, 3, 3, 3, 13),
        // Eight lanes or fewer stay on the 8-lane tile under AVX-512: `dX`
        // with 8 columns beside a 24-lane forward, and all three with `f` = 5
        // beside a 27-lane `dX`.
        (4, 10, 10, 2, 2, 2, 24),
        (5, 7, 5, 3, 3, 3, 5),
    ];

    /// Every padding of a sweep shape that exists.
    fn paddings(h: usize, w: usize, kh: usize, kw: usize) -> impl Iterator<Item = Padding> {
        let valid = (h >= kh && w >= kw).then_some(Padding::Valid);
        valid.into_iter().chain([Padding::Same])
    }

    #[test]
    fn bitwise_equal_to_the_im2col_oracle_on_every_kernel() {
        let mut rng = Rng::seed(0xC0);
        for &(n, h, w, c, kh, kw, f) in SWEEP {
            for padding in paddings(h, w, kh, kw) {
                let g = Geom::new([n, h, w, c], [kh, kw, f], padding);
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
        for &(n, h, w, c, kh, kw, f) in &[
            (1, 4, 4, 2, 3, 3, 2),
            (2, 12, 12, 8, 3, 3, 24),
            (2, 6, 6, 16, 3, 3, 12),
            (3, 5, 3, 16, 3, 5, 16),
        ] {
            let g = Geom::new([n, h, w, c], [kh, kw, f], Padding::Same);
            let (x, mut kernel, dout) = random_case(&g, &mut rng);
            kernel[0] = f32::INFINITY;
            kernel[g.cols() * f - 1] = f32::NAN;
            for kind in available_kernels() {
                with_kernel(kind, || {
                    assert_matches_oracle(&g, &x, &kernel, &dout, &format!("{kind:?} {g:?}"));
                    let out = forward(&g, &x, &kernel, &mut Workspace::new());
                    assert!(out[0].is_nan(), "the top-left output sits on a padded inf tap");
                });
            }
        }
    }

    /// Two threads split all three products (forward over output-row ranges,
    /// `dW` over patch-column ranges, `dX` over sample groups — uneven ones
    /// for five samples); bits must not depend on it, on any kernel.
    #[test]
    fn parallel_paths_match_serial_bitwise() {
        let mut rng = Rng::seed(0xC2);
        // The last has 15 ragged lanes forward and 216 in `dX`.
        for &(n, h, w, c, kh, kw, f) in &[
            (2, 16, 16, 32, 3, 3, 230),
            (5, 26, 26, 32, 3, 3, 24),
            (5, 26, 26, 64, 3, 3, 12),
            (10, 26, 26, 24, 3, 3, 15),
        ] {
            for padding in [Padding::Valid, Padding::Same] {
                let g = Geom::new([n, h, w, c], [kh, kw, f], padding);
                assert!(g.rows() * g.cols() * g.f >= PAR_MACS, "{g:?} would not dispatch");
                let (x, kernel, dout) = random_case(&g, &mut rng);
                let run = || {
                    let mut ws = Workspace::new();
                    (forward(&g, &x, &kernel, &mut ws), backward(&g, &x, &kernel, &dout, &mut ws))
                };
                for kind in available_kernels() {
                    with_kernel(kind, || {
                        let (out1, (dx1, dk1)) = {
                            let _one = parallel::scoped_max_threads(1);
                            run()
                        };
                        let _two = parallel::scoped_max_threads(2);
                        let (out2, (dx2, dk2)) = run();
                        assert_eq!(bits(&out1), bits(&out2), "forward {kind:?} {g:?}");
                        assert_eq!(bits(&dx1), bits(&dx2), "d_input {kind:?} {g:?}");
                        assert_eq!(bits(&dk1), bits(&dk2), "d_kernel {kind:?} {g:?}");
                        assert_matches_oracle(&g, &x, &kernel, &dout, "two threads");
                    });
                }
            }
        }
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

    /// A rank-3 call is the rank-4 call on the one-row image `(n, 1, w, c)`
    /// under the one-row kernel `(1, k, c, f)`, to the bit: forward, `d_input`
    /// and `d_kernel` on every kernel (max-pooling has no rank-4 call with a
    /// one-row window: `pool`'s oracle test pins its rank-3 case). Mismatched
    /// input and kernel ranks panic.
    #[test]
    fn a_row_is_the_one_row_image_bitwise() {
        let mut rng = Rng::seed(0xC3);
        for &(n, w, c, k, f) in &[(2, 50, 4, 7, 16), (3, 14, 2, 3, 5), (2, 512, 1, 5, 8)] {
            for padding in [Padding::Valid, Padding::Same] {
                let x = Tensor::rand_normal([n, w, c], 0.0, 1.0, &mut rng);
                let kernel = Tensor::rand_normal([k, c, f], 0.0, 0.5, &mut rng);
                let x4 = x.clone().reshape([n, 1, w, c]);
                let kernel4 = kernel.clone().reshape([1, k, c, f]);
                for kind in available_kernels() {
                    with_kernel(kind, || {
                        let what = format!("{kind:?} {padding:?} ({n},{w},{c},{k},{f})");
                        let out = conv2d_forward(&x, &kernel, padding);
                        let out4 = conv2d_forward(&x4, &kernel4, padding);
                        assert_eq!(out.shape().dims(), &[n, padding.out_size(w, k), f], "{what}");
                        assert_eq!(bits(out.data()), bits(out4.data()), "forward {what}");
                        let dout =
                            Tensor::rand_normal(out.shape().clone(), 0.0, 1.0, &mut Rng::seed(7));
                        let (dx, dk) = conv2d_backward(&x, &kernel, &dout, padding);
                        let dout4 = dout.clone().reshape(out4.shape().clone());
                        let (dx4, dk4) = conv2d_backward(&x4, &kernel4, &dout4, padding);
                        assert_eq!((dx.shape(), dk.shape()), (x.shape(), kernel.shape()), "{what}");
                        assert_eq!(bits(dx.data()), bits(dx4.data()), "d_input {what}");
                        assert_eq!(bits(dk.data()), bits(dk4.data()), "d_kernel {what}");
                    });
                }
            }
        }
        for (input, kernel) in
            [([1, 8, 2].as_slice(), [1, 3, 2, 2].as_slice()), (&[1, 1, 8, 2], &[3, 2, 2])]
        {
            let (input, kernel) = (Tensor::zeros(input), Tensor::zeros(kernel));
            let call = std::panic::catch_unwind(|| conv2d_forward(&input, &kernel, Padding::Same));
            assert!(
                call.is_err(),
                "input {} under kernel {} must panic",
                input.shape(),
                kernel.shape()
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be (n, h, w, c)")]
    fn wrong_rank_panics() {
        conv2d_forward(&Tensor::zeros([2, 4]), &Tensor::zeros([3, 1, 1]), Padding::Valid);
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
