//! Max pooling (2-D NHWC and 1-D NWC) with argmax-routed backward.
//!
//! The paper's Pooling variable nodes choose identity or pooling layers with
//! sizes/strides from 2 to 5. The forward pass records the flat index of each
//! window's maximum so the backward pass routes the gradient to exactly that
//! element (ties resolve to the first maximum, as in TensorFlow).
//!
//! The `*_ws` entry points take the output and the zeroed `d_input` from the
//! caller's [`Workspace`] and write the argmax into a buffer the caller
//! keeps, so a warmed training step never reaches the allocator; the plain
//! entry points are thin wrappers over this thread's fallback arena.

use crate::tensor::Tensor;
use crate::workspace::{with_thread_workspace, Workspace};

/// Window geometry of one pooling call. 1-D pooling over `(n, w, c)` is the
/// 2-D case with `h = kh = 1`.
struct Geom {
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn new(n: usize, h: usize, w: usize, c: usize, kh: usize, kw: usize, stride: usize) -> Geom {
        // Flat input positions are recorded as `u32`.
        assert!(n * h * w * c <= u32::MAX as usize, "pool input too large for u32 argmax");
        let (oh, ow) = (pooled_size(h, kh, stride), pooled_size(w, kw, stride));
        Geom { n, h, w, c, kh, kw, stride, oh, ow }
    }

    fn out_len(&self) -> usize {
        self.n * self.oh * self.ow * self.c
    }
}

fn pooled_size(s: usize, k: usize, stride: usize) -> usize {
    assert!(stride > 0, "pool stride must be positive");
    assert!(k > 0, "pool size must be positive");
    assert!(s >= k, "pool: input {s} smaller than window {k}");
    (s - k) / stride + 1
}

/// Channels folded together by [`window_max`]: the running maxima and their
/// positions stay in registers across a window's taps.
const LANES: usize = 8;

/// Maximum and its flat input position for `N` adjacent channels of the
/// window whose first tap is at `first`, taps visited in `(ky, kx)` order.
///
/// The position starts at the first tap, so a window with nothing above
/// `-inf` (all `-inf`/NaN) still routes its gradient inside itself. A strict
/// `>` keeps the first maximum on ties and never selects a NaN; it is written
/// as compare/select over a fixed-width run so it vectorises.
#[inline(always)]
fn window_max<const N: usize>(
    g: &Geom,
    src: &[f32],
    first: usize,
    out: &mut [f32],
    arg: &mut [u32],
) {
    let mut max = [f32::NEG_INFINITY; N];
    let mut pos: [u32; N] = std::array::from_fn(|lane| (first + lane) as u32);
    for ky in 0..g.kh {
        for kx in 0..g.kw {
            let s = first + (ky * g.w + kx) * g.c;
            let x: &[f32; N] = src[s..s + N].try_into().expect("N channels");
            for lane in 0..N {
                let take = x[lane] > max[lane];
                max[lane] = if take { x[lane] } else { max[lane] };
                pos[lane] = if take { (s + lane) as u32 } else { pos[lane] };
            }
        }
    }
    out.copy_from_slice(&max);
    arg.copy_from_slice(&pos);
}

/// Every element of `out` and `arg` is written.
fn forward(g: &Geom, src: &[f32], out: &mut [f32], arg: &mut [u32]) {
    let c = g.c;
    let windows = out.chunks_exact_mut(c).zip(arg.chunks_exact_mut(c));
    for (p, (out, arg)) in windows.enumerate() {
        let (ni, oy, ox) = (p / (g.oh * g.ow), p / g.ow % g.oh, p % g.ow);
        let first = ((ni * g.h + oy * g.stride) * g.w + ox * g.stride) * c;
        let wide = c - c % LANES;
        for ci in (0..wide).step_by(LANES) {
            let end = ci + LANES;
            window_max::<LANES>(g, src, first + ci, &mut out[ci..end], &mut arg[ci..end]);
        }
        for ci in wide..c {
            window_max::<1>(g, src, first + ci, &mut out[ci..=ci], &mut arg[ci..=ci]);
        }
    }
}

fn forward_ws(g: &Geom, input: &Tensor, argmax: &mut Vec<u32>, ws: &mut Workspace) -> Vec<f32> {
    let mut out = ws.take(g.out_len());
    argmax.resize(g.out_len(), 0);
    forward(g, input.data(), &mut out, argmax);
    out
}

/// 2-D max pool over `(n, h, w, c)` with a square `k`×`k` window.
///
/// Returns `(output, argmax)` where `argmax[i]` is the flat input index that
/// produced `output.data()[i]`.
pub fn maxpool2d_forward(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<u32>) {
    let mut argmax = Vec::new(); // alloc-gate: allow (returned to the caller)
    let out = with_thread_workspace(|ws| maxpool2d_forward_ws(input, k, stride, &mut argmax, ws));
    (out, argmax)
}

/// [`maxpool2d_forward`] with the output drawn from `ws` and the argmax
/// written into the caller's buffer (resized to the output length).
pub fn maxpool2d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    argmax: &mut Vec<u32>,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "maxpool2d input must be NHWC");
    let d = input.shape().dims();
    let g = Geom::new(d[0], d[1], d[2], d[3], k, k, stride);
    Tensor::from_vec([g.n, g.oh, g.ow, g.c], forward_ws(&g, input, argmax, ws))
}

/// Backward 2-D max pool: scatter `dout` to the recorded argmax positions.
pub fn maxpool2d_backward(input_shape: &[usize], dout: &Tensor, argmax: &[u32]) -> Tensor {
    with_thread_workspace(|ws| maxpool2d_backward_ws(input_shape, dout, argmax, ws))
}

/// [`maxpool2d_backward`] with the zeroed `d_input` drawn from `ws`.
pub fn maxpool2d_backward_ws(
    input_shape: &[usize],
    dout: &Tensor,
    argmax: &[u32],
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(dout.numel(), argmax.len(), "dout/argmax length mismatch");
    let mut dinput = ws.take_tensor_zeroed(input_shape);
    let dst = dinput.data_mut();
    for (&a, &g) in argmax.iter().zip(dout.data()) {
        dst[a as usize] += g;
    }
    dinput
}

/// 1-D max pool over `(n, w, c)`.
pub fn maxpool1d_forward(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<u32>) {
    let mut argmax = Vec::new(); // alloc-gate: allow (returned to the caller)
    let out = with_thread_workspace(|ws| maxpool1d_forward_ws(input, k, stride, &mut argmax, ws));
    (out, argmax)
}

/// [`maxpool1d_forward`] with the output drawn from `ws` and the argmax
/// written into the caller's buffer.
pub fn maxpool1d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    argmax: &mut Vec<u32>,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "maxpool1d input must be (n, w, c)");
    let d = input.shape().dims();
    let g = Geom::new(d[0], 1, d[1], d[2], 1, k, stride);
    Tensor::from_vec([g.n, g.ow, g.c], forward_ws(&g, input, argmax, ws))
}

/// Backward 1-D max pool.
pub fn maxpool1d_backward(input_shape: &[usize], dout: &Tensor, argmax: &[u32]) -> Tensor {
    maxpool2d_backward(input_shape, dout, argmax)
}

/// [`maxpool1d_backward`] with the zeroed `d_input` drawn from `ws`.
pub fn maxpool1d_backward_ws(
    input_shape: &[usize],
    dout: &Tensor,
    argmax: &[u32],
    ws: &mut Workspace,
) -> Tensor {
    maxpool2d_backward_ws(input_shape, dout, argmax, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The scalar loops this module shipped with before the compare/select
    /// rewrite, kept as the bit-identity oracle. One deliberate difference:
    /// `arg` starts at the window's first tap instead of flat element 0 (the
    /// all-`-inf`/NaN window fix), which no window with a finite maximum can
    /// observe.
    fn oracle_forward(g: &Geom, src: &[f32]) -> (Vec<f32>, Vec<u32>) {
        let (n, h, w, c, oh, ow) = (g.n, g.h, g.w, g.c, g.oh, g.ow);
        let mut out = vec![f32::NEG_INFINITY; n * oh * ow * c];
        let mut arg = vec![0u32; n * oh * ow * c];
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = ((ni * oh + oy) * ow + ox) * c;
                    let first = ((ni * h + oy * g.stride) * w + ox * g.stride) * c;
                    for ci in 0..c {
                        arg[base + ci] = (first + ci) as u32;
                    }
                    for ky in 0..g.kh {
                        let iy = oy * g.stride + ky;
                        for kx in 0..g.kw {
                            let ix = ox * g.stride + kx;
                            let s = ((ni * h + iy) * w + ix) * c;
                            for ci in 0..c {
                                let v = src[s + ci];
                                if v > out[base + ci] {
                                    out[base + ci] = v;
                                    arg[base + ci] = (s + ci) as u32;
                                }
                            }
                        }
                    }
                }
            }
        }
        (out, arg)
    }

    fn oracle_backward(input_len: usize, dout: &[f32], argmax: &[u32]) -> Vec<f32> {
        let mut dinput = vec![0.0f32; input_len];
        for (&a, &g) in argmax.iter().zip(dout) {
            dinput[a as usize] += g;
        }
        dinput
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Inputs drawn from a small value set so windows are full of ties, with
    /// both zeros, infinities and NaN lanes mixed in.
    fn tricky_input(shape: [usize; 4], rng: &mut Rng) -> Tensor {
        const SPECIAL: [f32; 8] =
            [0.0, -0.0, 1.0, -1.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.5];
        let len: usize = shape.iter().product();
        let data = (0..len)
            .map(|_| if rng.chance(0.6) { SPECIAL[rng.below(8)] } else { rng.normal() })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn bit_identical_to_the_scalar_oracle() {
        let mut rng = Rng::seed(0xB17);
        let mut ws = Workspace::new();
        let mut argmax = Vec::new();
        for k in [2usize, 3, 5] {
            for stride in [1usize, 2] {
                for c in [1usize, 3, 8, 24] {
                    for plain in [true, false] {
                        let shape = [2, 7, 6, c];
                        let x = if plain {
                            Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
                        } else {
                            tricky_input(shape, &mut rng)
                        };
                        let g = Geom::new(2, 7, 6, c, k, k, stride);
                        let (want_out, want_arg) = oracle_forward(&g, x.data());
                        let y = maxpool2d_forward_ws(&x, k, stride, &mut argmax, &mut ws);
                        let tag = format!("k{k} s{stride} c{c} plain={plain}");
                        assert_eq!(y.shape().dims(), &[2, g.oh, g.ow, c], "{tag}");
                        assert_eq!(bits(y.data()), bits(&want_out), "output {tag}");
                        assert_eq!(argmax, want_arg, "argmax {tag}");
                        // Overlapping windows (k > stride) make several
                        // outputs scatter into one input: order matters.
                        let dout = Tensor::rand_normal(y.shape().clone(), 0.0, 1.0, &mut rng);
                        let dx = maxpool2d_backward_ws(&shape, &dout, &argmax, &mut ws);
                        let want_dx = oracle_backward(x.numel(), dout.data(), &want_arg);
                        assert_eq!(bits(dx.data()), bits(&want_dx), "d_input {tag}");
                        ws.recycle(y);
                        ws.recycle(dx);

                        // The same data as a 1-D problem: rows of 7·6 steps.
                        let x1 = x.clone().reshape([2, 42, c]);
                        let g1 = Geom::new(2, 1, 42, c, 1, k, stride);
                        let (want_out, want_arg) = oracle_forward(&g1, x1.data());
                        let y1 = maxpool1d_forward_ws(&x1, k, stride, &mut argmax, &mut ws);
                        assert_eq!(bits(y1.data()), bits(&want_out), "1-D output {tag}");
                        assert_eq!(argmax, want_arg, "1-D argmax {tag}");
                        ws.recycle(y1);
                    }
                }
            }
        }
    }

    /// A window holding nothing above `-inf` used to keep `argmax = 0`, so
    /// its gradient landed on flat element 0 — another sample's pixel.
    #[test]
    fn empty_window_routes_its_gradient_to_its_own_first_tap() {
        let ninf = f32::NEG_INFINITY;
        #[rustfmt::skip]
        let input = Tensor::from_vec([2, 2, 2, 1], vec![
            1., 2.,
            3., 4.,
            ninf, f32::NAN,
            f32::NAN, ninf,
        ]);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(out.data(), &[4., ninf], "value semantics are unchanged");
        assert_eq!(arg, vec![3, 4]);
        let dout = Tensor::from_vec([2, 1, 1, 1], vec![10., 7.]);
        let dinput = maxpool2d_backward(&[2, 2, 2, 1], &dout, &arg);
        assert_eq!(dinput.data(), &[0., 0., 0., 10., 7., 0., 0., 0.]);
    }

    #[test]
    fn ws_entry_points_reuse_their_buffers() {
        let mut rng = Rng::seed(3);
        let mut ws = Workspace::new();
        let mut argmax = Vec::new();
        let x = Tensor::rand_normal([4, 8, 8, 3], 0.0, 1.0, &mut rng);
        let mut step = |ws: &mut Workspace| {
            let y = maxpool2d_forward_ws(&x, 3, 2, &mut argmax, ws);
            let dx = maxpool2d_backward_ws(x.shape().dims(), &y, &argmax, ws);
            ws.recycle(y);
            ws.recycle(dx);
            argmax.as_ptr()
        };
        let arg_ptr = step(&mut ws);
        let (pooled, misses) = (ws.pooled(), ws.alloc_misses());
        for _ in 0..3 {
            assert_eq!(step(&mut ws), arg_ptr, "argmax buffer must be reused in place");
            assert_eq!((ws.pooled(), ws.alloc_misses()), (pooled, misses));
        }
    }

    #[test]
    fn pool2d_known_values() {
        // 1 sample, 4x4, 1 channel.
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 4, 4, 1], vec![
            1., 2., 3., 4.,
            5., 6., 7., 8.,
            9., 10., 11., 12.,
            13., 14., 15., 16.,
        ]);
        let (out, _) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn pool2d_overlapping_stride() {
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 3, 3, 1], vec![
            1., 2., 3.,
            4., 5., 6.,
            7., 8., 9.,
        ]);
        let (out, _) = maxpool2d_forward(&input, 2, 1);
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[5., 6., 8., 9.]);
    }

    #[test]
    fn pool2d_backward_routes_to_argmax() {
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 2, 2, 1], vec![
            1., 9.,
            3., 4.,
        ]);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(out.data(), &[9.]);
        let dout = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let dinput = maxpool2d_backward(&[1, 2, 2, 1], &dout, &arg);
        assert_eq!(dinput.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn pool2d_gradient_check() {
        let mut rng = Rng::seed(1);
        let input = Tensor::rand_normal([2, 5, 5, 3], 0.0, 1.0, &mut rng);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        let dout = Tensor::ones(out.shape().dims().to_vec());
        let dinput = maxpool2d_backward(input.shape().dims(), &dout, &arg);
        let eps = 1e-3f32;
        for idx in (0..input.numel()).step_by(7) {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (maxpool2d_forward(&plus, 2, 2).0.sum()
                - maxpool2d_forward(&minus, 2, 2).0.sum())
                / (2.0 * eps);
            assert!(
                (num - dinput.data()[idx]).abs() < 1e-2,
                "dinput[{idx}] analytic {} numeric {num}",
                dinput.data()[idx]
            );
        }
    }

    #[test]
    fn pool1d_known_values() {
        let input = Tensor::from_vec([1, 6, 1], vec![3., 1., 4., 1., 5., 9.]);
        let (out, _) = maxpool1d_forward(&input, 2, 2);
        assert_eq!(out.data(), &[3., 4., 9.]);
        let (out3, _) = maxpool1d_forward(&input, 3, 3);
        assert_eq!(out3.data(), &[4., 9.]);
    }

    #[test]
    fn pool1d_multi_channel_independent() {
        // Two channels pooled independently.
        let input = Tensor::from_vec([1, 2, 2], vec![1., 8., 5., 2.]);
        let (out, arg) = maxpool1d_forward(&input, 2, 1);
        assert_eq!(out.data(), &[5., 8.]);
        let dout = Tensor::from_vec([1, 1, 2], vec![1.0, 1.0]);
        let dinput = maxpool1d_backward(&[1, 2, 2], &dout, &arg);
        assert_eq!(dinput.data(), &[0., 1., 1., 0.]);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn window_larger_than_input_panics() {
        maxpool1d_forward(&Tensor::zeros([1, 2, 1]), 3, 1);
    }
}
