//! 1-D convolution (NWC), forward and backward.
//!
//! NT3 classifies RNA-sequence gene-expression profiles with 1-D
//! convolutions over very wide inputs (Section VII-A); this is the kernel
//! backing the NT3-like search space. An `(n, w, c)` input is the
//! `(n, 1, w, c)` image of a 2-D convolution with a one-row kernel, so this
//! module is the shape checks around [`crate::conv2d`]'s direct kernels: same
//! tiles, same `(kx, c)` contraction order, same Workspace discipline.

use crate::conv2d::{backward_input, backward_kernel, forward, Geom, Padding};
use crate::tensor::Tensor;
use crate::workspace::{with_thread_workspace, Workspace};

fn geom1d(input: &Tensor, kernel: &Tensor, padding: Padding) -> Geom {
    assert_eq!(input.shape().rank(), 3, "conv1d input must be (n, w, c) rank 3");
    assert_eq!(kernel.shape().rank(), 3, "conv1d kernel must be (k, c, f)");
    let (i, k) = (input.shape().dims(), kernel.shape().dims());
    assert_eq!(i[2], k[1], "conv1d channel mismatch: input {}, kernel {}", i[2], k[1]);
    Geom::new(i[0], 1, i[1], i[2], 1, k[0], k[2], padding)
}

/// Forward 1-D convolution.
///
/// * `input` — `(n, w, c)`
/// * `kernel` — `(k, c, f)`
///
/// Returns `(n, ow, f)`.
pub fn conv1d_forward(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
    with_thread_workspace(|ws| conv1d_forward_ws(input, kernel, padding, ws))
}

/// [`conv1d_forward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv1d_forward_ws(
    input: &Tensor,
    kernel: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> Tensor {
    let g = geom1d(input, kernel, padding);
    Tensor::from_vec([g.n, g.ow, g.f], forward(&g, input.data(), kernel.data(), ws))
}

/// Backward 1-D convolution: `(d_input, d_kernel)` for upstream `dout (n, ow, f)`.
pub fn conv1d_backward(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
) -> (Tensor, Tensor) {
    with_thread_workspace(|ws| conv1d_backward_ws(input, kernel, dout, padding, ws))
}

/// [`conv1d_backward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv1d_backward_ws(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let dk = conv1d_backward_kernel_ws(input, kernel, dout, padding, ws);
    let g = geom1d(input, kernel, padding);
    let dx = backward_input(&g, kernel.data(), dout.data(), ws);
    (Tensor::from_vec([g.n, g.w, g.c], dx), dk)
}

/// The `d_kernel` half of [`conv1d_backward_ws`] alone (see
/// [`crate::conv2d::conv2d_backward_kernel_ws`]).
pub fn conv1d_backward_kernel_ws(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> Tensor {
    let g = geom1d(input, kernel, padding);
    assert_eq!(
        dout.shape().dims(),
        &[g.n, g.ow, g.f],
        "conv1d_backward: bad dout {}",
        dout.shape()
    );
    Tensor::from_vec([g.kw, g.c, g.f], backward_kernel(&g, input.data(), dout.data(), ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_conv1d(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
        let (n, w, c) = (input.shape().dim(0), input.shape().dim(1), input.shape().dim(2));
        let (k, _, f) = (kernel.shape().dim(0), kernel.shape().dim(1), kernel.shape().dim(2));
        let ow = padding.out_size(w, k);
        let (pl, _) = padding.pads(k);
        let mut out = Tensor::zeros([n, ow, f]);
        for ni in 0..n {
            for ox in 0..ow {
                for fi in 0..f {
                    let mut acc = 0.0;
                    for kx in 0..k {
                        let ix = ox as isize + kx as isize - pl as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        for ci in 0..c {
                            acc += input.at(&[ni, ix as usize, ci]) * kernel.at(&[kx, ci, fi]);
                        }
                    }
                    out.set(&[ni, ox, fi], acc);
                }
            }
        }
        out
    }

    #[test]
    fn shapes() {
        let input = Tensor::zeros([2, 16, 4]);
        let kernel = Tensor::zeros([5, 4, 8]);
        assert_eq!(conv1d_forward(&input, &kernel, Padding::Valid).shape().dims(), &[2, 12, 8]);
        assert_eq!(conv1d_forward(&input, &kernel, Padding::Same).shape().dims(), &[2, 16, 8]);
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::seed(10);
        for &padding in &[Padding::Valid, Padding::Same] {
            for &(w, c, k, f) in &[(9, 1, 3, 2), (12, 3, 4, 5), (7, 2, 1, 1)] {
                let input = Tensor::rand_normal([2, w, c], 0.0, 1.0, &mut rng);
                let kernel = Tensor::rand_normal([k, c, f], 0.0, 1.0, &mut rng);
                let fast = conv1d_forward(&input, &kernel, padding);
                let slow = naive_conv1d(&input, &kernel, padding);
                assert!(fast.approx_eq(&slow, 1e-4), "{padding:?} ({w},{c},{k},{f})");
            }
        }
    }

    #[test]
    fn forward_matches_naive_on_wide_nt3_like_input() {
        // Wide enough that the blocked GEMM path carries the product.
        let mut rng = Rng::seed(12);
        let input = Tensor::rand_normal([2, 180, 4], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([5, 4, 20], 0.0, 0.3, &mut rng);
        let fast = conv1d_forward(&input, &kernel, Padding::Same);
        let slow = naive_conv1d(&input, &kernel, Padding::Same);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn ws_variant_matches_and_reuses() {
        let mut rng = Rng::seed(13);
        let mut ws = Workspace::new();
        let input = Tensor::rand_normal([3, 14, 2], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 2, 5], 0.0, 1.0, &mut rng);
        let base = conv1d_forward(&input, &kernel, Padding::Same);
        for _ in 0..3 {
            let out = conv1d_forward_ws(&input, &kernel, Padding::Same, &mut ws);
            assert!(out.approx_eq(&base, 1e-6));
            ws.recycle(out);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::seed(11);
        for &padding in &[Padding::Valid, Padding::Same] {
            let input = Tensor::rand_normal([1, 8, 2], 0.0, 1.0, &mut rng);
            let kernel = Tensor::rand_normal([3, 2, 3], 0.0, 0.5, &mut rng);
            let out = conv1d_forward(&input, &kernel, padding);
            let dout = Tensor::ones(out.shape().dims().to_vec());
            let (dinput, dkernel) = conv1d_backward(&input, &kernel, &dout, padding);
            let eps = 1e-2f32;
            for idx in (0..input.numel()).step_by(3) {
                let mut plus = input.clone();
                plus.data_mut()[idx] += eps;
                let mut minus = input.clone();
                minus.data_mut()[idx] -= eps;
                let num = (conv1d_forward(&plus, &kernel, padding).sum()
                    - conv1d_forward(&minus, &kernel, padding).sum())
                    / (2.0 * eps);
                assert!((num - dinput.data()[idx]).abs() < 1e-2, "{padding:?} dinput[{idx}]");
            }
            for kidx in 0..kernel.numel() {
                let mut plus = kernel.clone();
                plus.data_mut()[kidx] += eps;
                let mut minus = kernel.clone();
                minus.data_mut()[kidx] -= eps;
                let num = (conv1d_forward(&input, &plus, padding).sum()
                    - conv1d_forward(&input, &minus, padding).sum())
                    / (2.0 * eps);
                assert!((num - dkernel.data()[kidx]).abs() < 1e-2, "{padding:?} dkernel[{kidx}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank 3")]
    fn wrong_rank_panics() {
        conv1d_forward(&Tensor::zeros([2, 4]), &Tensor::zeros([3, 1, 1]), Padding::Valid);
    }
}
