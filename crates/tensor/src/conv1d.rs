//! The 1-D convolution is [`conv2d`](crate::conv2d)'s rank-3 call: an
//! `(n, w, c)` input under a `(k, c, f)` kernel, answered in rank 3. These
//! tests hold that call to a direct 1-D loop and to central differences.

#[cfg(test)]
mod tests {
    use crate::conv2d::{conv2d_backward, conv2d_forward, conv2d_forward_ws, Padding};
    use crate::rng::Rng;
    use crate::{Tensor, Workspace};

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
        assert_eq!(conv2d_forward(&input, &kernel, Padding::Valid).shape().dims(), &[2, 12, 8]);
        assert_eq!(conv2d_forward(&input, &kernel, Padding::Same).shape().dims(), &[2, 16, 8]);
        let even = Tensor::zeros([4, 4, 8]);
        assert_eq!(conv2d_forward(&input, &even, Padding::Same).shape().dims(), &[2, 16, 8]);
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::seed(10);
        for &padding in &[Padding::Valid, Padding::Same] {
            for &(w, c, k, f) in &[(9, 1, 3, 2), (12, 3, 4, 5), (7, 2, 1, 1)] {
                let input = Tensor::rand_normal([2, w, c], 0.0, 1.0, &mut rng);
                let kernel = Tensor::rand_normal([k, c, f], 0.0, 1.0, &mut rng);
                let fast = conv2d_forward(&input, &kernel, padding);
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
        let fast = conv2d_forward(&input, &kernel, Padding::Same);
        let slow = naive_conv1d(&input, &kernel, Padding::Same);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn ws_variant_matches_and_reuses() {
        let mut rng = Rng::seed(13);
        let mut ws = Workspace::new();
        let input = Tensor::rand_normal([3, 14, 2], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 2, 5], 0.0, 1.0, &mut rng);
        let base = conv2d_forward(&input, &kernel, Padding::Same);
        for _ in 0..3 {
            let out = conv2d_forward_ws(&input, &kernel, Padding::Same, &mut ws);
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
            let out = conv2d_forward(&input, &kernel, padding);
            let dout = Tensor::ones(out.shape().dims().to_vec());
            let (dinput, dkernel) = conv2d_backward(&input, &kernel, &dout, padding);
            assert_eq!((dinput.shape(), dkernel.shape()), (input.shape(), kernel.shape()));
            let eps = 1e-2f32;
            for idx in (0..input.numel()).step_by(3) {
                let mut plus = input.clone();
                plus.data_mut()[idx] += eps;
                let mut minus = input.clone();
                minus.data_mut()[idx] -= eps;
                let num = (conv2d_forward(&plus, &kernel, padding).sum()
                    - conv2d_forward(&minus, &kernel, padding).sum())
                    / (2.0 * eps);
                assert!((num - dinput.data()[idx]).abs() < 1e-2, "{padding:?} dinput[{idx}]");
            }
            for kidx in 0..kernel.numel() {
                let mut plus = kernel.clone();
                plus.data_mut()[kidx] += eps;
                let mut minus = kernel.clone();
                minus.data_mut()[kidx] -= eps;
                let num = (conv2d_forward(&input, &plus, padding).sum()
                    - conv2d_forward(&input, &minus, padding).sum())
                    / (2.0 * eps);
                assert!((num - dkernel.data()[kidx]).abs() < 1e-2, "{padding:?} dkernel[{kidx}]");
            }
        }
    }
}
