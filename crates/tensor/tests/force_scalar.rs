//! `force_scalar_kernel` against the dispatched micro-kernel.
//!
//! The flag is process-global, so this test lives alone in its own binary:
//! inside the crate's unit-test binary, flipping it while a sibling test
//! compared two calls bit for bit made that sibling fail a few runs in a
//! hundred.

use swt_tensor::{
    conv2d_forward, force_scalar_kernel, gemm_kernel_name, matmul, Padding, Rng, Tensor,
};

/// The public entry points under the real dispatch table vs the pinned
/// scalar kernel: identical results up to FP contraction.
#[test]
fn forced_scalar_kernel_matches_dispatch() {
    let mut rng = Rng::seed(33);
    let a = Tensor::rand_normal([70, 90], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal([90, 40], 0.0, 1.0, &mut rng);
    let x = Tensor::rand_normal([2, 12, 12, 8], 0.0, 1.0, &mut rng);
    let k = Tensor::rand_normal([3, 3, 8, 24], 0.0, 0.3, &mut rng);
    let auto = (matmul(&a, &b), conv2d_forward(&x, &k, Padding::Same));
    let dispatched = gemm_kernel_name();
    force_scalar_kernel(true);
    assert_eq!(gemm_kernel_name(), "scalar");
    let forced = (matmul(&a, &b), conv2d_forward(&x, &k, Padding::Same));
    force_scalar_kernel(false);
    assert_eq!(gemm_kernel_name(), dispatched);
    assert!(forced.0.approx_eq(&auto.0, 1e-4));
    assert!(forced.1.approx_eq(&auto.1, 1e-4));
}
