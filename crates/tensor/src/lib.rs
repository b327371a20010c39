//! Minimal CPU tensor library for the selective-weight-transfer reproduction.
//!
//! The paper trains Keras/TensorFlow models on GPUs; this crate is the
//! from-scratch substitute: dense row-major `f32` tensors with exactly the
//! kernels the four application search spaces need —
//!
//! * dense products for a layer's forward and backward passes
//!   ([`matmul`](matmul::matmul), [`matmul_at`], [`matmul_bt`]): the first
//!   two on the convolutions' broadcast-FMA tiles, the input gradient on a
//!   cache-blocked, packed BLIS-style GEMM (see the module docs),
//! * direct [`conv2d`] forward *and* backward, 1-D as its one-row case:
//!   broadcast-FMA register tiles that read the NHWC tensors in place,
//!   bit-identical to the GEMMs they stand for,
//! * max-pooling over either rank with argmax-based backward,
//! * row-wise softmax and elementwise activations,
//! * the Adam update ([`adam_update`]): one pass per parameter at one
//!   division per element, the bits of the textbook three,
//! * a reusable scratch arena ([`Workspace`]) so the
//!   training hot path is allocation-free at steady state,
//! * scoped-thread data-parallel helpers ([`parallel`]) under a per-thread
//!   budget that nested parallelism splits instead of multiplying,
//! * a seeded, splittable [`Rng`] so every experiment is
//!   reproducible from a single `u64` seed.
//!
//! The crate has zero external dependencies. Everything is safe Rust except
//! the GEMM and convolution micro-kernels behind the runtime dispatch table
//! in [`mod@matmul`]: explicit `std::arch` kernels — AVX2+FMA at 8 lanes, and
//! AVX-512 at 16 where the host reports it — selected once per process via
//! `is_x86_feature_detected!`, with the portable scalar kernels as fallback,
//! are the one place `unsafe` buys real throughput. Hot loops elsewhere are
//! written over slices and fixed-size tiles so bounds checks vectorise away.

mod adam;
mod bcast;
pub mod conv2d;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use adam::{adam_update, AdamStep};
pub use conv2d::{
    conv2d_backward, conv2d_backward_input_ws, conv2d_backward_kernel_into, conv2d_backward_ws,
    conv2d_forward, conv2d_forward_ws, Padding,
};
pub use matmul::{
    gemm_kernel_name, matmul, matmul_at, matmul_at_into, matmul_at_ws, matmul_bt, matmul_bt_ws,
    matmul_naive, matmul_ws,
};
pub use ops::{
    relu, relu_grad_from_output, sigmoid, sigmoid_grad_from_output, softmax_rows, tanh_act,
    tanh_grad_from_output,
};
pub use pool::{
    maxpool2d_backward, maxpool2d_backward_ws, maxpool2d_forward, maxpool2d_forward_ws,
};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{with_thread_workspace, Workspace};

#[cfg(test)]
mod conv1d;
