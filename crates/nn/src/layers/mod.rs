//! Trainable layer implementations.
//!
//! **Ownership rule.** The [`crate::Model`] is the single owner of
//! activations: it keeps every node's forward output until the next batch and
//! hands a layer's inputs and output back to it in `backward`, so a layer
//! never copies a feature map to remember it. A layer may keep only what it
//! *computed* and nobody else holds — batch-norm's `x̂`, dropout's mask, a
//! pool's argmax — and only for a training-mode forward; the latest pass's
//! parameter gradients live inside the layer and reach the optimizer through
//! [`Layer::visit_updates`].
//!
//! Both passes receive the model's [`Workspace`]: layers draw every
//! per-batch buffer (outputs, kept tensors, GEMM scratch) from it and recycle
//! dead tensors back, so at steady state a training step touches the
//! allocator only for O(1)-sized control structures, never for tensor
//! storage.
//!
//! A convolution or an activation-free dense layer whose only reader is an
//! `Activation` node takes that activation over ([`Layer::fold_activation`]):
//! it writes `act(pre + b)` into its own output, so the pair holds one
//! feature map, and its `backward` turns the gradient of that output into
//! the gradient of `pre` in place.

mod conv;
mod dense;
mod misc;
mod norm;
mod pool;

pub use conv::ConvLayer;
pub use dense::DenseLayer;
pub use misc::{ActivationLayer, ConcatLayer, DropoutLayer};
pub use norm::BatchNormLayer;
pub use pool::MaxPoolLayer;

use crate::spec::Activation;
use swt_tensor::{Tensor, Workspace};

/// A trainable (or stateless) layer.
///
/// `forward` receives one batched tensor per DAG input (leading dimension =
/// batch). `backward` receives the same inputs, the output `forward`
/// returned for them, the upstream gradient of that output — the layer's to
/// overwrite, since the caller only recycles it — and which of the inputs'
/// gradients anyone will read, and returns one entry per input, in the same
/// order: the gradient where it is wanted, `None` where it is not.
pub trait Layer: Send {
    /// Run the layer. `training` toggles batch-statistics / dropout
    /// behaviour exactly like Keras' `training=True`; only a training-mode
    /// forward may keep state for `backward`. Scratch and output buffers
    /// come from `ws`.
    fn forward(&mut self, inputs: &[&Tensor], training: bool, ws: &mut Workspace) -> Tensor;

    /// Backpropagate through the latest training-mode `forward`, whose
    /// `inputs` and `output` the caller still holds. The layer's parameter
    /// gradients are *set* to this pass's, whatever `wanted` says — to the
    /// bit what zeroing them and adding this pass's would leave, without the
    /// zeroing. Nothing sums them across calls: the model adds up the
    /// gradients of a multi-reader activation at node level, and one
    /// optimizer step follows every pass. The gradient of
    /// input `i` is computed only if `wanted[i]` — an input fed by the data
    /// set has no reader for it, and for a first convolution or dense layer
    /// that product is a third of the layer's step.
    fn backward(
        &mut self,
        inputs: &[&Tensor],
        output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>>;

    /// Apply `activation` to this layer's output from now on, taking over
    /// an `Activation` node that is its output's only reader; `false` (and
    /// no change) for a layer that cannot.
    fn fold_activation(&mut self, _activation: Activation) -> bool {
        false
    }

    /// Visit trainable parameters as `(local_name, value)`.
    fn visit_params(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    /// Visit trainable parameters mutably (used by weight transfer /
    /// checkpoint restore).
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&str, &mut Tensor)) {}

    /// Visit `(local_name, parameter, gradient)` triples for the optimizer.
    fn visit_updates(&mut self, _f: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {}

    /// Make the parameter gradients read zero until the next `backward`
    /// sets them (a layer may defer the fill to the read).
    fn zero_grads(&mut self) {}

    /// Non-trainable state persisted in checkpoints (e.g. batch-norm running
    /// statistics), as `(local_name, value)`.
    fn visit_state(&self, _f: &mut dyn FnMut(&str, &Tensor)) {}

    /// Restore one piece of non-trainable state; returns false when the name
    /// is not recognised.
    fn load_state(&mut self, _name: &str, _value: &Tensor) -> bool {
        false
    }
}

/// Glorot-uniform initialisation limit for the given fan-in/fan-out.
pub(crate) fn glorot_limit(fan_in: usize, fan_out: usize) -> f32 {
    (6.0 / (fan_in + fan_out) as f32).sqrt()
}

/// `*out = a(v)` for every `(out, v)` pair — in place or from another
/// tensor, as the caller zips it. One loop per activation, so each is
/// compiled (and vectorised) for a single function.
pub(crate) fn apply_activation<'a>(pairs: impl Iterator<Item = (&'a mut f32, f32)>, a: Activation) {
    fn map<'a>(pairs: impl Iterator<Item = (&'a mut f32, f32)>, f: impl Fn(f32) -> f32) {
        for (out, v) in pairs {
            *out = f(v);
        }
    }
    match a {
        Activation::Relu => map(pairs, |v| v.max(0.0)),
        Activation::Tanh => map(pairs, f32::tanh),
        Activation::Sigmoid => map(pairs, |v| 1.0 / (1.0 + (-v).exp())),
    }
}

/// Scalar activation derivative expressed via the forward output.
pub(crate) fn activation_grad_scalar(y: f32, a: Activation) -> f32 {
    match a {
        Activation::Relu => {
            if y > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::Tanh => 1.0 - y * y,
        Activation::Sigmoid => y * (1.0 - y),
    }
}

/// `y = act(y + b)` in place, the `(units,)` bias broadcast over the rows of
/// `y`'s last dimension: a layer's bias and activation in one pass.
pub(crate) fn add_bias_and_activate(y: &mut Tensor, bias: &Tensor, activation: Option<Activation>) {
    let bias = bias.data();
    for row in y.data_mut().chunks_mut(bias.len()) {
        match activation {
            None => row.iter_mut().zip(bias).for_each(|(v, &b)| *v += b),
            Some(a) => {
                let biased = row.iter_mut().zip(bias).map(|(out, &b)| {
                    let v = *out + b;
                    (out, v)
                });
                apply_activation(biased, a);
            }
        }
    }
}

/// Turn `dout`, the gradient of `y = act(pre)`, into the gradient of `pre`
/// in place, and in the same pass set the bias gradient: `d_bias[j]` is the
/// sum of column `j` of it, from `0.0` in row order.
pub(crate) fn pre_activation_grad(
    dout: &mut Tensor,
    y: &Tensor,
    activation: Option<Activation>,
    d_bias: &mut Tensor,
) {
    let (d, y, sums) = (dout.data_mut(), y.data(), d_bias.data_mut());
    // One closure type per activation, so each loop is compiled for one
    // function.
    use Activation::{Relu, Sigmoid, Tanh};
    match activation {
        None => grad_and_column_sums(d, y, sums, |g, _| g),
        Some(Relu) => grad_and_column_sums(d, y, sums, |g, y| g * activation_grad_scalar(y, Relu)),
        Some(Tanh) => grad_and_column_sums(d, y, sums, |g, y| g * activation_grad_scalar(y, Tanh)),
        Some(Sigmoid) => {
            grad_and_column_sums(d, y, sums, |g, y| g * activation_grad_scalar(y, Sigmoid))
        }
    }
}

/// `d = grad(d, y)` element by element and, in the same pass,
/// `sums[j] = Σ_rows d[row][j]` from `0.0` in row order.
fn grad_and_column_sums(
    d: &mut [f32],
    y: &[f32],
    sums: &mut [f32],
    grad: impl Fn(f32, f32) -> f32,
) {
    let n = sums.len();
    sums.fill(0.0);
    for (d_row, y_row) in d.chunks_mut(n).zip(y.chunks(n)) {
        for ((d, sum), &yv) in d_row.iter_mut().zip(sums.iter_mut()).zip(y_row) {
            *d = grad(*d, yv);
            *sum += *d;
        }
    }
}

/// `grad = 0.0 + product`, element by element: what zeroing `grad` and
/// adding `product` leaves, to the bit, in one pass. A bare copy is not — a
/// fused chain whose every product underflows from below ends in `-0.0`, and
/// `0.0 + -0.0` is `+0.0`.
pub(crate) fn set_gradient(grad: &mut Tensor, product: &Tensor) {
    assert_eq!(grad.shape(), product.shape(), "gradient shape mismatch");
    for (g, &p) in grad.data_mut().iter_mut().zip(product.data()) {
        *g = 0.0 + p;
    }
}

/// Copy `src` into a fresh workspace tensor (the allocation-free analogue of
/// `src.clone()`), for a layer that must produce a tensor of its own from one
/// it may not take.
pub(crate) fn ws_copy(src: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut t = ws.take_tensor(src.shape().clone());
    t.data_mut().copy_from_slice(src.data());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One overflowed step must not outlive itself: `zero_grads` makes the
    /// gradients read exact zeros (a fill, not a multiply — `inf · 0` is
    /// `NaN`), and the next `backward` sets finite ones whether or not
    /// `zero_grads` came between.
    #[test]
    fn zero_grads_clears_a_poisoned_gradient() {
        use swt_tensor::{Padding, Rng};
        let mut rng = Rng::seed(7);
        let mut ws = Workspace::new();
        let cases: Vec<(Box<dyn Layer>, Tensor)> = vec![
            (Box::new(DenseLayer::new(3, 2, None, &mut rng)), Tensor::ones([4, 3])),
            (
                Box::new(ConvLayer::new(&[3, 3], 2, 3, Padding::Same, 0.0, &mut rng)),
                Tensor::ones([1, 4, 4, 2]),
            ),
            (
                Box::new(ConvLayer::new(&[3], 2, 3, Padding::Same, 0.0, &mut rng)),
                Tensor::ones([1, 6, 2]),
            ),
            (Box::new(BatchNormLayer::new(3)), Tensor::rand_normal([4, 3], 0.0, 1.0, &mut rng)),
        ];
        for (mut layer, x) in cases {
            let y = layer.forward(&[&x], true, &mut ws);
            let poison = |layer: &mut Box<dyn Layer>, ws: &mut Workspace| {
                let mut dout = Tensor::full(y.shape().clone(), f32::INFINITY);
                layer.backward(&[&x], &y, &mut dout, &[true], ws);
                let mut poisoned = 0;
                layer.visit_updates(&mut |_, _, g| {
                    poisoned += g.data().iter().filter(|v| !v.is_finite()).count()
                });
                assert!(poisoned > 0, "the infinite upstream gradient must reach the gradients");
            };
            poison(&mut layer, &mut ws);
            layer.zero_grads();
            layer.visit_updates(&mut |name, _, g| {
                assert!(g.data().iter().all(|v| v.to_bits() == 0), "{name} not zero");
            });
            poison(&mut layer, &mut ws);
            layer.backward(&[&x], &y, &mut Tensor::ones(y.shape().clone()), &[true], &mut ws);
            layer.visit_updates(&mut |name, _, g| {
                assert!(g.data().iter().all(|v| v.is_finite()), "{name} still poisoned");
            });
        }
    }

    #[test]
    fn glorot_limit_shrinks_with_fan() {
        assert!(glorot_limit(10, 10) > glorot_limit(100, 100));
        assert!((glorot_limit(3, 3) - 1.0).abs() < 1e-6);
    }
}
