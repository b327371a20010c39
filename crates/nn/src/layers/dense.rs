//! Fully-connected layer with optional fused activation.

use super::{glorot_limit, Layer};
use crate::spec::Activation;
use swt_tensor::{matmul_at_ws, matmul_bt_ws, matmul_ws, Rng, Tensor, Workspace};

/// `y = act(x · W + b)` for rank-2 input `(batch, in_features)`.
pub struct DenseLayer {
    kernel: Tensor,
    bias: Tensor,
    d_kernel: Tensor,
    d_bias: Tensor,
    activation: Option<Activation>,
}

impl DenseLayer {
    /// Glorot-uniform initialised dense layer.
    pub fn new(
        in_features: usize,
        units: usize,
        activation: Option<Activation>,
        rng: &mut Rng,
    ) -> Self {
        let limit = glorot_limit(in_features, units);
        DenseLayer {
            kernel: Tensor::rand_uniform([in_features, units], -limit, limit, rng),
            bias: Tensor::zeros([units]),
            d_kernel: Tensor::zeros([in_features, units]),
            d_bias: Tensor::zeros([units]),
            activation,
        }
    }
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

impl Layer for DenseLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        let x = inputs[0];
        assert_eq!(x.shape().rank(), 2, "dense input must be (batch, features)");
        let mut y = matmul_ws(x, &self.kernel, ws);
        // Broadcast bias over rows.
        let units = self.bias.numel();
        for row in y.data_mut().chunks_mut(units) {
            for (v, &b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        if let Some(a) = self.activation {
            let in_place = y.data_mut().iter_mut().map(|out| {
                let v = *out;
                (out, v)
            });
            apply_activation(in_place, a);
        }
        y
    }

    fn backward(
        &mut self,
        inputs: &[&Tensor],
        output: &Tensor,
        dout: &Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        let x = inputs[0];
        let mut dpre = ws.take_tensor(dout.shape().clone());
        match self.activation {
            Some(a) => {
                for ((dp, &g), &yv) in
                    dpre.data_mut().iter_mut().zip(dout.data()).zip(output.data())
                {
                    *dp = g * activation_grad_scalar(yv, a);
                }
            }
            None => dpre.data_mut().copy_from_slice(dout.data()),
        }
        let dk = matmul_at_ws(x, &dpre, ws);
        self.d_kernel.axpy(1.0, &dk);
        ws.recycle(dk);
        let units = self.bias.numel();
        let db = self.d_bias.data_mut();
        for row in dpre.data().chunks(units) {
            for (o, &v) in db.iter_mut().zip(row) {
                *o += v;
            }
        }
        let dx = wanted[0].then(|| matmul_bt_ws(&dpre, &self.kernel, ws));
        ws.recycle(dpre);
        vec![dx]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("kernel", &self.kernel);
        f("bias", &self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f("kernel", &mut self.kernel);
        f("bias", &mut self.bias);
    }

    fn visit_updates(&mut self, f: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        f("kernel", &mut self.kernel, &self.d_kernel);
        f("bias", &mut self.bias, &self.d_bias);
    }

    fn zero_grads(&mut self) {
        self.d_kernel.data_mut().fill(0.0);
        self.d_bias.data_mut().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_affine_map() {
        let mut rng = Rng::seed(1);
        let mut ws = Workspace::new();
        let mut layer = DenseLayer::new(3, 2, None, &mut rng);
        // Overwrite with known weights.
        layer.kernel = Tensor::from_vec([3, 2], vec![1., 0., 0., 1., 1., 1.]);
        layer.bias = Tensor::from_vec([2], vec![10., 20.]);
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let y = layer.forward(&[&x], true, &mut ws);
        assert_eq!(y.data(), &[14., 25.]);
    }

    #[test]
    fn gradient_check_with_activation() {
        for act in [None, Some(Activation::Relu), Some(Activation::Tanh), Some(Activation::Sigmoid)]
        {
            let mut rng = Rng::seed(7);
            let mut ws = Workspace::new();
            let mut layer = DenseLayer::new(4, 3, act, &mut rng);
            let x = Tensor::rand_normal([2, 4], 0.3, 1.0, &mut rng);
            let y = layer.forward(&[&x], true, &mut ws);
            let dout = Tensor::ones(y.shape().clone());
            let dx = layer.backward(&[&x], &y, &dout, &[true], &mut ws).remove(0).unwrap();
            let eps = 1e-2f32;
            // Input gradient.
            for i in 0..x.numel() {
                let mut plus = x.clone();
                plus.data_mut()[i] += eps;
                let mut minus = x.clone();
                minus.data_mut()[i] -= eps;
                let num = (layer.forward(&[&plus], true, &mut ws).sum()
                    - layer.forward(&[&minus], true, &mut ws).sum())
                    / (2.0 * eps);
                assert!((num - dx.data()[i]).abs() < 2e-2, "{act:?} dx[{i}]");
            }
            // Kernel gradient (re-run forward to restore cache, then read grads).
            layer.zero_grads();
            let y = layer.forward(&[&x], true, &mut ws);
            let _ = layer.backward(&[&x], &y, &dout, &[true], &mut ws);
            let mut grads: Vec<(String, Tensor)> = Vec::new();
            layer.visit_updates(&mut |n, _p, g| grads.push((n.to_string(), g.clone())));
            let dk = &grads.iter().find(|(n, _)| n == "kernel").unwrap().1;
            for i in 0..layer.kernel.numel() {
                let orig = layer.kernel.data()[i];
                layer.kernel.data_mut()[i] = orig + eps;
                let plus = layer.forward(&[&x], true, &mut ws).sum();
                layer.kernel.data_mut()[i] = orig - eps;
                let minus = layer.forward(&[&x], true, &mut ws).sum();
                layer.kernel.data_mut()[i] = orig;
                let num = (plus - minus) / (2.0 * eps);
                // Tolerance allows for a ReLU pre-activation sitting within
                // eps of the kink, which biases the central difference.
                assert!((num - dk.data()[i]).abs() < 4e-2, "{act:?} dk[{i}]");
            }
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng::seed(3);
        let mut ws = Workspace::new();
        let mut layer = DenseLayer::new(2, 2, None, &mut rng);
        let x = Tensor::ones([1, 2]);
        let dout = Tensor::ones([1, 2]);
        let y = layer.forward(&[&x], true, &mut ws);
        let _ = layer.backward(&[&x], &y, &dout, &[true], &mut ws);
        let mut once = Tensor::zeros([2, 2]);
        layer.visit_updates(&mut |n, _p, g| {
            if n == "kernel" {
                once = g.clone();
            }
        });
        let y = layer.forward(&[&x], true, &mut ws);
        let _ = layer.backward(&[&x], &y, &dout, &[true], &mut ws);
        layer.visit_updates(&mut |n, _p, g| {
            if n == "kernel" {
                assert!(g.approx_eq(
                    &{
                        let mut t = once.clone();
                        t.scale(2.0);
                        t
                    },
                    1e-6
                ));
            }
        });
        layer.zero_grads();
        layer.visit_updates(&mut |_n, _p, g| assert_eq!(g.sum(), 0.0));
    }

    #[test]
    fn repeated_steps_reuse_workspace_buffers() {
        let mut rng = Rng::seed(9);
        let mut ws = Workspace::new();
        let mut layer = DenseLayer::new(8, 4, Some(Activation::Tanh), &mut rng);
        let x = Tensor::rand_normal([16, 8], 0.0, 1.0, &mut rng);
        let dout = Tensor::ones([16, 4]);
        // Warm-up batch populates the pool; afterwards the pool size is
        // stable batch over batch (output tensors are recycled by the caller,
        // here manually).
        let y = layer.forward(&[&x], true, &mut ws);
        let dx = layer.backward(&[&x], &y, &dout, &[true], &mut ws).remove(0).unwrap();
        ws.recycle(dx);
        ws.recycle(y);
        let pooled = ws.pooled();
        for _ in 0..3 {
            let y = layer.forward(&[&x], true, &mut ws);
            let dx = layer.backward(&[&x], &y, &dout, &[true], &mut ws).remove(0).unwrap();
            ws.recycle(dx);
            ws.recycle(y);
            assert_eq!(ws.pooled(), pooled, "steady state must not grow the pool");
        }
    }
}
