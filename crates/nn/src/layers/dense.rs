//! Fully-connected layer with optional fused activation.

use super::{add_bias_and_activate, glorot_limit, pre_activation_grad, Layer};
use crate::spec::Activation;
use swt_tensor::{matmul_at_into, matmul_bt_ws, matmul_ws, Rng, Tensor, Workspace};

/// `y = act(x · W + b)` for rank-2 input `(batch, in_features)`.
pub struct DenseLayer {
    kernel: Tensor,
    bias: Tensor,
    d_kernel: Tensor,
    d_bias: Tensor,
    /// `zero_grads` was called and neither `backward` nor a reader has come
    /// since: the gradients read as zero, the buffers are not yet filled.
    /// (`backward` overwrites them, so a training step never pays the fill —
    /// `d_kernel` is most of a model's parameters.)
    grads_zeroed: bool,
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
            grads_zeroed: false,
            activation,
        }
    }
}

impl Layer for DenseLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        let x = inputs[0];
        assert_eq!(x.shape().rank(), 2, "dense input must be (batch, features)");
        let mut y = matmul_ws(x, &self.kernel, ws);
        add_bias_and_activate(&mut y, &self.bias, self.activation);
        y
    }

    fn backward(
        &mut self,
        inputs: &[&Tensor],
        output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        let x = inputs[0];
        self.grads_zeroed = false;
        // The pre-activation gradient, in place, and the bias gradient.
        pre_activation_grad(dout, output, self.activation, &mut self.d_bias);
        matmul_at_into(x, dout, &mut self.d_kernel, ws);
        let dx = wanted[0].then(|| matmul_bt_ws(dout, &self.kernel, ws));
        vec![dx]
    }

    fn fold_activation(&mut self, activation: Activation) -> bool {
        if self.activation.is_some() {
            return false;
        }
        self.activation = Some(activation);
        true
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
        if std::mem::take(&mut self.grads_zeroed) {
            self.d_kernel.data_mut().fill(0.0);
            self.d_bias.data_mut().fill(0.0);
        }
        f("kernel", &mut self.kernel, &self.d_kernel);
        f("bias", &mut self.bias, &self.d_bias);
    }

    fn zero_grads(&mut self) {
        self.grads_zeroed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::super::activation_grad_scalar;
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
            let dx =
                layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws).remove(0).unwrap();
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
            let _ = layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws);
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

    fn grads(layer: &mut DenseLayer) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        layer.visit_updates(&mut |_, _, g| {
            bits.push(g.data().iter().map(|v| v.to_bits()).collect())
        });
        bits
    }

    /// `backward` sets the gradients — a second pass leaves its own, not the
    /// sum — and `zero_grads` makes them read zero until the next one.
    #[test]
    fn backward_overwrites_and_zero_grads_reads_zero() {
        let mut rng = Rng::seed(3);
        let mut ws = Workspace::new();
        let mut layer = DenseLayer::new(2, 2, None, &mut rng);
        let x = Tensor::ones([1, 2]);
        let dout = Tensor::ones([1, 2]);
        let y = layer.forward(&[&x], true, &mut ws);
        let _ = layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws);
        let once = grads(&mut layer);
        assert!(once.iter().flatten().any(|&bits| bits != 0));
        let _ = layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws);
        assert_eq!(grads(&mut layer), once);
        layer.zero_grads();
        assert!(grads(&mut layer).iter().flatten().all(|&bits| bits == 0));
        // The deferred fill does not outlive a `backward`.
        layer.zero_grads();
        let _ = layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws);
        assert_eq!(grads(&mut layer), once);
    }

    /// The weight gradient `backward` writes, read by one `Adam` step and one
    /// `Sgd` step, moves the parameters to the bit as the zero-then-add
    /// gradient it replaced did — zero the gradients, then add the product
    /// and the column sums — on the operands where a bare product differs
    /// from that: exact-zero products, `-0.0` operands, and chains whose every
    /// product underflows from below (a fused chain then ends in `-0.0`, and
    /// `0.0 + -0.0` is `+0.0`). The weight under that chain starts at `-0.0`,
    /// where an `Sgd` step tells the two zeros apart. One shape under the
    /// small-product cutoff, one on the tile.
    #[test]
    fn backward_equals_zero_then_accumulate_bitwise() {
        use crate::model::Model;
        use crate::optimizer::{Adam, AdamConfig, Sgd};
        use crate::spec::{LayerSpec, ModelSpec};
        let mut rng = Rng::seed(13);
        for (batch, fan_in, units) in [(4, 3, 2), (32, 160, 64)] {
            let dense = LayerSpec::Dense { units, activation: Some(Activation::Tanh) };
            let spec = ModelSpec::chain(vec![fan_in], vec![dense]).unwrap();
            let mut x = Tensor::rand_normal([batch, fan_in], 0.0, 1.0, &mut rng);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                match i % fan_in % 3 {
                    0 => *v = 1e-30, // column 0: every product underflows
                    1 if i % 2 == 0 => *v = -0.0,
                    1 => *v = 0.0,
                    _ => {}
                }
            }
            let mut dout = Tensor::rand_normal([batch, units], 0.0, 1.0, &mut rng);
            dout.data_mut().iter_mut().step_by(units).for_each(|v| *v = -1e-30);
            let (cfg, lr) = (AdamConfig::default(), 0.1);
            for sgd in [false, true] {
                let mut model = Model::build(&spec, 5).unwrap();
                let [(name, mut kernel), (_, bias)]: [_; 2] =
                    model.named_params().try_into().unwrap();
                kernel.data_mut()[0] = -0.0;
                assert!(model.set_param(&name, &kernel));
                let y = model.forward(&[&x], true);
                model.zero_grads();
                model.backward(&dout);

                let mut dpre = dout.clone();
                for (dp, &yv) in dpre.data_mut().iter_mut().zip(y.data()) {
                    *dp *= activation_grad_scalar(yv, Activation::Tanh);
                }
                let product = swt_tensor::matmul_at(&x, &dpre);
                let fused = swt_tensor::gemm_kernel_name().contains("fma");
                if fused && batch * fan_in * units > 32 * 1024 {
                    assert_eq!(
                        product.data()[0].to_bits(),
                        (-0.0f32).to_bits(),
                        "the chain under the -0.0 weight did not end in -0.0: \
                         a step without `0.0 +` would pass this test"
                    );
                }
                let mut d_kernel = Tensor::zeros([fan_in, units]);
                d_kernel.axpy(1.0, &product);
                let mut d_bias = Tensor::zeros([units]);
                for row in dpre.data().chunks(units) {
                    d_bias.data_mut().iter_mut().zip(row).for_each(|(o, &v)| *o += v);
                }
                let mut want = [kernel, bias];
                for (p, g) in want.iter_mut().zip([&d_kernel, &d_bias]) {
                    if sgd {
                        p.axpy(-lr, g);
                    } else {
                        let (mut m, mut v) = (vec![0.0; g.numel()], vec![0.0; g.numel()]);
                        let bcs = [1.0 - cfg.beta1, 1.0 - cfg.beta2];
                        let s =
                            swt_tensor::AdamStep::new(cfg.lr, [cfg.beta1, cfg.beta2], cfg.eps, bcs);
                        swt_tensor::adam_update(&s, p.data_mut(), g.data(), &mut m, &mut v);
                    }
                }
                if sgd {
                    Sgd::new(lr).step(&mut model);
                } else {
                    Adam::new(cfg).step(&mut model);
                }
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let got = model.named_params();
                for ((name, got), want) in got.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "{fan_in}x{units} sgd {sgd}: {name}");
                }
            }
        }
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
        let dx = layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws).remove(0).unwrap();
        ws.recycle(dx);
        ws.recycle(y);
        let pooled = ws.pooled();
        for _ in 0..3 {
            let y = layer.forward(&[&x], true, &mut ws);
            let dx =
                layer.backward(&[&x], &y, &mut dout.clone(), &[true], &mut ws).remove(0).unwrap();
            ws.recycle(dx);
            ws.recycle(y);
            assert_eq!(ws.pooled(), pooled, "steady state must not grow the pool");
        }
    }
}
