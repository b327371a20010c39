//! The convolution layer, stride 1, either rank — 2-D over `(batch, h, w, c)`
//! or 1-D over `(batch, w, c)`, the one-row case of the same kernels — with
//! optional L2 kernel regularisation (the CIFAR-like space's `l2 = 5e-4`
//! choice) and an activation folded in from the `Activation` node that reads
//! it.

use super::{add_bias_and_activate, glorot_limit, pre_activation_grad, set_gradient, Layer};
use crate::spec::Activation;
use swt_tensor::{
    conv2d_backward_kernel_ws, conv2d_backward_ws, conv2d_forward_ws, Padding, Rng, Tensor,
    Workspace,
};

/// Convolution layer: kernel `(taps…, c_in, filters)` + bias `(filters,)`,
/// where `taps` is `[k, k]` for a 2-D layer and `[k]` for a 1-D one.
pub struct ConvLayer {
    kernel: Tensor,
    bias: Tensor,
    d_kernel: Tensor,
    d_bias: Tensor,
    padding: Padding,
    l2: f32,
    activation: Option<Activation>,
}

impl ConvLayer {
    pub fn new(
        taps: &[usize],
        in_channels: usize,
        filters: usize,
        padding: Padding,
        l2: f32,
        rng: &mut Rng,
    ) -> Self {
        let area: usize = taps.iter().product();
        let limit = glorot_limit(area * in_channels, area * filters);
        let shape = [taps, &[in_channels, filters]].concat();
        ConvLayer {
            kernel: Tensor::rand_uniform(shape.clone(), -limit, limit, rng),
            bias: Tensor::zeros([filters]),
            d_kernel: Tensor::zeros(shape),
            d_bias: Tensor::zeros([filters]),
            padding,
            l2,
            activation: None,
        }
    }
}

impl Layer for ConvLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        let mut y = conv2d_forward_ws(inputs[0], &self.kernel, self.padding, ws);
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
        pre_activation_grad(dout, output, self.activation, &mut self.d_bias);
        let (x, kernel, dpre) = (inputs[0], &self.kernel, &*dout);
        let (dx, mut dk) = if wanted[0] {
            let (dx, dk) = conv2d_backward_ws(x, kernel, dpre, self.padding, ws);
            (Some(dx), dk)
        } else {
            (None, conv2d_backward_kernel_ws(x, kernel, dpre, self.padding, ws))
        };
        if self.l2 > 0.0 {
            // d/dw of (l2/2)·||w||² added to the kernel gradient; the
            // factor matches Keras' `l2(l2)` regulariser up to its 1/2
            // convention, which only rescales the effective weight decay.
            dk.axpy(self.l2, &self.kernel);
        }
        set_gradient(&mut self.d_kernel, &dk);
        ws.recycle(dk);
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
    fn conv2d_bias_broadcasts_per_filter() {
        let mut rng = Rng::seed(1);
        let mut ws = Workspace::new();
        let mut layer = ConvLayer::new(&[1, 1], 1, 2, Padding::Valid, 0.0, &mut rng);
        layer.kernel = Tensor::zeros([1, 1, 1, 2]);
        layer.bias = Tensor::from_vec([2], vec![5.0, -5.0]);
        let x = Tensor::zeros([1, 2, 2, 1]);
        let y = layer.forward(&[&x], true, &mut ws);
        for p in 0..4 {
            assert_eq!(y.data()[p * 2], 5.0);
            assert_eq!(y.data()[p * 2 + 1], -5.0);
        }
    }

    /// Central-difference check of `d_input` through `layer` at `x`, probing
    /// every `step`-th element.
    fn assert_input_gradient(mut layer: ConvLayer, x: &Tensor, step: usize) {
        let mut ws = Workspace::new();
        let y = layer.forward(&[x], true, &mut ws);
        let mut dout = Tensor::ones(y.shape().clone());
        let dx = layer.backward(&[x], &y, &mut dout, &[true], &mut ws).remove(0).unwrap();
        assert_eq!(dx.shape(), x.shape());
        let eps = 1e-2f32;
        for i in (0..x.numel()).step_by(step) {
            let mut plus = x.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x.clone();
            minus.data_mut()[i] -= eps;
            let num = (layer.forward(&[&plus], true, &mut ws).sum()
                - layer.forward(&[&minus], true, &mut ws).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 2e-2, "{} dx[{i}]", x.shape());
        }
    }

    #[test]
    fn conv2d_gradient_check() {
        let mut rng = Rng::seed(2);
        let layer = ConvLayer::new(&[3, 3], 2, 2, Padding::Same, 0.0, &mut rng);
        let x = Tensor::rand_normal([1, 4, 4, 2], 0.0, 1.0, &mut rng);
        assert_input_gradient(layer, &x, 5);
    }

    /// The layer built from `[k]` taps convolves rows.
    #[test]
    fn conv1d_gradient_check() {
        let mut rng = Rng::seed(5);
        let layer = ConvLayer::new(&[3], 2, 3, Padding::Valid, 0.0, &mut rng);
        let x = Tensor::rand_normal([2, 7, 2], 0.0, 1.0, &mut rng);
        assert_input_gradient(layer, &x, 4);
    }

    #[test]
    fn l2_adds_weight_decay_to_kernel_grad() {
        let mut rng = Rng::seed(3);
        let x = Tensor::rand_normal([1, 3, 3, 1], 0.0, 1.0, &mut rng);
        let mk = |l2: f32| {
            let mut r = Rng::seed(4);
            let mut ws = Workspace::new();
            let mut layer = ConvLayer::new(&[3, 3], 1, 1, Padding::Valid, l2, &mut r);
            let y = layer.forward(&[&x], true, &mut ws);
            let mut dout = Tensor::ones(y.shape().clone());
            let _ = layer.backward(&[&x], &y, &mut dout, &[true], &mut ws);
            let mut grad = None;
            let mut kern = None;
            layer.visit_updates(&mut |n, p, g| {
                if n == "kernel" {
                    grad = Some(g.clone());
                    kern = Some(p.clone());
                }
            });
            (kern.unwrap(), grad.unwrap())
        };
        let (k0, g0) = mk(0.0);
        let (k1, g1) = mk(0.1);
        assert!(k0.approx_eq(&k1, 0.0), "same seed, same init");
        let mut expected = g0.clone();
        expected.axpy(0.1, &k0);
        assert!(g1.approx_eq(&expected, 1e-5));
    }
}
