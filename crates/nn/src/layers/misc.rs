//! Parameter-free layers: activation, dropout, concat. (Identity and flatten
//! change no value, so the model passes the tensor through such nodes
//! itself — see [`crate::LayerSpec::passes_through`].)

use super::{activation_grad_scalar, apply_activation, ws_copy, Layer};
use crate::spec::Activation;
use swt_tensor::{Rng, Tensor, Workspace};

/// Standalone activation layer, for an `Activation` node whose input no layer
/// could take it over from (see [`Layer::fold_activation`]).
pub struct ActivationLayer {
    activation: Activation,
}

impl ActivationLayer {
    pub fn new(activation: Activation) -> Self {
        ActivationLayer { activation }
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        let x = inputs[0];
        let mut y = ws.take_tensor(x.shape().clone());
        apply_activation(y.data_mut().iter_mut().zip(x.data().iter().copied()), self.activation);
        y
    }

    fn backward(
        &mut self,
        _inputs: &[&Tensor],
        output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        if !wanted[0] {
            return vec![None];
        }
        let mut dx = ws.take_tensor(dout.shape().clone());
        for ((o, &g), &yv) in dx.data_mut().iter_mut().zip(dout.data()).zip(output.data()) {
            *o = g * activation_grad_scalar(yv, self.activation);
        }
        vec![Some(dx)]
    }
}

/// Inverted dropout: at training time each element is kept with probability
/// `1 - rate` and scaled by `1 / (1 - rate)`; inference is the identity.
pub struct DropoutLayer {
    rate: f32,
    rng: Rng,
    /// The latest training-mode forward's mask; `None` when that forward was
    /// the identity (inference, or `rate == 0`).
    mask: Option<Tensor>,
}

impl DropoutLayer {
    /// `rate` is the *drop* probability, in `[0, 1)`.
    pub fn new(rate: f32, rng: Rng) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        DropoutLayer { rate, rng, mask: None }
    }
}

impl Layer for DropoutLayer {
    fn forward(&mut self, inputs: &[&Tensor], training: bool, ws: &mut Workspace) -> Tensor {
        let x = inputs[0];
        if let Some(mask) = self.mask.take() {
            ws.recycle(mask);
        }
        if !training || self.rate == 0.0 {
            return ws_copy(x, ws);
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut mask = ws.take_tensor(x.shape().clone());
        let mut y = ws.take_tensor(x.shape().clone());
        self.rng.fill_mask(f64::from(keep), scale, mask.data_mut());
        for ((o, &m), &a) in y.data_mut().iter_mut().zip(mask.data()).zip(x.data()) {
            *o = a * m;
        }
        self.mask = Some(mask);
        y
    }

    fn backward(
        &mut self,
        _inputs: &[&Tensor],
        _output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        if !wanted[0] {
            return vec![None];
        }
        match &self.mask {
            Some(mask) => {
                let mut dx = ws.take_tensor(dout.shape().clone());
                for ((o, &g), &m) in dx.data_mut().iter_mut().zip(dout.data()).zip(mask.data()) {
                    *o = g * m;
                }
                vec![Some(dx)]
            }
            None => vec![Some(ws_copy(dout, ws))],
        }
    }
}

/// Concatenate rank-2 inputs along the feature dimension (Uno's four-source
/// fusion point).
#[derive(Default)]
pub struct ConcatLayer;

impl ConcatLayer {
    pub fn new() -> Self {
        ConcatLayer
    }
}

impl Layer for ConcatLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        assert!(inputs.len() >= 2, "concat needs >= 2 inputs");
        let b = inputs[0].shape().dim(0);
        for t in inputs {
            assert_eq!(t.shape().rank(), 2, "concat expects rank-2 inputs");
            assert_eq!(t.shape().dim(0), b, "concat batch mismatch");
        }
        let total: usize = inputs.iter().map(|t| t.shape().dim(1)).sum();
        let mut out = ws.take_tensor([b, total]);
        for (row, dst) in out.data_mut().chunks_mut(total).enumerate() {
            let mut off = 0;
            for t in inputs {
                let w = t.shape().dim(1);
                dst[off..off + w].copy_from_slice(&t.data()[row * w..(row + 1) * w]);
                off += w;
            }
        }
        out
    }

    fn backward(
        &mut self,
        inputs: &[&Tensor],
        _output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        let total = dout.shape().dim(1);
        let mut off = 0;
        inputs
            .iter()
            .zip(wanted)
            .map(|(t, &wanted)| {
                let w = t.shape().dim(1);
                let from = off;
                off += w;
                wanted.then(|| {
                    let mut g = ws.take_tensor(t.shape().clone());
                    for (dst, src) in g.data_mut().chunks_mut(w).zip(dout.data().chunks(total)) {
                        dst.copy_from_slice(&src[from..from + w]);
                    }
                    g
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_layer_backward() {
        let mut layer = ActivationLayer::new(Activation::Relu);
        let mut ws = Workspace::new();
        let x = Tensor::from_vec([1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = layer.forward(&[&x], true, &mut ws);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = layer
            .backward(&[&x], &y, &mut Tensor::ones([1, 4]), &[true], &mut ws)
            .remove(0)
            .unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut layer = DropoutLayer::new(0.5, Rng::seed(1));
        let mut ws = Workspace::new();
        let x = Tensor::ones([4, 4]);
        assert!(layer.forward(&[&x], false, &mut ws).approx_eq(&x, 0.0));
    }

    #[test]
    fn dropout_training_preserves_expectation() {
        let mut layer = DropoutLayer::new(0.3, Rng::seed(2));
        let mut ws = Workspace::new();
        let x = Tensor::ones([100, 100]);
        let y = layer.forward(&[&x], true, &mut ws);
        // E[y] = 1; mean over 10k elements should be close.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Backward routes gradient only through kept elements.
        let dx = layer
            .backward(&[&x], &y, &mut Tensor::ones([100, 100]), &[true], &mut ws)
            .remove(0)
            .unwrap();
        assert!(dx.approx_eq(&y, 1e-6));
    }

    /// The mask, the output and the stream are those of one `chance(keep)`
    /// per element in element order, at every rate the search spaces emit
    /// and over several batches of one layer.
    #[test]
    fn dropout_draws_one_chance_per_element() {
        let mut ws = Workspace::new();
        let x = Tensor::rand_normal([32, 160], 0.0, 1.0, &mut Rng::seed(5));
        for rate in [0.02f32, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50] {
            let mut layer = DropoutLayer::new(rate, Rng::seed(9));
            let mut reference = Rng::seed(9);
            let keep = 1.0 - rate;
            for batch in 0..3 {
                let y = layer.forward(&[&x], true, &mut ws);
                let mask = layer.mask.as_ref().expect("training forward keeps its mask");
                for (i, &a) in x.data().iter().enumerate() {
                    let m = if reference.chance(keep as f64) { 1.0 / keep } else { 0.0 };
                    assert_eq!(mask.data()[i].to_bits(), m.to_bits(), "{rate} mask[{i}]");
                    assert_eq!(y.data()[i].to_bits(), (a * m).to_bits(), "{rate} y[{i}]");
                }
                ws.recycle(y);
                assert_eq!(layer.rng.clone().next_u64(), reference.clone().next_u64(), "{batch}");
            }
        }
    }

    #[test]
    fn dropout_rejects_rate_one() {
        let result = std::panic::catch_unwind(|| DropoutLayer::new(1.0, Rng::seed(3)));
        assert!(result.is_err());
    }

    #[test]
    fn concat_forward_backward_partition() {
        let mut layer = ConcatLayer::new();
        let mut ws = Workspace::new();
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 1], vec![9., 8.]);
        let y = layer.forward(&[&a, &b], true, &mut ws);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.data(), &[1., 2., 9., 3., 4., 8.]);
        let grads = layer.backward(&[&a, &b], &y, &mut y.clone(), &[true, true], &mut ws);
        assert!(grads[0].as_ref().unwrap().approx_eq(&a, 0.0));
        assert!(grads[1].as_ref().unwrap().approx_eq(&b, 0.0));
        // An unwanted slice is not cut; the others still come from their
        // own columns.
        let grads = layer.backward(&[&a, &b], &y, &mut y.clone(), &[false, true], &mut ws);
        assert!(grads[0].is_none());
        assert!(grads[1].as_ref().unwrap().approx_eq(&b, 0.0));
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn concat_batch_mismatch_panics() {
        let mut layer = ConcatLayer::new();
        let mut ws = Workspace::new();
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([3, 2]);
        layer.forward(&[&a, &b], true, &mut ws);
    }
}
