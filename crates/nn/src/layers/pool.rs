//! The max-pooling layer, either rank.

use super::Layer;
use swt_tensor::{maxpool2d_backward_ws, maxpool2d_forward_ws, Tensor, Workspace};

/// Max pooling over `(batch, h, w, c)` with a square window, or over
/// `(batch, w, c)` with a one-row one.
pub struct MaxPoolLayer {
    size: usize,
    stride: usize,
    /// Flat input position of each output's maximum; the layer's own buffer,
    /// rewritten in place batch after batch.
    argmax: Vec<u32>,
}

impl MaxPoolLayer {
    pub fn new(size: usize, stride: usize) -> Self {
        MaxPoolLayer { size, stride, argmax: Vec::new() }
    }
}

impl Layer for MaxPoolLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        maxpool2d_forward_ws(inputs[0], self.size, self.stride, &mut self.argmax, ws)
    }

    fn backward(
        &mut self,
        inputs: &[&Tensor],
        _output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        let dx = || maxpool2d_backward_ws(inputs[0].shape().dims(), dout, &self.argmax, ws);
        vec![wanted[0].then(dx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image and a row: forward picks each window's maximum, backward
    /// routes `dout` to it.
    #[test]
    fn pool_layer_round_trip() {
        #[rustfmt::skip]
        let image = Tensor::from_vec([1, 2, 4, 1], vec![
            1., 2., 3., 4.,
            8., 7., 6., 5.,
        ]);
        let row = Tensor::from_vec([1, 4, 1], vec![1., 3., 2., 4.]);
        let cases = [
            (image, vec![8., 6.], vec![0., 0., 0., 0., 1., 0., 2., 0.]),
            (row, vec![3., 4.], vec![0., 1., 0., 2.]),
        ];
        for (x, want_y, want_dx) in cases {
            let mut layer = MaxPoolLayer::new(2, 2);
            let mut ws = Workspace::new();
            let y = layer.forward(&[&x], true, &mut ws);
            assert_eq!(y.data(), &want_y[..], "{}", x.shape());
            assert_eq!(y.shape().rank(), x.shape().rank());
            let mut dout = Tensor::from_vec(y.shape().clone(), vec![1.0, 2.0]);
            let dx = layer.backward(&[&x], &y, &mut dout, &[true], &mut ws).remove(0).unwrap();
            assert_eq!(dx.data(), &want_dx[..], "{}", x.shape());
        }
    }

    #[test]
    fn pool1d_layer_has_no_params() {
        let mut layer = MaxPoolLayer::new(2, 2);
        let mut ws = Workspace::new();
        let mut count = 0;
        layer.visit_params(&mut |_, _| count += 1);
        layer.visit_updates(&mut |_, _, _| count += 1);
        assert_eq!(count, 0);
        let x = Tensor::from_vec([1, 4, 1], vec![1., 3., 2., 4.]);
        assert_eq!(layer.forward(&[&x], false, &mut ws).data(), &[3., 4.]);
    }
}
