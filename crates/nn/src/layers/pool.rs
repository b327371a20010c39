//! Max-pooling layers.

use super::Layer;
use swt_tensor::{
    maxpool1d_backward_ws, maxpool1d_forward_ws, maxpool2d_backward_ws, maxpool2d_forward_ws,
    Tensor, Workspace,
};

/// 2-D max pooling over `(batch, h, w, c)`.
pub struct MaxPool2DLayer {
    size: usize,
    stride: usize,
    /// Flat input position of each output's maximum; the layer's own buffer,
    /// rewritten in place batch after batch.
    argmax: Vec<u32>,
}

impl MaxPool2DLayer {
    pub fn new(size: usize, stride: usize) -> Self {
        MaxPool2DLayer { size, stride, argmax: Vec::new() }
    }
}

impl Layer for MaxPool2DLayer {
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

/// 1-D max pooling over `(batch, w, c)`.
pub struct MaxPool1DLayer {
    size: usize,
    stride: usize,
    /// Flat input position of each output's maximum; the layer's own buffer,
    /// rewritten in place batch after batch.
    argmax: Vec<u32>,
}

impl MaxPool1DLayer {
    pub fn new(size: usize, stride: usize) -> Self {
        MaxPool1DLayer { size, stride, argmax: Vec::new() }
    }
}

impl Layer for MaxPool1DLayer {
    fn forward(&mut self, inputs: &[&Tensor], _training: bool, ws: &mut Workspace) -> Tensor {
        maxpool1d_forward_ws(inputs[0], self.size, self.stride, &mut self.argmax, ws)
    }

    fn backward(
        &mut self,
        inputs: &[&Tensor],
        _output: &Tensor,
        dout: &mut Tensor,
        wanted: &[bool],
        ws: &mut Workspace,
    ) -> Vec<Option<Tensor>> {
        let dx = || maxpool1d_backward_ws(inputs[0].shape().dims(), dout, &self.argmax, ws);
        vec![wanted[0].then(dx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_layer_round_trip() {
        let mut layer = MaxPool2DLayer::new(2, 2);
        let mut ws = Workspace::new();
        #[rustfmt::skip]
        let x = Tensor::from_vec([1, 2, 4, 1], vec![
            1., 2., 3., 4.,
            8., 7., 6., 5.,
        ]);
        let y = layer.forward(&[&x], true, &mut ws);
        assert_eq!(y.data(), &[8., 6.]);
        let mut dout = Tensor::from_vec([1, 1, 2, 1], vec![1.0, 2.0]);
        let dx = layer.backward(&[&x], &y, &mut dout, &[true], &mut ws).remove(0).unwrap();
        assert_eq!(dx.data(), &[0., 0., 0., 0., 1., 0., 2., 0.]);
    }

    #[test]
    fn pool1d_layer_has_no_params() {
        let mut layer = MaxPool1DLayer::new(2, 2);
        let mut ws = Workspace::new();
        let mut count = 0;
        layer.visit_params(&mut |_, _| count += 1);
        layer.visit_updates(&mut |_, _, _| count += 1);
        assert_eq!(count, 0);
        let x = Tensor::from_vec([1, 4, 1], vec![1., 3., 2., 4.]);
        assert_eq!(layer.forward(&[&x], false, &mut ws).data(), &[3., 4.]);
    }
}
