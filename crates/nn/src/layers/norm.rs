//! Batch normalisation over the channel (last) dimension.
//!
//! The CIFAR-like space's "BatchNorm" variable nodes choose whether to apply
//! this operator (Section VII-A). Normalisation is per channel across batch
//! and spatial positions (as in Keras' default for NHWC); running statistics
//! are tracked with momentum and used at inference time, and are persisted as
//! non-trainable checkpoint state.

use super::Layer;
use swt_tensor::{Tensor, Workspace};

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.9;

/// Batch-norm layer with learnable per-channel `gamma`/`beta`.
pub struct BatchNormLayer {
    gamma: Tensor,
    beta: Tensor,
    d_gamma: Tensor,
    d_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    // Backward caches. The per-channel vectors are members so steady-state
    // batches reuse their storage.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
    cached_rows: usize,
    scratch_mean: Vec<f32>,
    scratch_var: Vec<f32>,
}

impl BatchNormLayer {
    pub fn new(channels: usize) -> Self {
        BatchNormLayer {
            gamma: Tensor::ones([channels]),
            beta: Tensor::zeros([channels]),
            d_gamma: Tensor::zeros([channels]),
            d_beta: Tensor::zeros([channels]),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            cached_xhat: None,
            cached_inv_std: Vec::new(),
            cached_rows: 0,
            scratch_mean: Vec::new(),
            scratch_var: Vec::new(),
        }
    }

    fn channels(&self) -> usize {
        self.gamma.numel()
    }
}

impl Layer for BatchNormLayer {
    fn forward(&mut self, inputs: &[&Tensor], training: bool, ws: &mut Workspace) -> Tensor {
        let x = inputs[0];
        let c = self.channels();
        assert_eq!(x.shape().dim(x.shape().rank() - 1), c, "batchnorm channel mismatch");
        let rows = x.numel() / c;
        if let Some(xhat) = self.cached_xhat.take() {
            ws.recycle(xhat);
        }
        let mean = &mut self.scratch_mean;
        let var = &mut self.scratch_var;
        if training {
            mean.clear();
            mean.resize(c, 0.0);
            for chunk in x.data().chunks(c) {
                for (m, &v) in mean.iter_mut().zip(chunk) {
                    *m += v;
                }
            }
            for m in mean.iter_mut() {
                *m /= rows as f32;
            }
            var.clear();
            var.resize(c, 0.0);
            for chunk in x.data().chunks(c) {
                for ((vv, &v), &m) in var.iter_mut().zip(chunk).zip(mean.iter()) {
                    let d = v - m;
                    *vv += d * d;
                }
            }
            for v in var.iter_mut() {
                *v /= rows as f32;
            }
            // Update running statistics.
            for (r, &m) in self.running_mean.data_mut().iter_mut().zip(mean.iter()) {
                *r = MOMENTUM * *r + (1.0 - MOMENTUM) * m;
            }
            for (r, &v) in self.running_var.data_mut().iter_mut().zip(var.iter()) {
                *r = MOMENTUM * *r + (1.0 - MOMENTUM) * v;
            }
        } else {
            mean.clear();
            mean.extend_from_slice(self.running_mean.data());
            var.clear();
            var.extend_from_slice(self.running_var.data());
        }

        self.cached_inv_std.clear();
        self.cached_inv_std.extend(var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
        let (mean, inv_std) = (&mean[..c], &self.cached_inv_std[..c]);
        let (gamma, beta) = (&self.gamma.data()[..c], &self.beta.data()[..c]);

        // `x̂` is what backward needs and nobody else holds, so a training
        // forward keeps it; inference writes `y` alone.
        let mut y = ws.take_tensor(x.shape().clone());
        if training {
            let mut xhat = ws.take_tensor(x.shape().clone());
            for ((ydst, xdst), src) in y
                .data_mut()
                .chunks_exact_mut(c)
                .zip(xhat.data_mut().chunks_exact_mut(c))
                .zip(x.data().chunks_exact(c))
            {
                for i in 0..c {
                    xdst[i] = (src[i] - mean[i]) * inv_std[i];
                    ydst[i] = xdst[i] * gamma[i] + beta[i];
                }
            }
            self.cached_xhat = Some(xhat);
            self.cached_rows = rows;
        } else {
            for (ydst, src) in y.data_mut().chunks_exact_mut(c).zip(x.data().chunks_exact(c)) {
                for i in 0..c {
                    let xhat = (src[i] - mean[i]) * inv_std[i];
                    ydst[i] = xhat * gamma[i] + beta[i];
                }
            }
        }
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
        let xhat = self.cached_xhat.as_ref().expect("backward before training forward");
        let c = self.channels();
        let n = self.cached_rows as f32;

        // Per-channel reductions, dbeta = Σ dout and dgamma = Σ dout·xhat:
        // this pass's parameter gradients, and what the dx formula needs.
        let (dbeta, dgamma) = (self.d_beta.data_mut(), self.d_gamma.data_mut());
        dbeta.fill(0.0);
        dgamma.fill(0.0);
        for (dchunk, xchunk) in dout.data().chunks(c).zip(xhat.data().chunks(c)) {
            for i in 0..c {
                dbeta[i] += dchunk[i];
                dgamma[i] += dchunk[i] * xchunk[i];
            }
        }

        // dx = (gamma · inv_std / n) · (n·dout − Σdout − xhat·Σ(dout·xhat))
        let dx = wanted[0].then(|| {
            let mut dx = ws.take_tensor(dout.shape().clone());
            for ((dst, dchunk), xchunk) in
                dx.data_mut().chunks_mut(c).zip(dout.data().chunks(c)).zip(xhat.data().chunks(c))
            {
                for i in 0..c {
                    let g = self.gamma.data()[i];
                    let is = self.cached_inv_std[i];
                    dst[i] = g * is / n * (n * dchunk[i] - dbeta[i] - xchunk[i] * dgamma[i]);
                }
            }
            dx
        });

        vec![dx]
    }

    fn visit_params(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("gamma", &self.gamma);
        f("beta", &self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        f("gamma", &mut self.gamma);
        f("beta", &mut self.beta);
    }

    fn visit_updates(&mut self, f: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        f("gamma", &mut self.gamma, &self.d_gamma);
        f("beta", &mut self.beta, &self.d_beta);
    }

    fn zero_grads(&mut self) {
        self.d_gamma.data_mut().fill(0.0);
        self.d_beta.data_mut().fill(0.0);
    }

    fn visit_state(&self, f: &mut dyn FnMut(&str, &Tensor)) {
        f("running_mean", &self.running_mean);
        f("running_var", &self.running_var);
    }

    fn load_state(&mut self, name: &str, value: &Tensor) -> bool {
        match name {
            "running_mean" if value.shape() == self.running_mean.shape() => {
                self.running_mean = value.clone(); // alloc-gate: allow (checkpoint restore)
                true
            }
            "running_var" if value.shape() == self.running_var.shape() => {
                self.running_var = value.clone(); // alloc-gate: allow (checkpoint restore)
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_tensor::Rng;

    #[test]
    fn training_output_is_normalised() {
        let mut rng = Rng::seed(1);
        let mut ws = Workspace::new();
        let mut bn = BatchNormLayer::new(3);
        let x = Tensor::rand_normal([64, 3], 5.0, 2.0, &mut rng);
        let y = bn.forward(&[&x], true, &mut ws);
        // Per-channel mean ~0, var ~1.
        for ch in 0..3 {
            let vals: Vec<f32> = y.data().iter().skip(ch).step_by(3).copied().collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut rng = Rng::seed(2);
        let mut ws = Workspace::new();
        let mut bn = BatchNormLayer::new(2);
        // Warm the running stats with many training batches.
        for _ in 0..200 {
            let x = Tensor::rand_normal([32, 2], 3.0, 1.5, &mut rng);
            let y = bn.forward(&[&x], true, &mut ws);
            ws.recycle(y);
        }
        // At inference, an input equal to the running mean maps to ~beta.
        let x = bn.running_mean.clone().reshape([1, 2]);
        let y = bn.forward(&[&x], false, &mut ws);
        assert!(y.max_abs() < 0.05, "expected ~0 output, got {:?}", y.data());
    }

    #[test]
    fn gradient_check_gamma_beta_and_input() {
        let mut rng = Rng::seed(3);
        let mut ws = Workspace::new();
        let x = Tensor::rand_normal([8, 2], 1.0, 2.0, &mut rng);
        // Use a weighted loss so gradients are non-trivial (sum of BN output
        // is ~constant by construction).
        let w = Tensor::rand_normal([8, 2], 0.0, 1.0, &mut rng);
        let loss_of = |bn: &mut BatchNormLayer, x: &Tensor| -> f32 {
            let mut ws = Workspace::new();
            bn.forward(&[x], true, &mut ws).zip_map(&w, |a, b| a * b).sum()
        };
        let mut bn = BatchNormLayer::new(2);
        let y = bn.forward(&[&x], true, &mut ws);
        let mut dout = w.clone();
        let dx = bn.backward(&[&x], &y, &mut dout, &[true], &mut ws).remove(0).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.numel() {
            let mut plus = x.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x.clone();
            minus.data_mut()[i] -= eps;
            let mut bn2 = BatchNormLayer::new(2);
            let p = loss_of(&mut bn2, &plus);
            let mut bn3 = BatchNormLayer::new(2);
            let m = loss_of(&mut bn3, &minus);
            let num = (p - m) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 3e-2, "dx[{i}] num {num} vs {}", dx.data()[i]);
        }
        // gamma/beta gradients.
        let mut grads = Vec::new();
        bn.visit_updates(&mut |n, _p, g| grads.push((n.to_string(), g.clone())));
        for (name, grad) in grads {
            for i in 0..2 {
                let mut bnp = BatchNormLayer::new(2);
                let mut bnm = BatchNormLayer::new(2);
                let bump = |bn: &mut BatchNormLayer, delta: f32| {
                    bn.visit_params_mut(&mut |n, p| {
                        if n == name {
                            p.data_mut()[i] += delta;
                        }
                    });
                };
                bump(&mut bnp, eps);
                bump(&mut bnm, -eps);
                let num = (loss_of(&mut bnp, &x) - loss_of(&mut bnm, &x)) / (2.0 * eps);
                assert!(
                    (num - grad.data()[i]).abs() < 3e-2,
                    "d{name}[{i}] num {num} vs {}",
                    grad.data()[i]
                );
            }
        }
    }

    #[test]
    fn state_round_trip() {
        let mut bn = BatchNormLayer::new(2);
        let mean = Tensor::from_vec([2], vec![1.0, 2.0]);
        assert!(bn.load_state("running_mean", &mean));
        assert!(!bn.load_state("bogus", &mean));
        assert!(!bn.load_state("running_mean", &Tensor::zeros([3])), "shape mismatch refused");
        let mut captured = Vec::new();
        bn.visit_state(&mut |n, t| captured.push((n.to_string(), t.clone())));
        assert_eq!(captured[0].0, "running_mean");
        assert!(captured[0].1.approx_eq(&mean, 0.0));
    }
}
