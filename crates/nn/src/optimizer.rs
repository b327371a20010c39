//! Optimizers: Adam (the paper's configuration) and plain SGD.

use crate::model::Model;
use swt_tensor::Tensor;

/// Adam hyperparameters. [`AdamConfig::default`] matches the paper exactly:
/// lr 1e-3, β₁ 0.9, β₂ 0.999, ε 1e-7 (Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-7 }
    }
}

/// Adam optimizer with per-parameter first/second-moment state.
///
/// Moments are keyed by the parameter's position in the model's
/// deterministic [`Model::visit_updates_fast`] enumeration, so the per-step
/// hot path never formats or hashes parameter names. One `Adam` instance
/// must therefore only ever be stepped against one model.
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    moments: Vec<(Tensor, Tensor)>,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Self {
        Adam { cfg, t: 0, moments: Vec::new() }
    }

    /// Apply one update step from the gradients the latest backward left in the
    /// model's layers.
    pub fn step(&mut self, model: &mut Model) {
        self.t += 1;
        let t = self.t as i32;
        let cfg = self.cfg;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        let moments = &mut self.moments;
        let mut idx = 0usize;
        model.visit_updates_fast(&mut |param, grad| {
            if idx == moments.len() {
                moments.push((
                    Tensor::zeros(param.shape().dims().to_vec()),
                    Tensor::zeros(param.shape().dims().to_vec()),
                ));
            }
            let (m, v) = &mut moments[idx];
            idx += 1;
            debug_assert_eq!(m.numel(), param.numel(), "Adam stepped against a different model");
            let (md, vd, pd, gd) = (m.data_mut(), v.data_mut(), param.data_mut(), grad.data());
            for i in 0..pd.len() {
                md[i] = cfg.beta1 * md[i] + (1.0 - cfg.beta1) * gd[i];
                vd[i] = cfg.beta2 * vd[i] + (1.0 - cfg.beta2) * gd[i] * gd[i];
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
        });
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// Plain SGD, used as a reference in tests and ablations.
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// `param -= lr * grad` for every parameter.
    pub fn step(&mut self, model: &mut Model) {
        let lr = self.lr;
        model.visit_updates_fast(&mut |param, grad| {
            param.axpy(-lr, grad);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, ModelSpec};
    use swt_tensor::Rng;

    fn linear_model() -> Model {
        let spec = ModelSpec::chain(vec![2], vec![LayerSpec::Dense { units: 1, activation: None }])
            .unwrap();
        Model::build(&spec, 1).unwrap()
    }

    /// One hand-computed Adam step on a single known gradient.
    #[test]
    fn adam_first_step_matches_closed_form() {
        let mut model = linear_model();
        // Force a known gradient by a forward/backward on fixed data.
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]);
        model.zero_grads();
        let _ = model.forward(&[&x], true);
        model.backward(&Tensor::from_vec([1, 1], vec![1.0]));
        // Capture params and grads before the step.
        let mut before = Vec::new();
        model.visit_updates(&mut |n, p, g| before.push((n.to_string(), p.clone(), g.clone())));

        let cfg = AdamConfig::default();
        let mut adam = Adam::new(cfg);
        adam.step(&mut model);
        assert_eq!(adam.steps(), 1);

        let mut after = Vec::new();
        model.visit_updates(&mut |n, p, _g| after.push((n.to_string(), p.clone())));
        for ((_, p0, g), (_, p1)) in before.iter().zip(after.iter()) {
            for i in 0..p0.numel() {
                // After one step: mhat = g, vhat = g², so delta = lr·g/(|g|+ε).
                let g = g.data()[i];
                let expected = p0.data()[i] - cfg.lr * g / (g.abs() + cfg.eps);
                assert!(
                    (p1.data()[i] - expected).abs() < 1e-6,
                    "param[{i}]: got {}, expected {expected}",
                    p1.data()[i]
                );
            }
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Fit y = x·w with w* = [2, -3] via MAE-free squared loss gradient.
        let mut model = linear_model();
        let mut adam = Adam::new(AdamConfig { lr: 0.05, ..Default::default() });
        let mut rng = Rng::seed(5);
        for _ in 0..500 {
            let x = Tensor::rand_normal([16, 2], 0.0, 1.0, &mut rng);
            let target: Vec<f32> =
                (0..16).map(|r| 2.0 * x.at(&[r, 0]) - 3.0 * x.at(&[r, 1]) + 0.5).collect();
            let y = model.forward(&[&x], true);
            let grad = Tensor::from_vec(
                [16, 1],
                y.data().iter().zip(&target).map(|(&p, &t)| 2.0 * (p - t) / 16.0).collect(),
            );
            model.zero_grads();
            model.backward(&grad);
            adam.step(&mut model);
        }
        let params = model.named_params();
        let kernel = &params[0].1;
        let bias = &params[1].1;
        assert!((kernel.data()[0] - 2.0).abs() < 0.1, "w0 {}", kernel.data()[0]);
        assert!((kernel.data()[1] + 3.0).abs() < 0.1, "w1 {}", kernel.data()[1]);
        assert!((bias.data()[0] - 0.5).abs() < 0.1, "b {}", bias.data()[0]);
    }

    #[test]
    fn sgd_step_is_axpy() {
        let mut model = linear_model();
        let x = Tensor::from_vec([1, 2], vec![1.0, -1.0]);
        model.zero_grads();
        let _ = model.forward(&[&x], true);
        model.backward(&Tensor::from_vec([1, 1], vec![2.0]));
        let mut before = Vec::new();
        model.visit_updates(&mut |_n, p, g| before.push((p.clone(), g.clone())));
        Sgd::new(0.1).step(&mut model);
        let mut idx = 0;
        model.visit_updates(&mut |_n, p, _g| {
            let (p0, g) = &before[idx];
            for i in 0..p.numel() {
                assert!((p.data()[i] - (p0.data()[i] - 0.1 * g.data()[i])).abs() < 1e-7);
            }
            idx += 1;
        });
    }
}
