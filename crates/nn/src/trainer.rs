//! Training loop with the paper's early-stopping rule.
//!
//! Section VIII-B: "We apply early stopping, which means if the objective
//! metrics do not change by more than a given threshold for a fixed number of
//! epochs (two in our case), the training stops." Per-application thresholds
//! are NT3 0.005, MNIST 0.001, CIFAR-10 0.01, Uno 0.02.

use crate::dataset::Dataset;
use crate::loss::{Loss, Metric};
use crate::model::Model;
use crate::optimizer::{Adam, AdamConfig};
use swt_tensor::{Rng, Tensor};

/// The paper's early-stopping rule: stop once the validation objective has
/// changed by at most `threshold` for `patience` consecutive epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    pub threshold: f64,
    pub patience: usize,
}

impl EarlyStop {
    /// The paper's patience of two epochs with an app-specific threshold.
    pub fn paper(threshold: f64) -> Self {
        EarlyStop { threshold, patience: 2 }
    }

    /// The number of epochs after which the rule stops training whose
    /// per-epoch validation metrics are `curve`, or `None` if it never
    /// fires within `curve`. An epoch is flat when its metric is within
    /// `threshold` of the previous epoch's (a NaN is never flat); the rule
    /// fires on the `patience`-th consecutive flat epoch.
    pub fn stop_epoch(&self, curve: &[f64]) -> Option<usize> {
        let mut flat = 0usize;
        for (i, pair) in curve.windows(2).enumerate() {
            flat = if (pair[1] - pair[0]).abs() <= self.threshold { flat + 1 } else { 0 };
            if flat >= self.patience {
                return Some(i + 2);
            }
        }
        None
    }
}

/// Loss-delta convergence rule: training stops at a clean epoch boundary once
/// the last `window` train losses span at most `min_delta`. Unlike
/// [`EarlyStop`] (which watches the *validation* metric with a patience
/// counter), this watches the *training* loss over a sliding window. No
/// search sets it — the multi-fidelity pipeline that did was deleted in
/// PR 25 — but `TrainConfig::convergence` is part of the benchmark's pinned
/// surface, so it stays until a benchmark issue drops it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Number of trailing epoch losses that must agree.
    pub window: usize,
    /// Maximum spread (max − min) across the window that counts as flat.
    pub min_delta: f64,
}

/// Sliding-window observer for [`Convergence`]: feed one train loss per
/// epoch; `observe` reports `true` once the window is full and flat.
#[derive(Debug, Clone)]
pub struct ConvergenceTracker {
    rule: Convergence,
    window: Vec<f64>,
}

impl ConvergenceTracker {
    pub fn new(rule: Convergence) -> Self {
        ConvergenceTracker { rule, window: Vec::with_capacity(rule.window.max(1)) }
    }

    /// Record the epoch's train loss; `true` means the loss has converged
    /// (the last `window` observations span at most `min_delta`).
    pub fn observe(&mut self, loss: f64) -> bool {
        let cap = self.rule.window.max(1);
        if self.window.len() == cap {
            self.window.remove(0);
        }
        self.window.push(loss);
        if self.window.len() < cap || self.window.iter().any(|l| !l.is_finite()) {
            return false;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &l in &self.window {
            lo = lo.min(l);
            hi = hi.max(l);
        }
        (hi - lo) <= self.rule.min_delta
    }
}

/// Why training ended, for propagation into `EvalOutcome` stop reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainStop {
    /// Ran the full epoch budget.
    Budget,
    /// The paper's validation-metric plateau rule ([`EarlyStop`]) fired.
    Plateau,
    /// The loss-delta [`Convergence`] rule fired.
    Converged,
}

/// Training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub adam: AdamConfig,
    /// Seed for epoch shuffling (weight init is seeded at model build).
    pub shuffle_seed: u64,
    pub early_stop: Option<EarlyStop>,
    /// Loss-delta convergence cut, checked at epoch boundaries only.
    pub convergence: Option<Convergence>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1,
            batch_size: 64,
            adam: AdamConfig::default(),
            shuffle_seed: 0,
            early_stop: None,
            convergence: None,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    pub epoch: usize,
    pub train_loss: f64,
    pub val_metric: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    pub records: Vec<EpochRecord>,
    pub epochs_run: usize,
    /// Why the loop ended.
    pub stop: TrainStop,
    /// Validation objective after the final epoch.
    pub final_metric: f64,
}

/// Couples a loss with the objective metric used to score candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trainer {
    pub loss: Loss,
    pub metric: Metric,
}

impl Trainer {
    pub fn new(loss: Loss, metric: Metric) -> Self {
        Trainer { loss, metric }
    }

    /// Train `model` on `train`, evaluating on `val` after every epoch.
    pub fn fit(
        &self,
        model: &mut Model,
        train: &Dataset,
        val: &Dataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        assert!(cfg.epochs > 0, "epochs must be positive");
        let mut adam = Adam::new(cfg.adam);
        let mut rng = Rng::seed(cfg.shuffle_seed);
        let mut records = Vec::with_capacity(cfg.epochs);
        // The validation curve the early-stopping rule reads; it stays
        // unallocated when no rule is set.
        let mut curve = Vec::new();
        let mut stop = TrainStop::Budget;
        let mut tracker = cfg.convergence.map(ConvergenceTracker::new);

        for epoch in 0..cfg.epochs {
            let _epoch_span = swt_obs::span!("epoch");
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;
            for idx in train.batch_indices(cfg.batch_size, Some(&mut rng)) {
                let _batch_span = swt_obs::span!("batch");
                // Batch tensors, prediction and loss gradient all come from
                // the model's workspace and go back to it after the step, so
                // steady-state epochs reuse the same storage every batch.
                let (inputs, targets) = train.batch_ws(&idx, model.workspace_mut());
                let input_refs: Vec<&Tensor> = inputs.iter().collect();
                let pred = model.forward(&input_refs, true);
                let (loss, grad) =
                    self.loss.forward_backward_ws(&pred, &targets, model.workspace_mut());
                model.zero_grads();
                model.backward(&grad);
                adam.step(model);
                for t in inputs {
                    model.recycle(t);
                }
                model.recycle(targets);
                model.recycle(pred);
                model.recycle(grad);
                loss_sum += loss;
                batches += 1;
            }
            swt_obs::counter!("nn.batches_trained").add(batches as u64);
            swt_obs::counter!("nn.epochs_trained").inc();
            let val_metric = self.evaluate(model, val, cfg.batch_size);
            let train_loss = loss_sum / batches.max(1) as f64;
            records.push(EpochRecord { epoch, train_loss, val_metric });
            if let Some(es) = cfg.early_stop {
                curve.push(val_metric);
                if es.stop_epoch(&curve).is_some() {
                    stop = TrainStop::Plateau;
                    break;
                }
            }
            if let Some(t) = tracker.as_mut() {
                if t.observe(train_loss) && epoch + 1 < cfg.epochs {
                    stop = TrainStop::Converged;
                    break;
                }
            }
        }
        let final_metric = records.last().map(|r| r.val_metric).unwrap_or(0.0);
        TrainReport { epochs_run: records.len(), records, stop, final_metric }
    }

    /// Batched evaluation of the objective metric on a dataset.
    pub fn evaluate(&self, model: &mut Model, data: &Dataset, batch_size: usize) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let _span = swt_obs::span!("val_eval");
        // Run prediction in batches, then evaluate the metric globally (R²
        // is not batch-decomposable). The predictions land in one arena
        // tensor, sized when the first batch shows the output width.
        let mut preds: Option<Tensor> = None;
        let mut row = 0usize;
        for idx in data.batch_indices(batch_size, None) {
            let (inputs, targets) = data.batch_ws(&idx, model.workspace_mut());
            let input_refs: Vec<&Tensor> = inputs.iter().collect();
            let out = model.forward(&input_refs, false);
            let cols = out.numel() / idx.len();
            let all =
                preds.get_or_insert_with(|| model.workspace_mut().take_tensor([data.len(), cols]));
            all.data_mut()[row * cols..(row + idx.len()) * cols].copy_from_slice(out.data());
            row += idx.len();
            for t in inputs {
                model.recycle(t);
            }
            model.recycle(targets);
            model.recycle(out);
        }
        let preds = preds.expect("a non-empty dataset has a batch");
        let score = self.metric.evaluate(&preds, data.targets());
        model.recycle(preds);
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Activation, LayerSpec, ModelSpec};

    /// Tiny linearly-separable classification problem.
    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed(seed);
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let class = rng.below(2);
            let cx = if class == 0 { -1.0 } else { 1.0 };
            xs.push(cx + 0.3 * rng.normal());
            xs.push(-cx + 0.3 * rng.normal());
            ys.extend_from_slice(if class == 0 { &[1.0, 0.0] } else { &[0.0, 1.0] });
        }
        Dataset::new(vec![Tensor::from_vec([n, 2], xs)], Tensor::from_vec([n, 2], ys))
    }

    fn mlp() -> Model {
        let spec = ModelSpec::chain(
            vec![2],
            vec![
                LayerSpec::Dense { units: 8, activation: Some(Activation::Relu) },
                LayerSpec::Dense { units: 2, activation: None },
            ],
        )
        .unwrap();
        Model::build(&spec, 42).unwrap()
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let train = blob_dataset(256, 1);
        let val = blob_dataset(64, 2);
        let mut model = mlp();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 32,
            adam: AdamConfig { lr: 0.05, ..Default::default() },
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert_eq!(report.epochs_run, 10);
        assert_eq!(report.stop, TrainStop::Budget);
        assert!(report.final_metric > 0.95, "final accuracy {}", report.final_metric);
        // Loss must trend downward.
        assert!(report.records.last().unwrap().train_loss < report.records[0].train_loss);
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let train = blob_dataset(256, 3);
        let val = blob_dataset(64, 4);
        let mut model = mlp();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            adam: AdamConfig { lr: 0.05, ..Default::default() },
            early_stop: Some(EarlyStop::paper(0.01)),
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert_eq!(
            report.stop,
            TrainStop::Plateau,
            "separable blobs must plateau within 40 epochs"
        );
        assert!(report.epochs_run < 40);
        assert!(report.final_metric > 0.9);
        // The loop stops where the rule, replayed over its curve, says.
        let curve: Vec<f64> = report.records.iter().map(|r| r.val_metric).collect();
        assert_eq!(cfg.early_stop.unwrap().stop_epoch(&curve), Some(report.epochs_run));
    }

    #[test]
    fn early_stopping_needs_consecutive_flat_epochs() {
        // Patience 2 means one flat epoch alone must not stop training; we
        // verify the machinery by checking at least 3 epochs always run.
        let train = blob_dataset(64, 5);
        let val = blob_dataset(32, 6);
        let mut model = mlp();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            early_stop: Some(EarlyStop { threshold: 1.0, patience: 2 }),
            ..Default::default()
        };
        // threshold = 1.0 makes every epoch "flat": stop after epoch 3
        // (first epoch has no predecessor, then two flat comparisons).
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert_eq!(report.epochs_run, 3);
        assert_eq!(report.stop, TrainStop::Plateau);
        // The rule alone, on any curve: threshold 1.0 stops at epoch 3, one
        // flat epoch does not, and a curve shorter than patience + 1 never
        // stops.
        let rule = cfg.early_stop.unwrap();
        assert_eq!(rule.stop_epoch(&[0.1, 0.9, 0.2, 0.7, 0.3]), Some(3));
        let paper = EarlyStop::paper(0.01);
        assert_eq!(paper.stop_epoch(&[0.5, 0.5, 0.7, 0.7, 0.9]), None);
        assert_eq!(paper.stop_epoch(&[0.5, 0.5, 0.7, 0.7, 0.7]), Some(5));
        assert_eq!(paper.stop_epoch(&[0.5, f64::NAN, f64::NAN, 0.5]), None, "NaN is never flat");
        assert_eq!(rule.stop_epoch(&[0.5, 0.5]), None);
        assert_eq!(rule.stop_epoch(&[0.5]), None);
        assert_eq!(rule.stop_epoch(&[]), None);
    }

    #[test]
    fn convergence_tracker_needs_a_full_flat_window() {
        let mut t = ConvergenceTracker::new(Convergence { window: 3, min_delta: 0.1 });
        assert!(!t.observe(1.00), "window not yet full");
        assert!(!t.observe(1.05), "window not yet full");
        assert!(t.observe(1.04), "three losses within 0.1 converge");
        let mut t = ConvergenceTracker::new(Convergence { window: 3, min_delta: 0.1 });
        for loss in [2.0, 1.5, 1.0, 0.6, 0.55] {
            assert!(!t.observe(loss), "spread above min_delta must not converge at {loss}");
        }
        assert!(t.observe(0.52), "window [0.6, 0.55, 0.52] spans 0.08 <= 0.1");
    }

    #[test]
    fn convergence_tracker_ignores_non_finite_losses() {
        let mut t = ConvergenceTracker::new(Convergence { window: 2, min_delta: 10.0 });
        assert!(!t.observe(f64::NAN));
        assert!(!t.observe(1.0), "a NaN in the window must never count as flat");
        assert!(t.observe(1.0));
    }

    #[test]
    fn convergence_stop_reports_its_reason() {
        let train = blob_dataset(64, 11);
        let val = blob_dataset(32, 12);
        let mut model = mlp();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            // An infinitely tolerant spread: converges as soon as the
            // two-epoch window fills, i.e. after epoch 2.
            convergence: Some(Convergence { window: 2, min_delta: f64::INFINITY }),
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert_eq!(report.epochs_run, 2);
        assert_eq!(report.stop, TrainStop::Converged);
    }

    #[test]
    fn budget_and_plateau_stops_are_distinguished() {
        let train = blob_dataset(64, 13);
        let val = blob_dataset(32, 14);
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let budget = trainer.fit(
            &mut mlp(),
            &train,
            &val,
            &TrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
        );
        assert_eq!(budget.stop, TrainStop::Budget);
        let plateau = trainer.fit(
            &mut mlp(),
            &train,
            &val,
            &TrainConfig {
                epochs: 30,
                batch_size: 16,
                early_stop: Some(EarlyStop { threshold: 1.0, patience: 2 }),
                ..Default::default()
            },
        );
        assert_eq!(plateau.stop, TrainStop::Plateau);
    }

    #[test]
    fn convergence_on_the_final_epoch_counts_as_budget() {
        let train = blob_dataset(64, 15);
        let val = blob_dataset(32, 16);
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            convergence: Some(Convergence { window: 1, min_delta: f64::INFINITY }),
            ..Default::default()
        };
        let report = trainer.fit(&mut mlp(), &train, &val, &cfg);
        assert_eq!(report.stop, TrainStop::Budget, "no epochs were saved, nothing converged away");
    }

    #[test]
    fn evaluate_is_deterministic_and_batch_insensitive() {
        let val = blob_dataset(50, 7);
        let mut model = mlp();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let a = trainer.evaluate(&mut model, &val, 7);
        let b = trainer.evaluate(&mut model, &val, 50);
        assert!((a - b).abs() < 1e-12, "batch size must not affect accuracy: {a} vs {b}");
    }

    #[test]
    fn regression_path_improves_r2() {
        // y = 3x - 1 with noise; a linear model should fit it well under MAE.
        let mut rng = Rng::seed(8);
        let make = |n: usize, rng: &mut Rng| {
            let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let ys: Vec<f32> = xs.iter().map(|&x| 3.0 * x - 1.0 + 0.05 * rng.normal()).collect();
            Dataset::new(vec![Tensor::from_vec([n, 1], xs)], Tensor::from_vec([n, 1], ys))
        };
        let train = make(256, &mut rng);
        let val = make(64, &mut rng);
        let spec = ModelSpec::chain(vec![1], vec![LayerSpec::Dense { units: 1, activation: None }])
            .unwrap();
        let mut model = Model::build(&spec, 9).unwrap();
        let trainer = Trainer::new(Loss::MeanAbsoluteError, Metric::RSquared);
        let before = trainer.evaluate(&mut model, &val, 32);
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 32,
            adam: AdamConfig { lr: 0.02, ..Default::default() },
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert!(report.final_metric > 0.95, "R² {} (was {before})", report.final_metric);
        assert!(report.final_metric > before);
    }
}
