//! The four evaluated applications and their problem metadata (Table I).

use crate::synthetic;
use swt_nn::{Dataset, EarlyStop, Loss, Metric};

/// Dataset scale preset: `Quick` keeps CI runs fast; `Full` approaches the
/// (already reduced) paper-shaped sizes from DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataScale {
    /// Small sizes for tests and smoke runs.
    Quick,
    /// The repository's full experiment sizes.
    Full,
}

/// The four applications of the paper's evaluation (Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// CIFAR-10-like: 3-channel image classification, VGG-block search space.
    Cifar10,
    /// MNIST-like: 1-channel image classification, LeNet-5-style space.
    Mnist,
    /// NT3-like: wide 1-D sequence binary classification with few samples.
    Nt3,
    /// Uno-like: four-source tabular regression scored by R².
    Uno,
}

swt_wire::wire_codes! {
    DataScale: Quick = 0, Full = 1;
    AppKind: Cifar10 = 0, Mnist = 1, Nt3 = 2, Uno = 3;
}

/// Everything an evaluator needs to train and score candidates of one
/// application: data, loss, objective metric and the paper's per-app
/// hyperparameters.
#[derive(Debug, Clone)]
pub struct AppProblem {
    pub kind: AppKind,
    pub train: Dataset,
    pub val: Dataset,
    pub loss: Loss,
    pub metric: Metric,
    /// Mini-batch size (paper: 64 for CIFAR-10/MNIST, 32 for NT3/Uno).
    pub batch_size: usize,
    /// Early-stopping threshold for full training (paper Section VIII-B).
    pub early_stop: EarlyStop,
    /// Adam learning rate. The paper uses 1e-3 throughout; our datasets are
    /// ~30× smaller, so one epoch contains ~30× fewer optimizer steps. We
    /// compensate with a larger step size so a one-epoch estimate moves the
    /// weights a comparable total distance (documented in DESIGN.md).
    pub lr: f32,
}

impl AppKind {
    /// All four applications, in the paper's presentation order.
    pub fn all() -> [AppKind; 4] {
        [AppKind::Cifar10, AppKind::Mnist, AppKind::Nt3, AppKind::Uno]
    }

    /// Application name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Cifar10 => "CIFAR-10",
            AppKind::Mnist => "MNIST",
            AppKind::Nt3 => "NT3",
            AppKind::Uno => "Uno",
        }
    }

    /// Lowercase identifier used on command lines and in file names.
    pub fn slug(self) -> &'static str {
        match self {
            AppKind::Cifar10 => "cifar10",
            AppKind::Mnist => "mnist",
            AppKind::Nt3 => "nt3",
            AppKind::Uno => "uno",
        }
    }

    /// Parse a [`AppKind::slug`] or paper-table name, case-insensitively.
    pub fn from_slug(s: &str) -> Option<AppKind> {
        match s.to_ascii_lowercase().as_str() {
            "cifar10" | "cifar-10" => Some(AppKind::Cifar10),
            "mnist" => Some(AppKind::Mnist),
            "nt3" => Some(AppKind::Nt3),
            "uno" => Some(AppKind::Uno),
            _ => None,
        }
    }

    /// Per-sample input shapes, in model-input order.
    pub fn input_shapes(self) -> Vec<Vec<usize>> {
        match self {
            AppKind::Cifar10 => vec![vec![12, 12, 3]],
            AppKind::Mnist => vec![vec![10, 10, 1]],
            AppKind::Nt3 => vec![vec![512, 1]],
            AppKind::Uno => vec![vec![1], vec![96], vec![160], vec![64]],
        }
    }

    /// Output width (classes, or 1 for regression).
    pub fn output_width(self) -> usize {
        match self {
            AppKind::Cifar10 | AppKind::Mnist => 10,
            AppKind::Nt3 => 2,
            AppKind::Uno => 1,
        }
    }

    /// Training loss (Table I).
    pub fn loss(self) -> Loss {
        match self {
            AppKind::Uno => Loss::MeanAbsoluteError,
            _ => Loss::CategoricalCrossEntropy,
        }
    }

    /// Objective metric (Table I).
    pub fn metric(self) -> Metric {
        match self {
            AppKind::Uno => Metric::RSquared,
            _ => Metric::Accuracy,
        }
    }

    /// Mini-batch size (Section VII-A).
    pub fn batch_size(self) -> usize {
        match self {
            AppKind::Cifar10 | AppKind::Mnist => 64,
            AppKind::Nt3 | AppKind::Uno => 32,
        }
    }

    /// Early-stopping threshold for full training (Section VIII-B), with the
    /// paper's patience of two epochs.
    pub fn early_stop(self) -> EarlyStop {
        let threshold = match self {
            AppKind::Nt3 => 0.005,
            AppKind::Mnist => 0.001,
            AppKind::Cifar10 => 0.01,
            AppKind::Uno => 0.02,
        };
        EarlyStop::paper(threshold)
    }

    /// Compensated Adam learning rate (see [`AppProblem::lr`]).
    pub fn lr(self) -> f32 {
        match self {
            AppKind::Cifar10 | AppKind::Mnist => 0.01,
            AppKind::Nt3 => 0.005,
            AppKind::Uno => 0.01,
        }
    }

    /// `(train_n, val_n)` at a scale.
    pub fn sizes(self, scale: DataScale) -> (usize, usize) {
        match (self, scale) {
            (AppKind::Cifar10, DataScale::Quick) => (384, 128),
            (AppKind::Cifar10, DataScale::Full) => (1536, 384),
            (AppKind::Mnist, DataScale::Quick) => (384, 128),
            (AppKind::Mnist, DataScale::Full) => (1536, 384),
            (AppKind::Nt3, DataScale::Quick) => (160, 64),
            (AppKind::Nt3, DataScale::Full) => (384, 128),
            (AppKind::Uno, DataScale::Quick) => (320, 96),
            (AppKind::Uno, DataScale::Full) => (1024, 256),
        }
    }

    /// Generate the application's train/validation datasets.
    pub fn datasets(self, scale: DataScale, seed: u64) -> (Dataset, Dataset) {
        let (train_n, val_n) = self.sizes(scale);
        match self {
            AppKind::Cifar10 => {
                synthetic::image_classification(train_n, val_n, [12, 12, 3], 10, 2.0, seed)
            }
            AppKind::Mnist => {
                // Lower noise: the paper notes "it is very easy to get high
                // accuracy in MNIST".
                synthetic::image_classification(train_n, val_n, [10, 10, 1], 10, 0.5, seed)
            }
            AppKind::Nt3 => synthetic::sequence_classification(train_n, val_n, 512, 2, 8.0, seed),
            AppKind::Uno => {
                synthetic::multi_source_regression(train_n, val_n, &[1, 96, 160, 64], 6, 0.35, seed)
            }
        }
    }

    /// Bundle data + metadata into an [`AppProblem`].
    pub fn problem(self, scale: DataScale, seed: u64) -> AppProblem {
        let (train, val) = self.datasets(scale, seed);
        AppProblem {
            kind: self,
            train,
            val,
            loss: self.loss(),
            metric: self.metric(),
            batch_size: self.batch_size(),
            early_stop: self.early_stop(),
            lr: self.lr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata() {
        assert_eq!(AppKind::Cifar10.batch_size(), 64);
        assert_eq!(AppKind::Nt3.batch_size(), 32);
        assert_eq!(AppKind::Uno.loss(), Loss::MeanAbsoluteError);
        assert_eq!(AppKind::Uno.metric(), Metric::RSquared);
        assert_eq!(AppKind::Mnist.loss(), Loss::CategoricalCrossEntropy);
        assert_eq!(AppKind::Cifar10.early_stop().threshold, 0.01);
        assert_eq!(AppKind::Mnist.early_stop().threshold, 0.001);
        assert_eq!(AppKind::Nt3.early_stop().threshold, 0.005);
        assert_eq!(AppKind::Uno.early_stop().threshold, 0.02);
        assert_eq!(AppKind::Cifar10.early_stop().patience, 2);
    }

    #[test]
    fn problems_have_consistent_shapes() {
        for kind in AppKind::all() {
            let p = kind.problem(DataScale::Quick, 42);
            assert_eq!(p.train.inputs().len(), kind.input_shapes().len(), "{}", kind.name());
            for (t, shape) in p.train.inputs().iter().zip(kind.input_shapes()) {
                assert_eq!(&t.shape().dims()[1..], shape.as_slice(), "{}", kind.name());
            }
            assert_eq!(p.train.targets().shape().dim(1), kind.output_width());
            let (tn, vn) = kind.sizes(DataScale::Quick);
            assert_eq!(p.train.len(), tn);
            assert_eq!(p.val.len(), vn);
        }
    }

    #[test]
    fn datasets_are_seed_deterministic() {
        for kind in AppKind::all() {
            let (a, _) = kind.datasets(DataScale::Quick, 5);
            let (b, _) = kind.datasets(DataScale::Quick, 5);
            assert!(a.inputs()[0].approx_eq(&b.inputs()[0], 0.0), "{}", kind.name());
            assert!(a.targets().approx_eq(b.targets(), 0.0));
        }
    }

    #[test]
    fn nt3_is_the_small_wide_regime() {
        let p = AppKind::Nt3.problem(DataScale::Full, 1);
        let n = p.train.len();
        let d = p.train.inputs()[0].shape().dim(1);
        assert!(n < d, "NT3 must keep n ({n}) << d ({d})");
        assert_eq!(p.train.targets().shape().dim(1), 2);
    }

    #[test]
    fn full_scale_is_larger_than_quick() {
        for kind in AppKind::all() {
            let (tq, vq) = kind.sizes(DataScale::Quick);
            let (tf, vf) = kind.sizes(DataScale::Full);
            assert!(tf > tq && vf >= vq, "{}", kind.name());
        }
    }
}
