//! Low-level synthetic problem generators.
//!
//! All generators are deterministic in their seed, produce a train/validation
//! pair drawn from the same distribution, and are constructed to be
//! *learnable but not trivial*: class prototypes are smooth random fields so
//! convolutions help, noise keeps single-epoch accuracy well below the
//! ceiling, and regression targets are nonlinear in latent factors shared
//! across input sources.

use swt_nn::Dataset;
use swt_tensor::{Rng, Tensor};

/// A smooth random 2-D field built from a few random sinusoids, one value per
/// `(y, x, c)`. Low-frequency structure is what convolutional filters can
/// pick up, mirroring natural-image statistics at a cartoon level.
fn smooth_field_2d(h: usize, w: usize, c: usize, waves: usize, rng: &mut Rng) -> Vec<f32> {
    let mut field = vec![0.0f32; h * w * c];
    for _ in 0..waves {
        let fy = rng.uniform(0.5, 2.5);
        let fx = rng.uniform(0.5, 2.5);
        let phase = rng.uniform(0.0, std::f32::consts::TAU);
        let amp = rng.uniform(0.4, 1.0);
        let chan = rng.below(c);
        for y in 0..h {
            for x in 0..w {
                let v = amp
                    * (fy * y as f32 / h as f32 * std::f32::consts::TAU
                        + fx * x as f32 / w as f32 * std::f32::consts::TAU
                        + phase)
                        .sin();
                field[(y * w + x) * c + chan] += v;
            }
        }
    }
    field
}

/// Smooth random 1-D profile (NT3's gene-expression stand-in).
fn smooth_field_1d(w: usize, waves: usize, rng: &mut Rng) -> Vec<f32> {
    let mut field = vec![0.0f32; w];
    for _ in 0..waves {
        let f = rng.uniform(0.5, 6.0);
        let phase = rng.uniform(0.0, std::f32::consts::TAU);
        let amp = rng.uniform(0.4, 1.0);
        for (x, v) in field.iter_mut().enumerate() {
            *v += amp * (f * x as f32 / w as f32 * std::f32::consts::TAU + phase).sin();
        }
    }
    field
}

/// One-hot encode labels.
fn one_hot(labels: &[usize], classes: usize) -> Tensor {
    let mut data = vec![0.0f32; labels.len() * classes];
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < classes);
        data[i * classes + l] = 1.0;
    }
    Tensor::from_vec([labels.len(), classes], data)
}

/// Multi-class image classification: `classes` smooth prototypes of shape
/// `(h, w, c)`; each sample is its class prototype plus i.i.d. Gaussian noise
/// of standard deviation `noise`. Returns `(train, val)`.
pub fn image_classification(
    train_n: usize,
    val_n: usize,
    [h, w, c]: [usize; 3],
    classes: usize,
    noise: f32,
    seed: u64,
) -> (Dataset, Dataset) {
    let mut rng = Rng::seed(seed);
    let prototypes: Vec<Vec<f32>> =
        (0..classes).map(|_| smooth_field_2d(h, w, c, 6, &mut rng)).collect();
    let make = |n: usize, rng: &mut Rng| {
        let mut xs = Vec::with_capacity(n * h * w * c);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % classes; // balanced classes
            labels.push(class);
            for &p in &prototypes[class] {
                xs.push(p + noise * rng.normal());
            }
        }
        Dataset::new(vec![Tensor::from_vec([n, h, w, c], xs)], one_hot(&labels, classes))
    };
    let train = make(train_n, &mut rng);
    let val = make(val_n, &mut rng);
    (train, val)
}

/// Binary (or k-ary) wide-sequence classification with few samples — the
/// NT3-like regime where the sample count is far below the input width, so
/// validation scores fluctuate heavily (Section VIII-A discusses this).
pub fn sequence_classification(
    train_n: usize,
    val_n: usize,
    width: usize,
    classes: usize,
    noise: f32,
    seed: u64,
) -> (Dataset, Dataset) {
    let mut rng = Rng::seed(seed);
    let prototypes: Vec<Vec<f32>> =
        (0..classes).map(|_| smooth_field_1d(width, 8, &mut rng)).collect();
    let make = |n: usize, rng: &mut Rng| {
        let mut xs = Vec::with_capacity(n * width);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % classes;
            labels.push(class);
            for &p in &prototypes[class] {
                xs.push(p + noise * rng.normal());
            }
        }
        Dataset::new(vec![Tensor::from_vec([n, width, 1], xs)], one_hot(&labels, classes))
    };
    let train = make(train_n, &mut rng);
    let val = make(val_n, &mut rng);
    (train, val)
}

/// Multi-source regression: `k` latent factors per sample; each input source
/// is a random linear embedding of the latents plus noise; the target is a
/// smooth nonlinear function of the latents, standardised to zero mean / unit
/// variance. This mirrors Uno's structure: four heterogeneous views of the
/// same underlying biology predicting one response.
pub fn multi_source_regression(
    train_n: usize,
    val_n: usize,
    source_widths: &[usize],
    latents: usize,
    noise: f32,
    seed: u64,
) -> (Dataset, Dataset) {
    assert!(!source_widths.is_empty());
    let mut rng = Rng::seed(seed);
    // Fixed random embeddings per source: width × latents.
    let embeddings: Vec<Vec<f32>> = source_widths
        .iter()
        .map(|&w| (0..w * latents).map(|_| rng.normal() / (latents as f32).sqrt()).collect())
        .collect();
    // Nonlinear target coefficients.
    let lin: Vec<f32> = (0..latents).map(|_| rng.normal()).collect();
    let pairwise: Vec<f32> = (0..latents).map(|_| 0.5 * rng.normal()).collect();

    let make = |n: usize, rng: &mut Rng| {
        let mut sources: Vec<Vec<f32>> =
            source_widths.iter().map(|&w| Vec::with_capacity(n * w)).collect();
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let z: Vec<f32> = (0..latents).map(|_| rng.normal()).collect();
            for (src, (emb, &w)) in sources.iter_mut().zip(embeddings.iter().zip(source_widths)) {
                for row in 0..w {
                    let mut v = 0.0f32;
                    for (j, &zj) in z.iter().enumerate() {
                        v += emb[row * latents + j] * zj;
                    }
                    src.push(v + noise * rng.normal());
                }
            }
            let mut y = 0.0f32;
            for j in 0..latents {
                y += lin[j] * z[j] + pairwise[j] * (z[j] * z[(j + 1) % latents]).tanh();
            }
            targets.push(y + noise * rng.normal());
        }
        // Standardise the target.
        let mean = targets.iter().sum::<f32>() / n as f32;
        let var = targets.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / n as f32;
        let std = var.sqrt().max(1e-6);
        for t in &mut targets {
            *t = (*t - mean) / std;
        }
        let inputs: Vec<Tensor> = sources
            .into_iter()
            .zip(source_widths)
            .map(|(s, &w)| Tensor::from_vec([n, w], s))
            .collect();
        Dataset::new(inputs, Tensor::from_vec([n, 1], targets))
    };
    let train = make(train_n, &mut rng);
    let val = make(val_n, &mut rng);
    (train, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_nn::AdamConfig;
    use swt_nn::{Activation, LayerSpec, Loss, Metric, Model, ModelSpec, TrainConfig, Trainer};

    #[test]
    fn image_dataset_shapes_and_determinism() {
        let (train, val) = image_classification(20, 10, [8, 8, 3], 10, 0.5, 7);
        assert_eq!(train.len(), 20);
        assert_eq!(val.len(), 10);
        assert_eq!(train.inputs()[0].shape().dims(), &[20, 8, 8, 3]);
        assert_eq!(train.targets().shape().dims(), &[20, 10]);
        let (train2, _) = image_classification(20, 10, [8, 8, 3], 10, 0.5, 7);
        assert!(train.inputs()[0].approx_eq(&train2.inputs()[0], 0.0));
        let (train3, _) = image_classification(20, 10, [8, 8, 3], 10, 0.5, 8);
        assert!(!train.inputs()[0].approx_eq(&train3.inputs()[0], 0.0));
    }

    #[test]
    fn image_classes_are_balanced() {
        let (train, _) = image_classification(30, 10, [4, 4, 1], 3, 0.1, 1);
        let labels = train.targets().row_argmax();
        for class in 0..3 {
            assert_eq!(labels.iter().filter(|&&l| l == class).count(), 10);
        }
    }

    #[test]
    fn image_problem_is_learnable() {
        let (train, val) = image_classification(128, 64, [6, 6, 1], 4, 0.6, 3);
        let spec = ModelSpec::chain(
            vec![6, 6, 1],
            vec![
                LayerSpec::Flatten,
                LayerSpec::Dense { units: 16, activation: Some(Activation::Relu) },
                LayerSpec::Dense { units: 4, activation: None },
            ],
        )
        .unwrap();
        let mut model = Model::build(&spec, 5).unwrap();
        let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 32,
            adam: AdamConfig { lr: 0.01, ..Default::default() },
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert!(report.final_metric > 0.7, "val accuracy {}", report.final_metric);
    }

    #[test]
    fn sequence_dataset_is_wide_and_small() {
        let (train, val) = sequence_classification(32, 8, 256, 2, 1.0, 2);
        assert_eq!(train.inputs()[0].shape().dims(), &[32, 256, 1]);
        assert_eq!(val.len(), 8);
        // n << d, the NT3 regime.
        assert!(train.len() < 256);
    }

    #[test]
    fn regression_sources_and_target_shape() {
        let widths = [1, 16, 24, 8];
        let (train, val) = multi_source_regression(64, 16, &widths, 4, 0.1, 9);
        assert_eq!(train.inputs().len(), 4);
        for (t, &w) in train.inputs().iter().zip(&widths) {
            assert_eq!(t.shape().dims(), &[64, w]);
        }
        assert_eq!(train.targets().shape().dims(), &[64, 1]);
        assert_eq!(val.len(), 16);
        // Standardised target.
        let mean = train.targets().mean();
        assert!(mean.abs() < 1e-4, "target mean {mean}");
    }

    #[test]
    fn regression_problem_is_learnable() {
        let widths = [1, 16, 24, 8];
        let (train, val) = multi_source_regression(256, 64, &widths, 4, 0.05, 11);
        // Concatenate sources -> dense head.
        let nodes = vec![
            swt_nn::NodeSpec::Input { shape: vec![1] },
            swt_nn::NodeSpec::Input { shape: vec![16] },
            swt_nn::NodeSpec::Input { shape: vec![24] },
            swt_nn::NodeSpec::Input { shape: vec![8] },
            swt_nn::NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![0, 1, 2, 3] },
            swt_nn::NodeSpec::Layer {
                op: LayerSpec::Dense { units: 32, activation: Some(Activation::Relu) },
                inputs: vec![4],
            },
            swt_nn::NodeSpec::Layer {
                op: LayerSpec::Dense { units: 1, activation: None },
                inputs: vec![5],
            },
        ];
        let spec = ModelSpec::new(nodes, 6).unwrap();
        let mut model = Model::build(&spec, 13).unwrap();
        let trainer = Trainer::new(Loss::MeanAbsoluteError, Metric::RSquared);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 32,
            adam: AdamConfig { lr: 0.01, ..Default::default() },
            ..Default::default()
        };
        let report = trainer.fit(&mut model, &train, &val, &cfg);
        assert!(report.final_metric > 0.5, "val R² {}", report.final_metric);
    }

    #[test]
    fn noise_controls_difficulty() {
        // With extreme noise, a quick probe should score worse than with
        // little noise.
        let run = |noise: f32| {
            let (train, val) = image_classification(96, 48, [6, 6, 1], 4, noise, 21);
            let spec = ModelSpec::chain(
                vec![6, 6, 1],
                vec![
                    LayerSpec::Flatten,
                    LayerSpec::Dense { units: 8, activation: Some(Activation::Relu) },
                    LayerSpec::Dense { units: 4, activation: None },
                ],
            )
            .unwrap();
            let mut model = Model::build(&spec, 1).unwrap();
            let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
            let cfg = TrainConfig {
                epochs: 8,
                batch_size: 32,
                adam: AdamConfig { lr: 0.01, ..Default::default() },
                ..Default::default()
            };
            trainer.fit(&mut model, &train, &val, &cfg).final_metric
        };
        let easy = run(0.2);
        let hard = run(4.0);
        assert!(easy > hard, "easy {easy} must beat hard {hard}");
    }
}
