//! Shape sequences: the string the matchers operate on.
//!
//! Following the paper's Fig. 3, the sequence contains one element per
//! *parameterised layer*, whose shape is the layer's primary weight tensor —
//! the convolution filter bank `(f, w, h)` or the dense matrix `(m, n)`.
//! Secondary tensors (biases, batch-norm β) ride along with their layer:
//! when two layers' primary shapes match, every same-named secondary tensor
//! matches too (a bias dimension is determined by its kernel's output
//! dimension).

use swt_checkpoint::CheckpointIndex;
use swt_nn::{ModelSpec, SpecError};
use swt_tensor::Shape;

/// One parameterised layer of the sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeEntry {
    /// Layer (node) name, e.g. `n3_conv2d`.
    pub layer: String,
    /// The primary weight shape the matchers compare (kernel / gamma).
    pub primary: Shape,
    /// All tensors of the layer as `(local_name, full_name, shape)`,
    /// primary included.
    pub tensors: Vec<(String, String, Shape)>,
}

impl ShapeEntry {
    /// Total bytes across the layer's tensors.
    pub fn bytes(&self) -> usize {
        self.tensors.iter().map(|(_, _, s)| s.size_bytes()).sum()
    }
}

/// The ordered list of a model's parameterised layers — the paper's *shape
/// sequence* (Fig. 3), derived from the spec without building the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeSeq {
    entries: Vec<ShapeEntry>,
}

/// Which local parameter name is a layer's primary tensor.
fn is_primary(local: &str) -> bool {
    matches!(local, "kernel" | "gamma")
}

/// Group flat `(full_name, shape)` parameter lists (as produced by
/// `ModelSpec::param_shapes` or read back from a checkpoint) into layer
/// entries. Non-trainable state (running statistics) must be filtered out by
/// the caller.
fn group(params: impl IntoIterator<Item = (String, Shape)>) -> Vec<ShapeEntry> {
    let mut entries: Vec<ShapeEntry> = Vec::new();
    for (full_name, shape) in params {
        let (layer, local) = match full_name.split_once('/') {
            Some((l, p)) => (l.to_string(), p.to_string()),
            None => (full_name.clone(), "kernel".to_string()),
        };
        match entries.last_mut() {
            Some(entry) if entry.layer == layer => {
                if is_primary(&local) {
                    entry.primary = shape.clone();
                }
                entry.tensors.push((local, full_name, shape));
            }
            _ => {
                entries.push(ShapeEntry {
                    layer,
                    primary: shape.clone(),
                    tensors: vec![(local, full_name, shape)],
                });
            }
        }
    }
    entries
}

impl ShapeSeq {
    /// Extract the shape sequence of a model spec.
    pub fn of(spec: &ModelSpec) -> Result<ShapeSeq, SpecError> {
        Ok(ShapeSeq { entries: group(spec.param_shapes()?) })
    }

    /// Build from flat `(full_name, shape)` pairs — e.g. the names/shapes of
    /// a checkpoint. The caller must exclude non-trainable state.
    pub fn from_params(params: Vec<(String, Shape)>) -> ShapeSeq {
        ShapeSeq { entries: group(params) }
    }

    /// Build a provider's shape sequence straight from a checkpoint index —
    /// no tensor payloads needed. Non-trainable running statistics are
    /// excluded, mirroring what the evaluator transfers.
    pub fn from_checkpoint_index(index: &CheckpointIndex) -> ShapeSeq {
        let params = index
            .tensors()
            .iter()
            .filter(|m| !m.name.ends_with("running_mean") && !m.name.ends_with("running_var"))
            .map(|m| (m.name.clone(), m.shape()))
            .collect();
        ShapeSeq::from_params(params)
    }

    /// The layer entries in topological order.
    pub fn entries(&self) -> &[ShapeEntry] {
        &self.entries
    }

    /// The primary shapes, in order — the matcher input.
    pub fn shapes(&self) -> Vec<&Shape> {
        self.entries.iter().map(|e| &e.primary).collect()
    }

    /// Sequence length (number of parameterised layers).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for a parameter-free model.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry `i`.
    pub fn entry(&self, i: usize) -> &ShapeEntry {
        &self.entries[i]
    }

    /// Total bytes of the parameters (f32).
    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(ShapeEntry::bytes).sum()
    }

    /// True iff the two sequences share at least one identical primary
    /// shape — the paper's "shareable pair" predicate from Fig. 2 (any pair
    /// of tensors with identical shape, regardless of position).
    pub fn shares_any_shape(&self, other: &ShapeSeq) -> bool {
        use std::collections::HashSet;
        let mine: HashSet<&Shape> = self.entries.iter().map(|e| &e.primary).collect();
        other.entries.iter().any(|e| mine.contains(&e.primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_nn::{Activation, LayerSpec, ModelSpec};
    use swt_tensor::{Padding, Tensor};

    fn cnn(extra_conv: bool) -> ModelSpec {
        let mut ops =
            vec![LayerSpec::Conv2D { filters: 4, kernel: 3, padding: Padding::Same, l2: 0.0 }];
        if extra_conv {
            ops.push(LayerSpec::Conv2D { filters: 4, kernel: 3, padding: Padding::Same, l2: 0.0 });
        }
        ops.extend([
            LayerSpec::BatchNorm,
            LayerSpec::Flatten,
            LayerSpec::Dense { units: 8, activation: Some(Activation::Relu) },
        ]);
        ModelSpec::chain(vec![6, 6, 2], ops).unwrap()
    }

    #[test]
    fn one_entry_per_parameterised_layer() {
        let seq = ShapeSeq::of(&cnn(false)).unwrap();
        assert_eq!(seq.len(), 3); // conv, batchnorm, dense
        assert_eq!(seq.entry(0).primary.dims(), &[3, 3, 2, 4]);
        assert_eq!(seq.entry(0).tensors.len(), 2); // kernel + bias
        assert_eq!(seq.entry(1).primary.dims(), &[4]); // gamma
        assert_eq!(seq.entry(2).primary.dims(), &[144, 8]);
        assert!(seq.entry(2).tensors.iter().any(|(l, _, _)| l == "bias"));
    }

    #[test]
    fn bytes_cover_all_tensors() {
        let seq = ShapeSeq::of(&cnn(false)).unwrap();
        // conv k+b, bn gamma+beta, dense k+b.
        let expected = (3 * 3 * 2 * 4 + 4) + (4 + 4) + (144 * 8 + 8);
        assert_eq!(seq.total_bytes(), expected * 4);
    }

    #[test]
    fn biases_do_not_create_shareability() {
        // Two dense layers with equal widths but different input dims share
        // a bias shape but not a primary shape -> NOT shareable. This is the
        // property that keeps Fig. 2 meaningful (the fixed output head's
        // bias is identical in every candidate).
        let a = ModelSpec::chain(vec![4], vec![LayerSpec::Dense { units: 8, activation: None }])
            .unwrap();
        let b = ModelSpec::chain(vec![6], vec![LayerSpec::Dense { units: 8, activation: None }])
            .unwrap();
        let sa = ShapeSeq::of(&a).unwrap();
        let sb = ShapeSeq::of(&b).unwrap();
        assert!(!sa.shares_any_shape(&sb));
        assert!(sa.shares_any_shape(&sa));
    }

    #[test]
    fn shares_any_shape_is_position_independent() {
        let a = ShapeSeq::from_params(vec![
            ("l0/kernel".into(), Shape::new([3, 3])),
            ("l1/kernel".into(), Shape::new([5, 2])),
        ]);
        let b = ShapeSeq::from_params(vec![
            ("x0/kernel".into(), Shape::new([7, 7])),
            ("x1/kernel".into(), Shape::new([3, 3])),
        ]);
        let c = ShapeSeq::from_params(vec![("z/kernel".into(), Shape::new([9, 1]))]);
        assert!(a.shares_any_shape(&b));
        assert!(b.shares_any_shape(&a));
        assert!(!a.shares_any_shape(&c));
        assert!(!ShapeSeq::from_params(vec![]).shares_any_shape(&a));
    }

    #[test]
    fn from_params_groups_by_layer_prefix() {
        let seq = ShapeSeq::from_params(vec![
            ("n1_conv2d/kernel".into(), Shape::new([3, 3, 1, 4])),
            ("n1_conv2d/bias".into(), Shape::new([4])),
            ("n5_dense/kernel".into(), Shape::new([16, 2])),
            ("n5_dense/bias".into(), Shape::new([2])),
        ]);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.entry(0).layer, "n1_conv2d");
        assert_eq!(seq.entry(0).primary.dims(), &[3, 3, 1, 4]);
        assert_eq!(seq.entry(1).tensors.len(), 2);
    }

    #[test]
    fn from_checkpoint_index_filters_running_stats() {
        let entries: Vec<(String, Tensor)> = [
            ("n1_conv2d/kernel", vec![3, 3, 1, 4]),
            ("n1_conv2d/bias", vec![4]),
            ("n2_bn/gamma", vec![4]),
            ("n2_bn/beta", vec![4]),
            ("n2_bn/running_mean", vec![4]),
            ("n2_bn/running_var", vec![4]),
        ]
        .into_iter()
        .map(|(name, dims)| (name.to_string(), Tensor::zeros(dims)))
        .collect();
        let index = swt_checkpoint::parse_container(&swt_checkpoint::encode(&entries)).unwrap();
        let seq = ShapeSeq::from_checkpoint_index(&index);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.entry(1).tensors.len(), 2); // gamma + beta only
        assert_eq!(seq.entry(1).primary.dims(), &[4]);
    }

    #[test]
    fn deeper_model_has_longer_sequence() {
        let short = ShapeSeq::of(&cnn(false)).unwrap();
        let long = ShapeSeq::of(&cnn(true)).unwrap();
        assert_eq!(long.len(), short.len() + 1);
    }
}
