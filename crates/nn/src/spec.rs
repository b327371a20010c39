//! Declarative model specifications.
//!
//! A [`ModelSpec`] is the object NAS manipulates: the search space
//! materialises an architecture sequence into a spec, the weight-transfer
//! matchers compare the *parameter shape sequences* of two specs
//! ([`ModelSpec::param_shapes`]), and the evaluator builds a trainable
//! [`crate::Model`] from the spec. Shapes here are **per-sample** (no batch
//! dimension), matching how the paper writes them (Fig. 3).

use std::fmt;
use swt_tensor::{Padding, Shape};

/// Activation functions offered by the search spaces (Section VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::Relu => write!(f, "relu"),
            Activation::Tanh => write!(f, "tanh"),
            Activation::Sigmoid => write!(f, "sig"),
        }
    }
}

/// One layer choice. The variants cover every operation appearing in the
/// paper's four search spaces.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// Skip connection (`Identity` in the paper's notation).
    Identity,
    /// Fully connected layer, optionally with a fused activation —
    /// `Dense(50, relu)` in the paper's notation. Input must be rank 1
    /// per-sample (insert [`LayerSpec::Flatten`] first when needed).
    Dense { units: usize, activation: Option<Activation> },
    /// Standalone activation.
    Activation(Activation),
    /// 2-D convolution, stride 1. `l2` is the optional kernel regularizer
    /// weight (the CIFAR space uses 5e-4); 0.0 disables it.
    Conv2D { filters: usize, kernel: usize, padding: Padding, l2: f32 },
    /// 1-D convolution, stride 1 (NT3's gene-sequence data).
    Conv1D { filters: usize, kernel: usize, padding: Padding, l2: f32 },
    /// 2-D max pooling.
    MaxPool2D { size: usize, stride: usize },
    /// 1-D max pooling.
    MaxPool1D { size: usize, stride: usize },
    /// Batch normalisation (per-channel over the batch and spatial dims).
    BatchNorm,
    /// Inverted dropout with the given drop rate.
    Dropout { rate: f32 },
    /// Flatten the per-sample dims to rank 1.
    Flatten,
    /// Concatenate rank-1 inputs (Uno's multi-source head).
    Concat,
}

impl LayerSpec {
    /// True when the operation's output is its input's values unchanged, at
    /// most reshaped — identity, flatten, dropout outside training or at
    /// rate 0. [`crate::Model`] passes the tensor through such a node
    /// instead of running a layer over it.
    pub fn passes_through(&self, training: bool) -> bool {
        match self {
            LayerSpec::Identity | LayerSpec::Flatten => true,
            LayerSpec::Dropout { rate } => !training || *rate == 0.0,
            _ => false,
        }
    }

    /// Short kind tag used in deterministic parameter names.
    pub fn kind(&self) -> &'static str {
        match self {
            LayerSpec::Identity => "id",
            LayerSpec::Dense { .. } => "dense",
            LayerSpec::Activation(_) => "act",
            LayerSpec::Conv2D { .. } => "conv2d",
            LayerSpec::Conv1D { .. } => "conv1d",
            LayerSpec::MaxPool2D { .. } => "pool2d",
            LayerSpec::MaxPool1D { .. } => "pool1d",
            LayerSpec::BatchNorm => "bn",
            LayerSpec::Dropout { .. } => "drop",
            LayerSpec::Flatten => "flatten",
            LayerSpec::Concat => "concat",
        }
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerSpec::Identity => write!(f, "Identity"),
            LayerSpec::Dense { units, activation: Some(a) } => write!(f, "Dense({units}, {a})"),
            LayerSpec::Dense { units, activation: None } => write!(f, "Dense({units})"),
            LayerSpec::Activation(a) => write!(f, "Activation({a})"),
            LayerSpec::Conv2D { filters, kernel, padding, l2 } => {
                write!(f, "Conv2D({filters}, {kernel}x{kernel}, {padding:?}, l2={l2})")
            }
            LayerSpec::Conv1D { filters, kernel, padding, l2 } => {
                write!(f, "Conv1D({filters}, {kernel}, {padding:?}, l2={l2})")
            }
            LayerSpec::MaxPool2D { size, stride } => write!(f, "MaxPool2D({size}, s{stride})"),
            LayerSpec::MaxPool1D { size, stride } => write!(f, "MaxPool1D({size}, s{stride})"),
            LayerSpec::BatchNorm => write!(f, "BatchNorm"),
            LayerSpec::Dropout { rate } => write!(f, "Dropout({rate})"),
            LayerSpec::Flatten => write!(f, "Flatten"),
            LayerSpec::Concat => write!(f, "Concat"),
        }
    }
}

/// A node of the model DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// A model input with its per-sample shape.
    Input { shape: Vec<usize> },
    /// A layer applied to the outputs of earlier nodes.
    Layer { op: LayerSpec, inputs: Vec<usize> },
}

/// Errors raised by spec validation / shape inference.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A node references a node at or after its own index.
    ForwardReference { node: usize, input: usize },
    /// A layer got the wrong number of inputs.
    Arity { node: usize, expected: &'static str, got: usize },
    /// A shape constraint failed (e.g. pooling window larger than input).
    Shape { node: usize, message: String },
    /// The output index is out of range.
    BadOutput,
    /// The spec has no nodes.
    Empty,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ForwardReference { node, input } => {
                write!(f, "node {node} references non-earlier node {input}")
            }
            SpecError::Arity { node, expected, got } => {
                write!(f, "node {node} expected {expected} inputs, got {got}")
            }
            SpecError::Shape { node, message } => write!(f, "node {node}: {message}"),
            SpecError::BadOutput => write!(f, "output index out of range"),
            SpecError::Empty => write!(f, "empty model spec"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A full model description: a DAG of [`NodeSpec`]s whose final node
/// (`output`) produces the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    nodes: Vec<NodeSpec>,
    output: usize,
}

impl ModelSpec {
    /// Validate and wrap a node list. Nodes may only reference earlier
    /// nodes, so index order is a topological order.
    pub fn new(nodes: Vec<NodeSpec>, output: usize) -> Result<Self, SpecError> {
        if nodes.is_empty() {
            return Err(SpecError::Empty);
        }
        if output >= nodes.len() {
            return Err(SpecError::BadOutput);
        }
        for (i, node) in nodes.iter().enumerate() {
            if let NodeSpec::Layer { op, inputs } = node {
                for &inp in inputs {
                    if inp >= i {
                        return Err(SpecError::ForwardReference { node: i, input: inp });
                    }
                }
                let want_multi = matches!(op, LayerSpec::Concat);
                if want_multi {
                    if inputs.len() < 2 {
                        return Err(SpecError::Arity {
                            node: i,
                            expected: ">= 2",
                            got: inputs.len(),
                        });
                    }
                } else if inputs.len() != 1 {
                    return Err(SpecError::Arity {
                        node: i,
                        expected: "exactly 1",
                        got: inputs.len(),
                    });
                }
            }
        }
        let spec = ModelSpec { nodes, output };
        // Shape inference doubles as full validation.
        spec.infer_shapes()?;
        Ok(spec)
    }

    /// Convenience constructor for a linear chain: `Input -> ops...`.
    pub fn chain(input_shape: Vec<usize>, ops: Vec<LayerSpec>) -> Result<Self, SpecError> {
        let mut nodes = vec![NodeSpec::Input { shape: input_shape }];
        for (i, op) in ops.into_iter().enumerate() {
            nodes.push(NodeSpec::Layer { op, inputs: vec![i] });
        }
        let output = nodes.len() - 1;
        ModelSpec::new(nodes, output)
    }

    /// The DAG nodes in topological order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Index of the output node.
    pub fn output(&self) -> usize {
        self.output
    }

    /// Indices of the input nodes, in order. Batch inputs passed to
    /// [`crate::Model::forward`] must follow this order.
    pub fn input_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, NodeSpec::Input { .. }).then_some(i))
            .collect()
    }

    /// Per-sample output shape of every node.
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, SpecError> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = match node {
                NodeSpec::Input { shape } => Shape::new(shape.clone()),
                NodeSpec::Layer { op, inputs } => {
                    let ins: Vec<&Shape> = inputs.iter().map(|&j| &shapes[j]).collect();
                    infer_layer_shape(op, &ins)
                        .map_err(|message| SpecError::Shape { node: i, message })?
                }
            };
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// The per-sample shape of the model output.
    pub fn output_shape(&self) -> Result<Shape, SpecError> {
        Ok(self.infer_shapes()?[self.output].clone())
    }

    /// Deterministic node names: `n{index}_{kind}`.
    pub fn node_name(&self, index: usize) -> String {
        match &self.nodes[index] {
            NodeSpec::Input { .. } => format!("n{index}_input"),
            NodeSpec::Layer { op, .. } => format!("n{index}_{}", op.kind()),
        }
    }

    /// The trainable parameter tensors of the model, as `(full_name, shape)`
    /// in topological order — the paper's *shape sequence* source (Fig. 3).
    /// Guaranteed to align 1:1 with [`crate::Model::named_params`].
    pub fn param_shapes(&self) -> Result<Vec<(String, Shape)>, SpecError> {
        let shapes = self.infer_shapes()?;
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let NodeSpec::Layer { op, inputs } = node else { continue };
            let name = self.node_name(i);
            let input_shape = &shapes[inputs[0]];
            match op {
                LayerSpec::Dense { units, .. } => {
                    out.push((format!("{name}/kernel"), Shape::new([input_shape.dim(0), *units])));
                    out.push((format!("{name}/bias"), Shape::new([*units])));
                }
                LayerSpec::Conv2D { filters, kernel, .. } => {
                    let c = input_shape.dim(2);
                    out.push((
                        format!("{name}/kernel"),
                        Shape::new([*kernel, *kernel, c, *filters]),
                    ));
                    out.push((format!("{name}/bias"), Shape::new([*filters])));
                }
                LayerSpec::Conv1D { filters, kernel, .. } => {
                    let c = input_shape.dim(1);
                    out.push((format!("{name}/kernel"), Shape::new([*kernel, c, *filters])));
                    out.push((format!("{name}/bias"), Shape::new([*filters])));
                }
                LayerSpec::BatchNorm => {
                    let c = input_shape.dim(input_shape.rank() - 1);
                    out.push((format!("{name}/gamma"), Shape::new([c])));
                    out.push((format!("{name}/beta"), Shape::new([c])));
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Total trainable parameter count — Table IV's model-complexity proxy.
    pub fn param_count(&self) -> Result<usize, SpecError> {
        Ok(self.param_shapes()?.iter().map(|(_, s)| s.numel()).sum())
    }

    /// Keras-style human-readable summary: one row per node with its
    /// operation, output shape and parameter count.
    pub fn summary(&self) -> Result<String, SpecError> {
        let shapes = self.infer_shapes()?;
        let params = self.param_shapes()?;
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:<28} {:<16} {:>10}\n", "node", "op", "output", "params"));
        out.push_str(&"-".repeat(72));
        out.push('\n');
        for (i, node) in self.nodes.iter().enumerate() {
            let name = self.node_name(i);
            let op = match node {
                NodeSpec::Input { .. } => "Input".to_string(),
                NodeSpec::Layer { op, .. } => op.to_string(),
            };
            let node_params: usize = params
                .iter()
                .filter(|(n, _)| n.starts_with(&format!("{name}/")))
                .map(|(_, s)| s.numel())
                .sum();
            out.push_str(&format!(
                "{:<16} {:<28} {:<16} {:>10}\n",
                name,
                op,
                shapes[i].to_string(),
                node_params
            ));
        }
        out.push_str(&"-".repeat(72));
        out.push_str(&format!("\ntotal params: {}\n", self.param_count()?));
        Ok(out)
    }
}

/// Per-sample output shape of one layer given its input shapes.
fn infer_layer_shape(op: &LayerSpec, inputs: &[&Shape]) -> Result<Shape, String> {
    let one = |rank: Option<usize>| -> Result<&Shape, String> {
        let s = inputs[0];
        if let Some(r) = rank {
            if s.rank() != r {
                return Err(format!("{op} expects rank-{r} input, got {s}"));
            }
        }
        Ok(s)
    };
    match op {
        LayerSpec::Identity
        | LayerSpec::Activation(_)
        | LayerSpec::Dropout { .. }
        | LayerSpec::BatchNorm => Ok(one(None)?.clone()),
        LayerSpec::Dense { units, .. } => {
            let s = one(Some(1))?;
            let _ = s;
            Ok(Shape::new([*units]))
        }
        LayerSpec::Conv2D { filters, kernel, padding, .. } => {
            let s = one(Some(3))?;
            let (h, w) = (s.dim(0), s.dim(1));
            if matches!(padding, Padding::Valid) && (h < *kernel || w < *kernel) {
                return Err(format!("valid conv kernel {kernel} exceeds input {s}"));
            }
            Ok(Shape::new([padding.out_size(h, *kernel), padding.out_size(w, *kernel), *filters]))
        }
        LayerSpec::Conv1D { filters, kernel, padding, .. } => {
            let s = one(Some(2))?;
            let w = s.dim(0);
            if matches!(padding, Padding::Valid) && w < *kernel {
                return Err(format!("valid conv kernel {kernel} exceeds input {s}"));
            }
            Ok(Shape::new([padding.out_size(w, *kernel), *filters]))
        }
        LayerSpec::MaxPool2D { size, stride } => {
            let s = one(Some(3))?;
            let (h, w) = (s.dim(0), s.dim(1));
            if h < *size || w < *size {
                return Err(format!("pool window {size} exceeds input {s}"));
            }
            Ok(Shape::new([(h - size) / stride + 1, (w - size) / stride + 1, s.dim(2)]))
        }
        LayerSpec::MaxPool1D { size, stride } => {
            let s = one(Some(2))?;
            let w = s.dim(0);
            if w < *size {
                return Err(format!("pool window {size} exceeds input {s}"));
            }
            Ok(Shape::new([(w - size) / stride + 1, s.dim(1)]))
        }
        LayerSpec::Flatten => Ok(Shape::new([one(None)?.numel()])),
        LayerSpec::Concat => {
            let mut total = 0;
            for s in inputs {
                if s.rank() != 1 {
                    return Err(format!("concat expects rank-1 inputs, got {s}"));
                }
                total += s.dim(0);
            }
            Ok(Shape::new([total]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lenetish() -> ModelSpec {
        ModelSpec::chain(
            vec![10, 10, 1],
            vec![
                LayerSpec::Conv2D { filters: 4, kernel: 3, padding: Padding::Same, l2: 0.0 },
                LayerSpec::Activation(Activation::Relu),
                LayerSpec::MaxPool2D { size: 2, stride: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense { units: 16, activation: Some(Activation::Relu) },
                LayerSpec::Dense { units: 10, activation: None },
            ],
        )
        .unwrap()
    }

    #[test]
    fn chain_shapes() {
        let spec = lenetish();
        let shapes = spec.infer_shapes().unwrap();
        assert_eq!(shapes[1].dims(), &[10, 10, 4]); // same conv
        assert_eq!(shapes[3].dims(), &[5, 5, 4]); // pool /2
        assert_eq!(shapes[4].dims(), &[100]); // flatten
        assert_eq!(spec.output_shape().unwrap().dims(), &[10]);
    }

    #[test]
    fn param_shapes_in_topological_order() {
        let spec = lenetish();
        let params = spec.param_shapes().unwrap();
        let names: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "n1_conv2d/kernel",
                "n1_conv2d/bias",
                "n5_dense/kernel",
                "n5_dense/bias",
                "n6_dense/kernel",
                "n6_dense/bias"
            ]
        );
        assert_eq!(params[0].1.dims(), &[3, 3, 1, 4]);
        assert_eq!(params[2].1.dims(), &[100, 16]);
    }

    #[test]
    fn param_count_matches_manual() {
        let spec = lenetish();
        // conv: 3*3*1*4 + 4 = 40; dense1: 100*16 + 16 = 1616; dense2: 16*10 + 10 = 170
        assert_eq!(spec.param_count().unwrap(), 40 + 1616 + 170);
    }

    #[test]
    fn pool_too_large_is_shape_error() {
        let err = ModelSpec::chain(
            vec![4, 4, 1],
            vec![
                LayerSpec::MaxPool2D { size: 3, stride: 3 },
                LayerSpec::MaxPool2D { size: 3, stride: 3 },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Shape { node: 2, .. }), "{err}");
    }

    #[test]
    fn forward_reference_rejected() {
        let nodes = vec![
            NodeSpec::Input { shape: vec![4] },
            NodeSpec::Layer { op: LayerSpec::Identity, inputs: vec![2] },
            NodeSpec::Layer { op: LayerSpec::Identity, inputs: vec![0] },
        ];
        assert!(matches!(
            ModelSpec::new(nodes, 2).unwrap_err(),
            SpecError::ForwardReference { node: 1, input: 2 }
        ));
    }

    #[test]
    fn concat_requires_multiple_rank1_inputs() {
        let nodes = vec![
            NodeSpec::Input { shape: vec![3] },
            NodeSpec::Input { shape: vec![5] },
            NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![0, 1] },
        ];
        let spec = ModelSpec::new(nodes, 2).unwrap();
        assert_eq!(spec.output_shape().unwrap().dims(), &[8]);
        assert_eq!(spec.input_nodes(), vec![0, 1]);

        let bad = vec![
            NodeSpec::Input { shape: vec![3] },
            NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![0] },
        ];
        assert!(matches!(ModelSpec::new(bad, 1).unwrap_err(), SpecError::Arity { .. }));
    }

    #[test]
    fn dense_on_unflattened_input_is_error() {
        let err =
            ModelSpec::chain(vec![4, 4, 2], vec![LayerSpec::Dense { units: 3, activation: None }])
                .unwrap_err();
        assert!(matches!(err, SpecError::Shape { .. }));
    }

    #[test]
    fn batchnorm_params_follow_channels() {
        let spec = ModelSpec::chain(vec![6, 6, 5], vec![LayerSpec::BatchNorm]).unwrap();
        let params = spec.param_shapes().unwrap();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].1.dims(), &[5]);
        assert_eq!(params[0].0, "n1_bn/gamma");
    }

    #[test]
    fn display_matches_paper_notation() {
        let d = LayerSpec::Dense { units: 50, activation: Some(Activation::Relu) };
        assert_eq!(d.to_string(), "Dense(50, relu)");
        assert_eq!(LayerSpec::Dropout { rate: 0.5 }.to_string(), "Dropout(0.5)");
    }

    #[test]
    fn summary_lists_every_node_and_total() {
        let spec = lenetish();
        let s = spec.summary().unwrap();
        assert!(s.contains("n1_conv2d"));
        assert!(s.contains("Conv2D(4, 3x3"));
        assert!(s.contains("(5, 5, 4)")); // pooled shape
        assert!(s.contains(&format!("total params: {}", spec.param_count().unwrap())));
        // One row per node plus header/footer lines.
        assert_eq!(s.lines().count(), spec.nodes().len() + 4);
    }

    #[test]
    fn empty_and_bad_output_rejected() {
        assert!(matches!(ModelSpec::new(vec![], 0).unwrap_err(), SpecError::Empty));
        let nodes = vec![NodeSpec::Input { shape: vec![2] }];
        assert!(matches!(ModelSpec::new(nodes, 5).unwrap_err(), SpecError::BadOutput));
    }
}
