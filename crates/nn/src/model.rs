//! Trainable model: a [`ModelSpec`] materialised into layer instances.

use crate::layers::{
    ws_copy, ActivationLayer, BatchNormLayer, ConcatLayer, ConvLayer, DenseLayer, DropoutLayer,
    Layer, MaxPoolLayer,
};
use crate::spec::{LayerSpec, ModelSpec, NodeSpec, SpecError};
use std::sync::Arc;
use std::time::Instant;
use swt_obs::Histogram;
use swt_tensor::{Rng, Shape, Tensor, Workspace};

/// A built model: DAG of layer instances plus the spec it came from.
///
/// Construction is deterministic: all weight initialisation and dropout
/// randomness derives from the `seed` passed to [`Model::build`], with one
/// forked stream per node, so two builds from the same `(spec, seed)` are
/// identical — the property the baseline-vs-transfer experiments rely on.
///
/// The model is the **single owner of activations**: each node's forward
/// output lives in `outputs` until the next batch, and a layer's `backward`
/// is handed its inputs and output from there instead of keeping copies.
/// A node that changes no value ([`LayerSpec::passes_through`]) has no layer
/// at all: the model moves its input's tensor through, reshaped. Nor has an
/// `Activation` node whose input's layer took it over
/// ([`Layer::fold_activation`]): it moves that layer's output through, so
/// the pair holds one tensor. All of it is drawn from the model's own
/// [`Workspace`] scratch arena and recycled batch over batch, so
/// steady-state training allocates no tensor storage; the arena goes with
/// the model.
pub struct Model {
    spec: ModelSpec,
    /// `None` for input nodes, identity/flatten nodes and folded activations:
    /// the nodes that always pass their input through.
    layers: Vec<Option<Box<dyn Layer>>>,
    input_nodes: Vec<usize>,
    /// Per-sample output shape of every node.
    sample_shapes: Vec<Shape>,
    /// Readers of each node's output: consuming layer nodes, plus the caller
    /// for the output node. An output with one reader may be given away.
    consumers: Vec<usize>,
    /// Per-node forward outputs, kept for the backward pass. `None` for a
    /// node whose output was moved on (see `moved_from`) and, outside
    /// training, for input nodes (read in place from the caller's batch).
    outputs: Vec<Option<Tensor>>,
    /// `moved_from[i] = Some(j)`: pass-through node `i` took node `j`'s
    /// output as its own instead of copying it. Backward hands the tensor
    /// back to `j` when it passes `i`.
    moved_from: Vec<Option<usize>>,
    /// Backward's per-node gradient slots (all `None` between passes).
    grads: Vec<Option<Tensor>>,
    /// Per node, per input: whether that input's gradient has a reader — a
    /// parameter at or upstream of the node that produced it. The data set
    /// has none, so neither has an input node or a parameter-free layer fed
    /// only by such; a layer is not asked for (and does not compute) a
    /// gradient that would only be recycled.
    wanted: Vec<Vec<bool>>,
    /// Per-node `nn.layer.<kind>.{fwd,bwd}_ns` histograms, resolved on the
    /// first pass that finds instrumentation enabled.
    layer_obs: Vec<Option<LayerObs>>,
    ws: Workspace,
}

/// Per-call time histograms of one layer kind (`LayerSpec::kind`): the
/// count is the calls, the sum the nanoseconds.
struct LayerObs {
    fwd_ns: Arc<Histogram>,
    bwd_ns: Arc<Histogram>,
}

impl LayerObs {
    fn for_kind(kind: &str) -> LayerObs {
        let histogram =
            |pass: &str| swt_obs::registry::global().histogram(&format!("nn.layer.{kind}.{pass}"));
        LayerObs { fwd_ns: histogram("fwd_ns"), bwd_ns: histogram("bwd_ns") }
    }
}

impl Model {
    /// Build the model described by `spec`, initialising parameters from
    /// `seed`.
    pub fn build(spec: &ModelSpec, seed: u64) -> Result<Model, SpecError> {
        let shapes = spec.infer_shapes()?;
        let mut root = Rng::seed(seed);
        let n = spec.nodes().len();
        let mut layers: Vec<Option<Box<dyn Layer>>> = Vec::with_capacity(n);
        let mut consumers = vec![0usize; n];
        consumers[spec.output()] += 1;
        // Whether anything reads the gradient of node `j`'s output.
        let mut has_reader = vec![false; n];
        let mut wanted = vec![Vec::new(); n];
        for (i, node) in spec.nodes().iter().enumerate() {
            let layer: Option<Box<dyn Layer>> = match node {
                NodeSpec::Input { .. } => None,
                NodeSpec::Layer { op, inputs } => {
                    inputs.iter().for_each(|&j| consumers[j] += 1);
                    let mut rng = root.fork(i as u64);
                    let layer = build_layer(op, &shapes[inputs[0]], &mut rng);
                    wanted[i] = inputs.iter().map(|&j| has_reader[j]).collect();
                    let mut has_params = false;
                    layer.iter().for_each(|l| l.visit_params(&mut |_, _| has_params = true));
                    has_reader[i] = has_params || wanted[i].contains(&true);
                    layer
                }
            };
            layers.push(layer);
        }
        // An activation whose input nothing else reads runs inside that
        // input's layer, if the layer can take it.
        for (i, node) in spec.nodes().iter().enumerate() {
            if let NodeSpec::Layer { op: LayerSpec::Activation(a), inputs } = node {
                let j = inputs[0];
                if consumers[j] == 1 && layers[j].as_mut().is_some_and(|l| l.fold_activation(*a)) {
                    layers[i] = None;
                }
            }
        }
        Ok(Model {
            spec: spec.clone(),
            input_nodes: spec.input_nodes(),
            sample_shapes: shapes,
            consumers,
            outputs: vec![None; n],
            moved_from: vec![None; n],
            grads: vec![None; n],
            wanted,
            layer_obs: Vec::new(),
            layers,
            ws: Workspace::new(),
        })
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Borrow the model's scratch arena (e.g. for building batches out of
    /// pooled buffers).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Return a tensor's storage to the model's scratch arena.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.recycle(t);
    }

    /// Recycle the previous batch's node outputs.
    fn release_activations(&mut self) {
        for slot in self.outputs.iter_mut() {
            if let Some(old) = slot.take() {
                self.ws.recycle(old);
            }
        }
        self.moved_from.fill(None);
    }

    /// Whether this pass is timed per layer kind; resolves the histograms
    /// the first time it is.
    fn layer_timing(&mut self) -> bool {
        let timed = swt_obs::enabled();
        if timed && self.layer_obs.is_empty() {
            self.layer_obs = (self.spec.nodes().iter())
                .map(|node| match node {
                    NodeSpec::Input { .. } => None,
                    NodeSpec::Layer { op, .. } => Some(LayerObs::for_kind(op.kind())),
                })
                .collect();
        }
        timed
    }

    /// Forward pass. `inputs` must match [`ModelSpec::input_nodes`] in count
    /// and order, each with a leading batch dimension.
    ///
    /// Only a `training` pass keeps what [`Model::backward`] needs.
    pub fn forward(&mut self, inputs: &[&Tensor], training: bool) -> Tensor {
        assert_eq!(inputs.len(), self.input_nodes.len(), "wrong number of model inputs");
        let batch = inputs[0].shape().dim(0);
        for t in inputs {
            assert_eq!(t.shape().dim(0), batch, "inconsistent batch sizes");
        }
        self.release_activations();
        let timed = self.layer_timing();
        let mut next_input = 0;
        for i in 0..self.spec.nodes().len() {
            let produced = |outputs, j| produced(outputs, &self.input_nodes, inputs, j);
            let out = match &self.spec.nodes()[i] {
                NodeSpec::Input { shape } => {
                    let t = inputs[next_input];
                    assert_eq!(
                        &t.shape().dims()[1..],
                        shape.as_slice(),
                        "input {next_input} per-sample shape mismatch"
                    );
                    next_input += 1;
                    // Backward runs after the caller's borrow has ended, so
                    // training keeps the batch; inference reads it in place.
                    if !training {
                        continue;
                    }
                    ws_copy(t, &mut self.ws)
                }
                NodeSpec::Layer { op, inputs: in_ids } => {
                    let timing = timed.then(|| (&self.layer_obs[i], Instant::now()));
                    let out = if self.layers[i].is_none() || op.passes_through(training) {
                        // Nothing to compute here: a sole reader takes the
                        // tensor itself, anyone else a copy.
                        let j = in_ids[0];
                        let own =
                            (self.consumers[j] == 1).then(|| self.outputs[j].take()).flatten();
                        self.moved_from[i] = own.is_some().then_some(j);
                        own.unwrap_or_else(|| ws_copy(produced(&self.outputs, j), &mut self.ws))
                            .reshape(batched(batch, &self.sample_shapes[i]))
                    } else {
                        let gathered: Vec<&Tensor> =
                            in_ids.iter().map(|&j| produced(&self.outputs, j)).collect();
                        let layer = self.layers[i].as_mut().expect("layer node");
                        layer.forward(&gathered, training, &mut self.ws)
                    };
                    if let Some((Some(obs), since)) = timing {
                        obs.fwd_ns.observe(since.elapsed().as_nanos() as u64);
                    }
                    out
                }
            };
            self.outputs[i] = Some(out);
        }
        let out = &mut self.outputs[self.spec.output()];
        if training {
            ws_copy(out.as_ref().expect("output node"), &mut self.ws)
        } else {
            out.take().expect("output node")
        }
    }

    /// Backward pass from the loss gradient of the output; must follow a
    /// `training` [`Model::forward`]. Every layer's parameter gradients are
    /// set to this pass's (see [`Layer::backward`]); a parameterised node the
    /// pass does not reach keeps what it had, which [`Model::zero_grads`]
    /// before the pass makes zero. A layer is asked
    /// only for the input gradients that have a reader (`wanted`): the first
    /// convolution's or dense layer's input gradient is never computed.
    pub fn backward(&mut self, dout: &Tensor) {
        const NO_FORWARD: &str = "backward without a training-mode forward";
        let timed = self.layer_timing();
        let batch = dout.shape().dim(0);
        self.grads[self.spec.output()] = Some(ws_copy(dout, &mut self.ws));
        for i in (0..self.spec.nodes().len()).rev() {
            let Some(mut grad) = self.grads[i].take() else { continue };
            let NodeSpec::Layer { op, inputs: in_ids } = &self.spec.nodes()[i] else {
                self.ws.recycle(grad);
                continue; // input node: gradient terminates
            };
            let timing = timed.then(|| (&self.layer_obs[i], Instant::now()));
            let input_grads = if self.layers[i].is_none() || op.passes_through(true) {
                let j = in_ids[0];
                let input_shape = batched(batch, &self.sample_shapes[j]);
                // The activation this node took goes back to its producer,
                // whose own backward is still to come.
                if self.moved_from[i].take().is_some() {
                    let y = self.outputs[i].take().expect(NO_FORWARD);
                    self.outputs[j] = Some(y.reshape(input_shape.clone()));
                }
                vec![Some(grad.reshape(input_shape))]
            } else {
                let gathered: Vec<&Tensor> =
                    in_ids.iter().map(|&j| self.outputs[j].as_ref().expect(NO_FORWARD)).collect();
                let output = self.outputs[i].as_ref().expect(NO_FORWARD);
                let layer = self.layers[i].as_mut().expect("layer node");
                let input_grads =
                    layer.backward(&gathered, output, &mut grad, &self.wanted[i], &mut self.ws);
                self.ws.recycle(grad);
                input_grads
            };
            if let Some((Some(obs), since)) = timing {
                obs.bwd_ns.observe(since.elapsed().as_nanos() as u64);
            }
            debug_assert_eq!(input_grads.len(), in_ids.len());
            for (j, g) in in_ids.iter().zip(input_grads) {
                let Some(g) = g else { continue };
                match &mut self.grads[*j] {
                    Some(acc) => {
                        acc.axpy(1.0, &g);
                        self.ws.recycle(g);
                    }
                    slot => *slot = Some(g),
                }
            }
        }
    }

    /// Make every parameter gradient read zero until the next
    /// [`Model::backward`] sets it.
    pub fn zero_grads(&mut self) {
        for layer in self.layers.iter_mut().flatten() {
            layer.zero_grads();
        }
    }

    /// Visit `(full_name, param, grad)` for the optimizer. Names are
    /// `n{idx}_{kind}/{local}` and enumeration order is deterministic.
    pub fn visit_updates(&mut self, f: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let Some(layer) = layer else { continue };
            let prefix = self.spec.node_name(i);
            layer.visit_updates(&mut |local, p, g| f(&format!("{prefix}/{local}"), p, g));
        }
    }

    /// Name-free variant of [`Model::visit_updates`] for the per-step
    /// optimizer hot path: same deterministic enumeration order, but without
    /// formatting a `String` per parameter per step.
    pub fn visit_updates_fast(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in self.layers.iter_mut().flatten() {
            layer.visit_updates(&mut |_local, p, g| f(p, g));
        }
    }

    /// Trainable parameters as `(full_name, value)` in topological order —
    /// guaranteed to align with [`ModelSpec::param_shapes`].
    pub fn named_params(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let Some(layer) = layer else { continue };
            let prefix = self.spec.node_name(i);
            layer.visit_params(&mut |local, t| out.push((format!("{prefix}/{local}"), t.clone())));
        }
        out
    }

    /// Overwrite one trainable parameter by full name. The shape must match.
    /// Returns false if the name is unknown or the shape differs.
    pub fn set_param(&mut self, full_name: &str, value: &Tensor) -> bool {
        let Some((node_name, local)) = full_name.split_once('/') else { return false };
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let Some(layer) = layer else { continue };
            if self.spec.node_name(i) != node_name {
                continue;
            }
            let mut done = false;
            layer.visit_params_mut(&mut |name, p| {
                if name == local && p.shape() == value.shape() {
                    *p = value.clone();
                    done = true;
                }
            });
            return done;
        }
        false
    }

    /// Full persistent state: trainable parameters followed by non-trainable
    /// layer state (batch-norm running statistics). This is what checkpoints
    /// store.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = self.named_params();
        for (i, layer) in self.layers.iter().enumerate() {
            let Some(layer) = layer else { continue };
            let prefix = self.spec.node_name(i);
            layer.visit_state(&mut |local, t| out.push((format!("{prefix}/{local}"), t.clone())));
        }
        out
    }

    /// Restore parameters and state from a checkpoint's entries. Entries with
    /// unknown names or mismatched shapes are counted as skipped; the return
    /// value is `(loaded, skipped)`.
    pub fn load_state_dict(&mut self, entries: &[(String, Tensor)]) -> (usize, usize) {
        let mut loaded = 0;
        let mut skipped = 0;
        for (name, value) in entries {
            if self.set_param(name, value) {
                loaded += 1;
                continue;
            }
            // Try non-trainable state.
            let mut ok = false;
            if let Some((node_name, local)) = name.split_once('/') {
                for (i, layer) in self.layers.iter_mut().enumerate() {
                    let Some(layer) = layer else { continue };
                    if self.spec.node_name(i) == node_name {
                        ok = layer.load_state(local, value);
                        break;
                    }
                }
            }
            if ok {
                loaded += 1;
            } else {
                skipped += 1;
            }
        }
        (loaded, skipped)
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.named_params().iter().map(|(_, t)| t.numel()).sum()
    }
}

/// What node `j` produced: the model's tensor, or — for an input node
/// outside training — the caller's.
fn produced<'a>(
    outputs: &'a [Option<Tensor>],
    input_nodes: &[usize],
    inputs: &[&'a Tensor],
    j: usize,
) -> &'a Tensor {
    match &outputs[j] {
        Some(t) => t,
        None => inputs[input_nodes.iter().position(|&n| n == j).expect("topo order")],
    }
}

/// `(batch, sample dims…)` as a shape.
fn batched(batch: usize, sample: &Shape) -> Shape {
    let mut dims = [batch; 8];
    let rank = 1 + sample.rank();
    dims[1..rank].copy_from_slice(sample.dims());
    Shape::from(&dims[..rank])
}

/// The layer behind `op`; `None` for operations the model passes through
/// itself in every mode.
fn build_layer(op: &LayerSpec, input_shape: &Shape, rng: &mut Rng) -> Option<Box<dyn Layer>> {
    Some(match op {
        LayerSpec::Identity | LayerSpec::Flatten => return None,
        LayerSpec::Dense { units, activation } => {
            Box::new(DenseLayer::new(input_shape.dim(0), *units, *activation, rng))
        }
        LayerSpec::Activation(a) => Box::new(ActivationLayer::new(*a)),
        LayerSpec::Conv2D { filters, kernel: k, padding, l2 } => {
            Box::new(ConvLayer::new(&[*k, *k], input_shape.dim(2), *filters, *padding, *l2, rng))
        }
        LayerSpec::Conv1D { filters, kernel: k, padding, l2 } => {
            Box::new(ConvLayer::new(&[*k], input_shape.dim(1), *filters, *padding, *l2, rng))
        }
        LayerSpec::MaxPool2D { size, stride } | LayerSpec::MaxPool1D { size, stride } => {
            Box::new(MaxPoolLayer::new(*size, *stride))
        }
        LayerSpec::BatchNorm => {
            Box::new(BatchNormLayer::new(input_shape.dim(input_shape.rank() - 1)))
        }
        LayerSpec::Dropout { rate } => Box::new(DropoutLayer::new(*rate, rng.fork(0xD80))),
        LayerSpec::Concat => Box::new(ConcatLayer::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Activation;
    use swt_tensor::Padding;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every parameter gradient a layer holds, `to_bits()`, in visit order.
    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        layer.visit_updates(&mut |_, _, g| out.push(bits(g)));
        out
    }

    fn small_cnn() -> ModelSpec {
        ModelSpec::chain(
            vec![6, 6, 1],
            vec![
                LayerSpec::Conv2D { filters: 3, kernel: 3, padding: Padding::Same, l2: 0.0 },
                LayerSpec::Activation(Activation::Relu),
                LayerSpec::MaxPool2D { size: 2, stride: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense { units: 4, activation: None },
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_is_seed_deterministic() {
        let spec = small_cnn();
        let a = Model::build(&spec, 99).unwrap();
        let b = Model::build(&spec, 99).unwrap();
        for ((na, ta), (nb, tb)) in a.named_params().iter().zip(b.named_params().iter()) {
            assert_eq!(na, nb);
            assert!(ta.approx_eq(tb, 0.0), "param {na} differs across same-seed builds");
        }
        let c = Model::build(&spec, 100).unwrap();
        let any_diff = a
            .named_params()
            .iter()
            .zip(c.named_params().iter())
            .any(|((_, ta), (_, tc))| !ta.approx_eq(tc, 0.0));
        assert!(any_diff, "different seeds must differ");
    }

    #[test]
    fn named_params_align_with_spec_param_shapes() {
        let spec = small_cnn();
        let model = Model::build(&spec, 1).unwrap();
        let built: Vec<(String, Shape)> =
            model.named_params().into_iter().map(|(n, t)| (n, t.shape().clone())).collect();
        let declared = spec.param_shapes().unwrap();
        assert_eq!(built, declared);
        assert_eq!(model.param_count(), spec.param_count().unwrap());
    }

    #[test]
    fn forward_shape_and_determinism() {
        let spec = small_cnn();
        let mut model = Model::build(&spec, 5).unwrap();
        let mut rng = Rng::seed(7);
        let x = Tensor::rand_normal([2, 6, 6, 1], 0.0, 1.0, &mut rng);
        let y1 = model.forward(&[&x], false);
        assert_eq!(y1.shape().dims(), &[2, 4]);
        let y2 = model.forward(&[&x], false);
        assert!(y1.approx_eq(&y2, 0.0), "inference must be deterministic");
    }

    #[test]
    fn end_to_end_gradient_check() {
        // A smooth variant (tanh, no max-pool) so the central-difference
        // probe is valid everywhere. The tanh output is moved on through
        // identity, flatten and a rate-0 dropout, so its own backward only
        // sees it if the model hands it back, in its original shape.
        let spec = ModelSpec::chain(
            vec![6, 6, 1],
            vec![
                LayerSpec::Conv2D { filters: 3, kernel: 3, padding: Padding::Same, l2: 0.0 },
                LayerSpec::Activation(Activation::Tanh),
                LayerSpec::Identity,
                LayerSpec::Flatten,
                LayerSpec::Dropout { rate: 0.0 },
                LayerSpec::Dense { units: 4, activation: Some(Activation::Tanh) },
            ],
        )
        .unwrap();
        let mut model = Model::build(&spec, 3).unwrap();
        let mut rng = Rng::seed(11);
        let x = Tensor::rand_normal([2, 6, 6, 1], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([2, 4], 0.0, 1.0, &mut rng);
        // Loss = <w, model(x)>.
        let y = model.forward(&[&x], true);
        model.zero_grads();
        model.backward(&w);
        let mut grads: Vec<(String, Tensor)> = Vec::new();
        model.visit_updates(&mut |n, _p, g| grads.push((n.to_string(), g.clone())));
        let _ = y;
        let eps = 1e-2f32;
        for (name, grad) in &grads {
            for probe in 0..grad.numel().min(5) {
                let i = probe * grad.numel().div_ceil(5).max(1) % grad.numel();
                let peek = |model: &mut Model, delta: f32| -> f32 {
                    model.visit_updates(&mut |n, p, _g| {
                        if n == name {
                            p.data_mut()[i] += delta;
                        }
                    });
                    let v = model.forward(&[&x], true).zip_map(&w, |a, b| a * b).sum();
                    model.visit_updates(&mut |n, p, _g| {
                        if n == name {
                            p.data_mut()[i] -= delta;
                        }
                    });
                    v
                };
                let num = (peek(&mut model, eps) - peek(&mut model, -eps)) / (2.0 * eps);
                assert!(
                    (num - grad.data()[i]).abs() < 3e-2,
                    "{name}[{i}]: analytic {} numeric {num}",
                    grad.data()[i]
                );
            }
        }
    }

    #[test]
    fn identity_nodes_cost_no_buffers() {
        // A step through identity/flatten/inference-dropout nodes draws the
        // same number of arena buffers as a step without them: they pass the
        // activation (and its gradient) through instead of copying it.
        let dense = |units| LayerSpec::Dense { units, activation: Some(Activation::Relu) };
        let buffers_for = |layers: Vec<LayerSpec>| {
            let mut model = Model::build(&ModelSpec::chain(vec![5], layers).unwrap(), 2).unwrap();
            let x = Tensor::ones([3, 5]);
            for training in [true, false] {
                let y = model.forward(&[&x], training);
                if training {
                    model.backward(&y);
                }
                model.recycle(y);
            }
            model.workspace_mut().pooled() + model.outputs.iter().flatten().count()
        };
        let plain = buffers_for(vec![dense(4), dense(2)]);
        let padded = buffers_for(vec![
            dense(4),
            LayerSpec::Identity,
            LayerSpec::Flatten,
            LayerSpec::Dropout { rate: 0.0 },
            LayerSpec::Identity,
            dense(2),
        ]);
        assert_eq!(padded, plain);
    }

    /// A conv → relu pair holds one feature map after a training forward,
    /// not two: the relu runs in the conv's write-back and its node takes
    /// the conv's tensor.
    #[test]
    fn a_conv_relu_pair_holds_one_feature_map() {
        let conv = LayerSpec::Conv2D { filters: 4, kernel: 3, padding: Padding::Same, l2: 0.0 };
        let relu = LayerSpec::Activation(Activation::Relu);
        let spec =
            ModelSpec::chain(vec![6, 6, 2], vec![conv.clone(), relu.clone(), conv, relu]).unwrap();
        let mut model = Model::build(&spec, 1).unwrap();
        let x = Tensor::rand_normal([2, 6, 6, 2], 0.0, 1.0, &mut Rng::seed(3));
        let y = model.forward(&[&x], true);
        let held: Vec<usize> = model.outputs.iter().flatten().map(Tensor::numel).collect();
        // The batch's copy, then one 6×6×4 map per pair.
        assert_eq!(held, [2 * 6 * 6 * 2, 2 * 6 * 6 * 4, 2 * 6 * 6 * 4]);
        model.backward(&y);
    }

    /// The layer `op` builds unfused, holding the parameters of `model`, the
    /// one-layer model that built `op`, after all are redrawn: a fresh bias is
    /// zero, and would hide one added in the wrong place.
    fn unfused_twin(
        model: &mut Model,
        op: &LayerSpec,
        input: &[usize],
        rng: &mut Rng,
    ) -> Box<dyn Layer> {
        for (name, t) in model.named_params() {
            assert!(model.set_param(&name, &Tensor::rand_normal(t.shape().clone(), 0.0, 0.5, rng)));
        }
        let mut layer = build_layer(op, &Shape::from(input), &mut Rng::seed(0)).expect("a layer");
        let mut params = model.named_params().into_iter().map(|(_, t)| t);
        layer.visit_params_mut(&mut |_, p| *p = params.next().unwrap());
        layer
    }

    /// A folded activation computes, to the bit, what its producer's layer
    /// and an `ActivationLayer` computed one after the other: the outputs in
    /// training and in inference, the producer's kernel and bias gradients,
    /// and its input gradient — for every producer that folds and every
    /// activation. A conv whose output has a second reader stays unfused and
    /// matches its composition too.
    #[test]
    fn a_folded_activation_matches_the_layer_by_layer_composition_bitwise() {
        let mut rng = Rng::seed(41);
        let batched = |sample: &[usize]| [&[4][..], sample].concat();
        let producers = [
            (
                LayerSpec::Conv2D { filters: 5, kernel: 3, padding: Padding::Same, l2: 5e-4 },
                &[6, 6, 3][..],
            ),
            (
                LayerSpec::Conv1D { filters: 5, kernel: 3, padding: Padding::Valid, l2: 0.0 },
                &[9, 3],
            ),
            (LayerSpec::Dense { units: 5, activation: None }, &[7]),
        ];
        for (producer, sample) in &producers {
            for a in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
                let what = format!("{producer:?} → {a}");
                let chain = vec![producer.clone(), LayerSpec::Activation(a)];
                let mut fused =
                    Model::build(&ModelSpec::chain(sample.to_vec(), chain).unwrap(), 5).unwrap();
                assert!(fused.layers[2].is_none(), "{what}: not folded");
                // The two layers as they ran unfused, on the fused model's
                // parameters.
                let mut layer = unfused_twin(&mut fused, producer, sample, &mut rng);
                let mut act = ActivationLayer::new(a);
                let mut ws = Workspace::new();

                let x = Tensor::rand_normal(batched(sample), 0.0, 1.0, &mut rng);
                let pre = layer.forward(&[&x], true, &mut ws);
                let y = act.forward(&[&pre], true, &mut ws);
                assert_eq!(bits(&fused.forward(&[&x], false)), bits(&y), "{what}: inference");
                let y_fused = fused.forward(&[&x], true);
                assert_eq!(bits(&y_fused), bits(&y), "{what}: training");

                let dout = Tensor::rand_normal(y.shape().clone(), 0.0, 1.0, &mut rng);
                fused.zero_grads();
                fused.backward(&dout);
                let mut dpre = act
                    .backward(&[&pre], &y, &mut dout.clone(), &[true], &mut ws)
                    .remove(0)
                    .unwrap();
                let dx =
                    layer.backward(&[&x], &pre, &mut dpre, &[true], &mut ws).remove(0).unwrap();
                let own = fused.layers[1].as_deref_mut().unwrap();
                assert_eq!(grad_bits(own), grad_bits(layer.as_mut()), "{what}: d_kernel, d_bias");
                // The model never asks a first layer for its input gradient,
                // so ask the layer it built.
                let mut dout = dout;
                let dx_fused = own.backward(&[&x], &y_fused, &mut dout, &[true], &mut ws).remove(0);
                assert_eq!(bits(&dx_fused.unwrap()), bits(&dx), "{what}: d_input");
            }
        }

        // input → conv → relu → flatten ┐
        //           └───────→ flatten ──┴→ concat
        let conv = producers[0].0.clone();
        let node = |op, inputs| NodeSpec::Layer { op, inputs };
        let spec = ModelSpec::new(
            vec![
                NodeSpec::Input { shape: vec![6, 6, 3] },
                node(conv.clone(), vec![0]),
                node(LayerSpec::Activation(Activation::Relu), vec![1]),
                node(LayerSpec::Flatten, vec![2]),
                node(LayerSpec::Flatten, vec![1]),
                node(LayerSpec::Concat, vec![3, 4]),
            ],
            5,
        )
        .unwrap();
        let mut model = Model::build(&spec, 5).unwrap();
        assert!(model.layers[2].is_some(), "a conv read twice must keep its output");
        let mut layer = unfused_twin(&mut model, &conv, &[6, 6, 3], &mut rng);
        let (mut act, mut concat) = (ActivationLayer::new(Activation::Relu), ConcatLayer::new());
        let mut ws = Workspace::new();

        let x = Tensor::rand_normal([4, 6, 6, 3], 0.0, 1.0, &mut rng);
        let pre = layer.forward(&[&x], true, &mut ws);
        let r = act.forward(&[&pre], true, &mut ws);
        let flat = |t: &Tensor| t.clone().reshape([4, 6 * 6 * 5]);
        let (r_flat, pre_flat) = (flat(&r), flat(&pre));
        let y = concat.forward(&[&r_flat, &pre_flat], true, &mut ws);
        assert_eq!(bits(&model.forward(&[&x], true)), bits(&y), "two readers: output");

        let dout = Tensor::rand_normal(y.shape().clone(), 0.0, 1.0, &mut rng);
        model.zero_grads();
        model.backward(&dout);
        let mut parts =
            concat.backward(&[&r_flat, &pre_flat], &y, &mut dout.clone(), &[true, true], &mut ws);
        let d_pre = parts.pop().unwrap().unwrap().reshape(pre.shape().clone());
        let mut d_r = parts.pop().unwrap().unwrap().reshape(r.shape().clone());
        let d_act = act.backward(&[&pre], &r, &mut d_r, &[true], &mut ws).remove(0).unwrap();
        // The model sums a shared output's gradients in reverse node order.
        let mut d_conv = d_pre;
        d_conv.axpy(1.0, &d_act);
        layer.backward(&[&x], &pre, &mut d_conv, &[false], &mut ws);
        let own = model.layers[1].as_deref_mut().unwrap();
        assert_eq!(grad_bits(own), grad_bits(layer.as_mut()), "two readers: d_kernel, d_bias");
    }

    #[test]
    fn set_param_validates_name_and_shape() {
        let spec = small_cnn();
        let mut model = Model::build(&spec, 1).unwrap();
        let good = Tensor::ones([3, 3, 1, 3]);
        assert!(model.set_param("n1_conv2d/kernel", &good));
        assert!(model.named_params()[0].1.approx_eq(&good, 0.0));
        assert!(!model.set_param("n1_conv2d/kernel", &Tensor::ones([2, 2, 1, 3])));
        assert!(!model.set_param("nope/kernel", &good));
        assert!(!model.set_param("malformed", &good));
    }

    #[test]
    fn state_dict_round_trip() {
        let spec = ModelSpec::chain(
            vec![4, 4, 2],
            vec![
                LayerSpec::BatchNorm,
                LayerSpec::Flatten,
                LayerSpec::Dense { units: 2, activation: None },
            ],
        )
        .unwrap();
        let mut a = Model::build(&spec, 1).unwrap();
        // Train-mode forward to move the running stats.
        let mut rng = Rng::seed(2);
        let x = Tensor::rand_normal([8, 4, 4, 2], 3.0, 2.0, &mut rng);
        let _ = a.forward(&[&x], true);
        let state = a.state_dict();
        assert!(state.iter().any(|(n, _)| n.ends_with("running_mean")));

        let mut b = Model::build(&spec, 999).unwrap();
        let (loaded, skipped) = b.load_state_dict(&state);
        assert_eq!(skipped, 0);
        assert_eq!(loaded, state.len());
        for ((_, ta), (_, tb)) in a.state_dict().iter().zip(b.state_dict().iter()) {
            assert!(ta.approx_eq(tb, 0.0));
        }
        // Identical state => identical inference.
        let ya = a.forward(&[&x], false);
        let yb = b.forward(&[&x], false);
        assert!(ya.approx_eq(&yb, 1e-6));
    }

    #[test]
    fn multi_input_concat_model() {
        let nodes = vec![
            NodeSpec::Input { shape: vec![3] },
            NodeSpec::Input { shape: vec![2] },
            NodeSpec::Layer {
                op: LayerSpec::Dense { units: 4, activation: Some(Activation::Relu) },
                inputs: vec![0],
            },
            NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![2, 1] },
            NodeSpec::Layer {
                op: LayerSpec::Dense { units: 1, activation: None },
                inputs: vec![3],
            },
        ];
        let spec = ModelSpec::new(nodes, 4).unwrap();
        let mut model = Model::build(&spec, 4).unwrap();
        let a = Tensor::ones([5, 3]);
        let b = Tensor::ones([5, 2]);
        let y = model.forward(&[&a, &b], true);
        assert_eq!(y.shape().dims(), &[5, 1]);
        model.zero_grads();
        model.backward(&Tensor::ones([5, 1]));
        // Both dense layers must have received gradients.
        let mut nonzero = 0;
        model.visit_updates(&mut |_n, _p, g| {
            if g.max_abs() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero >= 2, "expected gradients in both dense layers");
    }

    /// One training step's parameter gradients, `to_bits()`; `skip = false`
    /// asks every layer for every input gradient, as before there was a
    /// `wanted` to pass.
    fn step_grad_bits(spec: &ModelSpec, inputs: &[&Tensor], skip: bool) -> Vec<(String, Vec<u32>)> {
        let mut model = Model::build(spec, 21).unwrap();
        if !skip {
            model.wanted.iter_mut().for_each(|w| w.fill(true));
        }
        let y = model.forward(inputs, true);
        model.zero_grads();
        model.backward(&Tensor::ones(y.shape().clone()));
        assert!(model.grads.iter().all(Option::is_none), "a gradient slot outlived the pass");
        let mut grads = Vec::new();
        model.visit_updates(&mut |name, _, g| {
            grads.push((name.to_string(), g.data().iter().map(|v| v.to_bits()).collect()))
        });
        grads
    }

    /// A gradient only the data set would read is not computed, and no
    /// parameter gradient can tell: conv-first and dense-first chains, a
    /// parameter-free prefix, and an Uno-shaped concat of one raw input and
    /// two towers.
    #[test]
    fn unread_input_gradients_are_skipped_without_moving_a_bit() {
        let mut rng = Rng::seed(31);
        let dense = |units| LayerSpec::Dense { units, activation: Some(Activation::Tanh) };
        let conv = LayerSpec::Conv2D { filters: 12, kernel: 3, padding: Padding::Same, l2: 5e-4 };
        let image = Tensor::rand_normal([4, 8, 8, 3], 0.0, 1.0, &mut rng);
        let conv_first = ModelSpec::chain(
            vec![8, 8, 3],
            vec![
                conv.clone(),
                LayerSpec::BatchNorm,
                LayerSpec::MaxPool2D { size: 2, stride: 2 },
                conv.clone(),
                LayerSpec::Flatten,
                dense(5),
            ],
        )
        .unwrap();
        // Nothing before the batch-norm has a parameter, so its input
        // gradient — and the pool's and the activation's — has no reader.
        let free_prefix = ModelSpec::chain(
            vec![8, 8, 3],
            vec![
                LayerSpec::Activation(Activation::Tanh),
                LayerSpec::MaxPool2D { size: 2, stride: 2 },
                LayerSpec::Identity,
                LayerSpec::BatchNorm,
                conv,
                LayerSpec::Flatten,
                dense(5),
            ],
        )
        .unwrap();
        for spec in [&conv_first, &free_prefix] {
            assert_eq!(
                step_grad_bits(spec, &[&image], true),
                step_grad_bits(spec, &[&image], false)
            );
        }
        let wanted = |spec: &ModelSpec| Model::build(spec, 0).unwrap().wanted;
        assert_eq!(wanted(&conv_first)[1..=4], [vec![false], vec![true], vec![true], vec![true]]);
        assert_eq!(wanted(&free_prefix)[1..=5].concat(), [false, false, false, false, true]);

        let row = Tensor::rand_normal([6, 7], 0.0, 1.0, &mut rng);
        let dense_first = ModelSpec::chain(vec![7], vec![dense(9), dense(3)]).unwrap();
        assert_eq!(
            step_grad_bits(&dense_first, &[&row], true),
            step_grad_bits(&dense_first, &[&row], false)
        );

        let layer = |op, input| NodeSpec::Layer { op, inputs: vec![input] };
        let uno = ModelSpec::new(
            vec![
                NodeSpec::Input { shape: vec![7] },
                NodeSpec::Input { shape: vec![4] },
                NodeSpec::Input { shape: vec![3] },
                layer(dense(6), 0),
                layer(dense(5), 3),
                layer(dense(2), 1),
                NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![4, 2, 5] },
                layer(dense(1), 6),
            ],
            7,
        )
        .unwrap();
        let (b, c) = (Tensor::ones([6, 4]), Tensor::rand_normal([6, 3], 0.0, 1.0, &mut rng));
        assert_eq!(
            step_grad_bits(&uno, &[&row, &b, &c], true),
            step_grad_bits(&uno, &[&row, &b, &c], false)
        );
        assert_eq!(wanted(&uno)[6], [true, false, true]);
    }

    #[test]
    fn diamond_dag_accumulates_gradients() {
        // input -> id -> (two consumers) -> concat: gradient into the shared
        // node must be the sum of both branch gradients.
        let nodes = vec![
            NodeSpec::Input { shape: vec![2] },
            NodeSpec::Layer { op: LayerSpec::Identity, inputs: vec![0] },
            NodeSpec::Layer { op: LayerSpec::Identity, inputs: vec![1] },
            NodeSpec::Layer { op: LayerSpec::Identity, inputs: vec![1] },
            NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![2, 3] },
        ];
        let spec = ModelSpec::new(nodes, 4).unwrap();
        let mut model = Model::build(&spec, 0).unwrap();
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]);
        let y = model.forward(&[&x], true);
        assert_eq!(y.data(), &[1.0, 2.0, 1.0, 2.0]);
        // No trainable params, but backward must not panic and must fan-in.
        model.backward(&Tensor::ones([1, 4]));
    }
}
