//! Whole-model arena discipline.
//!
//! `swt-tensor`'s `alloc_discipline` pins the GEMM and conv kernels; this pins
//! a training step and a validation pass of a whole [`Model`] on a chain that
//! has every kind of layer state in it: conv → relu → pool (2/2) → batch-norm
//! → identity → conv → relu → pool (3/2) → flatten → dense → dropout → dense.
//! After two warm-up batches
//!
//! * a serial train step and a `Trainer::evaluate` pass make **zero**
//!   allocations of 4 KiB or more (control structures — the `Vec` of layer
//!   inputs, the loss's per-row probabilities — stay below that; a feature
//!   map, an argmax or a mask does not), and
//! * the arena's `pooled()` and `alloc_misses()` read the same after each of
//!   ten more batches, and
//! * a step counts three `tensor.gemm.*` contractions per conv or dense layer
//!   less one for each that is fed by the data set: nobody reads that input
//!   gradient, so it is not computed (also on a dense-first chain and an
//!   Uno-shaped concat of towers and a raw input).
//!
//! One `#[test]` on purpose: the allocation counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swt_nn::{
    Activation, Adam, AdamConfig, Dataset, LayerSpec, Loss, Metric, Model, ModelSpec, NodeSpec,
    Trainer,
};
use swt_tensor::{parallel, Padding, Rng, Tensor};

/// Allocations at least this large are what the arena exists to prevent.
const LARGE: usize = 4096;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warmed_model_step_and_evaluate_stay_inside_the_arena() {
    let conv = || LayerSpec::Conv2D { filters: 8, kernel: 3, padding: Padding::Same, l2: 5e-4 };
    let spec = ModelSpec::chain(
        vec![12, 12, 3],
        vec![
            conv(),
            LayerSpec::Activation(Activation::Relu),
            LayerSpec::MaxPool2D { size: 2, stride: 2 },
            LayerSpec::BatchNorm,
            LayerSpec::Identity,
            conv(),
            LayerSpec::Activation(Activation::Relu),
            LayerSpec::MaxPool2D { size: 3, stride: 2 },
            LayerSpec::Flatten,
            LayerSpec::Dense { units: 16, activation: Some(Activation::Relu) },
            LayerSpec::Dropout { rate: 0.25 },
            LayerSpec::Dense { units: 4, activation: None },
        ],
    )
    .unwrap();
    let mut model = Model::build(&spec, 7).unwrap();

    let mut rng = Rng::seed(1);
    let (n, batch) = (96usize, 32usize);
    let x = Tensor::rand_normal([n, 12, 12, 3], 0.0, 1.0, &mut rng);
    let mut y = Tensor::zeros([n, 4]);
    for row in 0..n {
        y.data_mut()[row * 4 + rng.below(4)] = 1.0;
    }
    let data = Dataset::new(vec![x], y);
    let batches = data.batch_indices(batch, None);
    let loss = Loss::CategoricalCrossEntropy;
    let trainer = Trainer::new(loss, Metric::Accuracy);
    let mut adam = Adam::new(AdamConfig::default());

    // `Trainer::fit`'s batch body.
    let step = |model: &mut Model, adam: &mut Adam, idx: &[usize]| {
        let (inputs, targets) = data.batch_ws(idx, model.workspace_mut());
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let pred = model.forward(&refs, true);
        let (_, grad) = loss.forward_backward_ws(&pred, &targets, model.workspace_mut());
        model.zero_grads();
        model.backward(&grad);
        adam.step(model);
        inputs.into_iter().for_each(|t| model.recycle(t));
        model.recycle(targets);
        model.recycle(pred);
        model.recycle(grad);
    };
    let arena = |model: &mut Model| {
        let ws = model.workspace_mut();
        (ws.pooled(), ws.alloc_misses())
    };

    let _one = parallel::scoped_max_threads(1);
    // Warm-up: two train batches and one validation pass touch every buffer
    // either mode ever asks for.
    for idx in &batches[..2] {
        step(&mut model, &mut adam, idx);
    }
    trainer.evaluate(&mut model, &data, batch);
    // Inference keeps less than training (no input copy, no x̂, no mask), so
    // each mode has its own resting pool size.
    let warm_eval = arena(&mut model);
    step(&mut model, &mut adam, &batches[0]);
    let warm = arena(&mut model);

    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for round in 0..10 {
        step(&mut model, &mut adam, &batches[round % batches.len()]);
        assert_eq!(arena(&mut model), warm, "train batch {round} moved the arena");
    }
    trainer.evaluate(&mut model, &data, batch);
    assert_eq!(arena(&mut model), warm_eval, "a validation pass moved the arena");
    step(&mut model, &mut adam, &batches[0]);
    assert_eq!(arena(&mut model), warm, "the step after validation moved the arena");
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(large, 0, "a warmed model made {large} allocation(s) of {LARGE} bytes or more");

    // Two convs and two dense layers are twelve contractions a step; the
    // first conv reads the batch itself, so its `dX` is not one of them.
    swt_obs::enable();
    let counted = gemms();
    step(&mut model, &mut adam, &batches[0]);
    assert_eq!(gemms() - counted, 4 * 3 - 1, "contractions in one step of the chain");
    assert_eq!(arena(&mut model), warm, "the counted step moved the arena");

    // The same count on a dense-first chain and on Uno's shape — two towers
    // and one raw input into a concat: each input-fed dense layer skips one.
    let dense = |units| LayerSpec::Dense { units, activation: Some(Activation::Relu) };
    let layer = |op, input| NodeSpec::Layer { op, inputs: vec![input] };
    let uno = ModelSpec::new(
        vec![
            NodeSpec::Input { shape: vec![96] },
            NodeSpec::Input { shape: vec![160] },
            NodeSpec::Input { shape: vec![8] },
            layer(dense(64), 0),
            layer(dense(32), 3),
            layer(dense(64), 1),
            NodeSpec::Layer { op: LayerSpec::Concat, inputs: vec![4, 5, 2] },
            layer(dense(1), 6),
        ],
        7,
    )
    .unwrap();
    let chain = ModelSpec::chain(vec![96], vec![dense(64), dense(32), dense(1)]).unwrap();
    for (spec, widths, layers, input_fed) in
        [(&chain, &[96][..], 3, 1), (&uno, &[96, 160, 8][..], 4, 2)]
    {
        let mut model = Model::build(spec, 7).unwrap();
        let inputs: Vec<Tensor> =
            widths.iter().map(|&w| Tensor::rand_normal([32, w], 0.0, 1.0, &mut rng)).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let counted = gemms();
        let pred = model.forward(&refs, true);
        model.backward(&pred);
        assert_eq!(gemms() - counted, layers * 3 - input_fed, "contractions in one step");
    }
    swt_obs::disable();
}

/// Every `tensor.gemm.*` contraction counted so far.
fn gemms() -> u64 {
    ["tensor.gemm.small", "tensor.gemm.blocked.scalar", "tensor.gemm.blocked.simd"]
        .iter()
        .map(|name| swt_obs::registry::global().counter(name).get())
        .sum()
}
