//! Transfer demo: build two structurally similar CNNs by hand, inspect
//! their shape sequences, compare LP vs LCS plans (the paper's Fig. 3
//! scenario), and measure the convergence effect of the transfer.
//!
//! ```sh
//! cargo run --release -p swt --example transfer_demo
//! ```

use swt::nn::AdamConfig;
use swt::prelude::*;

/// A small CNN; `extra_conv` inserts one extra convolution in the middle,
/// exactly like the receiver of the paper's Fig. 3.
fn cnn(extra_conv: bool) -> ModelSpec {
    use swt::tensor::Padding;
    let mut ops = vec![
        LayerSpec::Conv2D { filters: 8, kernel: 3, padding: Padding::Same, l2: 0.0 },
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2D { size: 2, stride: 2 },
    ];
    if extra_conv {
        ops.push(LayerSpec::Conv2D { filters: 8, kernel: 3, padding: Padding::Same, l2: 0.0 });
        ops.push(LayerSpec::Activation(Activation::Relu));
    }
    ops.extend([LayerSpec::Flatten, LayerSpec::Dense { units: 10, activation: None }]);
    ModelSpec::chain(vec![10, 10, 1], ops).unwrap()
}

fn main() {
    let provider_spec = cnn(false);
    let receiver_spec = cnn(true);

    // Shape sequences (Fig. 3): one element per parameterised layer.
    let pseq = ShapeSeq::of(&provider_spec).unwrap();
    let rseq = ShapeSeq::of(&receiver_spec).unwrap();
    println!("provider shape sequence:");
    for e in pseq.entries() {
        println!("  {:<12} {}", e.layer, e.primary);
    }
    println!("receiver shape sequence (one inserted conv):");
    for e in rseq.entries() {
        println!("  {:<12} {}", e.layer, e.primary);
    }

    // LP stops at the insertion; LCS matches across it.
    let lp = TransferPlan::build(Matcher::Lp, &pseq, &rseq);
    let lcs = TransferPlan::build(Matcher::Lcs, &pseq, &rseq);
    println!(
        "\nLP : {} layers, {} tensors, {} bytes",
        lp.matched_layers(),
        lp.tensors(),
        lp.bytes()
    );
    println!(
        "LCS: {} layers, {} tensors, {} bytes  (>= LP, Section IV-A)",
        lcs.matched_layers(),
        lcs.tensors(),
        lcs.bytes()
    );
    for (p, r) in lcs.layers() {
        println!("  {p} -> {r}");
    }

    // Train the provider briefly, then compare the receiver's one-epoch
    // score with and without the transfer (the Fig. 4 pair experiment in
    // miniature).
    let (train, val) = swt::data::image_classification(512, 128, [10, 10, 1], 10, 0.5, 99);
    let trainer = Trainer::new(Loss::CategoricalCrossEntropy, Metric::Accuracy);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 64,
        adam: AdamConfig { lr: 0.01, ..Default::default() },
        shuffle_seed: 1,
        early_stop: None,
        convergence: None,
    };

    let mut provider = Model::build(&provider_spec, 1).unwrap();
    let mut warm = cfg.clone();
    warm.epochs = 3;
    let prov_report = trainer.fit(&mut provider, &train, &val, &warm);
    println!("\nprovider trained 3 epochs -> accuracy {:.3}", prov_report.final_metric);

    let mut cold = Model::build(&receiver_spec, 2).unwrap();
    let cold_report = trainer.fit(&mut cold, &train, &val, &cfg);

    let mut transferred = Model::build(&receiver_spec, 2).unwrap();
    let stats = apply_transfer(&lcs, &provider.state_dict(), &mut transferred);
    let warm_report = trainer.fit(&mut transferred, &train, &val, &cfg);

    println!(
        "receiver after 1 epoch:  random init {:.3}   LCS transfer {:.3}  ({} tensors moved)",
        cold_report.final_metric, warm_report.final_metric, stats.tensors
    );
    if warm_report.final_metric > cold_report.final_metric {
        println!("-> a positive pair: transfer accelerated convergence (Section IV-B)");
    } else {
        println!("-> a negative pair this time — transfer is not guaranteed to help");
    }
}
