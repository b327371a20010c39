//! GEMM / conv / end-to-end benchmark, emitting `BENCH_gemm.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_gemm [out.json]`
//!
//! Measures, single-threaded (so numbers are comparable across machines and
//! cap configurations), on the runtime-dispatched micro-kernel (AVX2+FMA
//! where detected):
//! * square and training-shaped products on both engines: `matmul.*` runs
//!   `A·B` on the broadcast-FMA tile, `matmul_bt.*` runs `A·Bᵀ` on the
//!   packed GEMM,
//! * the three products of a dense layer (`x·w`, `xᵀ·dy`, `dy·wᵀ`) at every
//!   shape the Uno space emits at batch 32 — the per-product table of the
//!   contraction-engine item (ROADMAP); the one-unit output layer takes the
//!   direct loops, the rest `x·w` and `xᵀ·dy` on the tile and `dy·wᵀ` on the
//!   packed GEMM — and one dropout forward at Uno's widest hidden layer,
//!   in nanoseconds per element,
//! * conv2d forward and backward on the Cifar10 space's first-block shapes
//!   at batch 64 (input `(64,12,12,c)`, kernel `3×3×c×f`, 'same' padding),
//!   then one row pair per thing the other layers of the spaces add: 'valid'
//!   padding, a 6×6 second-block image, an MNIST 5×5 kernel with `f = 12`,
//!   and an NT3 conv1d,
//! * one end-to-end `NasConfig::quick` run.
//!
//! Every GEMM and conv row also reports GFLOP/s (`gflops.*` in the JSON
//! header), so the convolutions read against the 256³ figure they are built
//! from. The JSON is committed as `BENCH_gemm.json` at the repository root
//! so perf changes show up in review diffs.

use std::hint::black_box;
use std::sync::Arc;
use swt::nn::layers::{DropoutLayer, Layer};
use swt::prelude::*;
use swt::tensor::{
    conv2d_backward, conv2d_forward, gemm_kernel_name, matmul, matmul_at_ws, matmul_bt,
    matmul_bt_ws, matmul_ws, Padding, Workspace,
};
use swt_bench::{median_ns, Harness};

/// Calls per timed sample of a microsecond-scale row, so the clock reads are
/// a negligible share of it.
const REPS: usize = 32;

/// One of a dense layer's three products, on the caller's arena.
type Product = fn(&Tensor, &Tensor, &mut Workspace) -> Tensor;

/// A product on the thread's own arena.
type Plain = fn(&Tensor, &Tensor) -> Tensor;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_gemm.json".to_string());
    // Fail on an unwritable path now, not after minutes of measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Single-threaded kernels: the numbers here must come from the kernels
    // themselves, not from parallel fan-out.
    let _one_thread = swt::tensor::parallel::scoped_max_threads(1);

    let mut h = Harness::new();
    let mut rng = Rng::seed(0xBE7C);
    // (row name, floating-point operations of one iteration)
    let mut flops: Vec<(String, f64)> = Vec::new();

    // Square products (the 256 case is the headline number) plus one
    // training-shaped problem, batch x hidden times hidden x hidden, on each
    // engine: `A·B` on the tile, `A·Bᵀ` on the packed GEMM.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (512, 512, 512), (64, 1024, 256)] {
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let bt = b.transpose2();
        let engines: [(&str, Plain, _); 2] =
            [("matmul", matmul, &b), ("matmul_bt", matmul_bt, &bt)];
        for (entry, product, rhs) in engines {
            let name = format!("{entry}.{m}x{k}x{n}");
            h.bench(&name, || {
                black_box(product(&a, rhs));
            });
            flops.push((name, 2.0 * (m * k * n) as f64));
        }
    }

    // A dense layer's three products at Uno's shapes, through the entry
    // points and the arena the layer uses.
    let mut ws = Workspace::new();
    for &k in &[64usize, 96, 128, 160, 321] {
        for &n in &[1usize, 32, 64, 128] {
            let x = Tensor::rand_normal([32, k], 0.0, 1.0, &mut rng);
            let w = Tensor::rand_normal([k, n], 0.0, 0.1, &mut rng);
            let dy = Tensor::rand_normal([32, n], 0.0, 1.0, &mut rng);
            let products: [(&str, Product, _, _); 3] = [
                ("matmul", matmul_ws, &x, &w),
                ("matmul_at", matmul_at_ws, &x, &dy),
                ("matmul_bt", matmul_bt_ws, &dy, &w),
            ];
            for (entry, product, lhs, rhs) in products {
                let name = format!("dense.{entry}.32x{k}x{n}");
                let (ns, iters) = median_ns(|| {
                    for _ in 0..REPS {
                        let out = product(black_box(lhs), black_box(rhs), &mut ws);
                        ws.recycle(black_box(out));
                    }
                });
                h.record(&name, ns / REPS as f64, iters);
                flops.push((name, 2.0 * (32 * k * n) as f64));
            }
        }
    }

    // Dropout's training forward (mask draw + scale) on a 32×160 activation.
    let x = Tensor::rand_normal([32, 160], 0.0, 1.0, &mut rng);
    let mut dropout = DropoutLayer::new(0.3, Rng::seed(1));
    let (ns, iters) = median_ns(|| {
        for _ in 0..REPS {
            let y = dropout.forward(&[black_box(&x)], true, &mut ws);
            ws.recycle(black_box(y));
        }
    });
    h.record("dropout.fwd.32x160", ns / REPS as f64, iters);
    let dropout_ns_per_element = ns / REPS as f64 / x.numel() as f64;

    // Convolutions at the spaces' batch sizes: the Cifar10 first block at
    // every (c, f) corner, then the shapes that differ in kind. Backward is
    // the two gradient products, so twice the forward's operations.
    let mut convs: Vec<(String, Vec<usize>, Vec<usize>, Padding)> = Vec::new();
    for &c in &[3usize, 8, 24] {
        for &f in &[8usize, 24] {
            let name = format!("64x12x12x{c}.3x3x{c}x{f}");
            convs.push((name, vec![64, 12, 12, c], vec![3, 3, c, f], Padding::Same));
        }
    }
    convs.extend(
        [
            (
                "64x12x12x16.3x3x16x24.valid",
                vec![64, 12, 12, 16],
                vec![3, 3, 16, 24],
                Padding::Valid,
            ),
            ("64x6x6x24.3x3x24x16", vec![64, 6, 6, 24], vec![3, 3, 24, 16], Padding::Same),
            ("64x10x10x8.5x5x8x12", vec![64, 10, 10, 8], vec![5, 5, 8, 12], Padding::Same),
            ("32x512x8.7x8x16", vec![32, 512, 8], vec![7, 8, 16], Padding::Same),
        ]
        .map(|(name, input, kernel, padding)| (name.to_string(), input, kernel, padding)),
    );
    for (shape, input, kernel, padding) in convs {
        let input = Tensor::rand_normal(input, 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal(kernel, 0.0, 0.1, &mut rng);
        // A rank-3 input is NT3's conv1d: the same entry points, its own rows.
        let op = if input.shape().rank() == 3 { "conv1d" } else { "conv2d" };
        let out = conv2d_forward(&input, &kernel, padding);
        let dout = Tensor::rand_normal(out.shape().dims().to_vec(), 0.0, 1.0, &mut rng);
        let patch = kernel.numel() / out.shape().dims().last().expect("output has a filter axis");
        let fwd_flops = 2.0 * (out.numel() * patch) as f64;
        h.bench(&format!("{op}.forward.{shape}"), || {
            black_box(conv2d_forward(&input, &kernel, padding));
        });
        flops.push((format!("{op}.forward.{shape}"), fwd_flops));
        h.bench(&format!("{op}.backward.{shape}"), || {
            black_box(conv2d_backward(&input, &kernel, &dout, padding));
        });
        flops.push((format!("{op}.backward.{shape}"), 2.0 * fwd_flops));
    }

    // End-to-end: one quick NAS run (no convolutions; Dense GEMMs only). The
    // runner re-derives its own thread budget from the worker count, so with
    // 1 worker this is single-threaded too.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let cfg = NasConfig::quick(TransferScheme::Lcs, 8, 1, 3);
    h.bench("nas.quick_uno.8cand_1worker.simd_gemm", || {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        black_box(run_nas(Arc::clone(&problem), Arc::clone(&space), store, &cfg));
    });

    let mut meta = vec![
        ("bench".to_string(), "gemm".to_string()),
        ("threads".to_string(), "1".to_string()),
        ("kernel".to_string(), gemm_kernel_name().to_string()),
        (
            "profile".to_string(),
            if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        ),
    ];
    println!();
    for (name, ops) in &flops {
        let gflops = ops / h.get(name).expect("row was just measured");
        println!("{name:<48} {gflops:>8.1} GFLOP/s");
        meta.push((format!("gflops.{name}"), format!("{gflops:.1}")));
    }

    println!("{:<48} {dropout_ns_per_element:>8.2} ns/element", "dropout.fwd.32x160");
    meta.push((
        "ns_per_element.dropout.fwd.32x160".to_string(),
        format!("{dropout_ns_per_element:.2}"),
    ));

    let meta: Vec<(&str, String)> = meta.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
