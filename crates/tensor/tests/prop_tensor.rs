//! Property-style tests for tensor kernels.
//!
//! These are seeded randomized sweeps driven by the crate's own [`Rng`]
//! (the container builds fully offline, so no proptest). Each test draws
//! many random cases from a fixed seed, so failures replay deterministically
//! and the assertion messages carry the offending case.

use swt_tensor::{
    matmul, matmul_at, matmul_at_ws, matmul_bt, matmul_bt_ws, matmul_naive, matmul_ws,
    softmax_rows, Padding, Rng, Shape, Tensor, Workspace,
};

/// A random size in `[1, hi]`, biased toward tile edges: 1, hi, and sizes
/// adjacent to the micro-kernel tile (8/16) show up often.
fn edge_size(rng: &mut Rng, hi: usize) -> usize {
    match rng.below(6) {
        0 => 1,
        1 => hi,
        2 => 7 + rng.below(3),  // around MR = 8
        3 => 15 + rng.below(3), // around NR = 16
        _ => 1 + rng.below(hi),
    }
}

/// Reference `Aᵀ·B` / `A·Bᵀ` via explicit transpose + naive triple loop.
fn naive_at(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_naive(&a.clone().transpose2(), b)
}

fn naive_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_naive(a, &b.clone().transpose2())
}

/// The tentpole acceptance property: blocked `matmul`/`matmul_at`/`matmul_bt`
/// match the naive triple loop within 1e-4 on randomized non-tile-aligned
/// sizes, including the M=1 / N=1 / K=1 edges.
#[test]
fn blocked_gemm_family_matches_naive_on_random_sizes() {
    let mut rng = Rng::seed(0xC0FFEE);
    let mut ws = Workspace::new();
    for case in 0..60 {
        let m = edge_size(&mut rng, 70);
        let k = edge_size(&mut rng, 90);
        let n = edge_size(&mut rng, 70);
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let expect = matmul_naive(&a, &b);
        assert!(matmul(&a, &b).approx_eq(&expect, 1e-4), "case {case}: matmul ({m},{k},{n})");
        let c = matmul_ws(&a, &b, &mut ws);
        assert!(c.approx_eq(&expect, 1e-4), "case {case}: matmul_ws ({m},{k},{n})");
        ws.recycle(c);

        // Aᵀ·B with A stored (k, m).
        let at = Tensor::rand_normal([k, m], 0.0, 1.0, &mut rng);
        let expect_at = naive_at(&at, &b);
        assert!(
            matmul_at(&at, &b).approx_eq(&expect_at, 1e-4),
            "case {case}: matmul_at ({k},{m},{n})"
        );
        let c = matmul_at_ws(&at, &b, &mut ws);
        assert!(c.approx_eq(&expect_at, 1e-4), "case {case}: matmul_at_ws ({k},{m},{n})");
        ws.recycle(c);

        // A·Bᵀ with B stored (n, k).
        let bt = Tensor::rand_normal([n, k], 0.0, 1.0, &mut rng);
        let expect_bt = naive_bt(&a, &bt);
        assert!(
            matmul_bt(&a, &bt).approx_eq(&expect_bt, 1e-4),
            "case {case}: matmul_bt ({m},{n},{k})"
        );
        let c = matmul_bt_ws(&a, &bt, &mut ws);
        assert!(c.approx_eq(&expect_bt, 1e-4), "case {case}: matmul_bt_ws ({m},{n},{k})");
        ws.recycle(c);
    }
}

/// Deep-K sizes force multiple KC panels, exercising the accumulate path.
#[test]
fn blocked_gemm_matches_naive_across_multiple_k_panels() {
    let mut rng = Rng::seed(0xBEEF);
    for &(m, k, n) in &[(9, 600, 21), (1, 513, 40), (33, 1024, 1), (65, 257, 17)] {
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        // Looser tolerance: summation order differs and k is large.
        assert!(matmul(&a, &b).approx_eq(&matmul_naive(&a, &b), 1e-3), "({m},{k},{n})");
    }
}

#[test]
fn shape_offset_is_bijective() {
    let mut rng = Rng::seed(1);
    for _ in 0..50 {
        let rank = 1 + rng.below(3);
        let dims: Vec<usize> = (0..rank).map(|_| 1 + rng.below(4)).collect();
        let shape = Shape::new(dims.clone());
        let mut seen = vec![false; shape.numel()];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&idx);
            assert!(!seen[off], "offset {off} visited twice for dims {dims:?}");
            seen[off] = true;
            // Increment multi-index.
            let mut d = dims.len();
            loop {
                if d == 0 {
                    break;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
                if d == 0 {
                    break;
                }
            }
            if idx.iter().all(|&v| v == 0) {
                break;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = Rng::seed(2);
    for _ in 0..40 {
        let (m, k, n) = (1 + rng.below(7), 1 + rng.below(7), 1 + rng.below(7));
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let c = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let bc = b.zip_map(&c, |x, y| x + y);
        let lhs = matmul(&a, &bc);
        let mut rhs = matmul(&a, &b);
        rhs.axpy(1.0, &matmul(&a, &c));
        assert!(lhs.approx_eq(&rhs, 1e-3), "({m},{k},{n})");
    }
}

#[test]
fn matmul_transpose_identities() {
    let mut rng = Rng::seed(3);
    for _ in 0..40 {
        let (m, k, n) = (1 + rng.below(6), 1 + rng.below(6), 1 + rng.below(6));
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        // (A B) == matmul_at(Aᵀ, B) == matmul_bt(A, Bᵀ)
        let base = matmul(&a, &b);
        assert!(matmul_at(&a.clone().transpose2(), &b).approx_eq(&base, 1e-3));
        assert!(matmul_bt(&a, &b.clone().transpose2()).approx_eq(&base, 1e-3));
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut rng = Rng::seed(4);
    for _ in 0..25 {
        let rows = 1 + rng.below(9);
        let cols = 1 + rng.below(9);
        let t = Tensor::rand_normal([rows, cols], 0.0, 1.0, &mut rng);
        let s = softmax_rows(&t);
        for r in 0..rows {
            let row = &s.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn conv2d_is_linear_in_input() {
    let mut rng = Rng::seed(5);
    for _ in 0..15 {
        let x = Tensor::rand_normal([1, 5, 5, 2], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal([1, 5, 5, 2], 0.0, 1.0, &mut rng);
        let k = Tensor::rand_normal([3, 3, 2, 3], 0.0, 1.0, &mut rng);
        let sum = x.zip_map(&y, |a, b| a + b);
        let lhs = swt_tensor::conv2d_forward(&sum, &k, Padding::Same);
        let mut rhs = swt_tensor::conv2d_forward(&x, &k, Padding::Same);
        rhs.axpy(1.0, &swt_tensor::conv2d_forward(&y, &k, Padding::Same));
        assert!(lhs.approx_eq(&rhs, 1e-3));
    }
}

#[test]
fn pooling_output_bounded_by_input_extrema() {
    let mut rng = Rng::seed(6);
    for _ in 0..25 {
        let w = 4 + rng.below(8);
        let x = Tensor::rand_normal([2, w, 3], 0.0, 1.0, &mut rng);
        let (out, arg) = swt_tensor::maxpool2d_forward(&x, 2, 2);
        let hi = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(out.data().iter().all(|&v| v <= hi));
        // Every argmax points at an element equal to the recorded output.
        for (i, &a) in arg.iter().enumerate() {
            assert_eq!(x.data()[a as usize], out.data()[i]);
        }
    }
}

#[test]
fn gather_rows_preserves_content() {
    let mut rng = Rng::seed(7);
    for _ in 0..25 {
        let rows = 1 + rng.below(9);
        let cols = 1 + rng.below(9);
        let t = Tensor::rand_normal([rows, cols], 0.0, 1.0, &mut rng);
        let order: Vec<usize> = (0..rows).rev().collect();
        let g = t.gather_rows(&order);
        for (gi, &ri) in order.iter().enumerate() {
            for c in 0..cols {
                assert_eq!(g.at(&[gi, c]), t.at(&[ri, c]));
            }
        }
    }
}
