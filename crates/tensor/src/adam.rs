//! The Adam update: one pass over a parameter, its gradient and its two
//! moments, with one division per element.
//!
//! The textbook step divides three times per element — `m / bc1`,
//! `v / bc2` and `lr·m̂ / (√v̂ + ε)` — where `bc1 = 1 − β₁ᵗ` and
//! `bc2 = 1 − β₂ᵗ` are the step's bias corrections. The first two become
//! multiplies by a reciprocal computed once per step, in `f64`:
//! `m̂ = (f64(m) · (1 / f64(bc1))) as f32`. That is the same `f32` as
//! `m / bc1` for every `f32` `m` and every non-zero `f32` `bc1`:
//!
//! * the reciprocal and the product each round once in `f64`, so the
//!   product is within 2⁻⁵² (relative) of the true quotient `m / bc1`;
//! * a quotient of two 24-bit significands is never a binary32 rounding
//!   midpoint (a 25-bit significand) and never within 2⁻⁴⁹ of one,
//!
//! so no midpoint lies between the product and the quotient, and both round
//! to the same `f32`. The tests check it on every `bc(t)` a fit reaches and
//! the edge values; an ignored release test walks every `f32` for the first
//! steps.
//!
//! The update uses no fused multiply-add, so every kernel kind gives the
//! same bits; the AVX kinds only compile the one loop for wider vectors.

use crate::matmul::{active_kernel, KernelKind};

/// One Adam step's constants: the hyperparameters and the reciprocals of the
/// step's bias corrections.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    r1: f64,
    r2: f64,
}

impl AdamStep {
    /// The step of learning rate `lr`, moment decays `betas` and `eps`
    /// whose bias corrections are `bcs = [1 − β₁ᵗ, 1 − β₂ᵗ]`.
    pub fn new(lr: f32, betas: [f32; 2], eps: f32, bcs: [f32; 2]) -> Self {
        let [beta1, beta2] = betas;
        let [r1, r2] = bcs.map(reciprocal);
        AdamStep { lr, beta1, beta2, eps, r1, r2 }
    }
}

/// `1 / bc`, once per step.
fn reciprocal(bc: f32) -> f64 {
    1.0 / f64::from(bc)
}

/// `x / bc` as a multiply by `r = reciprocal(bc)`: the same bits.
#[inline(always)]
fn corrected(x: f32, r: f64) -> f32 {
    (f64::from(x) * r) as f32
}

/// One Adam step over one parameter: `m` and `v` advance by `grad`, then
/// `param -= lr·m̂ / (√v̂ + ε)`. The gradient is read as `0.0 + grad`, what a
/// zeroed buffer that `grad` was added to would hold (`-0.0` reads `+0.0`).
///
/// # Panics
/// Panics if the four slices differ in length.
pub fn adam_update(s: &AdamStep, param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
    match active_kernel() {
        // SAFETY: the dispatch table selects these kinds only after
        // `is_x86_feature_detected!` confirmed their features.
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512Fma => unsafe { update_avx512(s, param, grad, m, v) },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { update_avx2(s, param, grad, m, v) },
        _ => update(s, param, grad, m, v),
    }
}

/// The update body, compiled into each of its callers' feature sets.
#[inline(always)]
fn update(s: &AdamStep, param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
    let n = param.len();
    assert!(grad.len() == n && m.len() == n && v.len() == n, "Adam operands differ in length");
    let (grad, m, v) = (&grad[..n], &mut m[..n], &mut v[..n]);
    let (c1, c2) = (1.0 - s.beta1, 1.0 - s.beta2);
    for i in 0..n {
        let g = 0.0 + grad[i];
        m[i] = s.beta1 * m[i] + c1 * g;
        v[i] = s.beta2 * v[i] + c2 * g * g;
        let (mhat, vhat) = (corrected(m[i], s.r1), corrected(v[i], s.r2));
        param[i] -= s.lr * mhat / (vhat.sqrt() + s.eps);
    }
}

/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn update_avx2(s: &AdamStep, param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
    update(s, param, grad, m, v)
}

/// # Safety
/// Caller must have verified `is_x86_feature_detected!("avx512f")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn update_avx512(
    s: &AdamStep,
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    update(s, param, grad, m, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::{available_kernels, with_kernel};
    use crate::rng::Rng;

    /// The paper's moment decays (Section VII-A).
    const BETAS: [f32; 2] = [0.9, 0.999];

    /// `[1 − β₁ᵗ, 1 − β₂ᵗ]`, computed as the optimizer computes them.
    fn bcs(t: i32) -> [f32; 2] {
        BETAS.map(|b| 1.0 - b.powi(t))
    }

    /// Every divisor `bc1(t)`, `bc2(t)` for `t` in `steps`, once each.
    fn divisors(steps: std::ops::RangeInclusive<i32>) -> Vec<f32> {
        let mut bcs: Vec<f32> = steps.flat_map(bcs).collect();
        bcs.sort_by(f32::total_cmp);
        bcs.dedup_by(|a, b| a.to_bits() == b.to_bits());
        bcs
    }

    /// Values of `x` at the edges of the format, compared by bits.
    fn edges() -> Vec<f32> {
        let mut edges = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffc5_4321),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0x7fa0_beef),
            f32::from_bits(0xff81_2345),
        ];
        edges.extend([1.0f32, 0.1, 1e-7, 3e38].iter().flat_map(|&x| [x, -x]));
        edges
    }

    /// How many `x` in `xs` the multiply by `reciprocal(bc)` rounds
    /// differently from `x / bc`, and the first of them.
    fn mismatches(xs: impl Iterator<Item = f32>, bc: f32) -> (u64, Option<f32>) {
        let r = reciprocal(bc);
        let (mut count, mut first) = (0, None);
        for x in xs {
            if corrected(x, r).to_bits() != (x / bc).to_bits() {
                count += 1;
                first = first.or(Some(x));
            }
        }
        (count, first)
    }

    /// Every divisor a fit of up to 2000 steps divides by, against 2¹⁶
    /// random bit patterns (every exponent, NaNs included) and the edges.
    #[test]
    fn bias_corrections_multiply_to_the_quotients_bits() {
        let bcs = divisors(1..=2000);
        assert!(bcs.len() > 2000, "bc1 and bc2 both reached: {}", bcs.len());
        let mut rng = Rng::seed(0xADA);
        for bc in bcs {
            let xs: Vec<f32> =
                (0..1 << 16).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
            let (count, first) = mismatches(xs.into_iter().chain(edges()), bc);
            assert_eq!(count, 0, "bc {bc:e}: first at {first:?}");
        }
    }

    /// Every `f32` for the first four steps' divisors. Minutes in debug:
    /// `cargo test --release -p swt-tensor --lib -- --ignored every_f32`.
    #[test]
    #[ignore]
    fn bias_corrections_multiply_to_the_quotients_bits_for_every_f32() {
        for bc in divisors(1..=4) {
            let halves = [0u32..1 << 31, 1 << 31..u32::MAX];
            let counts = std::thread::scope(|s| {
                let runs = halves.map(|h| s.spawn(move || mismatches(h.map(f32::from_bits), bc)));
                runs.map(|r| r.join().expect("a walk of half the floats"))
            });
            let (count, first) = mismatches(std::iter::once(f32::from_bits(u32::MAX)), bc);
            assert_eq!((counts, count, first), ([(0, None); 2], 0, None), "bc {bc:e}");
        }
    }

    /// The three-division loop the update replaced, as it read a gradient
    /// buffer that already held `0.0 + dW`.
    fn oracle(s: [f32; 4], t: i32, param: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        let [lr, beta1, beta2, eps] = s;
        let [bc1, bc2] = bcs(t);
        for i in 0..param.len() {
            let g = 0.0 + grad[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            param[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// Every kind this host runs against the three-division loop, bit for
    /// bit, over several steps: zero, `-0.0`, subnormal, huge and ordinary
    /// gradients, in lengths that leave every vector remainder.
    #[test]
    fn update_matches_the_three_division_loop_on_every_kernel() {
        let hyper = [1e-3, BETAS[0], BETAS[1], 1e-7];
        let special = [0.0, -0.0, f32::from_bits(3), -1e-40, 1e-38, 1e30, -f32::MAX, 3e19];
        for kernel in available_kernels() {
            let mut rng = Rng::seed(0xADA3);
            for len in [1, 7, 8, 17, 31, 64, 100] {
                let mut param: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
                param[0] = -0.0;
                let mut want = param.clone();
                let (mut m, mut v) = (vec![0.0; len], vec![0.0; len]);
                let (mut wm, mut wv) = (m.clone(), v.clone());
                for t in 1..=6 {
                    let grad: Vec<f32> = (0..len)
                        .map(|i| match rng.below(3) {
                            0 => special[(i + t as usize) % special.len()],
                            _ => rng.normal() * 10f32.powi(rng.below(7) as i32 - 3),
                        })
                        .collect();
                    let s = AdamStep::new(hyper[0], BETAS, hyper[3], bcs(t));
                    with_kernel(kernel, || adam_update(&s, &mut param, &grad, &mut m, &mut v));
                    oracle(hyper, t, &mut want, &grad, &mut wm, &mut wv);
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let what = format!("{kernel:?} len {len} step {t}");
                    assert_eq!(bits(&m), bits(&wm), "{what}: m");
                    assert_eq!(bits(&v), bits(&wv), "{what}: v");
                    assert_eq!(bits(&param), bits(&want), "{what}: param");
                }
            }
        }
    }
}
