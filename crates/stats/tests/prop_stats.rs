//! Property-style tests for the statistics crate, as seeded randomized
//! sweeps (the container builds fully offline, so no proptest).

use swt_stats::{geometric_mean, kendall_tau, kendall_tau_b, mean, std_dev, Summary, Welford};
use swt_tensor::Rng;

fn finite_vec(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let len = rng.below(max_len);
    (0..len).map(|_| f64::from(rng.uniform(-1e6, 1e6))).collect()
}

/// Random strictly-distinct integer-valued samples (tie-free ranks).
fn distinct_vec(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.below(max_len - min_len);
    let mut seen = std::collections::HashSet::new();
    while seen.len() < len {
        seen.insert(rng.below(2000) as i64 - 1000);
    }
    seen.into_iter().map(|v| v as f64).collect()
}

#[test]
fn tau_is_bounded() {
    let mut rng = Rng::seed(0x7A0);
    for case in 0..100 {
        let xs = finite_vec(&mut rng, 40);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 17.0).sin()).collect();
        let t = kendall_tau(&xs, &ys);
        assert!((-1.0..=1.0).contains(&t), "case {case}: tau out of range: {t}");
        let tb = kendall_tau_b(&xs, &ys);
        assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&tb), "case {case}");
    }
}

#[test]
fn tau_of_monotone_map_is_one() {
    let mut rng = Rng::seed(0x7A1);
    for case in 0..100 {
        // Distinct values under a strictly increasing map rank identically.
        let xs = distinct_vec(&mut rng, 2, 40);
        let ys: Vec<f64> = xs.iter().map(|x| x * 3.0 + 7.0).collect();
        assert!((kendall_tau(&xs, &ys) - 1.0).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn tau_antisymmetric_under_negation() {
    let mut rng = Rng::seed(0x7A2);
    for case in 0..100 {
        let xs = distinct_vec(&mut rng, 2, 30);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 13.7).sin()).collect();
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        // With no ties, negating one coordinate flips every pair.
        assert!((kendall_tau(&xs, &ys) + kendall_tau(&xs, &neg)).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn mean_within_bounds() {
    let mut rng = Rng::seed(0x3A0);
    let mut tested = 0;
    while tested < 100 {
        let xs = finite_vec(&mut rng, 64);
        if xs.is_empty() {
            continue;
        }
        let m = mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        tested += 1;
    }
}

#[test]
fn std_dev_shift_invariant() {
    let mut rng = Rng::seed(0x3A1);
    for case in 0..100 {
        let xs = finite_vec(&mut rng, 64);
        let shift = f64::from(rng.uniform(-1e3, 1e3));
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        assert!((std_dev(&xs) - std_dev(&shifted)).abs() < 1e-5, "case {case}");
    }
}

#[test]
fn geometric_le_arithmetic() {
    let mut rng = Rng::seed(0x3A2);
    for case in 0..100 {
        // AM-GM inequality over positive samples.
        let len = 1 + rng.below(31);
        let xs: Vec<f64> = (0..len).map(|_| f64::from(rng.uniform(1e-3, 1e3))).collect();
        assert!(geometric_mean(&xs) <= mean(&xs) + 1e-9, "case {case}");
    }
}

#[test]
fn welford_matches_batch() {
    let mut rng = Rng::seed(0x3A3);
    for case in 0..100 {
        let xs = finite_vec(&mut rng, 128);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-6, "case {case}");
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-6, "case {case}");
    }
}

#[test]
fn welford_merge_associative() {
    let mut rng = Rng::seed(0x3A4);
    for case in 0..100 {
        let xs = finite_vec(&mut rng, 64);
        let ys = finite_vec(&mut rng, 64);
        let zs = finite_vec(&mut rng, 64);
        let fold = |vals: &[f64]| {
            let mut w = Welford::new();
            for &v in vals {
                w.push(v);
            }
            w
        };
        let (a, b, c) = (fold(&xs), fold(&ys), fold(&zs));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left.count(), right.count(), "case {case}");
        assert!((left.mean() - right.mean()).abs() < 1e-6, "case {case}");
        let scale = left.variance().abs().max(1.0);
        assert!((left.variance() - right.variance()).abs() / scale < 1e-9, "case {case}");
    }
}

#[test]
fn summary_ci_shrinks_with_n() {
    let mut rng = Rng::seed(0x3A5);
    for case in 0..100 {
        // Same spread, more samples -> tighter CI.
        let base = f64::from(rng.uniform(0.1, 10.0));
        let small: Vec<f64> = (0..5).map(|i| base + (i % 2) as f64).collect();
        let large: Vec<f64> = (0..50).map(|i| base + (i % 2) as f64).collect();
        assert!(Summary::of(&large).ci95 <= Summary::of(&small).ci95 + 1e-12, "case {case}");
    }
}

/// Random samples drawn from a small bucket set so ties are plentiful.
fn tied_vec(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.below(6) as f64).collect()
}

#[test]
fn tau_b_matches_tau_on_tie_free_data() {
    let mut rng = Rng::seed(0x7B0);
    for case in 0..100 {
        // With no ties the correction term vanishes and both definitions
        // reduce to (Nc - Nd) / N0.
        let xs = distinct_vec(&mut rng, 2, 48);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 7.31).sin() + x * 1e-9).collect();
        let t = kendall_tau(&xs, &ys);
        let tb = kendall_tau_b(&xs, &ys);
        assert!((t - tb).abs() < 1e-12, "case {case}: {t} vs {tb}");
    }
}

#[test]
fn tau_b_is_one_under_monotone_maps_despite_ties() {
    let mut rng = Rng::seed(0x7B1);
    for case in 0..100 {
        // A strictly increasing map preserves the tie pattern exactly, so
        // every non-tied pair is concordant and tau-b is exactly 1 — this is
        // the tie-awareness the paper's variant deliberately gives up.
        let xs = tied_vec(&mut rng, 2, 40);
        let ys: Vec<f64> = xs.iter().map(|x| x.exp() + 2.0 * x).collect();
        assert!((kendall_tau_b(&xs, &ys) - 1.0).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn tau_b_is_symmetric_in_its_arguments() {
    let mut rng = Rng::seed(0x7B2);
    for case in 0..100 {
        let xs = tied_vec(&mut rng, 2, 40);
        let ys = tied_vec(&mut rng, xs.len().max(2), xs.len().max(2) + 1);
        let ys = &ys[..xs.len()];
        let ab = kendall_tau_b(&xs, ys);
        let ba = kendall_tau_b(ys, &xs);
        assert!((ab - ba).abs() < 1e-12, "case {case}: {ab} vs {ba}");
    }
}

#[test]
fn tau_b_invariant_under_monotone_transforms() {
    let mut rng = Rng::seed(0x7B3);
    for case in 0..100 {
        // Rank statistics only see order: strictly increasing maps applied
        // to either coordinate leave tau-b unchanged, ties and all.
        let xs = tied_vec(&mut rng, 2, 40);
        let ys: Vec<f64> = xs.iter().map(|x| ((x * 3.7).sin() * 2.0).round()).collect();
        let fx: Vec<f64> = xs.iter().map(|x| x * 0.5 - 10.0).collect();
        let gy: Vec<f64> = ys.iter().map(|y| y.powi(3) + y).collect();
        let base = kendall_tau_b(&xs, &ys);
        let mapped = kendall_tau_b(&fx, &gy);
        assert!((base - mapped).abs() < 1e-12, "case {case}: {base} vs {mapped}");
    }
}

#[test]
fn tau_b_antisymmetric_under_negation_even_with_ties() {
    let mut rng = Rng::seed(0x7B4);
    for case in 0..100 {
        // Negating one coordinate swaps concordant and discordant pairs and
        // preserves every tie, so tau-b flips sign exactly.
        let xs = tied_vec(&mut rng, 2, 40);
        let ys: Vec<f64> = xs.iter().map(|x| ((x * 5.3).cos() * 3.0).round()).collect();
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        let t = kendall_tau_b(&xs, &ys);
        let tn = kendall_tau_b(&xs, &neg);
        assert!((t + tn).abs() < 1e-12, "case {case}: {t} vs {tn}");
    }
}

#[test]
fn tau_b_never_below_paper_tau_on_positively_ranked_data() {
    let mut rng = Rng::seed(0x7B5);
    for case in 0..100 {
        // The paper's variant folds ties into the discordant count, so when
        // the ranking agrees (Nc >= Nd) it can only under-report agreement
        // relative to the tie-corrected tau-b.
        let xs = tied_vec(&mut rng, 2, 40);
        let ys: Vec<f64> = xs.iter().map(|x| x + ((x * 9.1).sin()).round()).collect();
        let t = kendall_tau(&xs, &ys);
        let tb = kendall_tau_b(&xs, &ys);
        if t >= 0.0 {
            assert!(tb >= t - 1e-12, "case {case}: tau {t} > tau-b {tb}");
        }
    }
}
