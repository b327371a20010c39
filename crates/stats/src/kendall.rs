//! Kendall's rank correlation coefficient.
//!
//! The paper (Section VIII-D) measures how well one-epoch estimated scores
//! rank candidates relative to their fully-trained objective metrics using
//! Kendall's tau: `tau = 2 (Nc - Nd) / (n (n - 1))`, where a pair `(i, j)` is
//! *concordant* when both coordinates order the same way and *discordant*
//! otherwise (the paper folds ties into the discordant count). [`kendall_tau`]
//! implements exactly that definition; [`kendall_tau_b`] is the conventional
//! tie-corrected variant, provided for sensitivity checks.

/// Pairwise concordance counts underlying Kendall's tau.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConcordanceCounts {
    /// Strictly concordant pairs (`x` and `y` order the same way).
    pub concordant: u64,
    /// Strictly discordant pairs (`x` and `y` order opposite ways).
    pub discordant: u64,
    /// Pairs tied in `x` only.
    pub ties_x: u64,
    /// Pairs tied in `y` only.
    pub ties_y: u64,
    /// Pairs tied in both coordinates.
    pub ties_xy: u64,
}

impl ConcordanceCounts {
    /// Count concordant/discordant/tied pairs over all `n (n - 1) / 2`
    /// unordered pairs. `O(n^2)`; the paper's experiment uses `n = 100`, for
    /// which this is instantaneous and trivially correct.
    pub fn count(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "paired samples must have equal length");
        let mut c = Self::default();
        for i in 0..xs.len() {
            for j in (i + 1)..xs.len() {
                let dx = xs[i].partial_cmp(&xs[j]).expect("NaN in Kendall input");
                let dy = ys[i].partial_cmp(&ys[j]).expect("NaN in Kendall input");
                use std::cmp::Ordering::Equal;
                match (dx, dy) {
                    (Equal, Equal) => c.ties_xy += 1,
                    (Equal, _) => c.ties_x += 1,
                    (_, Equal) => c.ties_y += 1,
                    (a, b) if a == b => c.concordant += 1,
                    _ => c.discordant += 1,
                }
            }
        }
        c
    }

    /// Total number of unordered pairs.
    pub fn total(&self) -> u64 {
        self.concordant + self.discordant + self.ties_x + self.ties_y + self.ties_xy
    }
}

/// Kendall's tau as defined in the paper: `2 (Nc - Nd') / (n (n - 1))` where
/// `Nd'` counts every non-concordant pair (strict discordance *and* ties).
///
/// Returns 0.0 for inputs with fewer than two samples.
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [0.1, 0.2, 0.3, 0.4];
/// assert!((swt_stats::kendall_tau(&x, &y) - 1.0).abs() < 1e-12);
/// let rev: Vec<f64> = y.iter().rev().copied().collect();
/// assert!((swt_stats::kendall_tau(&x, &rev) + 1.0).abs() < 1e-12);
/// ```
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let c = ConcordanceCounts::count(xs, ys);
    let nc = c.concordant as f64;
    let nd = (c.total() - c.concordant) as f64;
    2.0 * (nc - nd) / (n * (n - 1.0))
}

/// Conventional Kendall's tau-b with tie correction:
/// `(Nc - Nd) / sqrt((N0 - Tx)(N0 - Ty))` with `N0 = n (n-1) / 2`,
/// `Tx`/`Ty` the pairs tied in each coordinate.
///
/// Returns 0.0 when either coordinate is constant (undefined correlation).
pub fn kendall_tau_b(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let c = ConcordanceCounts::count(xs, ys);
    let n0 = c.total() as f64;
    let tx = (c.ties_x + c.ties_xy) as f64;
    let ty = (c.ties_y + c.ties_xy) as f64;
    let denom = ((n0 - tx) * (n0 - ty)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (c.concordant as f64 - c.discordant as f64) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_is_one() {
        let x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6];
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        assert!((kendall_tau(&x, &y) - 1.0).abs() < 1e-12);
        assert!((kendall_tau_b(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&x, &y) + 1.0).abs() < 1e-12);
        assert!((kendall_tau_b(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_swap_matches_hand_count() {
        // x ranks 1,2,3,4; y swaps the last two: one discordant pair of six.
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 2.0, 4.0, 3.0];
        // tau = 2 * (5 - 1) / (4 * 3) = 8 / 12
        assert!((kendall_tau(&x, &y) - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ties_count_as_discordant_in_paper_variant() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 1.0, 2.0]; // pair (0,1) tied in y
                                 // concordant: (0,2), (1,2); tied-in-y: (0,1) -> Nd' = 1
                                 // tau = 2 * (2 - 1) / (3 * 2) = 1/3
        assert!((kendall_tau(&x, &y) - 1.0 / 3.0).abs() < 1e-12);
        // tau-b excludes the tied pair from the denominator instead.
        let n0: f64 = 3.0;
        let expected_b = 2.0 / (n0 * (n0 - 1.0)).sqrt();
        assert!((kendall_tau_b(&x, &y) - expected_b).abs() < 1e-12);
    }

    #[test]
    fn constant_input_tau_b_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(kendall_tau_b(&x, &y), 0.0);
    }

    #[test]
    fn short_inputs_are_zero() {
        assert_eq!(kendall_tau(&[], &[]), 0.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn counts_are_exhaustive() {
        let x = [1.0, 2.0, 2.0, 3.0, 0.5];
        let y = [2.0, 2.0, 1.0, 0.0, 0.0];
        let c = ConcordanceCounts::count(&x, &y);
        assert_eq!(c.total(), 10); // 5 choose 2
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        kendall_tau(&[1.0, 2.0], &[1.0]);
    }
}
