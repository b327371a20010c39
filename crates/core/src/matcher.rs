//! The LP and LCS shape-sequence matchers (Section IV-A).

use swt_tensor::Shape;

/// The three candidate-initialisation schemes compared throughout the
/// paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferScheme {
    /// Train from random weights (the DeepHyper baseline).
    Baseline,
    /// Longest-prefix weight transfer.
    Lp,
    /// Longest-common-subsequence weight transfer.
    Lcs,
}

swt_wire::wire_codes! {
    TransferScheme: Baseline = 0, Lp = 1, Lcs = 2;
}

impl TransferScheme {
    /// All schemes in the paper's presentation order.
    pub fn all() -> [TransferScheme; 3] {
        [TransferScheme::Baseline, TransferScheme::Lp, TransferScheme::Lcs]
    }

    /// The matcher, if this scheme transfers at all.
    pub fn matcher(self) -> Option<Matcher> {
        match self {
            TransferScheme::Baseline => None,
            TransferScheme::Lp => Some(Matcher::Lp),
            TransferScheme::Lcs => Some(Matcher::Lcs),
        }
    }

    /// Label used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            TransferScheme::Baseline => "Baseline",
            TransferScheme::Lp => "LP",
            TransferScheme::Lcs => "LCS",
        }
    }
}

/// A shape-sequence matching heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Matcher {
    /// Longest prefix, `O(min(n, m))`.
    Lp,
    /// Longest common subsequence, `O(nm)` Wagner–Fischer DP.
    Lcs,
}

impl Matcher {
    /// Matched index pairs `(provider_idx, receiver_idx)`, strictly
    /// increasing in both coordinates.
    pub fn match_shapes(self, provider: &[&Shape], receiver: &[&Shape]) -> Vec<(usize, usize)> {
        match self {
            Matcher::Lp => lp_match(provider, receiver),
            Matcher::Lcs => lcs_match(provider, receiver),
        }
    }
}

/// Longest-prefix matching: pair index `i` with index `i` while the shapes
/// are identical, stopping at the first mismatch.
///
/// ```
/// use swt_core::lp_match;
/// use swt_tensor::Shape;
/// let a = [Shape::new([3, 3]), Shape::new([16])];
/// let b = [Shape::new([3, 3]), Shape::new([32])];
/// let ar: Vec<&Shape> = a.iter().collect();
/// let br: Vec<&Shape> = b.iter().collect();
/// assert_eq!(lp_match(&ar, &br), vec![(0, 0)]);
/// ```
pub fn lp_match(provider: &[&Shape], receiver: &[&Shape]) -> Vec<(usize, usize)> {
    provider
        .iter()
        .zip(receiver)
        .take_while(|(p, r)| p == r)
        .enumerate()
        .map(|(i, _)| (i, i))
        .collect()
}

/// Longest-common-subsequence matching (Wagner–Fischer dynamic programming
/// with backtracking). Returns the matched pairs in order; among maximal
/// matchings, ties break towards pairing earlier provider elements.
///
/// ```
/// use swt_core::lcs_match;
/// use swt_tensor::Shape;
/// // Receiver has one extra layer in the middle (the paper's Fig. 3):
/// // LCS still matches the trailing layer, which LP cannot reach.
/// let a = [Shape::new([8]), Shape::new([9])];
/// let b = [Shape::new([8]), Shape::new([4]), Shape::new([9])];
/// let ar: Vec<&Shape> = a.iter().collect();
/// let br: Vec<&Shape> = b.iter().collect();
/// assert_eq!(lcs_match(&ar, &br), vec![(0, 0), (1, 2)]);
/// ```
pub fn lcs_match(provider: &[&Shape], receiver: &[&Shape]) -> Vec<(usize, usize)> {
    let n = provider.len();
    let m = receiver.len();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    // dp[i][j] = LCS length of provider[i..] vs receiver[j..], flattened.
    let w = m + 1;
    let mut dp = vec![0u32; (n + 1) * w];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * w + j] = if provider[i] == receiver[j] {
                dp[(i + 1) * w + j + 1] + 1
            } else {
                dp[(i + 1) * w + j].max(dp[i * w + j + 1])
            };
        }
    }
    let mut pairs = Vec::with_capacity(dp[0] as usize);
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if provider[i] == receiver[j] && dp[i * w + j] == dp[(i + 1) * w + j + 1] + 1 {
            pairs.push((i, j));
            i += 1;
            j += 1;
        } else if dp[(i + 1) * w + j] >= dp[i * w + j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(dims: &[usize]) -> Vec<Shape> {
        dims.iter().map(|&d| Shape::new([d])).collect()
    }

    fn refs(v: &[Shape]) -> Vec<&Shape> {
        v.iter().collect()
    }

    /// Exponential brute-force LCS length for cross-checking.
    fn brute_lcs_len(a: &[&Shape], b: &[&Shape]) -> usize {
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        if a[0] == b[0] {
            1 + brute_lcs_len(&a[1..], &b[1..])
        } else {
            brute_lcs_len(&a[1..], b).max(brute_lcs_len(a, &b[1..]))
        }
    }

    #[test]
    fn lp_identical_sequences_match_fully() {
        let a = shapes(&[1, 2, 3]);
        let pairs = lp_match(&refs(&a), &refs(&a));
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn lp_stops_at_first_mismatch() {
        let a = shapes(&[1, 2, 3, 4]);
        let b = shapes(&[1, 2, 9, 4]);
        // Index 3 matches again, but LP cannot see past the mismatch —
        // exactly the paper's Fig. 3 (3) limitation.
        assert_eq!(lp_match(&refs(&a), &refs(&b)), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn lp_empty_prefix() {
        let a = shapes(&[5, 1]);
        let b = shapes(&[6, 1]);
        assert!(lp_match(&refs(&a), &refs(&b)).is_empty());
        assert!(lp_match(&refs(&a), &[]).is_empty());
    }

    #[test]
    fn lcs_handles_insertion() {
        // Receiver has one extra layer in the middle (Fig. 3's (2)): LCS
        // still transfers the trailing dense layer, LP does not.
        let provider = shapes(&[10, 20, 99]);
        let receiver = shapes(&[10, 20, 77, 99]);
        let lcs = lcs_match(&refs(&provider), &refs(&receiver));
        assert_eq!(lcs, vec![(0, 0), (1, 1), (2, 3)]);
        let lp = lp_match(&refs(&provider), &refs(&receiver));
        assert_eq!(lp.len(), 2);
    }

    #[test]
    fn lcs_pairs_are_strictly_increasing() {
        let a = shapes(&[1, 2, 1, 3, 2, 1]);
        let b = shapes(&[2, 1, 1, 2, 3, 3, 1]);
        let pairs = lcs_match(&refs(&a), &refs(&b));
        for win in pairs.windows(2) {
            assert!(win[0].0 < win[1].0 && win[0].1 < win[1].1, "{pairs:?}");
        }
        // Every pair matches equal shapes.
        for &(i, j) in &pairs {
            assert_eq!(a[i], b[j]);
        }
    }

    #[test]
    fn lcs_matches_brute_force_on_small_cases() {
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![], vec![1, 2]),
            (vec![1, 1, 1], vec![1, 1]),
            (vec![1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1]),
            (vec![1, 3, 2, 3, 1], vec![3, 1, 3, 3, 2]),
            (vec![2, 2, 2], vec![2, 2, 2, 2]),
        ];
        for (a, b) in cases {
            let a = shapes(&a);
            let b = shapes(&b);
            let fast = lcs_match(&refs(&a), &refs(&b)).len();
            let slow = brute_lcs_len(&refs(&a), &refs(&b));
            assert_eq!(fast, slow, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn lp_is_subset_of_lcs() {
        // "Note that LP is a subset of LCS, therefore LCS will always
        // transfer at least as many tensors as LP." (Section IV-A)
        let a = shapes(&[7, 7, 2, 9, 4, 4]);
        let b = shapes(&[7, 7, 9, 4, 1, 4]);
        let lp = lp_match(&refs(&a), &refs(&b));
        let lcs = lcs_match(&refs(&a), &refs(&b));
        assert!(lcs.len() >= lp.len());
        // The LP pairs are literally contained in the LCS matching here.
        for p in &lp {
            assert!(lcs.contains(p), "{p:?} missing from {lcs:?}");
        }
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(TransferScheme::Baseline.matcher(), None);
        assert_eq!(TransferScheme::Lp.matcher(), Some(Matcher::Lp));
        assert_eq!(TransferScheme::Lcs.matcher(), Some(Matcher::Lcs));
        assert_eq!(TransferScheme::all().len(), 3);
        assert_eq!(TransferScheme::Lcs.name(), "LCS");
    }

    #[test]
    fn matcher_dispatch() {
        let a = shapes(&[1, 9, 2]);
        let b = shapes(&[1, 2]);
        assert_eq!(Matcher::Lp.match_shapes(&refs(&a), &refs(&b)).len(), 1);
        assert_eq!(Matcher::Lcs.match_shapes(&refs(&a), &refs(&b)).len(), 2);
    }
}
