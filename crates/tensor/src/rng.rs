//! Seeded, splittable random number generation.
//!
//! The paper repeats every NAS experiment five times with different seeds and
//! notes that GPU nondeterminism makes exact repetition impossible on real
//! hardware. Our CPU reproduction is fully deterministic: every source of
//! randomness (weight init, dropout masks, batch shuffling, search-strategy
//! sampling, dataset synthesis) derives from one root `u64` through
//! [`Rng::fork`], so independent components never share a stream and runs
//! replay bit-for-bit.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through splitmix64, so the crate carries no
//! external RNG dependency and builds offline.

/// A seeded RNG with normal/uniform sampling and deterministic forking.
///
/// Internally xoshiro256++: 256 bits of state, 64-bit output, period
/// `2^256 - 1`. Plenty for simulation workloads; not cryptographic.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Construct from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // Expand the seed through splitmix64 as the xoshiro authors
        // recommend; the chain never produces the all-zero state.
        let mut x = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            *s = splitmix64(x);
        }
        Rng { state }
    }

    /// Derive an independent stream for a named sub-component.
    ///
    /// Mixing is done with splitmix64 over `(seed-draw, stream)` so forks with
    /// different `stream` values are decorrelated even for adjacent ids.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed(splitmix64(base ^ splitmix64(stream)))
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(hi > lo);
        self.next_f32() * (hi - lo) + lo
    }

    /// Standard normal sample (Box–Muller; avoids a distribution dependency).
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.next_f64();
            let u2 = self.next_f64();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                return (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            }
        }
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased bounded sampling).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (n as u128);
            let low = wide as u64;
            if low >= n.wrapping_neg() % n {
                return (wide >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// `*o = if self.chance(p) { on } else { 0.0 }` for every element of
    /// `out` in order — a scaled Bernoulli mask (dropout's), one draw per
    /// element, the same stream and the same bits as that loop.
    ///
    /// `chance` compares `u · 2⁻⁵³ < p` for the integer `u = x >> 11`; scaling
    /// by a power of two is exact, so that is `u < p · 2⁵³`, and for an
    /// integer `u` it is `u < ⌈p · 2⁵³⌉`: one threshold, no conversion per
    /// element. (`p ≤ 0` or NaN saturates the threshold to 0, never; `p ≥ 1`
    /// puts it above every `u`, always.) A dropout draw is a coin the branch
    /// predictor cannot learn, so the value is selected, not branched on.
    pub fn fill_mask(&mut self, p: f64, on: f32, out: &mut [f32]) {
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        let on = on.to_bits();
        // A local copy keeps the generator in registers across the stores.
        let mut rng = self.clone();
        for o in out {
            let hit = (rng.next_u64() >> 11) < threshold;
            *o = f32::from_bits(std::hint::select_unpredictable(hit, on, 0));
        }
        *self = rng;
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// `k` distinct indices sampled uniformly from `[0, n)` (partial
    /// Fisher–Yates). Used for the evolution strategy's tournament sample
    /// (`S` out of `N`, Algorithm 1 line 6).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Raw u64 draw (for deriving child seeds).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform `f32` in `[0, 1)` from the high 24 bits.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` from the high 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed(42);
        let mut b = Rng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed(1);
        let mut b = Rng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = Rng::seed(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let same = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::seed(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed(9);
        for _ in 0..1000 {
            let x = rng.uniform(-0.25, 0.75);
            assert!((-0.25..0.75).contains(&x));
        }
    }

    #[test]
    fn uniform_fills_range() {
        // The [0,1) mantissa construction must reach both tails.
        let mut rng = Rng::seed(17);
        let xs: Vec<f32> = (0..4000).map(|_| rng.uniform(0.0, 1.0)).collect();
        assert!(xs.iter().any(|&x| x < 0.05));
        assert!(xs.iter().any(|&x| x > 0.95));
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    /// `fill_mask` is `chance(p)` per element: same mask bits, same generator
    /// afterwards. Every keep probability the search spaces' dropout rates
    /// give, 1 000 random `p`, and `p` on and one ulp either side of a
    /// `u · 2⁻⁵³` the stream is about to draw — the only places a rounded
    /// threshold could disagree with the comparison it replaces.
    #[test]
    fn fill_mask_is_chance_per_element() {
        let mut ps: Vec<f64> = [0.02f32, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50]
            .iter()
            .map(|rate| f64::from(1.0 - rate))
            .collect();
        ps.extend([0.0, -0.0, -1.0, 1.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE]);
        let mut pick = Rng::seed(77);
        ps.extend((0..1000).map(|_| pick.next_f64()));
        let seed = 4242;
        let mut ahead = Rng::seed(seed);
        for _ in 0..40 {
            let edge = ahead.next_f64();
            let ulp = |by: i64| f64::from_bits((edge.to_bits() as i64 + by) as u64);
            ps.extend([ulp(-1), edge, ulp(1)]);
        }
        for (case, &p) in ps.iter().enumerate() {
            let on = 1.0 / (1.0 - 0.3f32) + case as f32;
            let (mut by_fill, mut by_chance) = (Rng::seed(seed), Rng::seed(seed));
            let mut mask = vec![f32::NAN; 257];
            by_fill.fill_mask(p, on, &mut mask);
            for (i, m) in mask.iter().enumerate() {
                let expect = if by_chance.chance(p) { on } else { 0.0 };
                assert_eq!(m.to_bits(), expect.to_bits(), "p = {p:e}, element {i}");
            }
            assert_eq!(by_fill.next_u64(), by_chance.next_u64(), "p = {p:e}: streams diverged");
        }
    }

    #[test]
    fn below_covers_support() {
        let mut rng = Rng::seed(5);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed(21);
        let n = 8;
        let mut counts = vec![0usize; n];
        let draws = 64_000;
        for _ in 0..draws {
            counts[rng.below(n)] += 1;
        }
        let expect = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed(11);
        for _ in 0..100 {
            let s = rng.sample_indices(32, 16);
            assert_eq!(s.len(), 16);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "duplicates in {s:?}");
            assert!(s.iter().all(|&i| i < 32));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle left input ordered");
    }
}
