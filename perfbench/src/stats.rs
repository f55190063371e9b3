//! Summary statistics used by the end-to-end metrics.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `(0, 1]`); 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Geometric mean of the positive values in `xs`; 0 if there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let pos: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// The geometric mean over inputs of each input's median sample, so every
/// input weighs the same whatever its latency.
pub fn geomean_of_medians(per_input: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_input
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    geomean(&medians)
}

/// A small deterministic generator (SplitMix64) for input orders and edit
/// draws; the benchmark's seed is its only source of variation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream, mixed from the workload seed and up to
    /// two stream keys.
    pub fn new(seed: u64, a: u64, b: u64) -> Rng {
        let mut r = Rng(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.0 ^= r
            .next_u64()
            .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}
