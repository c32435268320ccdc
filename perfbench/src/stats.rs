//! Order statistics over host-time samples, and the seeded generator
//! that orders cells and picks request mixes.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Geometric mean of positive `values`; `None` when empty or when any
/// value is not positive. Unlike the median, it moves continuously with
/// every sample, so a mix of op kinds with gaps between their
/// latencies cannot make it jump from one kind to the next.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

/// Linearly interpolated quantile `q` in `[0, 1]`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The highest of the p99.9/p99/p90 tails that has at least ten samples
/// above it, as `(percentile, value)`. Fewer samples than that support
/// no tail at all.
pub fn reportable_tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0].into_iter().find_map(|p| {
        let beyond = values.len() as f64 * (100.0 - p) / 100.0;
        if beyond >= 10.0 - 1e-9 {
            quantile(values, p / 100.0).map(|v| (p, v))
        } else {
            None
        }
    })
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }

    #[test]
    fn geomean_of_positive_values() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(reportable_tail(&few), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(reportable_tail(&hundred).map(|t| t.0), Some(90.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&thousand).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
