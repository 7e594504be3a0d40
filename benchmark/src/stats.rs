//! Order statistics over benchmark samples.

/// The `p`-quantile of `values` by the exclusive method that Python's
/// `statistics.quantiles` uses by default: rank `(n + 1) p`, linearly
/// interpolated between neighbours and clamped to the sample range.
///
/// With 120 samples, p90 sits at rank 108.9, so 12 samples lie beyond
/// it. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((n + 1) as f64 * p).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let a = sorted[lo - 1];
    let b = sorted[lo.min(n - 1)];
    a + frac * (b - a)
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The weighted median of `(value, weight)` pairs: the value at which
/// half the total weight lies on either side. NaN when empty.
pub fn weighted_median(pairs: &[(f64, f64)]) -> f64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = sorted.iter().map(|p| p.1).sum::<f64>() / 2.0;
    let mut seen = 0.0;
    for (value, weight) in sorted {
        seen += weight;
        if seen >= half {
            return value;
        }
    }
    f64::NAN
}

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// How many samples the summary covers.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }
}

/// A SplitMix64 step: the benchmark's only source of pseudo-randomness,
/// so every input and every sampling decision follows from `--seed`.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit value from a seed and two indices.
pub(crate) fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut s = seed ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut s);
    s ^= b.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix(&mut s)
}
