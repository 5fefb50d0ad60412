//! Order statistics over timing samples.

/// The `q` quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Share of the total spent in the slowest 1 % of the samples (at least
/// one sample).
pub fn tail_share(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let tail = sorted.len().div_ceil(100);
    let total: f64 = sorted.iter().sum();
    sorted[..tail].iter().sum::<f64>() / total
}
